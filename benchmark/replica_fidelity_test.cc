/**
 * @file
 * The traced pass is only worth reading if replicaRun() does the work
 * runWorkload() does: equal stats digests on scale-0 jobs covering
 * both memory models, hardware prefetch and calendar auto-tuning, and
 * a trace that the strict JSON reader accepts with every call span
 * nested inside its job span.
 */

#include <gtest/gtest.h>

#include <map>

#include "replica.hh"

using namespace cmpmem;
using namespace cmpmem::bench;

namespace
{

SweepJob
smokeJob(const std::string &id, const std::string &app, int cores,
         MemModel model)
{
    WorkloadParams p;
    p.scale = 0;
    return SweepJob(id, app, makeConfig(cores, model), p);
}

std::vector<SweepJob>
fidelityJobs()
{
    SweepJob prefetched = smokeJob("art/CC+P4", "art", 4, MemModel::CC);
    prefetched.cfg.hwPrefetch = true;
    prefetched.cfg.prefetchDepth = 4;
    SweepJob tuned = smokeJob("fem/STR+tune", "fem", 4, MemModel::STR);
    tuned.cfg.eq.autoTune = true;
    return {smokeJob("fir/CC", "fir", 4, MemModel::CC),
            smokeJob("merge/STR", "merge", 4, MemModel::STR), prefetched,
            tuned};
}

} // namespace

TEST(ReplicaFidelity, DigestsMatchRunWorkload)
{
    for (const SweepJob &job : fidelityJobs()) {
        SCOPED_TRACE(job.id);
        RunResult ref = runWorkload(job.workload, job.cfg, job.params);
        SpanRecorder rec;
        RunResult rep = replicaRun(job, rec);
        ASSERT_TRUE(ref.verified);
        ASSERT_TRUE(rep.verified);
        EXPECT_EQ(rep.stats.toStatSet().digest(),
                  ref.stats.toStatSet().digest());
        EXPECT_EQ(rep.energy.totalMj(), ref.energy.totalMj());
        EXPECT_GT(rep.hostSeconds, 0);
    }
}

TEST(ReplicaFidelity, AutoTuneJobIsRetuned)
{
    // Without a retuned geometry the auto-tune case above would not
    // distinguish a replica that skips the dry run.
    const SweepJob tuned = fidelityJobs().back();
    ASSERT_TRUE(tuned.cfg.eq.autoTune);
    SpanRecorder rec;
    RunResult r = replicaRun(tuned, rec);
    EXPECT_NE(r.stats.calendarBucketShift, tuned.cfg.eq.bucketShift);
}

TEST(ReplicaFidelity, SetupOnlyStopsBeforeSimulate)
{
    SpanRecorder rec;
    RunResult r = replicaRun(fidelityJobs().front(), rec,
                             ReplicaStop::AfterBind);
    EXPECT_GT(r.hostSeconds, 0);
    for (const Span &s : rec.spans())
        EXPECT_NE(s.name, "system.simulate");
}

TEST(ReplicaFidelity, TraceParsesAndNests)
{
    SpanRecorder rec;
    for (const SweepJob &job : fidelityJobs())
        replicaRun(job, rec);

    JsonValue doc = JsonValue::parse(rec.chromeTrace().dump());
    const auto &events = doc.at("traceEvents").items();
    ASSERT_EQ(events.size(), rec.spans().size());

    std::map<int, const JsonValue *> byIndex;
    for (const JsonValue &ev : events)
        byIndex[int(ev.at("args").at("index").asNumber())] = &ev;

    int jobs = 0, children = 0;
    for (const JsonValue &ev : events) {
        const JsonValue &args = ev.at("args");
        EXPECT_EQ(ev.at("ph").asString(), "X");
        EXPECT_GE(args.at("self_cpu_us").asNumber(), 0);
        const int parent = int(args.at("parent").asNumber());
        if (parent < 0) {
            ++jobs;
            EXPECT_EQ(ev.at("name").asString(), args.at("job").asString());
            continue;
        }
        ++children;
        ASSERT_TRUE(byIndex.count(parent));
        const JsonValue &up = *byIndex[parent];
        EXPECT_EQ(args.at("job").asString(),
                  up.at("args").at("job").asString());
        EXPECT_EQ(ev.at("tid").asNumber(), up.at("tid").asNumber());
        // Timestamps are microseconds as doubles; allow rounding.
        const double ts = ev.at("ts").asNumber();
        const double end = ts + ev.at("dur").asNumber();
        const double upTs = up.at("ts").asNumber();
        const double upEnd = upTs + up.at("dur").asNumber();
        EXPECT_GE(ts, upTs - 1e-3);
        EXPECT_LE(end, upEnd + 1e-3);
    }
    EXPECT_EQ(jobs, 4);
    // construct, create, setup, bind, simulate, collect, energy,
    // verify per job, plus the auto-tune dry run of the tuned job.
    EXPECT_EQ(children, 4 * 8 + 1);
}
