/**
 * @file
 * Sweep-engine tests: spec expansion (cross-product, axes, tags,
 * explicit points), the job-list executor (id validation, results in
 * list order, failure isolation, log capture), JSON artifact
 * validity, and the determinism contract — parallel and serial
 * execution of the same spec produce bit-identical simulated tick
 * counts per point (the SweepIntegration suite, labelled "long" in
 * ctest).
 */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdlib>
#include <stdexcept>

#include "cmpmem.hh"
#include "sim/log.hh"

namespace cmpmem
{
namespace
{

/**
 * Minimal recursive-descent JSON syntax checker — enough to assert
 * the artifacts are machine-readable without a JSON dependency.
 */
class JsonChecker
{
  public:
    explicit JsonChecker(const std::string &text) : s(text) {}

    bool
    valid()
    {
        ws();
        if (!value())
            return false;
        ws();
        return i == s.size();
    }

  private:
    const std::string &s;
    std::size_t i = 0;

    void
    ws()
    {
        while (i < s.size() &&
               std::isspace(static_cast<unsigned char>(s[i])))
            ++i;
    }

    bool
    lit(const char *t)
    {
        std::size_t n = std::string::traits_type::length(t);
        if (s.compare(i, n, t) != 0)
            return false;
        i += n;
        return true;
    }

    bool
    str()
    {
        if (i >= s.size() || s[i] != '"')
            return false;
        ++i;
        while (i < s.size() && s[i] != '"') {
            if (s[i] == '\\') {
                ++i;
                if (i >= s.size())
                    return false;
            }
            ++i;
        }
        if (i >= s.size())
            return false;
        ++i; // closing quote
        return true;
    }

    bool
    number()
    {
        std::size_t start = i;
        if (i < s.size() && s[i] == '-')
            ++i;
        while (i < s.size() &&
               (std::isdigit(static_cast<unsigned char>(s[i])) ||
                s[i] == '.' || s[i] == 'e' || s[i] == 'E' ||
                s[i] == '+' || s[i] == '-'))
            ++i;
        return i > start;
    }

    bool
    object()
    {
        ++i; // '{'
        ws();
        if (i < s.size() && s[i] == '}') {
            ++i;
            return true;
        }
        for (;;) {
            ws();
            if (!str())
                return false;
            ws();
            if (i >= s.size() || s[i] != ':')
                return false;
            ++i;
            ws();
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != '}')
            return false;
        ++i;
        return true;
    }

    bool
    array()
    {
        ++i; // '['
        ws();
        if (i < s.size() && s[i] == ']') {
            ++i;
            return true;
        }
        for (;;) {
            ws();
            if (!value())
                return false;
            ws();
            if (i < s.size() && s[i] == ',') {
                ++i;
                continue;
            }
            break;
        }
        if (i >= s.size() || s[i] != ']')
            return false;
        ++i;
        return true;
    }

    bool
    value()
    {
        if (i >= s.size())
            return false;
        char c = s[i];
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return str();
        if (c == 't')
            return lit("true");
        if (c == 'f')
            return lit("false");
        if (c == 'n')
            return lit("null");
        return number();
    }
};

/** A custom-run job that throws or returns a fixed result. */
SweepJob
customJob(const std::string &id, bool fail = false, bool verified = true)
{
    SweepJob j;
    j.id = id;
    j.run = [fail, verified] {
        if (fail)
            throw std::runtime_error("injected failure");
        RunResult r;
        r.stats.execTicks = 42;
        r.verified = verified;
        return r;
    };
    return j;
}

TEST(SweepSpec, CrossProductExpansion)
{
    SweepSpec spec("t");
    spec.base(makeConfig(16, MemModel::CC))
        .workloads({"fir", "merge"})
        .axis("cores", {2, 4},
              [](SystemConfig &cfg, double v) { cfg.cores = int(v); },
              0)
        .modelAxis();

    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u * 2u * 2u);
    // Workload outermost, then axes in insertion order.
    EXPECT_EQ(jobs[0].id, "fir/cores=2/model=CC");
    EXPECT_EQ(jobs[1].id, "fir/cores=2/model=STR");
    EXPECT_EQ(jobs[2].id, "fir/cores=4/model=CC");
    EXPECT_EQ(jobs[4].id, "merge/cores=2/model=CC");
    EXPECT_EQ(jobs[7].id, "merge/cores=4/model=STR");

    EXPECT_EQ(jobs[3].workload, "fir");
    EXPECT_EQ(jobs[3].cfg.cores, 4);
    EXPECT_EQ(jobs[3].cfg.model, MemModel::STR);
    EXPECT_EQ(jobs[3].tags.at("workload"), "fir");
    EXPECT_EQ(jobs[3].tags.at("cores"), "4");
    EXPECT_EQ(jobs[3].tags.at("model"), "STR");
}

TEST(SweepSpec, ExplicitPointsRideAlong)
{
    SweepSpec spec("t");
    spec.workloads({"fir"});
    SweepJob p;
    p.id = "extra";
    p.workload = "merge";
    spec.point(p);
    auto jobs = spec.expand();
    ASSERT_EQ(jobs.size(), 2u);
    EXPECT_EQ(jobs[0].id, "fir");
    EXPECT_EQ(jobs[1].id, "extra");
}

// EXPECT_DEATH wrappers (commas in braced initializers confuse the
// macro, so each bad graph is built in a helper).
void
graphWithDuplicateIds()
{
    runJobs("t", {customJob("a"), customJob("a")});
}

void
graphWithEmptyJob()
{
    SweepJob j;
    j.id = "empty";
    runJobs("t", {j});
}

TEST(SweepExecutorDeath, RejectsBadGraphs)
{
    EXPECT_DEATH(graphWithDuplicateIds(), "duplicate");
    EXPECT_DEATH(graphWithEmptyJob(), "neither");
}

TEST(SweepExecutor, FailingJobDoesNotPoisonSiblings)
{
    std::vector<SweepJob> jobs = {
        customJob("ok1"),
        customJob("throws", /*fail=*/true),
        customJob("unverified", false, /*verified=*/false),
        customJob("after-throws"),
    };

    SweepOptions opts;
    opts.jobs = 2;
    opts.echoLogs = false;
    SweepResult res = runJobs("fail", std::move(jobs), opts);

    // Results come back in job-list order, not completion order.
    ASSERT_EQ(res.jobs().size(), 4u);
    EXPECT_EQ(res.jobs()[0].job.id, "ok1");
    EXPECT_EQ(res.jobs()[1].job.id, "throws");
    EXPECT_EQ(res.jobs()[2].job.id, "unverified");
    EXPECT_EQ(res.jobs()[3].job.id, "after-throws");

    EXPECT_TRUE(res.at("ok1").ran);
    EXPECT_TRUE(res.at("ok1").run.verified);
    EXPECT_FALSE(res.at("throws").ran);
    EXPECT_NE(res.at("throws").error.find("injected"),
              std::string::npos);
    EXPECT_TRUE(res.at("unverified").ran);
    EXPECT_FALSE(res.at("unverified").run.verified);
    EXPECT_TRUE(res.at("after-throws").ran);

    EXPECT_FALSE(res.allRan());
    EXPECT_FALSE(res.allVerified());
    EXPECT_EQ(res.find("no-such-job"), nullptr);
}

TEST(SweepExecutor, ZeroInterconnectWidthFailsOnlyItsPoint)
{
    // A zero or non-power-of-two bus width is a config error of that
    // one point (DESIGN.md §11), not a process abort or a wrong beat
    // count in the channel.
    WorkloadParams tiny;
    tiny.scale = 0;
    SweepSpec spec("zero_width");
    spec.base(makeConfig(2, MemModel::CC))
        .baseParams(tiny)
        .workloads({"fir"})
        .axis(
            "bus_width", {0, 24, 32},
            [](SystemConfig &cfg, double v) {
                cfg.net.busWidthBytes = std::uint32_t(v);
            },
            0);
    SweepOptions opts;
    opts.jobs = 1;
    opts.echoLogs = false;
    opts.isolate = SweepIsolate::Off;
    SweepResult res = runSweep(spec, opts);

    for (const char *id : {"fir/bus_width=0", "fir/bus_width=24"}) {
        const JobResult &bad = res.at(id);
        EXPECT_FALSE(bad.ran) << id;
        EXPECT_EQ(bad.errorKind, "config") << id;
        EXPECT_NE(bad.error.find("interconnect width"), std::string::npos)
            << bad.error;
    }
    EXPECT_TRUE(res.at("fir/bus_width=32").ran);
    EXPECT_TRUE(res.at("fir/bus_width=32").run.verified);
}

TEST(SweepExecutor, CapturesWarningsPerJob)
{
    SweepJob j;
    j.id = "warns";
    j.run = [] {
        warn("from inside job %d", 7);
        inform("status %s", "line");
        return RunResult{};
    };
    SweepOptions opts;
    opts.jobs = 1;
    opts.echoLogs = false;
    SweepResult res = runJobs("logs", {j}, opts);
    const std::string &log = res.at("warns").log;
    EXPECT_NE(log.find("warn: from inside job 7"), std::string::npos);
    EXPECT_NE(log.find("info: status line"), std::string::npos);
}

TEST(SweepExecutor, QuietFlagSuppressesCapture)
{
    setQuiet(true);
    SweepJob j;
    j.id = "quiet";
    j.run = [] {
        warn("should be dropped");
        return RunResult{};
    };
    SweepOptions opts;
    opts.jobs = 1;
    SweepResult res = runJobs("quiet", {j}, opts);
    setQuiet(false);
    EXPECT_TRUE(res.at("quiet").log.empty());
    EXPECT_FALSE(isQuiet());
}

TEST(LogCapture, NestsAndRestores)
{
    LogCapture outer;
    warn("outer %d", 1);
    {
        LogCapture inner;
        warn("inner");
        EXPECT_NE(inner.text().find("inner"), std::string::npos);
        EXPECT_EQ(inner.text().find("outer"), std::string::npos);
    }
    warn("outer %d", 2);
    EXPECT_NE(outer.text().find("outer 1"), std::string::npos);
    EXPECT_NE(outer.text().find("outer 2"), std::string::npos);
    EXPECT_EQ(outer.text().find("inner"), std::string::npos);
}

TEST(SweepOptionsEnv, WorkerCountResolution)
{
    EXPECT_EQ(sweepWorkerCount(3), 3);

    setenv("CMPMEM_JOBS", "5", 1);
    EXPECT_EQ(sweepWorkerCount(0), 5);
    unsetenv("CMPMEM_JOBS");

    EXPECT_GE(sweepWorkerCount(0), 1);
}

TEST(SweepJson, ArtifactIsValidAndCarriesTheSchema)
{
    WorkloadParams tiny;
    tiny.scale = 0;
    SweepSpec spec("json_check");
    spec.base(makeConfig(2, MemModel::CC))
        .baseParams(tiny)
        .workloads({"fir"})
        .modelAxis();
    SweepOptions opts;
    opts.jobs = 2;
    SweepResult res = runSweep(spec, opts);

    std::string json = res.toJson();
    EXPECT_TRUE(JsonChecker(json).valid()) << json;
    EXPECT_NE(json.find("\"sweep\": \"json_check\""),
              std::string::npos);
    EXPECT_NE(json.find("\"schema\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"scale\": "), std::string::npos);
    EXPECT_NE(json.find("\"bench_scale_div\": "), std::string::npos);
    EXPECT_NE(json.find("\"stats_digest\": \"fnv1a:"),
              std::string::npos);
    EXPECT_NE(json.find("\"id\": \"fir/model=CC\""),
              std::string::npos);
    EXPECT_NE(json.find("\"exec_ticks\""), std::string::npos);
    EXPECT_NE(json.find("\"dram.read_bytes\""), std::string::npos);
    EXPECT_NE(json.find("\"total_mj\""), std::string::npos);
    EXPECT_NE(json.find("\"host_seconds\""), std::string::npos);
    EXPECT_NE(json.find("\"verified\": true"), std::string::npos);
}

TEST(SweepJson, EscapesAndEmptySweep)
{
    SweepJob j;
    j.id = "we\"ird\\id\n";
    j.run = [] { return RunResult{}; };
    SweepOptions opts;
    opts.echoLogs = false;
    SweepResult res = runJobs("esc", {j}, opts);
    EXPECT_TRUE(JsonChecker(res.toJson()).valid()) << res.toJson();

    SweepResult empty = runJobs("empty", {}, opts);
    EXPECT_TRUE(JsonChecker(empty.toJson()).valid());
    EXPECT_EQ(empty.jobs().size(), 0u);
}

/**
 * The determinism contract (labelled "long" in ctest): for a fixed
 * spec, per-point simulated state is bit-identical no matter how
 * many workers execute the graph. Uses real workloads across both
 * models and several configurations.
 */
TEST(SweepIntegration, ParallelMatchesSerialBitIdentical)
{
    WorkloadParams tiny;
    tiny.scale = 0;

    auto makeSpec = [&] {
        SweepSpec spec("determinism");
        spec.base(makeConfig(4, MemModel::CC))
            .baseParams(tiny)
            .workloads({"fir", "merge", "mpeg2"})
            .axis("cores", {1, 2, 4},
                  [](SystemConfig &cfg, double v) {
                      cfg.cores = int(v);
                  },
                  0)
            .modelAxis();
        return spec;
    };

    SweepOptions serial;
    serial.jobs = 1;
    serial.echoLogs = false;
    SweepOptions parallel;
    parallel.jobs = 4;
    parallel.echoLogs = false;

    SweepResult a = runSweep(makeSpec(), serial);
    SweepResult b = runSweep(makeSpec(), parallel);

    ASSERT_EQ(a.jobs().size(), b.jobs().size());
    ASSERT_EQ(a.jobs().size(), 3u * 3u * 2u);
    for (const auto &ja : a.jobs()) {
        const JobResult &jb = b.at(ja.job.id);
        EXPECT_TRUE(ja.ran);
        EXPECT_TRUE(jb.ran);
        EXPECT_EQ(ja.run.stats.execTicks, jb.run.stats.execTicks)
            << ja.job.id;
        EXPECT_EQ(ja.run.stats.dramReadBytes,
                  jb.run.stats.dramReadBytes)
            << ja.job.id;
        EXPECT_EQ(ja.run.stats.dramWriteBytes,
                  jb.run.stats.dramWriteBytes)
            << ja.job.id;
        EXPECT_EQ(ja.run.stats.l1Total.writebacks,
                  jb.run.stats.l1Total.writebacks)
            << ja.job.id;
        EXPECT_EQ(ja.run.verified, jb.run.verified) << ja.job.id;
    }
}

} // namespace
} // namespace cmpmem
