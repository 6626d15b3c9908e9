#include "replica.hh"

#include <memory>
#include <utility>

#include "sim/log.hh"

namespace cmpmem::bench
{

SpanRecorder::SpanRecorder()
    : origin(std::chrono::steady_clock::now()),
      owner(std::this_thread::get_id())
{
}

int
SpanRecorder::open(std::string name, std::string job, int parent)
{
    Span s;
    s.name = std::move(name);
    s.job = std::move(job);
    s.parent = parent;
    s.tid = std::this_thread::get_id() == owner ? 1 : 2;
    s.wallStart = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - origin)
                      .count();
    s.cpuStart = threadCpuSeconds();
    recorded.push_back(std::move(s));
    return int(recorded.size()) - 1;
}

void
SpanRecorder::close(int idx)
{
    Span &s = recorded.at(std::size_t(idx));
    if (!s.open)
        return;
    s.cpuSeconds = threadCpuSeconds() - s.cpuStart;
    s.wallEnd = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - origin)
                    .count();
    s.open = false;
}

double
SpanRecorder::selfSeconds(int idx) const
{
    double self = recorded.at(std::size_t(idx)).cpuSeconds;
    for (const Span &s : recorded)
        if (s.parent == idx)
            self -= s.cpuSeconds;
    return self;
}

JsonValue
SpanRecorder::chromeTrace() const
{
    JsonValue events = JsonValue::makeArray();
    for (std::size_t i = 0; i < recorded.size(); ++i) {
        const Span &s = recorded[i];
        if (s.open)
            continue;
        JsonValue args = JsonValue::makeObject();
        args.set("index", JsonValue::makeNumber(double(i)));
        args.set("parent", JsonValue::makeNumber(s.parent));
        args.set("job", JsonValue::makeString(s.job));
        args.set("cpu_us", JsonValue::makeNumber(s.cpuSeconds * 1e6));
        args.set("self_cpu_us",
                 JsonValue::makeNumber(selfSeconds(int(i)) * 1e6));

        JsonValue ev = JsonValue::makeObject();
        ev.set("name", JsonValue::makeString(s.name));
        ev.set("cat", JsonValue::makeString(
                          s.job.empty() ? "harness"
                                        : s.parent < 0 ? "job" : "layer"));
        ev.set("ph", JsonValue::makeString("X"));
        ev.set("ts", JsonValue::makeNumber(s.wallStart * 1e6));
        ev.set("dur",
               JsonValue::makeNumber((s.wallEnd - s.wallStart) * 1e6));
        ev.set("pid", JsonValue::makeNumber(1));
        ev.set("tid", JsonValue::makeNumber(s.tid));
        ev.set("args", std::move(args));
        events.append(std::move(ev));
    }
    JsonValue doc = JsonValue::makeObject();
    doc.set("traceEvents", std::move(events));
    doc.set("displayTimeUnit", JsonValue::makeString("ms"));
    return doc;
}

namespace
{

/** runWorkload()'s kernel binding: I-cache model, then one kernel per core. */
void
bindAll(CmpSystem &sys, Workload &workload)
{
    const double mpki = workload.icacheMpki(sys.config());
    for (int i = 0; i < sys.cores(); ++i) {
        sys.core(i).icache().setMissesPerKiloInstr(mpki);
        sys.bindKernel(i, workload.kernel(sys.context(i)));
    }
}

/** runWorkload()'s calendar auto-tune: a bounded, abandoned dry run. */
std::uint32_t
tunedBucketShift(const SweepJob &job)
{
    SystemConfig dry_cfg = job.cfg;
    dry_cfg.eq.autoTune = false;
    CmpSystem sys(dry_cfg);
    auto workload = createWorkload(job.workload, job.params);
    workload->setup(sys);
    bindAll(sys, *workload);
    sys.dryRun(job.cfg.eq.tuneDryRunTicks);
    return sys.eventQueue().recommendBucketShift(job.cfg.eq.tuneHotThreshold);
}

} // namespace

RunResult
replicaRun(const SweepJob &job, SpanRecorder &rec, ReplicaStop stop)
{
    // Declared before the job span so they are destroyed after it
    // closes: runWorkload() does not bill teardown either.
    std::unique_ptr<CmpSystem> sys;
    std::unique_ptr<Workload> workload;
    RunResult result;

    ScopedSpan top(rec, job.id, job.id, -1);
    const int p = top.index();
    auto finish = [&] {
        top.close();
        result.hostSeconds = rec.spans()[std::size_t(p)].cpuSeconds;
        return result;
    };

    SystemConfig run_cfg = job.cfg;
    if (job.cfg.eq.autoTune) {
        ScopedSpan s(rec, "system.autotune", job.id, p);
        run_cfg.eq.autoTune = false;
        run_cfg.eq.bucketShift = tunedBucketShift(job);
    }
    {
        ScopedSpan s(rec, "system.construct", job.id, p);
        sys = std::make_unique<CmpSystem>(run_cfg);
    }
    {
        ScopedSpan s(rec, "workloads.create", job.id, p);
        workload = createWorkload(job.workload, job.params);
    }
    {
        ScopedSpan s(rec, "workloads.setup", job.id, p);
        workload->setup(*sys);
    }
    {
        ScopedSpan s(rec, "system.bind", job.id, p);
        bindAll(*sys, *workload);
    }
    if (stop == ReplicaStop::AfterBind)
        return finish();

    {
        ScopedSpan s(rec, "system.simulate", job.id, p);
        sys->simulate();
    }
    {
        ScopedSpan s(rec, "system.collect", job.id, p);
        result.stats = sys->collectStats();
        result.stats.workload = workload->name();
        result.stats.variant = workload->variant();
    }
    {
        ScopedSpan s(rec, "energy.compute", job.id, p);
        result.energy = EnergyModel(job.cfg.energy).compute(result.stats);
    }
    {
        ScopedSpan s(rec, "workloads.verify", job.id, p);
        result.verified = workload->verify(*sys);
    }
    if (!result.verified)
        warn("workload %s/%s failed verification",
             workload->name().c_str(), workload->variant().c_str());
    return finish();
}

} // namespace cmpmem::bench
