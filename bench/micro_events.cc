/**
 * @file
 * Event-engine microbenchmark on the sweep engine: measures raw
 * scheduler throughput (events/sec) for the access patterns the
 * calendar queue must serve, plus one full-system point so the
 * simulator-wide events/sec trajectory is tracked PR over PR in
 * BENCH_micro_events.json.
 *
 * Jobs (all custom-run, single-threaded, deterministic event
 * streams):
 *   churn  - 64 self-rescheduling chains with mixed strides inside
 *            the calendar window: the schedule/dispatch hot loop.
 *   burst  - same-tick fan-out bursts: the now-FIFO path.
 *   far    - horizons beyond the calendar ring: overflow heap and
 *            migration on window advance.
 *   far_tuned - the same far-future stream under auto-tuned calendar
 *            geometry (a dry-run sample picks the bucket shift via
 *            EventQueue::recommendBucketShift): same events, a
 *            fraction of the overflows.
 *   stress - the full-system randomized "stress" workload (CC,
 *            4 cores), where model code dominates each event.
 *
 * CMPMEM_SCALE scales the event counts (0 = smoke).
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

namespace
{

/** Package a finished queue run as a sweep RunResult. */
RunResult
queueResult(const EventQueue &eq, double host_seconds)
{
    RunResult r;
    r.stats.eventsExecuted = eq.executed();
    r.stats.peakPendingEvents = eq.peakPending();
    r.stats.calendarOverflows = eq.calendarOverflows();
    r.stats.calendarBucketShift = eq.bucketShift();
    r.stats.execTicks = eq.now();
    r.hostSeconds = host_seconds;
    r.verified = true;
    return r;
}

/** 64 interleaved chains, strides 100..692 ticks (in-window). */
RunResult
runChurn()
{
    constexpr int kChains = 64;
    const std::uint64_t perChain = benchIters(2000);

    EventQueue eq;
    std::uint64_t fired = 0;
    struct Chain
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t left;
        Tick stride;

        void
        arm(Tick when)
        {
            eq->schedule(when, [this, when] {
                ++*fired;
                if (--left)
                    arm(when + stride);
            });
        }
    };
    std::vector<Chain> chains(kChains);
    double t0 = threadCpuSeconds();
    for (int i = 0; i < kChains; ++i) {
        chains[i] = {&eq, &fired, perChain, Tick(100 + 37 * (i % 17))};
        chains[i].arm(Tick(i));
    }
    eq.run();
    return queueResult(eq, threadCpuSeconds() - t0);
}

/** Same-tick fan-out: one trigger spawns a 63-event burst, repeat. */
RunResult
runBurst()
{
    constexpr int kBurst = 63;
    const std::uint64_t rounds = benchIters(2000);

    EventQueue eq;
    std::uint64_t fired = 0;
    struct Driver
    {
        EventQueue *eq;
        std::uint64_t *fired;
        std::uint64_t left;

        void
        arm(Tick when)
        {
            eq->schedule(when, [this, when] {
                ++*fired;
                for (int i = 0; i < kBurst; ++i)
                    eq->schedule(when, [this] { ++*fired; });
                if (--left)
                    arm(when + 1000);
            });
        }
    };
    Driver d{&eq, &fired, rounds};
    double t0 = threadCpuSeconds();
    d.arm(0);
    eq.run();
    return queueResult(eq, threadCpuSeconds() - t0);
}

struct FarChain
{
    EventQueue *eq;
    std::uint64_t *fired;
    std::uint64_t left;
    Tick stride;

    void
    arm(Tick when)
    {
        eq->schedule(when, [this, when] {
            ++*fired;
            if (--left)
                arm(when + stride);
        });
    }
};

/** Launch the far-future chain set on @p eq (strides 300k..940k). */
void
armFarChains(EventQueue &eq, std::vector<FarChain> &chains,
             std::uint64_t *fired, std::uint64_t per_chain)
{
    for (std::size_t i = 0; i < chains.size(); ++i) {
        // Well past the default ~262k-tick window so every hop
        // overflows under the stock geometry.
        chains[i] = {&eq, fired, per_chain, Tick(300000 + 40001 * i)};
        chains[i].arm(Tick(i));
    }
}

/** Chains whose stride exceeds the calendar window (overflow path). */
RunResult
runFar()
{
    constexpr int kChains = 16;
    const std::uint64_t perChain = benchIters(2000);

    EventQueue eq;
    std::uint64_t fired = 0;
    std::vector<FarChain> chains(kChains);
    double t0 = threadCpuSeconds();
    armFarChains(eq, chains, &fired, perChain);
    eq.run();
    return queueResult(eq, threadCpuSeconds() - t0);
}

/**
 * The same far-future stream under auto-tuned geometry: a short
 * dry-run sample under the default shift feeds
 * recommendBucketShift(), and the measured run uses the result. The
 * simulated stream is bit-identical to runFar() — same events, same
 * final tick — with the overflow heap nearly idle (the artifact
 * records both, and the baseline gate holds them bit-identical).
 */
RunResult
runFarTuned()
{
    constexpr int kChains = 16;
    const std::uint64_t perChain = benchIters(2000);

    unsigned shift;
    {
        EventQueue sample;
        std::uint64_t fired = 0;
        std::vector<FarChain> chains(kChains);
        armFarChains(sample, chains, &fired, perChain);
        sample.runUntil(4 * sample.horizonTicks());
        shift = sample.recommendBucketShift();
    }

    EventQueue eq;
    eq.setBucketShift(shift);
    std::uint64_t fired = 0;
    std::vector<FarChain> chains(kChains);
    double t0 = threadCpuSeconds();
    armFarChains(eq, chains, &fired, perChain);
    eq.run();
    return queueResult(eq, threadCpuSeconds() - t0);
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    std::printf("Event-engine microbenchmark (events/sec, higher is "
                "better)\n\n");

    WorkloadParams stress_params = benchParams();
    stress_params.seed = 42;

    std::vector<SweepJob> jobs;
    jobs.emplace_back("churn", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "churn"}},
                      runChurn);
    jobs.emplace_back("burst", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "burst"}},
                      runBurst);
    jobs.emplace_back("far", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "far"}},
                      runFar);
    jobs.emplace_back("far_tuned", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "far_tuned"}},
                      runFarTuned);
    jobs.emplace_back("stress/model=CC", "stress",
                      makeConfig(4, MemModel::CC), stress_params,
                      std::map<std::string, std::string>{{"job", "stress"}});

    // Serial on purpose: events/sec is a latency measurement, and
    // concurrent jobs would steal cache and memory bandwidth from
    // each other.
    SweepOptions opts;
    opts.jobs = 1;
    SweepResult res =
        runBenchJobs("micro_events", std::move(jobs), opts);

    TextTable table({"job", "events", "host ms", "events/sec",
                     "peak pending", "overflows", "shift"});
    for (const JobResult &jr : res.jobs()) {
        table.addRow({jr.job.id,
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.eventsExecuted),
                      fmtF(jr.run.hostSeconds * 1e3, 2),
                      fmt("%.3g", jr.run.eventsPerSec()),
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.peakPendingEvents),
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.calendarOverflows),
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.calendarBucketShift)});
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
