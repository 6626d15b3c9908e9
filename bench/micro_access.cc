/**
 * @file
 * Memory-access microbenchmark on the sweep engine: measures host
 * accesses/sec for the access patterns the fast path (DESIGN.md §13)
 * is built for, tracked PR over PR in BENCH_micro_access.json.
 *
 * Jobs (all custom-run, single core, CC model, deterministic):
 *   hit_loop    - repeated loads within one cache line: the per-core
 *                 line-hit micro path, every access after the first a
 *                 fastpath hit.
 *   stride      - line-stride walk over an L1-resident buffer: every
 *                 access a full-probe hit on a different set (the
 *                 MRU-way / shift-mask lookup path).
 *   chase       - pointer chase through a permuted ring of lines:
 *                 dependent full-probe hits, no spatial locality.
 *   store_burst - bursts of stores to a Modified line: the micro
 *                 store path plus store-buffer/upgrade traffic at
 *                 burst boundaries.
 *
 * CMPMEM_SCALE scales the access counts (0 = smoke).
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

namespace
{

// Matches SystemConfig::lineBytes; checked at the top of main().
constexpr std::uint64_t kLineBytes = 32;
constexpr std::uint64_t kWordsPerLine = kLineBytes / 8;

/** Package a finished single-core run as a sweep RunResult. */
RunResult
accessResult(CmpSystem &sys, double host_seconds)
{
    RunResult r;
    r.stats = sys.collectStats();
    r.hostSeconds = host_seconds;
    r.verified = true;
    return r;
}

KernelTask
hitLoopKernel(Context &ctx, Addr base, std::uint64_t iters)
{
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i)
        acc += co_await ctx.load<std::uint64_t>(
            base + ((i & (kWordsPerLine - 1)) << 3));
    co_await ctx.storeNA<std::uint64_t>(base, acc);
}

KernelTask
strideKernel(Context &ctx, Addr base, std::uint64_t lines,
             std::uint64_t iters)
{
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i)
        acc += co_await ctx.load<std::uint64_t>(base +
                                                (i % lines) * kLineBytes);
    co_await ctx.storeNA<std::uint64_t>(base, acc);
}

KernelTask
chaseKernel(Context &ctx, ArrayRef<std::uint64_t> ring, std::uint64_t hops)
{
    std::uint64_t idx = 0;
    for (std::uint64_t i = 0; i < hops; ++i)
        idx = co_await ctx.load<std::uint64_t>(ring.at(idx * kWordsPerLine));
    co_await ctx.storeNA<std::uint64_t>(ring.at(0), idx);
}

KernelTask
storeBurstKernel(Context &ctx, Addr base, std::uint64_t iters)
{
    constexpr std::uint64_t kBurst = 64;
    constexpr std::uint64_t kLines = 4;
    for (std::uint64_t i = 0; i < iters; ++i) {
        Addr line = base + ((i / kBurst) % kLines) * kLineBytes;
        co_await ctx.store<std::uint64_t>(
            line + ((i & (kWordsPerLine - 1)) << 3), i);
    }
}

/** One line, loads only: the micro-path best case. */
RunResult
runHitLoop()
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    auto buf = ArrayRef<std::uint64_t>::alloc(sys.mem(), kWordsPerLine);
    double t0 = threadCpuSeconds();
    sys.bindKernel(0, hitLoopKernel(sys.context(0), buf.at(0),
                                    benchIters(60000)));
    sys.simulate();
    return accessResult(sys, threadCpuSeconds() - t0);
}

/** 128 lines (4 KiB, L1-resident), line-stride sweep. */
RunResult
runStride()
{
    constexpr std::uint64_t kLines = 128;
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    auto buf = ArrayRef<std::uint64_t>::alloc(sys.mem(),
                                              kLines * kWordsPerLine);
    double t0 = threadCpuSeconds();
    sys.bindKernel(0, strideKernel(sys.context(0), buf.at(0), kLines,
                                   benchIters(40000)));
    sys.simulate();
    return accessResult(sys, threadCpuSeconds() - t0);
}

/** Dependent loads through a random single-cycle ring of 128 lines. */
RunResult
runChase()
{
    constexpr std::uint64_t kLines = 128;
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    auto ring = ArrayRef<std::uint64_t>::alloc(sys.mem(),
                                               kLines * kWordsPerLine);

    // Sattolo's algorithm: a uniform permutation with one cycle, so
    // the chase visits every line before repeating.
    std::vector<std::uint64_t> next(kLines);
    for (std::uint64_t i = 0; i < kLines; ++i)
        next[i] = i;
    Rng rng(7);
    for (std::uint64_t i = kLines - 1; i > 0; --i)
        std::swap(next[i], next[rng.nextBelow(i)]);
    for (std::uint64_t i = 0; i < kLines; ++i)
        sys.mem().write<std::uint64_t>(ring.at(i * kWordsPerLine), next[i]);

    double t0 = threadCpuSeconds();
    sys.bindKernel(0, chaseKernel(sys.context(0), ring,
                                  benchIters(40000)));
    sys.simulate();
    return accessResult(sys, threadCpuSeconds() - t0);
}

/** 64-store bursts round-robin over 4 lines. */
RunResult
runStoreBurst()
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    auto buf = ArrayRef<std::uint64_t>::alloc(sys.mem(),
                                              4 * kWordsPerLine);
    double t0 = threadCpuSeconds();
    sys.bindKernel(0, storeBurstKernel(sys.context(0), buf.at(0),
                                       benchIters(40000)));
    sys.simulate();
    return accessResult(sys, threadCpuSeconds() - t0);
}

std::uint64_t
accesses(const RunResult &r)
{
    const CoreStats &c = r.stats.coreTotal;
    return c.loads + c.stores + c.atomics + c.lsReads + c.lsWrites;
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    if (makeConfig(1, MemModel::CC).lineBytes != kLineBytes) {
        std::fprintf(stderr, "micro_access: kLineBytes out of sync with "
                             "SystemConfig::lineBytes\n");
        return 1;
    }
    std::printf("Memory-access microbenchmark (accesses/sec, higher is "
                "better)\n\n");

    std::vector<SweepJob> jobs;
    jobs.emplace_back("hit_loop", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "hit_loop"}},
                      runHitLoop);
    jobs.emplace_back("stride", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "stride"}},
                      runStride);
    jobs.emplace_back("chase", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{{"job", "chase"}},
                      runChase);
    jobs.emplace_back("store_burst", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "store_burst"}},
                      runStoreBurst);

    // Serial on purpose: accesses/sec is a latency measurement, and
    // concurrent jobs would steal cache and memory bandwidth from
    // each other.
    SweepOptions opts;
    opts.jobs = 1;
    SweepResult res =
        runBenchJobs("micro_access", std::move(jobs), opts);

    TextTable table({"job", "accesses", "host ms", "accesses/sec",
                     "fastpath hits", "events/sec"});
    for (const JobResult &jr : res.jobs()) {
        table.addRow({jr.job.id,
                      fmt("%llu", (unsigned long long)accesses(jr.run)),
                      fmtF(jr.run.hostSeconds * 1e3, 2),
                      fmt("%.3g", jr.run.accessesPerSec()),
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.l1Total.fastpathHits),
                      fmt("%.3g", jr.run.eventsPerSec())});
    }
    std::printf("%s", table.format().c_str());
    return finishBench(res);
}
