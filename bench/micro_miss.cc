/**
 * @file
 * Miss-path microbenchmark on the sweep engine: measures host
 * misses/sec for the transaction shapes the allocation-free miss
 * path (DESIGN.md §18) is built for, tracked PR over PR in
 * BENCH_micro_miss.json. Every job also reports the run's
 * miss-path host-allocation counter, which must be 0: the MSHR
 * waiter pool, store-buffer set, and DMA scratch buffers are sized
 * at construction and must never touch the heap in steady state.
 *
 * Jobs (all custom-run, deterministic):
 *   miss_storm    - line-stride loads over a buffer 4x the L1: every
 *                   access a demand miss, i.e. pure MSHR
 *                   allocate/complete churn.
 *   mshr_merge_fanin - the same walk with the hardware prefetcher
 *                   on: demand loads land on in-flight prefetch
 *                   fills and park as MSHR waiters (the merge/fan-in
 *                   path), plus stores chaining ensureOwnership
 *                   waiters behind fills.
 *   shared_invalidate_pingpong - two CC cores take barrier-separated
 *                   turns over a shared line set: every turn each
 *                   line costs a cache-to-cache supplied load miss
 *                   (M->S downgrade + writeback at the peer) and an
 *                   invalidating upgrade, plus barrier waiter churn.
 *   dma_stream    - STR model double-buffered get/put streaming: the
 *                   DMA command/completion path (ticket ring, chunk
 *                   staging, bounce buffers).
 *
 * CMPMEM_SCALE scales the iteration counts (0 = smoke).
 */

#include <cstdio>

#include "cmpmem.hh"
#include "core/context.hh"

using namespace cmpmem;

namespace
{

// Matches SystemConfig::lineBytes; checked at the top of main().
constexpr std::uint64_t kLineBytes = 32;
constexpr std::uint64_t kWordsPerLine = kLineBytes / 8;

/** Package a finished custom run as a sweep RunResult. */
RunResult
missResult(CmpSystem &sys, double host_seconds)
{
    RunResult r;
    r.stats = sys.collectStats();
    r.hostSeconds = host_seconds;
    r.verified = true;
    return r;
}

/** Simulated miss-side transactions (see RunResult::missesPerSec). */
std::uint64_t
misses(const RunResult &r)
{
    return r.stats.l1Total.demandMisses() + r.stats.l1Total.pfsStores +
           r.stats.dmaAccesses;
}

KernelTask
lineWalkKernel(Context &ctx, Addr base, std::uint64_t lines,
               std::uint64_t iters)
{
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i)
        acc += co_await ctx.load<std::uint64_t>(base +
                                                (i % lines) * kLineBytes);
    co_await ctx.storeNA<std::uint64_t>(base, acc);
}

KernelTask
mergeFaninKernel(Context &ctx, Addr base, std::uint64_t lines,
                 std::uint64_t iters)
{
    std::uint64_t acc = 0;
    for (std::uint64_t i = 0; i < iters; ++i) {
        Addr line = base + (i % lines) * kLineBytes;
        acc += co_await ctx.load<std::uint64_t>(line);
        // Every 4th line also takes a store, chaining an
        // ensureOwnership waiter behind whatever fill (demand or
        // prefetch) is in flight for a neighbouring line.
        if ((i & 3) == 0)
            co_await ctx.store<std::uint64_t>(line + 8, acc);
    }
    co_await ctx.storeNA<std::uint64_t>(base, acc);
}

KernelTask
pingpongKernel(Context &ctx, Barrier &bar, Addr base, std::uint64_t lines,
               std::uint64_t rounds, int id)
{
    // The barrier alternates ownership of the whole line set between
    // the cores. Overlap-free turns matter: two cores whose exclusive
    // fetches to the same cold line are simultaneously in flight each
    // snoop before the other installs, and the lines go quiet — with
    // turns, every round is a full supply/downgrade + upgrade/
    // invalidate ping-pong (two demand misses per line per turn).
    std::uint64_t acc = 0;
    for (std::uint64_t r = 0; r < rounds; ++r) {
        if ((r & 1) == std::uint64_t(id & 1)) {
            for (std::uint64_t i = 0; i < lines; ++i) {
                Addr line = base + i * kLineBytes;
                acc += co_await ctx.load<std::uint64_t>(line);
                co_await ctx.store<std::uint64_t>(line, acc);
            }
        }
        co_await ctx.barrier(bar);
    }
    co_await ctx.storeNA<std::uint64_t>(base + 8 + 8 * std::uint64_t(id),
                                        acc);
}

KernelTask
dmaStreamKernel(Context &ctx, Addr base, std::uint64_t iters)
{
    constexpr std::uint32_t kChunk = 4096;
    Context::Ticket tickets[2] = {0, 0};
    bool valid[2] = {false, false};
    for (std::uint64_t i = 0; i < iters; ++i) {
        std::uint32_t buf = i & 1;
        if (valid[buf])
            co_await ctx.dmaWait(tickets[buf]);
        Addr mem = base + (i % 64) * kChunk;
        co_await ctx.dmaGet(mem, buf * kChunk, kChunk);
        tickets[buf] = co_await ctx.dmaPut(mem, buf * kChunk, kChunk);
        valid[buf] = true;
    }
    co_await ctx.dmaWaitAll();
}

/** 4096 lines (128 KiB, 4x the 32 KiB L1): every load misses. */
RunResult
runMissStorm()
{
    constexpr std::uint64_t kLines = 4096;
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    auto buf = ArrayRef<std::uint64_t>::alloc(sys.mem(),
                                              kLines * kWordsPerLine);
    double t0 = threadCpuSeconds();
    sys.bindKernel(0, lineWalkKernel(sys.context(0), buf.at(0), kLines,
                                     benchIters(20000)));
    sys.simulate();
    return missResult(sys, threadCpuSeconds() - t0);
}

/** The same walk with the prefetcher streaming ahead of demand. */
RunResult
runMergeFanin()
{
    constexpr std::uint64_t kLines = 4096;
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    cfg.hwPrefetch = true;
    CmpSystem sys(cfg);
    auto buf = ArrayRef<std::uint64_t>::alloc(sys.mem(),
                                              kLines * kWordsPerLine);
    double t0 = threadCpuSeconds();
    sys.bindKernel(0, mergeFaninKernel(sys.context(0), buf.at(0), kLines,
                                       benchIters(20000)));
    sys.simulate();
    return missResult(sys, threadCpuSeconds() - t0);
}

/** Two cores trade 64 shared lines turn by turn: coherence ping-pong. */
RunResult
runPingpong()
{
    constexpr std::uint64_t kSharedLines = 64; // 2 KiB, fits either L1
    SystemConfig cfg = makeConfig(2, MemModel::CC);
    CmpSystem sys(cfg);
    auto buf = ArrayRef<std::uint64_t>::alloc(sys.mem(),
                                              kSharedLines * kWordsPerLine);
    Barrier bar(2);
    double t0 = threadCpuSeconds();
    for (int c = 0; c < 2; ++c)
        sys.bindKernel(c, pingpongKernel(sys.context(c), bar, buf.at(0),
                                         kSharedLines, benchIters(300), c));
    sys.simulate();
    return missResult(sys, threadCpuSeconds() - t0);
}

/** Double-buffered 4 KiB get/put streaming on one STR core. */
RunResult
runDmaStream()
{
    SystemConfig cfg = makeConfig(1, MemModel::STR);
    CmpSystem sys(cfg);
    // 64 x 4 KiB of streamed memory (see dmaStreamKernel).
    auto buf = ArrayRef<std::uint64_t>::alloc(sys.mem(),
                                              64 * 4096 / 8);
    double t0 = threadCpuSeconds();
    sys.bindKernel(0, dmaStreamKernel(sys.context(0), buf.at(0),
                                      benchIters(1000)));
    sys.simulate();
    return missResult(sys, threadCpuSeconds() - t0);
}

} // namespace

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);
    if (makeConfig(1, MemModel::CC).lineBytes != kLineBytes) {
        std::fprintf(stderr, "micro_miss: kLineBytes out of sync with "
                             "SystemConfig::lineBytes\n");
        return 1;
    }
    std::printf("Miss-path microbenchmark (misses/sec, higher is "
                "better; miss-path allocs must be 0)\n\n");

    std::vector<SweepJob> jobs;
    jobs.emplace_back("miss_storm", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "miss_storm"}},
                      runMissStorm);
    jobs.emplace_back("mshr_merge_fanin", "", SystemConfig{},
                      WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "mshr_merge_fanin"}},
                      runMergeFanin);
    jobs.emplace_back("shared_invalidate_pingpong", "", SystemConfig{},
                      WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "shared_invalidate_pingpong"}},
                      runPingpong);
    jobs.emplace_back("dma_stream", "", SystemConfig{}, WorkloadParams{},
                      std::map<std::string, std::string>{
                          {"job", "dma_stream"}},
                      runDmaStream);

    // Serial on purpose: misses/sec is a latency measurement, and
    // concurrent jobs would steal cache and memory bandwidth from
    // each other.
    SweepOptions opts;
    opts.jobs = 1;
    SweepResult res = runBenchJobs("micro_miss", std::move(jobs), opts);

    TextTable table({"job", "misses", "host ms", "misses/sec",
                     "miss-path allocs", "events/sec"});
    for (const JobResult &jr : res.jobs()) {
        table.addRow({jr.job.id,
                      fmt("%llu", (unsigned long long)misses(jr.run)),
                      fmtF(jr.run.hostSeconds * 1e3, 2),
                      fmt("%.3g", jr.run.missesPerSec()),
                      fmt("%llu", (unsigned long long)
                                      jr.run.stats.missPathAllocs),
                      fmt("%.3g", jr.run.eventsPerSec())});
    }
    std::printf("%s", table.format().c_str());

    int rc = finishBench(res);
    // The zero-allocation contract is part of what this bench pins:
    // a nonzero counter means a miss-path structure outgrew its
    // construction-time reservation.
    for (const JobResult &jr : res.jobs()) {
        if (jr.run.stats.missPathAllocs != 0) {
            std::fprintf(stderr,
                         "micro_miss: job %s took %llu miss-path host "
                         "allocation(s), expected 0\n",
                         jr.job.id.c_str(),
                         (unsigned long long)jr.run.stats.missPathAllocs);
            if (rc == 0)
                rc = 1;
        }
    }
    return rc;
}
