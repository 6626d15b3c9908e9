/**
 * @file
 * The allocation-free miss path (DESIGN.md §18): MSHR waiter pools
 * are reserved at construction and DMA commands copy in place, so
 * miss traffic in steady state never touches the host heap. Each
 * transaction-shape case runs one miss-heavy kernel on a full
 * CmpSystem, checks that the path it targets was really taken, and
 * requires RunStats::missPathAllocs == 0. The DMA cases include fem's
 * command shape, a 1,024-element indexed gather, which used to grow a
 * staging buffer once per engine.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

const std::uint64_t kLineBytes = SystemConfig{}.lineBytes;

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

constexpr std::uint32_t kDmaChunk = 4096;

KernelTask
dmaStreamKernel(Context &ctx, Addr base, std::uint64_t iters)
{
    Context::Ticket tickets[2] = {0, 0};
    bool valid[2] = {false, false};
    for (std::uint64_t i = 0; i < iters; ++i) {
        std::uint32_t buf = i & 1;
        if (valid[buf])
            co_await ctx.dmaWait(tickets[buf]);
        Addr mem = base + (i % 64) * kDmaChunk;
        co_await ctx.dmaGet(mem, buf * kDmaChunk, kDmaChunk);
        tickets[buf] = co_await ctx.dmaPut(mem, buf * kDmaChunk, kDmaChunk);
        valid[buf] = true;
    }
    co_await ctx.dmaWaitAll();
}

/** 4096 lines (128 KiB, 4x the 32 KiB L1): every load misses. */
TEST(MissPath, MshrChurnDoesNotAllocate)
{
    constexpr std::uint64_t kLines = 4096, kIters = 20000;
    CmpSystem sys(makeConfig(1, MemModel::CC));
    auto buf = ArrayRef<std::uint8_t>::alloc(sys.mem(), kLines * kLineBytes);
    sys.bindKernel(0, lineWalkKernel(sys.context(0), buf.at(0), kLines,
                                     kIters));
    sys.simulate();
    RunStats rs = sys.collectStats();
    EXPECT_EQ(rs.l1Total.loadMisses, kIters);
    EXPECT_EQ(rs.missPathAllocs, 0u);
}

/**
 * The same walk with the prefetcher streaming ahead: demand loads
 * park as MSHR waiters on in-flight prefetch fills.
 */
TEST(MissPath, PrefetchMergeFaninDoesNotAllocate)
{
    constexpr std::uint64_t kLines = 4096, kIters = 20000;
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    cfg.hwPrefetch = true;
    CmpSystem sys(cfg);
    auto buf = ArrayRef<std::uint8_t>::alloc(sys.mem(), kLines * kLineBytes);
    sys.bindKernel(0, mergeFaninKernel(sys.context(0), buf.at(0), kLines,
                                       kIters));
    sys.simulate();
    RunStats rs = sys.collectStats();
    EXPECT_GT(rs.l1Total.prefetchesUseful, 0u);
    EXPECT_EQ(rs.missPathAllocs, 0u);
}

/** Two cores trade 64 shared lines turn by turn: coherence ping-pong. */
TEST(MissPath, BarrierTurnPingpongDoesNotAllocate)
{
    constexpr std::uint64_t kSharedLines = 64, kRounds = 300;
    CmpSystem sys(makeConfig(2, MemModel::CC));
    auto buf = ArrayRef<std::uint8_t>::alloc(sys.mem(),
                                             kSharedLines * kLineBytes);
    Barrier bar(2);
    for (int c = 0; c < 2; ++c)
        sys.bindKernel(c, pingpongKernel(sys.context(c), bar, buf.at(0),
                                         kSharedLines, kRounds, c));
    sys.simulate();
    RunStats rs = sys.collectStats();
    EXPECT_GT(rs.l1Total.suppliesProvided, 0u);
    EXPECT_EQ(rs.missPathAllocs, 0u);
}

/** Double-buffered 4 KiB get/put streaming on one STR core. */
TEST(MissPath, DoubleBufferedDmaDoesNotAllocate)
{
    constexpr std::uint64_t kIters = 1000;
    CmpSystem sys(makeConfig(1, MemModel::STR));
    auto buf = ArrayRef<std::uint8_t>::alloc(sys.mem(), 64 * kDmaChunk);
    sys.bindKernel(0, dmaStreamKernel(sys.context(0), buf.at(0), kIters));
    sys.simulate();
    RunStats rs = sys.collectStats();
    EXPECT_EQ(rs.dmaAccesses, kIters * 2 * kDmaChunk / kLineBytes);
    EXPECT_EQ(rs.missPathAllocs, 0u);
}

KernelTask
gatherKernel(Context &ctx, const std::vector<Addr> &addrs, int repeats)
{
    for (int i = 0; i < repeats; ++i)
        co_await ctx.dmaWait(co_await ctx.dmaGetIndexed(addrs, 4, 0));
}

/**
 * fem's command shape: an indexed gather of 1,024 four-byte elements,
 * one per line, issued twice on one engine. The engine walks the
 * addresses in place and copies each element straight into the local
 * store, so no command length allocates.
 */
TEST(MissPath, LargeIndexedGatherDoesNotAllocate)
{
    constexpr std::uint64_t kElems = 1024;
    CmpSystem sys(makeConfig(1, MemModel::STR));
    auto buf = ArrayRef<std::uint8_t>::alloc(sys.mem(), kElems * kLineBytes);
    std::vector<Addr> addrs;
    for (std::uint64_t i = 0; i < kElems; ++i)
        addrs.push_back(buf.at(i * kLineBytes));
    sys.bindKernel(0, gatherKernel(sys.context(0), addrs, 2));
    sys.simulate();
    RunStats rs = sys.collectStats();
    EXPECT_EQ(rs.dmaAccesses, 2 * kElems);
    EXPECT_EQ(rs.missPathAllocs, 0u);
}

} // namespace
} // namespace cmpmem
