/**
 * @file
 * Context-level API tests: awaitable semantics, functional values,
 * stall classification per operation type, DMA issue overheads, the
 * PFS hint plumbing, prefetchBlock's per-line issue cost,
 * model-specific routing (atomics at the L2 in STR, through the
 * coherent L1 in CC), and atomic arbitration across cores.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

/** Build a 1-core system and run one kernel over it. */
template <typename MakeKernel>
RunStats
runKernel(MemModel model, MakeKernel make)
{
    SystemConfig cfg = makeConfig(1, model);
    CmpSystem sys(cfg);
    sys.bindKernel(0, make(sys.context(0)));
    sys.simulate();
    return sys.collectStats();
}

KernelTask
valueRoundTrip(Context &ctx, Addr a, bool *ok)
{
    co_await ctx.store<std::uint64_t>(a, 0x1122334455667788ULL);
    auto v = co_await ctx.load<std::uint64_t>(a);
    co_await ctx.store<std::uint16_t>(a + 2, 0xbeef);
    auto w = co_await ctx.load<std::uint64_t>(a);
    *ok = (v == 0x1122334455667788ULL) &&
          (w == 0x11223344beef7788ULL);
}

TEST(Context, LoadsSeeStoredBytes)
{
    bool ok = false;
    runKernel(MemModel::CC, [&](Context &ctx) {
        return valueRoundTrip(ctx, 0x10000, &ok);
    });
    EXPECT_TRUE(ok);
}

KernelTask
countedOps(Context &ctx, Addr a)
{
    co_await ctx.compute(10);
    co_await ctx.computeFp(5);
    co_await ctx.load<std::uint32_t>(a);
    co_await ctx.store<std::uint32_t>(a, 1);
    co_await ctx.atomicFetchAdd32(a + 64, 1);
}

TEST(Context, InstructionAccountingPerClass)
{
    RunStats rs = runKernel(MemModel::CC, [&](Context &ctx) {
        return countedOps(ctx, 0x20000);
    });
    const CoreStats &cs = rs.coreTotal;
    EXPECT_EQ(cs.bundles, 15u);
    EXPECT_EQ(cs.fpBundles, 5u);
    EXPECT_EQ(cs.loads, 1u);
    EXPECT_EQ(cs.stores, 1u);
    EXPECT_EQ(cs.atomics, 1u);
    EXPECT_EQ(cs.instructions(), 15u + 3u);
    // Fetch counted every instruction.
    EXPECT_EQ(rs.icacheFetches, 18u);
}

TEST(Context, AtomicRoutesByModel)
{
    // CC: through the coherent L1.
    RunStats cc = runKernel(MemModel::CC, [&](Context &ctx) {
        return countedOps(ctx, 0x20000);
    });
    EXPECT_EQ(cc.l1Total.atomicOps, 1u);
    EXPECT_EQ(cc.fabric.remoteAtomics, 0u);

    // STR: at the shared L2's atomic unit.
    RunStats str = runKernel(MemModel::STR, [&](Context &ctx) {
        return countedOps(ctx, 0x20000);
    });
    EXPECT_EQ(str.l1Total.atomicOps, 0u);
    EXPECT_EQ(str.fabric.remoteAtomics, 1u);
}

KernelTask
pfsStores(Context &ctx, Addr a, int lines)
{
    for (int i = 0; i < lines; ++i)
        co_await ctx.storeNA<std::uint32_t>(a + Addr(i) * 32, 7);
}

TEST(Context, StoreNaHonoursPfsConfigOnly)
{
    // Without PFS, storeNA behaves as a normal allocate-on-write.
    {
        SystemConfig cfg = makeConfig(1, MemModel::CC);
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(64 * 32);
        sys.bindKernel(0, pfsStores(sys.context(0), a, 32));
        sys.simulate();
        RunStats rs = sys.collectStats();
        EXPECT_EQ(rs.l1Total.pfsStores, 0u);
        EXPECT_GT(rs.dramReadBytes, 0u); // refills happened
    }
    // With PFS, no refill reads at all.
    {
        SystemConfig cfg = makeConfig(1, MemModel::CC);
        cfg.pfsEnabled = true;
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(64 * 32);
        sys.bindKernel(0, pfsStores(sys.context(0), a, 32));
        sys.simulate();
        RunStats rs = sys.collectStats();
        EXPECT_EQ(rs.l1Total.pfsStores, 32u);
        EXPECT_EQ(rs.dramReadBytes, 0u);
        EXPECT_GT(rs.dramWriteBytes, 0u); // data still written back
    }
}

KernelTask
dmaStridedKernel(Context &ctx, Addr base, bool *ok)
{
    // 4 rows of 8 bytes at stride 64, gathered then scattered back
    // shifted.
    auto g = co_await ctx.dmaGetStrided(base, 64, 8, 4, 0);
    co_await ctx.dmaWait(g);
    auto sum = co_await ctx.lsRead<std::uint64_t>(0);
    auto p = co_await ctx.dmaPutStrided(base + 8, 64, 8, 4, 0);
    co_await ctx.dmaWait(p);
    *ok = sum == 0x0706050403020100ULL;
}

TEST(Context, DmaStridedThroughContext)
{
    SystemConfig cfg = makeConfig(1, MemModel::STR);
    CmpSystem sys(cfg);
    Addr base = sys.mem().alloc(4 * 64 + 16);
    for (int r = 0; r < 4; ++r)
        for (int b = 0; b < 8; ++b)
            sys.mem().write<std::uint8_t>(base + Addr(r) * 64 + b,
                                          std::uint8_t(r * 8 + b));
    bool ok = false;
    sys.bindKernel(0, dmaStridedKernel(sys.context(0), base, &ok));
    sys.simulate();
    EXPECT_TRUE(ok);
    // Scatter landed 8 bytes to the right of each row.
    for (int r = 0; r < 4; ++r) {
        EXPECT_EQ(sys.mem().read<std::uint8_t>(base + Addr(r) * 64 + 8),
                  std::uint8_t(r * 8));
    }
    RunStats rs = sys.collectStats();
    EXPECT_EQ(rs.coreTotal.dmaCommands, 2u);
}

KernelTask
prefetchBlockKernel(Context &ctx, Addr a, std::uint32_t bytes)
{
    co_await ctx.prefetchBlock(a, bytes);
}

TEST(Context, PrefetchBlockStepsByConfiguredLine)
{
    // One issue bundle per line of the core's L1 geometry: a 4 KB
    // block is 128 lines at 32 bytes and 64 lines at 64 bytes.
    for (std::uint32_t line : {32u, 64u}) {
        SystemConfig cfg = makeConfig(1, MemModel::CC);
        cfg.lineBytes = line;
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(4096, line);
        sys.bindKernel(0, prefetchBlockKernel(sys.context(0), a, 4096));
        sys.simulate();
        RunStats rs = sys.collectStats();
        const std::uint64_t lines = 4096 / line;
        EXPECT_EQ(rs.icacheFetches, lines) << line << "-byte lines";
        EXPECT_EQ(rs.coreTotal.usefulTicks,
                  lines * cfg.coreClock().period())
            << line << "-byte lines";
    }
}

KernelTask
quantumHog(Context &ctx, Cycles total)
{
    // One huge compute region: the quantum must chop it into bounded
    // event-queue excursions without changing the accounted time.
    for (Cycles i = 0; i < total; i += 10)
        co_await ctx.compute(10);
}

TEST(Context, QuantumFlushPreservesComputeTime)
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    cfg.quantumCycles = 50;
    CmpSystem sys(cfg);
    sys.bindKernel(0, quantumHog(sys.context(0), 100000));
    Tick end = sys.simulate();
    EXPECT_EQ(end, 100000u * 1250u);
    // Many flush events must have fired (at least one per quantum).
    EXPECT_GT(sys.eventQueue().executed(), 1000u);
}

KernelTask
lsRoundTrip(Context &ctx, bool *ok)
{
    co_await ctx.lsWrite<float>(100, 2.5f);
    auto v = co_await ctx.lsRead<float>(100);
    *ok = (v == 2.5f);
}

TEST(Context, LocalStoreAccessors)
{
    bool ok = false;
    RunStats rs = runKernel(MemModel::STR, [&](Context &ctx) {
        return lsRoundTrip(ctx, &ok);
    });
    EXPECT_TRUE(ok);
    EXPECT_EQ(rs.lsReads, 1u);
    EXPECT_EQ(rs.lsWrites, 1u);
}

KernelTask
lsReadOnCore(Context &ctx)
{
    co_await ctx.lsRead<std::uint32_t>(0);
}

KernelTask
lsWriteOnCore(Context &ctx)
{
    co_await ctx.lsWrite<std::uint32_t>(0, 1);
}

TEST(Context, LocalStoreOnCacheModelIsAModelError)
{
    // A CC core has no local store. Touching it is a workload bug
    // raised as a model error naming the core, as DMA is, so a sweep
    // loses only that job.
    for (auto make : {lsReadOnCore, lsWriteOnCore}) {
        try {
            runKernel(MemModel::CC, make);
            ADD_FAILURE() << "local store access accepted on a CC core";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Model);
            EXPECT_NE(std::string(e.what()).find("core 0"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(Context, LsCapacityReportsConfiguredLocalStore)
{
    SystemConfig str = makeConfig(1, MemModel::STR);
    str.lsSizeBytes = 16 * 1024;
    CmpSystem str_sys(str);
    EXPECT_EQ(str_sys.context(0).lsCapacity(), 16384u);

    CmpSystem cc_sys(makeConfig(1, MemModel::CC));
    EXPECT_EQ(cc_sys.context(0).lsCapacity(), 0u);
}

/**
 * Every core hammers one shared counter with staggered compute
 * between requests and records the values it receives: the order
 * those values encode is the arbitration order of the atomics.
 */
KernelTask
atomicHammer(Context &ctx, Addr counter, int rounds,
             std::vector<std::uint32_t> &observed)
{
    for (int i = 0; i < rounds; ++i) {
        co_await ctx.compute(Cycles(1 + (ctx.tid() * 7 + i * 3) % 23));
        observed.push_back(co_await ctx.atomicFetchAdd32(counter, 1));
    }
}

std::vector<std::vector<std::uint32_t>>
runHammer(int cores, int rounds)
{
    SystemConfig cfg = makeConfig(cores, MemModel::CC);
    CmpSystem sys(cfg);
    Addr counter = sys.mem().alloc(4);
    sys.mem().write<std::uint32_t>(counter, 0);

    std::vector<std::vector<std::uint32_t>> observed(cores);
    for (int i = 0; i < cores; ++i) {
        sys.bindKernel(i, atomicHammer(sys.context(i), counter, rounds,
                                       observed[std::size_t(i)]));
    }
    sys.simulate();
    EXPECT_EQ(sys.mem().read<std::uint32_t>(counter),
              std::uint32_t(cores * rounds));
    return observed;
}

TEST(Context, AtomicFetchAddHammerIsAPermutationAndRepeatable)
{
    constexpr int cores = 8;
    constexpr int rounds = 64;
    auto observed = runHammer(cores, rounds);

    std::vector<std::uint32_t> all;
    for (const auto &seq : observed) {
        ASSERT_EQ(seq.size(), std::size_t(rounds));
        for (std::size_t i = 1; i < seq.size(); ++i)
            EXPECT_LT(seq[i - 1], seq[i]);
        all.insert(all.end(), seq.begin(), seq.end());
    }
    std::sort(all.begin(), all.end());
    for (std::size_t i = 0; i < all.size(); ++i)
        ASSERT_EQ(all[i], std::uint32_t(i));

    EXPECT_EQ(runHammer(cores, rounds), observed);
}

} // namespace
} // namespace cmpmem
