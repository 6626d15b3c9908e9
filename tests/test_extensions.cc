/**
 * @file
 * Tests for the modelled-hardware extensions: the Section 7 hybrid
 * bulk-prefetch primitive, the optional bank/open-row DRAM model, and
 * the stats export formats.
 */

#include <gtest/gtest.h>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

//
// Hybrid bulk prefetch.
//

KernelTask
prefetchedScan(Context &ctx, Addr base, int lines, Tick *stall_out)
{
    co_await ctx.prefetchBlock(base, std::uint32_t(lines) * 32);
    // Give the prefetches time to land.
    co_await ctx.compute(1000);
    for (int i = 0; i < lines; ++i)
        co_await ctx.load<std::uint32_t>(base + Addr(i) * 32);
    *stall_out = ctx.core().stats().loadStallTicks;
}

KernelTask
coldScan(Context &ctx, Addr base, int lines, Tick *stall_out)
{
    co_await ctx.compute(1000);
    for (int i = 0; i < lines; ++i)
        co_await ctx.load<std::uint32_t>(base + Addr(i) * 32);
    *stall_out = ctx.core().stats().loadStallTicks;
}

TEST(HybridPrefetch, BulkPrefetchHidesScanLatency)
{
    Tick stall_pf = 0, stall_cold = 0;
    {
        SystemConfig cfg = makeConfig(1, MemModel::CC);
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(64 * 32);
        sys.bindKernel(0, prefetchedScan(sys.context(0), a, 64,
                                         &stall_pf));
        sys.simulate();
        EXPECT_GT(sys.collectStats().l1Total.prefetchesIssued, 0u);
    }
    {
        SystemConfig cfg = makeConfig(1, MemModel::CC);
        CmpSystem sys(cfg);
        Addr a = sys.mem().alloc(64 * 32);
        sys.bindKernel(0, coldScan(sys.context(0), a, 64,
                                   &stall_cold));
        sys.simulate();
    }
    EXPECT_LT(stall_pf, stall_cold / 4);
}

//
// Bank/open-row DRAM model.
//

TEST(DramBankModel, RowHitsAreFaster)
{
    DramConfig cfg;
    cfg.bankModel = true;
    DramChannel d(cfg);
    Tick miss = d.read(0, 0x0, 32) - d.occupancyFor(32);
    EXPECT_EQ(miss, cfg.accessLatency);
    // Same row, adjacent line: open-row hit.
    Tick t1 = d.nextFreeHint();
    Tick hit = d.read(t1, 0x20, 32) - t1 - d.occupancyFor(32);
    EXPECT_EQ(hit, cfg.rowHitLatency);
    EXPECT_EQ(d.rowHits(), 1u);
    EXPECT_EQ(d.rowMisses(), 1u);
}

TEST(DramBankModel, BankConflictReopensRow)
{
    DramConfig cfg;
    cfg.bankModel = true;
    DramChannel d(cfg);
    Addr row_span = Addr(cfg.rowBytes) * cfg.banks;
    d.read(0, 0x0, 32);
    d.read(0, row_span, 32); // same bank, different row
    d.read(0, 0x0, 32);      // original row was closed
    EXPECT_EQ(d.rowHits(), 0u);
    EXPECT_EQ(d.rowMisses(), 3u);
}

TEST(DramBankModel, FlatModelUnaffected)
{
    DramChannel d(DramConfig{});
    d.read(0, 0x0, 32);
    d.read(0, 0x20, 32);
    EXPECT_EQ(d.rowHits(), 0u);
    EXPECT_EQ(d.rowMisses(), 0u);
}

TEST(DramBankModel, WorkloadStillVerifies)
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    cfg.dram.bankModel = true;
    WorkloadParams p;
    p.scale = 0;

    // Run manually so the channel's row statistics are observable.
    CmpSystem sys(cfg);
    auto w = createWorkload("fir", p);
    w->setup(sys);
    sys.bindKernel(0, w->kernel(sys.context(0)));
    Tick banked = sys.simulate();
    EXPECT_TRUE(w->verify(sys));
    // FIR's sequential streams see open-row hits, though its input
    // and output streams land in the same banks (the arrays are a
    // multiple of the bank span apart) and ping-pong rows -- real
    // DRAM behaviour the flat model cannot show.
    EXPECT_GT(sys.dram().rowHits(), 1000u);

    RunResult flat =
        runWorkload("fir", makeConfig(1, MemModel::CC), p);
    EXPECT_LT(banked, flat.stats.execTicks);
}

//
// Stats export.
//

TEST(StatsExport, JsonAndCsvShapes)
{
    StatSet s;
    s.set("alpha", 1.5);
    s.set("beta", 2);
    // The object cmpsim --json and the artifact's stats block build.
    JsonValue json = JsonValue::makeObject();
    for (const auto &name : s.names())
        json.set(name, JsonValue::makeNumber(s.get(name)));
    EXPECT_EQ(json.dumpCompact(), "{\"alpha\": 1.5, \"beta\": 2}");
    EXPECT_EQ(s.toCsv(), "alpha,beta\n1.5,2\n");
}

} // namespace
} // namespace cmpmem
