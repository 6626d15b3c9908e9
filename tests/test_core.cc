/**
 * @file
 * Core-model tests: stall-category accounting, quantum flushing,
 * synchronization objects, task queues, I-cache model, and atomic
 * serialization, all driven through real kernels on a CmpSystem.
 */

#include <gtest/gtest.h>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

TEST(ICacheModel, DeterministicAccrual)
{
    ICacheConfig cfg;
    cfg.missLatency = 1000;
    ICacheModel ic(cfg);
    ic.setMissesPerKiloInstr(2.0); // 1 miss per 500 bundles
    Tick stall = 0;
    for (int i = 0; i < 10; ++i)
        stall += ic.accrue(100);
    EXPECT_EQ(ic.fetches(), 1000u);
    EXPECT_EQ(ic.misses(), 2u);
    EXPECT_EQ(stall, 2000u);
}

/** The accrual before the single-bundle credit was precomputed. */
struct FormulaICache
{
    double mpki;
    Tick missLatency;
    double missCredit = 0.0;
    std::uint64_t fetches = 0;
    std::uint64_t misses = 0;

    Tick
    accrue(std::uint64_t bundles)
    {
        fetches += bundles;
        if (mpki <= 0.0)
            return 0;
        missCredit += double(bundles) * mpki / 1000.0;
        if (missCredit < 1.0)
            return 0;
        auto m = static_cast<std::uint64_t>(missCredit);
        missCredit -= double(m);
        misses += m;
        return Tick(m) * missLatency;
    }
};

TEST(ICacheModel, SingleBundleCreditMatchesFormula)
{
    // Every rate a workload declares (mpeg2's 0.6 and 1.6 included),
    // plus 1/3, whose credit is inexact in binary, and 15.1, whose
    // credits often sum to within an ulp of a whole miss. Runs of
    // equal calls land on such sums, so a credit one ulp off (say
    // mpki * 0.001, or b * (mpki / 1000) for b > 1) moves a miss.
    // Each rate takes accrue(1) alone, as advanceIssue() calls it,
    // then runs of each b in 2-64, then a seeded mix of mostly 1s.
    for (double mpki : {0.02, 0.05, 0.1, 0.15, 0.3, 0.4, 0.6, 0.8, 1.6,
                        1.0 / 3.0, 15.1}) {
        ICacheConfig cfg;
        cfg.missLatency = 1000;
        ICacheModel ic(cfg);
        ic.setMissesPerKiloInstr(mpki);
        FormulaICache ref{mpki, cfg.missLatency};
        int call = 0;
        auto step = [&](std::uint64_t b) {
            ++call;
            ASSERT_EQ(ic.accrue(b), ref.accrue(b))
                << "mpki " << mpki << " call " << call << " b " << b;
            ASSERT_EQ(ic.fetches(), ref.fetches);
            ASSERT_EQ(ic.misses(), ref.misses);
        };
        for (int i = 0; i < 200000; ++i)
            ASSERT_NO_FATAL_FAILURE(step(1));
        for (std::uint64_t b = 2; b <= 64; ++b) {
            for (int i = 0; i < 5000; ++i)
                ASSERT_NO_FATAL_FAILURE(step(b));
        }
        Rng rng(7);
        for (int i = 0; i < 200000; ++i) {
            ASSERT_NO_FATAL_FAILURE(
                step(rng.nextBelow(8) == 0 ? 2 + rng.nextBelow(63) : 1));
        }
        EXPECT_GT(ic.misses(), 0u) << mpki;
    }
}

TEST(ICacheModel, ZeroRateNeverMisses)
{
    ICacheModel ic(ICacheConfig{});
    EXPECT_EQ(ic.accrue(1000000), 0u);
    EXPECT_EQ(ic.misses(), 0u);
}

TEST(Sync, BarrierReleasesAllAtLastArrival)
{
    Barrier b(3, 100);
    Tick released[3] = {0, 0, 0};
    Tick release_tick = 0;
    EXPECT_FALSE(b.arrive(10, [&](Tick t) { released[0] = t; },
                          release_tick));
    EXPECT_FALSE(b.arrive(50, [&](Tick t) { released[1] = t; },
                          release_tick));
    EXPECT_TRUE(b.arrive(30, [&](Tick t) { released[2] = t; },
                         release_tick));
    EXPECT_EQ(release_tick, 150u); // latest arrival + latency
    EXPECT_EQ(released[0], 150u);
    EXPECT_EQ(released[1], 150u);
    EXPECT_EQ(b.episodes(), 1u);

    // Reusable.
    EXPECT_FALSE(b.arrive(200, [](Tick) {}, release_tick));
}

TEST(Sync, LockFifoHandoff)
{
    Lock l(0x100, 10);
    EXPECT_TRUE(l.tryAcquire(0, [](Tick) {}));
    Tick got1 = 0, got2 = 0;
    EXPECT_FALSE(l.tryAcquire(5, [&](Tick t) { got1 = t; }));
    EXPECT_FALSE(l.tryAcquire(6, [&](Tick t) { got2 = t; }));
    l.release(100);
    EXPECT_EQ(got1, 110u);
    EXPECT_EQ(got2, 0u); // still queued
    l.release(200);
    EXPECT_EQ(got2, 210u);
    l.release(300);
    EXPECT_FALSE(l.held());
    EXPECT_EQ(l.contendedAcquisitions(), 2u);
}

//
// Kernel-level accounting.
//

KernelTask
computeOnly(Context &ctx, Cycles n)
{
    co_await ctx.compute(n);
}

TEST(CoreAccounting, ComputeTimeIsExact)
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    sys.bindKernel(0, computeOnly(sys.context(0), 1000));
    Tick end = sys.simulate();
    // 1000 bundles at 800 MHz = 1,250,000 ps.
    EXPECT_EQ(end, 1000u * 1250u);
    EXPECT_EQ(sys.core(0).stats().usefulTicks, 1000u * 1250u);
    EXPECT_EQ(sys.core(0).stats().bundles, 1000u);
}

TEST(CoreAccounting, FrequencyScalesComputeTime)
{
    for (double ghz : {0.8, 1.6, 3.2, 6.4}) {
        SystemConfig cfg = makeConfig(1, MemModel::CC, ghz);
        CmpSystem sys(cfg);
        sys.bindKernel(0, computeOnly(sys.context(0), 10000));
        Tick end = sys.simulate();
        Tick expect = 10000u * Clock::fromMhz(ghz * 1000).period();
        EXPECT_EQ(end, expect) << ghz;
    }
}

KernelTask
loadMissChain(Context &ctx, Addr base, int n)
{
    // Pointer-chase distinct lines: every access misses.
    for (int i = 0; i < n; ++i)
        co_await ctx.load<std::uint32_t>(base + Addr(i) * 4096);
}

TEST(CoreAccounting, LoadMissesAccrueLoadStall)
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    Addr base = sys.mem().alloc(64 * 4096);
    sys.bindKernel(0, loadMissChain(sys.context(0), base, 64));
    sys.simulate();
    const CoreStats &st = sys.core(0).stats();
    // Each miss costs at least the DRAM latency.
    EXPECT_GE(st.loadStallTicks, 64u * 70u * ticksPerNs);
    EXPECT_EQ(st.loads, 64u);
    EXPECT_EQ(sys.collectStats().l1Total.loadMisses, 64u);
}

KernelTask
storeStream(Context &ctx, Addr base, int n)
{
    for (int i = 0; i < n; ++i)
        co_await ctx.store<std::uint32_t>(base + Addr(i) * 4096, 1);
}

TEST(CoreAccounting, StoreBufferHidesMissesUntilFull)
{
    SystemConfig cfg = makeConfig(1, MemModel::CC);
    CmpSystem sys(cfg);
    Addr base = sys.mem().alloc(64 * 4096);
    sys.bindKernel(0, storeStream(sys.context(0), base, 64));
    sys.simulate();
    const CoreStats &st = sys.core(0).stats();
    // 64 distinct-line store misses with an 8-entry buffer: the core
    // must have stalled for space at some point...
    EXPECT_GT(st.storeStallTicks, 0u);
    // ...but the buffer keeps 8 ownership transactions in flight, so
    // the stall is shorter than fully serialized misses would be
    // (~100 ns each through bus + L2 + DRAM).
    EXPECT_LT(st.storeStallTicks, 64u * 100u * ticksPerNs);
    // And none of that time was charged as load stalls.
    EXPECT_EQ(st.loadStallTicks, 0u);
}

KernelTask
barrierPair(Context &ctx, Barrier &bar, Cycles skew)
{
    if (ctx.tid() == 0)
        co_await ctx.compute(skew);
    co_await ctx.barrier(bar);
}

TEST(CoreAccounting, BarrierWaitCountsAsSync)
{
    SystemConfig cfg = makeConfig(2, MemModel::CC);
    CmpSystem sys(cfg);
    Barrier bar(2);
    const Cycles skew = 10000;
    for (int i = 0; i < 2; ++i)
        sys.bindKernel(i, barrierPair(sys.context(i), bar, skew));
    sys.simulate();
    // Core 1 waited roughly the skew; core 0 barely waited.
    Tick skew_ticks = skew * 1250u;
    EXPECT_GE(sys.core(1).stats().syncTicks, skew_ticks * 9 / 10);
    EXPECT_LT(sys.core(0).stats().syncTicks, skew_ticks / 10);
}

KernelTask
taskGrabber(Context &ctx, Addr counter, std::vector<int> *grabbed,
            Barrier &bar)
{
    while (true) {
        auto t = co_await ctx.nextTask(counter, 100);
        if (t < 0)
            break;
        (*grabbed)[std::size_t(t)] += 1;
        co_await ctx.compute(50);
    }
    co_await ctx.barrier(bar);
}

TEST(CoreAccounting, TaskQueueHandsOutEachTaskOnce)
{
    for (MemModel m : {MemModel::CC, MemModel::STR}) {
        SystemConfig cfg = makeConfig(4, m);
        CmpSystem sys(cfg);
        Addr counter = sys.mem().alloc(4);
        sys.mem().write<std::uint32_t>(counter, 0);
        Barrier bar(4);
        std::vector<int> grabbed(100, 0);
        for (int i = 0; i < 4; ++i)
            sys.bindKernel(i, taskGrabber(sys.context(i), counter,
                                          &grabbed, bar));
        sys.simulate();
        for (int i = 0; i < 100; ++i)
            EXPECT_EQ(grabbed[i], 1) << "task " << i << " model "
                                     << to_string(m);
        // All atomics accounted.
        EXPECT_EQ(sys.collectStats().coreTotal.atomics, 104u);
    }
}

KernelTask
lockedIncrements(Context &ctx, Lock &lock, Addr cell, int times,
                 Barrier &bar)
{
    for (int i = 0; i < times; ++i) {
        co_await ctx.lockAcquire(lock);
        auto v = co_await ctx.load<std::uint32_t>(cell);
        co_await ctx.compute(3);
        co_await ctx.store<std::uint32_t>(cell, v + 1);
        co_await ctx.lockRelease(lock);
    }
    co_await ctx.barrier(bar);
}

TEST(CoreAccounting, LockSerializesCriticalSections)
{
    SystemConfig cfg = makeConfig(4, MemModel::CC);
    CmpSystem sys(cfg);
    Addr cell = sys.mem().alloc(4);
    Lock lock(sys.mem().alloc(64));
    Barrier bar(4);
    for (int i = 0; i < 4; ++i)
        sys.bindKernel(i, lockedIncrements(sys.context(i), lock, cell,
                                           25, bar));
    sys.simulate();
    EXPECT_EQ(sys.mem().read<std::uint32_t>(cell), 100u);
    EXPECT_EQ(lock.acquisitions(), 100u);
}

TEST(CoreAccounting, QuantumBoundsSkewWithoutChangingResults)
{
    // The same workload under different quanta gives (nearly)
    // identical timing; the quantum is a simulation knob, not a
    // hardware parameter.
    Tick base_ticks = 0;
    for (Cycles q : {10u, 100u, 1000u}) {
        SystemConfig cfg = makeConfig(4, MemModel::CC);
        cfg.quantumCycles = q;
        WorkloadParams params;
        params.scale = 0;
        RunResult r = runWorkload("fir", cfg, params);
        EXPECT_TRUE(r.verified);
        if (base_ticks == 0)
            base_ticks = r.stats.execTicks;
        double ratio = double(r.stats.execTicks) / double(base_ticks);
        EXPECT_GT(ratio, 0.9) << q;
        EXPECT_LT(ratio, 1.1) << q;
    }
}

} // namespace
} // namespace cmpmem
