/**
 * @file
 * The stats-digest algorithm (DESIGN.md §14) and the system-level
 * geometry contract behind calendar-queue auto-tuning: bucket shift
 * is host-performance-only, so every model stat except the calendar
 * telemetry itself must be bit-identical across geometries.
 *
 * Simulated results themselves are pinned by the baseline gates
 * (gate_<bench>, baselines/BENCH_*.json), not by constants here.
 */

#include <gtest/gtest.h>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

/** 4 cores, Table 2 defaults: the gates' fig2_scaling point. */
SystemConfig
goldenConfig(MemModel model)
{
    return makeConfig(4, model);
}

WorkloadParams
goldenParams()
{
    WorkloadParams p;
    p.scale = 0;
    return p;
}

// The digest algorithm itself is pinned: if the hashing ever
// changes, every committed BENCH baseline and benchmark digest goes
// stale at once, so make that a one-line failure here.
TEST(GoldenDigest, AlgorithmIsStable)
{
    StatSet s;
    s.set("a", 1.0);
    s.set("b", 0.5);
    s.set("c", -0.0); // normalized to +0.0 before hashing
    EXPECT_EQ(s.digest(), "fnv1a:c32a2510e8743721");

    StatSet zero;
    zero.set("a", 1.0);
    zero.set("b", 0.5);
    zero.set("c", 0.0);
    EXPECT_EQ(zero.digest(), s.digest());

    StatSet reordered;
    reordered.set("b", 0.5);
    reordered.set("a", 1.0);
    reordered.set("c", 0.0);
    EXPECT_NE(reordered.digest(), s.digest());
}

// ---------------------------------------------------------------- //
// Calendar geometry is host-only at system level                   //
// ---------------------------------------------------------------- //

/** Every stat except the calendar telemetry, compared bitwise. */
void
expectModelStatsIdentical(const RunStats &a, const RunStats &b,
                          const char *label)
{
    StatSet sa = a.toStatSet();
    StatSet sb = b.toStatSet();
    ASSERT_EQ(sa.names().size(), sb.names().size());
    for (const std::string &name : sa.names()) {
        if (name == "sim.calendar_overflows" ||
            name == "sim.calendar_bucket_shift")
            continue;
        EXPECT_EQ(sa.get(name), sb.get(name)) << label << ": " << name;
    }
}

TEST(CalendarGeometry, BucketShiftNeverChangesModelStats)
{
    WorkloadParams p = goldenParams();
    p.seed = 42;
    for (MemModel m : {MemModel::CC, MemModel::STR}) {
        SystemConfig base = goldenConfig(m);
        RunResult a = runWorkload("stress", base, p);

        SystemConfig wide = base;
        wide.eq.bucketShift = 12;
        RunResult b = runWorkload("stress", wide, p);

        ASSERT_TRUE(a.verified && b.verified);
        EXPECT_EQ(b.stats.calendarBucketShift, 12u);
        expectModelStatsIdentical(a.stats, b.stats, to_string(m));
        EXPECT_DOUBLE_EQ(a.energy.totalMj(), b.energy.totalMj());
    }
}

TEST(CalendarGeometry, AutoTuneIsBitIdenticalToItsChosenShift)
{
    WorkloadParams p = goldenParams();
    p.seed = 42;
    SystemConfig base = goldenConfig(MemModel::CC);

    SystemConfig tuned = base;
    tuned.eq.autoTune = true;
    RunResult t = runWorkload("stress", tuned, p);
    ASSERT_TRUE(t.verified);

    // Rerun with the shift the tuner picked, statically configured:
    // the auto-tuned run must be indistinguishable, dry-run and all.
    SystemConfig pinned = base;
    pinned.eq.bucketShift =
        std::uint32_t(t.stats.calendarBucketShift);
    RunResult s = runWorkload("stress", pinned, p);
    ASSERT_TRUE(s.verified);
    EXPECT_EQ(t.stats.toStatSet().digest(),
              s.stats.toStatSet().digest());

    // And against the default geometry, the model stats still agree.
    RunResult d = runWorkload("stress", base, p);
    expectModelStatsIdentical(t.stats, d.stats, "autotune");
}

} // namespace
} // namespace cmpmem
