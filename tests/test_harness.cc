/**
 * @file
 * Harness tests: table formatting, normalized breakdowns, stat-set
 * export, the runner contract, and the bench flag and environment
 * parsing.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>

#include "cmpmem.hh"

namespace cmpmem
{
namespace
{

TEST(TextTable, AlignsColumnsAndRule)
{
    TextTable t({"a", "long_header"});
    t.addRow({"xxxxxx", "1"});
    std::string out = t.format();
    // Header, rule, one row.
    EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 3);
    EXPECT_NE(out.find("long_header"), std::string::npos);
    EXPECT_NE(out.find("xxxxxx"), std::string::npos);
    EXPECT_NE(out.find("---"), std::string::npos);
}

TEST(Format, Helpers)
{
    EXPECT_EQ(fmt("%d-%s", 5, "x"), "5-x");
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtPct(0.125), "12.50%");
}

TEST(NormBreakdown, ComponentsSumToNormalizedTime)
{
    RunStats rs;
    rs.execTicks = 1000;
    CoreStats c1;
    c1.usefulTicks = 600;
    c1.syncTicks = 100;
    c1.loadStallTicks = 200;
    c1.storeStallTicks = 100;
    CoreStats c2;
    c2.usefulTicks = 500; // finishes early: 500 idle -> sync
    rs.perCore = {c1, c2};

    NormBreakdown b = normalizedBreakdown(rs, 2000);
    // Average core busy+idle time = exec time; normalized to 2000.
    EXPECT_DOUBLE_EQ(b.total(), 0.5);
    EXPECT_DOUBLE_EQ(b.useful, (600 + 500) / 4000.0);
    EXPECT_DOUBLE_EQ(b.load, 200 / 4000.0);
    // Idle tail of core 2 lands in sync.
    EXPECT_DOUBLE_EQ(b.sync, (100 + 500) / 4000.0);
}

TEST(NormBreakdown, EmptyAndZeroBaselineAreSafe)
{
    RunStats rs;
    EXPECT_DOUBLE_EQ(normalizedBreakdown(rs, 0).total(), 0.0);
    EXPECT_DOUBLE_EQ(normalizedBreakdown(rs, 100).total(), 0.0);
}

TEST(RunStats, StatSetExportCoversKeyCounters)
{
    WorkloadParams p;
    p.scale = 0;
    RunResult r = runWorkload("fir", makeConfig(2, MemModel::CC), p);
    StatSet s = r.stats.toStatSet();
    EXPECT_GT(s.get("exec_ticks"), 0.0);
    EXPECT_GT(s.get("core.instructions"), 0.0);
    EXPECT_GT(s.get("l1.load_misses"), 0.0);
    EXPECT_GT(s.get("dram.read_bytes"), 0.0);
    EXPECT_GT(s.get("l1.miss_rate"), 0.0);
    EXPECT_LT(s.get("l1.miss_rate"), 1.0);
}

TEST(Runner, ReportsWorkloadIdentityAndHostCost)
{
    WorkloadParams p;
    p.scale = 0;
    p.streamOptimized = false;
    RunResult r = runWorkload("mpeg2", makeConfig(2, MemModel::CC), p);
    EXPECT_EQ(r.stats.workload, "mpeg2");
    EXPECT_EQ(r.stats.variant, "orig");
    EXPECT_GT(r.hostSeconds, 0.0);
}

TEST(Registry, AllElevenWorkloadsRegistered)
{
    auto names = workloadNames();
    EXPECT_EQ(names.size(), 11u);
    for (const auto &n : names) {
        auto w = createWorkload(n);
        EXPECT_EQ(w->name(), n);
    }
}

TEST(Config, ValidateRejectsNonsense)
{
    // Config mistakes are recoverable (SimErrorKind::Config), not
    // process-fatal: a sweep must survive one bad point.
    SystemConfig cfg = makeConfig(16, MemModel::STR);
    cfg.hwPrefetch = true;
    try {
        cfg.validate();
        FAIL() << "validate() accepted STR + hwPrefetch";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("prefetching"),
                  std::string::npos);
    }

    SystemConfig cfg2 = makeConfig(0, MemModel::CC);
    try {
        cfg2.validate();
        FAIL() << "validate() accepted 0 cores";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), SimErrorKind::Config);
        EXPECT_NE(std::string(e.what()).find("core count"),
                  std::string::npos);
    }

    // A channel counts beats by shifting, so an interconnect width
    // must be a power of two (zero included in the rejects), and a
    // zero beat makes transfers free; the interconnect ablation
    // sweeps both widths.
    auto expectRejected = [](void (*mutate)(SystemConfig &),
                             const char *what, const char *why) {
        SystemConfig c = makeConfig(4, MemModel::CC);
        mutate(c);
        try {
            c.validate();
            ADD_FAILURE() << "validate() accepted " << why;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), SimErrorKind::Config) << why;
            EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
                << e.what();
        }
    };
    expectRejected([](SystemConfig &c) { c.net.busWidthBytes = 0; },
                   "interconnect width", "a 0-byte bus");
    expectRejected([](SystemConfig &c) { c.net.xbarWidthBytes = 0; },
                   "interconnect width", "a 0-byte crossbar");
    expectRejected([](SystemConfig &c) { c.net.busWidthBytes = 24; },
                   "interconnect width", "a 24-byte bus");
    expectRejected([](SystemConfig &c) { c.net.xbarWidthBytes = 12; },
                   "interconnect width", "a 12-byte crossbar");
    expectRejected([](SystemConfig &c) { c.net.busBeat = 0; },
                   "beat time", "a 0-tick bus beat");
    expectRejected([](SystemConfig &c) { c.net.xbarBeat = 0; },
                   "beat time", "a 0-tick crossbar beat");
}

/** Sets (or, with null, unsets) one environment variable for a scope. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const char *value) : var(name)
    {
        if (const char *prev = std::getenv(name))
            saved = prev;
        set(value);
    }
    ~ScopedEnv() { set(saved ? saved->c_str() : nullptr); }

    void
    set(const char *value)
    {
        if (value)
            setenv(var, value, 1);
        else
            unsetenv(var);
    }

  private:
    const char *var;
    std::optional<std::string> saved;
};

/** parseBenchArgs() over the single argument @p arg. */
void
parseOne(const char *arg)
{
    char prog[] = "bench";
    std::string text = arg;
    char *argv[] = {prog, text.data(), nullptr};
    parseBenchArgs(2, argv);
}

TEST(BenchInputsDeathTest, MalformedFlagValuesAreFatal)
{
    // Each of these used to parse as 0 and silently switch its
    // feature off (or seed the faults with 0).
    EXPECT_DEATH(parseOne("--watchdog-ticks=abc"), "--watchdog-ticks: 'abc'");
    EXPECT_DEATH(parseOne("--retries=x"), "--retries: 'x'");
    EXPECT_DEATH(parseOne("--deadline=x"), "--deadline: 'x'");
    EXPECT_DEATH(parseOne("--faults=x"), "--faults: 'x'");
    // Trailing text, a sign on an unsigned count, non-finite seconds.
    EXPECT_DEATH(parseOne("--retries=2x"), "--retries: '2x'");
    EXPECT_DEATH(parseOne("--watchdog-ticks=-5"), "--watchdog-ticks");
    EXPECT_DEATH(parseOne("--deadline=inf"), "--deadline: 'inf'");
}

TEST(BenchInputsDeathTest, MalformedEnvironmentIsFatal)
{
    EXPECT_DEATH(
        {
            setenv("CMPMEM_SCALE", "1O", 1);
            benchScale();
        },
        "CMPMEM_SCALE: '1O'");
    EXPECT_DEATH(
        {
            setenv("CMPMEM_BENCH_SCALE", "twenty", 1);
            benchScaleDivisor();
        },
        "CMPMEM_BENCH_SCALE: 'twenty'");
    EXPECT_DEATH(
        {
            setenv("CMPMEM_JOBS", "4 ", 1);
            sweepWorkerCount(0);
        },
        "CMPMEM_JOBS: '4 '");
}

TEST(BenchInputs, UnsetOrEmptyEnvironmentKeepsDefaults)
{
    const int hw = std::max(1, int(std::thread::hardware_concurrency()));
    for (const char *value : {static_cast<const char *>(nullptr), ""}) {
        ScopedEnv scale("CMPMEM_SCALE", value);
        ScopedEnv div("CMPMEM_BENCH_SCALE", value);
        ScopedEnv jobs("CMPMEM_JOBS", value);
        EXPECT_EQ(benchScale(), 1);
        EXPECT_EQ(benchScaleDivisor(), 1u);
        EXPECT_EQ(sweepWorkerCount(0), hw);
    }
    ScopedEnv scale("CMPMEM_SCALE", "0");
    ScopedEnv div("CMPMEM_BENCH_SCALE", "20");
    ScopedEnv jobs("CMPMEM_JOBS", "3");
    EXPECT_EQ(benchScale(), 0);
    EXPECT_EQ(benchScaleDivisor(), 20u);
    EXPECT_EQ(sweepWorkerCount(0), 3);
}

} // namespace
} // namespace cmpmem
