#include "harness/experiment.hh"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>
#include <utility>

#include "harness/table.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"

namespace cmpmem
{

namespace
{

/** Process-wide overrides from parseBenchArgs(). */
FaultConfig benchFaults;
WatchdogConfig benchWatchdog;
bool benchIsolate = false;
bool benchResume = false;
int benchRetries = 1;
double benchDeadline = 0;

/**
 * @p text read whole as a T, or fatal() naming @p what (a flag or an
 * environment variable). Unsigned values keep the C base prefixes of
 * strtoull(base 0). Empty text, trailing characters, a value out of
 * T's range, a sign on an unsigned value and a non-finite double are
 * all malformed.
 */
template <typename T>
T
parseWhole(const char *what, const char *text)
{
    errno = 0;
    char *end = nullptr;
    T v{};
    bool ok = true;
    if constexpr (std::is_floating_point_v<T>) {
        v = T(std::strtod(text, &end));
        ok = std::isfinite(v);
    } else if constexpr (std::is_unsigned_v<T>) {
        v = T(std::strtoull(text, &end, 0));
        ok = !std::strchr(text, '-');
    } else {
        const long long w = std::strtoll(text, &end, 10);
        ok = w >= std::numeric_limits<T>::min() &&
             w <= std::numeric_limits<T>::max();
        v = T(w);
    }
    if (!ok || end == text || *end != '\0' || errno == ERANGE)
        fatal("%s: '%s' is not a valid number", what, text);
    return v;
}

} // namespace

int
envInt(const char *name, int dflt)
{
    const char *text = std::getenv(name);
    return text && *text ? parseWhole<int>(name, text) : dflt;
}

void
parseBenchArgs(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--faults") == 0) {
            benchFaults = stressFaultConfig(1);
        } else if (std::strncmp(arg, "--faults=", 9) == 0) {
            benchFaults = stressFaultConfig(
                parseWhole<std::uint64_t>("--faults", arg + 9));
        } else if (std::strncmp(arg, "--watchdog-ticks=", 17) == 0) {
            benchWatchdog.maxTicks =
                parseWhole<Tick>("--watchdog-ticks", arg + 17);
        } else if (std::strcmp(arg, "--isolate") == 0) {
            benchIsolate = true;
        } else if (std::strcmp(arg, "--resume") == 0) {
            benchResume = true;
        } else if (std::strncmp(arg, "--retries=", 10) == 0) {
            benchRetries = parseWhole<int>("--retries", arg + 10);
        } else if (std::strncmp(arg, "--deadline=", 11) == 0) {
            benchDeadline = parseWhole<double>("--deadline", arg + 11);
        } else {
            fatal("%s: unknown argument '%s' (supported: "
                  "--faults[=SEED], --watchdog-ticks=N, --isolate, "
                  "--resume, --retries=N, --deadline=SECS)",
                  argv[0], arg);
        }
    }
}

SystemConfig
makeConfig(int cores, MemModel model, double ghz, double dram_gbps)
{
    SystemConfig cfg;
    cfg.cores = cores;
    cfg.model = model;
    cfg.coreClockGhz = ghz;
    cfg.dram.bandwidthGBps = dram_gbps;
    cfg.faults = benchFaults;
    cfg.watchdog = benchWatchdog;
    return cfg;
}

NormBreakdown
normalizedBreakdown(const RunStats &rs, Tick baseline_ticks)
{
    NormBreakdown b;
    if (baseline_ticks == 0 || rs.perCore.empty())
        return b;
    double denom =
        double(baseline_ticks) * double(rs.perCore.size());
    // Idle tail (a core finishing before the slowest) counts as
    // sync, as a barrier at program end would.
    double idle = 0;
    for (const auto &cs : rs.perCore) {
        b.useful += double(cs.usefulTicks) / denom;
        b.sync += double(cs.syncTicks) / denom;
        b.load += double(cs.loadStallTicks) / denom;
        b.store += double(cs.storeStallTicks) / denom;
        idle += double(rs.execTicks - cs.totalTicks()) / denom;
    }
    b.sync += idle;
    return b;
}

WorkloadParams
benchParams()
{
    WorkloadParams params;
    params.scale = benchScale();
    return params;
}

int
benchScale()
{
    return envInt("CMPMEM_SCALE", 1);
}

std::uint64_t
benchScaleDivisor()
{
    return std::uint64_t(std::max(envInt("CMPMEM_BENCH_SCALE", 1), 1));
}

std::uint64_t
benchIters(std::uint64_t base)
{
    const int scale = benchScale();
    const std::uint64_t factor = scale <= 0 ? 1 : 20 * std::uint64_t(scale);
    const std::uint64_t iters = base * factor / benchScaleDivisor();
    return iters ? iters : 1;
}

SweepResult
runBenchJobs(const std::string &name, std::vector<SweepJob> jobs,
             SweepOptions opts)
{
    if (benchIsolate)
        opts.isolate = SweepIsolate::On;
    if (benchResume)
        opts.resume = true;
    if (benchRetries > 0 && opts.maxRetries == 0)
        opts.maxRetries = benchRetries;
    if (benchDeadline > 0 && opts.jobDeadlineSeconds <= 0)
        opts.jobDeadlineSeconds = benchDeadline;
    if (opts.journalPath.empty())
        opts.journalPath = journalPath(name);
    try {
        return runJobs(name, std::move(jobs), opts);
    } catch (const SimError &e) {
        // Resume refusal (journal identity mismatch) and similar
        // harness-level Config errors: CLI misuse, not a bug.
        fatal("%s", e.what());
    }
}

SweepResult
runBenchSweep(const SweepSpec &spec, SweepOptions opts)
{
    return runBenchJobs(spec.name(), spec.expand(), std::move(opts));
}

int
finishBench(const SweepResult &res)
{
    std::printf("\n%s\n", res.summary().c_str());
    std::string path = res.writeArtifact();
    if (!path.empty())
        std::printf("artifact: %s\n", path.c_str());
    return res.allRan() ? 0 : 1;
}

std::string
breakdownCells(const NormBreakdown &b)
{
    return fmt("total=%.3f useful=%.3f sync=%.3f load=%.3f store=%.3f",
               b.total(), b.useful, b.sync, b.load, b.store);
}

} // namespace cmpmem
