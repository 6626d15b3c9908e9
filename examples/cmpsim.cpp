/**
 * @file
 * cmpsim — command-line driver over the full public API: run any
 * workload on any configuration and emit text, JSON, or CSV.
 *
 *   cmpsim [options]
 *     --workload NAME   (default fir; "all" sweeps the suite)
 *     --model CC|STR    (default CC)
 *     --cores N         (default 16)
 *     --ghz F           (default 0.8)
 *     --gbps F          (default 3.2)
 *     --prefetch N      hardware prefetcher with depth N
 *     --pfs             enable non-allocating stores
 *     --scale N         workload input scale (0 = tiny)
 *     --orig            unoptimized variant (mpeg2/art)
 *     --json | --csv    machine-readable output
 *     --list            list workloads and exit
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "cmpmem.hh"

using namespace cmpmem;

namespace
{

struct Options
{
    std::string workload = "fir";
    SystemConfig cfg = makeConfig(16, MemModel::CC);
    WorkloadParams params;
    bool json = false;
    bool csv = false;
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: cmpsim [--workload NAME|all] [--model CC|STR] "
                 "[--cores N]\n              [--ghz F] [--gbps F] "
                 "[--prefetch N] [--pfs] [--scale N]\n              "
                 "[--orig] [--json|--csv] [--list]\n");
    std::exit(2);
}

Options
parse(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> const char * {
            if (++i >= argc)
                usage();
            return argv[i];
        };
        if (a == "--workload") {
            o.workload = next();
        } else if (a == "--model") {
            std::string m = next();
            if (m == "CC" || m == "cc")
                o.cfg.model = MemModel::CC;
            else if (m == "STR" || m == "str")
                o.cfg.model = MemModel::STR;
            else
                usage();
        } else if (a == "--cores") {
            o.cfg.cores = std::atoi(next());
        } else if (a == "--ghz") {
            o.cfg.coreClockGhz = std::atof(next());
        } else if (a == "--gbps") {
            o.cfg.dram.bandwidthGBps = std::atof(next());
        } else if (a == "--prefetch") {
            o.cfg.hwPrefetch = true;
            o.cfg.prefetchDepth = std::uint32_t(std::atoi(next()));
        } else if (a == "--pfs") {
            o.cfg.pfsEnabled = true;
        } else if (a == "--scale") {
            o.params.scale = std::atoi(next());
        } else if (a == "--orig") {
            o.params.streamOptimized = false;
        } else if (a == "--json") {
            o.json = true;
        } else if (a == "--csv") {
            o.csv = true;
        } else if (a == "--list") {
            for (const auto &n : workloadNames())
                std::printf("%s\n", n.c_str());
            std::exit(0);
        } else {
            usage();
        }
    }
    return o;
}

int
runOne(const Options &o, const std::string &name, bool header)
{
    RunResult r = runWorkload(name, o.cfg, o.params);
    StatSet s = r.stats.toStatSet();
    s.set("verified", r.verified ? 1 : 0);
    s.set("energy_total_mj", r.energy.totalMj());
    s.set("energy_dram_mj", r.energy.dramMj);

    if (o.json) {
        JsonValue stats = JsonValue::makeObject();
        for (const auto &n : s.names())
            stats.set(n, JsonValue::makeNumber(s.get(n)));
        JsonValue line = JsonValue::makeObject();
        line.set("workload", JsonValue::makeString(name));
        line.set("model", JsonValue::makeString(to_string(o.cfg.model)));
        line.set("stats", std::move(stats));
        std::printf("%s\n", line.dumpCompact().c_str());
    } else if (o.csv) {
        std::string csv = s.toCsv();
        if (header) {
            std::printf("workload,model,%s",
                        csv.substr(0, csv.find('\n') + 1).c_str());
        }
        std::printf("%s,%s,%s", name.c_str(), to_string(o.cfg.model),
                    csv.substr(csv.find('\n') + 1).c_str());
    } else {
        std::printf("== %s on %d x %.1f GHz cores (%s, %.1f GB/s)\n",
                    name.c_str(), o.cfg.cores, o.cfg.coreClockGhz,
                    to_string(o.cfg.model), o.cfg.dram.bandwidthGBps);
        std::printf("exec %.3f ms | energy %s | verified=%s | host "
                    "%.2f s\n%s\n",
                    r.stats.execSeconds() * 1e3,
                    r.energy.format().c_str(),
                    r.verified ? "yes" : "NO", r.hostSeconds,
                    s.format().c_str());
    }
    return r.verified ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Options o = parse(argc, argv);
    int rc = 0;
    try {
        if (o.workload == "all") {
            bool first = true;
            for (const auto &n : workloadNames()) {
                rc |= runOne(o, n, first);
                first = false;
            }
        } else {
            rc = runOne(o, o.workload, true);
        }
    } catch (const SimError &e) {
        std::fprintf(stderr, "cmpsim: %s\n", e.what());
        return 1;
    }
    return rc;
}
