/**
 * @file
 * cmpmem host-cost benchmark: runs one workload, a fixed list of
 * simulation jobs, through the real sweep harness and reports what a
 * user pays in host time to regenerate the paper's results, plus a
 * per-layer split of that time and of the simulated work. README.md
 * describes the workloads and metrics; run.sh builds and drives this
 * binary.
 *
 *   cmpmem_bench --workload NAME --out DIR --expected FILE
 *                [--seed N] [--seconds S] [--trace 0|1]
 *                [--update-expected]
 *
 * A pass is one runSweep() on a single worker thread, in process,
 * with a journal, followed by writeArtifact(): a closed loop, one job
 * at a time, so host times measure the simulator rather than the
 * scheduler. Passes repeat while the next one should still end within
 * --seconds (at least three run); set-up-only passes run before them.
 * The last line of
 * standard output is one JSON object: the end-to-end metrics, or with
 * --trace 1 the per-layer ones, after one extra traced pass.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "cmpmem.hh"
#include "replica.hh"
#include "sim/log.hh"

using namespace cmpmem;
using namespace cmpmem::bench;

namespace
{

constexpr int kMinPasses = 3;
constexpr int kMinSetupPasses = 5;
constexpr int kMaxSetupPasses = 25;
/** Set-up passes continue past kMinSetupPasses until this much CPU. */
constexpr double kSetupBudgetSeconds = 1.0;

using SteadyClock = std::chrono::steady_clock;

double
secondsSince(SteadyClock::time_point t0)
{
    return std::chrono::duration<double>(SteadyClock::now() - t0).count();
}

// ------------------------------------------------------------------ //
// Workloads                                                          //
// ------------------------------------------------------------------ //

/** Registry job "<app>/s<scale>/<model><suffix>", 16 cores by default. */
SweepJob
job(const std::string &app, int scale, MemModel model,
    const std::string &suffix = "", int cores = 16)
{
    WorkloadParams p;
    p.scale = scale;
    std::string id = fmt("%s/s%d/%s%s", app.c_str(), scale,
                         to_string(model), suffix.c_str());
    if (cores != 16)
        id += fmt("/c%d", cores);
    return SweepJob(id, app, makeConfig(cores, model), p);
}

/**
 * Only the stress generator reads WorkloadParams::seed; every paper
 * workload has fixed inputs, so its digest is the same at any seed.
 */
bool
seeded(const SweepJob &j)
{
    return j.workload == "stress";
}

std::vector<SweepJob>
ccCoherence(std::uint64_t seed)
{
    SweepJob prefetched = job("art", 1, MemModel::CC, "+P4");
    prefetched.cfg.hwPrefetch = true;
    prefetched.cfg.prefetchDepth = 4;
    SweepJob pfs = job("merge", 1, MemModel::CC, "+PFS");
    pfs.cfg.pfsEnabled = true;
    SweepJob stress = job("stress", 32, MemModel::CC);
    stress.params.seed = seed;
    stress.params.sharingDegree = 4;
    return {job("art", 1, MemModel::CC), prefetched, pfs,
            job("fir", 2, MemModel::CC), stress};
}

std::vector<SweepJob>
strDma()
{
    return {job("fem", 0, MemModel::STR), job("fem", 0, MemModel::STR, "", 4),
            job("merge", 2, MemModel::STR), job("art", 2, MemModel::STR),
            job("fir", 16, MemModel::STR)};
}

std::vector<SweepJob>
computeBound()
{
    std::vector<SweepJob> jobs;
    for (const char *app : {"depth", "mpeg2", "h264"}) {
        const int scale = std::strcmp(app, "h264") == 0 ? 4 : 2;
        jobs.push_back(job(app, scale, MemModel::CC));
        jobs.push_back(job(app, scale, MemModel::STR));
    }
    jobs.push_back(job("jpeg_enc", 2, MemModel::CC));
    jobs.push_back(job("jpeg_dec", 4, MemModel::STR));
    jobs.push_back(job("raytrace", 0, MemModel::CC));
    return jobs;
}

const std::vector<std::string> kWorkloads = {"cc_coherence", "str_dma",
                                             "compute_bound"};

std::vector<SweepJob>
workloadJobs(const std::string &name, std::uint64_t seed)
{
    if (name == "cc_coherence")
        return ccCoherence(seed);
    if (name == "str_dma")
        return strDma();
    return computeBound();
}

// ------------------------------------------------------------------ //
// Passes and correctness                                             //
// ------------------------------------------------------------------ //

struct Pass
{
    double sweepWall = 0; ///< runSweep() wall seconds
    double artifact = 0;  ///< writeArtifact() wall seconds
    double jobCpu = 0;    ///< sum of per-job RunResult::hostSeconds
    std::vector<double> hostSeconds; ///< per job, in job order
};

/** Per-execution correctness bookkeeping for one workload. */
class Checker
{
  public:
    Checker(std::map<std::string, std::string> expected, bool use_expected,
            std::uint64_t seed)
        : expectedDigests(std::move(expected)), useExpected(use_expected),
          seed(seed)
    {
    }

    /** Count one execution of a job; a failure is reported on stderr. */
    void
    check(const JobResult &jr)
    {
        ++attempted;
        const std::string &id = jr.job.id;
        std::string why;
        if (!jr.ran) {
            why = "did not run: " + jr.error;
        } else if (!jr.run.verified) {
            why = "failed verification";
        } else {
            const std::string d = jr.run.stats.toStatSet().digest();
            auto [it, first] = digests.emplace(id, d);
            auto exp = expectedDigests.find(id);
            if (!first && it->second != d)
                why = "digest " + d + " differs from first pass " +
                      it->second;
            else if (useExpected && (seed == 1 || !seeded(jr.job))) {
                if (exp == expectedDigests.end())
                    why = "has no expected digest";
                else if (exp->second != d)
                    why = "digest " + d + " != expected " + exp->second;
            }
        }
        if (why.empty())
            return;
        ++failed;
        std::fprintf(stderr, "FAIL %s: %s\n", id.c_str(), why.c_str());
    }

    const std::map<std::string, std::string> &seen() const { return digests; }

    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

  private:
    std::map<std::string, std::string> expectedDigests;
    bool useExpected;
    std::uint64_t seed;
    std::map<std::string, std::string> digests;
};

SweepOptions
passOptions(const std::string &sweep)
{
    SweepOptions opts;
    opts.jobs = 1;
    opts.isolate = SweepIsolate::Off;
    opts.journalPath = journalPath(sweep);
    return opts;
}

Pass
timedPass(const SweepSpec &spec, Checker &checker,
          std::vector<RunResult> *keep)
{
    Pass p;
    const auto t0 = SteadyClock::now();
    SweepResult res = runSweep(spec, passOptions(spec.name()));
    p.sweepWall = secondsSince(t0);
    const auto t1 = SteadyClock::now();
    if (res.writeArtifact().empty())
        fatal("cannot write the artifact of sweep %s", spec.name().c_str());
    p.artifact = secondsSince(t1);
    for (const JobResult &jr : res.jobs()) {
        checker.check(jr);
        p.hostSeconds.push_back(jr.run.hostSeconds);
        p.jobCpu += jr.run.hostSeconds;
        if (keep)
            keep->push_back(jr.run);
    }
    std::fprintf(stderr, "%s: pass cpu %.4f s, wall %.4f s\n",
                 spec.name().c_str(), p.jobCpu, p.sweepWall + p.artifact);
    return p;
}

/** One set-up-only pass: sum over jobs of ctor + setup + bind (+ tune). */
double
setupPass(const std::vector<SweepJob> &jobs)
{
    double sum = 0;
    for (const SweepJob &j : jobs) {
        SpanRecorder rec;
        sum += replicaRun(j, rec, ReplicaStop::AfterBind).hostSeconds;
    }
    return sum;
}

// ------------------------------------------------------------------ //
// Metrics                                                            //
// ------------------------------------------------------------------ //

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double
ratio(double num, double den)
{
    return den != 0 ? num / den : 0;
}

enum class Kind
{
    EndToEnd, ///< reported with --trace 0
    Layer,    ///< reported with --trace 1
    Info,     ///< printed and kept in results.json only
};

struct Metric
{
    std::string name;
    double value;
    std::string unit;
    Kind kind;
    std::vector<double> samples = {}; ///< per-pass values, when repeated
};

/** Deterministic per-layer counts, summed over the jobs of one pass. */
void
addCounts(std::vector<Metric> &m, const std::vector<RunResult> &runs)
{
    double events = 0, overflows = 0, peak = 0, instr = 0, barriers = 0;
    double useful = 0, sync = 0, load = 0, store = 0;
    double l1acc = 0, l1miss = 0, merged = 0, pfs = 0, allocs = 0,
           fast = 0;
    double snoops = 0, c2c = 0, upgrades = 0, bus = 0, xbar = 0;
    double l2acc = 0, l2miss = 0, dram = 0, dramBusy = 0, exec = 0;
    double dmaCmds = 0, dmaLines = 0, ls = 0, pfIssued = 0, pfUseful = 0;
    double energy = 0;
    for (const RunResult &r : runs) {
        const RunStats &s = r.stats;
        const CoreStats &c = s.coreTotal;
        events += double(s.eventsExecuted);
        overflows += double(s.calendarOverflows);
        peak = std::max(peak, double(s.peakPendingEvents));
        instr += double(c.instructions());
        barriers += double(c.barriers);
        useful += double(c.usefulTicks);
        sync += double(c.syncTicks);
        load += double(c.loadStallTicks);
        store += double(c.storeStallTicks);
        l1acc += double(s.l1Total.demandAccesses());
        l1miss += double(s.l1Total.demandMisses());
        merged += double(s.l1Total.storeMerged);
        pfs += double(s.l1Total.pfsStores);
        allocs += double(s.missPathAllocs);
        fast += double(s.l1Total.fastpathHits);
        snoops += double(s.fabric.snoopProbes);
        c2c += double(s.fabric.localSupplies + s.fabric.remoteSupplies);
        upgrades += double(s.fabric.upgrades);
        bus += double(s.busBytes);
        xbar += double(s.xbarBytes);
        l2acc += double(s.l2Hits + s.l2Misses);
        l2miss += double(s.l2Misses);
        dram += double(s.dramReadBytes + s.dramWriteBytes);
        dramBusy += double(s.dramBusyTicks);
        exec += double(s.execTicks);
        dmaCmds += double(c.dmaCommands);
        dmaLines += double(s.dmaAccesses);
        ls += double(s.lsReads + s.lsWrites);
        pfIssued += double(s.l1Total.prefetchesIssued);
        pfUseful += double(s.l1Total.prefetchesUseful);
        energy += r.energy.totalMj();
    }
    const double coreTicks = useful + sync + load + store;
    const Kind L = Kind::Layer;
    m.push_back({"sim.events", events, "count", L});
    m.push_back({"sim.calendar_overflows", overflows, "count", L});
    m.push_back({"sim.overflow_share", ratio(overflows, events), "frac", L});
    m.push_back({"sim.peak_pending_events", peak, "count", L});
    m.push_back({"core.instructions", instr, "count", L});
    m.push_back({"core.useful_share", ratio(useful, coreTicks), "frac", L});
    m.push_back({"core.sync_share", ratio(sync, coreTicks), "frac", L});
    m.push_back({"core.load_stall_share", ratio(load, coreTicks), "frac", L});
    m.push_back(
        {"core.store_stall_share", ratio(store, coreTicks), "frac", L});
    m.push_back({"core.barriers", barriers, "count", L});
    m.push_back({"mem.l1_accesses", l1acc, "count", L});
    m.push_back({"mem.l1_misses", l1miss, "count", L});
    m.push_back({"mem.l1_miss_rate", ratio(l1miss, l1acc), "frac", L});
    m.push_back({"mem.store_merged", merged, "count", L});
    m.push_back({"mem.pfs_stores", pfs, "count", L});
    m.push_back({"mem.miss_path_allocs", allocs, "count", L});
    m.push_back({"mem.fastpath_share", ratio(fast, l1acc), "frac", L});
    m.push_back({"mem.snoop_probes", snoops, "count", L});
    m.push_back({"mem.c2c_supplies", c2c, "count", L});
    m.push_back({"mem.upgrades", upgrades, "count", L});
    m.push_back({"mem.bus_bytes", bus, "B", L});
    m.push_back({"mem.xbar_bytes", xbar, "B", L});
    m.push_back({"mem.l2_accesses", l2acc, "count", L});
    m.push_back({"mem.l2_miss_rate", ratio(l2miss, l2acc), "frac", L});
    m.push_back({"mem.dram_bytes", dram, "B", L});
    m.push_back({"mem.dram_busy_share", ratio(dramBusy, exec), "frac", L});
    m.push_back({"stream.dma_commands", dmaCmds, "count", L});
    m.push_back({"stream.dma_line_accesses", dmaLines, "count", L});
    m.push_back(
        {"stream.lines_per_command", ratio(dmaLines, dmaCmds), "count", L});
    m.push_back({"stream.ls_accesses", ls, "count", L});
    m.push_back({"prefetch.issued", pfIssued, "count", L});
    m.push_back({"prefetch.accuracy", ratio(pfUseful, pfIssued), "frac", L});
    m.push_back({"energy.total_mj", energy, "mJ", L});
}

/** Sum of thread-CPU seconds of the spans named one of @p names. */
double
spanSeconds(const SpanRecorder &rec, std::initializer_list<const char *> names)
{
    double sum = 0;
    for (const Span &s : rec.spans())
        for (const char *n : names)
            if (s.name == n)
                sum += s.cpuSeconds;
    return sum;
}

void
printMetric(const std::string &workload, const Metric &m)
{
    std::printf("%-14s %-26s %.6g %s", workload.c_str(), m.name.c_str(),
                m.value, m.unit.c_str());
    if (!m.samples.empty()) {
        auto [lo, hi] =
            std::minmax_element(m.samples.begin(), m.samples.end());
        std::printf("  (min %.6g / median %.6g / max %.6g, n=%zu)", *lo,
                    median(m.samples), *hi, m.samples.size());
    }
    std::printf("\n");
}

JsonValue
metricJson(const Metric &m)
{
    JsonValue o = JsonValue::makeObject();
    o.set("value", JsonValue::makeNumber(m.value));
    o.set("unit", JsonValue::makeString(m.unit));
    if (!m.samples.empty()) {
        auto [lo, hi] =
            std::minmax_element(m.samples.begin(), m.samples.end());
        o.set("min", JsonValue::makeNumber(*lo));
        o.set("median", JsonValue::makeNumber(median(m.samples)));
        o.set("max", JsonValue::makeNumber(*hi));
        o.set("n", JsonValue::makeNumber(double(m.samples.size())));
    }
    return o;
}

/** Parse @p path, or an empty object when it is absent or unreadable. */
JsonValue
loadObject(const std::string &path)
{
    try {
        JsonValue v = JsonValue::parseFile(path);
        if (v.isObject())
            return v;
    } catch (const SimError &) {
    }
    return JsonValue::makeObject();
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream ofs(path, std::ios::trunc);
    ofs << text;
    if (!ofs.flush())
        fatal("cannot write %s", path.c_str());
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "cmpmem_bench: %s\n"
                 "usage: cmpmem_bench --workload NAME --out DIR "
                 "--expected FILE [--seed N] [--seconds S] "
                 "[--trace 0|1] [--update-expected]\n"
                 "workloads: cc_coherence str_dma compute_bound\n",
                 msg);
    std::exit(2);
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload, outDir, expectedPath;
    std::uint64_t seed = 1;
    double seconds = 40;
    bool trace = false, update = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + a).c_str());
            return argv[++i];
        };
        if (a == "--workload")
            workload = value();
        else if (a == "--out")
            outDir = value();
        else if (a == "--expected")
            expectedPath = value();
        else if (a == "--seed")
            seed = std::strtoull(value().c_str(), nullptr, 10);
        else if (a == "--seconds")
            seconds = std::strtod(value().c_str(), nullptr);
        else if (a == "--trace")
            trace = value() != "0";
        else if (a == "--update-expected")
            update = true;
        else
            usage(("unknown argument " + a).c_str());
    }
    if (std::find(kWorkloads.begin(), kWorkloads.end(), workload) ==
        kWorkloads.end())
        usage(("unknown workload '" + workload + "'").c_str());
    if (outDir.empty() || expectedPath.empty())
        usage("--out and --expected are required");
    if (!(seconds > 0) || seed == 0)
        usage("--seconds and --seed must be positive");
    if (update && seed != 1)
        usage("--update-expected records seed 1");

    // Pin the environment: jobs run in process, one at a time, at the
    // scales written above, and every file lands under --out.
    for (const char *var : {"CMPMEM_RUN_JOBS", "CMPMEM_JOBS", "CMPMEM_ISOLATE",
                            "CMPMEM_SCALE", "CMPMEM_BENCH_SCALE"})
        unsetenv(var);
    setenv("CMPMEM_ARTIFACT_DIR", outDir.c_str(), 1);

    const std::vector<SweepJob> jobs = workloadJobs(workload, seed);
    SweepSpec spec("cmpmem_" + workload);
    for (const SweepJob &j : jobs)
        spec.point(j);

    JsonValue expectedDoc = loadObject(expectedPath);
    std::map<std::string, std::string> expected;
    if (const JsonValue *all = expectedDoc.find("workloads"))
        if (const JsonValue *mine = all->find(workload))
            for (const auto &[id, d] : mine->members())
                expected[id] = d.asString();
    Checker checker(expected, !update, seed);

    if (update) {
        timedPass(spec, checker, nullptr);
        if (checker.failed)
            return 1;
        JsonValue mine = JsonValue::makeObject();
        for (const SweepJob &j : jobs)
            mine.set(j.id, JsonValue::makeString(checker.seen().at(j.id)));
        JsonValue all = expectedDoc.find("workloads")
                            ? expectedDoc.at("workloads")
                            : JsonValue::makeObject();
        all.set(workload, std::move(mine));
        expectedDoc.set("seed", JsonValue::makeNumber(1));
        expectedDoc.set("workloads", std::move(all));
        writeFile(expectedPath, expectedDoc.dump());
        std::printf("%s: %zu digests written to %s\n", workload.c_str(),
                    jobs.size(), expectedPath.c_str());
        return 0;
    }

    // Set-up passes first: they also warm the allocator and page cache
    // for the timed passes.
    std::vector<double> setup;
    double setupSpent = 0;
    while (int(setup.size()) < kMinSetupPasses ||
           (setupSpent < kSetupBudgetSeconds &&
            int(setup.size()) < kMaxSetupPasses)) {
        setup.push_back(setupPass(jobs));
        setupSpent += setup.back();
    }

    std::vector<Pass> passes;
    std::vector<RunResult> firstRuns;
    // A pass starts only if it should end within --seconds, judged by
    // the longest pass so far, so a run never measures longer than asked.
    const auto measure0 = SteadyClock::now();
    double longest = 0;
    while (int(passes.size()) < kMinPasses ||
           secondsSince(measure0) + longest <= seconds) {
        const auto pass0 = SteadyClock::now();
        passes.push_back(
            timedPass(spec, checker, passes.empty() ? &firstRuns : nullptr));
        longest = std::max(longest, secondsSince(pass0));
    }

    // Host-time metrics are medians over the timed passes. On a shared
    // host the median pass spread less from run to run than the sum of
    // per-job best passes did (README.md, "Method").
    std::vector<double> jobMedian(jobs.size());
    std::vector<double> passCpu, passWall, overhead, artifact;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        std::vector<double> s;
        for (const Pass &p : passes)
            s.push_back(p.hostSeconds[j]);
        jobMedian[j] = median(std::move(s));
    }
    for (const Pass &p : passes) {
        passCpu.push_back(p.jobCpu);
        passWall.push_back(p.sweepWall + p.artifact);
        overhead.push_back(p.sweepWall - p.jobCpu);
        artifact.push_back(p.artifact);
    }
    const double hostCpu = median(passCpu);
    double instructions = 0, events = 0;
    for (const RunResult &r : firstRuns) {
        instructions += double(r.stats.coreTotal.instructions());
        events += double(r.stats.eventsExecuted);
    }
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    std::vector<Metric> metrics;
    const Kind E = Kind::EndToEnd, L = Kind::Layer;
    metrics.push_back({"host_cpu_s", hostCpu, "s", E, passCpu});
    metrics.push_back({"sim_minst_per_s", ratio(instructions, hostCpu) / 1e6,
                       "Minst/s", E});
    // Printed but not gated: beyond host_cpu_s it adds only harness
    // overhead (tracked per layer), which is mostly fsynced journal
    // writes and swings several fold on a shared disk (README.md,
    // "Method").
    metrics.push_back({"wall_s", median(passWall), "s", Kind::Info, passWall});
    metrics.push_back({"setup_s", median(setup), "s", E, setup});
    metrics.push_back({"peak_rss_mb", double(ru.ru_maxrss) / 1024.0, "MB", E});
    metrics.push_back({"harness.sweep_overhead_s", median(overhead), "s", L,
                       overhead});
    metrics.push_back(
        {"harness.artifact_s", median(artifact), "s", L, artifact});
    metrics.push_back(
        {"sim.host_ns_per_event", ratio(hostCpu, events) * 1e9, "ns", L});
    addCounts(metrics, firstRuns);

    if (trace) {
        // Traced pass: the same sweep, each job replaying runWorkload()
        // call by call under a span.
        SpanRecorder rec;
        std::vector<SweepJob> traced = spec.expand();
        for (SweepJob &j : traced)
            j.run = [&rec, plain = j] { return replicaRun(plain, rec); };
        const std::string name = spec.name() + "_traced";
        const int sweepSpan = rec.open("harness.sweep", "", -1);
        SweepResult res = runJobs(name, std::move(traced), passOptions(name));
        rec.close(sweepSpan);
        const int artifactSpan = rec.open("harness.artifact", "", -1);
        res.writeArtifact();
        rec.close(artifactSpan);

        double tracedCpu = 0;
        for (const JobResult &jr : res.jobs()) {
            checker.check(jr);
            tracedCpu += jr.run.hostSeconds;
        }
        for (std::size_t i = 0; i < rec.spans().size(); ++i) {
            const Span &s = rec.spans()[i];
            if (!s.job.empty() && s.parent < 0 &&
                rec.selfSeconds(int(i)) < 0) {
                std::fprintf(stderr, "FAIL %s: negative self time\n",
                             s.job.c_str());
                ++checker.failed;
            }
        }
        writeFile(outDir + "/trace_" + workload + ".json",
                  rec.chromeTrace().dump());

        metrics.push_back({"system.construct_s",
                           spanSeconds(rec, {"system.construct"}), "s", L});
        metrics.push_back(
            {"system.bind_s", spanSeconds(rec, {"system.bind"}), "s", L});
        metrics.push_back({"system.autotune_s",
                           spanSeconds(rec, {"system.autotune"}), "s",
                           Kind::Info});
        metrics.push_back(
            {"workloads.setup_s",
             spanSeconds(rec, {"workloads.create", "workloads.setup"}), "s",
             L});
        metrics.push_back({"system.simulate_s",
                           spanSeconds(rec, {"system.simulate"}), "s", L});
        metrics.push_back(
            {"system.collect_s",
             spanSeconds(rec, {"system.collect", "energy.compute"}), "s", L});
        metrics.push_back({"workloads.verify_s",
                           spanSeconds(rec, {"workloads.verify"}), "s", L});
        metrics.push_back({"trace.overhead_frac",
                           ratio(tracedCpu - hostCpu, hostCpu), "frac", L});
    }
    metrics.push_back({"fail_frac",
                       ratio(double(checker.failed), double(checker.attempted)),
                       "frac", Kind::Info});

    for (const Metric &m : metrics)
        printMetric(workload, m);

    // results.json keeps the latest run of every workload side by side.
    const std::string resultsPath = outDir + "/results.json";
    JsonValue results = loadObject(resultsPath);
    results.set("nproc",
                JsonValue::makeNumber(std::thread::hardware_concurrency()));
    results.set("compiler", JsonValue::makeString(CMPMEM_BENCH_COMPILER));
    results.set("build_type", JsonValue::makeString(CMPMEM_BENCH_BUILD_TYPE));
    JsonValue entry = JsonValue::makeObject();
    entry.set("seed", JsonValue::makeNumber(double(seed)));
    entry.set("seconds", JsonValue::makeNumber(seconds));
    entry.set("trace", JsonValue::makeBool(trace));
    entry.set("passes", JsonValue::makeNumber(double(passes.size())));
    entry.set("attempted", JsonValue::makeNumber(double(checker.attempted)));
    entry.set("failed", JsonValue::makeNumber(double(checker.failed)));
    JsonValue all = JsonValue::makeObject();
    for (const Metric &m : metrics)
        all.set(m.name, metricJson(m));
    entry.set("metrics", std::move(all));
    JsonValue perJob = JsonValue::makeObject();
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        JsonValue o = JsonValue::makeObject();
        auto d = checker.seen().find(jobs[j].id);
        o.set("digest", JsonValue::makeString(
                            d == checker.seen().end() ? "" : d->second));
        o.set("host_s", JsonValue::makeNumber(jobMedian[j]));
        perJob.set(jobs[j].id, std::move(o));
    }
    entry.set("jobs", std::move(perJob));
    JsonValue wls = results.find("workloads") ? results.at("workloads")
                                              : JsonValue::makeObject();
    wls.set(workload, std::move(entry));
    results.set("workloads", std::move(wls));
    writeFile(resultsPath, results.dump());

    // The result line: exactly the metrics of the requested kind.
    JsonValue line = JsonValue::makeObject();
    line.set("correct", JsonValue::makeBool(checker.failed == 0));
    line.set("attempted", JsonValue::makeNumber(double(checker.attempted)));
    line.set("failed", JsonValue::makeNumber(double(checker.failed)));
    JsonValue reported = JsonValue::makeObject();
    const Kind want = trace ? Kind::Layer : Kind::EndToEnd;
    for (const Metric &m : metrics) {
        if (m.kind != want)
            continue;
        JsonValue o = JsonValue::makeObject();
        o.set("value", JsonValue::makeNumber(m.value));
        o.set("unit", JsonValue::makeString(m.unit));
        reported.set(m.name, std::move(o));
    }
    line.set("metrics", std::move(reported));
    std::printf("%s\n", line.dumpCompact().c_str());
    std::fflush(stdout);
    return checker.failed == 0 ? 0 : 1;
}
