#include "harness/sweep.hh"

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <thread>
#include <utility>

#include "harness/experiment.hh"
#include "harness/supervisor.hh"
#include "harness/table.hh"
#include "sim/log.hh"
#include "sim/sim_error.hh"
#include "system/cmp_system.hh"

namespace cmpmem
{

JsonValue
configIdentityJson(const SystemConfig &cfg)
{
    JsonValue id = JsonValue::makeObject();
    id.set("cores", JsonValue::makeNumber(cfg.cores));
    id.set("model", JsonValue::makeString(to_string(cfg.model)));
    id.set("ghz", JsonValue::makeNumber(cfg.coreClockGhz));
    id.set("dram_gbps", JsonValue::makeNumber(cfg.dram.bandwidthGBps));
    id.set("hw_prefetch", JsonValue::makeBool(cfg.hwPrefetch));
    id.set("prefetch_depth", JsonValue::makeNumber(cfg.prefetchDepth));
    id.set("pfs", JsonValue::makeBool(cfg.pfsEnabled));
    id.set("quantum_cycles",
           JsonValue::makeNumber(double(cfg.quantumCycles)));
    id.set("line_bytes", JsonValue::makeNumber(cfg.lineBytes));
    id.set("cluster_size", JsonValue::makeNumber(cfg.clusterSize));
    // Cache-policy identity: bench_compare refuses to diff artifacts
    // produced under different policies (same rationale as the
    // scale fields in toJson()).
    id.set("l1_replacement",
           JsonValue::makeString(to_string(cfg.policy.l1Replacement)));
    id.set("l2_replacement",
           JsonValue::makeString(to_string(cfg.policy.l2Replacement)));
    id.set("prefetch_policy",
           JsonValue::makeString(to_string(cfg.policy.prefetch)));
    id.set("bip_throttle", JsonValue::makeNumber(cfg.policy.bipThrottle));
    return id;
}

JobResult
runJobInProcess(const SweepJob &job, const LogSink &log_sink)
{
    JobResult jr;
    jr.job = job;

    LogCapture capture;
    if (log_sink)
        capture.setSink(log_sink);
    double t0 = threadCpuSeconds();
    try {
        jr.run = job.run ? job.run()
                         : runWorkload(job.workload, job.cfg, job.params);
        jr.ran = true;
    } catch (const SimError &e) {
        jr.error = e.what();
        jr.errorKind = e.kindName();
        jr.diagnostic = e.diagnostic();
    } catch (const std::exception &e) {
        jr.error = e.what();
        jr.errorKind = "exception";
    } catch (...) {
        jr.error = "unknown exception";
        jr.errorKind = "exception";
    }
    // Custom-run jobs usually don't fill hostSeconds themselves;
    // charge them the thread CPU time spent here (see runner.hh for
    // why CPU time, not wall time).
    if (jr.run.hostSeconds == 0)
        jr.run.hostSeconds = threadCpuSeconds() - t0;
    jr.log = capture.drain();
    return jr;
}

// ---------------------------------------------------------------- //
// SweepSpec                                                        //
// ---------------------------------------------------------------- //

SweepSpec::SweepSpec(std::string name) : specName(std::move(name))
{
    if (specName.empty())
        fatal("sweep spec needs a non-empty name");
}

SweepSpec &
SweepSpec::base(const SystemConfig &cfg)
{
    baseCfg = cfg;
    return *this;
}

SweepSpec &
SweepSpec::baseParams(const WorkloadParams &p)
{
    baseprm = p;
    return *this;
}

SweepSpec &
SweepSpec::workloads(std::vector<std::string> names)
{
    workloadList = std::move(names);
    return *this;
}

SweepSpec &
SweepSpec::axis(std::string name, std::vector<AxisValue> values)
{
    if (values.empty())
        fatal("sweep %s: axis '%s' has no values", specName.c_str(),
              name.c_str());
    axes.push_back({std::move(name), std::move(values)});
    return *this;
}

SweepSpec &
SweepSpec::axis(std::string name, const std::vector<double> &values,
                std::function<void(SystemConfig &, double)> set,
                int label_precision)
{
    std::vector<AxisValue> vals;
    for (double v : values) {
        vals.push_back({fmtF(v, label_precision),
                        [set, v](SweepJob &job) { set(job.cfg, v); }});
    }
    return axis(std::move(name), std::move(vals));
}

SweepSpec &
SweepSpec::modelAxis(std::vector<MemModel> models)
{
    std::vector<AxisValue> vals;
    for (MemModel m : models) {
        vals.push_back({to_string(m),
                        [m](SweepJob &job) { job.cfg.model = m; }});
    }
    return axis("model", std::move(vals));
}

std::vector<PolicyPoint>
defaultPolicyPoints()
{
    using R = ReplacementPolicy;
    using P = PrefetchPolicy;
    return {
        {"lru", R::LRU, R::LRU, P::Stream, true},
        {"mip", R::MIP, R::MIP, P::Stream, true},
        {"lip", R::LIP, R::LIP, P::Stream, true},
        {"bip", R::BIP, R::BIP, P::Stream, true},
        {"markov", R::LRU, R::LRU, P::Markov, true},
        {"sbuf", R::LRU, R::LRU, P::StreamBuffer, true},
    };
}

SweepSpec &
SweepSpec::policyAxis(std::vector<PolicyPoint> pts)
{
    std::vector<AxisValue> vals;
    for (const PolicyPoint &pt : pts) {
        vals.push_back({pt.label, [pt](SweepJob &job) {
            job.cfg.policy.l1Replacement = pt.l1Replacement;
            job.cfg.policy.l2Replacement = pt.l2Replacement;
            job.cfg.policy.prefetch = pt.prefetch;
            // validate() rejects hwPrefetch under the streaming
            // model, so the request only lands on CC jobs; this is
            // why policyAxis must come after modelAxis.
            job.cfg.hwPrefetch =
                pt.hwPrefetch && job.cfg.model == MemModel::CC;
        }});
    }
    return axis("policy", std::move(vals));
}

SweepSpec &
SweepSpec::point(SweepJob job)
{
    points.push_back(std::move(job));
    return *this;
}

std::vector<SweepJob>
SweepSpec::expand() const
{
    std::vector<SweepJob> jobs;

    // Cross product: workloads (outermost) x axes in insertion
    // order, visited as a mixed-radix counter so expansion order is
    // deterministic and independent of axis value count.
    const std::vector<std::string> &wl =
        workloadList.empty() ? std::vector<std::string>{std::string()}
                             : workloadList;
    if (!axes.empty() || !workloadList.empty()) {
        // Mixed-radix counter over the axes; the last axis is the
        // innermost loop. Returns false once every combination has
        // been visited.
        auto increment = [this](std::vector<std::size_t> &idx) {
            for (std::size_t a = axes.size(); a-- > 0;) {
                if (++idx[a] < axes[a].values.size())
                    return true;
                idx[a] = 0;
            }
            return false;
        };
        for (const auto &w : wl) {
            std::vector<std::size_t> idx(axes.size(), 0);
            do {
                SweepJob job;
                job.cfg = baseCfg;
                job.params = baseprm;
                job.workload = w;
                std::string id = w;
                if (!w.empty())
                    job.tags["workload"] = w;
                for (std::size_t a = 0; a < axes.size(); ++a) {
                    const AxisValue &v = axes[a].values[idx[a]];
                    if (!id.empty())
                        id += '/';
                    id += axes[a].name + '=' + v.label;
                    job.tags[axes[a].name] = v.label;
                    v.apply(job);
                }
                job.id = id;
                jobs.push_back(std::move(job));
            } while (increment(idx));
        }
    }

    for (const auto &p : points)
        jobs.push_back(p);

    return jobs;
}

// ---------------------------------------------------------------- //
// SweepResult                                                      //
// ---------------------------------------------------------------- //

SweepResult::SweepResult(std::string name,
                         std::vector<JobResult> job_results,
                         double wall_seconds, int workers)
    : sweepName(std::move(name)), results(std::move(job_results)),
      wallSecs(wall_seconds), nWorkers(workers)
{
    for (std::size_t i = 0; i < results.size(); ++i)
        index.emplace(results[i].job.id, i);
}

const JobResult *
SweepResult::find(const std::string &id) const
{
    auto it = index.find(id);
    return it == index.end() ? nullptr : &results[it->second];
}

const JobResult &
SweepResult::at(const std::string &id) const
{
    const JobResult *jr = find(id);
    if (!jr)
        fatal("sweep %s has no job '%s'", sweepName.c_str(),
              id.c_str());
    return *jr;
}

const RunResult &
SweepResult::runOf(const std::string &id) const
{
    return at(id).run;
}

bool
SweepResult::allRan() const
{
    for (const auto &jr : results)
        if (!jr.ran)
            return false;
    return true;
}

bool
SweepResult::allVerified() const
{
    for (const auto &jr : results)
        if (!jr.ran || !jr.run.verified)
            return false;
    return true;
}

double
SweepResult::serialSeconds() const
{
    double sum = 0;
    for (const auto &jr : results)
        sum += jr.run.hostSeconds;
    return sum;
}

double
SweepResult::speedup() const
{
    return wallSecs > 0 ? serialSeconds() / wallSecs : 1.0;
}

std::string
SweepResult::summary() const
{
    return fmt("sweep %s: %zu jobs on %d worker%s: %.2f s host CPU, "
               "%.2f s wall, speedup %.2fx",
               sweepName.c_str(), results.size(), nWorkers,
               nWorkers == 1 ? "" : "s", serialSeconds(), wallSecs,
               speedup());
}

std::string
SweepResult::toJson() const
{
    JsonValue doc = JsonValue::makeObject();
    doc.set("sweep", JsonValue::makeString(sweepName));
    doc.set("schema", JsonValue::makeNumber(2));
    // The effective workload scale, the environment knob that
    // legitimately changes simulated stats, recorded so bench_compare
    // can refuse to diff artifacts produced under different sizings
    // (DESIGN.md §14).
    doc.set("scale", JsonValue::makeNumber(benchScale()));
    doc.set("workers", JsonValue::makeNumber(nWorkers));
    doc.set("wall_seconds", JsonValue::makeNumber(wallSecs));
    doc.set("serial_seconds", JsonValue::makeNumber(serialSeconds()));
    doc.set("speedup", JsonValue::makeNumber(speedup()));
    doc.set("all_verified", JsonValue::makeBool(allVerified()));

    JsonValue jobs = JsonValue::makeArray();
    for (const auto &jr : results) {
        JsonValue job = JsonValue::makeObject();
        job.set("id", JsonValue::makeString(jr.job.id));
        job.set("workload", JsonValue::makeString(jr.job.workload));
        job.set("variant", JsonValue::makeString(jr.run.stats.variant));
        JsonValue tags = JsonValue::makeObject();
        for (const auto &[k, v] : jr.job.tags)
            tags.set(k, JsonValue::makeString(v));
        job.set("tags", std::move(tags));
        job.set("config", configIdentityJson(jr.job.cfg));
        job.set("ran", JsonValue::makeBool(jr.ran));
        // Host-side dispatch bookkeeping, excluded from identity
        // comparison like host_seconds (DESIGN.md §16).
        job.set("attempts", JsonValue::makeNumber(jr.attempts));
        if (!jr.error.empty()) {
            JsonValue err = JsonValue::makeObject();
            err.set("kind", JsonValue::makeString(
                                jr.errorKind.empty() ? "exception"
                                                     : jr.errorKind));
            err.set("message", JsonValue::makeString(jr.error));
            if (!jr.signal.empty())
                err.set("signal", JsonValue::makeString(jr.signal));
            if (!jr.diagnostic.empty())
                err.set("diagnostic",
                        JsonValue::makeString(jr.diagnostic));
            job.set("error", std::move(err));
        }
        job.set("verified", JsonValue::makeBool(jr.run.verified));
        job.set("host_seconds", JsonValue::makeNumber(jr.run.hostSeconds));
        job.set("miss_path_allocs",
                JsonValue::makeNumber(double(jr.run.stats.missPathAllocs)));
        const StatSet set = jr.run.stats.toStatSet();
        JsonValue stats = JsonValue::makeObject();
        for (const auto &name : set.names())
            stats.set(name, JsonValue::makeNumber(set.get(name)));
        job.set("stats", std::move(stats));
        job.set("stats_digest", JsonValue::makeString(set.digest()));
        JsonValue energy = fieldsToJson(jr.run.energy, kEnergyFields);
        energy.set("total_mj", JsonValue::makeNumber(jr.run.energy.totalMj()));
        job.set("energy", std::move(energy));
        if (!jr.log.empty())
            job.set("log", JsonValue::makeString(jr.log));
        jobs.append(std::move(job));
    }
    doc.set("results", std::move(jobs));
    return doc.dump();
}

std::string
SweepResult::writeArtifact() const
{
    std::string path = artifactPath(sweepName);
    std::ofstream ofs(path, std::ios::trunc);
    ofs << toJson();
    ofs.close(); // flushes: a full disk fails here, not at open
    if (!ofs) {
        warn("cannot write sweep artifact %s", path.c_str());
        return std::string();
    }
    return path;
}

// ---------------------------------------------------------------- //
// Executor                                                         //
// ---------------------------------------------------------------- //

int
sweepWorkerCount(int requested)
{
    int n = requested > 0 ? requested : envInt("CMPMEM_JOBS", 0);
    if (n <= 0)
        n = int(std::thread::hardware_concurrency());
    return n > 0 ? n : 1;
}

std::string
artifactPath(const std::string &name)
{
    const char *dir = std::getenv("CMPMEM_ARTIFACT_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/BENCH_" + name + ".json";
}

std::string
journalPath(const std::string &name)
{
    const char *dir = std::getenv("CMPMEM_ARTIFACT_DIR");
    std::string base = (dir && *dir) ? dir : ".";
    return base + "/BENCH_" + name + ".journal.jsonl";
}

SweepResult
runJobs(std::string name, std::vector<SweepJob> jobs,
        const SweepOptions &opts)
{
    const std::size_t n = jobs.size();

    std::set<std::string> ids;
    for (std::size_t i = 0; i < n; ++i) {
        const SweepJob &job = jobs[i];
        if (job.id.empty())
            fatal("sweep %s: job %zu has an empty id", name.c_str(), i);
        if (!ids.insert(job.id).second)
            fatal("sweep %s: duplicate job id '%s'", name.c_str(),
                  job.id.c_str());
        if (job.workload.empty() && !job.run)
            fatal("sweep %s: job '%s' has neither a workload nor a "
                  "custom run function",
                  name.c_str(), job.id.c_str());
    }

    const int workers =
        int(std::min<std::size_t>(std::size_t(sweepWorkerCount(opts.jobs)),
                                  std::max<std::size_t>(n, 1)));

    // Resume: merge journaled completions before dispatch. load()
    // throws SimErrorKind::Config on identity mismatch — a changed
    // sweep must not silently absorb stale results.
    std::map<std::string, JobResult> resumed;
    if (opts.resume) {
        if (opts.journalPath.empty()) {
            warn("sweep %s: resume requested but no journal path is "
                 "set; running the full sweep",
                 name.c_str());
        } else {
            resumed = SweepJournal::load(opts.journalPath, name, jobs);
            if (!resumed.empty()) {
                inform("sweep %s: resuming — %zu of %zu jobs merged "
                       "from %s",
                       name.c_str(), resumed.size(), n,
                       opts.journalPath.c_str());
            }
        }
    }

    std::unique_ptr<SweepJournal> journal;
    if (!opts.journalPath.empty()) {
        journal = std::make_unique<SweepJournal>(
            opts.journalPath, name, /*fresh=*/!opts.resume);
    }

    // Journal-merged jobs are complete (and their logs are not
    // re-echoed); the rest are dispatched in list order.
    std::vector<JobResult> results(n);
    std::vector<std::size_t> pending;
    for (std::size_t i = 0; i < n; ++i) {
        auto it = resumed.find(jobs[i].id);
        if (it == resumed.end())
            pending.push_back(i);
        else
            results[i] = std::move(it->second);
    }

    // Journal before storing: the record is durable by the time
    // anything downstream can observe the job as done (record() has
    // its own lock and fsyncs).
    auto finish = [&](std::size_t i, JobResult jr) {
        if (journal && SweepJournal::eligible(jr))
            journal->record(jr);
        if (opts.echoLogs && !jr.log.empty()) {
            emitRaw("--- log from sweep job '" + jobs[i].id + "' ---\n" +
                    jr.log);
        }
        results[i] = std::move(jr);
    };

    auto wall0 = std::chrono::steady_clock::now();
    if (isolationEnabled(opts)) {
        runJobsSupervised(jobs, pending, opts, workers, finish);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::jthread> pool;
        for (int w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                for (std::size_t k = next++; k < pending.size(); k = next++)
                    finish(pending[k], runJobInProcess(jobs[pending[k]]));
            });
        }
        // jthreads join on destruction.
    }
    auto wall1 = std::chrono::steady_clock::now();
    double wall = std::chrono::duration<double>(wall1 - wall0).count();

    return SweepResult(std::move(name), std::move(results), wall,
                       workers);
}

SweepResult
runSweep(const SweepSpec &spec, const SweepOptions &opts)
{
    return runJobs(spec.name(), spec.expand(), opts);
}

} // namespace cmpmem
