/**
 * @file
 * Declarative sweep engine: every table and figure of the paper is a
 * sweep over {workload x SystemConfig knobs}, and every point is an
 * independent, deterministic, single-threaded simulation — so the
 * configuration axis is embarrassingly parallel.
 *
 * A SweepSpec names the axes (cross-product) and/or lists explicit
 * points; expand() turns it into a flat job list, and runSweep() runs
 * that list on N workers (default std::thread::hardware_concurrency,
 * overridable with the CMPMEM_JOBS environment variable or
 * SweepOptions::jobs). Jobs are independent: nothing orders one job
 * after another. Figures that normalize to a baseline point read it
 * when they render, after runSweep() returns. The SweepResult renders
 * both the existing text tables (via per-id lookup) and a
 * machine-readable BENCH_<name>.json artifact.
 *
 * Determinism: results are stored by job index, not completion
 * order, and each simulation owns all of its mutable state (see the
 * audit note in harness/runner.cc), so for a fixed spec the
 * per-point simulated tick counts are bit-identical regardless of
 * worker count. tests/test_sweep.cc asserts this.
 */

#ifndef CMPMEM_HARNESS_SWEEP_HH
#define CMPMEM_HARNESS_SWEEP_HH

#include <functional>
#include <map>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/runner.hh"
#include "system/config.hh"
#include "workloads/workload.hh"

namespace cmpmem
{

/** One fully-specified simulation point within a sweep. */
struct SweepJob
{
    SweepJob() = default;

    SweepJob(std::string id_, std::string workload_, SystemConfig cfg_,
             WorkloadParams params_ = {},
             std::map<std::string, std::string> tags_ = {},
             std::function<RunResult()> run_ = {})
        : id(std::move(id_)), workload(std::move(workload_)),
          cfg(cfg_), params(params_), tags(std::move(tags_)),
          run(std::move(run_))
    {
    }

    /** Unique id within the sweep ("fir/cores=4/model=CC"). */
    std::string id;

    /** Registry workload name; may be empty when @c run is set. */
    std::string workload;

    SystemConfig cfg;
    WorkloadParams params;

    /** Axis-point labels for reporting ("cores" -> "4"). */
    std::map<std::string, std::string> tags;

    /**
     * Custom simulation body for points that are not a registry
     * workload (e.g. the hybrid-ablation kernels). When empty, the
     * engine runs runWorkload(workload, cfg, params).
     */
    std::function<RunResult()> run;
};

/** Outcome of one job. */
struct JobResult
{
    SweepJob job;
    RunResult run;
    bool ran = false;  ///< completed without throwing
    std::string error; ///< exception text when !ran

    /**
     * Error taxonomy when !ran: a SimErrorKind name ("watchdog",
     * "deadlock", "fault", "crash", "timeout", ...) or "exception"
     * for anything else.
     */
    std::string errorKind;

    /**
     * Signal that terminated the sandboxed child ("SIGSEGV",
     * "SIGKILL", ...) when errorKind is "crash"/"timeout" and a
     * signal was involved; empty otherwise.
     */
    std::string signal;

    /**
     * Execution attempts consumed (1 for a job that ran once; >1
     * after crash/timeout re-dispatch; 0 for a result merged from a
     * resume journal without re-running). Host-side bookkeeping:
     * bench_compare excludes it from identity comparison, like
     * host_seconds.
     */
    int attempts = 1;

    /**
     * Machine-state dump attached to the failure (SimError::
     * diagnostic()), e.g. the watchdog's pending-event / MSHR /
     * store-buffer report. Empty for plain exceptions.
     */
    std::string diagnostic;

    std::string log;   ///< warn()/inform() output captured from the run
};

/** One value of a named axis: a label plus a job mutation. */
struct AxisValue
{
    std::string label;
    std::function<void(SweepJob &)> apply;
};

/**
 * One point of the cache-policy axis (SweepSpec::policyAxis):
 * replacement policy per level plus the prefetch algorithm.
 */
struct PolicyPoint
{
    std::string label; ///< axis label ("lru", "bip", "markov", ...)
    ReplacementPolicy l1Replacement = ReplacementPolicy::LRU;
    ReplacementPolicy l2Replacement = ReplacementPolicy::LRU;
    PrefetchPolicy prefetch = PrefetchPolicy::Stream;

    /**
     * Request hardware prefetching. Applied only to CC-model jobs
     * (SystemConfig::validate() rejects hwPrefetch under STR), so
     * STR points still sweep the replacement policies.
     */
    bool hwPrefetch = false;
};

/**
 * The canonical six-point policy axis of the policy_space bench: the
 * four insertion/replacement policies under the paper's stream
 * prefetcher, plus the two alternative prefetch engines under LRU.
 */
std::vector<PolicyPoint> defaultPolicyPoints();

/**
 * A declarative sweep: base config/params, a workload list, named
 * axes expanded as a cross-product, and/or explicit points.
 */
class SweepSpec
{
  public:
    explicit SweepSpec(std::string name);

    const std::string &name() const { return specName; }

    /** Base configuration cloned into every cross-product job. */
    SweepSpec &base(const SystemConfig &cfg);

    /** Base workload parameters cloned into every cross-product job. */
    SweepSpec &baseParams(const WorkloadParams &p);

    /** The workload axis (outermost loop of the cross-product). */
    SweepSpec &workloads(std::vector<std::string> names);

    /** Generic named axis. */
    SweepSpec &axis(std::string name, std::vector<AxisValue> values);

    /** Numeric axis over a SystemConfig knob. */
    SweepSpec &axis(std::string name, const std::vector<double> &values,
                    std::function<void(SystemConfig &, double)> set,
                    int label_precision = 1);

    /** Convenience axis over the two memory models. */
    SweepSpec &modelAxis(std::vector<MemModel> models = {MemModel::CC,
                                                         MemModel::STR});

    /**
     * Cache-policy axis: each point sets the L1/L2 replacement
     * policy, the prefetch algorithm, and (CC only) hwPrefetch.
     * Because a point's hwPrefetch gating reads job.cfg.model, call
     * modelAxis() (or fix base().model) *before* adding this axis —
     * axes apply in insertion order.
     */
    SweepSpec &policyAxis(std::vector<PolicyPoint> points =
                              defaultPolicyPoints());

    /**
     * Explicit point, run alongside the cross-product jobs (e.g. the
     * 1-core CC baseline of a normalized figure). The caller provides
     * the id; runJobs() fatal()s on a missing or duplicated one.
     */
    SweepSpec &point(SweepJob job);

    /**
     * Expand into the job list: the cross-product of workloads x
     * axes (ids "<workload>/<axis>=<label>/..."), then explicit
     * points. Deterministic order.
     */
    std::vector<SweepJob> expand() const;

  private:
    struct Axis
    {
        std::string name;
        std::vector<AxisValue> values;
    };

    std::string specName;
    SystemConfig baseCfg;
    WorkloadParams baseprm;
    std::vector<std::string> workloadList;
    std::vector<Axis> axes;
    std::vector<SweepJob> points;
};

/**
 * Whether jobs run in forked sandbox processes (harness/supervisor.hh).
 * Env defers to the CMPMEM_ISOLATE environment variable (unset/"0"
 * means off), so one knob flips a whole test or bench run.
 */
enum class SweepIsolate
{
    Env,
    Off,
    On,
};

/** Execution knobs for runSweep(). */
struct SweepOptions
{
    /**
     * Worker count; 0 means the CMPMEM_JOBS environment variable,
     * falling back to std::thread::hardware_concurrency().
     */
    int jobs = 0;

    /**
     * Re-emit each job's captured warn()/inform() text to stderr
     * (as one block, prefixed with the job id) once the job ends.
     * When false the text is only kept in JobResult::log.
     */
    bool echoLogs = true;

    /**
     * Run each job in a forked child supervised by the parent
     * (DESIGN.md §16): a SIGSEGV, abort, or runaway host loop in one
     * job can no longer take down its siblings. Simulated stats are
     * bit-identical to in-process execution — the child serializes
     * the full RunStats/energy over a pipe with exact double
     * round-tripping.
     */
    SweepIsolate isolate = SweepIsolate::Env;

    /**
     * Extra dispatch attempts for a job whose *sandbox* died (crash
     * or deadline kill) — deterministic SimError failures are
     * recorded, not retried, since they would fail identically
     * again. A dead sandbox's job goes back on the dispatch queue
     * at once. 0 disables re-dispatch. Only meaningful under
     * isolation.
     */
    int maxRetries = 0;

    /**
     * Hard per-attempt wall-clock deadline in seconds (0 = none),
     * enforced by the supervisor with SIGKILL. Unlike the in-process
     * watchdog (cooperative, checked between events), this stops
     * jobs that wedge host time without simulating. Requires
     * isolation; ignored for in-process jobs.
     */
    double jobDeadlineSeconds = 0;

    /**
     * Write-ahead journal path (empty = no journal). Every completed
     * job appends one fsynced JSONL record keyed by id + config
     * identity + stats digest, so a killed sweep can resume.
     */
    std::string journalPath;

    /**
     * Resume from journalPath: jobs with a journaled completion (and
     * matching config identity) are merged bit-identically instead
     * of re-run. Jobs journaled as crashed/timed-out are re-run.
     */
    bool resume = false;
};

/** Structured results of a sweep, in job-list order. */
class SweepResult
{
  public:
    SweepResult(std::string name, std::vector<JobResult> results,
                double wall_seconds, int workers);

    const std::string &name() const { return sweepName; }
    const std::vector<JobResult> &jobs() const { return results; }

    /** Lookup by id; null when absent. */
    const JobResult *find(const std::string &id) const;

    /** Lookup by id; fatal()s when absent (bench formatting). */
    const JobResult &at(const std::string &id) const;

    /** Shorthand for at(id).run. */
    const RunResult &runOf(const std::string &id) const;

    bool allRan() const;
    bool allVerified() const;

    /** Sum of per-job host seconds (the serial-execution cost). */
    double serialSeconds() const;

    /** Wall-clock seconds of the pooled execution. */
    double wallSeconds() const { return wallSecs; }

    /** Serial-sum / wall-clock (the parallelism win). */
    double speedup() const;

    int workers() const { return nWorkers; }

    /** One-line aggregate: jobs, host time, wall time, speedup. */
    std::string summary() const;

    /** Full machine-readable artifact (see DESIGN.md for schema). */
    std::string toJson() const;

    /**
     * Write toJson() to "<dir>/BENCH_<name>.json" where dir is
     * CMPMEM_ARTIFACT_DIR or ".". @return the path written, or ""
     * (with a warning) when the file could not be opened or written.
     */
    std::string writeArtifact() const;

  private:
    std::string sweepName;
    std::vector<JobResult> results;
    std::map<std::string, std::size_t> index;
    double wallSecs = 0;
    int nWorkers = 1;
};

/** Expand @p spec and run its jobs (see runJobs()). */
SweepResult runSweep(const SweepSpec &spec, const SweepOptions &opts = {});

/**
 * Run an already-expanded job list. fatal()s on an empty or
 * duplicated id, or a job with neither a workload nor a run
 * function. In process, N std::jthread workers take the next job
 * from one atomic counter (one worker even for a serial run). Under
 * isolation the calling thread forks every sandbox and starts no
 * thread (harness/supervisor.hh).
 */
SweepResult runJobs(std::string name, std::vector<SweepJob> jobs,
                    const SweepOptions &opts = {});

/** Resolved worker count for @p requested (0 = env/default). */
int sweepWorkerCount(int requested);

/** Artifact path "<CMPMEM_ARTIFACT_DIR or .>/BENCH_<name>.json". */
std::string artifactPath(const std::string &name);

/** Journal path "<CMPMEM_ARTIFACT_DIR or .>/BENCH_<name>.journal.jsonl". */
std::string journalPath(const std::string &name);

/**
 * The config-identity JSON object recorded per job in artifacts and
 * journal records — exactly the fields bench_compare diffs (and
 * hard-refuses on policy mismatch), so "same config identity" means
 * the same thing to the gate and to resume.
 */
JsonValue configIdentityJson(const SystemConfig &cfg);

/** Incremental log consumer for runJobInProcess (may be empty). */
using LogSink = std::function<void(const std::string &)>;

/**
 * Execute one job on the calling thread (the isolation-off body of
 * the executor, also the body a sandbox child runs after fork). A
 * registry job runs job.cfg as given, its watchdog included.
 * Catches SimError/std::exception into the JobResult taxonomy;
 * never throws. @p log_sink additionally receives each captured log
 * line as it is produced.
 */
JobResult runJobInProcess(const SweepJob &job, const LogSink &log_sink = {});

} // namespace cmpmem

#endif // CMPMEM_HARNESS_SWEEP_HH
