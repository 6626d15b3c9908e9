/**
 * @file
 * Process-sandboxed job execution and the write-ahead sweep journal
 * (DESIGN.md §16).
 *
 * The sweep engine's failure isolation (SimError per job) only
 * covers failures that *throw*. A SIGSEGV, sanitizer abort, OOM
 * kill, or a host loop that wedges without simulating takes down the
 * whole process — every sibling's finished work with it. The
 * supervisor closes that gap with a process boundary per job. One
 * loop on the calling thread forks every child, so no other thread
 * of the parent can hold a lock (allocator, stdio, log) at fork():
 *
 *   parent (calling thread)             child (fork)
 *   -----------------------             ------------
 *   keep up to N children alive;        close read end
 *     per child: pipe(), fork(),        runJobInProcess(job)
 *     close write end                     - streams captured log
 *   poll() every read end, timeout          lines as 'L' frames
 *     = nearest hard deadline             - serializes the full
 *   past a deadline: SIGKILL                JobResult as one 'R'
 *   read 'L'/'R' frames; at EOF            frame (exact %.17g
 *   waitpid(), classify:                    double round-trip)
 *     result frame  -> decoded result    _exit(0)
 *     WIFSIGNALED   -> Crash + signal
 *     nonzero exit  -> Crash
 *     deadline kill -> Timeout
 *   crash/timeout with retries left
 *     (SweepOptions::maxRetries):
 *     back on the dispatch queue
 *
 * Because the child reports raw RunStats fields (not a rendered
 * table), a sandboxed job's artifact entry — stats, digest, energy —
 * is bit-identical to in-process execution; tests/test_supervisor.cc
 * pins serial == parallel == isolated.
 *
 * The journal is the durability half: one fsynced JSONL record per
 * completed job, keyed by job id + config identity + stats digest.
 * A sweep killed at any point (including mid-write: a torn trailing
 * line is discarded) resumes by merging journaled completions and
 * re-running only the rest, producing the exact artifact an
 * uninterrupted run would have. This fork/classify/re-dispatch/
 * journal shape is deliberately the worker half of the ROADMAP's
 * distributed-sweep coordinator.
 */

#ifndef CMPMEM_HARNESS_SUPERVISOR_HH
#define CMPMEM_HARNESS_SUPERVISOR_HH

#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "harness/json.hh"
#include "harness/sweep.hh"
#include "sim/stats.hh"

namespace cmpmem
{

/** Resolve SweepOptions::isolate (Env reads CMPMEM_ISOLATE). */
bool isolationEnabled(const SweepOptions &opts);

/** Receives a finished job's index and result. */
using JobDone = std::function<void(std::size_t, JobResult)>;

/**
 * Run jobs[i] for every i in @p order, each in a forked, supervised
 * child, with at most @p workers children alive at once. Starts no
 * thread: the calling thread forks, polls, reaps, and calls @p done
 * once per job, in completion order. A crashed or timed-out child's
 * job is re-queued while opts.maxRetries allows. A job whose pipe()
 * or fork() fails runs in-process instead (with a warning). Never
 * throws; sandbox death is recorded in the JobResult (errorKind
 * "crash"/"timeout", signal name, attempts).
 */
void runJobsSupervised(const std::vector<SweepJob> &jobs,
                       const std::vector<std::size_t> &order,
                       const SweepOptions &opts, int workers,
                       const JobDone &done);

/** A JSON object with one number member per entry of @p fields. */
template <typename S, typename T, std::size_t N>
JsonValue
fieldsToJson(const S &s, const Field<S, T> (&fields)[N])
{
    JsonValue obj = JsonValue::makeObject();
    for (const auto &f : fields)
        obj.set(f.name, JsonValue::makeNumber(double(s.*f.member)));
    return obj;
}

/**
 * Serialize a JobResult — every listed RunStats counter (scalars,
 * per-core, L1, fabric, fault counters), energy, outcome, and
 * optionally the captured log — as a JSON object that
 * jobResultFromJson() restores bit-exactly. Shared by the
 * child->parent result pipe and the journal.
 */
JsonValue jobResultToJson(const JobResult &jr, bool include_log);

/**
 * Restore the codec fields of @p jr (everything except jr.job,
 * which the caller owns) from @p doc. Missing or mistyped members
 * throw SimErrorKind::Config.
 */
void jobResultFromJson(const JsonValue &doc, JobResult &jr);

/**
 * Append-only write-ahead journal of completed jobs.
 *
 * File layout (JSONL): a header line carrying the sweep identity
 * {journal, schema, scale}, then one record per completed job
 * {id, config, stats_digest, result}. Each record is
 * written under a lock and fsynced before record() returns, so a
 * record either exists completely or is a torn trailing line the
 * loader discards.
 */
class SweepJournal
{
  public:
    /**
     * Open @p path for appending (@p fresh truncates first) and
     * write the header if the file is empty. An unopenable path
     * disables journaling with a warning rather than failing the
     * sweep (the journal is an optimization for re-runs, not a
     * correctness requirement of this run).
     */
    SweepJournal(const std::string &path, const std::string &sweep_name,
                 bool fresh);
    ~SweepJournal();

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    bool ok() const { return fd >= 0; }

    /** Append one fsynced record for @p jr (thread-safe). */
    void record(const JobResult &jr);

    /**
     * Whether @p jr is worth journaling: completed runs and
     * deterministic SimError failures (which would fail identically
     * on re-run) are; crashes and timeouts are not — resume must
     * re-attempt those.
     */
    static bool eligible(const JobResult &jr);

    /**
     * Parse @p path for resume: journaled completions for jobs in
     * @p jobs, keyed by id. Duplicate ids take the last complete
     * record; a torn/corrupt trailing line is discarded with a
     * warning (that job re-runs); a missing or empty journal returns
     * no entries. Refuses with SimErrorKind::Config when the header
     * identity (sweep name, schema, scale) or a record's config
     * identity does not match the spec — a changed
     * sweep definition must not silently merge stale results.
     */
    static std::map<std::string, JobResult>
    load(const std::string &path, const std::string &sweep_name,
         const std::vector<SweepJob> &jobs);

  private:
    void writeLine(const std::string &line);

    std::mutex m;
    std::string path_;
    int fd = -1;
};

} // namespace cmpmem

#endif // CMPMEM_HARNESS_SUPERVISOR_HH
