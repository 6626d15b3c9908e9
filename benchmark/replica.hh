/**
 * @file
 * runWorkload()'s public call sequence, replayed one call at a time so
 * the benchmark can attribute host time to each layer.
 *
 * The benchmark's traced pass runs every job through replicaRun()
 * instead of runWorkload(): CmpSystem ctor -> createWorkload -> setup
 * -> bindKernel -> simulate -> collectStats -> EnergyModel::compute ->
 * verify, plus the calendar auto-tune dry run when the config asks for
 * it. Each call is wrapped in a span; the job itself is the parent
 * span, and its id is the identifier every span of the job shares.
 * replica_fidelity_test.cc pins the replica to runWorkload() by stats
 * digest, so the per-layer split describes the same work the timed
 * passes measure.
 */

#ifndef CMPMEM_BENCHMARK_REPLICA_HH
#define CMPMEM_BENCHMARK_REPLICA_HH

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "cmpmem.hh"

namespace cmpmem::bench
{

/** One timed interval of a traced pass. */
struct Span
{
    std::string name; ///< layer call ("system.simulate"), or the job id
    std::string job;  ///< shared identifier: job id ("" for harness spans)
    int parent = -1;  ///< index of the enclosing span; -1 for a root
    int tid = 0;      ///< 1 on the recorder's own thread, 2 elsewhere
    double wallStart = 0; ///< steady-clock seconds since the recorder began
    double wallEnd = 0;
    double cpuStart = 0;   ///< thread-CPU clock at open
    double cpuSeconds = 0; ///< thread-CPU duration (0 while open)
    bool open = true;
};

/**
 * In-memory span store, written out once at the end of the run.
 *
 * Not synchronized: one thread may record at a time. The benchmark
 * satisfies this by running its sweeps on a single worker thread while
 * the calling thread waits in runJobs(), whose join orders the two.
 * A child span must be opened and closed on its parent's thread, since
 * self time subtracts thread-CPU durations.
 */
class SpanRecorder
{
  public:
    SpanRecorder();

    /** Open a span and return its index. */
    int open(std::string name, std::string job, int parent);

    /** Close span @p idx (closing a closed span does nothing). */
    void close(int idx);

    const std::vector<Span> &spans() const { return recorded; }

    /** Thread-CPU duration of @p idx minus that of its direct children. */
    double selfSeconds(int idx) const;

    /**
     * Chrome trace-event JSON: one complete ("X") event per closed
     * span, timestamps in microseconds. Opens in Perfetto or
     * chrome://tracing; args carry the span index, parent index, job
     * id and the CPU and self-CPU durations.
     */
    JsonValue chromeTrace() const;

  private:
    std::chrono::steady_clock::time_point origin;
    std::thread::id owner;
    std::vector<Span> recorded;
};

/** Closes its span when it goes out of scope, on error paths too. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name, std::string job,
               int parent)
        : recorder(rec),
          idx(rec.open(std::move(name), std::move(job), parent))
    {
    }
    ~ScopedSpan() { recorder.close(idx); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    int index() const { return idx; }
    void close() { recorder.close(idx); }

  private:
    SpanRecorder &recorder;
    int idx;
};

/** Which part of runWorkload()'s sequence replicaRun() executes. */
enum class ReplicaStop
{
    AfterBind, ///< set-up only: the system is destroyed unsimulated
    Complete,  ///< the whole sequence, ending with verify()
};

/**
 * Run registry job @p job through runWorkload()'s public call
 * sequence, recording a job span and one child span per call into
 * @p rec. RunResult::hostSeconds is the job span's thread-CPU time,
 * which, as in runWorkload(), excludes tearing the system down.
 * With ReplicaStop::AfterBind only hostSeconds is filled in.
 */
RunResult replicaRun(const SweepJob &job, SpanRecorder &rec,
                     ReplicaStop stop = ReplicaStop::Complete);

} // namespace cmpmem::bench

#endif // CMPMEM_BENCHMARK_REPLICA_HH
