/**
 * @file
 * Shared helpers for the reproduction benches: canonical
 * configurations (Table 2 defaults with one knob turned) and the
 * normalized execution-time breakdown of Figure 2.
 */

#ifndef CMPMEM_HARNESS_EXPERIMENT_HH
#define CMPMEM_HARNESS_EXPERIMENT_HH

#include <string>

#include "harness/runner.hh"
#include "harness/sweep.hh"
#include "system/config.hh"

namespace cmpmem
{

/**
 * A Table 2 configuration with the usual experiment knobs. Also
 * applies any process-wide bench overrides recorded by
 * parseBenchArgs() (fault injection, watchdog budget).
 */
SystemConfig makeConfig(int cores, MemModel model, double ghz = 0.8,
                        double dram_gbps = 3.2);

/**
 * Parse the common bench command-line flags and record them as
 * process-wide overrides that makeConfig() folds into every
 * configuration it hands out:
 *
 *   --faults[=SEED]      enable the stress fault-injection config
 *                        (stressFaultConfig) with the given seed
 *                        (default 1); see DESIGN.md section 11
 *   --watchdog-ticks=N   guard every run with an N-simulated-tick
 *                        liveness budget
 *   --isolate            run every job in a forked sandbox process
 *                        (same as CMPMEM_ISOLATE=1; DESIGN.md §16)
 *   --resume             merge completed jobs from the sweep's
 *                        write-ahead journal instead of re-running
 *                        them
 *   --retries=N          re-dispatch a crashed/timed-out sandbox up
 *                        to N extra times (default 1)
 *   --deadline=SECS      hard per-job wall-clock deadline enforced
 *                        with SIGKILL (isolation only; default none)
 *
 * Unknown arguments and malformed values ("--retries=x") are fatal
 * so typos don't silently run the default experiment. Call it first
 * thing in main().
 */
void parseBenchArgs(int argc, char **argv);

/**
 * The integer in environment variable @p name, or @p dflt when it is
 * unset or empty. Any other text ("1O", "4 ") is fatal(), naming the
 * variable. Reads CMPMEM_SCALE and CMPMEM_JOBS.
 */
int envInt(const char *name, int dflt);

/**
 * Figure 2-style breakdown: each component is the per-core average
 * time in that category divided by @p baseline_ticks (the 1-core CC
 * execution time). The components sum to approximately the
 * normalized execution time of the run.
 */
struct NormBreakdown
{
    double useful = 0;
    double sync = 0;
    double load = 0;
    double store = 0;

    double total() const { return useful + sync + load + store; }
};

NormBreakdown normalizedBreakdown(const RunStats &rs,
                                  Tick baseline_ticks);

/** One row of a Figure 2-style chart, formatted. */
std::string breakdownCells(const NormBreakdown &b);

/**
 * Workload scale for bench binaries: reads the CMPMEM_SCALE
 * environment variable (default 1; 0 selects the tiny test inputs
 * for a quick pass).
 */
WorkloadParams benchParams();

/** The CMPMEM_SCALE in effect (default 1, 0 = smoke). */
int benchScale();

/**
 * Bench epilogue: print the sweep's aggregate host-time and
 * speedup line (serial-sum vs wall-clock), write the
 * BENCH_<name>.json artifact, and return the process exit code
 * (0 unless a job failed to execute or the artifact was not
 * written).
 */
int finishBench(const SweepResult &res);

/**
 * runSweep() with the process-wide bench options:
 * --isolate/--resume/--retries/--deadline from parseBenchArgs(), plus
 * a write-ahead journal at journalPath(name) (fresh unless resuming).
 * A resume refusal (SimErrorKind::Config) is fatal()ed with its
 * message instead of escaping main(). Every bench main calls this
 * instead of the raw engine entry point.
 */
SweepResult runBenchSweep(const SweepSpec &spec);

} // namespace cmpmem

#endif // CMPMEM_HARNESS_EXPERIMENT_HH
