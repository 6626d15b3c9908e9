/**
 * @file
 * One-call experiment runner: build a system, run a workload on it,
 * verify the output, and collect statistics and energy.
 */

#ifndef CMPMEM_HARNESS_RUNNER_HH
#define CMPMEM_HARNESS_RUNNER_HH

#include <string>

#include "energy/energy_model.hh"
#include "system/cmp_system.hh"
#include "workloads/workload.hh"

namespace cmpmem
{

struct RunResult
{
    RunStats stats;
    EnergyBreakdown energy;
    bool verified = false;
    double hostSeconds = 0; ///< host CPU cost of this simulation
};

/**
 * CPU time consumed by the calling thread so far, in seconds.
 *
 * This — not wall-clock — is how per-job host cost is measured: with
 * several sweep workers sharing cores, a job's wall time includes
 * stretches where the thread was descheduled, which would inflate
 * the serial-sum and overstate the pool's speedup.
 */
double threadCpuSeconds();

/**
 * Run @p workload_name on a system configured by @p cfg.
 *
 * Verification failure is a reproduction bug: the runner reports it
 * in the result and warn()s, leaving the decision to the caller
 * (tests assert on it; benches print a diagnostic).
 */
RunResult runWorkload(const std::string &workload_name,
                      const SystemConfig &cfg,
                      const WorkloadParams &params = {});

} // namespace cmpmem

#endif // CMPMEM_HARNESS_RUNNER_HH
