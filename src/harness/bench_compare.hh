/**
 * @file
 * The baseline identity gate: diff a fresh BENCH_<name>.json sweep
 * artifact against a committed baseline (DESIGN.md §14).
 *
 * Simulated results ("stats", "stats_digest", "energy", "config",
 * "ran", "verified", job membership) must be bit-identical. They are
 * deterministic functions of the configuration, so any drift is a
 * correctness change that must be reviewed (and the baseline
 * regenerated deliberately via scripts/check.sh --update-baselines).
 *
 * Every other member is ignored: the host-time-derived ones
 * ("host_seconds", the sweep-level wall/serial/speedup/workers, and
 * the host rates older artifacts carry) vary run to run, and host
 * time has its own judge in benchmark/. The artifact records "scale"
 * (CMPMEM_SCALE), which legitimately changes simulated stats;
 * comparing across different scales is refused outright rather than
 * reported as a mismatch.
 */

#ifndef CMPMEM_HARNESS_BENCH_COMPARE_HH
#define CMPMEM_HARNESS_BENCH_COMPARE_HH

#include <string>
#include <vector>

#include "harness/json.hh"

namespace cmpmem
{

/** One mismatch, locatable by job and metric. */
struct CompareIssue
{
    std::string jobId;
    std::string metric; ///< e.g. "stats.l2.misses", "stats_digest"
    std::string detail; ///< human-readable "baseline X, fresh Y"
};

struct CompareReport
{
    std::string sweep;
    std::size_t jobsCompared = 0;
    std::vector<CompareIssue> identity; ///< bit-identity violations
    std::vector<std::string> notes;     ///< non-fatal observations

    bool identityClean() const { return identity.empty(); }

    /** 0 clean; 1 identity mismatch. */
    int exitCode() const { return identity.empty() ? 0 : 1; }

    /** Multi-line human-readable report (one line per issue). */
    std::string format() const;
};

/**
 * Diff @p fresh against @p baseline. Both must be the same sweep at
 * the same schema and scale, and their jobs must not differ in a
 * cache-policy config field (SimErrorKind::Config otherwise).
 */
CompareReport compareArtifacts(const JsonValue &baseline,
                               const JsonValue &fresh);

} // namespace cmpmem

#endif // CMPMEM_HARNESS_BENCH_COMPARE_HH
