/**
 * @file
 * Cache-policy design space: the policy axis (four insertion/
 * replacement policies under the paper's stream prefetcher, plus the
 * Markov and stream-buffer prefetch engines under LRU) crossed with
 * the two memory models, on two paper workloads that bracket the
 * locality spectrum (fir: streaming/data-bound; mpeg2: compute-bound
 * with long-term reuse). DESIGN.md §15 describes the policy-trait
 * architecture this sweeps.
 *
 * Every point is a declarative SweepSpec job, so the policy labels
 * land in the artifact's tags and the policy identity lands in each
 * job's config block — bench_compare refuses cross-policy diffs.
 */

#include <cstdio>

#include "cmpmem.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    parseBenchArgs(argc, argv);

    std::printf("Policy design space: {LRU, MIP, LIP, BIP} x "
                "{stream, markov, stream buffers} x {CC, STR}, "
                "4 cores @ 800 MHz\n\n");

    // modelAxis before policyAxis: a policy point's hwPrefetch
    // request is gated on the job's model, and axes apply in
    // insertion order.
    SweepSpec spec("policy_space");
    spec.base(makeConfig(4, MemModel::CC))
        .baseParams(benchParams())
        .workloads({"fir", "mpeg2"})
        .modelAxis()
        .policyAxis();
    SweepResult res = runBenchSweep(spec);

    TextTable table({"Workload", "Model", "Policy", "L1 D-miss",
                     "L2 D-miss", "Exec ms", "Prefetch useful",
                     "verified"});
    for (const auto &jr : res.jobs()) {
        if (!jr.ran) {
            table.addRow({jr.job.tags.at("workload"),
                          jr.job.tags.at("model"),
                          jr.job.tags.at("policy"), "-", "-", "-", "-",
                          "ERROR"});
            continue;
        }
        const RunStats &s = jr.run.stats;
        table.addRow({jr.job.tags.at("workload"),
                      jr.job.tags.at("model"),
                      jr.job.tags.at("policy"),
                      fmtPct(s.l1MissRate()), fmtPct(s.l2MissRate()),
                      fmtF(s.execSeconds() * 1e3, 3),
                      fmt("%llu", (unsigned long long)
                              s.l1Total.prefetchesUseful),
                      jr.run.verified ? "yes" : "NO"});
    }

    std::printf("%s\n", table.format().c_str());
    std::printf("The STR rows repeat per policy with hwPrefetch off: "
                "local-store traffic bypasses the L1 arrays, so only "
                "the residual cached accesses move.\n");
    return finishBench(res);
}
