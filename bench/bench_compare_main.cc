/**
 * @file
 * CLI for the baseline identity gate (DESIGN.md §14):
 *
 *   bench_compare BASELINE.json FRESH.json
 *
 * Diffs a fresh BENCH artifact against the committed baseline:
 * simulated stats, digests, energy and config must be bit-identical.
 *
 * Exit codes: 0 clean, 1 simulated-result identity mismatch,
 * 2 usage, artifact parse or sizing error.
 */

#include <cstdio>

#include "harness/bench_compare.hh"
#include "sim/sim_error.hh"

using namespace cmpmem;

int
main(int argc, char **argv)
{
    if (argc != 3 || argv[1][0] == '-' || argv[2][0] == '-') {
        std::fprintf(stderr, "usage: %s BASELINE FRESH\n", argv[0]);
        return 2;
    }
    try {
        CompareReport report =
            compareArtifacts(JsonValue::parseFile(argv[1]),
                             JsonValue::parseFile(argv[2]));
        std::printf("%s", report.format().c_str());
        return report.exitCode();
    } catch (const SimError &e) {
        std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
        return 2;
    }
}
