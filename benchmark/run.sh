#!/usr/bin/env bash
# cmpmem host-cost benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
#   benchmark/run.sh --update-expected
#
# Builds benchmark/ (which compiles the simulator library from the
# repository root) into build-bench/, then runs each workload in its own
# process. Without --workload all three run in turn. Artifacts, journals,
# traces and results.json go to build-bench/out/. The last line a
# workload prints is its JSON result; the exit status is non-zero if any
# job failed.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
build=build-bench
out=$build/out
all=(cc_coherence str_dma compute_bound)

workloads=()
args=()
update=0
while (($#)); do
    case $1 in
        --workload) workloads+=("$2"); shift 2 ;;
        --update-expected) update=1; shift ;;
        --seed|--seconds|--trace) args+=("$1" "$2"); shift 2 ;;
        *) echo "run.sh: unknown argument '$1'" >&2; exit 2 ;;
    esac
done
((${#workloads[@]})) || workloads=("${all[@]}")

# The binary pins the simulator's environment knobs itself; clearing
# them here keeps the build and any child process independent of the
# caller's shell as well.
unset CMPMEM_RUN_JOBS CMPMEM_JOBS CMPMEM_ISOLATE CMPMEM_SCALE \
      CMPMEM_BENCH_SCALE CMPMEM_ARTIFACT_DIR

jobs=$(nproc 2>/dev/null || echo 1)
((jobs <= 4)) || jobs=4
cmake -S benchmark -B "$build" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "$build" --target cmpmem_bench -j "$jobs" >&2
mkdir -p "$out"

status=0
for w in "${workloads[@]}"; do
    if ((update)); then
        "$build/cmpmem_bench" --workload "$w" --seed 1 --update-expected \
            --out "$out" --expected benchmark/expected_digests.json || status=1
    else
        "$build/cmpmem_bench" --workload "$w" "${args[@]}" \
            --out "$out" --expected benchmark/expected_digests.json || status=1
    fi
done
exit "$status"
