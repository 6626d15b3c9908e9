#!/usr/bin/env bash
#
# Build and run the full figure/table suite on the sweep engine and
# collect the machine-readable artifacts (BENCH_<name>.json) at the
# repository root.
#
# Knobs (environment):
#   CMPMEM_SCALE     workload scale factor (default 1; 0 = smoke size)
#   CMPMEM_JOBS      sweep worker count (default: hardware concurrency)
#   CMPMEM_ISOLATE   1 = run every sweep job in a forked sandbox
#                    (DESIGN.md §16)
#
# Flags:
#   --resume       pick up where a killed run left off: each sweep
#                  merges completed jobs from its write-ahead journal
#                  (BENCH_<name>.journal.jsonl) instead of re-running
#                  them. The merged artifact is bit-identical to an
#                  uninterrupted run's.
#
# Usage: scripts/bench.sh [--resume] [jobs]
#        (jobs = build parallelism)

set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
resume=0
jobs="$(nproc)"
for arg in "$@"; do
    case "${arg}" in
        --resume) resume=1 ;;
        [0-9]*) jobs="${arg}" ;;
        *)
            echo "usage: scripts/bench.sh [--resume] [jobs]" >&2
            exit 2
            ;;
    esac
done

benches=(
    table3
    fig2_scaling
    fig3_traffic
    fig4_energy
    fig5_comp_throughput
    fig6_bandwidth
    fig7_prefetch
    fig8_pfs
    fig9_stream_opt_mpeg2
    fig10_stream_opt_art
    ablation_quantum
    ablation_interconnect
    ablation_dram
    ablation_hybrid
    policy_space
)

echo "==> configuring build"
# Keeps the generator of an existing build/ (CMake's default if new).
cmake -S . -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
echo "==> building bench suite"
cmake --build build -j "${jobs}" --target "${benches[@]}" bench_compare

export CMPMEM_ARTIFACT_DIR="${root}"
for b in "${benches[@]}"; do
    echo
    echo "==> ${b}"
    flags=()
    if [[ "${resume}" -eq 1 ]]; then
        flags+=(--resume)
    fi
    "build/bench/${b}" ${flags[@]+"${flags[@]}"}
done

echo
echo "==> artifacts:"
ls -l "${root}"/BENCH_*.json

# Compare against the committed baselines where one exists and the
# sizing matches (baselines are pinned at CMPMEM_SCALE=0 — the gate
# refuses cross-sizing diffs, so skip rather than fail a full-scale
# run).
if [[ "${CMPMEM_SCALE:-1}" == "0" ]]; then
    echo
    echo "==> comparing against baselines/"
    for b in "${benches[@]}"; do
        baseline="baselines/BENCH_${b}.json"
        [[ -f "${baseline}" ]] || continue
        build/bench/bench_compare "${baseline}" "${root}/BENCH_${b}.json"
    done
else
    echo "==> skipping baseline comparison (sizing differs from the"
    echo "    pinned baseline config; see DESIGN.md §14)"
fi
