#!/usr/bin/env bash
#
# Verification driver.
#
# Default (quick) mode: build the Release configuration and run every
# test except those labelled "long" — a sub-minute signal suitable for
# the inner edit loop. It includes the gate_* entries, which rerun
# each baselined bench and require its artifact to be bit-identical
# to baselines/ (bench_compare; DESIGN.md §14).
#
# --full: the pre-ship sweep. Runs the complete suite (including the
# long label) in the plain Release configuration, then re-runs the
# sweep and supervisor suites with CMPMEM_ISOLATE=1 (every job in a
# forked sandbox, plus the kill-then-resume gate; DESIGN.md §16), then
# runs the host-cost benchmark once for 1 s per workload
# (benchmark/run.sh exits non-zero on any job whose stats digest
# differs from benchmark/expected_digests.json) and its replica
# fidelity test, then builds and runs everything again under
# AddressSanitizer + UBSan (CMPMEM_SANITIZE=ON) and re-runs the sweep
# and supervisor suites there with CMPMEM_ISOLATE=1, finishes the
# sanitized leg with a widened fault-injection stress pass
# (CMPMEM_FAULT_SCALE=2) — the recovery paths (ECC re-reads, NACK/DMA
# retries, watchdog kills) are exactly where latent lifetime bugs
# hide — and runs the sweep-executor suite (the inter-job worker
# pool, the only code that runs host threads) under ThreadSanitizer
# (CMPMEM_SANITIZE=thread). All passes must be green before a change
# ships.
#
# --update-baselines: regenerate baselines/BENCH_*.json from the
# current tree (Release, CMPMEM_SCALE=0) and stop, one per gate_<bench>
# entry in bench/CMakeLists.txt. Run this deliberately when a reviewed
# change moves simulated stats, and commit the result.
#
# Every configure keeps the generator of an existing tree (so it works
# on a build/ made by a plain `cmake -B build -S .`); a new tree gets
# CMake's default.
#
# Usage: scripts/check.sh [--full | --update-baselines] [jobs]

set -euo pipefail

cd "$(dirname "$0")/.."

full=0
update=0
jobs="$(nproc)"
for arg in "$@"; do
    case "${arg}" in
        --full) full=1 ;;
        --update-baselines) update=1 ;;
        [0-9]*) jobs="${arg}" ;;
        *)
            echo "usage: scripts/check.sh [--full | --update-baselines] [jobs]" >&2
            exit 2
            ;;
    esac
done

run_config() {
    local dir="$1"
    local label_args="$2"
    shift 2
    echo "==> configuring ${dir} ($*)"
    cmake -S . -B "${dir}" "$@" >/dev/null
    echo "==> building ${dir}"
    cmake --build "${dir}" -j "${jobs}"
    echo "==> testing ${dir}"
    # shellcheck disable=SC2086  # label_args is intentionally a list
    ctest --test-dir "${dir}" --output-on-failure -j "${jobs}" \
        ${label_args}
}

if [[ "${update}" -eq 1 ]]; then
    echo "==> regenerating baselines/ (Release, CMPMEM_SCALE=0)"
    cmake -S . -B build -DCMAKE_BUILD_TYPE=Release >/dev/null
    cmake --build build -j "${jobs}"
    # The gated benches, as bench/CMakeLists.txt registers them.
    gate_benches="$(ctest --test-dir build -N |
        sed -n '/: gate_resume_/d; s/^ *Test *#[0-9]*: gate_//p')"
    for bench in ${gate_benches}; do
        CMPMEM_SCALE=0 CMPMEM_ARTIFACT_DIR=baselines \
            "build/bench/${bench}" >/dev/null
        # The write-ahead journal (DESIGN.md §16) is run-local
        # scratch, not an artifact: never let it ride into baselines/.
        rm -f "baselines/BENCH_${bench}.journal.jsonl"
        echo "    baselines/BENCH_${bench}.json"
    done
    if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
        git add -A baselines
        echo "==> staged baseline changes:"
        git --no-pager diff --cached --stat -- baselines
        echo "==> review the per-metric diff and commit deliberately"
    fi
    exit 0
fi

if [[ "${full}" -eq 1 ]]; then
    run_config build "" -DCMAKE_BUILD_TYPE=Release
    echo "==> isolation pass (Release, CMPMEM_ISOLATE=1)"
    # Re-run the sweep-engine and supervisor suites with every job in
    # a forked sandbox: the §16 contract says sandboxed execution is
    # bit-identical and the whole determinism story must hold through
    # the process boundary. This includes gate_resume_table3, the
    # kill-then-resume bench gate.
    CMPMEM_ISOLATE=1 ctest --test-dir build --output-on-failure \
        -j "${jobs}" -R 'test_sweep|test_supervisor|gate_resume'
    echo "==> benchmark digest pass (benchmark/, 1 s per workload)"
    # The 19 benchmark jobs' expected digests and the replica fidelity
    # test are what a host-time change leans on; no other pass builds
    # benchmark/.
    bash benchmark/run.sh --seconds 1
    cmake --build build-bench --target replica_fidelity_test -j "${jobs}"
    ctest --test-dir build-bench --output-on-failure -L benchmark
    run_config build-sanitize "" -DCMAKE_BUILD_TYPE=Release \
        -DCMPMEM_SANITIZE=ON
    echo "==> isolation pass (sanitized, CMPMEM_ISOLATE=1)"
    # Sandboxed sweeps under ASan/UBSan: a child forked while another
    # thread held the sanitizer's allocator lock would hang on it, so
    # the supervisor forks only from the calling thread (DESIGN.md §16).
    CMPMEM_ISOLATE=1 ctest --test-dir build-sanitize --output-on-failure \
        -j "${jobs}" -R 'test_sweep|test_supervisor'
    echo "==> fault-injection stress pass (sanitized, scale 2)"
    CMPMEM_FAULT_SCALE=2 ctest --test-dir build-sanitize \
        --output-on-failure -j "${jobs}" -R test_faults_stress
    echo "==> thread-sanitizer pass (sweep executor)"
    # TSan and ASan cannot share a build; a third tree covers the one
    # suite that actually runs host threads — the inter-job sweep
    # pool (DESIGN.md §10, §16). A single simulation is one thread.
    cmake -S . -B build-tsan -DCMAKE_BUILD_TYPE=Release \
        -DCMPMEM_SANITIZE=thread >/dev/null
    cmake --build build-tsan -j "${jobs}"
    ctest --test-dir build-tsan --output-on-failure -j "${jobs}" \
        -R 'test_sweep'
    echo "==> all configurations green"
else
    run_config build "-LE long" -DCMAKE_BUILD_TYPE=Release
    echo "==> quick suite green (use --full before shipping)"
fi
