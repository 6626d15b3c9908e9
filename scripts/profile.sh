#!/usr/bin/env bash
#
# Build a profiling tree and run a command under a sampling profiler,
# then print the hot-spot summary.
#
# With `perf` on the host: build the `profile` preset (-O2 -g
# -fno-omit-frame-pointer) and run under `perf record`; frame pointers
# let --call-graph fp unwind without DWARF cost (DESIGN.md §13).
#
# Without it (e.g. a slim container): build the `gprof` preset (-O2 -g
# -pg), run the command, and print the top 25 rows of the gprof flat
# profile. gprof samples every thread of the process, so a sweep's
# worker thread is covered; DESIGN.md §19 and §20 are attributions
# made this way. It has three blind spots (DESIGN.md §21), which the
# output repeats: coroutine bodies are charged to other symbols,
# tiny hot functions are under-reported, and libc is invisible.
#
# Usage: scripts/profile.sh --bench NAME [args...]
#        scripts/profile.sh command [args...]
#        scripts/profile.sh --workload NAME [cmpmem_bench args...]
#   --bench NAME is shorthand for <tree>/bench/NAME (e.g.
#   `scripts/profile.sh --bench fig3_traffic`)
#   <tree> is build-profile, or build-gprof on the gprof path; a
#   command given as build-profile/... runs from build-gprof/ there.
#   --workload NAME profiles one workload of the host-cost benchmark
#   (benchmark/README.md): it configures benchmark/ with run.sh's
#   Release build type plus the preset's flags into
#   build-bench-profile/ or build-bench-gprof/, and runs
#   `cmpmem_bench --workload NAME --seconds 10` there (e.g.
#   `scripts/profile.sh --workload compute_bound`).

set -euo pipefail

cd "$(dirname "$0")/.."

if command -v perf >/dev/null 2>&1; then
    preset=profile
    flags="-O2 -g -fno-omit-frame-pointer"
else
    preset=gprof
    flags="-O2 -g -pg"
fi

cmd=()
if [ "${1:-}" = "--workload" ]; then
    if [ -z "${2:-}" ]; then
        echo "usage: scripts/profile.sh --workload NAME [args...]" >&2
        exit 2
    fi
    tree="build-bench-${preset}"
    echo "==> configuring + building benchmark/ into ${tree} (${flags})"
    cmake -S benchmark -B "${tree}" -DCMAKE_BUILD_TYPE=Release \
        -DCMAKE_CXX_FLAGS="${flags}" >/dev/null
    cmake --build "${tree}" --target cmpmem_bench -j "$(nproc)"
    mkdir -p "${tree}/out"
    cmd=("${tree}/cmpmem_bench" --workload "$2" --seconds 10
         --out "${tree}/out" --expected benchmark/expected_digests.json)
    shift 2
    cmd+=("$@")
else
    tree="build-${preset}"
    if [ "${1:-}" = "--bench" ]; then
        if [ -z "${2:-}" ]; then
            echo "usage: scripts/profile.sh --bench NAME [args...]" >&2
            exit 2
        fi
        cmd=("${tree}/bench/$2")
        shift 2
    fi
    cmd+=("$@")
    if [ "${#cmd[@]}" -eq 0 ]; then
        echo "usage: scripts/profile.sh --bench NAME | --workload NAME |" \
            "command [args...]" >&2
        exit 2
    fi
    cmd[0]="${cmd[0]/#build-profile\//${tree}/}"

    echo "==> configuring + building ${preset} preset"
    cmake --preset "${preset}" >/dev/null
    cmake --build --preset "${preset}" -j "$(nproc)"
fi

if [ "${preset}" = gprof ]; then
    echo "==> perf(1) not found; profiling with gprof: ${cmd[*]}" >&2
    rm -f "${tree}"/gmon.*
    # One gmon.<pid> per process that exits normally; gprof sums them.
    GMON_OUT_PREFIX="${tree}/gmon" "${cmd[@]}"
    echo
    echo "==> gprof flat profile, top 25 (full: gprof -b ${cmd[0]} ${tree}/gmon.*)"
    # awk reads to the end: exiting early would fail the pipeline
    # with SIGPIPE under pipefail.
    gprof -b -p "${cmd[0]}" "${tree}"/gmon.* |
        awk '/^ +[0-9.]+ +[0-9.]+ +[0-9.]+/ { ++n } n <= 25'
    cat <<'EOF'

==> gprof caveats (DESIGN.md §21):
    - symbols with a non-numeric '.' suffix are dropped, so coroutine
      bodies ([clone .actor], i.e. every kernel) are charged to another
      symbol, often a workload's destructor or setup(), whose call
      counts then make no sense;
    - -pg's mcount call per function under-reports tiny hot functions
      (on str_dma, out-of-line ICacheModel::accrue read 6% under gprof
      and 15% sampled);
    - time in libc (memmove, malloc, mcount itself) is not counted.
EOF
    exit 0
fi

out="${tree}/perf.data"
echo "==> perf record: ${cmd[*]}"
perf record -g --call-graph fp -o "${out}" -- "${cmd[@]}"
echo
echo "==> hottest symbols (full report: perf report -i ${out})"
perf report --stdio -i "${out}" | head -40
