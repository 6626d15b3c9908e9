#!/usr/bin/env bash
#
# Kill-then-resume gate (DESIGN.md §16): prove that a sweep SIGKILLed
# mid-run resumes from its write-ahead journal to an artifact
# bit-identical to an uninterrupted run.
#
#   1. Run the bench uninterrupted (reference artifact).
#   2. Start it again isolated (--isolate) with one sandbox at a time
#      (CMPMEM_JOBS=1), poll its journal every 10 ms and SIGKILL the
#      process as soon as the journal holds its first record.
#   3. Require the journal to hold at least one and fewer than all of
#      the sweep's records, so the resume below really merges some
#      jobs and runs the rest.
#   4. Re-run with --isolate --resume: journaled jobs merge, the
#      rest execute.
#   5. bench_compare must find the resumed artifact bit-identical
#      (stats, digests, energy, config) to the reference.
#
# Usage: scripts/resume_gate.sh <bench-exe> <compare-exe> <workdir>

set -euo pipefail

if [[ $# -ne 3 ]]; then
    echo "usage: $0 <bench-exe> <compare-exe> <workdir>" >&2
    exit 2
fi

bench="$1"
compare="$2"
work="$3"
name="$(basename "${bench}")"

# Pinned deterministic sizing, same as the baseline gates.
export CMPMEM_SCALE=0

rm -rf "${work}"
mkdir -p "${work}/ref" "${work}/int"

echo "==> ${name}: uninterrupted reference run"
CMPMEM_ARTIFACT_DIR="${work}/ref" "${bench}" >/dev/null

echo "==> ${name}: isolated run, killed after its first journal record"
journal="${work}/int/BENCH_${name}.journal.jsonl"
CMPMEM_JOBS=1 CMPMEM_ARTIFACT_DIR="${work}/int" "${bench}" --isolate \
    >/dev/null 2>&1 &
victim=$!
# The header is the journal's first line; a record is complete once
# its own newline is written.
while kill -0 "${victim}" 2>/dev/null; do
    if [[ -f "${journal}" ]] && (($(wc -l < "${journal}") >= 2)); then
        break
    fi
    sleep 0.01
done
kill -KILL "${victim}" 2>/dev/null || true
wait "${victim}" 2>/dev/null || true

jobs_total=$(grep -c '"stats_digest"' "${work}/ref/BENCH_${name}.json")
lines=0
if [[ -f "${journal}" ]]; then
    lines=$(wc -l < "${journal}")
fi
records=$((lines > 0 ? lines - 1 : 0))
echo "    journal survived the kill with ${records} of ${jobs_total} job(s)"
if ((records < 1 || records >= jobs_total)); then
    echo "FAIL: the kill must land after the first and before the last" \
        "of ${jobs_total} journal records; the journal holds ${records}" >&2
    exit 1
fi

echo "==> ${name}: resuming"
CMPMEM_ARTIFACT_DIR="${work}/int" "${bench}" --isolate --resume \
    >/dev/null

echo "==> ${name}: comparing resumed artifact against the reference"
"${compare}" "${work}/ref/BENCH_${name}.json" \
    "${work}/int/BENCH_${name}.json"

echo "==> ${name}: kill-then-resume bit-identical"
