#!/usr/bin/env bash
# Intentionally refresh the committed perf-gate baseline.
#
# Re-runs exactly what the CI perf-gate job runs — the perf suite
# (executor + vectorization benches, the batched-serving throughput
# sweep for SpMM and SDDMM, the fused-attention serving sweep of the cross-op fused kernel vs the
# three-launch pipeline, the serving_slo deadline-hit-rate sweep of
# the SLO machinery vs the FIFO baseline, and the dynamic_graphs
# incremental-vs-rebuild update-stream sweep) in smoke mode
# with every assertion armed — and promotes the freshly written
# BENCH_results.json to BENCH_baseline.json. Commit the updated baseline
# together with the change that legitimately moved the numbers.
set -euo pipefail
cd "$(dirname "$0")/.."

# Refuse to promote anything when the suite fails: a baseline written by
# a run whose bars did not pass would make the CI gate vacuous. (`set -e`
# alone is not enough of a guard — a failed run can still leave a partial
# BENCH_results.json behind, and an explicit check keeps the refusal
# visible rather than an opaque cargo exit.)
if ! SPARSETIR_SMOKE=1 SPARSETIR_BENCH_ASSERT=1 \
    cargo run --release -q -p sparsetir-bench --bin perf_suite >/dev/null; then
    echo "error: perf_suite failed; BENCH_baseline.json left untouched" >&2
    exit 1
fi

cp BENCH_results.json BENCH_baseline.json

# Stamp the actual HEAD into the baseline. The results file carries the
# sha that `perf_suite` saw at run time (or `GITHUB_SHA`), which goes
# stale the moment the refreshed baseline is committed alongside the
# change that moved the numbers — HEAD at promotion time is the closest
# honest provenance.
head_sha="$(git rev-parse HEAD)"
perl -0pi -e 's/("git_sha": ")[^"]*(")/${1}'"$head_sha"'${2}/' BENCH_baseline.json

echo "BENCH_baseline.json refreshed (git_sha=$head_sha):"
grep '"name"' BENCH_baseline.json | sed 's/^ */  /'
