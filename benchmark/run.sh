#!/usr/bin/env bash
# The one command: build stbench, run every workload untraced (end-to-end
# metrics) and traced (per-layer metrics), print every metric by name with
# unit and sample count, and exit non-zero if any operation failed.
#
#   benchmark/run.sh         one result set  -> benchmark/out/run.jsonl
#   benchmark/run.sh --aa    two result sets of the same code, compared
#                            against the bounds in BENCHMARK.json
#
# RUNS=<n> runs seeds 1..n per workload in each set (default 1; 5 for
# --aa). The window length is BENCHMARK.json's run_seconds.
set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml
bin="$CARGO_TARGET_DIR/release/stbench"
seconds="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"
workloads="kernel_wide kernel_narrow serve_multitenant serve_shared_dynamic"
mkdir -p benchmark/out
failed=0

# run_set <name> <runs>: one result set into benchmark/out/<name>.jsonl.
run_set() {
    local set="benchmark/out/$1.jsonl" out last
    : > "$set"
    for seed in $(seq 1 "$2"); do
        for workload in $workloads; do
            for trace in 0 1; do
                out="$("$bin" --workload "$workload" --seed "$seed" \
                    --seconds "$seconds" --trace "$trace")"
                printf '%s\n' "$out"
                last="$(printf '%s\n' "$out" | tail -n 1)"
                printf '{"workload": "%s", "seed": %d, "trace": %d, "result": %s}\n' \
                    "$workload" "$seed" "$trace" "$last" >> "$set"
                case "$last" in
                *'"correct": true'*) ;;
                *) echo "run.sh: $workload seed $seed trace $trace was not correct" >&2
                   failed=1 ;;
                esac
            done
        done
    done
}

if [ "${1:-}" = "--aa" ]; then
    run_set a "${RUNS:-5}"
    run_set b "${RUNS:-5}"
    "$bin" compare benchmark/out/a.jsonl benchmark/out/b.jsonl || failed=1
else
    run_set run "${RUNS:-1}"
fi
exit "$failed"
