#!/usr/bin/env bash
# Append this commit's stbench reading to the committed trajectory,
# BENCH_history.jsonl, and print the delta table against the previous line.
#
#   scripts/bench_history.sh            run benchmark/run.sh, then append
#   scripts/bench_history.sh --no-run   append from the benchmark/out/run.jsonl
#                                       a run.sh already left behind
#   scripts/bench_history.sh --table N  print, per workload, the end-to-end
#                                       metrics of the last N lines that read
#                                       it, with their shas; appends nothing
#
# One line per call: {"sha", "date", "host", "metrics"}, where metrics maps
# each workload to the medians (over the seeds run; RUNS=<n> is passed on to
# run.sh) of the five end-to-end metrics from its untraced runs and of
# ir.ns_per_fma.* / engine.overhead_ms.* from its traced runs. HOST_NOTE=<text>
# replaces the default host note (hostname + core count). Reads
# benchmark/out/run.jsonl only; edits nothing under benchmark/ (the
# benchmark/Cargo.lock run.sh's cargo call rewrites is restored).
set -euo pipefail
cd "$(dirname "$0")/.."

if [ "${1:-}" = "--table" ]; then
    python3 - "${2:?--table needs a line count}" <<'PY'
import json, sys

last = int(sys.argv[1])
END_TO_END = ["setup_s", "native_ratio", "cold_ratio", "capacity_ratio", "peak_rss_mb"]
rows = {}  # workload -> [(sha, date, metrics)], oldest first
with open("BENCH_history.jsonl") as history:
    for line in filter(str.strip, history):
        entry = json.loads(line)
        for w, ms in entry["metrics"].items():
            rows.setdefault(w, []).append((entry["sha"], entry["date"], ms))
for w, entries in rows.items():
    print(f"{w}:")
    print(f"  {'sha':<14}{'date':<12}" + "".join(f"{m:>16}" for m in END_TO_END))
    for sha, date, ms in entries[-last:]:
        cells = "".join(f"{ms[m]:>16.4g}" if m in ms else f"{'-':>16}" for m in END_TO_END)
        print(f"  {sha:<14}{date:<12}{cells}")
PY
    exit 0
fi

if [ "${1:-}" != "--no-run" ]; then
    # An unlocked cargo call on benchmark/Cargo.toml rewrites a lock whose
    # recorded dependency edges have gone stale: keep the committed one and
    # put it back however run.sh ends.
    lock_copy="$(mktemp)"
    cp benchmark/Cargo.lock "$lock_copy"
    trap 'cp "$lock_copy" benchmark/Cargo.lock; rm -f "$lock_copy"' EXIT
    benchmark/run.sh
    cp "$lock_copy" benchmark/Cargo.lock
fi

sha="$(git rev-parse --short HEAD)"
# The lock run.sh may have rewritten is no change to the tree measured.
if ! git diff --quiet HEAD -- . ':!BENCH_history.jsonl' ':!benchmark/Cargo.lock'; then
    sha="$sha-dirty"
fi
host="${HOST_NOTE:-$(hostname) ($(nproc) cores)}"

python3 - "$sha" "$(date -u +%Y-%m-%d)" "$host" <<'PY'
import json, statistics, sys

sha, date, host = sys.argv[1:4]
END_TO_END = ["setup_s", "native_ratio", "cold_ratio", "capacity_ratio", "peak_rss_mb"]
LAYER_PREFIXES = ("ir.ns_per_fma.", "engine.overhead_ms.")
HISTORY = "BENCH_history.jsonl"

samples = {}  # workload -> metric -> [values over seeds]
with open("benchmark/out/run.jsonl") as runs:
    for line in runs:
        run = json.loads(line)
        for name, m in run["result"]["metrics"].items():
            wanted = name in END_TO_END if run["trace"] == 0 else name.startswith(LAYER_PREFIXES)
            if wanted:
                samples.setdefault(run["workload"], {}).setdefault(name, []).append(m["value"])
if not samples:
    sys.exit("bench_history: benchmark/out/run.jsonl holds no runs")
metrics = {
    w: {name: round(statistics.median(vs), 4) for name, vs in sorted(ms.items())}
    for w, ms in samples.items()
}

try:
    with open(HISTORY) as history:
        previous = [json.loads(line) for line in history if line.strip()][-1]
except (FileNotFoundError, IndexError):
    previous = None
with open(HISTORY, "a") as history:
    history.write(json.dumps({"sha": sha, "date": date, "host": host, "metrics": metrics}) + "\n")

print(f"appended {sha} ({date}, {host}) to {HISTORY}")
if previous is None:
    sys.exit(0)
print(f"delta against {previous['sha']} ({previous['date']}, {previous['host']}):")
print(f"  {'workload':<22}{'metric':<36}{'previous':>10}{'now':>10}{'change':>9}")
for w, ms in metrics.items():
    for name, now in ms.items():
        # Layer metrics of an op the workload never ran read 0 on both sides.
        if name not in END_TO_END and now == 0:
            continue
        was = previous["metrics"].get(w, {}).get(name)
        change = f"{(now / was - 1) * 100:+.1f}%" if was else "new"
        was = "-" if was is None else f"{was:.4g}"
        print(f"  {w:<22}{name:<36}{was:>10}{now:>10.4g}{change:>9}")
PY
