#!/usr/bin/env bash
# Paired runs of one stbench workload: a parent revision against the working
# tree, each built from its own copy of the sources, run back to back.
#
#   scripts/paired_run.sh <parent-rev> <workload> [pairs]
#
# The parent is `git archive <parent-rev>` and the change is every tracked
# and untracked-but-not-ignored file of the working tree, copied into the
# sibling directories $SCRATCH/parent and $SCRATCH/change; each builds
# stbench into its own target directory ($SCRATCH/target-parent,
# $SCRATCH/target-change) with the caller's RUSTFLAGS. SCRATCH defaults to
# .paired at the repository root (git-ignored).
#
# Pair k (1..pairs, default 10) runs both binaries with seed SEED_BASE + k
# (SEED_BASE defaults to 500: pick seeds not used while developing) for
# BENCHMARK.json's run_seconds, untraced, the parent first in odd pairs and
# the change first in even ones. Every run's result
# line goes to $SCRATCH/<workload>.jsonl.
#
# Prints every pair, then for each end-to-end metric of BENCHMARK.json (read
# only): both medians, the parent's quartiles, how many pairs the change won,
# and the verdict — `regressed` when the change's median is worse than the
# parent's by more than the metric's bound, `gain` when over at least 10
# pairs the change won 9 in 10 and the medians are further apart than the
# parent's quartiles, else `same`. Exits non-zero on a regression or a
# failed operation.
set -euo pipefail
cd "$(dirname "$0")/.."
repo="$(pwd)"

if [ $# -lt 2 ] || [ $# -gt 3 ]; then
    echo "usage: $0 <parent-rev> <workload> [pairs]" >&2
    exit 2
fi
rev="$1" workload="$2" pairs="${3:-10}"
sha="$(git rev-parse --verify --quiet "$rev^{commit}")" || {
    echo "paired_run: unknown revision \`$rev\`" >&2
    exit 2
}
scratch="${SCRATCH:-$repo/.paired}"
seed_base="${SEED_BASE:-500}"
seconds="$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')"
mkdir -p "$scratch"
scratch="$(cd "$scratch" && pwd)"
case "$scratch/" in
"$repo"/*)
    # The copy of the working tree must not copy itself.
    git check-ignore -q "$scratch" || {
        echo "paired_run: $scratch is inside the repository and not git-ignored" >&2
        exit 2
    } ;;
esac

# The parent's sources at `sha`. `git archive` stamps every file with the
# commit's time, which may be older than a previous build's outputs: a
# target directory built from another revision is discarded.
rm -rf "$scratch/parent"
mkdir -p "$scratch/parent"
git archive "$sha" | tar -x -C "$scratch/parent"
if [ "$(cat "$scratch/target-parent.rev" 2>/dev/null || true)" != "$sha" ]; then
    rm -rf "$scratch/target-parent"
    echo "$sha" > "$scratch/target-parent.rev"
fi

# The working tree as it stands, modification times kept (so an unchanged
# crate is not rebuilt).
rm -rf "$scratch/change"
mkdir -p "$scratch/change"
git ls-files -z --cached --others --exclude-standard \
    | while IFS= read -r -d '' f; do [ -e "$f" ] && printf '%s\0' "$f"; done \
    | tar --null -T - -cf - | tar -x -C "$scratch/change"

for side in parent change; do
    echo "paired_run: building $side (RUSTFLAGS='${RUSTFLAGS:-}')" >&2
    CARGO_TARGET_DIR="$scratch/target-$side" cargo build --release --offline --quiet \
        --manifest-path "$scratch/$side/benchmark/Cargo.toml"
done

out="$scratch/$workload.jsonl"
: > "$out"
run() { # run <side> <pair> <seed>
    local last
    last="$(cd "$scratch/$1" && "$scratch/target-$1/release/stbench" --workload "$workload" \
        --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)"
    printf '{"side": "%s", "pair": %d, "seed": %d, "result": %s}\n' "$1" "$2" "$3" "$last" >> "$out"
}
for k in $(seq 1 "$pairs"); do
    seed=$((seed_base + k))
    if [ $((k % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        echo "paired_run: pair $k/$pairs, seed $seed, $side" >&2
        run "$side" "$k" "$seed"
    done
done

python3 - "$out" "$workload" "$sha" <<'PY'
import json, statistics, sys

path, workload, sha = sys.argv[1:4]
spec = json.load(open("BENCHMARK.json"))
runs = [json.loads(line) for line in open(path) if line.strip()]
pairs = sorted({r["pair"] for r in runs})
by = {(r["side"], r["pair"]): r for r in runs}
bad = 0
for r in runs:
    res = r["result"]
    if not res.get("correct", False) or res.get("failed", 0):
        bad += 1
        print(f"pair {r['pair']} {r['side']}: correct={res.get('correct')} failed={res.get('failed')}")

print(f"{workload}: parent {sha[:12]} vs working tree, {len(pairs)} pairs")
regressed = False
for m in spec["end_to_end"]:
    name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
    vals = {}
    for side in ("parent", "change"):
        vals[side] = [by[(side, k)]["result"]["metrics"].get(name, {}).get("value") for k in pairs]
    if any(v is None for vs in vals.values() for v in vs):
        continue
    p, c = vals["parent"], vals["change"]
    print(f"  {name}")
    for k, pv, cv in zip(pairs, p, c):
        print(f"    pair {k:>2}  parent {pv:>10.4f}  change {cv:>10.4f}")
    pm, cm = statistics.median(p), statistics.median(c)
    q1, _, q3 = statistics.quantiles(p, n=4) if len(p) > 1 else (pm, pm, pm)
    wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
    worse = ((cm - pm) if lower else (pm - cm)) / pm if pm else 0.0
    if worse > bound:
        verdict = "regressed"
        regressed = True
    elif len(pairs) >= 10 and wins * 10 >= 9 * len(pairs) and abs(cm - pm) > q3 - q1:
        verdict = "gain"
    else:
        verdict = "same"
    print(f"    median parent {pm:.4f} (quartiles {q1:.4f} .. {q3:.4f})  change {cm:.4f}"
          f"  change/parent {cm / pm if pm else float('nan'):.3f} (bound {bound:.0%})"
          f"  wins {wins}/{len(pairs)}"
          f"  -> {verdict}")
print(f"  failed runs: {bad}")
sys.exit(1 if regressed or bad else 0)
PY
