#!/usr/bin/env bash
# Paired benchmark comparison: the working tree against a git revision.
#
#   scripts/pair.sh <rev> [--pairs N] [--workloads "W1 W2 ..."] [--seed N]
#                         [--out FILE]
#
# Exports <rev> with `git archive` and snapshots the working tree (tracked
# and untracked, not ignored, files that exist), so neither an edit made
# meanwhile nor a worktree entry in .git is involved. Builds each side's
# benchmark package into its own target directory, then runs
# `benchmark/run.sh --workload W --seed S --trace 0` (the benchmark's own
# run length) from each tree, pair i on seed N+i for both sides,
# alternating which side runs first. The host's steal time (`/proc/stat`, jiffies) is read around
# every run: a quiet 2-core run shows < 50, and at 800+ two clients share
# one core, which says nothing about a change.
#
# Prints, per (workload, end-to-end metric of BENCHMARK.json): each side's
# median [q1, q3], the ratio of medians (change / parent), the pairs the
# change won, the parent's IQR, and one verdict against the metric's bound:
#   worse       the change's median is worse than the parent's by more
#               than the bound
#   unresolved  either side's IQR exceeds the bound: the runs spread too
#               widely to tell (unless every run of the change reads
#               better than every run of the parent)
#   better      the change won >= 90 % of the pairs and its median beats
#               the parent's by more than the parent's IQR
#   within      otherwise
# then one machine-readable `verdict W METRIC V` line each. The table also
# goes to FILE with --out. Exits 1 if a run failed, answered wrongly or
# the two sides' fingerprints differ; a verdict never changes the exit
# status (two pairs, as in CI, decide nothing).
#
# Scratch (exported tree, snapshot, target dirs, run logs) lives in
# $PAIR_DIR, by default target/pair; the target dirs are reused by the
# next invocation. Needs git, cargo, python3.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

usage() { sed -n '2,4p' "$0" >&2; exit 2; }
[ $# -ge 1 ] || usage
rev=$1; shift
pairs=10 seed=1 out=""
workloads="norm_standalone norm_sharded denorm_standalone oltp_durable"
while [ $# -gt 0 ]; do
  case "$1" in
    --pairs) pairs=$2; shift 2 ;;
    --workloads) workloads=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --out) out=$2; shift 2 ;;
    *) usage ;;
  esac
done
git rev-parse --verify -q "$rev^{commit}" > /dev/null || { echo "pair.sh: no such revision $rev" >&2; exit 2; }

dir=${PAIR_DIR:-target/pair}
mkdir -p "$dir"
dir=$(cd "$dir" && pwd)
rm -rf "$dir/parent" "$dir/change" "$dir/runs"
mkdir -p "$dir/parent" "$dir/change" "$dir/runs"
git archive "$rev" | tar -x -C "$dir/parent"
# A tracked file deleted from the working tree is still listed; skip it.
git ls-files -co --exclude-standard -z |
  while IFS= read -r -d '' f; do
    if [ -e "$f" ] || [ -L "$f" ]; then printf '%s\0' "$f"; fi
  done |
  tar --null -T - -cf - | tar -x -C "$dir/change"

for side in parent change; do
  echo "== building $side" >&2
  CARGO_TARGET_DIR="$dir/target-$side" \
    cargo build --release --offline --manifest-path "$dir/$side/benchmark/Cargo.toml" >&2
done

steal() { awk '/^cpu /{print $9}' /proc/stat; }

run() { # side workload pair seed -> one manifest line
  local log="$dir/runs/$2.$3.$1.log" before after status=0
  before=$(steal)
  CARGO_TARGET_DIR="$dir/target-$1" bash "$dir/$1/benchmark/run.sh" \
    --workload "$2" --seed "$4" --trace 0 > "$log" 2> "$log.err" || status=$?
  after=$(steal)
  printf '%s\t%s\t%s\t%s\t%s\t%s\n' "$2" "$3" "$1" "$((after - before))" "$status" "$log" >> "$dir/runs/manifest.tsv"
  echo "   $2 pair $3 $1: exit $status, steal $((after - before))" >&2
}

for w in $workloads; do
  for i in $(seq 0 $((pairs - 1))); do
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
      run "$side" "$w" "$i" "$((seed + i))"
    done
  done
done

python3 - "$dir/runs/manifest.tsv" BENCHMARK.json "$rev" "$pairs" "$out" <<'EOF'
import json, statistics, sys
from collections import defaultdict

manifest, bench_file, rev, pairs, out = sys.argv[1:]
bench = json.load(open(bench_file))
metrics = bench["end_to_end"]
runs = defaultdict(dict)  # (workload, pair) -> side -> run
problems = []
for line in open(manifest):
    w, pair, side, steal, status, log = line.rstrip("\n").split("\t")
    lines = open(log).read().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    fps = {l.split()[1]: l.split()[2] for l in lines if len(l.split()) >= 3 and l.split()[1].startswith("fingerprint.")}
    if status != "0" or result is None or not result.get("correct") or result.get("failed"):
        problems.append(f"{w} pair {pair} {side}: exit {status}, see {log}")
    runs[(w, int(pair))][side] = {"steal": int(steal), "result": result, "fps": fps}

def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3

def fmt(x):
    return f"{x:.4g}" if abs(x) < 1e5 else f"{x:.0f}"

report = [f"Paired runs: change (working tree) vs parent `{rev}`, {pairs} pairs, "
          "alternating order, same seed per pair.", ""]
verdicts = []
for w in dict.fromkeys(k[0] for k in runs):
    complete = [runs[(w, i)] for i in range(int(pairs)) if len(runs.get((w, i), {})) == 2
                and all(r["result"] for r in runs[(w, i)].values())]
    steals = [r["steal"] for p in complete for r in p.values()]
    fp_diff = sorted({k for p in complete for k in p["parent"]["fps"]
                      if p["parent"]["fps"][k] != p["change"]["fps"].get(k)})
    if fp_diff:
        problems.append(f"{w}: fingerprints differ between sides: {', '.join(fp_diff)}")
    report += [f"### {w}", "",
               f"{len(complete)} complete pairs; steal per run (jiffies) max {max(steals, default=0)}, "
               f"{sum(s >= 800 for s in steals)} runs at 800+; fingerprints "
               f"{'identical' if not fp_diff else 'DIFFER'}.", "",
               "| metric | parent median [q1, q3] | change median [q1, q3] | ratio | pairs won | parent IQR | verdict |",
               "|---|--:|--:|--:|--:|--:|---|"]
    for m in metrics:
        name, bound, lower = m["name"], m["bound"], m["better"] == "lower"
        pv = [p["parent"]["result"]["metrics"][name]["value"] for p in complete if name in p["parent"]["result"]["metrics"]]
        cv = [p["change"]["result"]["metrics"][name]["value"] for p in complete if name in p["change"]["result"]["metrics"]]
        if not pv or len(pv) != len(cv):
            continue
        (pq1, pm, pq3), (cq1, cm, cq3) = quartiles(pv), quartiles(cv)
        won = sum((c < p) if lower else (c > p) for p, c in zip(pv, cv))
        ratio = cm / pm if pm else float("nan")
        iqr = pq3 - pq1
        worse = cm > pm * (1 + bound) if lower else cm < pm * (1 - bound)
        spread = any(m_ and (q3 - q1) / abs(m_) > bound for q1, m_, q3 in ((pq1, pm, pq3), (cq1, cm, cq3)))
        apart = max(cv) < min(pv) if lower else min(cv) > max(pv)
        gained = (pm - cm if lower else cm - pm) > iqr
        if worse:
            verdict = "worse"
        elif spread and not apart:
            verdict = "unresolved"
        elif won >= 0.9 * len(pv) and gained:
            verdict = "better"
        else:
            verdict = "within"
        verdicts.append(f"verdict {w} {name} {verdict}")
        report.append(f"| `{name}` | {fmt(pm)} [{fmt(pq1)}, {fmt(pq3)}] | {fmt(cm)} [{fmt(cq1)}, {fmt(cq3)}] "
                      f"| {ratio:.3f} | {won}/{len(pv)} | {fmt(iqr)} | {verdict} |")
    report.append("")
if problems:
    report += ["Problems:", ""] + [f"- {p}" for p in problems] + [""]
text = "\n".join(report)
print(text)
print("\n".join(verdicts))
if out:
    with open(out, "w") as f:
        f.write(text)
sys.exit(1 if problems else 0)
EOF
