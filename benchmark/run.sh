#!/usr/bin/env bash
# The repo's benchmark, one command. Builds the benchmark package, then
#
#   run.sh --workload W --seed N --seconds S --trace 0|1
#       one run of one workload: `workload metric value unit` lines, then
#       one JSON result object as the last line (the BENCHMARK.json contract);
#   run.sh [--seed N] [--seconds S] [--smoke]
#       every workload, each in its own process, untraced (end-to-end
#       metrics) then traced (per-layer metrics); checks answers and names;
#   run.sh --repeat K [--seed N] [--seconds S]
#       K untraced runs of every workload on seeds N..N+K-1, then median,
#       quartiles and spread per (workload, metric) against the bounds;
#       the recording goes to benchmark/out/repeat.json (BASELINE.json is one).
#
# Exits non-zero on a wrong answer, a failed operation, a metric name that
# differs from BENCHMARK.json, or a spread beyond its bound.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."

workload="" seed=1 seconds="" trace=0 repeat=0 smoke=""
while [ $# -gt 0 ]; do
  case "$1" in
    --workload) workload=$2; shift 2 ;;
    --seed) seed=$2; shift 2 ;;
    --seconds) seconds=$2; shift 2 ;;
    --trace) trace=$2; shift 2 ;;
    --repeat) repeat=$2; shift 2 ;;
    --smoke) smoke=--smoke; shift ;;
    *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
  esac
done
if [ -z "$seconds" ]; then
  if [ -n "$smoke" ]; then seconds=1; else seconds=15; fi
fi

# Cargo's own output goes to stderr: stdout's last line is the result.
cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/doclite-benchmark"
out=benchmark/out

run_one() { # workload seed trace
  "$bin" --workload "$1" --seed "$2" --seconds "$seconds" --trace "$3" --out "$out" $smoke
}

if [ -n "$workload" ]; then
  run_one "$workload" "$seed" "$trace"
  exit
fi

workloads="norm_standalone norm_sharded denorm_standalone oltp_durable"
mkdir -p "$out"
logs=()
status=0

if [ "$repeat" -gt 0 ]; then
  for i in $(seq 0 $((repeat - 1))); do
    for w in $workloads; do
      log="$out/repeat-$w-$((seed + i)).log"
      echo "== $w seed $((seed + i))" >&2
      run_one "$w" $((seed + i)) 0 > "$log" || status=1
      logs+=("$log")
    done
  done
  "$bin" check-suite "${logs[@]}" || status=1
  "$bin" summarize --json "$out/repeat.json" BENCHMARK.json "${logs[@]}" || status=1
  exit $status
fi

for w in $workloads; do
  for t in 0 1; do
    log="$out/$w.trace$t.log"
    run_one "$w" "$seed" "$t" > "$log" || status=1
    # Everything but the result object, which the checks below read.
    grep -v '^{' "$log"
    logs+=("$log")
  done
done
"$bin" check-suite "${logs[@]}" || status=1
"$bin" check-names BENCHMARK.json "${logs[@]}" || status=1
exit $status
