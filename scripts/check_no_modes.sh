#!/usr/bin/env bash
# CI guard for "one aggregate driver, one planner" (PR 16), "one route
# plan, one leg runner, one retry loop" (PR 18), "bulk updates route by
# join" (PR 19: the batch probe index and its statement threshold) and
# "the WAL logs bytes, not documents" (PR 20: the write paths stage frames
# from borrowed documents; no owned record is built to be logged): the
# retired mode enums, setters, constants and entry points must not come
# back in code, CI or skill files
# (prose history in CHANGES.md / EXPERIMENTS.md / DESIGN.md may name
# them), docstore keeps no process-wide atomic, the reference interpreter
# stays independent of the compiled kernel and out of every product path,
# the route plan stays pure, and the router keeps one copy of the retry
# bookkeeping and of the read-side ownership check.
set -u
cd "$(dirname "$0")/.."
fail=0
complain() { echo "check_no_modes: $1" >&2; fail=1; }

retired='ExecMode|PlannerMode|set_default_exec_mode|default_exec_mode|set_planner_mode|planner_mode\(|set_parallel_morsel_size|parallel_morsel_size|set_parallel_workers|aggregate_with_mode|aggregate_columnar_with|execute_parallel\b|exec_mode|DOCLITE_STRESS_EXEC|ScatterMode|set_scatter_mode|PROBE_MIN_STATEMENTS|BATCH_PROBE|install_batch_probe'
grep -rnE "$retired" crates src examples tests benchmark/src .github .claude \
    && complain "a retired identifier is back (see above)"
grep -rnE 'static +[A-Z_]+ *: *[A-Za-z:]*Atomic' crates/docstore/src \
    && complain "docstore grew a process-wide atomic: make it a parameter"
[ -e crates/docstore/src/agg/exec.rs ] && complain "agg/exec.rs is back"
grep -nE '^\s*(pub )?use .*(kernel::|matcher|CompiledPath|compile)' crates/docstore/src/agg/reference.rs \
    && complain "agg/reference.rs imports a compiled evaluator"
grep -rnE '\breference::' crates/*/src src examples benchmark/src --include='*.rs' \
    | grep -v '^crates/docstore/src/agg/' \
    && complain "agg::reference is a test oracle: no product or benchmark code may call it"
grep -nE '^\s*(pub )?use .*(Shard\b|ReplicaSet|NetStats|Faults|parking_lot|std::thread)' crates/sharding/src/route.rs \
    && complain "route.rs is the pure plan: it may not hold a shard, count, lock or sleep"
router_product() { sed '/^#\[cfg(test)\]/,$d' crates/sharding/src/router.rs; }
for once in 'max_retries' '\.owns\('; do
    [ "$(router_product | grep -cE "$once")" -le 1 ] \
        || complain "router.rs has more than one '$once' above its tests: use the one retry loop / read-leg runner"
done
grep -nE 'WalRecord::(Insert|Update)' crates/docstore/src/collection.rs crates/docstore/src/database.rs \
    && complain "a write path builds an owned WalRecord to log: stage the frame from the borrowed document (WalBatch)"
sed '/^#\[cfg(test)\]/,$d' crates/docstore/src/wal.rs | grep -nE '\bto_doc\(|\bappend_batch\b' \
    && complain "wal.rs encodes through an owned envelope document again: frames are written in place (WalBatch::frame)"
exit $fail
