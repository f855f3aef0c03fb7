#!/usr/bin/env bash
# CI guard for "one aggregate driver, one planner" (PR 16), "one route
# plan, one leg runner, one retry loop" (PR 18), "bulk updates route by
# join" (PR 19: the batch probe index and its statement threshold) and
# "the WAL logs bytes, not documents" (PR 20: the write paths stage frames
# from borrowed documents; no owned record is built to be logged) and
# "splits and migrations read the shard-key index" (no collection scan
# in a split or a migration, no deep clone of the chunk table) and
# "reports are values" (every BENCH_*.json is a `Json` written by one
# renderer and gated by its typed `check()`, with one best-of-N rule) and
# "one way to split an aggregation" (`agg::Split`: the morsel executor, its
# sweep and the router's own sort/limit window are gone) and "scatter legs
# run on scoped threads" (the worker pool is gone) and "the Fig 4.8 plan is
# derived, not hand-written" (`normalize` reads it off each query's
# Appendix B pipeline; only Q50 keeps a hand plan) and "one key encoding"
# (every index key, chunk bound, statistic and join table is a
# `keybytes::Key`; the `OrdValue` / `CompoundKey` wrappers and their
# separate `hash_value` walk are gone) and "documents are copy-on-write"
# (a `Document` is already the shared handle: cloning one is a refcount
# bump, so nothing wraps it in another `Arc`) and "one accumulator
# algebra" (views fold and retract through `AccState` on compiled inputs;
# their own accumulator family is gone): the
# retired mode enums, setters, constants, validators and entry points must
# not come back in code, CI or skill files
# (prose history in CHANGES.md / EXPERIMENTS.md / DESIGN.md may name
# them), docstore keeps no process-wide static but constant `Value`s, no
# crate's source holds `unsafe`, the reference interpreter
# stays independent of the compiled kernel and out of every product path,
# the route plan stays pure, and the router keeps one copy of the retry
# bookkeeping and of the read-side ownership check.
set -u
cd "$(dirname "$0")/.."
fail=0
complain() { echo "check_no_modes: $1" >&2; fail=1; }

retired='ExecMode|PlannerMode|set_default_exec_mode|default_exec_mode|set_planner_mode|planner_mode\(|set_parallel_morsel_size|parallel_morsel_size|set_parallel_workers|aggregate_with_mode|aggregate_columnar_with|execute_parallel\b|exec_mode|DOCLITE_STRESS_EXEC|ScatterMode|set_scatter_mode|PROBE_MIN_STATEMENTS|BATCH_PROBE|install_batch_probe|validate_report|validate_views_report|validate_reconfig_report|run_parallel|auto_morsel_size|with_shard_window|bench_parallel|DOCLITE_PARALLEL_SMOKE|parallel_for|MAX_POOL_THREADS|docstore::pool|OrdValue|CompoundKey|hash_value|ordvalue|ViewAcc'
grep -rnE "$retired" crates src examples tests benchmark/src .github .claude \
    && complain "a retired identifier is back (see above)"
grep -rnE '^\s*(pub(\([a-z]+\))? +)?static +(mut +)?\w+ *:' crates/docstore/src \
    | grep -vE 'static +\w+ *: *Value *=' \
    && complain "docstore grew a process-wide static: make it a parameter"
grep -rnw unsafe crates/*/src \
    && complain "unsafe code in a crate's source: use a safe primitive (std::thread::scope, not a lifetime transmute)"
[ -e crates/docstore/src/pool.rs ] && complain "docstore/src/pool.rs is back: scatter legs run on std::thread::scope"
[ -e crates/docstore/src/agg/exec.rs ] && complain "agg/exec.rs is back"
[ -e crates/docstore/src/agg/parallel.rs ] && complain "agg/parallel.rs is back: a pipeline splits one way, agg::Split"
[ -e crates/docstore/src/ordvalue.rs ] && complain "docstore/src/ordvalue.rs is back: keys are keybytes::Key, one encoding"
grep -rnE 'Arc<(doclite_bson::)?Document>' crates/*/src \
    && complain "a Document wrapped in an Arc: a Document is copy-on-write, clone it"
sed '/^#\[cfg(test)\]/,$d' crates/sharding/src/route.rs | grep -nE '\.(sort|limit|skip)\(|Stage::(Sort|Limit|Skip)' \
    && complain "route.rs builds a leg window itself: what a leg runs is agg::Split's part"
grep -nE '^\s*(pub )?use .*(kernel::|matcher|CompiledPath|compile)' crates/docstore/src/agg/reference.rs \
    && complain "agg/reference.rs imports a compiled evaluator"
sed '/^#\[cfg(test)\]/,$d' crates/docstore/src/views.rs | grep -nE 'spec_expr|\.eval\(' \
    && complain "views.rs calls the interpreted evaluator: fold through CompiledExpr::eval_ref (the interpreted forms are agg::reference's)"
grep -rnE '\breference::' crates/*/src src examples benchmark/src --include='*.rs' \
    | grep -v '^crates/docstore/src/agg/' \
    && complain "agg::reference is a test oracle: no product or benchmark code may call it"
grep -nE '^\s*(pub )?use .*(Shard\b|ReplicaSet|NetStats|Faults|parking_lot|std::thread)' crates/sharding/src/route.rs \
    && complain "route.rs is the pure plan: it may not hold a shard, count, lock or sleep"
router_product() { sed '/^#\[cfg(test)\]/,$d' crates/sharding/src/router.rs; }
for once in 'max_retries' '\.owns\(' 'thread::(scope|spawn)'; do
    [ "$(router_product | grep -cE "$once")" -le 1 ] \
        || complain "router.rs has more than one '$once' above its tests: use the one retry loop / read-leg runner"
done
grep -nE 'WalRecord::(Insert|Update)' crates/docstore/src/collection.rs crates/docstore/src/database.rs \
    && complain "a write path builds an owned WalRecord to log: stage the frame from the borrowed document (WalBatch)"
sed '/^#\[cfg(test)\]/,$d' crates/docstore/src/wal.rs | grep -nE '\bto_doc\(|\bappend_batch\b' \
    && complain "wal.rs encodes through an owned envelope document again: frames are written in place (WalBatch::frame)"
fn_body() { # file fn-name: the function's lines, up to its closing brace
    awk -v f="fn $2(" 'index($0, f) { on = 1 } on { print } on && /^    }$/ { exit }' "$1"
}
for f in try_split move_chunk; do
    fn_body crates/sharding/src/router.rs "$f" | grep -nE '\.(for_each|all_docs)\(' \
        && complain "Mongos::$f scans the collection again: read the chunk off the shard-key index (Chunk::key_counts / Chunk::documents)"
done
sed '/^#\[cfg(test)\]/,$d' crates/sharding/src/chunk.rs | grep -nE '\.(for_each|all_docs)\(' \
    && complain "chunk.rs scans a collection: a chunk's keys and documents come off the shard-key index"
grep -nE 'fn meta\(.*-> *Option<CollectionMeta>' crates/sharding/src/config.rs \
    && complain "ConfigServer::meta returns an owned CollectionMeta again: hand out the Arc"
grep -rnE '\bfn +fnum\b' crates src examples tests benchmark/src --include='*.rs' \
    && complain "a report formats its own numbers again: build a Json value (Json::rounded) and render it"
grep -rnE '\bfn +best_of' crates src examples tests benchmark/src --include='*.rs' \
    | grep -v '^crates/bench/src/lib.rs:' \
    && complain "a second best-of-N timer: use doclite_bench::best_of / best_of_after"
grep -rn 'run_normalized_parallel' crates src examples tests benchmark/src scripts .github .claude \
    | grep -v '^scripts/check_no_modes.sh:' \
    && complain "run_normalized_parallel is back: run the derived plan's step-i filters on a thread::scope"
grep -nE 'fn run_normalized|embed_documents_from' crates/core/src/queries/q{7,21,46}.rs \
    && complain "a derived query has a hand-written normalized plan again: normalize derives it from the pipeline"
exit $fail
