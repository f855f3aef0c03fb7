//! Property tests: the cost-based planner chooses *physical plans*
//! only — results and error strings must be identical to the forced
//! rule-based planner across every `ExecMode` — plus regressions
//! pinning the decisions the cost model exists to make (a
//! low-selectivity predicate on an indexed field must drop the index
//! and take the full-scan path).
//!
//! The planner mode is a process-wide knob, so every test here
//! serializes on one mutex and restores the default (`Cost`) before
//! releasing it.

use doclite_bson::{doc, json::to_json, Document, Value};
use doclite_docstore::{
    set_planner_mode, Accumulator, Database, ExecMode, Expr, Filter, GroupId, IndexDef, Pipeline,
    PlannerMode,
};
use proptest::prelude::*;

static MODE: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// Serializes planner-mode flips across the tests in this binary (a
/// poisoned lock just means an earlier case failed — the guard is
/// still the right thing to hold).
fn mode_lock() -> std::sync::MutexGuard<'static, ()> {
    MODE.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Documents over a small colliding domain; `k` is the indexed field
/// the planner decides about, `grp`/`v` feed `$group`.
fn arb_doc() -> BoxedStrategy<Document> {
    (0..40i64, 0..5i64, 0..50i64)
        .prop_map(|(k, grp, v)| doc! {"k" => k, "grp" => grp, "v" => v})
        .boxed()
}

/// Filters over the indexed field at wildly different selectivities,
/// plus shapes the planner can only partially estimate (untracked
/// fields, disjunction, conjunction).
fn arb_filter() -> BoxedStrategy<Filter> {
    let leaf = prop_oneof![
        (0..40i64).prop_map(|k| Filter::eq("k", k)),
        (0..41i64).prop_map(|k| Filter::lt("k", k)),
        (0..41i64).prop_map(|k| Filter::gte("k", k)),
        prop::collection::vec(0..40i64, 0..6).prop_map(|ks| Filter::is_in("k", ks)),
        (0..5i64).prop_map(|g| Filter::eq("grp", g)),
        Just(Filter::True),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::and),
            prop::collection::vec(inner, 1..3).prop_map(Filter::or),
        ]
    })
    .boxed()
}

fn multiset(docs: &[Document]) -> Vec<String> {
    let mut v: Vec<String> = docs.iter().map(to_json).collect();
    v.sort();
    v
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Whatever access path the cost model picks, the residual filter
    /// is always the full filter — so flipping the planner can never
    /// change what a pipeline returns, in any execution mode.
    #[test]
    fn cost_and_rule_plans_agree_across_exec_modes(
        docs in prop::collection::vec(arb_doc(), 200..420),
        filter in arb_filter(),
        group in any::<bool>(),
    ) {
        let _g = mode_lock();
        let db = Database::new("t");
        let coll = db.collection("c");
        coll.insert_many(docs).map_err(|(_, e)| e).unwrap();
        coll.create_index(IndexDef::single("k")).unwrap();
        coll.enable_columnar(["k", "grp", "v"]);
        let p = if group {
            Pipeline::new().match_stage(filter).group(
                GroupId::Expr(Expr::field("grp")),
                [("n", Accumulator::count()), ("s", Accumulator::sum_field("v"))],
            )
        } else {
            Pipeline::new().match_stage(filter)
        };
        for mode in [ExecMode::Streaming, ExecMode::Legacy, ExecMode::Parallel, ExecMode::Columnar]
        {
            set_planner_mode(PlannerMode::Rule);
            let rule = coll.aggregate_with_mode(&p, None, mode);
            set_planner_mode(PlannerMode::Cost);
            let cost = coll.aggregate_with_mode(&p, None, mode);
            match (rule, cost) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    multiset(&a), multiset(&b),
                    "results diverged under {:?}", mode
                ),
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "errors diverged under {:?}", mode
                ),
                (a, b) => prop_assert!(
                    false,
                    "divergent fallibility under {:?}: rule {:?}, cost {:?}",
                    mode, a.map(|_| ()), b.map(|_| ())
                ),
            }
        }
        set_planner_mode(PlannerMode::Cost);
    }
}

/// Pipelines that fail must fail with the *same* error string under
/// both planners in every mode (an input-independent error, so scan
/// order cannot change which document surfaces it).
#[test]
fn error_strings_match_across_planner_modes() {
    let _g = mode_lock();
    let db = Database::new("t");
    let coll = db.collection("c");
    for i in 0..400i64 {
        coll.insert_one(doc! {"k" => i % 40, "v" => i}).unwrap();
    }
    coll.create_index(IndexDef::single("k")).unwrap();
    coll.enable_columnar(["k", "v"]);
    // Every matching document probes `$in` against a literal scalar:
    // the type error is the same whichever document the executor
    // reaches first.
    let p = Pipeline::new().match_stage(Filter::lt("k", 30i64)).group(
        GroupId::Null,
        [(
            "x",
            Accumulator::Sum(Expr::In(
                Box::new(Expr::Literal(Value::Int64(1))),
                Box::new(Expr::Literal(Value::Int64(0))),
            )),
        )],
    );
    for mode in [ExecMode::Streaming, ExecMode::Legacy, ExecMode::Parallel, ExecMode::Columnar] {
        set_planner_mode(PlannerMode::Rule);
        let rule = coll.aggregate_with_mode(&p, None, mode).unwrap_err().to_string();
        set_planner_mode(PlannerMode::Cost);
        let cost = coll.aggregate_with_mode(&p, None, mode).unwrap_err().to_string();
        assert_eq!(rule, cost, "error diverged under {mode:?}");
    }
    set_planner_mode(PlannerMode::Cost);
}

/// The regression the cost model exists for: a predicate on an indexed
/// field that matches ~90% of the collection must take the full scan
/// (rule mode blindly keeps the index), while a selective predicate
/// still seeks the index under both planners.
#[test]
fn low_selectivity_indexed_predicate_prefers_full_scan() {
    let _g = mode_lock();
    let db = Database::new("t");
    let coll = db.collection("c");
    for i in 0..4000i64 {
        coll.insert_one(doc! {"k" => i % 1000, "v" => i}).unwrap();
    }
    coll.create_index(IndexDef::single("k")).unwrap();
    let wide = Filter::lt("k", 900i64); // ~90% of rows
    let narrow = Filter::eq("k", 7i64); // ~0.1% of rows

    set_planner_mode(PlannerMode::Cost);
    let ex = coll.explain(&wide);
    assert!(!ex.used_index, "90% predicate must drop the index, got {}", ex.plan);
    assert_eq!(ex.plan, "COLLSCAN");
    let est = ex.est_rows.expect("cost mode reports an estimate");
    assert!(
        (1800..=7200).contains(&est),
        "estimate {est} wildly off actual {}",
        ex.docs_returned
    );
    let ex = coll.explain(&narrow);
    assert!(ex.used_index, "selective predicate must keep the index, got {}", ex.plan);

    // Rule mode: any usable prefix wins, estimates are not computed.
    set_planner_mode(PlannerMode::Rule);
    let ex = coll.explain(&wide);
    assert!(ex.used_index, "rule mode must blindly keep the index");
    assert!(ex.est_rows.is_none());
    set_planner_mode(PlannerMode::Cost);
}

/// Same pin at the aggregation layer: under `ExecMode::Columnar` the
/// wide predicate must stay on the full-scan (columnar kernel) path —
/// visible through the explain decision — and produce kernel results
/// identical to the streaming row path.
#[test]
fn columnar_keeps_full_scan_kernel_for_wide_indexed_predicate() {
    let _g = mode_lock();
    let db = Database::new("t");
    let coll = db.collection("c");
    for i in 0..4000i64 {
        coll.insert_one(doc! {"k" => i % 1000, "grp" => i % 8, "v" => i % 100}).unwrap();
    }
    coll.create_index(IndexDef::single("k")).unwrap();
    coll.enable_columnar(["k", "grp", "v"]);
    let p = Pipeline::new().match_stage(Filter::lt("k", 900i64)).group(
        GroupId::Expr(Expr::field("grp")),
        [("n", Accumulator::count()), ("s", Accumulator::sum_field("v"))],
    );

    set_planner_mode(PlannerMode::Cost);
    let ex = coll.explain_aggregate(&p, None).unwrap();
    assert_eq!(ex.stages[0].decision.as_deref(), Some("COLLSCAN"));
    let cols = coll.aggregate_with_mode(&p, None, ExecMode::Columnar).unwrap();
    let rows = coll.aggregate_with_mode(&p, None, ExecMode::Streaming).unwrap();
    assert_eq!(multiset(&cols), multiset(&rows));

    set_planner_mode(PlannerMode::Rule);
    let ex = coll.explain_aggregate(&p, None).unwrap();
    assert_eq!(ex.stages[0].decision.as_deref(), Some("IXSCAN { k_1 } (range)"));
    set_planner_mode(PlannerMode::Cost);
}

/// A collection big enough to earn columns: `k` (1000 values, indexed
/// on request), `grp` (8 values), `v`, a unique string `s` and an array
/// `tags`.
fn big_collection(db: &Database, n: i64) -> std::sync::Arc<doclite_docstore::Collection> {
    let coll = db.collection("c");
    coll.insert_many((0..n).map(|i| {
        doc! {
            "k" => i % 1000,
            "grp" => i % 8,
            "v" => i % 100,
            "s" => format!("s{i}"),
            "tags" => Value::Array(vec![Value::Int64(i % 3)])
        }
    }))
    .map_err(|(_, e)| e)
    .unwrap();
    coll
}

/// The column scan is a plan like any other: offered only by the cost
/// planner, only when every path the filter reads has a column, priced
/// against the indexes, and reported by `explain` with the collection
/// scan's row counts.
#[test]
fn column_scan_is_planned_only_when_covered_and_cheapest() {
    let _g = mode_lock();
    set_planner_mode(PlannerMode::Cost);
    let db = Database::new("t");
    let coll = big_collection(&db, 8000);
    let narrow = Filter::and([Filter::eq("grp", 3i64), Filter::lt("v", 10i64)]);

    // No column yet: a collection scan, whose counts are the reference.
    let row = coll.explain(&narrow);
    assert_eq!(row.plan, "COLLSCAN");
    assert_eq!((row.docs_examined, row.docs_returned), (8000, 80));

    coll.enable_columnar(["grp", "v"]);
    let col = coll.explain(&narrow);
    assert_eq!(col.plan, "COLSCAN { grp, v }");
    assert!(!col.used_index);
    assert_eq!((col.docs_examined, col.docs_returned), (row.docs_examined, row.docs_returned));
    assert_eq!(coll.find(&narrow).len(), 80);
    assert_eq!(coll.count(&narrow), 80);

    // One uncovered path and the filter goes back to the documents.
    let uncovered = Filter::and([narrow.clone(), Filter::gte("k", 0i64)]);
    assert_eq!(coll.explain(&uncovered).plan, "COLLSCAN");
    // Nearly everything matches: fetching it all costs more than a scan.
    assert_eq!(coll.explain(&Filter::gte("v", 1i64)).plan, "COLLSCAN");

    // Against an index: a selective one wins, a broad one loses.
    coll.enable_columnar(["k"]);
    coll.create_index(IndexDef::single("k")).unwrap();
    let ex = coll.explain(&Filter::and([Filter::eq("k", 7i64), Filter::eq("grp", 7i64)]));
    assert!(ex.used_index, "a point lookup beats evaluating 8000 rows, got {}", ex.plan);
    let ex = coll.explain(&Filter::and([Filter::lt("k", 900i64), Filter::eq("grp", 3i64)]));
    assert_eq!(ex.plan, "COLSCAN { k, grp }", "90% of the index is worse than the columns");
    assert_eq!(ex.docs_examined, 8000);

    // The rule planner never plans it, so it stays the row-only side of
    // every rule-vs-cost comparison.
    set_planner_mode(PlannerMode::Rule);
    assert_eq!(coll.explain(&narrow).plan, "COLLSCAN");
    assert!(coll.explain(&Filter::lt("k", 900i64)).used_index);
    set_planner_mode(PlannerMode::Cost);
}

/// Columns are per path and earned by traffic: the second scan of a path
/// builds its column, a later filter shape gets its own without
/// disturbing the first, and `enable_columnar` adds to what is there.
#[test]
fn columns_are_built_per_path_and_never_discarded_by_a_later_shape() {
    let _g = mode_lock();
    set_planner_mode(PlannerMode::Cost);
    let db = Database::new("t");
    let coll = big_collection(&db, 6000);
    let by_grp = Filter::eq("grp", 2i64);
    let by_v = Filter::and([Filter::lt("v", 5i64), Filter::eq("grp", 2i64)]);

    assert!(!coll.columnar_enabled());
    let first = coll.find(&by_grp);
    assert_eq!(coll.explain(&by_grp).plan, "COLLSCAN", "one scan earns nothing");
    assert_eq!(coll.columnar_size(), 0);
    assert_eq!(coll.find(&by_grp), first);
    assert_eq!(coll.explain(&by_grp).plan, "COLSCAN { grp }", "the second builds the column");
    assert_eq!(coll.find(&by_grp), first);

    // A second shape: `v` has no column yet, `grp` keeps its own.
    assert_eq!(coll.explain(&by_v).plan, "COLLSCAN");
    let n = coll.count(&by_v);
    assert_eq!(coll.count(&by_v), n);
    assert_eq!(coll.explain(&by_v).plan, "COLSCAN { v, grp }");
    assert_eq!(coll.count(&by_v), n);
    assert_eq!(coll.explain(&by_grp).plan, "COLSCAN { grp }");

    // Eager declaration extends the set instead of replacing it.
    coll.enable_columnar(["k"]);
    assert_eq!(coll.explain(&by_v).plan, "COLSCAN { v, grp }");
    assert_eq!(coll.explain(&Filter::eq("k", 5i64)).plan, "COLSCAN { k }");

    // Small collections never build: a scan is cheaper than the upkeep.
    let small = db.collection("small");
    small.insert_many((0..1000i64).map(|i| doc! {"grp" => i % 8})).map_err(|(_, e)| e).unwrap();
    for _ in 0..4 {
        small.find(&by_grp);
    }
    assert!(!small.columnar_enabled());
}

/// The sidecar's memory is bounded by slots, not by content: a
/// unique-string path stops at the dictionary cap, an array path earns
/// no column at all and is not retried.
#[test]
fn sidecar_memory_is_bounded_per_slot() {
    let _g = mode_lock();
    set_planner_mode(PlannerMode::Cost);
    let db = Database::new("t");
    let n = 20_000;
    let coll = big_collection(&db, n);
    let slots = n as usize;
    // 8 B of payload, 4 bitmap bits, and a word of slack per bitmap.
    let per_column = slots * 8 + slots / 2 + 40;
    let live_bits = slots / 8 + 8;

    // Lazily: both exotic-riddled paths are scanned twice, neither
    // keeps a column, and a third scan does not try again.
    let by_s = Filter::eq("s", "s77");
    let by_tags = Filter::eq("tags", 2i64);
    for f in [&by_s, &by_tags] {
        let first = coll.find(f);
        assert!(!first.is_empty());
        for _ in 0..3 {
            assert_eq!(coll.find(f), first);
            assert_eq!(coll.explain(f).plan, "COLLSCAN");
        }
    }
    assert!(coll.columnar_size() <= live_bits, "{}", coll.columnar_size());

    // Declared: the unique-string column is kept, capped at 4096
    // dictionary entries of at most 6 bytes each (held twice, plus the
    // entry headers), next to a plain integer column.
    coll.enable_columnar(["s", "k"]);
    let dictionary = 4096 * (2 * 6 + 96);
    let bound = 2 * per_column + dictionary + live_bits;
    assert!(coll.columnar_size() <= bound, "{} > {bound}", coll.columnar_size());
    assert!(coll.columnar_size() > slots * 8, "the columns are really there");
    assert_eq!(coll.find(&by_s).len(), 1);
    assert_eq!(coll.find(&Filter::eq("s", "s19999")).len(), 1, "past the cap: row fallback");
}
