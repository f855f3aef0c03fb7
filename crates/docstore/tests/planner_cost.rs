//! Regressions pinning the decisions the cost model exists to make: a
//! low-selectivity predicate on an indexed field drops the index for a
//! sequential pass, a column scan is planned only when every path is
//! covered and it is the cheapest, columns are earned per path and
//! bounded per slot. That no decision changes a result is
//! `plan_vs_reference.rs`'s job.

use doclite_bson::{doc, Value};
use doclite_docstore::{Accumulator, Database, Expr, Filter, GroupId, IndexDef, Pipeline};

/// The regression the cost model exists for: a predicate on an indexed
/// field that matches ~90% of the collection must take the full scan
/// (the prefix rule alone would keep the index), while a selective
/// predicate still seeks the index.
#[test]
fn low_selectivity_indexed_predicate_prefers_full_scan() {
    let db = Database::new("t");
    let coll = db.collection("c");
    for i in 0..4000i64 {
        coll.insert_one(doc! {"k" => i % 1000, "v" => i}).unwrap();
    }
    coll.create_index(IndexDef::single("k")).unwrap();
    let wide = Filter::lt("k", 900i64); // ~90% of rows
    let narrow = Filter::eq("k", 7i64); // ~0.1% of rows

    let ex = coll.explain(&wide);
    assert!(!ex.used_index, "90% predicate must drop the index, got {}", ex.plan);
    assert_eq!(ex.plan, "COLLSCAN");
    assert!(
        (1800..=7200).contains(&ex.est_rows),
        "estimate {} wildly off actual {}",
        ex.est_rows,
        ex.docs_returned
    );
    let ex = coll.explain(&narrow);
    assert!(ex.used_index, "selective predicate must keep the index, got {}", ex.plan);
}

/// Same pin at the aggregation layer: the wide predicate stays off the
/// index, and with its `$group` covered by columns the driver computes
/// both off the columns — visible through the explain decisions.
#[test]
fn wide_indexed_predicate_under_a_covered_group_runs_off_the_columns() {
    let db = Database::new("t");
    let coll = db.collection("c");
    for i in 0..4000i64 {
        coll.insert_one(doc! {"k" => i % 1000, "grp" => i % 8, "v" => i % 100}).unwrap();
    }
    coll.create_index(IndexDef::single("k")).unwrap();
    let p = Pipeline::new().match_stage(Filter::lt("k", 900i64)).group(
        GroupId::Expr(Expr::field("grp")),
        [("n", Accumulator::count()), ("s", Accumulator::sum_field("v"))],
    );
    let decisions = || -> Vec<Option<String>> {
        coll.explain_aggregate(&p, None).unwrap().stages.into_iter().map(|s| s.decision).collect()
    };
    assert_eq!(decisions(), [Some("COLLSCAN".to_string()), None]);
    let rows = coll.aggregate(&p).unwrap();
    coll.enable_columnar(["k", "grp", "v"]);
    assert_eq!(decisions(), [Some("COLSCAN { k }".to_string()), Some("COLUMNS".to_string())]);
    assert_eq!(coll.aggregate(&p).unwrap(), rows);
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

/// The column scan is a plan like any other: offered only when every
/// path the filter reads has a column, priced against the indexes, and
/// reported by `explain` with the collection scan's row counts.
#[test]
fn column_scan_is_planned_only_when_covered_and_cheapest() {
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
}

/// Columns are per path and earned by traffic: the second scan of a path
/// builds its column, a later filter shape gets its own without
/// disturbing the first, and `enable_columnar` adds to what is there.
#[test]
fn columns_are_built_per_path_and_never_discarded_by_a_later_shape() {
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
