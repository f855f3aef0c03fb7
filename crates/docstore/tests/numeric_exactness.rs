//! Regression suite for the large-integer numeric-unification bug:
//! every comparison/hash/key-byte path used to collapse numerics
//! through `f64`, so `i64` values past 2^53 collided — `i64::MAX` and
//! `i64::MAX - 1` landed in one `$group` bucket, deduped in
//! `$addToSet`, tied in `$sort`, and shared hashed-index entries.
//! These tests pin the exact semantics on every consumer — for
//! aggregations, on the driver (covered terminal and streamed) and on
//! the reference interpreter alike.

use doclite_bson::{doc, Document, Value};
use doclite_docstore::agg::reference;
use doclite_docstore::query::matches;
use doclite_docstore::{
    compile, matches_compiled, Accumulator, Collection, Expr, Filter, GroupId, IndexDef, Pipeline,
};

const BIG: i64 = 1 << 53;

fn big_int_docs() -> Vec<Document> {
    vec![
        doc! {"_id" => 0i64, "k" => i64::MAX, "v" => 1i64},
        doc! {"_id" => 1i64, "k" => i64::MAX - 1, "v" => 10i64},
        doc! {"_id" => 2i64, "k" => i64::MAX, "v" => 100i64},
        doc! {"_id" => 3i64, "k" => BIG, "v" => 1000i64},
        doc! {"_id" => 4i64, "k" => BIG + 1, "v" => 10_000i64},
        doc! {"_id" => 5i64, "k" => Value::Double(BIG as f64), "v" => 100_000i64},
        doc! {"_id" => 6i64, "k" => i64::MIN, "v" => 7i64},
        doc! {"_id" => 7i64, "k" => i64::MIN + 1, "v" => 8i64},
    ]
}

fn coll() -> Collection {
    let c = Collection::new("numeric_exactness");
    c.insert_many(big_int_docs()).expect("insert");
    // The columnar sidecar must preserve the same exactness: `k` holds
    // an exotic Double cell (slot 5), so grouped batches exercise the
    // row-fallback path; `v` stays fully vectorized.
    c.enable_columnar(["k", "v"]);
    c
}

/// The pipeline's result by each route: the driver over a collection
/// whose every path has a column, the driver over one with none, and the
/// reference interpreter.
fn by_every_route(p: &Pipeline) -> [(&'static str, Vec<Document>); 3] {
    let plain = Collection::new("numeric_exactness_rows");
    plain.insert_many(big_int_docs()).expect("insert");
    [
        ("columns", coll().aggregate(p).expect("aggregate")),
        ("rows", plain.aggregate(p).expect("aggregate")),
        ("reference", reference::run(big_int_docs(), p.stages(), None).expect("reference")),
    ]
}

#[test]
fn group_separates_large_integer_keys() {
    let p = Pipeline::new()
        .group(
            GroupId::Expr(Expr::field("k")),
            [("n", Accumulator::count()), ("sum_v", Accumulator::sum_field("v"))],
        )
        .sort([("_id", 1)]);
    for (route, out) in by_every_route(&p) {
        // Distinct keys: MIN, MIN+1, 2^53 (int unifies with the equal
        // double — they are exactly equal), 2^53+1, MAX-1, MAX.
        assert_eq!(out.len(), 6, "{route}: {out:?}");
        let find = |k: &Value| {
            out.iter()
                .find(|d| d.get("_id").unwrap().canonical_eq(k))
                .unwrap_or_else(|| panic!("no group for {k:?} in {route}"))
        };
        assert_eq!(find(&Value::Int64(i64::MAX)).get("n"), Some(&Value::Int64(2)));
        assert_eq!(
            find(&Value::Int64(i64::MAX)).get("sum_v"),
            Some(&Value::Int64(101))
        );
        assert_eq!(find(&Value::Int64(i64::MAX - 1)).get("n"), Some(&Value::Int64(1)));
        assert_eq!(
            find(&Value::Int64(BIG)).get("n"),
            Some(&Value::Int64(2)),
            "2^53 int and 2^53 double are exactly equal and must share a bucket"
        );
        assert_eq!(find(&Value::Int64(BIG + 1)).get("n"), Some(&Value::Int64(1)));
        assert_eq!(find(&Value::Int64(i64::MIN)).get("n"), Some(&Value::Int64(1)));
        assert_eq!(find(&Value::Int64(i64::MIN + 1)).get("n"), Some(&Value::Int64(1)));
    }
}

#[test]
fn add_to_set_keeps_large_integers_distinct() {
    let p = Pipeline::new().group(
        GroupId::Null,
        [("ks", Accumulator::AddToSet(Expr::field("k")))],
    );
    for (route, out) in by_every_route(&p) {
        assert_eq!(out.len(), 1);
        let ks = out[0].get("ks").and_then(Value::as_array).expect("ks array");
        // 8 inputs, one true duplicate pair (MAX twice) and one exact
        // cross-type unification (2^53 int == 2^53 double).
        assert_eq!(ks.len(), 6, "{route}: {ks:?}");
        assert!(ks.iter().any(|v| v.canonical_eq(&Value::Int64(i64::MAX))));
        assert!(ks.iter().any(|v| v.canonical_eq(&Value::Int64(i64::MAX - 1))));
        assert!(ks.iter().any(|v| v.canonical_eq(&Value::Int64(BIG + 1))));
    }
}

#[test]
fn in_set_probe_is_exact() {
    let filter = Filter::is_in("k", [i64::MAX - 1, BIG]);
    let compiled = compile(&filter);
    let docs = big_int_docs();
    let hits: Vec<i64> = docs
        .iter()
        .filter(|d| matches_compiled(&compiled, d))
        .map(|d| d.get("_id").unwrap().as_i64().unwrap())
        .collect();
    // MAX must NOT match an $in probe for MAX-1; the 2^53 double DOES
    // match the 2^53 int probe (exactly equal).
    assert_eq!(hits, vec![1, 3, 5]);
    let interp: Vec<i64> = docs
        .iter()
        .filter(|d| matches(&filter, d))
        .map(|d| d.get("_id").unwrap().as_i64().unwrap())
        .collect();
    assert_eq!(hits, interp, "compiled and interpreted $in disagree");
}

#[test]
fn sort_orders_large_integers_exactly() {
    let p = Pipeline::new().sort([("k", 1), ("_id", 1)]);
    for (route, out) in by_every_route(&p) {
        let ids: Vec<i64> =
            out.iter().map(|d| d.get("_id").unwrap().as_i64().unwrap()).collect();
        // MIN < MIN+1 < 2^53(int, _id 3) = 2^53(double, _id 5) < 2^53+1
        // < MAX-1 < MAX(_id 0) < MAX(_id 2); the equal pair falls back
        // to the _id tiebreak.
        assert_eq!(ids, vec![6, 7, 3, 5, 4, 1, 0, 2], "{route}");
    }
}

#[test]
fn hashed_index_separates_large_integer_keys() {
    let c = coll();
    c.create_index(IndexDef::hashed("k")).expect("hashed index");
    let max_hits = c.find(&Filter::eq("k", i64::MAX));
    assert_eq!(max_hits.len(), 2, "{max_hits:?}");
    let near_hits = c.find(&Filter::eq("k", i64::MAX - 1));
    assert_eq!(near_hits.len(), 1, "{near_hits:?}");
    assert_eq!(near_hits[0].get("_id"), Some(&Value::Int64(1)));
    // Exact cross-type equality still routes through the index.
    let big_hits = c.find(&Filter::eq("k", BIG));
    assert_eq!(big_hits.len(), 2, "{big_hits:?}");
    let plan = c.explain(&Filter::eq("k", i64::MAX));
    assert!(plan.used_index, "hashed index should serve equality: {plan:?}");
}

#[test]
fn btree_index_separates_large_integer_keys() {
    let c = coll();
    c.create_index(IndexDef::single("k")).expect("btree index");
    assert_eq!(c.find(&Filter::eq("k", i64::MAX)).len(), 2);
    assert_eq!(c.find(&Filter::eq("k", i64::MAX - 1)).len(), 1);
    // Range probes around the cliff stay exact too.
    assert_eq!(c.find(&Filter::gte("k", i64::MAX)).len(), 2);
    assert_eq!(c.find(&Filter::gte("k", i64::MAX - 1)).len(), 3);
}
