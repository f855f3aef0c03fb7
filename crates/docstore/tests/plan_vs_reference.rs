//! Plan vs reference: whatever physical route the aggregation driver
//! takes, it returns what the reference interpreter
//! (`agg::reference::run`, built from the interpreted evaluators only)
//! says the pipeline means — documents *and* error strings.
//!
//! One generator of documents (the `common` domain: nulls, missing
//! fields, arrays of documents, ±2^53±1, mixed numeric types) and
//! pipelines (all ten stages, fallible `$project` / `$group` keys,
//! `$lookup`, a `$out` in any position) drives:
//!
//! * `Collection::aggregate_with` in each **physical situation** — no
//!   index, an index the filter can use, a column declared for every
//!   path, columns for the filter's paths only, and ≥ 4096 documents run
//!   three times so the lazily built columns appear under the third run
//!   — after deletes and re-inserts, so slots are reused and the
//!   sidecar was maintained, not rebuilt;
//! * `agg::run_parallel` at workers ∈ {1, 2, 8} × morsel ∈ {3, 1024}.
//!
//! Without an index the driver enumerates slots in order, the oracle is
//! fed `all_docs()` in that order, and results must be equal as
//! sequences. An index enumerates in key order, so that situation draws
//! order-insensitive pipelines and compares multisets, plus one
//! windowed shape behind a total sort that must agree exactly.
//!
//! Sums stay integer-valued (field `b`): the exchange merges partial
//! f64 sums, the one documented way it may differ from a left fold.

mod common;

use common::{arb_document, arb_expr, arb_filter, arb_scalar, opt};
use doclite_bson::{doc, json::to_json, Document, Value};
use doclite_docstore::agg::{reference, run_parallel};
use doclite_docstore::{
    Accumulator, Collection, Database, Expr, Filter, GroupId, IndexDef, Pipeline, ProjectField,
    Result, Stage,
};
use proptest::prelude::*;
use proptest::strategy::Union;
use std::sync::Arc;

/// `common`'s documents (`a` and `n.c` hold anything) with `b` replaced
/// by a small integer or nothing — what sums, the index and `dim.k`
/// read — `xs` in every `$unwind` input shape, and a `tag`.
fn arb_doc() -> BoxedStrategy<Document> {
    (arb_document(), opt((0..4i64).boxed()), 0..5u8, prop::collection::vec(0..5i64, 0..3), "[xyz]")
        .prop_map(|(mut d, b, xs_kind, xs, tag)| {
            d.remove("b");
            if let Some(b) = b {
                d.set("b", b);
            }
            match xs_kind {
                0 => d.set("xs", Value::Array(xs.into_iter().map(Value::Int64).collect())),
                1 => d.set("xs", Value::Null),
                2 => d.set("xs", 7i64),
                3 => d.set("xs", "s"),
                _ => {}
            }
            d.set("tag", tag);
            d
        })
        .boxed()
}

/// `$add: ["$xs", 1]`: an error on the array and string shapes of `xs`
/// (two different strings), null on the missing and null ones.
fn fallible_inc() -> Expr {
    Expr::Add(vec![Expr::field("xs"), Expr::lit(1i64)])
}

/// `ordered` pipelines may depend on the order documents arrive in
/// (`$first`, `$push`, first-seen group representatives, which error
/// comes first, `$skip` / `$limit`); the others may not.
fn arb_group(ordered: bool) -> BoxedStrategy<Stage> {
    (0..7usize, any::<bool>())
        .prop_map(move |(id, computed)| {
            let id = match (id, ordered) {
                (0, _) => GroupId::Null,
                (1, _) => GroupId::Expr(Expr::field("b")),
                (2, _) => GroupId::Expr(Expr::field("tag")),
                (3, _) => GroupId::Expr(Expr::Doc(vec![
                    ("b".into(), Expr::field("b")),
                    ("t".into(), Expr::field("tag")),
                ])),
                (4, true) => GroupId::Expr(Expr::field("a")),
                (5, true) => GroupId::Expr(Expr::field("n.c")),
                (6, true) => GroupId::Expr(fallible_inc()),
                _ => GroupId::Expr(Expr::field("b")),
            };
            let mut fields = vec![
                ("n".to_string(), Accumulator::count()),
                ("sum_b".to_string(), Accumulator::sum_field("b")),
                ("avg_b".to_string(), Accumulator::avg_field("b")),
                ("min_b".to_string(), Accumulator::Min(Expr::field("b"))),
                ("max_b".to_string(), Accumulator::Max(Expr::field("b"))),
            ];
            if ordered {
                fields.extend([
                    ("min_a".to_string(), Accumulator::Min(Expr::field("a"))),
                    ("first_a".to_string(), Accumulator::First(Expr::field("a"))),
                    ("last_c".to_string(), Accumulator::Last(Expr::field("n.c"))),
                    ("push_b".to_string(), Accumulator::Push(Expr::field("b"))),
                    ("set_a".to_string(), Accumulator::AddToSet(Expr::field("a"))),
                ]);
            }
            if computed {
                let inc = Expr::Add(vec![Expr::field("b"), Expr::lit(1i64)]);
                fields.push(("inc".to_string(), Accumulator::Sum(inc)));
            }
            Stage::Group { id, fields }
        })
        .boxed()
}

fn include(paths: &[&str]) -> Vec<(String, ProjectField)> {
    paths.iter().map(|p| (p.to_string(), ProjectField::Include)).collect()
}

fn arb_project(ordered: bool) -> BoxedStrategy<Stage> {
    let mut arms = vec![
        Just(Stage::Project(include(&["a", "tag", "n.c"]))).boxed(),
        Just(Stage::Project(vec![
            ("xs".to_string(), ProjectField::Exclude),
            ("n.c".to_string(), ProjectField::Exclude),
        ]))
        .boxed(),
        Just(Stage::Project(vec![
            ("b".to_string(), ProjectField::Include),
            ("_id".to_string(), ProjectField::Exclude),
            ("s.t".to_string(), ProjectField::Compute(Expr::field("a"))),
        ]))
        .boxed(),
    ];
    if ordered {
        let compute = |e: Expr| {
            let mut fields = include(&["b", "xs"]);
            fields.push(("y".to_string(), ProjectField::Compute(e)));
            Stage::Project(fields)
        };
        arms.push(Just(compute(fallible_inc())).boxed());
        arms.push(arb_expr().prop_map(compute).boxed());
    }
    Union::new(arms).boxed()
}

fn arb_sort() -> BoxedStrategy<Stage> {
    prop_oneof![
        Just(vec![("a", 1)]),
        Just(vec![("b", -1), ("a", 1)]),
        Just(vec![("tag", 1), ("n.c", -1)]),
        Just(vec![("n", -1), ("_id", 1)]),
    ]
    .prop_map(|spec| Stage::Sort(spec.into_iter().map(|(p, d)| (p.to_string(), d)).collect()))
    .boxed()
}

fn arb_stage(ordered: bool) -> BoxedStrategy<Stage> {
    let lookup = |local: &str| Stage::Lookup {
        from: "dim".into(),
        local_field: local.into(),
        foreign_field: "k".into(),
        as_field: "j".into(),
    };
    let mut arms = vec![
        arb_filter().prop_map(Stage::Match).boxed(),
        arb_project(ordered),
        arb_group(ordered),
        arb_sort(),
        prop_oneof![Just("xs"), Just("$xs"), Just("a")]
            .prop_map(|p| Stage::Unwind(p.to_string()))
            .boxed(),
        Just(Stage::Count("n".to_string())).boxed(),
        prop_oneof![Just(lookup("a")), Just(lookup("b")), Just(lookup("n.c"))].boxed(),
        Just(Stage::Out("dst".to_string())).boxed(),
    ];
    if ordered {
        arms.push((0..15usize).prop_map(Stage::Limit).boxed());
        arms.push((0..8usize).prop_map(Stage::Skip).boxed());
    }
    Union::new(arms).boxed()
}

/// A leading `$match` run, then — often — a `$group` or `$count` (the
/// shapes the driver may compute off the columns), then anything.
fn arb_pipeline(ordered: bool) -> BoxedStrategy<Pipeline> {
    let next = prop_oneof![
        arb_group(ordered),
        Just(Stage::Count("n".to_string())).boxed(),
        arb_stage(ordered),
    ];
    (
        prop::collection::vec(arb_filter().prop_map(Stage::Match), 0..3),
        prop::collection::vec(next, 0..2),
        prop::collection::vec(arb_stage(ordered), 0..3),
    )
        .prop_map(|(head, next, tail)| {
            head.into_iter().chain(next).chain(tail).fold(Pipeline::new(), Pipeline::stage)
        })
        .boxed()
}

/// The foreign side of `$lookup`: `k` over `b`'s domain and beyond —
/// null, missing, whole arrays.
fn arb_dim() -> BoxedStrategy<Vec<Document>> {
    let k = prop_oneof![
        3 => (0..4i64).prop_map(Value::Int64),
        2 => arb_scalar(),
        1 => prop::collection::vec(arb_scalar(), 0..3).prop_map(Value::Array),
    ];
    prop::collection::vec(opt(k.boxed()), 0..8).prop_map(dim_docs).boxed()
}

fn dim_docs(ks: Vec<Option<Value>>) -> Vec<Document> {
    ks.into_iter()
        .enumerate()
        .map(|(i, k)| {
            let mut d = doc! {"_id" => i as i64, "v" => (i % 3) as i64};
            if let Some(k) = k {
                d.set("k", k);
            }
            d
        })
        .collect()
}

#[derive(Clone, Copy, Debug, PartialEq)]
enum Situation {
    Plain,
    Indexed,
    AllColumns,
    FilterColumns,
    /// ≥ 4096 documents: columns are earned by scans.
    Large,
}

/// Every path a generated pipeline reads.
const PATHS: [&str; 9] = ["_id", "a", "b", "n.c", "a.c", "xs", "tag", "missing", "n.missing"];

/// The database under test: `dim`, and `c` loaded with `docs` (ids in
/// insertion order), thinned by a delete and topped up with `extra` so
/// slots are reused — all after the situation's index or columns exist,
/// so they were maintained through the writes.
fn setup(
    situation: Situation,
    pipeline: &Pipeline,
    docs: Vec<Document>,
    delete_b: Option<i64>,
    extra: Vec<Document>,
    dim: Vec<Document>,
) -> (Database, Arc<Collection>) {
    let db = Database::new("t");
    db.collection("dim").insert_many(dim).expect("insert dim");
    let coll = db.collection("c");
    match situation {
        Situation::Plain | Situation::Large => {}
        Situation::Indexed => coll.create_index(IndexDef::single("b")).expect("index"),
        Situation::AllColumns => coll.enable_columnar(PATHS),
        Situation::FilterColumns => coll.enable_columnar(
            pipeline.leading_matches().iter().flat_map(|f| f.referenced_paths()),
        ),
    }
    let mut id = 0i64;
    let mut with_id = |mut d: Document| {
        d.set("_id", id);
        id += 1;
        d
    };
    if situation == Situation::Large {
        // One chunk of typed cells only, so the columns built later have
        // a vectorized chunk beside the exotic-riddled tail.
        coll.insert_many((0..4096i64).map(|i| {
            with_id(doc! {"a" => i % 6, "b" => i % 4, "n" => doc! {"c" => i % 3}, "xs" => 7i64, "tag" => "x"})
        }))
        .expect("insert filler");
    }
    coll.insert_many(docs.into_iter().map(&mut with_id)).expect("insert");
    if let Some(b) = delete_b {
        coll.delete_many(&Filter::eq("b", b));
    }
    coll.insert_many(extra.into_iter().map(&mut with_id)).expect("insert extra");
    (db, coll)
}

fn assert_same(got: &Result<Vec<Document>>, want: &Result<Vec<Document>>, ctx: &dyn std::fmt::Debug) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert_eq!(got, want, "{ctx:?}"),
        (Err(got), Err(want)) => assert_eq!(got.to_string(), want.to_string(), "{ctx:?}"),
        _ => panic!(
            "divergent fallibility for {ctx:?}: got {:?}, reference {:?}",
            got.as_ref().map(Vec::len),
            want.as_ref().map(Vec::len)
        ),
    }
}

fn multiset(docs: Vec<Document>) -> Vec<String> {
    let mut v: Vec<String> = docs.iter().map(to_json).collect();
    v.sort();
    v
}

/// What the pipeline means over the collection's documents in slot order.
fn oracle(db: &Database, coll: &Collection, p: &Pipeline) -> Result<Vec<Document>> {
    reference::run(coll.all_docs(), p.body()?, Some(db))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Slot-order situations: exact agreement, errors included.
    #[test]
    fn driver_equals_reference_in_every_unindexed_situation(
        situation in prop_oneof![
            Just(Situation::Plain),
            Just(Situation::AllColumns),
            Just(Situation::FilterColumns),
        ],
        pipeline in arb_pipeline(true),
        docs in prop::collection::vec(arb_doc(), 0..40),
        delete_b in opt((0..4i64).boxed()),
        extra in prop::collection::vec(arb_doc(), 0..8),
        dim in arb_dim(),
    ) {
        let (db, coll) = setup(situation, &pipeline, docs, delete_b, extra, dim);
        let want = oracle(&db, &coll, &pipeline);
        assert_same(&coll.aggregate_with(&pipeline, Some(&db)), &want, &(situation, &pipeline));
    }

    /// Index order: order-insensitive pipelines agree as multisets.
    #[test]
    fn driver_equals_reference_as_multisets_behind_an_index(
        pipeline in arb_pipeline(false),
        docs in prop::collection::vec(arb_doc(), 0..40),
        delete_b in opt((0..4i64).boxed()),
        extra in prop::collection::vec(arb_doc(), 0..8),
        dim in arb_dim(),
    ) {
        let (db, coll) = setup(Situation::Indexed, &pipeline, docs, delete_b, extra, dim);
        let got = coll.aggregate_with(&pipeline, Some(&db)).map(multiset);
        let want = oracle(&db, &coll, &pipeline).map(multiset);
        match (got, want) {
            (Ok(got), Ok(want)) => prop_assert_eq!(got, want, "{:?}", pipeline),
            (Err(got), Err(want)) => prop_assert_eq!(got.to_string(), want.to_string()),
            (got, want) => prop_assert!(false, "{:?}: {:?} vs {:?}", pipeline, got, want),
        }
    }

    /// Index order behind a total sort: the window agrees exactly.
    #[test]
    fn driver_equals_reference_exactly_under_a_total_sort(
        filter in arb_filter(),
        on_b in 0..5i64,
        skip in 0..6usize,
        limit in 0..12usize,
        docs in prop::collection::vec(arb_doc(), 0..40),
    ) {
        let pipeline = Pipeline::new()
            .match_stage(Filter::lt("b", on_b))
            .match_stage(filter)
            .sort([("b", 1), ("_id", -1)])
            .skip(skip)
            .limit(limit);
        let (db, coll) = setup(Situation::Indexed, &pipeline, docs, None, vec![], vec![]);
        let want = oracle(&db, &coll, &pipeline);
        assert_same(&coll.aggregate_with(&pipeline, Some(&db)), &want, &pipeline);
    }

    /// The morsel exchange, a pure function of its arguments: every
    /// worker count and morsel size returns the reference's sequence and
    /// error string, and the same bytes on a second run.
    #[test]
    fn run_parallel_equals_reference(
        pipeline in arb_pipeline(true),
        docs in prop::collection::vec(arb_doc(), 0..40),
        dim in arb_dim(),
    ) {
        let (db, coll) = setup(Situation::Plain, &pipeline, docs, None, vec![], dim);
        let docs = coll.all_docs();
        let refs: Vec<&Document> = docs.iter().collect();
        let run = |workers, morsel| {
            pipeline.body().and_then(|body| run_parallel(&refs, body, Some(&db), workers, morsel))
        };
        let want = oracle(&db, &coll, &pipeline);
        for workers in [1usize, 2, 8] {
            for morsel in [3usize, 1024] {
                assert_same(&run(workers, morsel), &want, &(workers, morsel, &pipeline));
            }
        }
        assert_same(&run(8, 3), &want, &"second run");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Columns earned by traffic: the first two runs scan documents, the
    /// third may select over the freshly built columns — one chunk all
    /// typed cells, one with whatever the generator produced.
    #[test]
    fn driver_equals_reference_while_columns_appear(
        pipeline in arb_pipeline(true),
        docs in prop::collection::vec(arb_doc(), 1..60),
        delete_b in opt((0..4i64).boxed()),
        dim in arb_dim(),
    ) {
        let (db, coll) = setup(Situation::Large, &pipeline, docs, delete_b, vec![], dim);
        let want = oracle(&db, &coll, &pipeline);
        for run in 1..=3 {
            assert_same(&coll.aggregate_with(&pipeline, Some(&db)), &want, &(run, &pipeline));
        }
    }

    /// `Database::aggregate` on the shape its `$in` semi-join rewrite
    /// looks for, and `$lookup` on both join strategies: 3 probe rows
    /// against ≥ 64 dimension rows take the index-nested-loop when `k`
    /// is indexed, the hash build when it is not.
    #[test]
    fn lookup_strategies_and_semijoin_rewrite_equal_reference(
        docs in prop::collection::vec(arb_doc(), 0..4),
        ks in prop::collection::vec(opt(arb_scalar()), 64..80),
        indexed in any::<bool>(),
        local in prop_oneof![Just("a"), Just("b"), Just("n.c")],
        v in 0..4i64,
    ) {
        let pipeline = Pipeline::new()
            .lookup("dim", local, "k", "j")
            .unwind("$j")
            .match_stage(Filter::lt("j.v", v))
            .group(GroupId::Expr(Expr::field("j.v")), [("n", Accumulator::count())]);
        let (db, coll) = setup(Situation::Plain, &pipeline, docs, None, vec![], dim_docs(ks));
        if indexed {
            db.collection("dim").create_index(IndexDef::single("k")).expect("index");
        }
        let want = oracle(&db, &coll, &pipeline);
        assert_same(&db.aggregate("c", &pipeline), &want, &(indexed, local, v));
        let strategy = coll.explain_aggregate(&pipeline, Some(&db)).expect("explain").stages[0]
            .decision
            .clone();
        let expected = if indexed { "INDEX_NESTED_LOOP" } else { "HASH_JOIN" };
        prop_assert_eq!(strategy, Some(format!("{expected} {{ dim.k }}")));
    }
}

/// What the random pipelines reach only by luck, pinned: a covered
/// `$group` whose selection runs through an exotic chunk keeps its
/// filter, a `$group` with one uncovered input is not taken off the
/// columns at all, and the planner prices the plan that runs — with the
/// decisions visible in `explain_aggregate`.
#[test]
fn covered_terminal_is_taken_only_when_covered_and_keeps_the_filter() {
    let db = Database::new("t");
    let coll = db.collection("c");
    coll.enable_columnar(["g", "v"]);
    // Two chunks: 4096 rows of typed cells, then one holding two arrays
    // (which match `v < 5` through their element 1).
    coll.insert_many((0..5000i64).map(|i| {
        let v = if i == 4500 || i == 4800 { Value::from(vec![Value::Int64(1), Value::Int64(50)]) } else { Value::Int64(i % 10) };
        doc! {"_id" => i, "g" => i % 4, "v" => v, "w" => i % 3}
    }))
    .expect("insert");
    coll.create_index(IndexDef::single("v")).expect("index");
    let half = Filter::lt("v", 5i64);
    let group = |input: &str| {
        Pipeline::new()
            .match_stage(half.clone())
            .group(
                GroupId::Expr(Expr::field("g")),
                [("n", Accumulator::count()), ("s", Accumulator::sum_field(input))],
            )
            .sort([("_id", 1)])
    };
    let decisions = |p: &Pipeline| -> Vec<Option<String>> {
        coll.explain_aggregate(p, None).unwrap().stages.into_iter().map(|s| s.decision).collect()
    };
    // As a `find`, and under a `$group` that has to read documents, half
    // of the rows come cheapest through the index. Under a covered
    // `$group` nothing is fetched, the column scan is priced without its
    // fetch term, and selection and terminal run off the columns.
    assert_eq!(coll.explain(&half).plan, "IXSCAN { v_1 } (range)");
    let streamed = [Some("IXSCAN { v_1 } (range)".to_string()), None, None];
    let covered = [Some("COLSCAN { v }".to_string()), Some("COLUMNS".to_string()), None];
    for (p, want) in [(group("w"), streamed), (group("v"), covered)] {
        assert_eq!(decisions(&p), want, "{p:?}");
        assert_same(&coll.aggregate(&p), &oracle(&db, &coll, &p), &p);
    }
}
