//! Property tests: the columnar batch executor agrees with the
//! streaming row executor — results *and* error strings — with the
//! parallel-columnar variant agreeing too.
//!
//! The document domain is adversarial for the sidecar:
//!
//! * `a` — small colliding integers plus ±2^53±1 / `i64::MIN/MAX`
//!   extremes (the large-integer exactness class), with `Int32`/`Int64`
//!   variants mixed so narrow-cell reconstruction is load-bearing;
//! * `b` — scalars, nulls, strings, *arrays*, and missing fields, so
//!   `b`-touching batches constantly flip between vectorized and
//!   exotic row-fallback execution;
//! * `v` — dyadic doubles (multiples of 0.5), so `$sum`/`$avg` are
//!   exact and chunk-order merges cannot hide behind float slack.
//!
//! Collections also take random deletes (dead slots, free-list reuse)
//! and re-inserts before querying, exercising incremental sidecar
//! maintenance rather than the rebuild path. Pipelines cover fully
//! vectorized prefixes, row-fallback `$match` steps on undeclared
//! paths, whole-pipeline delegation (`$project` first), uncovered
//! `$group` shapes, and fallible epilogue expressions whose error
//! strings must match the row path exactly.
//!
//! No secondary indexes: an index-served `$match` may reorder the
//! stream, which is outside the columnar path's order contract.

use doclite_bson::{doc, Document, Value};
use doclite_docstore::query::matcher::matches;
use doclite_docstore::{
    Accumulator, CmpOp, Collection, ExecMode, Expr, Filter, GroupId, Pipeline, ProjectField,
};
use proptest::prelude::*;

const BIG: i64 = 1 << 53;

fn extreme_int() -> BoxedStrategy<i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MIN + 1),
        Just(-BIG - 1),
        Just(-BIG),
        Just(BIG),
        Just(BIG + 1),
        Just(i64::MAX - 1),
        Just(i64::MAX),
    ]
    .boxed()
}

/// `a`: integers over a colliding domain plus the precision-cliff
/// extremes, in both integer widths.
fn arb_a() -> BoxedStrategy<Value> {
    prop_oneof![
        (0..4i32).prop_map(Value::Int32),
        (0..4i64).prop_map(Value::Int64),
        extreme_int().prop_map(Value::Int64),
        Just(Value::Null),
    ]
    .boxed()
}

/// `b`: the exotic-trigger field — scalars of several types, arrays,
/// and nulls.
fn arb_b() -> BoxedStrategy<Value> {
    prop_oneof![
        (0..3i64).prop_map(Value::Int64),
        "[xy]{0,2}".prop_map(Value::String),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
        prop::collection::vec((0..3i64).prop_map(Value::Int64), 0..3).prop_map(Value::Array),
    ]
    .boxed()
}

/// `v`: dyadic doubles so running sums are exact under any chunking.
fn arb_v() -> BoxedStrategy<Value> {
    (-8i64..9).prop_map(|n| Value::Double(n as f64 * 0.5)).boxed()
}

/// `Some`/`None` with equal weight (the vendored proptest has no
/// `prop::option` module).
fn opt<T: std::fmt::Debug + Clone + 'static>(s: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    prop_oneof![Just(None), s.prop_map(Some)].boxed()
}

fn arb_document() -> BoxedStrategy<Document> {
    (opt(arb_a()), opt(arb_b()), opt(arb_v()))
        .prop_map(|(a, b, v)| {
            let mut d = Document::new();
            if let Some(x) = a {
                d.set("a", x);
            }
            if let Some(x) = b {
                d.set("b", x);
            }
            if let Some(x) = v {
                d.set("v", x);
            }
            d
        })
        .boxed()
}

/// Filter paths: declared columns, and `missing` (undeclared — forces
/// the per-step row fallback inside an otherwise-covered plan).
fn arb_path() -> BoxedStrategy<String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("v".to_string()),
        Just("missing".to_string()),
    ]
    .boxed()
}

fn arb_rhs() -> BoxedStrategy<Value> {
    prop_oneof![
        arb_a(),
        arb_b(),
        arb_v(),
        extreme_int().prop_map(|n| Value::Double(n as f64)),
    ]
    .boxed()
}

fn arb_cmp_op() -> BoxedStrategy<CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Ne),
        Just(CmpOp::Gt),
        Just(CmpOp::Gte),
        Just(CmpOp::Lt),
        Just(CmpOp::Lte),
    ]
    .boxed()
}

fn arb_leaf_filter() -> BoxedStrategy<Filter> {
    prop_oneof![
        (arb_path(), arb_cmp_op(), arb_rhs())
            .prop_map(|(p, op, v)| Filter::Cmp { path: p, op, value: v }),
        (arb_path(), prop::collection::vec(arb_rhs(), 0..4))
            .prop_map(|(p, vs)| Filter::is_in(p, vs)),
        (arb_path(), prop::collection::vec(arb_rhs(), 0..4))
            .prop_map(|(p, vs)| Filter::not_in(p, vs)),
        arb_path().prop_map(Filter::exists),
        arb_path().prop_map(Filter::not_exists),
    ]
    .boxed()
}

fn arb_filter() -> BoxedStrategy<Filter> {
    arb_leaf_filter()
        .prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::and),
                prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::or),
                prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::Nor),
                inner.prop_map(Filter::not),
            ]
        })
        .boxed()
}

/// Group-by paths: a vectorized integer column, the exotic-riddled
/// mixed column, and an undeclared path (uncovered → streaming rest).
fn arb_group_path() -> BoxedStrategy<String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("missing".to_string()),
    ]
    .boxed()
}

/// Pipeline shapes spanning every coverage class of the planner.
fn arb_pipeline() -> BoxedStrategy<Pipeline> {
    let group_fields = |path: String| {
        vec![
            ("n".to_string(), Accumulator::count()),
            ("s".to_string(), Accumulator::sum_field("v")),
            ("av".to_string(), Accumulator::avg_field("v")),
            ("mn".to_string(), Accumulator::Min(Expr::field("a"))),
            ("mx".to_string(), Accumulator::Max(Expr::field("a"))),
            ("fst".to_string(), Accumulator::First(Expr::field(path.clone()))),
            ("set".to_string(), Accumulator::AddToSet(Expr::field(path))),
        ]
    };
    prop_oneof![
        // Covered match → covered group (plus sort epilogue in rest).
        (arb_filter(), arb_group_path(), any::<bool>()).prop_map(move |(f, g, sorted)| {
            let p = Pipeline::new().match_stage(f).group(
                GroupId::Expr(Expr::field(g.clone())),
                group_fields(g),
            );
            if sorted {
                p.sort([("n", -1), ("s", 1)])
            } else {
                p
            }
        }),
        // _id: null single-group fold.
        arb_filter().prop_map(|f| {
            Pipeline::new().match_stage(f).group(
                GroupId::Null,
                [
                    ("n", Accumulator::count()),
                    ("s", Accumulator::sum_field("v")),
                    ("last", Accumulator::Last(Expr::field("a"))),
                    ("xs", Accumulator::Push(Expr::field("b"))),
                ],
            )
        }),
        // Covered match → count.
        arb_filter().prop_map(|f| Pipeline::new().match_stage(f).count("n")),
        // Covered match, then a fallible epilogue: $add over `b` errors
        // on strings/bools/arrays — error strings must match streaming.
        arb_filter().prop_map(|f| {
            Pipeline::new().match_stage(f).project([(
                "bad",
                ProjectField::Compute(Expr::Add(vec![Expr::field("b"), Expr::lit(1i64)])),
            )])
        }),
        // Uncovered group id (computed expression): match prefix still
        // vectorizes, group runs in the streaming rest.
        arb_filter().prop_map(|f| {
            Pipeline::new().match_stage(f).group(
                GroupId::Expr(Expr::Add(vec![Expr::field("a"), Expr::lit(1i64)])),
                [("n", Accumulator::count())],
            )
        }),
        // Whole-pipeline delegation: $project first, nothing covered.
        arb_filter().prop_map(|f| {
            Pipeline::new()
                .project([("a", ProjectField::Include), ("v", ProjectField::Include)])
                .match_stage(f)
                .count("n")
        }),
    ]
    .boxed()
}

/// Builds the collection with the sidecar enabled *before* the writes,
/// then applies deletes and re-inserts so the columns under test were
/// maintained incrementally, not rebuilt.
fn build_collection(
    docs: Vec<Document>,
    delete_a: Option<i64>,
    extra: Vec<Document>,
) -> Collection {
    let c = Collection::new("columnar_equivalence");
    c.enable_columnar(["a", "b", "v"]);
    c.insert_many(docs).expect("insert");
    if let Some(k) = delete_a {
        c.delete_many(&Filter::eq("a", k));
    }
    c.insert_many(extra).expect("insert extra");
    c
}

fn assert_equiv(c: &Collection, p: &Pipeline) {
    let row = c.aggregate_with_mode(p, None, ExecMode::Streaming);
    let serial = c.aggregate_columnar_with(p, None, 1, 16);
    let par = c.aggregate_columnar_with(p, None, 4, 16);
    match (&row, &serial) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "streaming vs columnar: {:?}", p),
        (Err(a), Err(b)) => prop_assert_eq!(
            a.to_string(),
            b.to_string(),
            "error strings diverge: {:?}",
            p
        ),
        _ => prop_assert!(
            false,
            "divergent fallibility for {:?}: streaming {:?}, columnar {:?}",
            p,
            row.as_ref().map(|_| ()),
            serial.as_ref().map(|_| ())
        ),
    }
    match (&serial, &par) {
        (Ok(a), Ok(b)) => prop_assert_eq!(a, b, "serial vs parallel columnar: {:?}", p),
        (Err(a), Err(b)) => prop_assert_eq!(
            a.to_string(),
            b.to_string(),
            "parallel error strings diverge: {:?}",
            p
        ),
        _ => prop_assert!(
            false,
            "divergent fallibility for {:?}: serial {:?}, parallel {:?}",
            p,
            serial.as_ref().map(|_| ()),
            par.as_ref().map(|_| ())
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn columnar_agrees_with_streaming(
        docs in prop::collection::vec(arb_document(), 0..40),
        delete_a in opt((0..4i64).boxed()),
        extra in prop::collection::vec(arb_document(), 0..8),
        pipeline in arb_pipeline(),
    ) {
        let c = build_collection(docs, delete_a, extra);
        assert_equiv(&c, &pipeline);
    }
}

// ----- selection over columns vs the interpreted matcher ---------------

/// Scalars of every numeric width over one small colliding domain, so a
/// filter value meets cells of the other widths: `Int32(2)`, `Int64(2)`
/// and `Double(2.0)` are one value to the matcher.
fn arb_number() -> BoxedStrategy<Value> {
    prop_oneof![
        (0..4i32).prop_map(Value::Int32),
        (0..4i64).prop_map(Value::Int64),
        (0..8i64).prop_map(|n| Value::Double(n as f64 * 0.5)),
    ]
    .boxed()
}

fn arb_scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        3 => arb_number(),
        1 => "[xy]{0,2}".prop_map(Value::String),
        1 => Just(Value::Null),
    ]
    .boxed()
}

/// `d`: an embedded document, or an *array* of them — `d.x` then fans
/// out to an array (an exotic cell with array-any semantics).
fn arb_nested() -> BoxedStrategy<Value> {
    let sub = || (0..4i64).prop_map(|x| Value::Document(doc! {"x" => x}));
    prop_oneof![
        3 => sub(),
        1 => prop::collection::vec(sub(), 0..3).prop_map(Value::Array),
        1 => arb_scalar(),
    ]
    .boxed()
}

/// Documents whose columns are clean in places and exotic in others:
/// `i` integers of both widths, `f` doubles, `s` strings (each with
/// nulls and holes), `d.x` through documents and arrays, `m` anything.
fn arb_selection_doc() -> BoxedStrategy<Document> {
    let ints = prop_oneof![(0..4i32).prop_map(Value::Int32), (0..4i64).prop_map(Value::Int64)];
    let mixed = prop_oneof![
        3 => arb_scalar(),
        1 => prop::collection::vec(arb_number(), 0..3).prop_map(Value::Array),
        1 => arb_nested(),
    ];
    (
        opt(prop_oneof![4 => ints, 1 => Just(Value::Null)].boxed()),
        opt((0..8i64).prop_map(|n| Value::Double(n as f64 * 0.5)).boxed()),
        opt("[xy]{0,2}".prop_map(Value::String).boxed()),
        opt(arb_nested()),
        opt(mixed.boxed()),
    )
        .prop_map(|(i, f, s, d, m)| {
            let mut doc = Document::new();
            for (k, v) in [("i", i), ("f", f), ("s", s), ("d", d), ("m", m)] {
                if let Some(v) = v {
                    doc.set(k, v);
                }
            }
            doc
        })
        .boxed()
}

fn arb_selection_filter() -> BoxedStrategy<Filter> {
    let path = || {
        prop_oneof![
            Just("i".to_string()),
            Just("f".to_string()),
            Just("s".to_string()),
            Just("d.x".to_string()),
            Just("m".to_string()),
        ]
    };
    // `$in` lists: all-integer (the typed probe), or with doubles, nulls
    // and strings mixed in (the canonical probe).
    let list = || {
        prop_oneof![
            prop::collection::vec((0..4i64).prop_map(Value::Int64), 0..4),
            prop::collection::vec(arb_scalar(), 0..4),
        ]
    };
    let leaf = prop_oneof![
        (path(), arb_cmp_op(), arb_scalar())
            .prop_map(|(p, op, v)| Filter::Cmp { path: p, op, value: v }),
        (path(), list()).prop_map(|(p, vs)| Filter::is_in(p, vs)),
        (path(), list()).prop_map(|(p, vs)| Filter::not_in(p, vs)),
        path().prop_map(Filter::exists),
        path().prop_map(Filter::not_exists),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::and),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::or),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::Nor),
            inner.prop_map(Filter::not),
        ]
    })
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// What a filter selects over the columns — kernel chunks and
    /// row-fallback chunks alike, at chunk sizes that split the bitmap
    /// words unevenly, with dead and reused slots in between — is exactly
    /// what the interpreted matcher selects, in slot order.
    #[test]
    fn column_selection_equals_the_interpreted_matcher(
        docs in prop::collection::vec(arb_selection_doc(), 0..120),
        delete_i in opt((0..4i64).boxed()),
        extra in prop::collection::vec(arb_selection_doc(), 0..10),
        filter in arb_selection_filter(),
        chunk in prop_oneof![Just(1usize), Just(7), Just(64), Just(100), Just(4096)],
    ) {
        let c = Collection::new("selection");
        c.enable_columnar(["i", "f", "s", "d.x", "m"]);
        c.insert_many(docs).expect("insert");
        if let Some(k) = delete_i {
            c.delete_many(&Filter::eq("i", k));
        }
        c.insert_many(extra).expect("insert extra");

        let expected: Vec<Document> =
            c.all_docs().into_iter().filter(|d| matches(&filter, d)).collect();
        let p = Pipeline::new().match_stage(filter.clone());
        let selected = c.aggregate_columnar_with(&p, None, 1, chunk).expect("infallible");
        prop_assert_eq!(&selected, &expected, "columns vs matcher: {:?}", filter);
        // Whatever access path the planner picks serves the same rows.
        prop_assert_eq!(c.find(&filter), expected);
        prop_assert_eq!(c.count(&filter), selected.len());
    }
}

/// The mid-pipeline fallback shape as a pinned regression: a covered
/// `$match` on a declared column ANDed with a row-fallback `$match` on
/// an undeclared path, a group over the exotic-riddled column, and a
/// streaming sort epilogue — every layer of the hybrid plan in one
/// pipeline.
#[test]
fn hybrid_plan_layers_agree() {
    let c = Collection::new("hybrid");
    c.enable_columnar(["a", "v"]);
    c.insert_many((0..200).map(|i| {
        let mut d = doc! {"_id" => i as i64, "a" => (i % 5) as i64, "v" => (i % 7) as f64 * 0.5};
        if i % 11 == 0 {
            d.set("tag", Value::from("t"));
        }
        if i % 13 == 0 {
            // Exotic cells in `a` (arrays) sprinkle row-fallback chunks
            // through the vectorized scan.
            d.set("a", Value::Array(vec![Value::Int64(i as i64)]));
        }
        d
    }))
    .expect("insert");
    let p = Pipeline::new()
        .match_stage(Filter::gte("v", 1.0f64))
        .match_stage(Filter::not_exists("tag"))
        .group(
            GroupId::Expr(Expr::field("a")),
            [
                ("n", Accumulator::count()),
                ("s", Accumulator::sum_field("v")),
            ],
        )
        .sort([("n", -1)]);
    let row = c.aggregate_with_mode(&p, None, ExecMode::Streaming).expect("row");
    for (workers, chunk) in [(1, 16), (1, 1024), (4, 16), (8, 3)] {
        let col = c
            .aggregate_columnar_with(&p, None, workers, chunk)
            .expect("columnar");
        assert_eq!(col, row, "workers={workers} chunk={chunk}");
    }
}

/// `ExecMode::Columnar` on a collection with *no* sidecar is exactly
/// the streaming executor (whole-pipeline delegation).
#[test]
fn columnar_mode_without_sidecar_is_streaming() {
    let c = Collection::new("nosidecar");
    c.insert_many((0..50).map(|i| doc! {"_id" => i as i64, "k" => (i % 3) as i64}))
        .expect("insert");
    assert!(!c.columnar_enabled());
    let p = Pipeline::new()
        .match_stage(Filter::eq("k", 1i64))
        .count("n");
    let row = c.aggregate_with_mode(&p, None, ExecMode::Streaming).expect("row");
    let col = c.aggregate_with_mode(&p, None, ExecMode::Columnar).expect("columnar");
    assert_eq!(col, row);
    c.enable_columnar(["k"]);
    assert!(c.columnar_enabled());
    let col = c.aggregate_with_mode(&p, None, ExecMode::Columnar).expect("columnar");
    assert_eq!(col, row);
    c.disable_columnar();
    assert!(!c.columnar_enabled());
}

/// Updates rewrite sidecar cells in place: aggregate answers track the
/// post-update documents under every executor.
#[test]
fn updates_keep_sidecar_consistent() {
    use doclite_docstore::UpdateSpec;
    let c = Collection::new("upd");
    c.enable_columnar(["g", "v"]);
    c.insert_many((0..60).map(|i| doc! {"_id" => i as i64, "g" => (i % 3) as i64, "v" => i as i64}))
        .expect("insert");
    c.update(&Filter::eq("g", 1i64), &UpdateSpec::set("g", 9i64), false, true)
        .expect("update");
    c.delete_many(&Filter::eq("g", 2i64));
    let p = Pipeline::new().group(
        GroupId::Expr(Expr::field("g")),
        [("n", Accumulator::count()), ("s", Accumulator::sum_field("v"))],
    );
    let row = c.aggregate_with_mode(&p, None, ExecMode::Streaming).expect("row");
    let col = c.aggregate_columnar_with(&p, None, 1, 16).expect("columnar");
    assert_eq!(col, row);
    assert_eq!(row.len(), 2); // groups 0 and 9 remain
}
