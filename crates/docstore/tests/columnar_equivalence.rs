//! Property test: what a filter selects over the columns is what the
//! interpreted matcher selects over the documents.
//!
//! The document domain is adversarial for the sidecar: `i` integers of
//! both widths, `f` doubles, `s` strings (each with nulls and holes),
//! `d.x` through embedded documents *and arrays of them* (an exotic
//! cell with array-any semantics), `m` anything — so a chunk constantly
//! flips between the vectorized kernel and the exotic row fallback.
//! Collections take deletes (dead slots, free-list reuse) and
//! re-inserts before querying, exercising incremental sidecar
//! maintenance rather than the rebuild path. (Whole pipelines over
//! columns are `plan_vs_reference.rs`'s subject.)

mod common;

use common::{arb_cmp_op, opt};
use doclite_bson::{doc, Document, Value};
use doclite_docstore::query::matcher::matches;
use doclite_docstore::{Accumulator, Collection, Expr, Filter, GroupId, Pipeline};
use proptest::prelude::*;

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
    /// row-fallback chunks alike, with dead and reused slots in between
    /// — is exactly what the interpreted matcher selects, in slot order.
    /// The selection is read back through a covered `$group` that pushes
    /// the `_id` column, so no document is consulted on the way.
    #[test]
    fn column_selection_equals_the_interpreted_matcher(
        docs in prop::collection::vec(arb_selection_doc(), 0..120),
        delete_i in opt((0..4i64).boxed()),
        extra in prop::collection::vec(arb_selection_doc(), 0..10),
        filter in arb_selection_filter(),
    ) {
        let c = Collection::new("selection");
        c.enable_columnar(["_id", "i", "f", "s", "d.x", "m"]);
        let ids = |docs: Vec<Document>, from: i64| {
            docs.into_iter().zip(from..).map(|(mut d, id)| {
                d.set("_id", id);
                d
            })
        };
        c.insert_many(ids(docs, 0)).expect("insert");
        if let Some(k) = delete_i {
            c.delete_many(&Filter::eq("i", k));
        }
        c.insert_many(ids(extra, 1000)).expect("insert extra");

        let expected: Vec<Document> =
            c.all_docs().into_iter().filter(|d| matches(&filter, d)).collect();
        let p = Pipeline::new()
            .match_stage(filter.clone())
            .group(GroupId::Null, [("ids", Accumulator::Push(Expr::field("_id")))]);
        let explain = c.explain_aggregate(&p, None).expect("explain");
        prop_assert_eq!(explain.stages[1].decision.as_deref(), Some("COLUMNS"));
        let selected: Vec<Value> = match c.aggregate(&p).expect("infallible").first() {
            Some(group) => group.get("ids").and_then(Value::as_array).expect("ids").to_vec(),
            None => Vec::new(),
        };
        let expected_ids: Vec<Value> = expected.iter().map(|d| d.id().expect("_id").clone()).collect();
        prop_assert_eq!(&selected, &expected_ids, "columns vs matcher: {:?}", filter);
        // Whatever access path the planner picks serves the same rows.
        prop_assert_eq!(c.count(&filter), expected.len());
        prop_assert_eq!(c.find(&filter), expected);
    }
}

/// Updates and deletes rewrite sidecar cells in place: a covered
/// aggregate tracks the post-write documents.
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
    let sum = |g: i64| (0..60).filter(|i| i % 3 == g).sum::<i64>();
    assert_eq!(
        c.aggregate(&p).expect("covered"),
        vec![
            doc! {"_id" => 0i64, "n" => 20i64, "s" => sum(0)},
            doc! {"_id" => 9i64, "n" => 20i64, "s" => sum(1)},
        ]
    );
    c.disable_columnar();
    assert!(!c.columnar_enabled());
    assert_eq!(c.aggregate(&p).expect("streamed").len(), 2);
}
