//! Generators shared by the docstore property tests: documents over a
//! small colliding domain with nested documents, arrays (including
//! arrays of documents for multikey fan-out), nulls and missing fields;
//! filters and expressions that reference both present and absent dotted
//! paths, so the null-vs-missing and array-any rules are exercised on
//! both sides of every comparison.

#![allow(dead_code)] // each test binary uses its own subset

use doclite_bson::{doc, json::to_json, Document, Value};
use doclite_docstore::agg::Expr;
use doclite_docstore::{Accumulator, CmpOp, Filter, GroupId, Pipeline, ProjectField, Stage};
use proptest::prelude::*;
use proptest::strategy::Union;

/// Scalar values over a domain small enough that equality, set probes,
/// and range endpoints all collide, mixing numeric types so the
/// canonical numeric unification (Int32 == 1.0 etc.) is load-bearing.
pub fn arb_scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        (0..4i32).prop_map(Value::Int32),
        (0..4i64).prop_map(Value::Int64),
        (0..4u8).prop_map(|n| Value::Double(f64::from(n))),
        Just(Value::Double(1.5)),
        // Integers past the f64-precision cliff: neighbours here used
        // to collide through the lossy `as_f64` unification, so keep
        // them circulating through every comparison path.
        extreme_int().prop_map(Value::Int64),
        extreme_int().prop_map(|n| Value::Double(n as f64)),
        "[xy]{0,2}".prop_map(Value::String),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

/// ±2^53±1 and the i64 endpoints — the collision class of the old
/// f64-unified numeric comparison.
pub fn extreme_int() -> BoxedStrategy<i64> {
    const BIG: i64 = 1 << 53;
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

/// A document value: scalars, arrays of scalars, and arrays of
/// single-field documents (the multikey dotted-path shape).
pub fn arb_field_value() -> BoxedStrategy<Value> {
    prop_oneof![
        arb_scalar(),
        arb_scalar(),
        prop::collection::vec(arb_scalar(), 0..4).prop_map(Value::Array),
        prop::collection::vec(arb_scalar(), 0..3).prop_map(|vs| {
            Value::Array(vs.into_iter().map(|v| Value::Document(doc! {"c" => v})).collect())
        }),
    ]
    .boxed()
}

/// Documents with top-level fields `a`/`b`, a nested `n.c`, and each
/// field independently missing so null-vs-missing paths are common.
/// `Some`/`None` with equal weight (the vendored proptest has no
/// `prop::option` module).
pub fn opt<T: Clone + 'static>(s: BoxedStrategy<T>) -> BoxedStrategy<Option<T>> {
    prop_oneof![Just(None), s.prop_map(Some)].boxed()
}

pub fn arb_document() -> BoxedStrategy<Document> {
    (
        opt(arb_field_value()),
        opt(arb_field_value()),
        opt(arb_scalar()),
    )
        .prop_map(|(a, b, c)| {
            let mut d = Document::new();
            if let Some(v) = a {
                d.set("a", v);
            }
            if let Some(v) = b {
                d.set("b", v);
            }
            if let Some(v) = c {
                d.set("n", Value::Document(doc! {"c" => v}));
            }
            d
        })
        .boxed()
}

/// Paths the filters probe: present scalars, nested fields, multikey
/// dotted paths through arrays of documents, and never-present fields.
pub fn arb_path() -> BoxedStrategy<String> {
    prop_oneof![
        Just("a".to_string()),
        Just("b".to_string()),
        Just("n.c".to_string()),
        Just("a.c".to_string()),
        Just("missing".to_string()),
        Just("n.missing".to_string()),
    ]
    .boxed()
}

pub fn arb_cmp_op() -> BoxedStrategy<CmpOp> {
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

/// The leaves of [`arb_filter`] on their own. The vendored
/// `prop_recursive` returns a top-level leaf only 2^-depth of the time,
/// so a property over [`arb_filter`] rarely compares two plain leaves;
/// each such property has a companion over this strategy.
pub fn arb_leaf_filter() -> BoxedStrategy<Filter> {
    prop_oneof![
        (arb_path(), arb_cmp_op(), arb_field_value())
            .prop_map(|(p, op, v)| Filter::Cmp { path: p, op, value: v }),
        (arb_path(), prop::collection::vec(arb_scalar(), 0..5))
            .prop_map(|(p, vs)| Filter::is_in(p, vs)),
        (arb_path(), prop::collection::vec(arb_scalar(), 0..5))
            .prop_map(|(p, vs)| Filter::not_in(p, vs)),
        arb_path().prop_map(Filter::exists),
        arb_path().prop_map(Filter::not_exists),
    ]
    .boxed()
}

pub fn arb_filter() -> BoxedStrategy<Filter> {
    arb_leaf_filter()
        .prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::and),
                prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::or),
                prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::Nor),
                inner.prop_map(Filter::not),
            ]
        })
        .boxed()
}

/// Expressions over the same paths, covering every constructor the
/// kernel mirrors — including the fallible numeric and string ops so
/// error behaviour is compared, not just success values.
pub fn arb_expr() -> BoxedStrategy<Expr> {
    arb_leaf_expr().prop_recursive(3, 24, 3, |inner| {
        prop_oneof![
            prop::collection::vec(("[kq]", inner.clone()), 1..3)
                .prop_map(|fs| Expr::Doc(fs.into_iter().collect())),
            (inner.clone(), inner.clone(), inner.clone())
                .prop_map(|(c, t, o)| Expr::cond(c, t, o)),
            (arb_cmp_op(), inner.clone(), inner.clone())
                .prop_map(|(op, a, b)| Expr::cmp(op, a, b)),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Expr::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Expr::Or),
            inner.clone().prop_map(|e| Expr::Not(Box::new(e))),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Expr::Add),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::subtract(a, b)),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Expr::Multiply),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| Expr::divide(a, b)),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::In(Box::new(a), Box::new(b))),
            (inner.clone(), inner.clone())
                .prop_map(|(a, b)| Expr::IfNull(Box::new(a), Box::new(b))),
            prop::collection::vec(inner, 1..3).prop_map(Expr::Concat),
        ]
    })
    .boxed()
}

/// The leaves of [`arb_expr`] on their own, for the reason given at
/// [`arb_leaf_filter`].
pub fn arb_leaf_expr() -> BoxedStrategy<Expr> {
    prop_oneof![arb_scalar().prop_map(Expr::Literal), arb_path().prop_map(Expr::Field)].boxed()
}

// ---- pipelines -------------------------------------------------------
//
// Documents × pipelines over all ten stages, with fallible `$project` /
// `$group` keys, `$lookup` into `dim` and a `$out` in any position: the
// generator `plan_vs_reference.rs` holds the aggregation driver to the
// reference interpreter with, and `sharding/tests/aggregate_legs.rs`
// holds the router to `Database::aggregate` with.

/// [`arb_document`]'s documents (`a` and `n.c` hold anything) with `b` replaced
/// by a small integer or nothing — what sums, the index and `dim.k`
/// read — `xs` in every `$unwind` input shape, and a `tag`.
pub fn arb_doc() -> BoxedStrategy<Document> {
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
pub fn fallible_inc() -> Expr {
    Expr::Add(vec![Expr::field("xs"), Expr::lit(1i64)])
}

/// `ordered` pipelines may depend on the order documents arrive in
/// (`$first`, `$push`, first-seen group representatives, which error
/// comes first, `$skip` / `$limit`); the others may not.
pub fn arb_group(ordered: bool) -> BoxedStrategy<Stage> {
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

pub fn include(paths: &[&str]) -> Vec<(String, ProjectField)> {
    paths.iter().map(|p| (p.to_string(), ProjectField::Include)).collect()
}

pub fn arb_project(ordered: bool) -> BoxedStrategy<Stage> {
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

pub fn arb_sort() -> BoxedStrategy<Stage> {
    prop_oneof![
        Just(vec![("a", 1)]),
        Just(vec![("b", -1), ("a", 1)]),
        Just(vec![("tag", 1), ("n.c", -1)]),
        Just(vec![("n", -1), ("_id", 1)]),
    ]
    .prop_map(|spec| Stage::Sort(spec.into_iter().map(|(p, d)| (p.to_string(), d)).collect()))
    .boxed()
}

pub fn arb_stage(ordered: bool) -> BoxedStrategy<Stage> {
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
pub fn arb_pipeline(ordered: bool) -> BoxedStrategy<Pipeline> {
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
pub fn arb_dim() -> BoxedStrategy<Vec<Document>> {
    let k = prop_oneof![
        3 => (0..4i64).prop_map(Value::Int64),
        2 => arb_scalar(),
        1 => prop::collection::vec(arb_scalar(), 0..3).prop_map(Value::Array),
    ];
    prop::collection::vec(opt(k.boxed()), 0..8).prop_map(dim_docs).boxed()
}

pub fn dim_docs(ks: Vec<Option<Value>>) -> Vec<Document> {
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

/// Documents as sorted JSON strings: equality regardless of order.
pub fn multiset(docs: Vec<Document>) -> Vec<String> {
    let mut v: Vec<String> = docs.iter().map(to_json).collect();
    v.sort();
    v
}
