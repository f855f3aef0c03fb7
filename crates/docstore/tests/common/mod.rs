//! Generators shared by the docstore property tests: documents over a
//! small colliding domain with nested documents, arrays (including
//! arrays of documents for multikey fan-out), nulls and missing fields;
//! filters and expressions that reference both present and absent dotted
//! paths, so the null-vs-missing and array-any rules are exercised on
//! both sides of every comparison.

#![allow(dead_code)] // each test binary uses its own subset

use doclite_bson::{doc, Document, Value};
use doclite_docstore::agg::Expr;
use doclite_docstore::{CmpOp, Filter};
use proptest::prelude::*;

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
    let leaf = prop_oneof![
        arb_scalar().prop_map(Expr::Literal),
        arb_path().prop_map(Expr::Field),
    ];
    leaf.prop_recursive(3, 24, 3, |inner| {
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
