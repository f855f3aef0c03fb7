//! Copy-on-write documents: a mutated clone never shows through to the
//! document it was cloned from, and behaves exactly like a deep copy.

use doclite_bson::{codec, Document, Value};
use proptest::prelude::*;

/// Field names from a small pool, so edits hit existing fields, their
/// embedded documents and `_id`.
fn arb_name() -> BoxedStrategy<String> {
    prop_oneof![Just("a"), Just("b"), Just("c"), Just("_id")].prop_map(str::to_owned).boxed()
}

fn arb_scalar() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Int64),
        "[a-z]{0,6}".prop_map(Value::String),
        any::<bool>().prop_map(Value::Bool),
    ]
    .boxed()
}

fn document_of(fields: Vec<(String, Value)>) -> Document {
    fields.into_iter().collect()
}

fn arb_value() -> BoxedStrategy<Value> {
    arb_scalar().prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..3).prop_map(Value::Array),
            prop::collection::vec((arb_name(), inner), 0..4)
                .prop_map(|fields| Value::Document(document_of(fields))),
        ]
    })
}

/// Documents whose fields are mostly embedded documents, which is where
/// a clone shares what an edit must not change.
fn arb_document() -> BoxedStrategy<Document> {
    let field = prop_oneof![
        1 => arb_value(),
        2 => prop::collection::vec((arb_name(), arb_value()), 0..4)
            .prop_map(|fields| Value::Document(document_of(fields))),
    ];
    prop::collection::vec((arb_name(), field), 0..5).prop_map(document_of).boxed()
}

#[derive(Clone, Debug)]
enum Op {
    Set(String, Value),
    Remove(String),
    /// Through `get_mut`: set a field of the embedded document there, or
    /// replace a non-document value.
    GetMut(String, String, Value),
    SetPath(String, Value),
    EnsureId,
}

fn arb_op() -> BoxedStrategy<Op> {
    let path = prop::collection::vec(arb_name(), 1..4).prop_map(|names| names.join("."));
    prop_oneof![
        (arb_name(), arb_value()).prop_map(|(k, v)| Op::Set(k, v)),
        arb_name().prop_map(Op::Remove),
        (arb_name(), arb_name(), arb_value()).prop_map(|(k, inner, v)| Op::GetMut(k, inner, v)),
        (path, arb_value()).prop_map(|(p, v)| Op::SetPath(p, v)),
        Just(Op::EnsureId),
    ]
    .boxed()
}

/// Applies `op`; an `_id` that `ensure_id` generates is returned so the
/// same value can be given to the other document.
fn apply(doc: &mut Document, op: &Op) -> Option<Value> {
    match op {
        Op::Set(k, v) => doc.set(k.as_str(), v.clone()),
        Op::Remove(k) => {
            doc.remove(k);
        }
        Op::GetMut(k, inner, v) => match doc.get_mut(k) {
            Some(Value::Document(d)) => d.set(inner.as_str(), v.clone()),
            Some(other) => *other = v.clone(),
            None => {}
        },
        Op::SetPath(p, v) => {
            doc.set_path(p, v.clone());
        }
        Op::EnsureId => return Some(doc.ensure_id()),
    }
    None
}

/// A copy that shares nothing with `doc`: every embedded document is
/// rebuilt field by field.
fn deep_copy(doc: &Document) -> Document {
    fn value(v: &Value) -> Value {
        match v {
            Value::Document(d) => Value::Document(deep_copy(d)),
            Value::Array(items) => Value::Array(items.iter().map(value).collect()),
            scalar => scalar.clone(),
        }
    }
    doc.iter().map(|(k, v)| (k.clone(), value(v))).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn an_edited_clone_leaves_its_original_and_matches_a_deep_copy(
        original in arb_document(),
        ops in prop::collection::vec(arb_op(), 1..8),
    ) {
        let bytes = codec::encode_document(&original);
        let mut clone = original.clone();
        let mut copy = deep_copy(&original);
        for op in &ops {
            let id = apply(&mut clone, op);
            if let (Some(id), Some(copied)) = (id, apply(&mut copy, op)) {
                if id != copied {
                    copy.set("_id", id);
                }
            }
            prop_assert_eq!(codec::encode_document(&original), bytes.clone(), "after {:?}", op);
        }
        prop_assert_eq!(&clone, &copy, "after {:?}", ops);
        prop_assert_eq!(codec::encode_document(&clone), codec::encode_document(&copy));
    }
}

#[test]
fn a_clone_shares_its_embedded_documents_until_one_is_edited() {
    let dim = doclite_bson::doc! {"city" => "Midway", "zip" => 35_709i64};
    let fact = doclite_bson::doc! {"_id" => 1i64, "addr" => dim.clone()};
    let mut edited = fact.clone();
    assert!(edited.set_path("addr.city", Value::from("Fairview")));
    assert_eq!(fact.get_path("addr.city"), Some(Value::from("Midway")));
    assert_eq!(dim.get("city"), Some(&Value::from("Midway")));
    assert_eq!(edited.get_path("addr.city"), Some(Value::from("Fairview")));
    assert_eq!(edited.get_path("addr.zip"), fact.get_path("addr.zip"));
}
