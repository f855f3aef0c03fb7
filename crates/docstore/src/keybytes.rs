//! The one key encoding: every index key, chunk bound, statistic and
//! join table is keyed on these bytes.
//!
//! A borrowed [`Value`] encodes into a flat byte string whose byte
//! order *is* canonical order:
//!
//! ```text
//! encode(a).cmp(&encode(b)) == a.canonical_cmp(&b)
//! encode(a) == encode(b)    ⇔  a.canonical_eq(&b)
//! ```
//!
//! so a `BTreeMap<Key, _>` orders like `canonical_cmp` with a `memcmp`
//! per comparison, and a reusable scratch buffer probes a
//! `HashMap<Key, _>` (or `HashMap<Box<[u8]>, _>`) without allocating or
//! cloning anything per document.
//!
//! The layout, MongoDB's KeyString idea on our type subset:
//! - the first byte is [`Value::canonical_rank`] + 1, so `0x00` is free
//!   to terminate strings, arrays and documents;
//! - numerics write their exact [`NumericKey`] normal form: a class byte
//!   (NaN, negative, zero, positive), then for a non-zero number its
//!   big-endian exponent and mantissa, so `Int32(1)`, `Int64(1)` and
//!   `Double(1.0)` share bytes and `i64` values past 2^53 stay distinct;
//! - a string (and a document's field name) writes its bytes with each
//!   `0x00` escaped as `0x00 0xFF`, then `0x00 0x00`;
//! - an array writes its elements, then `0x00`;
//! - a document writes each field as `0x01`, the escaped name and the
//!   value, then `0x00` — field by field, the shorter document first,
//!   as `canonical_cmp` orders them;
//! - `Bool` is one byte, `ObjectId` its 12 raw bytes, and `DateTime` a
//!   big-endian `i64` with its sign bit flipped.
//!
//! Every encoding is self-delimiting, so a compound key — its fields'
//! encodings concatenated — orders as the tuple of its values, and all
//! keys whose first field is `v` lie in `[enc(v), enc(v) + 0xFF)`
//! ([`Key::prefix_end`]): a value's encoding is never followed by `0xFF`
//! inside a key.
//!
//! There is no decoder, by design: canonically equal values share bytes,
//! so `Int64(1)` could not be told from `Double(1.0)`. Where a key must
//! be shown or persisted (the stats document, a `DuplicateId` message,
//! group output) the [`Value`] it came from is kept beside it.

use doclite_bson::{Document, NumericKey, Value};
use std::borrow::Borrow;

/// Terminates an array or a document; with a second `0x00`, a string.
const END: u8 = 0x00;
/// Opens each field of a document.
const FIELD: u8 = 0x01;
/// Follows an escaped `0x00` inside a string.
const ESCAPED_NUL: u8 = 0xFF;

/// A key in the canonical byte encoding: one value's, or a compound
/// key's (its fields' encodings concatenated). Ordered, hashed and
/// compared as bytes.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(Box<[u8]>);

impl Key {
    /// The key of one value.
    pub fn of(v: &Value) -> Key {
        Self::from_values([v])
    }

    /// The compound key of `values`, in order.
    pub fn from_values<'a>(values: impl IntoIterator<Item = &'a Value>) -> Key {
        let mut out = Vec::new();
        for v in values {
            encode_value(v, &mut out);
        }
        Key(out.into_boxed_slice())
    }

    /// The encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.0
    }

    /// The key just above every key that starts with this one's bytes:
    /// `[k, k.prefix_end())` is every compound key whose leading fields
    /// are `k`'s values.
    pub fn prefix_end(&self) -> Key {
        let mut out = Vec::with_capacity(self.0.len() + 1);
        out.extend_from_slice(&self.0);
        out.push(0xFF);
        Key(out.into_boxed_slice())
    }
}

impl Borrow<[u8]> for Key {
    fn borrow(&self) -> &[u8] {
        &self.0
    }
}

/// Appends the canonical encoding of `v` to `out`.
pub fn encode_value(v: &Value, out: &mut Vec<u8>) {
    if let Value::Document(d) = v {
        return encode_document(d, out);
    }
    out.push(v.canonical_rank() + 1);
    match v {
        Value::Null => {}
        Value::Int32(_) | Value::Int64(_) | Value::Double(_) => {
            match NumericKey::of(v).expect("numeric") {
                NumericKey::Nan => out.push(0),
                NumericKey::Negative { ck, cm } => {
                    out.push(1);
                    out.extend_from_slice(&ck.to_be_bytes());
                    out.extend_from_slice(&cm.to_be_bytes());
                }
                NumericKey::Zero => out.push(2),
                NumericKey::Positive { k, m } => {
                    out.push(3);
                    out.extend_from_slice(&k.to_be_bytes());
                    out.extend_from_slice(&m.to_be_bytes());
                }
            }
        }
        Value::String(s) => encode_str(s, out),
        Value::Array(items) => {
            for item in items {
                encode_value(item, out);
            }
            out.push(END);
        }
        Value::Bool(b) => out.push(u8::from(*b)),
        Value::ObjectId(oid) => out.extend_from_slice(oid.bytes()),
        Value::DateTime(ms) => out.extend_from_slice(&((*ms as u64) ^ (1 << 63)).to_be_bytes()),
        Value::Document(_) => unreachable!("encoded above"),
    }
}

/// Escapes each `0x00` as `0x00 0xFF` and terminates with `0x00 0x00`,
/// which sorts a string before every extension of it.
fn encode_str(s: &str, out: &mut Vec<u8>) {
    let mut parts = s.as_bytes().split(|&b| b == 0);
    out.extend_from_slice(parts.next().unwrap_or_default());
    for part in parts {
        out.extend_from_slice(&[0, ESCAPED_NUL]);
        out.extend_from_slice(part);
    }
    out.extend_from_slice(&[END, END]);
}

/// Clears `scratch` and encodes `v` into it — the per-document probe
/// pattern: one buffer reused across the whole stream.
pub fn encode_into(v: &Value, scratch: &mut Vec<u8>) {
    scratch.clear();
    encode_value(v, scratch);
}

/// Encodes a whole document as if it were `Value::Document` without
/// cloning it into one.
pub fn encode_document(d: &Document, out: &mut Vec<u8>) {
    /// A document's [`Value::canonical_rank`] + 1.
    const DOCUMENT: u8 = 4;
    out.push(DOCUMENT);
    for (k, val) in d.iter() {
        out.push(FIELD);
        encode_str(k, out);
        encode_value(val, out);
    }
    out.push(END);
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::{array, doc, ObjectId};
    use proptest::prelude::*;
    use std::cmp::Ordering;

    fn enc(v: &Value) -> Vec<u8> {
        Key::of(v).as_bytes().to_vec()
    }

    #[test]
    fn numeric_types_unify() {
        assert_eq!(enc(&Value::Int32(1)), enc(&Value::Int64(1)));
        assert_eq!(enc(&Value::Int64(1)), enc(&Value::Double(1.0)));
        assert_eq!(enc(&Value::Double(0.0)), enc(&Value::Double(-0.0)));
        assert_ne!(enc(&Value::Int64(1)), enc(&Value::Int64(2)));
    }

    #[test]
    fn nan_is_canonical() {
        let a = enc(&Value::Double(f64::NAN));
        let b = enc(&Value::Double(-f64::NAN));
        assert_eq!(a, b);
        assert_ne!(a, enc(&Value::Double(1.0)));
    }

    #[test]
    fn structural_prefixes_cannot_collide() {
        // Same flattened content, different structure.
        assert_ne!(enc(&array![1i64, 2i64]), enc(&array![array![1i64, 2i64]]));
        assert_ne!(
            enc(&Value::from("ab")),
            enc(&Value::Array(vec![Value::from("a"), Value::from("b")]))
        );
        assert_ne!(
            enc(&Value::Document(doc! {"a" => 1i64})),
            enc(&Value::Document(doc! {"a" => 1i64, "b" => 1i64}))
        );
        assert_ne!(enc(&Value::from("a\0")), enc(&Value::from("a")));
    }

    #[test]
    fn document_encoding_matches_wrapped_value() {
        let d = doc! {"a" => 1i64, "b" => "x"};
        let mut direct = Vec::new();
        encode_document(&d, &mut direct);
        assert_eq!(direct, enc(&Value::Document(d)));
    }

    #[test]
    fn first_field_ranges_are_prefix_spans() {
        let k = |a: Value, b: Value| Key::from_values([&a, &b]);
        let head = Key::of(&Value::Int64(2));
        for tail in [Value::Null, Value::Int64(i64::MIN), Value::from(""), Value::DateTime(i64::MAX)] {
            let key = k(Value::Int64(2), tail);
            assert!(head <= key && key < head.prefix_end(), "{key:?}");
        }
        assert!(k(Value::Int64(1), Value::DateTime(i64::MAX)) < head);
        assert!(head.prefix_end() < k(Value::Int64(3), Value::Null));
    }

    /// Extreme integers around the f64-precision cliff: under the old
    /// f64-unified encoding each ± pair below collided with its
    /// neighbour, so the generator must keep them in circulation.
    fn extreme_ints() -> impl Strategy<Value = i64> {
        const BIG: i64 = 1 << 53;
        prop_oneof![
            Just(i64::MIN),
            Just(i64::MIN + 1),
            Just(i64::MAX - 1),
            Just(i64::MAX),
            Just(-BIG - 1),
            Just(-BIG),
            Just(-BIG + 1),
            Just(BIG - 1),
            Just(BIG),
            Just(BIG + 1),
        ]
    }

    /// One value of every type rank, at the edges: `±2^53 ± 1`,
    /// `i64::MIN/MAX`, NaN, `-0.0`, subnormals, strings holding `\0`,
    /// both ends of the `DateTime` and `ObjectId` ranges.
    fn arb_leaf() -> BoxedStrategy<Value> {
        prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            (-3i32..4).prop_map(Value::Int32),
            (-3i64..4).prop_map(Value::Int64),
            extreme_ints().prop_map(Value::Int64),
            (-3i64..4).prop_map(|n| Value::Double(n as f64)),
            extreme_ints().prop_map(|n| Value::Double(n as f64)),
            (0.0f64..2.0).prop_map(Value::Double),
            Just(Value::Double(f64::NAN)),
            Just(Value::Double(-0.0)),
            Just(Value::Double(f64::MIN_POSITIVE / 4.0)), // subnormal
            Just(Value::Double(-f64::MIN_POSITIVE / 4.0)),
            "[ab\0]{0,3}".prop_map(Value::from),
            (-100i64..100).prop_map(Value::DateTime),
            prop_oneof![Just(i64::MIN), Just(-1i64), Just(0i64), Just(i64::MAX)]
                .prop_map(Value::DateTime),
            prop_oneof![Just(0u8), Just(7u8), Just(0xFFu8)]
                .prop_map(|b| Value::ObjectId(ObjectId::from_bytes([b; 12]))),
        ]
        .boxed()
    }

    /// Leaves, and arrays and documents of them nested three deep, with
    /// empty field names and names holding `\0`.
    fn arb_value() -> BoxedStrategy<Value> {
        arb_leaf()
            .prop_recursive(3, 24, 4, |inner| {
                prop_oneof![
                    prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                    prop::collection::vec(("[ab\0]{0,2}", inner), 0..4)
                        .prop_map(|kvs| Value::Document(kvs.into_iter().collect())),
                ]
            })
            .boxed()
    }

    /// A compound-key field: mostly short strings over `{a, \0}`, so
    /// that one field is often a `\0`-extension of the other and the
    /// field after it decides whether the string's end was encoded as
    /// an end.
    fn arb_field() -> BoxedStrategy<Value> {
        prop_oneof![2 => "[a\0]{0,2}".prop_map(Value::from), 1 => arb_value()].boxed()
    }

    fn arb_numeric() -> BoxedStrategy<Value> {
        prop_oneof![
            any::<i32>().prop_map(Value::Int32),
            any::<i64>().prop_map(Value::Int64),
            extreme_ints().prop_map(Value::Int64),
            extreme_ints().prop_map(|n| Value::Double(n as f64)),
            any::<f64>().prop_map(Value::Double),
            (-1e18f64..1e18).prop_map(Value::Double),
            Just(Value::Double(f64::NAN)),
            Just(Value::Double(f64::INFINITY)),
            Just(Value::Double(f64::NEG_INFINITY)),
            Just(Value::Double(-0.0)),
            Just(Value::Double(f64::MIN_POSITIVE / 4.0)), // subnormal
        ]
        .boxed()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1024))]

        /// The oracle: byte order is canonical order, and byte equality
        /// is canonical equality, over every type rank and nesting.
        #[test]
        fn byte_order_is_canonical_order(a in arb_value(), b in arb_value()) {
            let canonical = a.canonical_cmp(&b);
            prop_assert_eq!(enc(&a).cmp(&enc(&b)), canonical, "a={:?} b={:?}", a, b);
            prop_assert_eq!(enc(&a) == enc(&b), a.canonical_eq(&b), "a={:?} b={:?}", a, b);
        }

        /// The same over unnested values, where two values of one rank
        /// meet far more often.
        #[test]
        fn leaf_byte_order_is_canonical_order(a in arb_leaf(), b in arb_leaf()) {
            let canonical = a.canonical_cmp(&b);
            prop_assert_eq!(enc(&a).cmp(&enc(&b)), canonical, "a={:?} b={:?}", a, b);
            prop_assert_eq!(enc(&a) == enc(&b), a.canonical_eq(&b), "a={:?} b={:?}", a, b);
        }

        /// A compound key — its fields' encodings concatenated — orders
        /// as the tuple of its values.
        #[test]
        fn compound_keys_order_as_tuples(
            a in prop::collection::vec(arb_field(), 1..4),
            b in prop::collection::vec(arb_field(), 1..4),
        ) {
            let tuple = a
                .iter()
                .zip(&b)
                .map(|(x, y)| x.canonical_cmp(y))
                .find(|c| *c != Ordering::Equal)
                .unwrap_or_else(|| a.len().cmp(&b.len()));
            prop_assert_eq!(Key::from_values(&a).cmp(&Key::from_values(&b)), tuple);
        }

        /// Within the numeric family the order holds over the whole
        /// `i64` / `f64` range, past 2^53 where an f64 collapse would
        /// lose resolution.
        #[test]
        fn numeric_byte_order_is_canonical_order(
            a in arb_numeric(),
            b in arb_numeric(),
        ) {
            let byte_ord = enc(&a).cmp(&enc(&b));
            let canonical = a.canonical_cmp(&b);
            prop_assert_eq!(byte_ord, canonical, "a={:?} b={:?}", a, b);
        }
    }

    #[test]
    fn large_integers_get_distinct_keys() {
        assert_ne!(enc(&Value::Int64(i64::MAX)), enc(&Value::Int64(i64::MAX - 1)));
        assert_ne!(
            enc(&Value::Int64((1 << 53) + 1)),
            enc(&Value::Double((1i64 << 53) as f64))
        );
        assert_eq!(
            enc(&Value::Int64(1 << 53)),
            enc(&Value::Double((1i64 << 53) as f64))
        );
        assert_ne!(enc(&Value::Int64(i64::MIN)), enc(&Value::Int64(i64::MIN + 1)));
    }
}
