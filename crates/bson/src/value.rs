//! The dynamic value type and its canonical cross-type ordering.

use crate::{Document, ObjectId};
use std::cmp::Ordering;

/// A dynamically typed value, mirroring the BSON types the thesis's
/// workload uses: null, booleans, 32/64-bit integers, doubles, strings,
/// millisecond datetimes, ObjectIds, arrays, and embedded documents.
#[derive(Clone, Debug, PartialEq)]
pub enum Value {
    Null,
    Bool(bool),
    Int32(i32),
    Int64(i64),
    Double(f64),
    String(String),
    /// Milliseconds since the Unix epoch (`ISODate` in mongo shell terms).
    DateTime(i64),
    ObjectId(ObjectId),
    Array(Vec<Value>),
    Document(Document),
}

impl Value {
    /// Canonical type rank used for cross-type comparisons, following
    /// MongoDB's BSON comparison order: Null < Numbers < String <
    /// Document < Array < Bool < ObjectId < DateTime. (The subset of
    /// types we implement.)
    pub fn canonical_rank(&self) -> u8 {
        match self {
            Value::Null => 0,
            Value::Int32(_) | Value::Int64(_) | Value::Double(_) => 1,
            Value::String(_) => 2,
            Value::Document(_) => 3,
            Value::Array(_) => 4,
            Value::Bool(_) => 5,
            Value::ObjectId(_) => 6,
            Value::DateTime(_) => 7,
        }
    }

    /// Returns the value's numeric content as `f64` if it is numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match *self {
            Value::Int32(i) => Some(f64::from(i)),
            Value::Int64(i) => Some(i as f64),
            Value::Double(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the value as `i64` if it is an integer (or an integral
    /// double).
    pub fn as_i64(&self) -> Option<i64> {
        match *self {
            Value::Int32(i) => Some(i64::from(i)),
            Value::Int64(i) => Some(i),
            Value::Double(d) if d.fract() == 0.0 && d.is_finite() => Some(d as i64),
            _ => None,
        }
    }

    /// Returns the string slice if this is a string value.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::String(s) => Some(s),
            _ => None,
        }
    }

    /// Returns the boolean if this is a boolean value.
    pub fn as_bool(&self) -> Option<bool> {
        match *self {
            Value::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// Returns the embedded document, if any.
    pub fn as_document(&self) -> Option<&Document> {
        match self {
            Value::Document(d) => Some(d),
            _ => None,
        }
    }

    /// Returns the array elements, if any.
    pub fn as_array(&self) -> Option<&[Value]> {
        match self {
            Value::Array(a) => Some(a),
            _ => None,
        }
    }

    /// True if the value is `Null`.
    pub fn is_null(&self) -> bool {
        matches!(self, Value::Null)
    }

    /// True if the value is numeric (Int32/Int64/Double).
    pub fn is_numeric(&self) -> bool {
        matches!(self, Value::Int32(_) | Value::Int64(_) | Value::Double(_))
    }

    /// Truthiness as used by aggregation expressions (`$cond`): everything
    /// is truthy except `Null`, `false`, and numeric zero.
    pub fn is_truthy(&self) -> bool {
        match *self {
            Value::Null => false,
            Value::Bool(b) => b,
            Value::Int32(i) => i != 0,
            Value::Int64(i) => i != 0,
            Value::Double(d) => d != 0.0,
            _ => true,
        }
    }

    /// A short name of the value's type for error messages.
    pub fn type_name(&self) -> &'static str {
        match self {
            Value::Null => "null",
            Value::Bool(_) => "bool",
            Value::Int32(_) => "int32",
            Value::Int64(_) => "int64",
            Value::Double(_) => "double",
            Value::String(_) => "string",
            Value::DateTime(_) => "datetime",
            Value::ObjectId(_) => "objectId",
            Value::Array(_) => "array",
            Value::Document(_) => "document",
        }
    }

    /// Total order across all values: types compare by canonical rank, and
    /// values of comparable types (all numerics are mutually comparable)
    /// compare by content. NaN sorts below all other doubles, making the
    /// order total — a requirement for B-tree index keys.
    pub fn canonical_cmp(&self, other: &Value) -> Ordering {
        let (ra, rb) = (self.canonical_rank(), other.canonical_rank());
        if ra != rb {
            return ra.cmp(&rb);
        }
        match (self, other) {
            (Value::Null, Value::Null) => Ordering::Equal,
            (a, b) if a.is_numeric() && b.is_numeric() => numeric_cmp(a, b),
            (Value::String(a), Value::String(b)) => a.cmp(b),
            (Value::Document(a), Value::Document(b)) => doc_cmp(a, b),
            (Value::Array(a), Value::Array(b)) => {
                for (x, y) in a.iter().zip(b.iter()) {
                    let c = x.canonical_cmp(y);
                    if c != Ordering::Equal {
                        return c;
                    }
                }
                a.len().cmp(&b.len())
            }
            (Value::Bool(a), Value::Bool(b)) => a.cmp(b),
            (Value::ObjectId(a), Value::ObjectId(b)) => a.cmp(b),
            (Value::DateTime(a), Value::DateTime(b)) => a.cmp(b),
            _ => unreachable!("equal ranks imply same comparison family"),
        }
    }

    /// Equality under the canonical order (so `Int32(1) == Int64(1)` —
    /// match-language equality is numeric-type-insensitive, like MongoDB).
    pub fn canonical_eq(&self, other: &Value) -> bool {
        self.canonical_cmp(other) == Ordering::Equal
    }
}

/// Total order over f64 with NaN smallest; -0.0 and 0.0 compare equal.
fn total_f64_cmp(a: f64, b: f64) -> Ordering {
    match (a.is_nan(), b.is_nan()) {
        (true, true) => Ordering::Equal,
        (true, false) => Ordering::Less,
        (false, true) => Ordering::Greater,
        (false, false) => a.partial_cmp(&b).expect("non-NaN doubles compare"),
    }
}

/// The integer content of a numeric value, `None` for doubles.
fn int_of(v: &Value) -> Option<i64> {
    match *v {
        Value::Int32(i) => Some(i64::from(i)),
        Value::Int64(i) => Some(i),
        _ => None,
    }
}

/// Exact comparison of two numerics: integers compare as `i64`, doubles
/// as doubles, and the mixed case compares the exact mathematical
/// values — an `i64` is never rounded through `f64` first, so
/// `i64::MAX` and `i64::MAX - 1` stay distinct (they both used to
/// collapse to 2^63).
fn numeric_cmp(a: &Value, b: &Value) -> Ordering {
    match (int_of(a), int_of(b)) {
        (Some(x), Some(y)) => x.cmp(&y),
        (Some(x), None) => cmp_i64_f64(x, b.as_f64().expect("numeric")),
        (None, Some(y)) => cmp_i64_f64(y, a.as_f64().expect("numeric")).reverse(),
        (None, None) => {
            total_f64_cmp(a.as_f64().expect("numeric"), b.as_f64().expect("numeric"))
        }
    }
}

/// 2^63 as f64, exactly representable; every finite double with
/// `|d| < I64_BOUND_F` truncates to a value `i64` can hold.
const I64_BOUND_F: f64 = 9_223_372_036_854_775_808.0;

/// Exact `i64` vs `f64` comparison (NaN smallest, -0.0 == 0).
fn cmp_i64_f64(i: i64, f: f64) -> Ordering {
    if f.is_nan() {
        return Ordering::Greater;
    }
    if f >= I64_BOUND_F {
        return Ordering::Less;
    }
    if f < -I64_BOUND_F {
        return Ordering::Greater;
    }
    // f is finite in [-2^63, 2^63); its truncation is exactly
    // representable both as f64 and as i64.
    let ft = f.trunc();
    match i.cmp(&(ft as i64)) {
        // Equal integer parts: the fractional remainder decides.
        Ordering::Equal => ft.partial_cmp(&f).expect("finite doubles compare"),
        ord => ord,
    }
}

/// Exact total-order key for numeric values: the sign class plus a
/// normalized base-2 (exponent, mantissa) pair that represents the
/// mathematical value exactly for every `i64` and every finite `f64`.
///
/// The magnitude is written `m × 2^k` with the mantissa `m` normalized
/// so its top bit is set (`m ∈ [2^63, 2^64)`); magnitudes then order
/// lexicographically by `(k, m)`. Negative values store the bitwise
/// complements of both fields so the *derived* ordering — variant rank
/// first, then fields — is the canonical numeric order, and a
/// big-endian dump of the fields is byte-order-preserving. Key equality
/// is exactly [`Value::canonical_eq`] restricted to numerics, which is
/// what makes this the shared normal form for hash keys and key-byte
/// encodings: `i64::MAX` and `2^63 as f64` get distinct keys where an
/// `as f64` round-trip would collide them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum NumericKey {
    /// NaN sorts below every other number.
    Nan,
    /// Fields are complements of the positive encoding so more-negative
    /// values sort (and byte-compare) first.
    Negative { ck: u16, cm: u64 },
    /// All of `0i32/0i64/0.0/-0.0`.
    Zero,
    Positive { k: u16, m: u64 },
}

/// Bias added to the normalized exponent so it fits an ordered `u16`:
/// `k` ranges over `[-1137, 960]` (subnormal doubles at the bottom,
/// `f64::MAX` at the top).
const NUMKEY_EXP_BIAS: i32 = 1137;

impl NumericKey {
    /// The key for a numeric value; `None` for non-numerics.
    pub fn of(v: &Value) -> Option<NumericKey> {
        match *v {
            Value::Int32(i) => Some(Self::from_int(i64::from(i))),
            Value::Int64(i) => Some(Self::from_int(i)),
            Value::Double(d) => Some(Self::from_f64(d)),
            _ => None,
        }
    }

    fn from_int(i: i64) -> NumericKey {
        if i == 0 {
            return NumericKey::Zero;
        }
        Self::from_parts(i < 0, i.unsigned_abs(), 0)
    }

    fn from_f64(d: f64) -> NumericKey {
        if d.is_nan() {
            return NumericKey::Nan;
        }
        if d == 0.0 {
            return NumericKey::Zero; // collapses -0.0
        }
        let bits = d.abs().to_bits();
        let raw_exp = (bits >> 52) as i32;
        let frac = bits & ((1u64 << 52) - 1);
        // Normal doubles carry the implicit leading bit; subnormals
        // (raw exponent 0) are `frac × 2^-1074` directly.
        let (mant, exp) = if raw_exp == 0 {
            (frac, -1074)
        } else {
            (frac | (1u64 << 52), raw_exp - 1023 - 52)
        };
        Self::from_parts(d < 0.0, mant, exp)
    }

    /// Builds the key for `±mant × 2^exp` with `mant != 0`.
    fn from_parts(neg: bool, mant: u64, exp: i32) -> NumericKey {
        let shift = mant.leading_zeros() as i32;
        let m = mant << shift;
        let k = (exp - shift + NUMKEY_EXP_BIAS) as u16;
        if neg {
            NumericKey::Negative { ck: !k, cm: !m }
        } else {
            NumericKey::Positive { k, m }
        }
    }
}

/// Documents compare field-by-field in insertion order: first by key, then
/// by value, shorter document first on a shared prefix.
fn doc_cmp(a: &Document, b: &Document) -> Ordering {
    for ((ka, va), (kb, vb)) in a.iter().zip(b.iter()) {
        let c = ka.cmp(kb);
        if c != Ordering::Equal {
            return c;
        }
        let c = va.canonical_cmp(vb);
        if c != Ordering::Equal {
            return c;
        }
    }
    a.len().cmp(&b.len())
}

impl From<bool> for Value {
    fn from(v: bool) -> Self {
        Value::Bool(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Self {
        Value::Int32(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Self {
        Value::Int64(v)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Self {
        Value::Double(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Self {
        Value::String(v.to_owned())
    }
}
impl From<String> for Value {
    fn from(v: String) -> Self {
        Value::String(v)
    }
}
impl From<ObjectId> for Value {
    fn from(v: ObjectId) -> Self {
        Value::ObjectId(v)
    }
}
impl From<Document> for Value {
    fn from(v: Document) -> Self {
        Value::Document(v)
    }
}
impl From<Vec<Value>> for Value {
    fn from(v: Vec<Value>) -> Self {
        Value::Array(v)
    }
}
impl<T: Into<Value>> From<Option<T>> for Value {
    fn from(v: Option<T>) -> Self {
        v.map_or(Value::Null, Into::into)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn numeric_cross_type_equality() {
        assert!(Value::Int32(5).canonical_eq(&Value::Int64(5)));
        assert!(Value::Int64(5).canonical_eq(&Value::Double(5.0)));
        assert!(!Value::Int32(5).canonical_eq(&Value::Double(5.5)));
    }

    #[test]
    fn type_order_is_stable() {
        let vals = [
            Value::Null,
            Value::Int32(0),
            Value::String("".into()),
            Value::Document(Document::new()),
            Value::Array(vec![]),
            Value::Bool(false),
            Value::ObjectId(ObjectId::from_parts(0, 0, 0)),
            Value::DateTime(0),
        ];
        for w in vals.windows(2) {
            assert_eq!(w[0].canonical_cmp(&w[1]), Ordering::Less, "{w:?}");
        }
    }

    #[test]
    fn nan_sorts_first_among_numbers() {
        assert_eq!(
            Value::Double(f64::NAN).canonical_cmp(&Value::Double(f64::NEG_INFINITY)),
            Ordering::Less
        );
        assert_eq!(
            Value::Double(f64::NAN).canonical_cmp(&Value::Double(f64::NAN)),
            Ordering::Equal
        );
    }

    #[test]
    fn array_comparison_is_lexicographic() {
        let a = Value::Array(vec![Value::Int32(1), Value::Int32(2)]);
        let b = Value::Array(vec![Value::Int32(1), Value::Int32(3)]);
        let c = Value::Array(vec![Value::Int32(1)]);
        assert_eq!(a.canonical_cmp(&b), Ordering::Less);
        assert_eq!(c.canonical_cmp(&a), Ordering::Less);
    }

    #[test]
    fn document_comparison_checks_keys_then_values() {
        let a = doc! {"x" => 1i64};
        let b = doc! {"x" => 2i64};
        let c = doc! {"y" => 0i64};
        assert_eq!(Value::from(a.clone()).canonical_cmp(&Value::from(b)), Ordering::Less);
        assert_eq!(Value::from(a).canonical_cmp(&Value::from(c)), Ordering::Less);
    }

    #[test]
    fn truthiness() {
        assert!(!Value::Null.is_truthy());
        assert!(!Value::Bool(false).is_truthy());
        assert!(!Value::Int32(0).is_truthy());
        assert!(!Value::Double(0.0).is_truthy());
        assert!(Value::String(String::new()).is_truthy());
        assert!(Value::Int64(-1).is_truthy());
    }

    #[test]
    fn as_i64_accepts_integral_doubles_only() {
        assert_eq!(Value::Double(3.0).as_i64(), Some(3));
        assert_eq!(Value::Double(3.5).as_i64(), None);
        assert_eq!(Value::Double(f64::INFINITY).as_i64(), None);
    }

    #[test]
    fn option_from_maps_none_to_null() {
        assert_eq!(Value::from(None::<i64>), Value::Null);
        assert_eq!(Value::from(Some(4i64)), Value::Int64(4));
    }

    const BIG: i64 = 1 << 53; // first i64 the f64 mantissa can't refine

    #[test]
    fn large_integers_stay_distinct() {
        // The old f64-unified comparison collapsed all of these.
        assert_eq!(
            Value::Int64(i64::MAX).canonical_cmp(&Value::Int64(i64::MAX - 1)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int64(BIG + 1).canonical_cmp(&Value::Int64(BIG)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int64(-(BIG + 1)).canonical_cmp(&Value::Int64(-BIG)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int64(i64::MIN).canonical_cmp(&Value::Int64(i64::MIN + 1)),
            Ordering::Less
        );
    }

    #[test]
    fn int_double_mixed_comparison_is_exact() {
        // 2^53 is exactly representable; 2^53 + 1 rounds down to it
        // under `as f64`, which used to make these "equal".
        assert_eq!(
            Value::Int64(BIG + 1).canonical_cmp(&Value::Double(BIG as f64)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Double(BIG as f64).canonical_cmp(&Value::Int64(BIG + 1)),
            Ordering::Less
        );
        assert!(Value::Int64(BIG).canonical_eq(&Value::Double(BIG as f64)));
        // i64::MAX rounds *up* to 2^63 under `as f64`.
        assert_eq!(
            Value::Int64(i64::MAX).canonical_cmp(&Value::Double(9_223_372_036_854_775_808.0)),
            Ordering::Less
        );
        // i64::MIN == -2^63 exactly.
        assert!(Value::Int64(i64::MIN).canonical_eq(&Value::Double(-9_223_372_036_854_775_808.0)));
        // Out-of-range doubles straddle the whole i64 line.
        assert_eq!(
            Value::Int64(i64::MAX).canonical_cmp(&Value::Double(1e300)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int64(i64::MIN).canonical_cmp(&Value::Double(-1e300)),
            Ordering::Greater
        );
        assert_eq!(
            Value::Int64(i64::MAX).canonical_cmp(&Value::Double(f64::INFINITY)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int64(0).canonical_cmp(&Value::Double(f64::NAN)),
            Ordering::Greater
        );
        // Fractional parts break integer-part ties in both directions.
        assert_eq!(
            Value::Int64(3).canonical_cmp(&Value::Double(3.5)),
            Ordering::Less
        );
        assert_eq!(
            Value::Int64(-3).canonical_cmp(&Value::Double(-3.5)),
            Ordering::Greater
        );
        assert!(Value::Int64(0).canonical_eq(&Value::Double(-0.0)));
    }

    #[test]
    fn numeric_key_matches_canonical_order() {
        let samples = [
            Value::Double(f64::NAN),
            Value::Double(f64::NEG_INFINITY),
            Value::Double(-1e300),
            Value::Int64(i64::MIN),
            Value::Int64(i64::MIN + 1),
            Value::Int64(-(BIG + 1)),
            Value::Double(-(BIG as f64)),
            Value::Double(-2.5),
            Value::Int32(-2),
            Value::Double(-f64::MIN_POSITIVE), // subnormal boundary
            Value::Int64(0),
            Value::Double(-0.0),
            Value::Double(f64::MIN_POSITIVE),
            Value::Double(0.5),
            Value::Int32(1),
            Value::Double(1.5),
            Value::Int64(BIG),
            Value::Double(BIG as f64),
            Value::Int64(BIG + 1),
            Value::Int64(i64::MAX - 1),
            Value::Int64(i64::MAX),
            Value::Double(9_223_372_036_854_775_808.0),
            Value::Double(f64::MAX),
            Value::Double(f64::INFINITY),
        ];
        for a in &samples {
            for b in &samples {
                let ka = NumericKey::of(a).unwrap();
                let kb = NumericKey::of(b).unwrap();
                assert_eq!(ka.cmp(&kb), a.canonical_cmp(b), "a={a:?} b={b:?}");
            }
        }
        assert_eq!(NumericKey::of(&Value::from("x")), None);
    }
}
