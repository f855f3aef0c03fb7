//! The update language: `$set`, `$unset`, `$inc`, `$push`, whole-document
//! replacement, and upsert semantics.
//!
//! The thesis's `EmbedDocuments` algorithm (Fig 4.7) drives this API: its
//! step 10 is exactly `update(query, {$set: {fk: dimension_doc}},
//! upsert:false, multi:true)`.

use crate::error::{Error, Result};
use crate::query::filter::{CmpOp, Filter};
use doclite_bson::codec::{encoded_size, encoded_value_size};
use doclite_bson::{Document, Resolved, Value};

/// A single update operator application.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateOp {
    /// `{$set: {path: value}}` — creates intermediate documents.
    Set(String, Value),
    /// `{$unset: {path: 1}}`.
    Unset(String),
    /// `{$inc: {path: n}}` — missing fields start at 0; non-numeric
    /// targets are an error.
    Inc(String, f64),
    /// `{$push: {path: value}}` — missing fields become 1-element arrays;
    /// non-array targets are an error.
    Push(String, Value),
}

impl UpdateOp {
    /// The dotted path the operator writes.
    pub(crate) fn path(&self) -> &str {
        match self {
            UpdateOp::Set(p, _) | UpdateOp::Unset(p) | UpdateOp::Inc(p, _) | UpdateOp::Push(p, _) => p,
        }
    }
}

/// True when a write at dotted path `a` can change what path `b`
/// resolves to: the paths are equal or one is a dotted prefix of the
/// other (`a.b` and `a`, either way round — never `ab` and `a`).
fn paths_overlap(a: &str, b: &str) -> bool {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    long.strip_prefix(short).is_some_and(|rest| rest.is_empty() || rest.starts_with('.'))
}

/// An update specification: operator list or full replacement.
///
/// The two forms are mutually exclusive, exactly as in MongoDB: an
/// update document is either *all* operators (`$set`, `$inc`, …) or a
/// plain replacement body — never a mix. Chaining a builder method such
/// as [`UpdateSpec::and_set`] onto a [`UpdateSpec::Replace`] therefore
/// panics instead of silently discarding the operator.
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateSpec {
    /// Apply operators in order.
    Ops(Vec<UpdateOp>),
    /// Replace the document body (the stored `_id` is preserved).
    Replace(Document),
}

impl UpdateSpec {
    /// Builder: a single `$set`.
    pub fn set(path: impl Into<String>, value: impl Into<Value>) -> Self {
        UpdateSpec::Ops(vec![UpdateOp::Set(path.into(), value.into())])
    }

    /// Builder: appends another op.
    pub fn and_set(self, path: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push_op(UpdateOp::Set(path.into(), value.into()))
    }

    /// Builder: `$unset`.
    pub fn and_unset(self, path: impl Into<String>) -> Self {
        self.push_op(UpdateOp::Unset(path.into()))
    }

    /// Builder: `$inc`.
    pub fn and_inc(self, path: impl Into<String>, by: f64) -> Self {
        self.push_op(UpdateOp::Inc(path.into(), by))
    }

    /// Builder: `$push`.
    pub fn and_push(self, path: impl Into<String>, value: impl Into<Value>) -> Self {
        self.push_op(UpdateOp::Push(path.into(), value.into()))
    }

    /// Encoded size of the values this update carries — what travels
    /// from the router to a shard besides the fixed request header. An
    /// `EmbedDocuments` `$set` carries a whole dimension document.
    pub fn payload_size(&self) -> usize {
        match self {
            UpdateSpec::Replace(body) => encoded_size(body),
            UpdateSpec::Ops(ops) => ops
                .iter()
                .map(|op| match op {
                    UpdateOp::Set(_, v) | UpdateOp::Push(_, v) => encoded_value_size(v),
                    UpdateOp::Inc(..) => 8, // one double
                    UpdateOp::Unset(_) => 0,
                })
                .sum(),
        }
    }

    /// True when applying this spec can change what `field` resolves to
    /// — the rule that decides which indexes, columns and statistics an
    /// in-place update has to adjust. A replacement touches everything.
    pub(crate) fn touches(&self, field: &str) -> bool {
        match self {
            UpdateSpec::Replace(_) => true,
            UpdateSpec::Ops(ops) => ops.iter().any(|op| paths_overlap(op.path(), field)),
        }
    }

    /// Upper bound on the bytes applying this spec adds to a document's
    /// encoded size: the values it carries plus, per operator, an
    /// element header for every path segment it may have to create and
    /// slack for a `$push` index key or an `$inc` widening its target.
    pub(crate) fn max_growth(&self) -> usize {
        let headers = match self {
            UpdateSpec::Replace(_) => 0,
            UpdateSpec::Ops(ops) => ops
                .iter()
                .map(|op| op.path().len() + 7 * op.path().split('.').count() + 32)
                .sum(),
        };
        self.payload_size() + headers
    }

    /// Encoded size of the part of `doc` this spec can change: the whole
    /// document for a replacement, otherwise the top-level elements its
    /// operators' paths start at (each once). Measured before and after
    /// an edit, the difference is the document's size delta.
    pub(crate) fn touched_size(&self, doc: &Document) -> usize {
        fn head(op: &UpdateOp) -> &str {
            op.path().split('.').next().unwrap_or_default()
        }
        match self {
            UpdateSpec::Replace(_) => encoded_size(doc),
            UpdateSpec::Ops(ops) => ops
                .iter()
                .enumerate()
                .filter(|(i, op)| !ops[..*i].iter().any(|earlier| head(earlier) == head(op)))
                .filter_map(|(_, op)| {
                    let key = head(op);
                    doc.get(key).map(|v| 2 + key.len() + encoded_value_size(v))
                })
                .sum(),
        }
    }

    /// Appends an operator. Panics on a [`UpdateSpec::Replace`] spec:
    /// replacement and operator updates are mutually exclusive, and
    /// dropping the chained operator on the floor would silently lose a
    /// user update.
    fn push_op(self, op: UpdateOp) -> Self {
        match self {
            UpdateSpec::Ops(mut ops) => {
                ops.push(op);
                UpdateSpec::Ops(ops)
            }
            UpdateSpec::Replace(_) => panic!(
                "cannot chain update operator {op:?} onto UpdateSpec::Replace: \
                 replacement and operator updates are mutually exclusive"
            ),
        }
    }
}

/// One statement of an ordered bulk update
/// ([`crate::Collection::update_batch`]): the selection criteria,
/// modification and `multi` flag of the four-parameter update. Bulk
/// statements never upsert.
#[derive(Clone, Debug, PartialEq)]
pub struct BulkUpdate {
    pub filter: Filter,
    pub spec: UpdateSpec,
    pub multi: bool,
}

/// Outcome of an update call.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct UpdateResult {
    /// Documents matched by the filter.
    pub matched: usize,
    /// Documents actually changed.
    pub modified: usize,
    /// `_id` of a document created by upsert, if any.
    pub upserted_id: Option<Value>,
}

impl UpdateResult {
    /// Adds another call's matched/modified counts to this running total.
    pub fn absorb(&mut self, other: &UpdateResult) {
        self.matched += other.matched;
        self.modified += other.modified;
    }
}

/// Applies an update spec to a document in place. Returns whether the
/// document changed.
pub fn apply_update(doc: &mut Document, spec: &UpdateSpec) -> Result<bool> {
    match spec {
        UpdateSpec::Replace(body) => {
            let id = doc.id().cloned();
            let mut new_doc = body.clone();
            if let Some(id) = id {
                // _id is immutable: a replacement keeps the stored id.
                new_doc.remove("_id");
                let mut with_id = Document::with_capacity(new_doc.len() + 1);
                with_id.set("_id", id);
                for (k, v) in new_doc.into_iter() {
                    with_id.set(k, v);
                }
                let changed = *doc != with_id;
                *doc = with_id;
                Ok(changed)
            } else {
                let changed = doc != body;
                *doc = body.clone();
                Ok(changed)
            }
        }
        UpdateSpec::Ops(ops) => {
            let mut changed = false;
            for op in ops {
                changed |= apply_op(doc, op)?;
            }
            Ok(changed)
        }
    }
}

fn apply_op(doc: &mut Document, op: &UpdateOp) -> Result<bool> {
    match op {
        UpdateOp::Set(path, value) => {
            if path == "_id" {
                return Err(Error::InvalidQuery("_id is immutable".into()));
            }
            // Compared where it lies: an owned `get_path` of an embedded
            // document would deep-clone it to learn it is different.
            if doc.get_path_ref(path).is_some_and(|before| before.as_value() == value) {
                return Ok(false);
            }
            if !doc.set_path(path, value.clone()) {
                return Err(Error::InvalidQuery(format!(
                    "cannot create field at path {path}: intermediate is not a document"
                )));
            }
            Ok(true)
        }
        UpdateOp::Unset(path) => Ok(remove_path(doc, path)),
        UpdateOp::Inc(path, by) => {
            let current = doc.get_path_ref(path);
            let new_value = match current.as_ref().map(Resolved::as_value) {
                None => Value::Double(*by),
                Some(v) => match v.as_f64() {
                    Some(n) => {
                        // Preserve integer representation when possible.
                        let sum = n + by;
                        if v.is_numeric()
                            && !matches!(v, Value::Double(_))
                            && by.fract() == 0.0
                            && sum.fract() == 0.0
                            && sum.abs() < i64::MAX as f64
                        {
                            Value::Int64(sum as i64)
                        } else {
                            Value::Double(sum)
                        }
                    }
                    None => {
                        return Err(Error::InvalidQuery(format!(
                            "$inc target {path} is {}",
                            v.type_name()
                        )))
                    }
                },
            };
            // $inc by 0 (or a cancelling float) leaves the stored value
            // as-is: report unmodified, like $set on an equal value.
            if current.is_some_and(|v| *v.as_value() == new_value) {
                return Ok(false);
            }
            if !doc.set_path(path, new_value) {
                return Err(Error::InvalidQuery(format!("bad $inc path {path}")));
            }
            Ok(true)
        }
        UpdateOp::Push(path, value) => {
            let before = doc.get_path(path);
            let new_value = match before {
                None => Value::Array(vec![value.clone()]),
                Some(Value::Array(mut items)) => {
                    items.push(value.clone());
                    Value::Array(items)
                }
                Some(other) => {
                    return Err(Error::InvalidQuery(format!(
                        "$push target {path} is {}",
                        other.type_name()
                    )))
                }
            };
            if !doc.set_path(path, new_value.clone()) {
                return Err(Error::InvalidQuery(format!("bad $push path {path}")));
            }
            // Compare before/after like $set: only report modified when
            // the stored value actually changed.
            Ok(doc.get_path(path).as_ref() == Some(&new_value))
        }
    }
}

fn remove_path(doc: &mut Document, path: &str) -> bool {
    match path.split_once('.') {
        None => doc.remove(path).is_some(),
        Some((head, rest)) => match doc.get_mut(head) {
            Some(Value::Document(inner)) => remove_path(inner, rest),
            _ => false,
        },
    }
}

/// Synthesizes the base document for an upsert: the filter's top-level
/// equality predicates become fields (MongoDB's upsert seeding rule).
pub fn upsert_seed(filter: &Filter) -> Document {
    let mut doc = Document::new();
    seed(filter, &mut doc);
    doc
}

fn seed(filter: &Filter, doc: &mut Document) {
    match filter {
        Filter::And(fs) => {
            for f in fs {
                seed(f, doc);
            }
        }
        Filter::Cmp { path, op: CmpOp::Eq, value } => {
            doc.set_path(path, value.clone());
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::{array, doc};

    #[test]
    fn set_replaces_and_reports_nochange() {
        let mut d = doc! {"a" => 1i64};
        assert!(apply_update(&mut d, &UpdateSpec::set("a", 2i64)).unwrap());
        assert!(!apply_update(&mut d, &UpdateSpec::set("a", 2i64)).unwrap());
        assert_eq!(d.get("a"), Some(&Value::Int64(2)));
    }

    #[test]
    fn set_creates_nested_path() {
        let mut d = Document::new();
        apply_update(&mut d, &UpdateSpec::set("x.y.z", 1i64)).unwrap();
        assert_eq!(d.get_path("x.y.z"), Some(Value::Int64(1)));
    }

    #[test]
    fn set_id_is_rejected() {
        let mut d = doc! {"_id" => 1i64};
        assert!(apply_update(&mut d, &UpdateSpec::set("_id", 2i64)).is_err());
    }

    #[test]
    fn unset_nested() {
        let mut d = doc! {"a" => doc!{"b" => 1i64, "c" => 2i64}};
        let spec = UpdateSpec::Ops(vec![UpdateOp::Unset("a.b".into())]);
        assert!(apply_update(&mut d, &spec).unwrap());
        assert_eq!(d.get_path("a.b"), None);
        assert_eq!(d.get_path("a.c"), Some(Value::Int64(2)));
        // unsetting again is a no-op
        assert!(!apply_update(&mut d, &spec).unwrap());
    }

    #[test]
    fn inc_preserves_integers_and_seeds_missing() {
        let mut d = doc! {"n" => 5i64};
        let spec = UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 2.0)]);
        apply_update(&mut d, &spec).unwrap();
        assert_eq!(d.get("n"), Some(&Value::Int64(7)));
        let spec = UpdateSpec::Ops(vec![UpdateOp::Inc("m".into(), 1.5)]);
        apply_update(&mut d, &spec).unwrap();
        assert_eq!(d.get("m"), Some(&Value::Double(1.5)));
    }

    #[test]
    fn inc_on_string_errors() {
        let mut d = doc! {"s" => "x"};
        let spec = UpdateSpec::Ops(vec![UpdateOp::Inc("s".into(), 1.0)]);
        assert!(apply_update(&mut d, &spec).is_err());
    }

    #[test]
    fn push_appends_or_creates() {
        let mut d = doc! {"xs" => array![1i64]};
        let spec = UpdateSpec::Ops(vec![UpdateOp::Push("xs".into(), Value::Int64(2))]);
        apply_update(&mut d, &spec).unwrap();
        assert_eq!(d.get("xs"), Some(&array![1i64, 2i64]));
        let spec = UpdateSpec::Ops(vec![UpdateOp::Push("ys".into(), Value::Int64(9))]);
        apply_update(&mut d, &spec).unwrap();
        assert_eq!(d.get("ys"), Some(&array![9i64]));
    }

    #[test]
    fn inc_by_zero_reports_unmodified() {
        let mut d = doc! {"n" => 5i64};
        let spec = UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 0.0)]);
        assert!(!apply_update(&mut d, &spec).unwrap());
        assert_eq!(d.get("n"), Some(&Value::Int64(5)));
        // Incrementing a *missing* field by 0 still creates it — that is
        // a modification.
        let spec = UpdateSpec::Ops(vec![UpdateOp::Inc("m".into(), 0.0)]);
        assert!(apply_update(&mut d, &spec).unwrap());
        assert_eq!(d.get("m"), Some(&Value::Double(0.0)));
    }

    #[test]
    fn push_through_non_document_intermediate_errors() {
        let mut d = doc! {"a" => 1i64};
        let spec = UpdateSpec::Ops(vec![UpdateOp::Push("a.b".into(), Value::Int64(1))]);
        assert!(apply_update(&mut d, &spec).is_err());
        // The failed op must not report the document as modified.
        assert_eq!(d.get("a"), Some(&Value::Int64(1)));
    }

    #[test]
    #[should_panic(expected = "mutually exclusive")]
    fn chaining_op_onto_replace_panics() {
        let _ = UpdateSpec::Replace(doc! {"a" => 1i64}).and_set("b", 2i64);
    }

    #[test]
    fn replace_preserves_id() {
        let mut d = doc! {"_id" => 7i64, "a" => 1i64};
        let spec = UpdateSpec::Replace(doc! {"b" => 2i64});
        apply_update(&mut d, &spec).unwrap();
        assert_eq!(d.get("_id"), Some(&Value::Int64(7)));
        assert_eq!(d.get("a"), None);
        assert_eq!(d.get("b"), Some(&Value::Int64(2)));
    }

    #[test]
    fn touches_is_equal_or_dotted_prefix_either_way() {
        let spec = UpdateSpec::set("a.b", 1i64).and_unset("x");
        for field in ["a", "a.b", "a.b.c", "x", "x.y"] {
            assert!(spec.touches(field), "{field}");
        }
        for field in ["ab", "a.c", "a.bc", "b", "_id"] {
            assert!(!spec.touches(field), "{field}");
        }
        assert!(UpdateSpec::Replace(doc! {"z" => 1i64}).touches("anything"));
    }

    #[test]
    fn touched_size_delta_is_the_document_delta_and_within_max_growth() {
        let base = doc! {"_id" => 1i64, "a" => doc! {"b" => 1i32}, "n" => 5i32, "xs" => array![1i64], "s" => "text"};
        let specs = [
            UpdateSpec::set("a", doc! {"wide" => "embedded dimension document", "pk" => 7i64}),
            UpdateSpec::set("a.b", "longer than an int32"),
            UpdateSpec::set("fresh.deep.path", 1i64),
            UpdateSpec::set("a.b", 2i64).and_set("a.c", 3i64).and_unset("s"),
            UpdateSpec::Ops(vec![UpdateOp::Unset("a.b".into())]),
            UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 0.5), UpdateOp::Inc("m".into(), 1.0)]),
            UpdateSpec::Ops(vec![UpdateOp::Push("xs".into(), Value::from("y")), UpdateOp::Push("ys".into(), Value::Null)]),
            UpdateSpec::Replace(doc! {"only" => "this"}),
        ];
        for spec in specs {
            let mut d = base.clone();
            let before = spec.touched_size(&d);
            assert!(apply_update(&mut d, &spec).unwrap());
            let delta = spec.touched_size(&d) as isize - before as isize;
            assert_eq!(delta, encoded_size(&d) as isize - encoded_size(&base) as isize, "{spec:?}");
            assert!(delta <= spec.max_growth() as isize, "{spec:?}");
        }
    }

    #[test]
    fn upsert_seed_takes_equalities_only() {
        let f = Filter::and([
            Filter::eq("a", 1i64),
            Filter::gt("b", 5i64),
            Filter::eq("c.d", "x"),
        ]);
        let seed = upsert_seed(&f);
        assert_eq!(seed.get("a"), Some(&Value::Int64(1)));
        assert_eq!(seed.get("b"), None);
        assert_eq!(seed.get_path("c.d"), Some(Value::from("x")));
    }
}
