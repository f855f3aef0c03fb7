//! Insertion-ordered key/value documents.

use crate::{ObjectId, Value};
use std::sync::Arc;

/// An insertion-ordered map of field name → [`Value`], the basic unit of
/// data (thesis Section 2.1). Field order is preserved — like BSON — so a
/// migrated TPC-DS row keeps its column order and document comparison is
/// deterministic.
///
/// Lookup is a linear scan: workload documents carry a few dozen fields at
/// most, where a scan beats hashing (no allocation, cache-friendly).
///
/// A document is copy-on-write: its fields sit behind an [`Arc`], so
/// `clone` is a refcount bump whatever the document holds. The first
/// mutation of a shared document copies its field vector (one level: the
/// embedded documents inside stay shared) and leaves the other holders
/// the fields they had. So a stored document can be handed to a reader,
/// and one dimension row embedded into every fact that references it,
/// without copying it.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Document {
    fields: Arc<Vec<(String, Value)>>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty document with capacity for `n` fields.
    pub fn with_capacity(n: usize) -> Self {
        Self { fields: Arc::new(Vec::with_capacity(n)) }
    }

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
    }

    /// True if the document has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Gets a field by exact name (no dotted-path resolution).
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Mutable access to a field by exact name. A shared document is
    /// copied first, and only if it has the field.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        let idx = self.position(key)?;
        Some(&mut Arc::make_mut(&mut self.fields)[idx].1)
    }

    fn position(&self, key: &str) -> Option<usize> {
        self.fields.iter().position(|(k, _)| k == key)
    }

    /// True if a field with this exact name exists.
    pub fn contains_key(&self, key: &str) -> bool {
        self.fields.iter().any(|(k, _)| k == key)
    }

    /// Sets a field, replacing any existing value and keeping its
    /// position; appends otherwise.
    pub fn set(&mut self, key: impl AsRef<str> + Into<String>, value: impl Into<Value>) {
        let value = value.into();
        let idx = self.position(key.as_ref());
        let fields = Arc::make_mut(&mut self.fields);
        match idx {
            Some(i) => fields[i].1 = value,
            None => fields.push((key.into(), value)),
        }
    }

    /// Builder-style `set`.
    pub fn with(mut self, key: impl AsRef<str> + Into<String>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Removes a field, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.position(key)?;
        Some(Arc::make_mut(&mut self.fields).remove(idx).1)
    }

    /// Iterates fields in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&String, &Value)> {
        self.fields.iter().map(|(k, v)| (k, v))
    }

    /// Iterates field names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &String> {
        self.fields.iter().map(|(k, _)| k)
    }

    /// Iterates values in insertion order.
    pub fn values(&self) -> impl Iterator<Item = &Value> {
        self.fields.iter().map(|(_, v)| v)
    }

    /// Resolves a dotted path (`"a.b.c"`) through embedded documents.
    /// Traversal through an array applies the path to each element and
    /// yields the matches as an array (multikey semantics); see
    /// [`crate::path::resolve_path`] for the full rules.
    pub fn get_path(&self, path: &str) -> Option<Value> {
        crate::path::resolve_path(self, path)
    }

    /// Borrowed-form [`Document::get_path`]: no clone unless the path
    /// fans out through an array (see [`crate::path::resolve_path_ref`]).
    pub fn get_path_ref<'a>(&'a self, path: &str) -> Option<crate::path::Resolved<'a>> {
        crate::path::resolve_path_ref(self, path)
    }

    /// Sets a value at a dotted path, creating intermediate embedded
    /// documents as needed. Fails (returns `false`) if an intermediate
    /// component exists but is not a document.
    pub fn set_path(&mut self, path: &str, value: Value) -> bool {
        let mut parts = path.split('.').peekable();
        let mut doc = self;
        while let Some(part) = parts.next() {
            if parts.peek().is_none() {
                doc.set(part, value);
                return true;
            }
            match doc.child_mut(part) {
                Some(inner) => doc = inner,
                None => return false,
            }
        }
        false
    }

    /// The embedded document under `name`, created empty if the field is
    /// missing; `None` if the field holds anything but a document (and
    /// then nothing is copied or changed). One step of a path write.
    pub(crate) fn child_mut(&mut self, name: &str) -> Option<&mut Document> {
        let idx = self.position(name);
        if idx.is_some_and(|i| !matches!(self.fields[i].1, Value::Document(_))) {
            return None;
        }
        let fields = Arc::make_mut(&mut self.fields);
        let i = idx.unwrap_or_else(|| {
            fields.push((name.to_owned(), Value::Document(Document::new())));
            fields.len() - 1
        });
        match &mut fields[i].1 {
            Value::Document(inner) => Some(inner),
            _ => None,
        }
    }

    /// The document's `_id` field, if present.
    pub fn id(&self) -> Option<&Value> {
        self.get("_id")
    }

    /// Ensures an `_id` field exists, generating an [`ObjectId`] if
    /// missing (mirrors driver behaviour on insert). Returns the id.
    pub fn ensure_id(&mut self) -> Value {
        if let Some(v) = self.get("_id") {
            return v.clone();
        }
        let id = Value::ObjectId(ObjectId::new());
        // _id conventionally leads the document. A document built to
        // its exact size would double its field vector here; one more
        // slot is all the insert needs.
        let fields = Arc::make_mut(&mut self.fields);
        fields.reserve_exact(1);
        fields.insert(0, ("_id".to_owned(), id.clone()));
        id
    }

    /// Rough in-memory size in bytes; the codec's
    /// [`crate::codec::encoded_size`] is authoritative for limits.
    pub fn approx_mem_size(&self) -> usize {
        self.fields
            .iter()
            .map(|(k, v)| k.len() + approx_value_size(v) + 16)
            .sum()
    }
}

fn approx_value_size(v: &Value) -> usize {
    match v {
        Value::Null => 1,
        Value::Bool(_) => 1,
        Value::Int32(_) => 4,
        Value::Int64(_) | Value::Double(_) | Value::DateTime(_) => 8,
        Value::ObjectId(_) => 12,
        Value::String(s) => s.len(),
        Value::Array(a) => a.iter().map(approx_value_size).sum::<usize>() + 8,
        Value::Document(d) => d.approx_mem_size(),
    }
}

/// Builds the field vector first and wraps it once, so a builder pays no
/// copy-on-write check per field. A repeated name keeps its first
/// position and its last value, as [`Document::set`] does. The vector
/// reserves the iterator's upper bound when it has one: a row built by
/// filtering its columns is sized as the row it was filtered from.
impl FromIterator<(String, Value)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let iter = iter.into_iter();
        let (lower, upper) = iter.size_hint();
        let mut fields: Vec<(String, Value)> = Vec::with_capacity(upper.unwrap_or(lower));
        for (k, v) in iter {
            match fields.iter_mut().find(|(name, _)| *name == k) {
                Some((_, old)) => *old = v,
                None => fields.push((k, v)),
            }
        }
        Self { fields: Arc::new(fields) }
    }
}

/// Takes the fields out without a copy when nobody else holds them.
impl IntoIterator for Document {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        Arc::unwrap_or_clone(self.fields).into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc;

    #[test]
    fn set_preserves_insertion_order_and_replaces_in_place() {
        let mut d = doc! {"a" => 1i64, "b" => 2i64, "c" => 3i64};
        d.set("b", 99i64);
        let keys: Vec<_> = d.keys().cloned().collect();
        assert_eq!(keys, ["a", "b", "c"]);
        assert_eq!(d.get("b"), Some(&Value::Int64(99)));
    }

    #[test]
    fn collecting_a_repeated_name_keeps_its_first_position_and_last_value() {
        let d: Document = [("a", 1i64), ("b", 2), ("a", 3)]
            .into_iter()
            .map(|(k, v)| (k.to_owned(), Value::Int64(v)))
            .collect();
        let keys: Vec<_> = d.keys().cloned().collect();
        assert_eq!(keys, ["a", "b"]);
        assert_eq!(d.get("a"), Some(&Value::Int64(3)));
    }

    #[test]
    fn remove_returns_value() {
        let mut d = doc! {"a" => 1i64};
        assert_eq!(d.remove("a"), Some(Value::Int64(1)));
        assert_eq!(d.remove("a"), None);
        assert!(d.is_empty());
    }

    #[test]
    fn ensure_id_generates_once_and_leads() {
        let mut d = doc! {"x" => 5i64};
        let id1 = d.ensure_id();
        let id2 = d.ensure_id();
        assert_eq!(id1, id2);
        assert_eq!(d.keys().next().map(String::as_str), Some("_id"));
    }

    #[test]
    fn ensure_id_respects_existing() {
        let mut d = doc! {"_id" => 42i64};
        assert_eq!(d.ensure_id(), Value::Int64(42));
    }

    #[test]
    fn set_path_creates_intermediates() {
        let mut d = Document::new();
        assert!(d.set_path("a.b.c", Value::Int32(7)));
        assert_eq!(d.get_path("a.b.c"), Some(Value::Int32(7)));
    }

    #[test]
    fn set_path_fails_through_scalar() {
        let mut d = doc! {"a" => 1i64};
        assert!(!d.set_path("a.b", Value::Int32(7)));
    }

    #[test]
    fn get_path_through_embedded_document() {
        let d = doc! {"store" => doc!{"address" => doc!{"city" => "Midway"}}};
        assert_eq!(
            d.get_path("store.address.city"),
            Some(Value::from("Midway"))
        );
        assert_eq!(d.get_path("store.missing"), None);
    }
}
