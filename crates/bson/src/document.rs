//! Insertion-ordered key/value documents.

use crate::{ObjectId, Value};

/// An insertion-ordered map of field name → [`Value`], the basic unit of
/// data (thesis Section 2.1). Field order is preserved — like BSON — so a
/// migrated TPC-DS row keeps its column order and document comparison is
/// deterministic.
///
/// Lookup is a linear scan: workload documents carry a few dozen fields at
/// most, where a scan beats hashing (no allocation, cache-friendly).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Document {
    fields: Vec<(String, Value)>,
}

impl Document {
    /// Creates an empty document.
    pub fn new() -> Self {
        Self { fields: Vec::new() }
    }

    /// Creates an empty document with capacity for `n` fields.
    pub fn with_capacity(n: usize) -> Self {
        Self { fields: Vec::with_capacity(n) }
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

    /// Mutable access to a field by exact name.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Value> {
        self.fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// True if a field with this exact name exists.
    pub fn contains_key(&self, key: &str) -> bool {
        self.fields.iter().any(|(k, _)| k == key)
    }

    /// Sets a field, replacing any existing value and keeping its
    /// position; appends otherwise.
    pub fn set(&mut self, key: impl AsRef<str> + Into<String>, value: impl Into<Value>) {
        let value = value.into();
        match self.get_mut(key.as_ref()) {
            Some(v) => *v = value,
            None => self.fields.push((key.into(), value)),
        }
    }

    /// Builder-style `set`.
    pub fn with(mut self, key: impl AsRef<str> + Into<String>, value: impl Into<Value>) -> Self {
        self.set(key, value);
        self
    }

    /// Removes a field, returning its value if present.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        let idx = self.fields.iter().position(|(k, _)| k == key)?;
        Some(self.fields.remove(idx).1)
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
            if !doc.contains_key(part) {
                doc.set(part, Value::Document(Document::new()));
            }
            match doc.get_mut(part) {
                Some(Value::Document(inner)) => doc = inner,
                _ => return false,
            }
        }
        false
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
        self.fields.reserve_exact(1);
        self.fields.insert(0, ("_id".to_owned(), id.clone()));
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

impl FromIterator<(String, Value)> for Document {
    fn from_iter<T: IntoIterator<Item = (String, Value)>>(iter: T) -> Self {
        let mut d = Document::new();
        for (k, v) in iter {
            d.set(k, v);
        }
        d
    }
}

impl IntoIterator for Document {
    type Item = (String, Value);
    type IntoIter = std::vec::IntoIter<(String, Value)>;
    fn into_iter(self) -> Self::IntoIter {
        self.fields.into_iter()
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
