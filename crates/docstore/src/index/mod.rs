//! Secondary indexes: B-tree (single-field and compound, with multikey
//! array expansion) and hashed, mirroring the index types of thesis
//! Section 2.1.2 that the workload uses.

pub mod btree;
pub mod hashed;
pub mod keys;
pub mod text;

use crate::error::{Error, Result};
use crate::ordvalue::CompoundKey;
use crate::storage::DocId;
use doclite_bson::Document;

pub use btree::BTreeIndex;
pub use hashed::HashedIndex;
pub use keys::extract_keys;
pub use text::{text_matches, tokenize, TextIndex};

/// Per-field sort direction in a compound index definition.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortOrder {
    Ascending,
    Descending,
}

impl SortOrder {
    /// `1` / `-1`, as in index specs.
    pub fn as_i32(self) -> i32 {
        match self {
            SortOrder::Ascending => 1,
            SortOrder::Descending => -1,
        }
    }
}

/// The kind of on-disk structure backing an index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IndexKind {
    /// Ordered B-tree index: supports equality and range scans, and serves
    /// as the backing structure for range-partitioned shard keys.
    BTree,
    /// Hash index: equality only; backs hashed shard keys.
    Hashed,
}

/// An index definition: a name, the indexed fields with their sort
/// directions, kind, and uniqueness.
#[derive(Clone, Debug, PartialEq)]
pub struct IndexDef {
    pub name: String,
    pub fields: Vec<(String, SortOrder)>,
    pub kind: IndexKind,
    pub unique: bool,
}

impl IndexDef {
    /// A single-field ascending B-tree index named `<field>_1`.
    pub fn single(field: impl Into<String>) -> Self {
        let field = field.into();
        IndexDef {
            name: format!("{field}_1"),
            fields: vec![(field, SortOrder::Ascending)],
            kind: IndexKind::BTree,
            unique: false,
        }
    }

    /// A compound ascending B-tree index named `<f1>_1_<f2>_1…`.
    pub fn compound<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let fields: Vec<(String, SortOrder)> = fields
            .into_iter()
            .map(|f| (f.into(), SortOrder::Ascending))
            .collect();
        let name = fields
            .iter()
            .map(|(f, _)| format!("{f}_1"))
            .collect::<Vec<_>>()
            .join("_");
        IndexDef { name, fields, kind: IndexKind::BTree, unique: false }
    }

    /// A single-field hashed index named `<field>_hashed`.
    pub fn hashed(field: impl Into<String>) -> Self {
        let field = field.into();
        IndexDef {
            name: format!("{field}_hashed"),
            fields: vec![(field, SortOrder::Ascending)],
            kind: IndexKind::Hashed,
            unique: false,
        }
    }

    /// Marks the index unique.
    pub fn unique(mut self) -> Self {
        self.unique = true;
        self
    }

    /// The indexed field names, in order.
    pub fn field_names(&self) -> Vec<&str> {
        self.fields.iter().map(|(f, _)| f.as_str()).collect()
    }

    /// Validates the definition.
    pub fn validate(&self) -> Result<()> {
        if self.fields.is_empty() {
            return Err(Error::InvalidIndex("index must have at least one field".into()));
        }
        if self.kind == IndexKind::Hashed && self.fields.len() > 1 {
            return Err(Error::InvalidIndex(
                "hashed indexes must be single-field".into(),
            ));
        }
        let mut names: Vec<&str> = self.field_names();
        names.sort_unstable();
        names.dedup();
        if names.len() != self.fields.len() {
            return Err(Error::InvalidIndex("duplicate field in index".into()));
        }
        Ok(())
    }
}

/// A live index: its definition plus the backing structure.
#[derive(Debug)]
pub struct Index {
    pub def: IndexDef,
    backing: Backing,
    /// Set once any document has contributed more than one key (an
    /// array under an indexed field) and never cleared: from then on a
    /// lookup spanning several keys can name one document repeatedly.
    multikey: bool,
}

#[derive(Debug)]
enum Backing {
    BTree(BTreeIndex),
    Hashed(HashedIndex),
}

impl Index {
    /// Creates an empty index for a definition.
    pub fn new(def: IndexDef) -> Result<Self> {
        def.validate()?;
        let backing = match def.kind {
            IndexKind::BTree => Backing::BTree(BTreeIndex::new()),
            IndexKind::Hashed => Backing::Hashed(HashedIndex::new()),
        };
        Ok(Index { def, backing, multikey: false })
    }

    /// Indexes a document under its id. Returns `DuplicateId` for unique
    /// violations (no entries are left behind on failure).
    pub fn insert(&mut self, id: DocId, doc: &Document) -> Result<()> {
        let keys = extract_keys(doc, &self.def)?;
        if self.def.unique {
            for k in &keys {
                if self.contains_key(k) {
                    return Err(Error::DuplicateId(format!("{:?}", k.0)));
                }
            }
        }
        self.multikey |= keys.len() > 1;
        for k in keys {
            match &mut self.backing {
                Backing::BTree(b) => b.insert(k, id),
                Backing::Hashed(h) => h.insert(k, id),
            }
        }
        Ok(())
    }

    /// True once some document has held several keys here, so the ids a
    /// lookup returns may repeat (`{k: [2, 2]}` sits twice under key 2,
    /// `{k: [1, 2]}` once under each key of a range). A reader that
    /// wants each document once deduplicates exactly then; an index of
    /// scalars never pays for it.
    pub(crate) fn is_multikey(&self) -> bool {
        self.multikey
    }

    /// Removes a document's entries.
    pub fn remove(&mut self, id: DocId, doc: &Document) {
        if let Ok(keys) = extract_keys(doc, &self.def) {
            for k in keys {
                match &mut self.backing {
                    Backing::BTree(b) => b.remove(&k, id),
                    Backing::Hashed(h) => h.remove(&k, id),
                }
            }
        }
    }

    /// The first of `keys` that a document other than `id` holds — what
    /// a unique index refuses. An in-place update checks this before it
    /// changes any index, so a refused update leaves nothing behind.
    pub(crate) fn conflict<'k>(&self, id: DocId, keys: &'k [CompoundKey]) -> Option<&'k CompoundKey> {
        keys.iter().find(|k| self.lookup_eq(k).iter().any(|&held| held != id))
    }

    /// Moves document `id`'s entries from the keys it had to the keys it
    /// has now, both from [`extract_keys`]; the caller has ruled out a
    /// unique [`conflict`](Self::conflict).
    pub(crate) fn rekey(&mut self, id: DocId, old: &[CompoundKey], new: Vec<CompoundKey>) {
        for k in old {
            match &mut self.backing {
                Backing::BTree(b) => b.remove(k, id),
                Backing::Hashed(h) => h.remove(k, id),
            }
        }
        self.multikey |= new.len() > 1;
        for k in new {
            match &mut self.backing {
                Backing::BTree(b) => b.insert(k, id),
                Backing::Hashed(h) => h.insert(k, id),
            }
        }
    }

    fn contains_key(&self, key: &CompoundKey) -> bool {
        match &self.backing {
            Backing::BTree(b) => !b.lookup_eq(key).is_empty(),
            Backing::Hashed(h) => !h.lookup_eq(key).is_empty(),
        }
    }

    /// Ids whose key equals `key` exactly.
    pub fn lookup_eq(&self, key: &CompoundKey) -> Vec<DocId> {
        match &self.backing {
            Backing::BTree(b) => b.lookup_eq(key),
            Backing::Hashed(h) => h.lookup_eq(key),
        }
    }

    /// Ids whose *first key component* falls in the given bounds
    /// (B-tree only; a hashed index returns `None`).
    pub fn lookup_range(
        &self,
        min: Option<(&doclite_bson::Value, bool)>,
        max: Option<(&doclite_bson::Value, bool)>,
    ) -> Option<Vec<DocId>> {
        match &self.backing {
            Backing::BTree(b) => Some(b.lookup_first_field_range(min, max)),
            Backing::Hashed(_) => None,
        }
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        match &self.backing {
            Backing::BTree(b) => b.key_count(),
            Backing::Hashed(h) => h.key_count(),
        }
    }

    /// Total number of (key, id) entries.
    pub fn entry_count(&self) -> usize {
        match &self.backing {
            Backing::BTree(b) => b.entry_count(),
            Backing::Hashed(h) => h.entry_count(),
        }
    }

    /// All ids in key order (B-tree) or arbitrary order (hashed); used by
    /// ordered-scan plans.
    pub fn all_ids_ordered(&self) -> Vec<DocId> {
        match &self.backing {
            Backing::BTree(b) => b.all_ids_ordered(),
            Backing::Hashed(h) => h.all_ids(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;

    #[test]
    fn def_builders_name_conventionally() {
        assert_eq!(IndexDef::single("a").name, "a_1");
        assert_eq!(IndexDef::compound(["a", "b"]).name, "a_1_b_1");
        assert_eq!(IndexDef::hashed("a").name, "a_hashed");
    }

    #[test]
    fn validation_rejects_bad_defs() {
        assert!(IndexDef { name: "x".into(), fields: vec![], kind: IndexKind::BTree, unique: false }
            .validate()
            .is_err());
        let mut h = IndexDef::hashed("a");
        h.fields.push(("b".into(), SortOrder::Ascending));
        assert!(h.validate().is_err());
        let dup = IndexDef::compound(["a", "a"]);
        assert!(dup.validate().is_err());
    }

    #[test]
    fn unique_index_rejects_duplicates_without_partial_state() {
        let mut idx = Index::new(IndexDef::single("k").unique()).unwrap();
        idx.insert(1, &doc! {"k" => 5i64}).unwrap();
        assert!(idx.insert(2, &doc! {"k" => 5i64}).is_err());
        assert_eq!(idx.entry_count(), 1);
    }

    #[test]
    fn insert_remove_roundtrip() {
        let mut idx = Index::new(IndexDef::single("k")).unwrap();
        let d = doc! {"k" => 5i64};
        idx.insert(1, &d).unwrap();
        idx.insert(2, &d).unwrap();
        assert_eq!(idx.entry_count(), 2);
        idx.remove(1, &d);
        assert_eq!(idx.entry_count(), 1);
        let key = CompoundKey::from_values(vec![doclite_bson::Value::Int64(5)]);
        assert_eq!(idx.lookup_eq(&key), vec![2]);
    }
}
