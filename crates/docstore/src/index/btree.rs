//! Ordered B-tree index backing.
//!
//! Thesis Section 2.1.2: "MongoDB implements indexing by storing the keys
//! in a B-Tree data structure". We use the standard library's B-tree map
//! keyed by [`CompoundKey`], which gives the same `O(log n)` lookup the
//! thesis's complexity analysis (Section 4.1.3.1.1) assumes.

use crate::ordvalue::{CompoundKey, OrdValue};
use crate::storage::DocId;
use doclite_bson::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A B-tree mapping compound keys to posting lists of document ids.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<CompoundKey, Vec<DocId>>,
    entries: usize,
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry.
    pub fn insert(&mut self, key: CompoundKey, id: DocId) {
        self.map.entry(key).or_default().push(id);
        self.entries += 1;
    }

    /// Removes an entry, pruning empty posting lists.
    pub fn remove(&mut self, key: &CompoundKey, id: DocId) {
        if let Some(list) = self.map.get_mut(key) {
            if let Some(pos) = list.iter().position(|&d| d == id) {
                list.swap_remove(pos);
                self.entries -= 1;
            }
            if list.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Ids for an exact key.
    pub fn lookup_eq(&self, key: &CompoundKey) -> Vec<DocId> {
        self.map.get(key).cloned().unwrap_or_default()
    }

    /// Ids whose key's *first component* falls within the bounds
    /// (inclusive flags per bound). `None` bounds are unbounded.
    ///
    /// Compound keys are ordered lexicographically, so a first-component
    /// range corresponds to a contiguous B-tree span: we bracket with
    /// minimal/maximal sentinel suffixes.
    pub fn lookup_first_field_range(
        &self,
        min: Option<(&Value, bool)>,
        max: Option<(&Value, bool)>,
    ) -> Vec<DocId> {
        let lower: Bound<CompoundKey> = match min {
            None => Bound::Unbounded,
            Some((v, inclusive)) => {
                // Null is the minimum in canonical order, so (v, Null…) is
                // the smallest key whose first component is v.
                let key = CompoundKey(vec![OrdValue(v.clone())]);
                if inclusive {
                    Bound::Included(key)
                } else {
                    // Smallest key strictly greater than every key whose
                    // first component is v: rely on prefix ordering —
                    // exclusive on (v) itself still admits (v, x) suffixes,
                    // so filter below.
                    Bound::Excluded(key)
                }
            }
        };
        let upper: Bound<CompoundKey> = Bound::Unbounded;

        let mut out = Vec::new();
        for (k, ids) in self.map.range((lower, upper)) {
            let first = k.0.first().map(OrdValue::value);
            let Some(first) = first else { continue };
            if let Some((lo, inclusive)) = min {
                let ord = first.canonical_cmp(lo);
                if ord == std::cmp::Ordering::Less
                    || (!inclusive && ord == std::cmp::Ordering::Equal)
                {
                    continue;
                }
            }
            if let Some((hi, inclusive)) = max {
                let ord = first.canonical_cmp(hi);
                if ord == std::cmp::Ordering::Greater
                    || (!inclusive && ord == std::cmp::Ordering::Equal)
                {
                    break;
                }
            }
            out.extend_from_slice(ids);
        }
        out
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Number of (key, id) entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// All ids in ascending key order.
    pub fn all_ids_ordered(&self) -> Vec<DocId> {
        let mut out = Vec::with_capacity(self.entries);
        for ids in self.map.values() {
            out.extend_from_slice(ids);
        }
        out
    }

    /// Iterates (key, ids) in ascending key order from `from` (inclusive;
    /// `None` = the first key) — how a chunk split or migration reads the
    /// chunk's keys.
    pub fn iter_from(
        &self,
        from: Option<&CompoundKey>,
    ) -> impl Iterator<Item = (&CompoundKey, &[DocId])> {
        let lower = from.map_or(Bound::Unbounded, Bound::Included);
        self.map
            .range::<CompoundKey, _>((lower, Bound::Unbounded))
            .map(|(k, ids)| (k, ids.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> CompoundKey {
        CompoundKey::from_values(vec![Value::Int64(v)])
    }

    fn populated() -> BTreeIndex {
        let mut idx = BTreeIndex::new();
        for (i, v) in [(1, 10), (2, 20), (3, 20), (4, 30), (5, 40)] {
            idx.insert(k(v), i);
        }
        idx
    }

    #[test]
    fn eq_lookup() {
        let idx = populated();
        assert_eq!(idx.lookup_eq(&k(20)), vec![2, 3]);
        assert!(idx.lookup_eq(&k(99)).is_empty());
    }

    #[test]
    fn range_inclusive_exclusive() {
        let idx = populated();
        let v20 = Value::Int64(20);
        let v30 = Value::Int64(30);
        let mut ids = idx.lookup_first_field_range(Some((&v20, true)), Some((&v30, true)));
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3, 4]);
        let ids = idx.lookup_first_field_range(Some((&v20, false)), Some((&v30, false)));
        assert!(ids.is_empty());
    }

    #[test]
    fn unbounded_ranges() {
        let idx = populated();
        let v30 = Value::Int64(30);
        let mut ids = idx.lookup_first_field_range(None, Some((&v30, false)));
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3]);
        let mut ids = idx.lookup_first_field_range(Some((&v30, true)), None);
        ids.sort_unstable();
        assert_eq!(ids, vec![4, 5]);
        assert_eq!(idx.lookup_first_field_range(None, None).len(), 5);
    }

    #[test]
    fn remove_prunes() {
        let mut idx = populated();
        idx.remove(&k(20), 2);
        assert_eq!(idx.lookup_eq(&k(20)), vec![3]);
        idx.remove(&k(20), 3);
        assert!(idx.lookup_eq(&k(20)).is_empty());
        assert_eq!(idx.key_count(), 3);
        assert_eq!(idx.entry_count(), 3);
    }

    #[test]
    fn ordered_ids_follow_key_order() {
        let idx = populated();
        assert_eq!(idx.all_ids_ordered(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn range_over_compound_keys_filters_on_first_component() {
        let mut idx = BTreeIndex::new();
        idx.insert(CompoundKey::from_values(vec![Value::Int64(1), Value::from("z")]), 1);
        idx.insert(CompoundKey::from_values(vec![Value::Int64(2), Value::from("a")]), 2);
        idx.insert(CompoundKey::from_values(vec![Value::Int64(2), Value::from("b")]), 3);
        idx.insert(CompoundKey::from_values(vec![Value::Int64(3), Value::from("a")]), 4);
        let v2 = Value::Int64(2);
        let mut ids = idx.lookup_first_field_range(Some((&v2, true)), Some((&v2, true)));
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }
}
