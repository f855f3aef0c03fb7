//! Ordered B-tree index backing.
//!
//! Thesis Section 2.1.2: "MongoDB implements indexing by storing the keys
//! in a B-tree data structure". We use the standard library's B-tree map
//! keyed by the canonical key bytes ([`Key`]), which gives the same
//! `O(log n)` lookup the thesis's complexity analysis (Section
//! 4.1.3.1.1) assumes, with a `memcmp` per comparison. Since byte order
//! is canonical order, a range on a compound index's first field is one
//! contiguous span of the map.

use crate::keybytes::Key;
use crate::storage::DocId;
use doclite_bson::Value;
use std::collections::BTreeMap;
use std::ops::Bound;

/// A B-tree mapping (compound) keys to posting lists of document ids.
#[derive(Debug, Default)]
pub struct BTreeIndex {
    map: BTreeMap<Key, Vec<DocId>>,
    entries: usize,
}

impl BTreeIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry.
    pub fn insert(&mut self, key: Key, id: DocId) {
        self.map.entry(key).or_default().push(id);
        self.entries += 1;
    }

    /// Removes an entry, pruning empty posting lists.
    pub fn remove(&mut self, key: &Key, id: DocId) {
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

    /// Ids for an exact key, given as its bytes (a [`Key`] or a scratch
    /// buffer it was encoded into).
    pub fn lookup_eq(&self, key: &[u8]) -> &[DocId] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Ids whose key's *first component* falls within the bounds
    /// (inclusive flags per bound). `None` bounds are unbounded.
    ///
    /// Every key whose first component is `v` lies in
    /// `[enc(v), enc(v) + 0xFF)`, so the range is one span of the map:
    /// an inclusive bound is `enc(v)` below and `enc(v) + 0xFF` above,
    /// an exclusive one the other way round.
    pub fn lookup_first_field_range(
        &self,
        min: Option<(&Value, bool)>,
        max: Option<(&Value, bool)>,
    ) -> Vec<DocId> {
        let lower = match min {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Included(Key::of(v)),
            Some((v, false)) => Bound::Included(Key::of(v).prefix_end()),
        };
        let upper = match max {
            None => Bound::Unbounded,
            Some((v, true)) => Bound::Excluded(Key::of(v).prefix_end()),
            Some((v, false)) => Bound::Excluded(Key::of(v)),
        };
        if let (Bound::Included(lo), Bound::Excluded(hi)) = (&lower, &upper) {
            if lo > hi {
                return Vec::new();
            }
        }
        self.map.range((lower, upper)).flat_map(|(_, ids)| ids.iter().copied()).collect()
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
    pub fn iter_from(&self, from: Option<&Key>) -> impl Iterator<Item = (&Key, &[DocId])> {
        let lower = from.map_or(Bound::Unbounded, Bound::Included);
        self.map
            .range::<Key, _>((lower, Bound::Unbounded))
            .map(|(k, ids)| (k, ids.as_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> Key {
        Key::of(&Value::Int64(v))
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
        assert_eq!(idx.lookup_eq(k(20).as_bytes()), vec![2, 3]);
        assert!(idx.lookup_eq(k(99).as_bytes()).is_empty());
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
        assert_eq!(idx.lookup_eq(k(20).as_bytes()), vec![3]);
        idx.remove(&k(20), 3);
        assert!(idx.lookup_eq(k(20).as_bytes()).is_empty());
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
        idx.insert(Key::from_values(&[Value::Int64(1), Value::from("z")]), 1);
        idx.insert(Key::from_values(&[Value::Int64(2), Value::from("a")]), 2);
        idx.insert(Key::from_values(&[Value::Int64(2), Value::from("b")]), 3);
        idx.insert(Key::from_values(&[Value::Int64(3), Value::from("a")]), 4);
        let v2 = Value::Int64(2);
        let mut ids = idx.lookup_first_field_range(Some((&v2, true)), Some((&v2, true)));
        ids.sort_unstable();
        assert_eq!(ids, vec![2, 3]);
    }

    /// Second components of every type rank, up to `DateTime(i64::MAX)`
    /// (the largest key there is): a first-field range takes every one
    /// of them under an included head and none under an excluded one.
    #[test]
    fn first_field_ranges_hold_every_second_component() {
        use doclite_bson::{array, doc, ObjectId};
        let tails = [
            Value::Null,
            Value::Int64(i64::MIN),
            Value::Double(f64::NAN),
            Value::Int64(i64::MAX),
            Value::from(""),
            Value::from("\0\u{ff}"),
            Value::Document(doc! {}),
            Value::Document(doc! {"" => "z"}),
            Value::Array(vec![]),
            array![array![1i64]],
            Value::Bool(false),
            Value::Bool(true),
            Value::ObjectId(ObjectId::from_bytes([0; 12])),
            Value::ObjectId(ObjectId::from_bytes([0xFF; 12])),
            Value::DateTime(i64::MIN),
            Value::DateTime(i64::MAX),
        ];
        let heads = [Value::Int64(1), Value::Int64(2), Value::Double(2.5), Value::Int64(3)];
        let mut idx = BTreeIndex::new();
        let mut entries = Vec::new();
        for head in &heads {
            for tail in &tails {
                let id = entries.len() as DocId;
                idx.insert(Key::from_values([head, tail]), id);
                entries.push((head.clone(), id));
            }
        }
        let two = Value::Int64(2);
        let three = Value::Double(3.0);
        let bounds = [None, Some((&two, true)), Some((&two, false)), Some((&three, true)), Some((&three, false))];
        for min in bounds {
            for max in bounds {
                let mut got = idx.lookup_first_field_range(min, max);
                got.sort_unstable();
                let inside = |v: &Value| {
                    min.is_none_or(|(lo, incl)| match v.canonical_cmp(lo) {
                        std::cmp::Ordering::Equal => incl,
                        o => o == std::cmp::Ordering::Greater,
                    }) && max.is_none_or(|(hi, incl)| match v.canonical_cmp(hi) {
                        std::cmp::Ordering::Equal => incl,
                        o => o == std::cmp::Ordering::Less,
                    })
                };
                let want: Vec<DocId> =
                    entries.iter().filter(|(v, _)| inside(v)).map(|(_, id)| *id).collect();
                assert_eq!(got, want, "min={min:?} max={max:?}");
            }
        }
    }
}
