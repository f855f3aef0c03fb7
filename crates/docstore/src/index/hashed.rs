//! Hash index backing (equality lookups only).
//!
//! A `HashMap` keyed by the canonical key bytes ([`Key`]): byte equality
//! is canonical equality, so there is no collision chain to walk. The
//! stable [`hash_key`] over those bytes backs hashed shard keys (thesis
//! Section 2.1.3.3: "a hash is computed on the shard key value;
//! documents with nearby shard key values are likely to reside in
//! different chunks").

use crate::keybytes::Key;
use crate::storage::DocId;
use std::collections::HashMap;

/// The stable 64-bit hash of a key's bytes ([`Key::as_bytes`]) that
/// hashed shard keys place chunks by: FNV-1a with a splitmix64
/// finalizer, so chunk assignment is reproducible across runs and Rust
/// releases, and nearby keys land far apart.
pub fn hash_key(key: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;
    const FNV_PRIME: u64 = 0x1000_0000_01B3;
    let h = key.iter().fold(FNV_OFFSET, |h, &b| (h ^ u64::from(b)).wrapping_mul(FNV_PRIME));
    let mut z = h.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A hash index mapping keys to posting lists.
#[derive(Debug, Default)]
pub struct HashedIndex {
    map: HashMap<Key, Vec<DocId>>,
    entries: usize,
}

impl HashedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an entry.
    pub fn insert(&mut self, key: Key, id: DocId) {
        self.map.entry(key).or_default().push(id);
        self.entries += 1;
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &Key, id: DocId) {
        if let Some(ids) = self.map.get_mut(key) {
            if let Some(pos) = ids.iter().position(|&d| d == id) {
                ids.swap_remove(pos);
                self.entries -= 1;
            }
            if ids.is_empty() {
                self.map.remove(key);
            }
        }
    }

    /// Ids for an exact key, given as its bytes (a [`Key`] or a scratch
    /// buffer it was encoded into).
    pub fn lookup_eq(&self, key: &[u8]) -> &[DocId] {
        self.map.get(key).map_or(&[], Vec::as_slice)
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.len()
    }

    /// Number of (key, id) entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Iterates (key, ids) over every distinct key, arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&Key, &[DocId])> {
        self.map.iter().map(|(k, ids)| (k, ids.as_slice()))
    }

    /// All ids, arbitrary order.
    pub fn all_ids(&self) -> Vec<DocId> {
        self.map.values().flatten().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::Value;

    fn k(v: i64) -> Key {
        Key::of(&Value::Int64(v))
    }

    fn hash(v: &Value) -> u64 {
        hash_key(Key::of(v).as_bytes())
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = HashedIndex::new();
        idx.insert(k(1), 10);
        idx.insert(k(1), 11);
        idx.insert(k(2), 12);
        assert_eq!(idx.lookup_eq(k(1).as_bytes()), vec![10, 11]);
        assert_eq!(idx.entry_count(), 3);
        idx.remove(&k(1), 10);
        assert_eq!(idx.lookup_eq(k(1).as_bytes()), vec![11]);
        idx.remove(&k(1), 11);
        assert!(idx.lookup_eq(k(1).as_bytes()).is_empty());
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn hash_key_is_deterministic_and_type_insensitive_for_numbers() {
        assert_eq!(hash(&Value::Int64(42)), hash(&Value::Int64(42)));
        assert_eq!(hash(&Value::Int32(42)), hash(&Value::Double(42.0)));
        assert_ne!(hash(&Value::Int64(42)), hash(&Value::Int64(43)));
    }

    #[test]
    fn hash_key_spreads_sequential_values() {
        // Nearby keys should land far apart — the property hashed sharding
        // relies on to avoid hot chunks (thesis 2.1.3.3).
        let h1 = hash(&Value::Int64(1000));
        let h2 = hash(&Value::Int64(1001));
        assert!(h1.abs_diff(h2) > 1 << 32);
    }

    #[test]
    fn all_ids_complete() {
        let mut idx = HashedIndex::new();
        for i in 0..100 {
            idx.insert(k(i), i as DocId);
        }
        let mut ids = idx.all_ids();
        ids.sort_unstable();
        assert_eq!(ids, (0..100).collect::<Vec<_>>());
    }
}
