//! Hash index backing (equality lookups only).
//!
//! Backs the `Hashed` index kind and — through [`hash_key`] — hashed
//! shard keys (thesis Section 2.1.3.3: "a hash is computed on the shard
//! key value; documents with nearby shard key values are likely to reside
//! in different chunks").

use crate::ordvalue::CompoundKey;
use crate::storage::DocId;
use doclite_bson::Value;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

/// Computes the stable 64-bit hash of a value used by hashed indexes and
/// hashed shard keys. Deterministic across runs (fixed-seed FxHash-style
/// mixing over the canonical hash), so chunk assignment is reproducible.
pub fn hash_key(v: &Value) -> u64 {
    let mut h = StableHasher::default();
    // Hash the borrowed value directly with the canonical normalization
    // OrdValue's Hash impl applies — same bytes, no per-key clone.
    crate::ordvalue::hash_value(v, &mut h);
    h.finish()
}

/// A deterministic hasher (FNV-1a over the written bytes); `DefaultHasher`
/// would also be deterministic in practice but its algorithm is not
/// guaranteed stable across Rust releases.
#[derive(Default)]
struct StableHasher {
    state: u64,
}

impl Hasher for StableHasher {
    fn finish(&self) -> u64 {
        // Final avalanche (splitmix64) to spread low-entropy inputs.
        let mut z = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn write(&mut self, bytes: &[u8]) {
        const FNV_PRIME: u64 = 0x1000_0000_01B3;
        let mut s = if self.state == 0 { 0xCBF2_9CE4_8422_2325 } else { self.state };
        for &b in bytes {
            s ^= u64::from(b);
            s = s.wrapping_mul(FNV_PRIME);
        }
        self.state = s;
    }
}

/// A hash index mapping key hashes to posting lists. Collisions are
/// handled by storing the exact key alongside.
#[derive(Debug, Default)]
pub struct HashedIndex {
    map: HashMap<u64, Vec<(CompoundKey, Vec<DocId>)>>,
    entries: usize,
}

impl HashedIndex {
    /// Creates an empty index.
    pub fn new() -> Self {
        Self::default()
    }

    fn bucket_hash(key: &CompoundKey) -> u64 {
        let mut h = StableHasher::default();
        key.hash(&mut h);
        h.finish()
    }

    /// Adds an entry.
    pub fn insert(&mut self, key: CompoundKey, id: DocId) {
        let hash = Self::bucket_hash(&key);
        let bucket = self.map.entry(hash).or_default();
        match bucket.iter_mut().find(|(k, _)| *k == key) {
            Some((_, ids)) => ids.push(id),
            None => bucket.push((key, vec![id])),
        }
        self.entries += 1;
    }

    /// Removes an entry.
    pub fn remove(&mut self, key: &CompoundKey, id: DocId) {
        let hash = Self::bucket_hash(key);
        if let Some(bucket) = self.map.get_mut(&hash) {
            if let Some((_, ids)) = bucket.iter_mut().find(|(k, _)| k == key) {
                if let Some(pos) = ids.iter().position(|&d| d == id) {
                    ids.swap_remove(pos);
                    self.entries -= 1;
                }
            }
            bucket.retain(|(_, ids)| !ids.is_empty());
            if bucket.is_empty() {
                self.map.remove(&hash);
            }
        }
    }

    /// Ids for an exact key.
    pub fn lookup_eq(&self, key: &CompoundKey) -> Vec<DocId> {
        let hash = Self::bucket_hash(key);
        self.map
            .get(&hash)
            .and_then(|bucket| bucket.iter().find(|(k, _)| k == key))
            .map(|(_, ids)| ids.clone())
            .unwrap_or_default()
    }

    /// Number of distinct keys.
    pub fn key_count(&self) -> usize {
        self.map.values().map(Vec::len).sum()
    }

    /// Number of (key, id) entries.
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Iterates (key, ids) over every distinct key, arbitrary order.
    pub fn iter(&self) -> impl Iterator<Item = (&CompoundKey, &[DocId])> {
        self.map.values().flatten().map(|(k, ids)| (k, ids.as_slice()))
    }

    /// All ids, arbitrary order.
    pub fn all_ids(&self) -> Vec<DocId> {
        let mut out = Vec::with_capacity(self.entries);
        for bucket in self.map.values() {
            for (_, ids) in bucket {
                out.extend_from_slice(ids);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn k(v: i64) -> CompoundKey {
        CompoundKey::from_values(vec![Value::Int64(v)])
    }

    #[test]
    fn insert_lookup_remove() {
        let mut idx = HashedIndex::new();
        idx.insert(k(1), 10);
        idx.insert(k(1), 11);
        idx.insert(k(2), 12);
        assert_eq!(idx.lookup_eq(&k(1)), vec![10, 11]);
        assert_eq!(idx.entry_count(), 3);
        idx.remove(&k(1), 10);
        assert_eq!(idx.lookup_eq(&k(1)), vec![11]);
        idx.remove(&k(1), 11);
        assert!(idx.lookup_eq(&k(1)).is_empty());
        assert_eq!(idx.key_count(), 1);
    }

    #[test]
    fn hash_key_is_deterministic_and_type_insensitive_for_numbers() {
        assert_eq!(hash_key(&Value::Int64(42)), hash_key(&Value::Int64(42)));
        assert_eq!(hash_key(&Value::Int32(42)), hash_key(&Value::Double(42.0)));
        assert_ne!(hash_key(&Value::Int64(42)), hash_key(&Value::Int64(43)));
    }

    #[test]
    fn hash_key_spreads_sequential_values() {
        // Nearby keys should land far apart — the property hashed sharding
        // relies on to avoid hot chunks (thesis 2.1.3.3).
        let h1 = hash_key(&Value::Int64(1000));
        let h2 = hash_key(&Value::Int64(1001));
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
