//! The config server: cluster metadata mapping chunks to shards
//! (thesis Section 2.1.3.1 component ii).

use crate::chunk::{Chunk, KeyBound, ShardId};
use crate::shardkey::ShardKey;
use doclite_docstore::Key;
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Sharding metadata for one collection: the shard key and the ordered,
/// contiguous chunk list.
#[derive(Clone, Debug)]
pub struct CollectionMeta {
    pub key: ShardKey,
    pub chunks: Vec<Chunk>,
    /// Maximum chunk size in bytes before a split is attempted.
    pub max_chunk_size: usize,
}

impl CollectionMeta {
    /// Index of the chunk containing a key.
    pub fn chunk_for(&self, key: &Key) -> usize {
        // Chunks are sorted by min and contiguous; binary search on min.
        let mut lo = 0usize;
        let mut hi = self.chunks.len();
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.chunks[mid].min.cmp_key(key) != std::cmp::Ordering::Greater {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        debug_assert!(self.chunks[lo].contains(key), "chunk map must cover keyspace");
        lo
    }

    /// Shards owning chunks that intersect `[lo, hi]` (inclusive,
    /// `None` = unbounded), deduplicated.
    pub fn shards_for_range(
        &self,
        lo: Option<&Key>,
        hi: Option<&Key>,
    ) -> Vec<ShardId> {
        let mut out: Vec<ShardId> = Vec::new();
        for c in &self.chunks {
            if c.intersects(lo, hi) && !out.contains(&c.shard) {
                out.push(c.shard);
            }
        }
        out.sort_unstable();
        out
    }

    /// All shards holding at least one chunk.
    pub fn all_shards(&self) -> Vec<ShardId> {
        let mut out: Vec<ShardId> = self.chunks.iter().map(|c| c.shard).collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Chunk count per shard (for the balancer).
    pub fn chunks_per_shard(&self) -> BTreeMap<ShardId, usize> {
        let mut m = BTreeMap::new();
        for c in &self.chunks {
            *m.entry(c.shard).or_insert(0) += 1;
        }
        m
    }

    /// Approximate resident documents per shard, from the chunk
    /// accounting the router maintains on every insert/split/migration.
    /// Feeds the cost-based per-leg `limit` sizing: a shard holding a
    /// small share of the data rarely contributes more than its share
    /// of a sorted window.
    pub fn docs_per_shard(&self) -> BTreeMap<ShardId, usize> {
        let mut m = BTreeMap::new();
        for c in &self.chunks {
            *m.entry(c.shard).or_insert(0) += c.docs;
        }
        m
    }

    /// Total approximate documents across all chunks.
    pub fn total_docs(&self) -> usize {
        self.chunks.iter().map(|c| c.docs).sum()
    }

    /// Verifies the chunk-map invariants: sorted, contiguous, covering.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.chunks.is_empty() {
            return Err("empty chunk map".into());
        }
        if self.chunks.first().expect("non-empty").min != KeyBound::MinKey {
            return Err("first chunk must start at MinKey".into());
        }
        if self.chunks.last().expect("non-empty").max != KeyBound::MaxKey {
            return Err("last chunk must end at MaxKey".into());
        }
        for w in self.chunks.windows(2) {
            if w[0].max != w[1].min {
                return Err(format!("gap/overlap between chunks: {:?} vs {:?}", w[0].max, w[1].min));
            }
        }
        Ok(())
    }
}

/// One shard's registration in the cluster metadata — its node name,
/// backing replica-set name and member count, mirroring MongoDB's
/// `config.shards` collection.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardEntry {
    pub id: ShardId,
    /// Node name (`Shard1`, `Shard2`, …).
    pub name: String,
    /// Name of the replica set backing the shard.
    pub replica_set: String,
    /// Configured replica-set member count.
    pub members: usize,
    /// True while the shard is being drained for removal: the balancer
    /// moves chunks *off* it and never *onto* it, and new chunk
    /// placements skip it. Mirrors `draining: true` in MongoDB's
    /// `config.shards` during `removeShard`.
    pub draining: bool,
}

/// The config server: per-collection sharding metadata plus the shard
/// registry. In the paper's cluster this is a dedicated `mongod`; here
/// it is an in-process metadata service the router consults on every
/// operation.
///
/// A collection's metadata is shared, not copied: [`ConfigServer::meta`]
/// hands out the `Arc` (a refcount bump per routed operation), and a
/// mutation copies the chunk table only while some snapshot of it is
/// still held ([`ConfigServer::with_meta_mut`]).
#[derive(Default)]
pub struct ConfigServer {
    collections: RwLock<BTreeMap<String, Arc<CollectionMeta>>>,
    shards: RwLock<Vec<ShardEntry>>,
    /// Next shard id to hand out. Ids are never reused after a removal,
    /// so a late-arriving event addressed to a removed shard can only
    /// miss (and be skipped), never hit a different shard that took
    /// over its slot.
    next_shard_id: std::sync::atomic::AtomicUsize,
}

impl ConfigServer {
    /// Creates an empty config server.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a shard (replaces an existing entry with the same id).
    pub fn register_shard(&self, entry: ShardEntry) {
        use std::sync::atomic::Ordering;
        self.next_shard_id.fetch_max(entry.id + 1, Ordering::Relaxed);
        let mut shards = self.shards.write();
        match shards.iter_mut().find(|e| e.id == entry.id) {
            Some(slot) => *slot = entry,
            None => shards.push(entry),
        }
        shards.sort_by_key(|e| e.id);
    }

    /// Hands out the next unused shard id (monotonic, never recycled).
    pub fn allocate_shard_id(&self) -> ShardId {
        self.next_shard_id
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
    }

    /// Snapshot of the shard registry.
    pub fn shard_entries(&self) -> Vec<ShardEntry> {
        self.shards.read().clone()
    }

    /// Marks (or unmarks) a shard as draining. Returns false if the
    /// shard is not registered.
    pub fn set_draining(&self, id: ShardId, draining: bool) -> bool {
        let mut shards = self.shards.write();
        match shards.iter_mut().find(|e| e.id == id) {
            Some(e) => {
                e.draining = draining;
                true
            }
            None => false,
        }
    }

    /// True if the shard is registered and marked draining.
    pub fn is_draining(&self, id: ShardId) -> bool {
        self.shards.read().iter().any(|e| e.id == id && e.draining)
    }

    /// Deregisters a shard. Refused (returns an error naming the
    /// collections) while any chunk still lives on it — callers must
    /// drain first.
    pub fn remove_shard_entry(&self, id: ShardId) -> Result<(), String> {
        // Hold the registry lock across the occupancy check so a
        // concurrent move_chunk *onto* the shard can't race the removal.
        let mut shards = self.shards.write();
        let occupied: Vec<String> = self
            .collections
            .read()
            .iter()
            .filter(|(_, m)| m.chunks.iter().any(|c| c.shard == id))
            .map(|(name, _)| name.clone())
            .collect();
        if !occupied.is_empty() {
            return Err(format!(
                "shard {id} still owns chunks of: {}",
                occupied.join(", ")
            ));
        }
        match shards.iter().position(|e| e.id == id) {
            Some(i) => {
                shards.remove(i);
                Ok(())
            }
            None => Err(format!("shard {id} is not registered")),
        }
    }

    /// Indices of `collection`'s chunks currently placed on `shard`.
    pub fn chunks_on_shard(&self, collection: &str, shard: ShardId) -> Vec<usize> {
        self.meta(collection)
            .map(|m| {
                m.chunks
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.shard == shard)
                    .map(|(i, _)| i)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Registers a collection as sharded, with a single full-range chunk
    /// on `initial_shard` that splits past `max_chunk_size` bytes — the
    /// experiments use small thresholds so scaled-down datasets still
    /// split into multi-chunk distributions. The metadata half of
    /// [`crate::Mongos::shard_collection`], the one public registration
    /// path: a collection registered here alone has no shard-key index to
    /// split or migrate by.
    pub(crate) fn shard_collection_with_chunk_size(
        &self,
        name: impl Into<String>,
        key: ShardKey,
        initial_shard: ShardId,
        max_chunk_size: usize,
    ) {
        let meta = CollectionMeta {
            key,
            chunks: vec![Chunk::full_range(initial_shard)],
            max_chunk_size,
        };
        self.collections.write().insert(name.into(), Arc::new(meta));
    }

    /// True if the collection is sharded.
    pub fn is_sharded(&self, name: &str) -> bool {
        self.collections.read().contains_key(name)
    }

    /// Snapshot of a collection's metadata: the shared table itself,
    /// which later mutations never change under its holder.
    pub fn meta(&self, name: &str) -> Option<Arc<CollectionMeta>> {
        self.collections.read().get(name).cloned()
    }

    /// Names of all sharded collections.
    pub fn sharded_collections(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// Mutates a collection's metadata under the config lock,
    /// copy-on-write: the table is copied first only if a snapshot of it
    /// is still held, and that holder keeps the table it took.
    pub fn with_meta_mut<R>(
        &self,
        name: &str,
        f: impl FnOnce(&mut CollectionMeta) -> R,
    ) -> Option<R> {
        let mut map = self.collections.write();
        map.get_mut(name).map(|meta| f(Arc::make_mut(meta)))
    }

    /// Splits a chunk at `split_key`: `[min, split)` stays, `[split, max)`
    /// becomes a new chunk on the same shard. Byte/doc accounting is
    /// divided according to `left_fraction`.
    pub fn split_chunk(
        &self,
        collection: &str,
        chunk_index: usize,
        split_key: Key,
        left_fraction: f64,
    ) -> bool {
        self.with_meta_mut(collection, |meta| {
            do_split(meta, chunk_index, split_key, left_fraction)
        })
        .unwrap_or(false)
    }

    /// Key-addressed variant of [`Self::split_chunk`] for concurrent
    /// callers: the target chunk is located by `locate` *under the
    /// config lock* (indices observed outside it may have shifted under
    /// a concurrent split), and the split is skipped unless the chunk
    /// still exceeds the collection's size threshold and isn't jumbo.
    pub fn split_chunk_at_key(
        &self,
        collection: &str,
        locate: &Key,
        split_key: Key,
        left_fraction: f64,
    ) -> bool {
        self.with_meta_mut(collection, |meta| {
            let idx = meta.chunk_for(locate);
            let chunk = &meta.chunks[idx];
            if chunk.bytes <= meta.max_chunk_size || chunk.jumbo {
                return false;
            }
            do_split(meta, idx, split_key, left_fraction)
        })
        .unwrap_or(false)
    }

    /// Reassigns a chunk to a different shard (the metadata half of a
    /// chunk migration).
    pub fn move_chunk(&self, collection: &str, chunk_index: usize, to: ShardId) -> bool {
        self.with_meta_mut(collection, |meta| {
            if let Some(c) = meta.chunks.get_mut(chunk_index) {
                c.shard = to;
                true
            } else {
                false
            }
        })
        .unwrap_or(false)
    }
}

/// Performs the split on a locked metadata view. The split point must
/// fall strictly inside the chunk or the split is refused.
fn do_split(
    meta: &mut CollectionMeta,
    chunk_index: usize,
    split_key: Key,
    left_fraction: f64,
) -> bool {
    let Some(chunk) = meta.chunks.get(chunk_index) else { return false };
    if !chunk.contains(&split_key) || chunk.min.cmp_key(&split_key) == std::cmp::Ordering::Equal {
        return false;
    }
    let mut left = chunk.clone();
    let mut right = chunk.clone();
    left.max = KeyBound::Key(split_key.clone());
    right.min = KeyBound::Key(split_key);
    let lf = left_fraction.clamp(0.0, 1.0);
    left.bytes = (chunk.bytes as f64 * lf) as usize;
    left.docs = (chunk.docs as f64 * lf) as usize;
    right.bytes = chunk.bytes - left.bytes;
    right.docs = chunk.docs - left.docs;
    left.jumbo = false;
    right.jumbo = false;
    meta.chunks.splice(chunk_index..=chunk_index, [left, right]);
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::DEFAULT_CHUNK_SIZE;
    use doclite_bson::Value;

    fn k(v: i64) -> Key {
        Key::of(&Value::Int64(v))
    }

    fn setup() -> ConfigServer {
        let cfg = ConfigServer::new();
        cfg.shard_collection_with_chunk_size("c", ShardKey::range(["k"]), 0, DEFAULT_CHUNK_SIZE);
        cfg
    }

    #[test]
    fn initial_single_chunk_covers_keyspace() {
        let cfg = setup();
        let meta = cfg.meta("c").unwrap();
        assert_eq!(meta.chunks.len(), 1);
        meta.check_invariants().unwrap();
        assert_eq!(meta.chunk_for(&k(i64::MIN)), 0);
        assert_eq!(meta.chunk_for(&k(i64::MAX)), 0);
    }

    #[test]
    fn split_preserves_invariants_and_routing() {
        let cfg = setup();
        cfg.with_meta_mut("c", |m| {
            m.chunks[0].bytes = 100;
            m.chunks[0].docs = 10;
        });
        assert!(cfg.split_chunk("c", 0, k(50), 0.4));
        let meta = cfg.meta("c").unwrap();
        assert_eq!(meta.chunks.len(), 2);
        meta.check_invariants().unwrap();
        assert_eq!(meta.chunk_for(&k(49)), 0);
        assert_eq!(meta.chunk_for(&k(50)), 1);
        assert_eq!(meta.chunks[0].bytes + meta.chunks[1].bytes, 100);
        assert_eq!(meta.chunks[0].docs, 4);
    }

    #[test]
    fn snapshots_are_shared_and_mutations_copy_only_what_is_held() {
        let cfg = setup();
        let held = cfg.meta("c").unwrap();
        assert!(Arc::ptr_eq(&held, &cfg.meta("c").unwrap()), "a snapshot is the table itself");
        assert!(cfg.split_chunk("c", 0, k(50), 0.5));
        // The holder keeps the table it took; the config has a new one.
        assert_eq!((held.chunks.len(), cfg.meta("c").unwrap().chunks.len()), (1, 2));
        drop(held);
        let before = Arc::as_ptr(&cfg.meta("c").unwrap());
        assert!(cfg.move_chunk("c", 1, 1));
        assert_eq!(Arc::as_ptr(&cfg.meta("c").unwrap()), before, "nothing held: edited in place");
    }

    #[test]
    fn split_at_chunk_min_is_rejected() {
        let cfg = setup();
        assert!(cfg.split_chunk("c", 0, k(10), 0.5));
        // splitting the right chunk exactly at its min would create an
        // empty chunk
        assert!(!cfg.split_chunk("c", 1, k(10), 0.5));
    }

    #[test]
    fn range_targeting_picks_intersecting_shards() {
        let cfg = setup();
        cfg.split_chunk("c", 0, k(100), 0.5);
        cfg.split_chunk("c", 1, k(200), 0.5);
        cfg.move_chunk("c", 1, 1);
        cfg.move_chunk("c", 2, 2);
        let meta = cfg.meta("c").unwrap();
        assert_eq!(meta.shards_for_range(Some(&k(120)), Some(&k(150))), vec![1]);
        assert_eq!(meta.shards_for_range(Some(&k(50)), Some(&k(150))), vec![0, 1]);
        assert_eq!(meta.shards_for_range(None, None), vec![0, 1, 2]);
        assert_eq!(meta.all_shards(), vec![0, 1, 2]);
    }

    fn entry(id: ShardId) -> ShardEntry {
        ShardEntry {
            id,
            name: format!("Shard{}", id + 1),
            replica_set: format!("rs{id}"),
            members: 1,
            draining: false,
        }
    }

    #[test]
    fn shard_ids_are_monotonic_and_never_reused() {
        let cfg = ConfigServer::new();
        cfg.register_shard(entry(0));
        cfg.register_shard(entry(1));
        assert_eq!(cfg.allocate_shard_id(), 2);
        cfg.register_shard(entry(2));
        cfg.remove_shard_entry(2).unwrap();
        // The freed id is not recycled.
        assert_eq!(cfg.allocate_shard_id(), 3);
    }

    #[test]
    fn draining_flag_roundtrip() {
        let cfg = ConfigServer::new();
        cfg.register_shard(entry(0));
        assert!(!cfg.is_draining(0));
        assert!(cfg.set_draining(0, true));
        assert!(cfg.is_draining(0));
        assert!(cfg.set_draining(0, false));
        assert!(!cfg.is_draining(0));
        assert!(!cfg.set_draining(9, true), "unknown shard");
    }

    #[test]
    fn removal_refused_while_chunks_remain() {
        let cfg = setup();
        cfg.register_shard(entry(0));
        cfg.register_shard(entry(1));
        cfg.split_chunk("c", 0, k(100), 0.5);
        cfg.move_chunk("c", 1, 1);
        let err = cfg.remove_shard_entry(1).unwrap_err();
        assert!(err.contains("c"), "error names the occupied collection: {err}");
        assert_eq!(cfg.chunks_on_shard("c", 1), vec![1]);
        cfg.move_chunk("c", 1, 0);
        cfg.remove_shard_entry(1).unwrap();
        assert_eq!(cfg.shard_entries().len(), 1);
        assert!(cfg.remove_shard_entry(1).is_err(), "double removal");
    }

    #[test]
    fn chunks_per_shard_counts() {
        let cfg = setup();
        cfg.split_chunk("c", 0, k(10), 0.5);
        cfg.move_chunk("c", 1, 1);
        let meta = cfg.meta("c").unwrap();
        let counts = meta.chunks_per_shard();
        assert_eq!(counts[&0], 1);
        assert_eq!(counts[&1], 1);
    }
}
