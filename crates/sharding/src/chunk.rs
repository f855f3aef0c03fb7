//! Chunks: contiguous, non-overlapping shard-key ranges (thesis
//! Section 2.1.3.3, Figures 2.6/2.7).
//!
//! What a chunk holds on its shard is read off the shard-key index
//! ([`Chunk::key_counts`], [`Chunk::documents`]), never by scanning the
//! collection, so a split or a migration costs the chunk's keys and
//! documents, not the collection's.

use crate::shardkey::{hashed_key, Partitioning, ShardKey};
use doclite_bson::Document;
use doclite_docstore::{Collection, DocId, IndexRead, Key, Result};
use std::cmp::Ordering;

/// Identifies a shard within the cluster.
pub type ShardId = usize;

/// Default maximum chunk size: 64 MB, MongoDB's default the thesis cites.
pub const DEFAULT_CHUNK_SIZE: usize = 64 * 1024 * 1024;

/// A boundary in the chunk keyspace.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum KeyBound {
    /// Below every key.
    MinKey,
    /// An actual key value (inclusive as a lower bound, exclusive as an
    /// upper bound).
    Key(Key),
    /// Above every key.
    MaxKey,
}

impl KeyBound {
    /// Compares the bound against a concrete key, treating the bound as a
    /// point in the extended keyspace.
    pub fn cmp_key(&self, key: &Key) -> Ordering {
        match self {
            KeyBound::MinKey => Ordering::Less,
            KeyBound::MaxKey => Ordering::Greater,
            KeyBound::Key(k) => k.cmp(key),
        }
    }

    /// Total order over bounds in the extended keyspace
    /// `MinKey < Key(..) < MaxKey`. Chunk ranges never place two
    /// distinct logical points at equal `Key`s, so this is enough for
    /// interval arithmetic (the ownership table's range subtraction).
    pub fn cmp_bound(&self, other: &KeyBound) -> Ordering {
        match (self, other) {
            (KeyBound::MinKey, KeyBound::MinKey) => Ordering::Equal,
            (KeyBound::MinKey, _) => Ordering::Less,
            (_, KeyBound::MinKey) => Ordering::Greater,
            (KeyBound::MaxKey, KeyBound::MaxKey) => Ordering::Equal,
            (KeyBound::MaxKey, _) => Ordering::Greater,
            (_, KeyBound::MaxKey) => Ordering::Less,
            (KeyBound::Key(a), KeyBound::Key(b)) => a.cmp(b),
        }
    }
}

/// A chunk: the half-open key range `[min, max)` plus its placement and
/// size accounting.
#[derive(Clone, Debug)]
pub struct Chunk {
    /// Inclusive lower bound.
    pub min: KeyBound,
    /// Exclusive upper bound.
    pub max: KeyBound,
    /// Owning shard.
    pub shard: ShardId,
    /// Approximate data bytes in the chunk.
    pub bytes: usize,
    /// Documents in the chunk.
    pub docs: usize,
    /// Marked jumbo: over the size cap but unsplittable because every
    /// document shares one shard-key value (thesis Fig 2.7 discussion).
    pub jumbo: bool,
}

impl Chunk {
    /// The full-keyspace chunk placed on a shard.
    pub fn full_range(shard: ShardId) -> Self {
        Chunk { min: KeyBound::MinKey, max: KeyBound::MaxKey, shard, bytes: 0, docs: 0, jumbo: false }
    }

    /// True if the chunk's range contains the key.
    pub fn contains(&self, key: &Key) -> bool {
        self.min.cmp_key(key) != Ordering::Greater && self.max.cmp_key(key) == Ordering::Greater
    }

    /// True if the chunk's range intersects `[lo, hi]` (both inclusive;
    /// `None` = unbounded). Used for range targeting.
    pub fn intersects(&self, lo: Option<&Key>, hi: Option<&Key>) -> bool {
        // chunk.min <= hi and chunk.max > lo
        let below_hi = match hi {
            None => true,
            Some(hi) => self.min.cmp_key(hi) != Ordering::Greater,
        };
        let above_lo = match lo {
            None => true,
            Some(lo) => self.max.cmp_key(lo) == Ordering::Greater,
        };
        below_hi && above_lo
    }

    /// How many documents of `coll` hold each of the chunk's shard-key
    /// values, in ascending key order — read off the shard-key index, no
    /// document touched. Fails when `coll` has no such index.
    pub fn key_counts(
        &self,
        coll: &Collection,
        key: &ShardKey,
    ) -> Result<Vec<(Key, usize)>> {
        coll.read_index(&key.index_def().name, |ix| {
            let mut counts = Vec::new();
            self.for_each_entry(key, &ix, |k, ids| counts.push((k.clone(), ids.len())));
            if key.partitioning() == Partitioning::Hashed {
                // Hashed keys arrive unordered, and two values can hash alike.
                counts.sort_unstable_by(|a, b| a.0.cmp(&b.0));
                counts.dedup_by(|b, a| {
                    let same = a.0 == b.0;
                    if same {
                        a.1 += b.1;
                    }
                    same
                });
            }
            counts
        })
    }

    /// The chunk's documents in `coll`, in slot order (the order a
    /// collection scan visits them), read off the shard-key index under
    /// one hold of the collection's shared lock. Fails when `coll` has no
    /// such index.
    pub fn documents(&self, coll: &Collection, key: &ShardKey) -> Result<Vec<Document>> {
        coll.read_index(&key.index_def().name, |ix| {
            let mut slots: Vec<DocId> = Vec::new();
            self.for_each_entry(key, &ix, |_, ids| slots.extend_from_slice(ids));
            slots.sort_unstable();
            slots.dedup();
            slots.into_iter().filter_map(|id| ix.doc(id).cloned()).collect()
        })
    }

    /// Visits the shard-key index entries inside the chunk as (chunk
    /// keyspace key, slots). A range key's index is a B-tree over the key
    /// itself, walked from the chunk's lower bound until its upper bound;
    /// a hashed key's index holds the values' keys, so every distinct
    /// one is hashed into the keyspace and kept if the chunk contains it.
    fn for_each_entry<'a>(
        &self,
        key: &ShardKey,
        ix: &IndexRead<'a>,
        mut visit: impl FnMut(&Key, &'a [DocId]),
    ) {
        match key.partitioning() {
            Partitioning::Range => {
                let from = match &self.min {
                    KeyBound::Key(k) => Some(k),
                    _ => None,
                };
                for (k, ids) in ix.keys_from(from) {
                    if self.max.cmp_key(k) != Ordering::Greater {
                        break;
                    }
                    visit(k, ids);
                }
            }
            Partitioning::Hashed => {
                for (k, ids) in ix.keys_from(None) {
                    let hashed = hashed_key(k.as_bytes());
                    if self.contains(&hashed) {
                        visit(&hashed, ids);
                    }
                }
            }
        }
    }

    /// Where the chunk splits, from its [`Chunk::key_counts`]: at the
    /// median key, advanced past the chunk's lower bound so the left
    /// chunk is not empty — MongoDB's split vector.
    pub fn split_point(&self, counts: &[(Key, usize)]) -> SplitPoint {
        let total: usize = counts.iter().map(|(_, n)| n).sum();
        if total < 2 {
            return SplitPoint::Keep;
        }
        if counts.len() == 1 {
            return SplitPoint::Jumbo;
        }
        // The median is the key at sorted position total / 2; `below`
        // counts the documents under key `at`.
        let (mut at, mut below) = (0, 0);
        while below + counts[at].1 <= total / 2 {
            below += counts[at].1;
            at += 1;
        }
        if self.min.cmp_key(&counts[at].0) == Ordering::Equal {
            below += counts[at].1;
            at += 1;
            if at == counts.len() {
                return SplitPoint::Keep;
            }
        }
        SplitPoint::At { key: counts[at].0.clone(), left_fraction: below as f64 / total as f64 }
    }
}

/// A chunk's split decision ([`Chunk::split_point`]).
#[derive(Clone, Debug, PartialEq)]
pub enum SplitPoint {
    /// Nothing to split: fewer than two documents, or none above a
    /// median that is the chunk's lower bound.
    Keep,
    /// Every document shares one shard-key value, so no split point
    /// exists: the chunk is **jumbo** (thesis Fig 2.7).
    Jumbo,
    /// Split at `key`; `left_fraction` of the documents sort below it.
    At { key: Key, left_fraction: f64 },
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::Value;

    fn k(v: i64) -> Key {
        Key::of(&Value::Int64(v))
    }

    #[test]
    fn full_range_contains_everything() {
        let c = Chunk::full_range(0);
        assert!(c.contains(&k(i64::MIN)));
        assert!(c.contains(&k(0)));
        assert!(c.contains(&k(i64::MAX)));
    }

    #[test]
    fn half_open_semantics() {
        let c = Chunk {
            min: KeyBound::Key(k(10)),
            max: KeyBound::Key(k(20)),
            shard: 0,
            bytes: 0,
            docs: 0,
            jumbo: false,
        };
        assert!(!c.contains(&k(9)));
        assert!(c.contains(&k(10)));
        assert!(c.contains(&k(19)));
        assert!(!c.contains(&k(20)));
    }

    #[test]
    fn bound_order_is_total() {
        use KeyBound::{MaxKey, MinKey};
        let bounds = [MinKey, KeyBound::Key(k(1)), KeyBound::Key(k(2)), MaxKey];
        for (i, a) in bounds.iter().enumerate() {
            for (j, b) in bounds.iter().enumerate() {
                assert_eq!(a.cmp_bound(b), i.cmp(&j), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn intersection() {
        let c = Chunk {
            min: KeyBound::Key(k(10)),
            max: KeyBound::Key(k(20)),
            shard: 0,
            bytes: 0,
            docs: 0,
            jumbo: false,
        };
        assert!(c.intersects(Some(&k(15)), Some(&k(25))));
        assert!(c.intersects(Some(&k(5)), Some(&k(10)))); // touches lower bound
        assert!(!c.intersects(Some(&k(20)), Some(&k(30)))); // max is exclusive
        assert!(c.intersects(None, None));
        assert!(c.intersects(Some(&k(19)), None));
        assert!(!c.intersects(Some(&k(99)), None));
    }
}
