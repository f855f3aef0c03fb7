//! The balancer: evens chunk counts across shards so "resources such as
//! RAM and CPU can be utilized effectively" (thesis Section 2.1.3.2).

use crate::chunk::ShardId;
use crate::router::Mongos;
use doclite_docstore::{Error, Result};
use std::collections::{BTreeMap, BTreeSet};

/// A migration performed by one balancing round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Migration {
    pub collection: String,
    pub chunk_index: usize,
    pub from: ShardId,
    pub to: ShardId,
    pub docs_moved: usize,
}

/// Chunk-count balancer. A round repeatedly moves one chunk from the
/// most-loaded shard to the least-loaded shard until the spread is within
/// `threshold` (MongoDB's migration threshold is 2 for small clusters;
/// the default here is 1 so test-size clusters converge tightly).
#[derive(Clone, Copy, Debug)]
pub struct Balancer {
    /// Maximum tolerated difference in chunk counts between the heaviest
    /// and lightest shard.
    pub threshold: usize,
    /// Safety valve on migrations per round.
    pub max_migrations: usize,
}

impl Default for Balancer {
    fn default() -> Self {
        Balancer { threshold: 1, max_migrations: 1024 }
    }
}

impl Balancer {
    /// Balances one collection, returning the migrations performed.
    ///
    /// Chunk counts are kept per shard *id* over the router's live
    /// shard set — identity-based, so the balancer keeps working after
    /// shards join or leave (ids are monotonic and sparse once a shard
    /// has been removed; a positional `vec[id]` would panic). Draining
    /// shards are prioritized as sources and never chosen as
    /// destinations, so a plain balancing round makes drain progress
    /// too.
    pub fn balance_collection(
        &self,
        router: &Mongos,
        collection: &str,
    ) -> Result<Vec<Migration>> {
        let mut migrations = Vec::new();
        for _ in 0..self.max_migrations {
            let Some(meta) = router.config().meta(collection) else { break };
            let live: Vec<ShardId> = router.shards().iter().map(|s| s.id()).collect();
            let draining: BTreeSet<ShardId> = router
                .config()
                .shard_entries()
                .iter()
                .filter(|e| e.draining)
                .map(|e| e.id)
                .collect();
            // Count chunks per live shard, including empty ones.
            let mut counts: BTreeMap<ShardId, usize> =
                live.iter().map(|&id| (id, 0)).collect();
            for c in &meta.chunks {
                *counts.entry(c.shard).or_insert(0) += 1;
            }
            let Some((&to, &min_n)) = counts
                .iter()
                .filter(|(id, _)| !draining.contains(id) && live.contains(id))
                .min_by_key(|(id, n)| (**n, **id))
            else {
                break; // no destination available (everything draining)
            };
            // Source: the fullest draining shard if any still holds
            // chunks; otherwise the fullest non-draining shard, subject
            // to the spread threshold.
            let drain_source = counts
                .iter()
                .filter(|(id, n)| draining.contains(id) && **n > 0)
                .max_by_key(|(id, n)| (**n, **id))
                .map(|(&id, _)| id);
            let from = match drain_source {
                Some(id) => id,
                None => {
                    let (&max_shard, &max_n) = counts
                        .iter()
                        .filter(|(id, _)| !draining.contains(id))
                        .max_by_key(|(id, n)| (**n, **id))
                        .expect("destination exists, so a source does too");
                    if max_n.saturating_sub(min_n) <= self.threshold {
                        break;
                    }
                    max_shard
                }
            };
            if from == to {
                break;
            }
            // Move the first movable chunk off the source. A drain must
            // empty the shard completely, so it moves jumbo chunks too;
            // plain balancing leaves them pinned.
            let moving_for_drain = drain_source.is_some();
            let Some(chunk_index) = meta
                .chunks
                .iter()
                .position(|c| c.shard == from && (moving_for_drain || !c.jumbo))
            else {
                break; // only jumbo chunks left; nothing movable
            };
            // Not held across the migration, whose routing flip would
            // otherwise copy the chunk table on this snapshot's account.
            drop(meta);
            let docs_moved = router.move_chunk(collection, chunk_index, to)?;
            migrations.push(Migration {
                collection: collection.to_owned(),
                chunk_index,
                from,
                to,
                docs_moved,
            });
        }
        Ok(migrations)
    }

    /// Balances every sharded collection.
    pub fn balance_all(&self, router: &Mongos) -> Result<Vec<Migration>> {
        let mut all = Vec::new();
        for name in router.config().sharded_collections() {
            all.extend(self.balance_collection(router, &name)?);
        }
        Ok(all)
    }

    /// Moves every chunk off `shard`, retrying each migration under the
    /// router's retry policy (a drain runs while traffic — and fault
    /// injection — is live; one bounced `move_chunk` must not wedge the
    /// whole removal). Returns the migrations performed; errors only
    /// after a migration exhausts its retries.
    pub fn drain_shard(&self, router: &Mongos, shard: ShardId) -> Result<Vec<Migration>> {
        let retry = router.retry_policy();
        let mut migrations = Vec::new();
        for collection in router.config().sharded_collections() {
            loop {
                if migrations.len() >= self.max_migrations {
                    return Err(Error::Unavailable(format!(
                        "drain of shard {shard} exceeded {} migrations",
                        self.max_migrations
                    )));
                }
                let Some(meta) = router.config().meta(&collection) else { break };
                let Some(chunk_index) = meta.chunks.iter().position(|c| c.shard == shard)
                else {
                    break; // collection fully drained
                };
                let draining: BTreeSet<ShardId> = router
                    .config()
                    .shard_entries()
                    .iter()
                    .filter(|e| e.draining)
                    .map(|e| e.id)
                    .collect();
                // Lightest live, non-draining destination.
                let live = router.shards();
                let mut counts: BTreeMap<ShardId, usize> = live
                    .iter()
                    .map(|s| s.id())
                    .filter(|id| *id != shard && !draining.contains(id))
                    .map(|id| (id, 0))
                    .collect();
                if counts.is_empty() {
                    return Err(Error::Unavailable(format!(
                        "no destination shard available to drain shard {shard}"
                    )));
                }
                for c in &meta.chunks {
                    if let Some(n) = counts.get_mut(&c.shard) {
                        *n += 1;
                    }
                }
                let (&to, _) = counts
                    .iter()
                    .min_by_key(|(id, n)| (**n, **id))
                    .expect("checked non-empty");
                drop(meta);
                let mut attempt = 0u32;
                let docs_moved = loop {
                    match router.move_chunk(&collection, chunk_index, to) {
                        Ok(n) => break n,
                        Err(e) => {
                            if attempt >= retry.max_retries {
                                return Err(e);
                            }
                            attempt += 1;
                            let backoff =
                                retry.jittered_backoff(attempt, shard as u64 + attempt as u64);
                            if !backoff.is_zero() {
                                std::thread::sleep(backoff);
                            }
                        }
                    }
                };
                migrations.push(Migration {
                    collection: collection.clone(),
                    chunk_index,
                    from: shard,
                    to,
                    docs_moved,
                });
            }
        }
        Ok(migrations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ConfigServer;
    use crate::network::NetworkModel;
    use crate::shard::Shard;
    use crate::shardkey::ShardKey;
    use doclite_bson::doc;
    use std::sync::Arc;

    fn loaded_router(n_shards: usize, docs: i64) -> Mongos {
        let shards: Vec<Arc<Shard>> = (0..n_shards)
            .map(|i| Arc::new(Shard::new(i, "test")))
            .collect();
        let r = Mongos::new(shards, Arc::new(ConfigServer::new()), NetworkModel::free());
        r.shard_collection("facts", ShardKey::range(["k"]), 2 * 1024).unwrap();
        for i in 0..docs {
            r.insert_one("facts", doc! {"k" => i, "pad" => "p".repeat(40)})
                .unwrap();
        }
        r
    }

    #[test]
    fn balancing_spreads_chunks_within_threshold() {
        let r = loaded_router(3, 600);
        let before = r.config().meta("facts").unwrap();
        assert!(before.chunks.len() >= 3, "need several chunks to balance");
        // All chunks start on shard 0.
        assert!(before.chunks.iter().all(|c| c.shard == 0));

        let migrations = Balancer::default().balance_collection(&r, "facts").unwrap();
        assert!(!migrations.is_empty());

        let after = r.config().meta("facts").unwrap();
        after.check_invariants().unwrap();
        let counts = after.chunks_per_shard();
        let max = counts.values().max().unwrap();
        let min_over_all_shards = (0..3)
            .map(|s| counts.get(&s).copied().unwrap_or(0))
            .min()
            .unwrap();
        assert!(max - min_over_all_shards <= 1);
        // No documents lost.
        assert_eq!(r.collection_len("facts"), 600);
    }

    #[test]
    fn queries_remain_correct_after_balancing() {
        let r = loaded_router(3, 300);
        Balancer::default().balance_collection(&r, "facts").unwrap();
        for probe in [0i64, 50, 299] {
            let hits = r.find("facts", &doclite_docstore::Filter::eq("k", probe));
            assert_eq!(hits.len(), 1, "k={probe}");
        }
    }

    #[test]
    fn balanced_cluster_is_a_fixpoint() {
        let r = loaded_router(2, 400);
        let b = Balancer::default();
        b.balance_collection(&r, "facts").unwrap();
        let again = b.balance_collection(&r, "facts").unwrap();
        assert!(again.is_empty());
    }

    #[test]
    fn balance_all_covers_every_sharded_collection() {
        let r = loaded_router(2, 200);
        r.shard_collection("other", ShardKey::range(["k"]), 1024).unwrap();
        for i in 0..100i64 {
            r.insert_one("other", doc! {"k" => i, "pad" => "q".repeat(40)})
                .unwrap();
        }
        let migrations = Balancer::default().balance_all(&r).unwrap();
        let colls: std::collections::HashSet<_> =
            migrations.iter().map(|m| m.collection.as_str()).collect();
        assert!(colls.contains("facts"));
        assert!(colls.contains("other"));
    }
}
