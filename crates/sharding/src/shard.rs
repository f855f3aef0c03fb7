//! A shard: one cluster node holding a slice of the data (thesis
//! Section 2.1.3.1 component i). A shard is "either a single mongod
//! instance or a replica set" — here every shard is backed by a
//! [`ReplicaSet`], with a single-member set standing in for the bare
//! `mongod` of the thesis's evaluation cluster and multi-member sets
//! reproducing Fig 2.5's replicated production topology.

use crate::chunk::{KeyBound, ShardId};
use doclite_docstore::Key;
use crate::replica::{ReadPreference, ReplicaSet};
use doclite_docstore::wal::SyncPolicy;
use doclite_docstore::{Database, Error, Result};
use parking_lot::RwLock;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::path::Path;
use std::sync::Arc;

/// A shard wraps a replica set of full document-store engines, exactly
/// as each cluster node in the paper ran its own `mongod`.
pub struct Shard {
    id: ShardId,
    name: String,
    rs: ReplicaSet,
    /// Key ranges this shard has *surrendered* per collection: the
    /// migration critical section. A range enters the table when a
    /// chunk starts moving away and leaves it if a chunk moves back
    /// (interval subtraction). The table is negative — absent
    /// collection = owns everything — so unsharded traffic never
    /// touches it. Writes addressed to a surrendered range fail with
    /// [`Error::StaleRoute`] instead of landing on a shard the router's
    /// (stale) view still thinks owns them.
    surrendered: RwLock<HashMap<String, Vec<(KeyBound, KeyBound)>>>,
}

impl Shard {
    /// Creates a single-member shard with a conventional name (`Shard1`,
    /// `Shard2`, … — the node names of thesis Table 3.4).
    pub fn new(id: ShardId, db_name: &str) -> Self {
        Self::with_replicas(id, db_name, 1)
    }

    /// Creates a shard backed by a `members`-strong replica set
    /// (`members ≥ 1`). Member databases are named
    /// `{db_name}_s{id}_m{member}`.
    pub fn with_replicas(id: ShardId, db_name: &str, members: usize) -> Self {
        Shard {
            id,
            name: format!("Shard{}", id + 1),
            rs: ReplicaSet::new(format!("{db_name}_s{id}"), members),
            surrendered: RwLock::new(HashMap::new()),
        }
    }

    /// Like [`Shard::with_replicas`], but every member is durable: WAL
    /// and checkpoints live under `<base_dir>/m<member>`, so a crashed
    /// member restarts with all of its acknowledged writes.
    pub fn with_durable_replicas(
        id: ShardId,
        db_name: &str,
        members: usize,
        base_dir: &Path,
        sync: SyncPolicy,
    ) -> Result<Self> {
        Ok(Shard {
            id,
            name: format!("Shard{}", id + 1),
            rs: ReplicaSet::new_durable(format!("{db_name}_s{id}"), members, base_dir, sync)?,
            surrendered: RwLock::new(HashMap::new()),
        })
    }

    /// The shard id.
    pub fn id(&self) -> ShardId {
        self.id
    }

    /// The shard's node name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backing replica set.
    pub fn replica_set(&self) -> &ReplicaSet {
        &self.rs
    }

    /// The shard-local database engine: the replica-set primary's copy.
    /// This is the inspection handle (balancer bookkeeping, tests,
    /// data-size reports); routed traffic goes through
    /// [`Shard::replica_set`] or [`Shard::read_db`] so replication and
    /// failover apply.
    pub fn db(&self) -> Arc<Database> {
        self.rs.db()
    }

    /// The database serving reads under `pref`, with failover to any
    /// healthy member; errors when every member is down.
    pub fn read_db(&self, pref: ReadPreference) -> Result<Arc<Database>> {
        self.rs.read_db(pref)
    }

    /// Number of replica-set members.
    pub fn member_count(&self) -> usize {
        self.rs.member_count()
    }

    /// Bytes of data stored on this shard (primary copy; replicas hold
    /// the same data again).
    pub fn data_size(&self) -> usize {
        self.db().data_size()
    }

    /// Marks `[min, max)` of `collection` as no longer owned: the first
    /// step of a chunk migration. Taken under the write lock, so it
    /// strictly orders against in-flight [`Shard::owned_write`] calls —
    /// once this returns, every write the migration's source scan can
    /// miss is already applied, and every later write bounces with
    /// [`Error::StaleRoute`].
    pub fn surrender_range(&self, collection: &str, min: KeyBound, max: KeyBound) {
        self.surrendered
            .write()
            .entry(collection.to_string())
            .or_default()
            .push((min, max));
    }

    /// Returns `[min, max)` of `collection` to this shard's ownership
    /// (a chunk migrated back in). Interval-subtracts the range from
    /// every surrendered entry, splitting entries it punches through.
    pub fn reclaim_range(&self, collection: &str, min: &KeyBound, max: &KeyBound) {
        let mut table = self.surrendered.write();
        let Some(ranges) = table.get_mut(collection) else { return };
        let mut kept = Vec::with_capacity(ranges.len());
        for (a, b) in ranges.drain(..) {
            // No overlap with [min, max): keep whole.
            if b.cmp_bound(min) != Ordering::Greater || a.cmp_bound(max) != Ordering::Less {
                kept.push((a, b));
                continue;
            }
            if a.cmp_bound(min) == Ordering::Less {
                kept.push((a, min.clone()));
            }
            if max.cmp_bound(&b) == Ordering::Less {
                kept.push((max.clone(), b));
            }
        }
        if kept.is_empty() {
            table.remove(collection);
        } else {
            *ranges = kept;
        }
    }

    /// True if this shard still owns `key` in `collection` (i.e. the
    /// key lies in no surrendered range).
    pub fn owns(&self, collection: &str, key: &Key) -> bool {
        let table = self.surrendered.read();
        match table.get(collection) {
            None => true,
            Some(ranges) => !ranges.iter().any(|(min, max)| {
                min.cmp_key(key) != Ordering::Greater && max.cmp_key(key) == Ordering::Greater
            }),
        }
    }

    /// Runs a key-addressed write against this shard *while holding the
    /// ownership read lock*, so the write cannot interleave with a
    /// migration's surrender-then-scan: either it lands before the
    /// surrender (and the scan copies it) or it observes the surrender
    /// and bounces with [`Error::StaleRoute`] without running `op`.
    /// A bulk write passes every key it addresses: one surrendered key
    /// bounces the whole request before any of it applies. No keys (a
    /// broadcast, an unsharded collection) means nothing to check.
    pub fn owned_write<T>(
        &self,
        collection: &str,
        keys: &[Key],
        op: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        if keys.is_empty() {
            return op();
        }
        let table = self.surrendered.read();
        let stale = table.get(collection).is_some_and(|ranges| {
            keys.iter().any(|key| {
                ranges.iter().any(|(min, max)| {
                    min.cmp_key(key) != Ordering::Greater && max.cmp_key(key) == Ordering::Greater
                })
            })
        });
        if stale {
            return Err(Error::StaleRoute(format!(
                "{} no longer owns the targeted range of '{collection}'",
                self.name
            )));
        }
        op()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::WriteConcern;
    use doclite_bson::doc;

    #[test]
    fn shard_names_follow_thesis_convention() {
        assert_eq!(Shard::new(0, "d").name(), "Shard1");
        assert_eq!(Shard::new(2, "d").name(), "Shard3");
    }

    #[test]
    fn shard_wraps_engine() {
        let s = Shard::new(0, "d");
        s.db().collection("c").insert_one(doc! {"a" => 1i64}).unwrap();
        assert_eq!(s.db().get_collection("c").unwrap().len(), 1);
        assert!(s.data_size() > 0);
    }

    #[test]
    fn ownership_surrender_reclaim_roundtrip() {
        use doclite_bson::Value;
        let key = |v: i64| Key::of(&Value::Int64(v));
        let bound = |v: i64| KeyBound::Key(key(v));
        let s = Shard::new(0, "d");
        // Default: owns everything, and owned_write runs the op.
        assert!(s.owns("c", &key(5)));
        assert_eq!(s.owned_write("c", &[key(5)], || Ok(1)).unwrap(), 1);

        s.surrender_range("c", bound(10), bound(20));
        assert!(s.owns("c", &key(9)));
        assert!(!s.owns("c", &key(10)));
        assert!(!s.owns("c", &key(19)));
        assert!(s.owns("c", &key(20)));
        // Other collections are unaffected.
        assert!(s.owns("other", &key(15)));
        // A write into the surrendered range bounces without running.
        let err = s
            .owned_write("c", &[key(9), key(15)], || -> Result<()> { panic!("op must not run") })
            .unwrap_err();
        assert!(matches!(err, Error::StaleRoute(_)));

        // Reclaiming the middle splits the surrendered range.
        s.reclaim_range("c", &bound(13), &bound(16));
        assert!(!s.owns("c", &key(12)));
        assert!(s.owns("c", &key(14)));
        assert!(!s.owns("c", &key(17)));
        // Reclaiming supersets clears the table entirely.
        s.reclaim_range("c", &KeyBound::MinKey, &KeyBound::MaxKey);
        assert!(s.owns("c", &key(12)));
        assert!(s.surrendered.read().is_empty());
    }

    #[test]
    fn replicated_shard_serves_reads_after_primary_loss() {
        let s = Shard::with_replicas(0, "d", 3);
        s.replica_set()
            .insert_one("c", doc! {"a" => 1i64}, WriteConcern::Majority)
            .unwrap();
        s.replica_set().fail_member(0);
        let db = s.read_db(ReadPreference::Primary).unwrap();
        assert_eq!(db.get_collection("c").unwrap().len(), 1);
    }
}
