//! Cluster assembly: shards + config server + router in one handle,
//! mirroring the thesis's deployment (Fig 3.1: three shards, one config
//! server, one AppServer/QueryRouter).

use crate::balancer::Balancer;
use crate::chunk::ShardId;
use crate::config::ConfigServer;
use crate::network::{NetworkModel, RetryPolicy};
use crate::replica::{ReadPreference, WriteConcern};
use crate::router::{DegradedReads, Mongos};
use crate::shard::Shard;
use crate::shardkey::ShardKey;
use doclite_docstore::wal::SyncPolicy;
use doclite_docstore::{Error, Result};
use std::path::PathBuf;
use std::sync::Arc;

/// Where and how durably the shards persist their data. Each shard's
/// members keep their WAL + checkpoints under
/// `<dir>/s<shard>/m<member>`.
#[derive(Clone, Debug)]
pub struct DurabilityConfig {
    /// Root directory for the cluster's durability state.
    pub dir: PathBuf,
    /// Fsync cadence for every member WAL.
    pub sync: SyncPolicy,
}

/// Build-time knobs for a [`ShardedCluster`]. `Default` reproduces the
/// thesis deployment: three unreplicated shards, a free network, `w:1`
/// writes, primary reads, and fail-fast behaviour when a shard is
/// unreachable.
#[derive(Clone, Debug)]
pub struct ClusterConfig {
    /// Number of shards (thesis: 3).
    pub n_shards: usize,
    /// Replica-set members per shard: 1 reproduces the thesis's
    /// unreplicated evaluation cluster, 3 the replicated production
    /// topology of its Fig 2.5.
    pub replicas_per_shard: usize,
    /// Database name shared by the shards.
    pub db_name: String,
    /// Router↔shard network model.
    pub network: NetworkModel,
    /// Write concern the router applies to every routed write.
    pub write_concern: WriteConcern,
    /// Member preference for routed reads.
    pub read_preference: ReadPreference,
    /// Retry/backoff policy for exchanges hit by injected faults.
    pub retry: RetryPolicy,
    /// What reads do when a whole shard stays unreachable.
    pub degraded_reads: DegradedReads,
    /// Crash durability for shard members (`None` = in-memory only, the
    /// thesis's evaluation setup).
    pub durability: Option<DurabilityConfig>,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            n_shards: 3,
            replicas_per_shard: 1,
            db_name: "Dataset".into(),
            network: NetworkModel::free(),
            write_concern: WriteConcern::default(),
            read_preference: ReadPreference::default(),
            retry: RetryPolicy::default(),
            degraded_reads: DegradedReads::default(),
            durability: None,
        }
    }
}

/// A fully wired sharded cluster.
pub struct ShardedCluster {
    router: Mongos,
    balancer: Balancer,
    /// The build-time configuration, kept so shards added online are
    /// constructed identically to the founding ones (replica count,
    /// database name, durability layout).
    cfg: ClusterConfig,
}

impl ShardedCluster {
    /// Builds a cluster of `n_shards` unreplicated shards sharing a
    /// database name, with the given network model between router and
    /// shards. The thesis's configuration is `n_shards = 3`.
    pub fn new(n_shards: usize, db_name: &str, network: NetworkModel) -> Self {
        Self::with_config(ClusterConfig {
            n_shards,
            db_name: db_name.to_owned(),
            network,
            ..ClusterConfig::default()
        })
    }

    /// Builds a cluster from a full [`ClusterConfig`] — replica-backed
    /// shards, write concern, read preference, retry policy and
    /// degraded-read behaviour included. Every shard is registered in
    /// the config server's shard registry.
    pub fn with_config(cfg: ClusterConfig) -> Self {
        let shards: Vec<Arc<Shard>> = (0..cfg.n_shards).map(|i| build_shard(&cfg, i)).collect();
        let config = Arc::new(ConfigServer::new());
        for s in &shards {
            config.register_shard(shard_entry(s));
        }
        let mut router = Mongos::new(shards, config, cfg.network);
        router.set_write_concern(cfg.write_concern);
        router.set_read_preference(cfg.read_preference);
        router.set_retry_policy(cfg.retry);
        router.set_degraded_reads(cfg.degraded_reads);
        ShardedCluster { router, balancer: Balancer::default(), cfg }
    }

    /// Adds a brand-new, empty shard to the running cluster and returns
    /// its id (monotonic — removed ids are never reused). The shard is
    /// built from the cluster's own config (same replica count and
    /// durability layout), given every sharded collection's shard-key
    /// index, registered with the config server, and handed to the
    /// router. It holds no chunks until the next balancing round (or
    /// [`ShardedCluster::balance`]) migrates some in.
    pub fn add_shard(&self) -> Result<ShardId> {
        let id = self.router.config().allocate_shard_id();
        let shard = build_shard(&self.cfg, id);
        // Pre-create the shard-key index for every sharded collection,
        // directly on the new shard: `Mongos::create_index` fans out to
        // the whole cluster, which is redundant here.
        for name in self.router.config().sharded_collections() {
            if let Some(meta) = self.router.config().meta(&name) {
                shard.replica_set().create_index(&name, meta.key.index_def())?;
            }
        }
        self.router.config().register_shard(shard_entry(&shard));
        self.router.add_shard(shard);
        Ok(id)
    }

    /// Removes a shard from the running cluster: marks it draining
    /// (excluded as a balancing destination from that point), migrates
    /// every chunk off it with per-migration retries, verifies nothing
    /// is left, then deregisters it from the config server and the
    /// router. Returns the number of chunks drained.
    ///
    /// On a drain failure (destination unreachable past the retry
    /// budget) the shard is left *in* the cluster, still marked
    /// draining: traffic keeps flowing, the balancer keeps draining it
    /// opportunistically, and [`ShardedCluster::finish_drains`] can
    /// complete the removal once the cluster heals.
    pub fn remove_shard(&self, id: ShardId) -> Result<usize> {
        if !self.router.shards().iter().any(|s| s.id() == id) {
            return Err(Error::StaleRoute(format!("shard {id} is not part of the cluster")));
        }
        if id == 0 {
            return Err(Error::InvalidQuery(
                "cannot remove the primary shard (unsharded collections live there)".into(),
            ));
        }
        self.router.config().set_draining(id, true);
        let moved = self.balancer.drain_shard(&self.router, id)?;
        self.router
            .config()
            .remove_shard_entry(id)
            .map_err(Error::Unavailable)?;
        self.router.remove_shard(id)?;
        Ok(moved.len())
    }

    /// Completes any removal that was left mid-drain (e.g. because the
    /// destination was partitioned when [`ShardedCluster::remove_shard`]
    /// ran). Returns the ids of the shards removed this call.
    pub fn finish_drains(&self) -> Result<Vec<ShardId>> {
        let mut removed = Vec::new();
        let draining: Vec<ShardId> = self
            .router
            .config()
            .shard_entries()
            .iter()
            .filter(|e| e.draining)
            .map(|e| e.id)
            .collect();
        for id in draining {
            if !self.router.shards().iter().any(|s| s.id() == id) {
                continue; // already gone
            }
            self.balancer.drain_shard(&self.router, id)?;
            self.router
                .config()
                .remove_shard_entry(id)
                .map_err(Error::Unavailable)?;
            self.router.remove_shard(id)?;
            removed.push(id);
        }
        Ok(removed)
    }

    /// The router (all reads and writes go through it).
    pub fn router(&self) -> &Mongos {
        &self.router
    }

    /// Mutable router access (e.g. to switch scatter mode).
    pub fn router_mut(&mut self) -> &mut Mongos {
        &mut self.router
    }

    /// The balancer.
    pub fn balancer(&self) -> &Balancer {
        &self.balancer
    }

    /// Number of shards.
    pub fn n_shards(&self) -> usize {
        self.router.shards().len()
    }

    /// Shards a collection: the shard-key index on every shard, then the
    /// metadata ([`Mongos::shard_collection`]).
    pub fn shard_collection(
        &self,
        name: &str,
        key: ShardKey,
        max_chunk_size: usize,
    ) -> Result<()> {
        self.router.shard_collection(name, key, max_chunk_size)
    }

    /// Runs a balancing round over all sharded collections.
    pub fn balance(&self) -> Result<usize> {
        Ok(self.balancer.balance_all(&self.router)?.len())
    }

    /// Total bytes stored across the cluster.
    pub fn data_size(&self) -> usize {
        self.router.shards().iter().map(|s| s.data_size()).sum()
    }
}

/// Builds one shard according to the cluster config (used both at
/// construction and for shards added online).
fn build_shard(cfg: &ClusterConfig, id: ShardId) -> Arc<Shard> {
    let shard = match &cfg.durability {
        // An unopenable durability directory is a
        // deployment error, not a runtime condition the
        // router could route around: fail loudly at build.
        Some(d) => Shard::with_durable_replicas(
            id,
            &cfg.db_name,
            cfg.replicas_per_shard,
            &d.dir.join(format!("s{id}")),
            d.sync,
        )
        .expect("shard durability directory must be usable"),
        None => Shard::with_replicas(id, &cfg.db_name, cfg.replicas_per_shard),
    };
    Arc::new(shard)
}

/// The config-server registration for a shard.
fn shard_entry(s: &Shard) -> crate::config::ShardEntry {
    crate::config::ShardEntry {
        id: s.id(),
        name: s.name().to_owned(),
        replica_set: s.replica_set().name().to_owned(),
        members: s.member_count(),
        draining: false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;
    use doclite_docstore::Filter;

    #[test]
    fn end_to_end_shard_load_balance_query() {
        let cluster = ShardedCluster::new(3, "Dataset_test", NetworkModel::free());
        cluster
            .shard_collection("facts", ShardKey::range(["k"]), 4 * 1024)
            .unwrap();
        for i in 0..500i64 {
            cluster
                .router()
                .insert_one("facts", doc! {"k" => i, "pad" => "x".repeat(30)})
                .unwrap();
        }
        let migrations = cluster.balance().unwrap();
        assert!(migrations > 0);

        // Every shard ends up holding data.
        let held: Vec<usize> = cluster
            .router()
            .shards()
            .iter()
            .map(|s| s.db().get_collection("facts").map(|c| c.len()).unwrap_or(0))
            .collect();
        assert!(held.iter().all(|&n| n > 0), "distribution: {held:?}");

        // Targeted query touches one shard; broadcast returns everything.
        let t = cluster
            .router()
            .explain_targeting("facts", &Filter::eq("k", 250i64));
        assert!(t.is_targeted());
        assert_eq!(cluster.router().find("facts", &Filter::True).len(), 500);
        assert!(cluster.data_size() > 0);
    }

    #[test]
    fn online_add_shard_receives_chunks_and_serves_queries() {
        let cluster = ShardedCluster::new(2, "d_add", NetworkModel::free());
        cluster
            .shard_collection("facts", ShardKey::range(["k"]), 2 * 1024)
            .unwrap();
        for i in 0..400i64 {
            cluster
                .router()
                .insert_one("facts", doc! {"k" => i, "pad" => "x".repeat(40)})
                .unwrap();
        }
        cluster.balance().unwrap();

        let id = cluster.add_shard().unwrap();
        assert_eq!(id, 2);
        assert_eq!(cluster.n_shards(), 3);
        // The new shard has the shard-key index but no data yet.
        let new_shard = cluster
            .router()
            .shards()
            .into_iter()
            .find(|s| s.id() == id)
            .unwrap();
        assert!(new_shard
            .db()
            .collection("facts")
            .index_defs()
            .iter()
            .any(|d| d.name == "k_1"));

        cluster.balance().unwrap();
        let meta = cluster.router().config().meta("facts").unwrap();
        assert!(
            meta.chunks.iter().any(|c| c.shard == id),
            "balancer should migrate chunks onto the new shard"
        );
        assert_eq!(cluster.router().collection_len("facts"), 400);
        assert_eq!(cluster.router().find("facts", &Filter::eq("k", 250i64)).len(), 1);
    }

    #[test]
    fn remove_shard_drains_and_deregisters() {
        let cluster = ShardedCluster::new(3, "d_rm", NetworkModel::free());
        cluster
            .shard_collection("facts", ShardKey::range(["k"]), 2 * 1024)
            .unwrap();
        for i in 0..400i64 {
            cluster
                .router()
                .insert_one("facts", doc! {"k" => i, "pad" => "y".repeat(40)})
                .unwrap();
        }
        cluster.balance().unwrap();
        let on_two_before = cluster.router().config().chunks_on_shard("facts", 2).len();
        assert!(on_two_before > 0, "balance should have placed chunks on shard 2");

        let drained = cluster.remove_shard(2).unwrap();
        assert_eq!(drained, on_two_before);
        assert_eq!(cluster.n_shards(), 2);
        assert!(cluster.router().config().chunks_on_shard("facts", 2).is_empty());
        assert!(!cluster
            .router()
            .config()
            .shard_entries()
            .iter()
            .any(|e| e.id == 2));
        // No data lost; routing still works.
        assert_eq!(cluster.router().collection_len("facts"), 400);
        for probe in [0i64, 199, 399] {
            assert_eq!(cluster.router().find("facts", &Filter::eq("k", probe)).len(), 1);
        }
        // The primary shard is not removable, nor is a removed shard.
        assert!(cluster.remove_shard(0).is_err());
        assert!(cluster.remove_shard(2).is_err());
    }

    #[test]
    fn add_after_remove_never_reuses_ids() {
        let cluster = ShardedCluster::new(2, "d_ids", NetworkModel::free());
        let a = cluster.add_shard().unwrap();
        assert_eq!(a, 2);
        cluster.remove_shard(a).unwrap();
        let b = cluster.add_shard().unwrap();
        assert_eq!(b, 3, "removed id must not be recycled");
        assert_eq!(cluster.n_shards(), 3);
    }

    #[test]
    fn shard_key_index_created_on_all_shards() {
        let cluster = ShardedCluster::new(2, "d", NetworkModel::free());
        cluster
            .shard_collection("c", ShardKey::hashed("k"), 1024)
            .unwrap();
        for s in cluster.router().shards() {
            let defs = s.db().collection("c").index_defs();
            assert!(defs.iter().any(|d| d.name == "k_hashed"), "{defs:?}");
        }
    }
}
