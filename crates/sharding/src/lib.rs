//! # doclite-sharding
//!
//! The sharded-cluster substrate of the reproduction: shard keys with
//! range and hashed partitioning, chunks with splitting and jumbo
//! detection, a config server holding the chunk→shard map, a `mongos`
//! query router with targeted vs. scatter-gather execution (a scatter's
//! legs overlap on scoped threads, the caller running the first), a
//! chunk-count balancer, and a network cost model standing in for the
//! paper's EC2 cluster links.
//!
//! ```
//! use doclite_sharding::{ShardedCluster, ShardKey, NetworkModel};
//! use doclite_bson::doc;
//! use doclite_docstore::Filter;
//!
//! let cluster = ShardedCluster::new(3, "Dataset_1GB", NetworkModel::free());
//! cluster.shard_collection("store_sales", ShardKey::range(["ss_ticket_number"]), 1 << 16).unwrap();
//! cluster.router().insert_one("store_sales", doc! {"ss_ticket_number" => 1i64}).unwrap();
//! assert!(cluster.router()
//!     .explain_targeting("store_sales", &Filter::eq("ss_ticket_number", 1i64))
//!     .is_targeted());
//! ```

pub mod balancer;
pub mod capacity;
pub mod chaos;
pub mod chunk;
pub mod cluster;
pub mod config;
pub mod network;
pub mod replica;
pub mod route;
pub mod router;
pub mod shard;
pub mod shardkey;

pub use balancer::{Balancer, Migration};
pub use capacity::{plan_cluster, ClusterPlan, ShardingFactors};
pub use chaos::{
    check_content, check_convergence, check_convergence_with_content, heal_all,
    ChaosSchedule, ContentReport, FaultAction, FaultEvent,
};
pub use chunk::{Chunk, KeyBound, ShardId, SplitPoint, DEFAULT_CHUNK_SIZE};
pub use cluster::{ClusterConfig, DurabilityConfig, ShardedCluster};
pub use config::{CollectionMeta, ConfigServer, ShardEntry};
pub use network::{FaultKind, Faults, NetMode, NetStats, NetworkModel, RetryPolicy};
pub use replica::{MemberState, ReadPreference, ReplicaSet, WriteConcern};
pub use route::{target, FindPlan, Merge, Targeting};
pub use router::{DegradedReads, Mongos, RouteExplain};
pub use shard::Shard;
pub use shardkey::{Partitioning, ShardKey};

/// Compile-time proof that everything the router shares across client
/// and scatter-leg threads is `Send + Sync`. Never called; a violation
/// fails the build here instead of deep inside a `thread::scope`.
#[allow(dead_code)]
fn assert_shared_types_are_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Mongos>();
    check::<ShardedCluster>();
    check::<Shard>();
    check::<ReplicaSet>();
    check::<ConfigServer>();
    check::<NetStats>();
    check::<Faults>();
}
