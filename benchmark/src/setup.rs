//! Set-up assembled from the engine's public pieces, so that the seed is
//! an argument (`setup_environment` fixes it) and each phase can be timed.
//! Loads and the denormalizer run through a [`TracedStore`]: the time in
//! `insert_many` is loading, the rest of `load_table_direct` is
//! generation, and the time in `create_index` is index building.
//!
//! The data is the scale factor's canonical data set (`Generator::new`),
//! as dsdgen's is; the seed orders the query streams and drives the OLTP
//! operation stream instead. At these scales a seeded data set decides a
//! query's work: 2,400 tickets of 12 lines share store, date and
//! household, so matches come in clusters, and over ten seeds Query 46's
//! semi-join returned 396 to 786 rows (298 to 539 with only the fact
//! tables seeded) and `q46_ms` followed. A latency that differs 2x between
//! seeds on the same code cannot gate a regression.

use crate::sys::cpu_seconds;
use crate::trace::{StoreOp, TracedStore, Tracer};
use doclite_core::experiment::{fact_shard_keys, N_SHARDS};
use doclite_core::{
    build_denormalized_fast, load_table_direct, Environment, Store, WORKLOAD_TABLES,
};
use doclite_docstore::Database;
use doclite_sharding::{ClusterConfig, NetworkModel, ShardedCluster};
use doclite_tpcds::{Generator, TableId};
use std::time::Instant;

/// The deployments of thesis Table 4.1.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Deployment {
    /// Normalized collections on one in-memory database (experiments 2/5).
    NormStandalone,
    /// Normalized collections behind the router over 3 shards (1/4).
    NormSharded,
    /// Denormalized fact collections on one database (3/6).
    DenormStandalone,
}

/// Chunk size threshold for the sharded facts; the experiment harness's
/// value for scaled-down data.
const MAX_CHUNK_SIZE: usize = 1 << 20;

/// Where one set-up's time went.
#[derive(Clone, Copy, Debug, Default)]
pub struct SetupTimes {
    pub total_s: f64,
    pub gen_s: f64,
    pub load_s: f64,
    pub load_rows: u64,
    pub balance_s: f64,
    pub chunks: usize,
    pub denorm_s: f64,
    pub index_s: f64,
    pub user_cpu_s: f64,
    pub sys_cpu_s: f64,
}

fn seconds_in(tracer: &Tracer, op: StoreOp) -> f64 {
    tracer
        .spans()
        .iter()
        .filter(|s| s.op == Some(op))
        .map(|s| s.duration_ns() as f64 / 1e9)
        .sum()
}

/// Loads `tables` from the generator into `store`; returns
/// `(generation seconds, insert seconds, rows)`.
fn load(store: &dyn Store, gen: &Generator, tables: &[TableId]) -> (f64, f64, u64) {
    let tracer = Tracer::new();
    let traced = TracedStore::new(store, &tracer);
    let start = Instant::now();
    let mut rows = 0;
    for &t in tables {
        rows += load_table_direct(&traced, gen, t).expect("generated rows load without error");
    }
    let wall = start.elapsed().as_secs_f64();
    let insert = seconds_in(&tracer, StoreOp::Insert);
    (wall - insert, insert, rows)
}

/// Builds and loads one deployment at scale factor `sf`.
pub fn build(deployment: Deployment, sf: f64) -> (Environment, SetupTimes) {
    let (user0, sys0) = cpu_seconds();
    let start = Instant::now();
    let gen = Generator::new(sf);
    let mut t = SetupTimes::default();
    let mut tables = WORKLOAD_TABLES.to_vec();

    let env = match deployment {
        Deployment::NormStandalone | Deployment::DenormStandalone => {
            let db = Database::new("Dataset_bench");
            if deployment == Deployment::DenormStandalone {
                // The denormalizer's FK catalog also reaches these two.
                tables.extend([TableId::Reason, TableId::TimeDim]);
            }
            (t.gen_s, t.load_s, t.load_rows) = load(&db, &gen, &tables);
            if deployment == Deployment::DenormStandalone {
                let tracer = Tracer::new();
                let began = Instant::now();
                build_denormalized_fast(&TracedStore::new(&db, &tracer))
                    .expect("the denormalized collections build");
                t.index_s = seconds_in(&tracer, StoreOp::CreateIndex);
                t.denorm_s = began.elapsed().as_secs_f64() - t.index_s;
            }
            Environment::Standalone(db)
        }
        Deployment::NormSharded => {
            let cluster = ShardedCluster::with_config(ClusterConfig {
                n_shards: N_SHARDS,
                replicas_per_shard: 1,
                db_name: "Dataset_bench".into(),
                network: NetworkModel::lan(),
                ..ClusterConfig::default()
            });
            let began = Instant::now();
            for (table, key) in fact_shard_keys() {
                cluster
                    .shard_collection(table.name(), key, MAX_CHUNK_SIZE)
                    .expect("an empty collection shards");
            }
            t.index_s = began.elapsed().as_secs_f64();
            (t.gen_s, t.load_s, t.load_rows) = load(cluster.router(), &gen, &tables);
            let began = Instant::now();
            cluster.balance().expect("a healthy cluster balances");
            t.balance_s = began.elapsed().as_secs_f64();
            t.chunks = fact_shard_keys()
                .iter()
                .filter_map(|(table, _)| cluster.router().config().meta(table.name()))
                .map(|m| m.chunks.len())
                .sum();
            Environment::Sharded(Box::new(cluster))
        }
    };
    t.total_s = start.elapsed().as_secs_f64();
    let (user1, sys1) = cpu_seconds();
    t.user_cpu_s = user1 - user0;
    t.sys_cpu_s = sys1 - sys0;
    (env, t)
}

/// Encoded bytes stored across all collections of a deployment.
pub fn stored_bytes(env: &Environment) -> usize {
    match env {
        Environment::Standalone(db) => db.data_size(),
        Environment::Sharded(cluster) => cluster.data_size(),
    }
}
