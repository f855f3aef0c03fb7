//! Cluster-level behaviour the thesis discusses: chunk distribution,
//! jumbo chunks from low-cardinality keys (Fig 2.7), network accounting
//! asymmetry between targeted and broadcast queries, and result parity
//! across scatter modes.

use doclite::bson::doc;
use doclite::docstore::Filter;
use doclite::sharding::{
    chaos, ClusterConfig, NetMode, NetworkModel, ShardKey, ShardedCluster,
};
use doclite::tpcds::{Generator, TableId};
use std::time::Duration;

fn loaded_cluster(key: ShardKey) -> ShardedCluster {
    let cluster = ShardedCluster::new(3, "t", NetworkModel::lan());
    cluster
        .shard_collection("store_sales", key, 128 * 1024)
        .unwrap();
    let gen = Generator::new(0.002);
    cluster
        .router()
        .insert_many(
            "store_sales",
            gen.documents(TableId::StoreSales).collect::<Vec<_>>(),
        )
        .unwrap();
    cluster.balance().unwrap();
    cluster
}

#[test]
fn high_cardinality_range_key_splits_and_balances() {
    let cluster = loaded_cluster(ShardKey::range(["ss_ticket_number"]));
    let meta = cluster.router().config().meta("store_sales").unwrap();
    assert!(meta.chunks.len() >= 3, "expected several chunks, got {}", meta.chunks.len());
    meta.check_invariants().unwrap();
    assert_eq!(meta.chunks.iter().filter(|c| c.jumbo).count(), 0);
    // Every shard holds data after balancing.
    for shard in cluster.router().shards() {
        assert!(
            shard.db().get_collection("store_sales").map(|c| c.len()).unwrap_or(0) > 0,
            "{} holds nothing",
            shard.name()
        );
    }
}

#[test]
fn low_cardinality_key_produces_jumbo_chunks() {
    // ss_store_sk has 12 distinct values at this scale: chunks pinned to
    // one key value cannot split (thesis Fig 2.7).
    let cluster = loaded_cluster(ShardKey::range(["ss_store_sk"]));
    let meta = cluster.router().config().meta("store_sales").unwrap();
    assert!(
        meta.chunks.iter().any(|c| c.jumbo),
        "expected jumbo chunks from a 12-value shard key"
    );
}

#[test]
fn targeted_queries_touch_fewer_shards_and_less_network() {
    let cluster = loaded_cluster(ShardKey::range(["ss_ticket_number"]));
    let router = cluster.router();

    router.net_stats().reset();
    let hits = router.find("store_sales", &Filter::eq("ss_ticket_number", 5i64));
    assert!(!hits.is_empty());
    let targeted_exchanges = router.net_stats().exchanges();

    router.net_stats().reset();
    let scan = router.find("store_sales", &Filter::eq("ss_quantity", 10i64));
    assert!(!scan.is_empty());
    let broadcast_exchanges = router.net_stats().exchanges();

    assert!(
        targeted_exchanges < broadcast_exchanges,
        "targeted {targeted_exchanges} vs broadcast {broadcast_exchanges}"
    );
}

#[test]
fn parallel_network_time_is_below_serial_on_broadcast() {
    let cluster = loaded_cluster(ShardKey::hashed("ss_ticket_number"));
    let router = cluster.router();
    router.net_stats().reset();
    router.find("store_sales", &Filter::gt("ss_quantity", 90i64));
    let stats = router.net_stats();
    assert!(stats.parallel_time() <= stats.serial_time());
    assert!(stats.serial_time() > Duration::ZERO);
}

#[test]
fn scatter_modes_and_deployments_agree_on_results() {
    let cluster = loaded_cluster(ShardKey::range(["ss_ticket_number"]));
    let f = Filter::between("ss_quantity", 10i64, 20i64);
    let scattered = cluster.router().find("store_sales", &f).len();

    // Stand-alone reference.
    let db = doclite::docstore::Database::new("ref");
    let gen = Generator::new(0.002);
    db.collection("store_sales")
        .insert_many(gen.documents(TableId::StoreSales))
        .unwrap();
    assert_eq!(db.get_collection("store_sales").unwrap().find(&f).len(), scattered);
}

#[test]
fn replica_backed_cluster_survives_member_loss_and_converges() {
    // The production topology of thesis Fig 2.5: every shard is a
    // replica set. Queries must not notice a single member dying, and
    // after recovery all members must hold identical data.
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 3,
        replicas_per_shard: 3,
        db_name: "t_rs".into(),
        network: NetworkModel::lan(),
        ..ClusterConfig::default()
    });
    cluster
        .shard_collection("store_sales", ShardKey::range(["ss_ticket_number"]), 128 * 1024)
        .unwrap();
    let gen = Generator::new(0.002);
    cluster
        .router()
        .insert_many(
            "store_sales",
            gen.documents(TableId::StoreSales).collect::<Vec<_>>(),
        )
        .unwrap();
    cluster.balance().unwrap();
    for entry in cluster.router().config().shard_entries() {
        assert_eq!(entry.members, 3, "{} registered wrong member count", entry.name);
    }

    let f = Filter::between("ss_quantity", 10i64, 20i64);
    let healthy = cluster.router().find("store_sales", &f).len();
    assert!(healthy > 0);

    // Kill the primary of every shard: elections promote secondaries
    // and the same query returns the same rows.
    for shard in cluster.router().shards() {
        shard.replica_set().fail_member(0);
    }
    assert_eq!(cluster.router().find("store_sales", &f).len(), healthy);

    // Writes land on the new primaries; recovery resyncs the old ones.
    cluster
        .router()
        .insert_one("store_sales", doc! {"ss_ticket_number" => -1i64})
        .unwrap();
    chaos::heal_all(&cluster);
    chaos::check_convergence(&cluster).unwrap();
    assert_eq!(cluster.router().find("store_sales", &f).len(), healthy);
}

#[test]
fn sleep_mode_network_actually_costs_wall_time() {
    let slow = NetworkModel {
        round_trip: Duration::from_millis(3),
        bytes_per_sec: u64::MAX,
        mode: NetMode::Sleep,
    };
    let cluster = ShardedCluster::new(3, "t", slow);
    cluster
        .shard_collection("c", ShardKey::range(["k"]), 1 << 20)
        .unwrap();
    cluster.router().insert_one("c", doc! {"k" => 1i64}).unwrap();
    let t0 = std::time::Instant::now();
    // Broadcast find: one leg per chunk-holding shard plus merge.
    cluster.router().find("c", &Filter::eq("x", 1i64));
    assert!(t0.elapsed() >= Duration::from_millis(3));
}
