//! Sharded set-up end to end: a small fixed data set loaded through the
//! router and balanced over three shards must land exactly where it
//! always has — chunk table, resident documents per shard and network
//! accounting are pinned values — whether each shard is one member or a
//! replica set of three, every member of which ends up identical.

use doclite_bson::{codec::encode_document, doc, Document, Value};
use doclite_docstore::index::hashed::hash_key;
use doclite_docstore::{crc32, Key};
use doclite_sharding::{ClusterConfig, KeyBound, NetworkModel, ShardKey, ShardedCluster};
use std::collections::HashMap;

const COLLECTIONS: [&str; 2] = ["stock", "tickets"];

/// Tickets of a few lines each under a compound range key, keys arriving
/// out of order.
fn tickets() -> Vec<Document> {
    (0..900i64)
        .map(|i| {
            let pad = "x".repeat((i % 50) as usize);
            doc! {"_id" => i, "t" => (i * 37) % 75, "line" => i % 12, "pad" => pad}
        })
        .collect()
}

/// Stock rows under a hashed key that one warehouse dominates (a jumbo
/// chunk), some with the key missing and with `Int32` / `Int64` /
/// `Double` spellings of the same warehouse.
fn stock() -> Vec<Document> {
    (0..600i64)
        .map(|i| {
            let mut d = doc! {"_id" => 10_000 + i, "q" => i, "pad" => "y".repeat(20)};
            match i % 10 {
                0..=5 => d.set("w", Value::Int64(3)),
                6 => {}
                7 => d.set("w", Value::Int32((i % 40) as i32)),
                8 => d.set("w", Value::Double((i % 40) as f64)),
                _ => d.set("w", Value::Int64(i % 40)),
            }
            d
        })
        .collect()
}

fn load_and_balance(replicas_per_shard: usize) -> ShardedCluster {
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 3,
        replicas_per_shard,
        db_name: "pinned".into(),
        network: NetworkModel::lan(),
        ..ClusterConfig::default()
    });
    cluster
        .shard_collection("tickets", ShardKey::range(["t", "line"]), 8 * 1024)
        .unwrap();
    cluster
        .shard_collection("stock", ShardKey::hashed("w"), 8 * 1024)
        .unwrap();
    let r = cluster.router();
    r.insert_many("tickets", tickets()).unwrap();
    for d in stock() {
        r.insert_one("stock", d).unwrap();
    }
    cluster.balance().unwrap();
    cluster
}

/// Every chunk-keyspace key of the loaded documents, written as its
/// values: a split point is always a key some document holds, and keys
/// have no decoder. A hashed key is the `Int64` of its value's hash.
fn key_names() -> HashMap<Key, String> {
    let mut names = HashMap::new();
    for d in tickets() {
        let values = [d.get("t").unwrap().clone(), d.get("line").unwrap().clone()];
        names.insert(Key::from_values(&values), format!("{:?},{:?}", values[0], values[1]));
    }
    for d in stock() {
        let w = d.get("w").cloned().unwrap_or(Value::Null);
        let hash = Value::Int64(hash_key(Key::of(&w).as_bytes()) as i64);
        names.insert(Key::of(&hash), format!("{hash:?}"));
    }
    names
}

fn bound(b: &KeyBound, names: &HashMap<Key, String>) -> String {
    match b {
        KeyBound::MinKey => "MinKey".into(),
        KeyBound::MaxKey => "MaxKey".into(),
        KeyBound::Key(k) => names[k].clone(),
    }
}

/// The chunk tables, then per shard and collection the resident count,
/// bytes and a CRC of the documents in slot order, then the router's
/// network counters.
fn render(cluster: &ShardedCluster) -> Vec<String> {
    let r = cluster.router();
    let names = key_names();
    let mut out = Vec::new();
    for name in COLLECTIONS {
        let meta = r.config().meta(name).unwrap();
        for c in &meta.chunks {
            out.push(format!(
                "{name} [{}, {}) shard={} docs={} bytes={} jumbo={}",
                bound(&c.min, &names),
                bound(&c.max, &names),
                c.shard,
                c.docs,
                c.bytes,
                c.jumbo
            ));
        }
    }
    for s in r.shards() {
        for name in COLLECTIONS {
            let coll = s.db().get_collection(name).unwrap();
            let mut bytes = Vec::new();
            coll.for_each(|d| bytes.extend(encode_document(d)));
            out.push(format!(
                "shard {} {name}: n={} bytes={} crc={}",
                s.id(),
                coll.len(),
                coll.data_size(),
                crc32(&bytes)
            ));
        }
    }
    out.push(format!(
        "net exchanges={} bytes={}",
        r.net_stats().exchanges(),
        r.net_stats().bytes()
    ));
    out
}

/// Recorded from the collection-scanning split and migration code this
/// replaced: the index-reading code must reproduce it line for line. The
/// `stock` bounds are hashes of the values' key bytes (`hash_key`).
const PINNED: &[&str] = &[
    "stock [MinKey, Int64(-3667947496507502482)) shard=1 docs=105 bytes=6846 jumbo=false",
    "stock [Int64(-3667947496507502482), Int64(1694708738845197271)) shard=2 docs=60 bytes=4074 jumbo=false",
    "stock [Int64(1694708738845197271), Int64(5822810291836497984)) shard=0 docs=75 bytes=5088 jumbo=false",
    "stock [Int64(5822810291836497984), MaxKey) shard=0 docs=360 bytes=25092 jumbo=true",
    "tickets [MinKey, Int64(5),Int64(5)) shard=1 docs=63 bytes=5022 jumbo=false",
    "tickets [Int64(5),Int64(5), Int64(10),Int64(7)) shard=2 docs=63 bytes=4927 jumbo=false",
    "tickets [Int64(10),Int64(7), Int64(14),Int64(11)) shard=1 docs=51 bytes=4008 jumbo=false",
    "tickets [Int64(14),Int64(11), Int64(19),Int64(4)) shard=2 docs=54 bytes=4244 jumbo=false",
    "tickets [Int64(19),Int64(4), Int64(24),Int64(0)) shard=1 docs=57 bytes=4301 jumbo=false",
    "tickets [Int64(24),Int64(0), Int64(28),Int64(7)) shard=2 docs=54 bytes=4113 jumbo=false",
    "tickets [Int64(28),Int64(7), Int64(37),Int64(4)) shard=1 docs=105 bytes=7960 jumbo=false",
    "tickets [Int64(37),Int64(4), Int64(42),Int64(6)) shard=2 docs=63 bytes=5045 jumbo=false",
    "tickets [Int64(42),Int64(6), Int64(47),Int64(11)) shard=1 docs=63 bytes=4972 jumbo=false",
    "tickets [Int64(47),Int64(11), Int64(52),Int64(7)) shard=2 docs=57 bytes=4435 jumbo=false",
    "tickets [Int64(52),Int64(7), Int64(57),Int64(0)) shard=0 docs=54 bytes=4194 jumbo=false",
    "tickets [Int64(57),Int64(0), Int64(61),Int64(7)) shard=0 docs=54 bytes=4140 jumbo=false",
    "tickets [Int64(61),Int64(7), Int64(66),Int64(0)) shard=0 docs=54 bytes=4154 jumbo=false",
    "tickets [Int64(66),Int64(0), Int64(70),Int64(7)) shard=0 docs=54 bytes=4117 jumbo=false",
    "tickets [Int64(70),Int64(7), MaxKey) shard=0 docs=54 bytes=4118 jumbo=false",
    "shard 0 stock: n=435 bytes=30330 crc=1041136099",
    "shard 0 tickets: n=270 bytes=20883 crc=2513202861",
    "shard 1 stock: n=105 bytes=6630 crc=508914600",
    "shard 1 tickets: n=339 bytes=25860 crc=183697680",
    "shard 2 stock: n=60 bytes=4140 crc=3764051600",
    "shard 2 tickets: n=291 bytes=23007 crc=3686951382",
    "net exchanges=649 bytes=203287",
];

#[test]
fn load_and_balance_land_where_they_always_have() {
    let got = render(&load_and_balance(1));
    assert_eq!(got, PINNED, "actual:\n{}", got.join("\n"));
}

/// With three members per shard the same set-up lands in the same
/// place, and every member of every shard holds what its primary holds,
/// in the same slot order: a migration's copy and its `_id` cleanup are
/// replicated statements, not primary-only edits.
#[test]
fn every_replica_holds_what_its_primary_holds_after_balancing() {
    let cluster = load_and_balance(3);
    assert_eq!(render(&cluster), PINNED);
    for s in cluster.router().shards() {
        let rs = s.replica_set();
        assert_eq!(rs.member_count(), 3);
        for name in COLLECTIONS {
            let primary = rs.member_db(0).get_collection(name).unwrap().all_docs();
            for m in 1..3 {
                let member = rs.member_db(m).get_collection(name).unwrap().all_docs();
                assert!(
                    member == primary,
                    "shard {} member {m} diverged on {name}",
                    s.id()
                );
            }
        }
    }
}
