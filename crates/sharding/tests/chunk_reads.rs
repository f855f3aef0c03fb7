//! Splits and migrations read a chunk off the shard-key index. These
//! tests hold that read to the collection scan it replaced, race it
//! against a broadcast delete, and check that a document the index
//! could not place under one key — an array shard key — is refused.

use doclite_bson::{array, doc, Document, Value};
use doclite_docstore::{BulkUpdate, Collection, Error, Filter, Key, UpdateSpec};
use doclite_sharding::{Chunk, KeyBound, NetworkModel, ShardKey, ShardedCluster, SplitPoint};
use proptest::prelude::*;
use std::collections::HashMap;

/// The split decision as the router made it before splits read the
/// index: scan the collection, keep the keys the chunk contains, sort,
/// take the median (advanced past the chunk's lower bound), and call the
/// chunk jumbo when every key is equal. Returns it with the key count.
fn scan_split(coll: &Collection, key: &ShardKey, chunk: &Chunk) -> (SplitPoint, usize) {
    let mut keys: Vec<Key> = Vec::new();
    coll.for_each(|doc| {
        let k = key.extract(doc).unwrap();
        if chunk.contains(&k) {
            keys.push(k);
        }
    });
    let n = keys.len();
    if n < 2 {
        return (SplitPoint::Keep, n);
    }
    keys.sort();
    let median = keys[n / 2].clone();
    if keys.first() == keys.last() {
        return (SplitPoint::Jumbo, n);
    }
    let split_key = if chunk.min.cmp_key(&median) == std::cmp::Ordering::Equal {
        match keys.iter().find(|k| **k > median) {
            Some(k) => k.clone(),
            None => return (SplitPoint::Keep, n),
        }
    } else {
        median
    };
    let left = keys.iter().filter(|k| **k < split_key).count();
    (
        SplitPoint::At {
            key: split_key,
            left_fraction: left as f64 / n as f64,
        },
        n,
    )
}

/// A shard-key field's value: missing, null, or one of a few numbers
/// spelled as `Int32`, `Int64` or `Double` — so keys repeat, and repeat
/// across types.
fn arb_field() -> impl Strategy<Value = Option<Value>> {
    prop_oneof![
        1 => Just(None),
        1 => Just(Some(Value::Null)),
        3 => (0..6i32).prop_map(|n| Some(Value::Int32(n))),
        3 => (0..6i64).prop_map(|n| Some(Value::Int64(n))),
        2 => (0..12i64).prop_map(|n| Some(Value::Double(n as f64 / 2.0))),
    ]
}

fn arb_doc() -> impl Strategy<Value = Document> {
    (arb_field(), arb_field(), 0..40usize).prop_map(|(k, j, pad)| {
        let mut d = Document::new();
        if let Some(k) = k {
            d.set("k", k);
        }
        if let Some(j) = j {
            d.set("j", j);
        }
        d.set("pad", "p".repeat(pad));
        d
    })
}

fn arb_shard_key() -> impl Strategy<Value = ShardKey> {
    prop_oneof![
        Just(ShardKey::range(["k"])),
        Just(ShardKey::range(["k", "j"])),
        Just(ShardKey::hashed("k")),
    ]
}

/// A chunk bound: open, or the key of a document like those stored (so
/// a bound often equals a resident key, the median included).
fn arb_bound() -> impl Strategy<Value = Option<Document>> {
    prop_oneof![1 => Just(None), 3 => arb_doc().prop_map(Some)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The index-derived split vector — split key (equal under canonical
    /// order), left fraction, jumbo decision and key count — and the
    /// chunk's documents in slot order are what the scan derived, over
    /// range, compound and hashed keys, after deletes left slots to
    /// reuse.
    #[test]
    fn index_reads_match_the_collection_scan(
        key in arb_shard_key(),
        docs in prop::collection::vec(arb_doc(), 0..80),
        deleted in prop::collection::vec(any::<bool>(), 80..81),
        later in prop::collection::vec(arb_doc(), 0..20),
        lo in arb_bound(),
        hi in arb_bound(),
    ) {
        let coll = Collection::new("c");
        coll.create_index(key.index_def()).unwrap();
        for (i, d) in docs.into_iter().enumerate() {
            let mut d = d;
            d.set("_id", Value::Int64(i as i64));
            coll.insert_one(d).unwrap();
        }
        for (i, gone) in deleted.iter().enumerate() {
            if *gone {
                coll.delete_many(&Filter::eq("_id", i as i64));
            }
        }
        for (i, d) in later.into_iter().enumerate() {
            let mut d = d;
            d.set("_id", Value::Int64(1000 + i as i64));
            coll.insert_one(d).unwrap();
        }
        let bound = |d: Option<Document>, open: KeyBound| match d {
            None => open,
            Some(d) => KeyBound::Key(key.extract(&d).unwrap()),
        };
        let (min, max) = (bound(lo, KeyBound::MinKey), bound(hi, KeyBound::MaxKey));
        let (min, max) = match min.cmp_bound(&max) {
            std::cmp::Ordering::Less => (min, max),
            std::cmp::Ordering::Greater => (max, min),
            std::cmp::Ordering::Equal => (min, KeyBound::MaxKey),
        };
        let chunk = Chunk { min, max, shard: 0, bytes: 0, docs: 0, jumbo: false };

        let counts = chunk.key_counts(&coll, &key).unwrap();
        prop_assert!(counts.windows(2).all(|w| w[0].0 < w[1].0), "ascending, distinct keys");
        let (want, n) = scan_split(&coll, &key, &chunk);
        prop_assert_eq!(counts.iter().map(|(_, c)| c).sum::<usize>(), n);
        prop_assert_eq!(chunk.split_point(&counts), want);

        let mut scanned = Vec::new();
        coll.for_each(|d| {
            if chunk.contains(&key.extract(d).unwrap()) {
                scanned.push(d.clone());
            }
        });
        prop_assert_eq!(chunk.documents(&coll, &key).unwrap(), scanned);
    }
}

#[test]
fn a_collection_without_the_shard_key_index_has_no_chunk_to_read() {
    let coll = Collection::new("c");
    let chunk = Chunk {
        min: KeyBound::MinKey,
        max: KeyBound::MaxKey,
        shard: 0,
        bytes: 0,
        docs: 0,
        jumbo: false,
    };
    let err = chunk
        .key_counts(&coll, &ShardKey::range(["k"]))
        .unwrap_err();
    assert_eq!(err, Error::NoSuchIndex("k_1".into()));
    assert!(chunk.documents(&coll, &ShardKey::hashed("k")).is_err());
}

/// A broadcast `delete_many` (its filter does not name the shard key)
/// racing chunk migrations back and forth removes nothing outside its
/// filter: every other document ends up on exactly one shard, and once
/// the race is over one more delete leaves none of the filter's.
#[test]
fn a_broadcast_delete_racing_migrations_removes_nothing_outside_its_filter() {
    let cluster = ShardedCluster::new(2, "race", NetworkModel::free());
    cluster
        .shard_collection("facts", ShardKey::range(["k"]), 2 * 1024)
        .unwrap();
    let router = cluster.router();
    for i in 0..600i64 {
        let doc = doc! {"_id" => i, "k" => i, "doomed" => i % 3 == 0, "pad" => "z".repeat(24)};
        router.insert_one("facts", doc).unwrap();
    }
    let chunks = router.config().meta("facts").unwrap().chunks.len();
    assert!(chunks > 4, "the load split the collection: {chunks} chunks");
    let doomed = Filter::eq("doomed", true);
    std::thread::scope(|s| {
        s.spawn(|| {
            for round in 0..6 {
                for idx in 0..chunks {
                    router.move_chunk("facts", idx, (round + idx) % 2).unwrap();
                }
            }
        });
        s.spawn(|| {
            for _ in 0..40 {
                router.delete_many("facts", &doomed);
            }
        });
    });
    router.delete_many("facts", &doomed);
    let mut seen: HashMap<i64, usize> = HashMap::new();
    for s in router.shards() {
        s.db().get_collection("facts").unwrap().for_each(|d| {
            *seen
                .entry(d.get("k").and_then(Value::as_i64).unwrap())
                .or_default() += 1;
        });
    }
    let survivors: Vec<i64> = (0..600).filter(|i| i % 3 != 0).collect();
    let mut held: Vec<i64> = seen.keys().copied().collect();
    held.sort_unstable();
    assert_eq!(held, survivors);
    assert!(
        seen.values().all(|&n| n == 1),
        "a document is on two shards"
    );
}

/// MongoDB refuses an array-valued shard key: the index would hold the
/// document under each element, so no one chunk owns it. A routed insert
/// and an upsert whose seed carries one are refused with a typed error
/// and store nothing.
#[test]
fn an_array_shard_key_is_refused_by_insert_and_upsert() {
    let cluster = ShardedCluster::new(2, "arrays", NetworkModel::free());
    cluster
        .shard_collection("c", ShardKey::range(["k"]), 1024)
        .unwrap();
    let router = cluster.router();
    let refused = |r: doclite_docstore::Result<()>| {
        assert!(
            matches!(r, Err(Error::InvalidQuery(ref m)) if m.contains("array")),
            "{r:?}"
        );
    };
    refused(router.insert_one("c", doc! {"k" => array![1i64, 2i64]}));
    refused(
        router
            .insert_many("c", vec![doc! {"k" => 1i64}, doc! {"k" => array![3i64]}])
            .map(|_| ()),
    );
    let upsert = router.update(
        "c",
        &Filter::eq("k", array![4i64, 5i64]),
        &UpdateSpec::set("v", 1i64),
        true,
        false,
    );
    refused(upsert.map(|_| ()));
    // The batch's first document, routed before the refused one, stays.
    assert_eq!(router.collection_len("c"), 1);
    assert_eq!(router.count("c", &Filter::eq("k", 1i64)), 1);
}

/// Nor can an update write an array into the shard key: a `$set`, a
/// `$push` and a replacement are refused, singly and in a bulk update,
/// and every stored key stays a scalar.
#[test]
fn an_update_that_writes_an_array_shard_key_is_refused() {
    let cluster = ShardedCluster::new(2, "arrays", NetworkModel::free());
    cluster
        .shard_collection("c", ShardKey::range(["k"]), 1024)
        .unwrap();
    let router = cluster.router();
    for i in 0..4i64 {
        router.insert_one("c", doc! {"_id" => i, "k" => i}).unwrap();
    }
    let refused = |r: doclite_docstore::Result<doclite_docstore::UpdateResult>| {
        assert!(
            matches!(r, Err(Error::InvalidQuery(ref m)) if m.contains("array")),
            "{r:?}"
        );
    };
    let one = Filter::eq("k", 1i64);
    for spec in [
        UpdateSpec::set("k", array![1i64, 2i64]),
        UpdateSpec::set("v", 1i64).and_push("k", 5i64),
        UpdateSpec::Replace(doc! {"k" => array![1i64]}),
    ] {
        refused(router.update("c", &one, &spec, false, false));
        refused(router.update("c", &Filter::True, &spec, true, true));
    }
    let batch = [
        BulkUpdate { filter: one.clone(), spec: UpdateSpec::set("v", 1i64), multi: false },
        BulkUpdate { filter: one, spec: UpdateSpec::set("k", array![7i64]), multi: true },
    ];
    refused(router.update_batch("c", &batch));
    // A `$set` of a scalar key still goes through.
    let r = router
        .update("c", &Filter::eq("k", 3i64), &UpdateSpec::set("k", 3.0f64), false, false)
        .unwrap();
    assert_eq!(r.matched, 1);
    let docs = router.find("c", &Filter::True);
    assert_eq!(docs.len(), 4);
    assert!(docs.iter().all(|d| !matches!(d.get("k"), Some(Value::Array(_)))));
    assert!(docs.iter().all(|d| d.get("v").is_none()), "the refused batch sent nothing");
}
