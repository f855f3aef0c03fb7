//! `Mongos::update_batch` is the `Mongos::update` loop, sent in fewer
//! exchanges: equivalence for an unsharded and a range-sharded target,
//! exchange and byte accounting, and a dropped exchange retried as a
//! whole group without re-applying anything.

use doclite_bson::{doc, json::to_json, Document};
use doclite_docstore::{BulkUpdate, Filter, FindOptions, UpdateOp, UpdateResult, UpdateSpec};
use doclite_sharding::{
    ClusterConfig, Mongos, NetworkModel, RetryPolicy, ShardKey, ShardedCluster,
};
use proptest::prelude::*;

const DOCS: i64 = 120;

/// A 3-shard cluster holding the same documents twice: `u` unsharded (on
/// the primary shard) and `r` range-sharded on `k`, split into small
/// chunks and balanced so every shard owns some of it.
fn cluster(retry: RetryPolicy) -> ShardedCluster {
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 3,
        db_name: "bulk".into(),
        network: NetworkModel::lan(),
        retry,
        ..ClusterConfig::default()
    });
    cluster.shard_collection("r", ShardKey::range(["k"]), 1024).unwrap();
    let router = cluster.router();
    for name in ["u", "r"] {
        router
            .insert_many(
                name,
                (0..DOCS).map(|i| {
                    doc! {"_id" => i, "k" => i, "g" => i % 4, "n" => 0i64, "s" => "text", "pad" => "p".repeat(24)}
                }),
            )
            .unwrap();
    }
    while cluster.balance().unwrap() > 0 {}
    let meta = router.config().meta("r").unwrap();
    assert_eq!(meta.all_shards().len(), 3, "every shard owns chunks of `r`");
    cluster
}

fn contents(router: &Mongos, collection: &str) -> Vec<String> {
    router
        .find_with(collection, &Filter::True, &FindOptions::new().sort_by("_id", 1))
        .iter()
        .map(to_json)
        .collect()
}

/// The reference: one routed `update` per statement, stopping at the
/// first error.
fn update_loop(
    router: &Mongos,
    collection: &str,
    ops: &[BulkUpdate],
) -> Result<UpdateResult, String> {
    let mut total = UpdateResult::default();
    for op in ops {
        let r = router
            .update(collection, &op.filter, &op.spec, false, op.multi)
            .map_err(|e| e.to_string())?;
        total.absorb(&r);
    }
    Ok(total)
}

/// Statements that leave the shard key alone: point-targeted on `k`,
/// broadcast on `g` or `n`, rewriting `g` (so later broadcasts chase the
/// rewritten documents), `$inc`, `$unset`, `multi` on and off.
fn arb_statement() -> BoxedStrategy<BulkUpdate> {
    let filter = prop_oneof![
        4 => (0..DOCS).prop_map(|k| Filter::eq("k", k)),
        3 => (0..5i64).prop_map(|g| Filter::eq("g", g)),
        1 => (0..DOCS, 0..4i64)
            .prop_map(|(k, g)| Filter::and([Filter::gte("k", k), Filter::eq("g", g)])),
        1 => (-2..3i64).prop_map(|n| Filter::lt("n", n)),
    ];
    let spec = prop_oneof![
        3 => (0..5i64).prop_map(|g| UpdateSpec::set("g", g)),
        3 => (-2..3i64).prop_map(|d| UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), d as f64)])),
        1 => Just(UpdateSpec::Ops(vec![UpdateOp::Unset("g".into())])),
        1 => (0..9i64).prop_map(|v| UpdateSpec::set("extra", doc! {"v" => v})),
    ];
    (filter, spec, any::<bool>())
        .prop_map(|(filter, spec, multi)| BulkUpdate { filter, spec, multi })
        .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Same contents and totals as the loop on both targets; on the
    /// unsharded one (a single group) also the same error and the same
    /// partial application when a statement fails mid-batch.
    #[test]
    fn batch_equals_update_loop_through_the_router(
        ops in prop::collection::vec(arb_statement(), 0..40),
        fail_at in prop_oneof![Just(None), (0..1000usize).prop_map(Some)],
    ) {
        let (by_loop, by_batch) = (cluster(RetryPolicy::default()), cluster(RetryPolicy::default()));
        let (l, b) = (by_loop.router(), by_batch.router());

        prop_assert_eq!(b.update_batch("r", &ops).map_err(|e| e.to_string()), update_loop(l, "r", &ops));
        prop_assert_eq!(contents(b, "r"), contents(l, "r"));

        let mut ops = ops;
        if let Some(per_mille) = fail_at {
            // `$inc` on a string: errors on the first document.
            ops.insert(ops.len() * per_mille / 1000, BulkUpdate {
                filter: Filter::True,
                spec: UpdateSpec::Ops(vec![UpdateOp::Inc("s".into(), 1.0)]),
                multi: true,
            });
        }
        prop_assert_eq!(b.update_batch("u", &ops).map_err(|e| e.to_string()), update_loop(l, "u", &ops));
        prop_assert_eq!(contents(b, "u"), contents(l, "u"));
    }
}

fn embed(field: &str, v: i64, payload: &Document) -> BulkUpdate {
    BulkUpdate {
        filter: Filter::eq(field, v),
        spec: UpdateSpec::set("emb", payload.clone()),
        multi: true,
    }
}

/// One exchange per shard group, not per statement, each charged its
/// header plus the statements' real `$set` payloads — and a single
/// `update` is costed by the same rule (it used to travel for a
/// constant 64 bytes whatever it carried).
#[test]
fn exchanges_are_per_group_and_bytes_are_the_payloads() {
    let cluster = cluster(RetryPolicy::default());
    let router = cluster.router();
    let stats = router.net_stats();
    let payload = doc! {"name" => "a dimension row", "pad" => "d".repeat(300)};
    let size = doclite_bson::codec::encoded_size(&payload) as u64;
    assert!(size > 300);

    // Unsharded: every statement goes to the primary shard in one group.
    let ops: Vec<BulkUpdate> = (0..DOCS).map(|k| embed("k", k, &payload)).collect();
    let (ex, bytes) = (stats.exchanges(), stats.bytes());
    let r = router.update_batch("u", &ops).unwrap();
    assert_eq!(r.modified, DOCS as usize);
    assert_eq!(stats.exchanges() - ex, 1);
    assert_eq!(stats.bytes() - bytes, 64 + DOCS as u64 * size);

    // Range-sharded, point statements: one group per owning shard.
    let (ex, bytes) = (stats.exchanges(), stats.bytes());
    router.update_batch("r", &ops).unwrap();
    assert_eq!(stats.exchanges() - ex, 3);
    assert_eq!(stats.bytes() - bytes, 3 * 64 + DOCS as u64 * size);

    // Broadcast statements join every shard's group.
    let ops: Vec<BulkUpdate> = (0..4).map(|g| embed("g", g, &payload)).collect();
    let (ex, bytes) = (stats.exchanges(), stats.bytes());
    router.update_batch("r", &ops).unwrap();
    assert_eq!(stats.exchanges() - ex, 3);
    assert_eq!(stats.bytes() - bytes, 3 * (64 + 4 * size));

    // More statements than one write batch holds: the group splits.
    let many: Vec<BulkUpdate> =
        (0..Mongos::WRITE_BATCH as i64 + 1).map(|i| embed("k", i % DOCS, &payload)).collect();
    let ex = stats.exchanges();
    router.update_batch("u", &many).unwrap();
    assert_eq!(stats.exchanges() - ex, 2);

    // The single-statement path: same header, same payload rule.
    let (ex, bytes) = (stats.exchanges(), stats.bytes());
    router.update("u", &Filter::eq("k", 7i64), &UpdateSpec::set("emb", payload.clone()), false, true).unwrap();
    assert_eq!(stats.exchanges() - ex, 1);
    assert_eq!(stats.bytes() - bytes, 64 + size);
    let (ex, bytes) = (stats.exchanges(), stats.bytes());
    router.update("r", &Filter::eq("g", 1i64), &UpdateSpec::set("emb", payload), false, true).unwrap();
    assert_eq!(stats.exchanges() - ex, 3, "a broadcast update contacts every shard");
    assert_eq!(stats.bytes() - bytes, 3 * (64 + size));
}

/// Half of all exchanges are dropped before they reach the shard. The
/// fault plan and retry policy apply to a whole group, which is re-sent
/// until it goes through — and applies exactly once: every `$inc` lands
/// once, on both targets.
#[test]
fn dropped_exchange_is_retried_as_a_whole_group() {
    let cluster = cluster(RetryPolicy { max_retries: 40, ..RetryPolicy::default() });
    let router = cluster.router();
    let ops: Vec<BulkUpdate> = (0..DOCS)
        .map(|k| BulkUpdate {
            filter: Filter::eq("k", k),
            spec: UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 1.0)]),
            multi: true,
        })
        .chain((0..4).map(|g| BulkUpdate {
            filter: Filter::eq("g", g),
            spec: UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 10.0)]),
            multi: true,
        }))
        .collect();
    router.faults().set_seed(7);
    router.faults().set_drop_probability(0.5);
    let stats = router.net_stats();
    let (dropped, retries) = (stats.dropped(), stats.retries());
    for name in ["u", "r"] {
        let r = router.update_batch(name, &ops).unwrap();
        assert_eq!(r.modified, 2 * DOCS as usize);
    }
    router.faults().clear();
    assert!(stats.dropped() > dropped, "the seeded plan drops some exchanges");
    assert_eq!(stats.retries() - retries, stats.dropped() - dropped);
    for name in ["u", "r"] {
        assert_eq!(router.count(name, &Filter::eq("n", 11i64)), DOCS as usize, "{name}");
    }
}

/// A range filter can reach a single shard without pinning a shard-key
/// point. Such an operation has no key to ownership-check — anchoring it
/// on a null-padded key tested the *lowest* chunk's ownership, so once
/// that chunk had migrated off the targeted shard every range update,
/// count and find there bounced until the retries ran out.
#[test]
fn single_shard_range_operations_survive_the_lowest_chunk_moving_away() {
    let cluster = cluster(RetryPolicy::default());
    let router = cluster.router();
    let meta = router.config().meta("r").unwrap();
    let top = meta.chunks.last().unwrap();
    assert_ne!(meta.chunks[0].shard, top.shard, "balancing moved the lowest chunk elsewhere");
    let tail = Filter::gte("k", DOCS - 3);
    assert_eq!(router.explain_targeting("r", &tail).shards(), [top.shard]);

    let inc = UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 1.0)]);
    assert_eq!(router.update("r", &tail, &inc, false, true).unwrap().modified, 3);
    let batch = [BulkUpdate { filter: tail.clone(), spec: inc, multi: true }];
    assert_eq!(router.update_batch("r", &batch).unwrap().modified, 3);
    assert_eq!(router.try_count("r", &tail).unwrap(), 3);
    assert_eq!(router.try_find_with("r", &tail, &FindOptions::new()).unwrap().len(), 3);
    assert_eq!(router.count("r", &Filter::eq("n", 2i64)), 3);
}

/// A broadcast `multi` update is a bulk update of one statement: a leg
/// that bounces is re-sent only where it is still owed. Here the routing
/// table still names a shard that has left the live set (it was drained
/// into the others); re-running the whole statement for that one stale
/// leg applied the `$inc` again on every shard that already had it, and
/// then gave up.
#[test]
fn broadcast_update_applies_once_when_a_routed_shard_has_left() {
    let cluster = cluster(RetryPolicy::default());
    let router = cluster.router();
    router.remove_shard(2).unwrap();
    assert_eq!(router.explain_targeting("r", &Filter::True).shards(), [0, 1, 2]);

    let inc = UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 1.0)]);
    let r = router.update("r", &Filter::True, &inc, false, true).unwrap();
    let survivors: Vec<Document> = router
        .shards()
        .iter()
        .flat_map(|s| s.db().get_collection("r").unwrap().all_docs())
        .collect();
    assert!(!survivors.is_empty() && survivors.len() < DOCS as usize);
    assert_eq!(r.modified, survivors.len());
    for d in survivors {
        assert_eq!(d.get("n"), Some(&doclite_bson::Value::Int64(1)), "{:?}", d.get("k"));
    }
}
