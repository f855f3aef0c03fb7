//! Multi-threaded router regressions: chunk accounting under concurrent
//! splits, exactly-once warning drains, and lossless NetStats counters
//! when many worker threads share one `Mongos`.

use doclite_bson::{doc, Value};
use doclite_docstore::{BulkUpdate, Filter, Pipeline, UpdateOp, UpdateSpec};
use doclite_sharding::{
    check_content, ClusterConfig, DegradedReads, NetworkModel, RetryPolicy, ShardKey,
    ShardedCluster,
};
use std::sync::atomic::{AtomicUsize, Ordering};

fn cluster(n_shards: usize) -> ShardedCluster {
    ShardedCluster::with_config(ClusterConfig {
        n_shards,
        db_name: "conc".into(),
        network: NetworkModel::free(),
        ..ClusterConfig::default()
    })
}

/// 8 inserter threads race against live chunk splits (tiny threshold):
/// the chunk map's byte/doc totals must account for every insert exactly,
/// and the map invariants must hold. Regression for the stale-index
/// write in `insert_routed` (a concurrent split shifted chunk indices
/// between the routing snapshot and the accounting update, crediting the
/// wrong chunk).
#[test]
fn chunk_accounting_is_exact_under_concurrent_splits() {
    const THREADS: i64 = 8;
    const DOCS: i64 = 250;
    let cluster = cluster(3);
    cluster
        .shard_collection("facts", ShardKey::range(["k"]), 4 * 1024)
        .unwrap();
    let router = cluster.router();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            s.spawn(move || {
                for i in 0..DOCS {
                    router
                        .insert_one(
                            "facts",
                            doc! {"k" => t * DOCS + i, "pad" => "y".repeat(40)},
                        )
                        .unwrap();
                }
            });
        }
    });

    let total = (THREADS * DOCS) as usize;
    assert_eq!(router.count("facts", &Filter::True), total);

    let meta = router.config().meta("facts").unwrap();
    meta.check_invariants().unwrap();
    assert!(meta.chunks.len() > 1, "splits must have happened");
    let docs: usize = meta.chunks.iter().map(|c| c.docs).sum();
    assert_eq!(docs, total, "chunk doc accounting drifted");

    // Every chunk's accounting must track the shard-resident reality,
    // not just the totals. Split-time apportioning estimates the
    // left/right division from a key snapshot (as MongoDB's split
    // vectors do), so inserts racing a split can shift a few documents
    // across one boundary — but the stale-index bug this guards against
    // credits entire runs of inserts to the wrong chunk, which blows
    // far past this tolerance.
    for (i, chunk) in meta.chunks.iter().enumerate() {
        let mut resident = 0usize;
        let coll = router
            .shard(chunk.shard)
            .unwrap()
            .db()
            .get_collection("facts")
            .unwrap();
        coll.for_each(|d| {
            if chunk.contains(&meta.key.extract(d).unwrap()) {
                resident += 1;
            }
        });
        let drift = chunk.docs.abs_diff(resident);
        assert!(
            drift <= 4,
            "chunk {i} claims {} docs but holds {resident} (drift {drift})",
            chunk.docs
        );
    }
}

/// Chunk-migration atomicity: 8 writer threads pour seeded,
/// re-derivable documents into one hot chunk while a mover thread
/// bounces that chunk between the two shards. Writers ride the
/// stale-route retry protocol (elastic policy: jittered backoff plus a
/// per-op deadline), so once everyone joins, every ticket must exist
/// exactly once with exactly its derived bytes — a missing or doubled
/// document means the migration critical section leaked a racing write.
///
/// The mover waits for `PACE` more completed writes before each move.
/// A move surrenders the range for its whole copy, so back-to-back moves
/// would keep the chunk unowned most of the time and starve a
/// point-targeted read of its stale-route retries: a liveness failure,
/// not the atomicity this test checks.
#[test]
fn chunk_migration_is_atomic_under_concurrent_inserts() {
    const WRITERS: i64 = 8;
    const DOCS: i64 = 150;
    const MOVES: usize = 30;
    const PACE: usize = 20; // MOVES * PACE stays below WRITERS * DOCS
    let written = &AtomicUsize::new(0);
    let derive = |id: i64| doc! {"_id" => id, "t" => id, "pad" => "m".repeat(32)};
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 2,
        db_name: "atomic".into(),
        network: NetworkModel::free(),
        retry: RetryPolicy::elastic(),
        ..ClusterConfig::default()
    });
    // One huge chunk: every insert and every migration fight over it.
    cluster
        .shard_collection("sales", ShardKey::range(["t"]), 64 * 1024 * 1024)
        .unwrap();
    let router = cluster.router();
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                s.spawn(move || {
                    for i in 0..DOCS {
                        let id = w * DOCS + i;
                        router.insert_one("sales", derive(id)).unwrap();
                        // Read it back through a point-targeted aggregate:
                        // a leg that scanned the source after the migration
                        // deleted its copies must re-plan, not answer short.
                        let point = Pipeline::new().match_stage(Filter::eq("t", id));
                        let found = router.aggregate("sales", &point).unwrap();
                        assert_eq!(found.len(), 1, "ticket {id}");
                        written.fetch_add(1, Ordering::Relaxed);
                    }
                })
            })
            .collect();
        // The mover. A writer that panicked stops the count, so the
        // wait also ends once every writer has finished.
        for m in 0..MOVES {
            while written.load(Ordering::Relaxed) < (m + 1) * PACE
                && !writers.iter().all(|h| h.is_finished())
            {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
            let to = (m % 2 == 0) as usize; // bounce 1, 0, 1, 0, …
            router.move_chunk("sales", 0, to).unwrap();
        }
    });

    let total = (WRITERS * DOCS) as usize;
    assert_eq!(router.count("sales", &Filter::True), total);
    let report = check_content(&cluster, "sales", "t", 0..WRITERS * DOCS, derive);
    assert_eq!(report.checked, total);
    assert!(report.is_clean(), "migration leaked writes: {report:?}");
}

/// Bulk updates ride the same protocol: 6 writers each send batches of
/// point-keyed `$inc`s — one statement per counter document — while a
/// mover thread bounces the lowest of the collection's chunks between
/// the two shards. Whenever that chunk sits on
/// the shard that also owns the others, one group addresses both; if it
/// is mid-migration the group must bounce *before any statement applies*
/// (every key is ownership-checked under one lock hold) and be re-sent
/// whole after re-routing. So each counter must end at exactly the
/// number of batches: one short means a bounced group was dropped, one
/// over means a partially applied group was applied again.
#[test]
fn bulk_increments_are_exactly_once_under_chunk_migration() {
    const WRITERS: usize = 6;
    const BATCHES: usize = 25;
    const COUNTERS: i64 = 40;
    const MOVES: usize = 40;
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 2,
        db_name: "bulkinc".into(),
        network: NetworkModel::free(),
        retry: RetryPolicy::elastic(),
        ..ClusterConfig::default()
    });
    cluster.shard_collection("ctr", ShardKey::range(["t"]), 1024).unwrap();
    let router = cluster.router();
    router
        .insert_many(
            "ctr",
            (0..COUNTERS).map(|t| doc! {"_id" => t, "t" => t, "n" => 0i64, "pad" => "c".repeat(40)}),
        )
        .unwrap();
    assert!(router.config().meta("ctr").unwrap().chunks.len() > 1, "the inserts split the chunk");
    let batch: Vec<BulkUpdate> = (0..COUNTERS)
        .map(|t| BulkUpdate {
            filter: Filter::eq("t", t),
            spec: UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), 1.0)]),
            multi: true,
        })
        .collect();
    std::thread::scope(|s| {
        for _ in 0..WRITERS {
            s.spawn(|| {
                for _ in 0..BATCHES {
                    let r = router.update_batch("ctr", &batch).unwrap();
                    assert_eq!(r.modified, COUNTERS as usize);
                }
            });
        }
        s.spawn(|| {
            for m in 0..MOVES {
                router.move_chunk("ctr", 0, (m % 2 == 0) as usize).unwrap();
            }
        });
    });
    let expect = Value::Int64((WRITERS * BATCHES) as i64);
    let docs = router.find("ctr", &Filter::True);
    assert_eq!(docs.len(), COUNTERS as usize);
    for d in docs {
        assert_eq!(d.get("n"), Some(&expect), "counter {:?}", d.get("t"));
    }
}

/// Concurrent broadcast readers against a partitioned shard record one
/// warning per degraded read, and concurrent `take_warnings` drainers
/// see each warning exactly once.
#[test]
fn warnings_drain_exactly_once_under_concurrency() {
    const READERS: usize = 4;
    const READS: usize = 50;
    let mut cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 3,
        db_name: "warn".into(),
        network: NetworkModel::free(),
        retry: RetryPolicy::none(),
        ..ClusterConfig::default()
    });
    cluster.router_mut().set_degraded_reads(DegradedReads::Partial);
    cluster
        .shard_collection("facts", ShardKey::range(["k"]), 64 * 1024)
        .unwrap();
    let router = cluster.router();
    for i in 0..30i64 {
        router.insert_one("facts", doc! {"k" => i}).unwrap();
    }
    router.faults().set_partitioned(0, true);

    let drained = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..READERS {
            s.spawn(|| {
                for _ in 0..READS {
                    // Broadcast read: the partitioned shard's leg fails
                    // and Partial mode records exactly one warning.
                    let _ = router.try_find_with("facts", &Filter::True, &Default::default());
                }
            });
        }
        // Two drainers race the readers; whatever they pull must never
        // be seen twice.
        for _ in 0..2 {
            let drained = &drained;
            s.spawn(move || {
                for _ in 0..200 {
                    let got = router.take_warnings().len();
                    drained.fetch_add(got, Ordering::Relaxed);
                    std::thread::yield_now();
                }
            });
        }
    });
    let leftover = router.take_warnings().len();
    assert_eq!(
        drained.load(Ordering::Relaxed) + leftover,
        READERS * READS,
        "warnings were lost or double-drained"
    );
}

/// NetStats counters are atomic: 8 threads charging in parallel lose
/// nothing and the exchange/byte totals come out exact.
#[test]
fn net_stats_counters_are_exact_under_concurrency() {
    const THREADS: u64 = 8;
    const CHARGES: u64 = 10_000;
    let cluster = cluster(2);
    let stats = cluster.router().net_stats();
    let model = NetworkModel::free();
    let before_ex = stats.exchanges();
    let before_bytes = stats.bytes();
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let stats = &stats;
            let model = &model;
            s.spawn(move || {
                for i in 0..CHARGES {
                    stats.charge(model, (t * CHARGES + i) as usize % 97);
                }
            });
        }
    });
    let expect_bytes: u64 = (0..THREADS * CHARGES).map(|v| v % 97).sum();
    assert_eq!(stats.exchanges() - before_ex, THREADS * CHARGES);
    assert_eq!(stats.bytes() - before_bytes, expect_bytes);
}
