//! Chaos suite: deterministic seeded fault schedules against a
//! replica-backed sharded cluster. Members are killed and recovered and
//! shards partitioned mid-workload; afterwards every member of every
//! shard must hold exactly the primary's documents (bit-identical under
//! encoding, insertion order ignored).

use doclite_bson::doc;
use doclite_docstore::{Filter, SyncPolicy};
use doclite_sharding::chaos::{self, ChaosSchedule, FaultAction};
use doclite_sharding::{
    ClusterConfig, DegradedReads, DurabilityConfig, MemberState, NetworkModel, ReadPreference,
    RetryPolicy, ShardKey, ShardedCluster, WriteConcern,
};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch directory per test (and per proptest case): chaos
/// tests run in one process, so a counter + pid disambiguates.
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn chaos_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join(format!("doclite_chaos_{tag}_{}_{n}", std::process::id()));
    // A stale directory from an interrupted earlier run must not leak
    // its WAL/checkpoint state into this one.
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn replicated_cluster(
    n_shards: usize,
    replicas: usize,
    concern: WriteConcern,
) -> ShardedCluster {
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards,
        replicas_per_shard: replicas,
        db_name: "chaos".into(),
        write_concern: concern,
        ..ClusterConfig::default()
    });
    cluster
        .shard_collection("facts", ShardKey::range(["k"]), 4 * 1024)
        .unwrap();
    cluster
}

/// Like [`replicated_cluster`], but every member persists a WAL and
/// checkpoints under `dir`, so crashed members restart with their
/// acknowledged writes instead of an empty database.
fn durable_cluster(
    n_shards: usize,
    replicas: usize,
    concern: WriteConcern,
    dir: &Path,
    sync: SyncPolicy,
) -> ShardedCluster {
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards,
        replicas_per_shard: replicas,
        db_name: "chaos".into(),
        write_concern: concern,
        durability: Some(DurabilityConfig { dir: dir.to_path_buf(), sync }),
        ..ClusterConfig::default()
    });
    cluster
        .shard_collection("facts", ShardKey::range(["k"]), 4 * 1024)
        .unwrap();
    cluster
}

/// Loads enough padded documents that chunks split, then balances so
/// every shard holds data.
fn load_and_balance(cluster: &ShardedCluster, n: i64) {
    for i in 0..n {
        cluster
            .router()
            .insert_one("facts", doc! {"k" => i, "pad" => "x".repeat(30)})
            .unwrap();
    }
    cluster.balance().unwrap();
}

/// The tentpole scenario: a seeded fault schedule kills/recovers
/// members and partitions shards while writes and scatter-gather reads
/// keep flowing; after repairing everything, all members converge and
/// every acknowledged write is durable.
#[test]
fn seeded_fault_schedule_converges_after_recovery() {
    let cluster = replicated_cluster(3, 3, WriteConcern::W1);
    load_and_balance(&cluster, 120);

    let schedule = ChaosSchedule::seeded(0xC0FFEE, 200, 3, 3);
    let mut acked: Vec<i64> = Vec::new();
    let mut write_failures = 0usize;
    for step in 0..200usize {
        schedule.apply_due(&cluster, step);
        let k = 1000 + step as i64;
        match cluster.router().insert_one("facts", doc! {"k" => k}) {
            Ok(()) => acked.push(k),
            Err(_) => write_failures += 1,
        }
        if step % 10 == 0 {
            // Scatter-gather mid-chaos: may fail while a shard is
            // partitioned, must never panic or wedge.
            let _ = cluster.router().try_find_with(
                "facts",
                &Filter::True,
                &Default::default(),
            );
        }
    }
    assert!(
        !acked.is_empty(),
        "the schedule never leaves a shard without a primary, so some writes must land"
    );
    assert!(
        write_failures > 0,
        "a 200-step schedule should partition at least one write's target"
    );

    chaos::heal_all(&cluster);
    chaos::check_convergence(&cluster).unwrap();
    // Every acknowledged write survived the churn.
    for k in acked {
        assert_eq!(
            cluster.router().find("facts", &Filter::eq("k", k)).len(),
            1,
            "acknowledged write k={k} lost"
        );
    }
}

/// Acceptance criterion: with one member of a shard down, queries keep
/// returning exactly the healthy-cluster result.
#[test]
fn query_during_single_member_failure_matches_healthy_result() {
    let cluster = replicated_cluster(3, 3, WriteConcern::Majority);
    load_and_balance(&cluster, 90);

    let keys = |docs: Vec<doclite_bson::Document>| {
        let mut ks: Vec<i64> = docs
            .iter()
            .map(|d| match d.get("k") {
                Some(doclite_bson::Value::Int64(v)) => *v,
                other => panic!("bad k: {other:?}"),
            })
            .collect();
        ks.sort_unstable();
        ks
    };
    let healthy = keys(cluster.router().find("facts", &Filter::True));
    assert_eq!(healthy.len(), 90);

    // Kill the primary member of shard 2: an election replaces it and
    // reads fail over to the surviving members.
    cluster.router().shards()[1].replica_set().fail_member(0);
    let degraded = keys(cluster.router().find("facts", &Filter::True));
    assert_eq!(healthy, degraded);

    // Same under an explicit secondary read preference.
    let mut cluster = cluster;
    cluster
        .router_mut()
        .set_read_preference(ReadPreference::Secondary);
    assert_eq!(healthy, keys(cluster.router().find("facts", &Filter::True)));
}

/// A whole-shard partition: fail-fast errors by default, partial
/// results with a warning when the caller opts in.
#[test]
fn partitioned_shard_degrades_per_policy() {
    let mut cluster = replicated_cluster(3, 1, WriteConcern::W1);
    load_and_balance(&cluster, 300);
    let total = cluster.router().find("facts", &Filter::True).len();
    assert_eq!(total, 300);
    let shard1_docs = cluster.router().shards()[1]
        .db()
        .get_collection("facts")
        .map(|c| c.len())
        .unwrap_or(0);
    assert!(shard1_docs > 0, "balance must give shard 2 data");

    cluster.router().faults().set_partitioned(1, true);

    // Default policy: the broadcast fails loudly.
    let err = cluster
        .router()
        .try_find_with("facts", &Filter::True, &Default::default())
        .unwrap_err();
    assert!(err.to_string().contains("unavailable"), "{err}");

    // Partial policy: reachable shards answer, a warning is recorded.
    cluster.router_mut().set_degraded_reads(DegradedReads::Partial);
    let partial = cluster
        .router()
        .try_find_with("facts", &Filter::True, &Default::default())
        .unwrap();
    assert_eq!(partial.len(), total - shard1_docs);
    let warnings = cluster.router().take_warnings();
    assert!(!warnings.is_empty());
    assert!(warnings[0].contains("partial"), "{warnings:?}");
    assert!(cluster.router().net_stats().partitioned() > 0);

    // Counts degrade the same way.
    assert_eq!(
        cluster.router().try_count("facts", &Filter::True).unwrap(),
        total - shard1_docs
    );

    // Healing restores full results.
    cluster.router().faults().set_partitioned(1, false);
    assert_eq!(cluster.router().find("facts", &Filter::True).len(), total);
}

/// Probabilistic drops: bounded-backoff retries ride through transient
/// loss on both reads and writes, deterministically under the seed.
#[test]
fn retries_recover_from_transient_drops() {
    let mut cluster = replicated_cluster(2, 1, WriteConcern::W1);
    cluster.router_mut().set_retry_policy(RetryPolicy {
        max_retries: 25,
        ..RetryPolicy::default()
    });
    load_and_balance(&cluster, 60);

    let faults = cluster.router().faults();
    faults.set_seed(42);
    faults.set_drop_probability(0.4);

    // With p=0.4 and 25 retries the chance any exchange exhausts its
    // budget is ~1e-10 per exchange: everything below must succeed.
    for i in 0..40i64 {
        cluster
            .router()
            .insert_one("facts", doc! {"k" => 500 + i})
            .unwrap();
    }
    for i in 0..40i64 {
        assert_eq!(
            cluster
                .router()
                .try_find_with("facts", &Filter::eq("k", 500 + i), &Default::default())
                .unwrap()
                .len(),
            1
        );
    }
    let stats = cluster.router().net_stats();
    assert!(stats.dropped() > 0, "p=0.4 must drop some exchanges");
    assert_eq!(stats.dropped(), stats.retries(), "every drop was retried");

    cluster.router().faults().clear();
    chaos::check_convergence(&cluster).unwrap();
}

/// Writes route through the elected primary after the old one dies.
#[test]
fn writes_fail_over_to_new_primary() {
    let cluster = replicated_cluster(1, 3, WriteConcern::Majority);
    cluster.router().insert_one("facts", doc! {"k" => 1i64}).unwrap();

    let shards = cluster.router().shards();
    let rs = shards[0].replica_set();
    assert_eq!(rs.primary_index(), 0);
    rs.fail_member(0);
    assert_eq!(rs.primary_index(), 1);

    cluster.router().insert_one("facts", doc! {"k" => 2i64}).unwrap();
    assert_eq!(cluster.router().find("facts", &Filter::True).len(), 2);

    rs.recover_member(0);
    chaos::check_convergence(&cluster).unwrap();
    // The recovered ex-primary resynced the write it missed.
    assert_eq!(
        rs.member_db(0).get_collection("facts").unwrap().len(),
        2
    );
}

/// A request timeout fails oversized responses; slimmer exchanges pass.
#[test]
fn request_timeouts_fail_oversized_scatter_legs() {
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 2,
        replicas_per_shard: 1,
        db_name: "chaos_t".into(),
        network: NetworkModel {
            round_trip: std::time::Duration::from_micros(100),
            bytes_per_sec: 1_000_000,
            mode: doclite_sharding::NetMode::Account,
        },
        retry: RetryPolicy::none(),
        ..ClusterConfig::default()
    });
    cluster
        .shard_collection("facts", ShardKey::range(["k"]), 4 * 1024)
        .unwrap();
    for i in 0..50i64 {
        cluster
            .router()
            .insert_one("facts", doc! {"k" => i, "pad" => "y".repeat(200)})
            .unwrap();
    }
    // ~10 kB of matching documents take ~10 ms on this 1 MB/s link: a
    // 1 ms budget times the broadcast out, but a targeted single-doc
    // read stays under it.
    cluster
        .router()
        .faults()
        .set_timeout(Some(std::time::Duration::from_millis(1)));
    assert!(cluster
        .router()
        .try_find_with("facts", &Filter::True, &Default::default())
        .is_err());
    assert_eq!(
        cluster
            .router()
            .try_find_with("facts", &Filter::eq("k", 3i64), &Default::default())
            .unwrap()
            .len(),
        1
    );
    assert!(cluster.router().net_stats().timed_out() > 0);
}

/// The durability tentpole: a seeded schedule that *crashes* member
/// processes (memory lost, disk kept) and restarts them, interleaved
/// with link failures and partitions, all under live traffic. After
/// repairing everything the members converge bit-identically and every
/// acknowledged write — including those whose acking member later
/// crashed — is still present.
#[test]
fn seeded_crash_restart_schedule_converges_with_durability() {
    let dir = chaos_dir("seeded");
    let cluster =
        durable_cluster(3, 3, WriteConcern::Majority, &dir, SyncPolicy::EveryN(8));
    load_and_balance(&cluster, 120);

    let schedule = ChaosSchedule::seeded(0xD15C, 200, 3, 3);
    let crashes = schedule
        .events()
        .iter()
        .filter(|e| matches!(e.action, FaultAction::CrashMember { .. }))
        .count();
    let restarts = schedule
        .events()
        .iter()
        .filter(|e| matches!(e.action, FaultAction::RestartMember { .. }))
        .count();
    assert!(
        crashes > 0 && restarts > 0,
        "seed must exercise the crash path ({crashes} crashes, {restarts} restarts)"
    );

    let mut acked: Vec<i64> = Vec::new();
    for step in 0..200usize {
        schedule.apply_due(&cluster, step);
        let k = 1000 + step as i64;
        if cluster.router().insert_one("facts", doc! {"k" => k}).is_ok() {
            acked.push(k);
        }
        if step % 16 == 0 {
            // Reads mid-chaos may fail against a partitioned shard but
            // must never panic or wedge.
            let _ = cluster.router().try_find_with(
                "facts",
                &Filter::True,
                &Default::default(),
            );
        }
        if step == 100 {
            // A mid-run checkpoint on every live member: later restarts
            // recover from checkpoint + WAL tail, not the log alone.
            for shard in cluster.router().shards() {
                shard.replica_set().checkpoint_all().unwrap();
            }
        }
    }
    assert!(!acked.is_empty(), "the schedule always leaves a primary");

    chaos::heal_all(&cluster);
    chaos::check_convergence(&cluster).unwrap();
    for k in acked {
        assert_eq!(
            cluster.router().find("facts", &Filter::eq("k", k)).len(),
            1,
            "acknowledged write k={k} lost across crash/restart churn"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// Every member of a shard crashes — no in-memory copy survives — and
/// the data comes back from checkpoint + WAL alone. `w:all` writes make
/// every member's disk authoritative, so the restart order (first
/// restarted member becomes primary) cannot lose anything.
#[test]
fn total_shard_crash_recovers_every_acked_write_from_disk() {
    let dir = chaos_dir("total");
    let cluster = durable_cluster(1, 3, WriteConcern::All, &dir, SyncPolicy::Always);
    for i in 0..40i64 {
        cluster.router().insert_one("facts", doc! {"k" => i}).unwrap();
    }
    // Compact the first half into checkpoints, then keep writing so
    // recovery must stitch checkpoint state and the WAL tail together.
    let shards = cluster.router().shards();
    let rs = shards[0].replica_set();
    rs.checkpoint_all().unwrap();
    for i in 40..60i64 {
        cluster.router().insert_one("facts", doc! {"k" => i}).unwrap();
    }

    for m in 0..3 {
        rs.crash_member(m);
    }
    for m in 0..3 {
        assert_eq!(
            rs.member_db(m).get_collection("facts").map(|c| c.len()).unwrap_or(0),
            0,
            "a crashed member must hold nothing in memory"
        );
    }

    chaos::heal_all(&cluster);
    chaos::check_convergence(&cluster).unwrap();
    assert_eq!(cluster.router().find("facts", &Filter::True).len(), 60);
    // The shard-key index came back too (recovered from the WAL's
    // create-index frame), so targeted queries still work.
    assert!(cluster
        .router()
        .explain_targeting("facts", &Filter::eq("k", 30i64))
        .is_targeted());
    std::fs::remove_dir_all(&dir).ok();
}

/// A crashed member that restarts while its shard still has a healthy
/// primary resyncs the writes it missed while dead.
#[test]
fn restarted_member_catches_up_on_writes_it_missed() {
    let dir = chaos_dir("catchup");
    let cluster = durable_cluster(1, 3, WriteConcern::Majority, &dir, SyncPolicy::Always);
    for i in 0..10i64 {
        cluster.router().insert_one("facts", doc! {"k" => i}).unwrap();
    }
    let shards = cluster.router().shards();
    let rs = shards[0].replica_set();
    rs.crash_member(2);
    for i in 10..25i64 {
        cluster.router().insert_one("facts", doc! {"k" => i}).unwrap();
    }
    let report = rs.restart_member(2).unwrap();
    assert!(report.frames_replayed > 0, "the WAL held the pre-crash writes");
    assert_eq!(rs.member_db(2).get_collection("facts").unwrap().len(), 25);
    chaos::check_convergence(&cluster).unwrap();
    std::fs::remove_dir_all(&dir).ok();
}

/// Catch-up by log shipping and catch-up by full copy must land the
/// stale member in the *same* state: run the identical missed-write
/// workload twice — once with the primary's WAL tail intact (frames
/// above the member's resume token ship incrementally) and once with a
/// checkpoint truncating that tail (forcing the full-copy fallback) —
/// and compare the recovered member's documents as multisets.
#[test]
fn log_shipping_catchup_matches_full_resync() {
    use doclite_bson::json::to_json;

    let mut recovered: Vec<Vec<String>> = Vec::new();
    for truncate in [false, true] {
        let tag = if truncate { "ship_trunc" } else { "ship_tail" };
        let dir = chaos_dir(tag);
        let cluster =
            durable_cluster(1, 3, WriteConcern::Majority, &dir, SyncPolicy::Always);
        // Explicit `_id`s: auto-generated ids differ between the two
        // cluster instances and would defeat the cross-run comparison.
        for i in 0..30i64 {
            cluster
                .router()
                .insert_one("facts", doc! {"_id" => i, "k" => i})
                .unwrap();
        }
        let shards = cluster.router().shards();
        let rs = shards[0].replica_set();
        // Down, not crashed: memory intact, so recovery goes through
        // the incremental catch-up path (with its full-copy fallback).
        rs.fail_member(2);
        for i in 30..60i64 {
            cluster
                .router()
                .insert_one("facts", doc! {"_id" => i, "k" => i})
                .unwrap();
        }
        if truncate {
            // Shrink the change buffer and compact: the downed member's
            // resume token now predates the retained log, so shipping
            // must refuse and recovery must full-copy instead.
            rs.member_wal(0).expect("durable primary").set_change_capacity(1);
            rs.checkpoint_all().unwrap();
        }
        rs.recover_member(2);

        let stats = rs.resync_stats();
        if truncate {
            assert_eq!(
                (stats.log_shipped, stats.full_copies),
                (0, 1),
                "a truncated tail must force the full-copy fallback"
            );
        } else {
            assert_eq!(
                (stats.log_shipped, stats.full_copies),
                (1, 0),
                "an intact tail must ship incrementally"
            );
        }

        let mut docs: Vec<String> = rs
            .member_db(2)
            .get_collection("facts")
            .unwrap()
            .all_docs()
            .iter()
            .map(to_json)
            .collect();
        docs.sort();
        assert_eq!(docs.len(), 60);
        recovered.push(docs);
        chaos::check_convergence(&cluster).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }
    assert_eq!(
        recovered[0], recovered[1],
        "the two recovery paths disagree on the member's final state"
    );
}

/// Under fail/recover churn with writes flowing, every recovery of a
/// downed secondary is served incrementally from the primary's log
/// tail — the full-copy path never fires when the tail is intact.
#[test]
fn downed_members_catch_up_by_log_shipping_under_chaos() {
    let dir = chaos_dir("shiplog");
    let cluster = durable_cluster(2, 3, WriteConcern::W1, &dir, SyncPolicy::EveryN(8));
    load_and_balance(&cluster, 120);

    const ROUNDS: u64 = 6;
    for round in 0..ROUNDS {
        let shard = (round % 2) as usize;
        let member = 1 + (round % 2) as usize; // a secondary, never member 0
        cluster.router().shards()[shard].replica_set().fail_member(member);
        for i in 0..15i64 {
            let k = 1000 + round as i64 * 15 + i;
            cluster.router().insert_one("facts", doc! {"k" => k}).unwrap();
        }
        cluster.router().shards()[shard].replica_set().recover_member(member);
    }

    chaos::heal_all(&cluster);
    chaos::check_convergence(&cluster).unwrap();
    let (shipped, copies) = cluster.router().shards().iter().fold((0, 0), |(s, c), sh| {
        let st = sh.replica_set().resync_stats();
        (s + st.log_shipped, c + st.full_copies)
    });
    assert!(
        shipped >= ROUNDS,
        "every recovery should ship the log tail (shipped {shipped} of {ROUNDS})"
    );
    assert_eq!(copies, 0, "no recovery should have needed a full copy");
    std::fs::remove_dir_all(&dir).ok();
}

#[derive(Clone, Debug)]
enum Op {
    /// Insert k with w:1 (false) or w:majority (true).
    Write { k: i64, majority: bool },
    Fail { shard: usize, member: usize },
    Recover { shard: usize, member: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The write arm appears twice: the vendored prop_oneof! has no
    // weight syntax, and writes should outnumber fail/recover events.
    prop_oneof![
        (0..5_000i64, any::<bool>()).prop_map(|(k, majority)| Op::Write { k, majority }),
        (5_000..10_000i64, any::<bool>()).prop_map(|(k, majority)| Op::Write { k, majority }),
        (0..2usize, 0..3usize).prop_map(|(shard, member)| Op::Fail { shard, member }),
        (0..2usize, 0..3usize).prop_map(|(shard, member)| Op::Recover { shard, member }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any interleaving of w:1 / w:majority writes with member
    /// failovers — including losing every member of a shard — ends,
    /// after recovering everyone, with all members bit-identical and
    /// one document per acknowledged write.
    #[test]
    fn interleaved_writes_and_failovers_converge(
        ops in proptest::collection::vec(op_strategy(), 1..80)
    ) {
        let mut cluster = replicated_cluster(2, 3, WriteConcern::W1);
        load_and_balance(&cluster, 120);
        let mut acked = 0usize;
        for op in ops {
            match op {
                Op::Write { k, majority } => {
                    cluster.router_mut().set_write_concern(if majority {
                        WriteConcern::Majority
                    } else {
                        WriteConcern::W1
                    });
                    // Writes may fail while a shard has no primary or
                    // quorum; acknowledged ones must survive to the end.
                    if cluster.router().insert_one("facts", doc! {"k" => k}).is_ok() {
                        acked += 1;
                    }
                }
                Op::Fail { shard, member } => {
                    cluster.router().shards()[shard].replica_set().fail_member(member);
                }
                Op::Recover { shard, member } => {
                    cluster.router().shards()[shard].replica_set().recover_member(member);
                }
            }
        }
        chaos::heal_all(&cluster);
        chaos::check_convergence(&cluster).unwrap();
        prop_assert_eq!(cluster.router().collection_len("facts"), 120 + acked);
    }
}

#[derive(Clone, Debug)]
enum DurableOp {
    /// Insert k with w:1 (false) or w:majority (true).
    Write { k: i64, majority: bool },
    Fail { shard: usize, member: usize },
    Crash { shard: usize, member: usize },
    Recover { shard: usize, member: usize },
}

fn durable_op_strategy() -> impl Strategy<Value = DurableOp> {
    // Write arm doubled for weight, as in `op_strategy`.
    prop_oneof![
        (0..5_000i64, any::<bool>())
            .prop_map(|(k, majority)| DurableOp::Write { k, majority }),
        (5_000..10_000i64, any::<bool>())
            .prop_map(|(k, majority)| DurableOp::Write { k, majority }),
        (0..2usize, 0..3usize).prop_map(|(shard, member)| DurableOp::Fail { shard, member }),
        (0..2usize, 0..3usize).prop_map(|(shard, member)| DurableOp::Crash { shard, member }),
        (0..2usize, 0..3usize)
            .prop_map(|(shard, member)| DurableOp::Recover { shard, member }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Any interleaving of writes, link failures, and *process crashes*
    /// against a durable cluster converges with one document per
    /// acknowledged write. Crashes follow the same invariant the
    /// seeded schedule keeps — never crash the last healthy member of a
    /// shard (with per-member WALs there is no cross-member opTime, so
    /// a full-crash shard elects whichever member restarts first;
    /// `w:all` is the contract for surviving that, covered by
    /// `total_shard_crash_recovers_every_acked_write_from_disk`).
    #[test]
    fn interleaved_writes_crashes_and_failovers_converge_durably(
        ops in proptest::collection::vec(durable_op_strategy(), 1..60)
    ) {
        let dir = chaos_dir("prop");
        let mut cluster =
            durable_cluster(2, 3, WriteConcern::W1, &dir, SyncPolicy::Never);
        load_and_balance(&cluster, 120);
        let mut acked = 0usize;
        for op in ops {
            match op {
                DurableOp::Write { k, majority } => {
                    cluster.router_mut().set_write_concern(if majority {
                        WriteConcern::Majority
                    } else {
                        WriteConcern::W1
                    });
                    if cluster.router().insert_one("facts", doc! {"k" => k}).is_ok() {
                        acked += 1;
                    }
                }
                DurableOp::Fail { shard, member } => {
                    let shards = cluster.router().shards();
                    let rs = shards[shard].replica_set();
                    // Failing the link of a dead process is meaningless
                    // (and would erase the crashed marker).
                    if rs.member_state(member) != MemberState::Crashed {
                        rs.fail_member(member);
                    }
                }
                DurableOp::Crash { shard, member } => {
                    let shards = cluster.router().shards();
                    let rs = shards[shard].replica_set();
                    let up = (0..rs.member_count())
                        .filter(|&m| rs.member_state(m) == MemberState::Up)
                        .count();
                    if rs.member_state(member) == MemberState::Up && up > 1 {
                        rs.crash_member(member);
                    }
                }
                DurableOp::Recover { shard, member } => {
                    cluster.router().shards()[shard].replica_set().recover_member(member);
                }
            }
        }
        chaos::heal_all(&cluster);
        chaos::check_convergence(&cluster).unwrap();
        prop_assert_eq!(cluster.router().collection_len("facts"), 120 + acked);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// PR-8 acceptance scenario: an *elastic* seeded schedule adds shards,
/// drain-removes shards, and fires balancing rounds while members
/// crash, links fail, and shards partition — all under a seeded,
/// re-derivable write stream. After the storm the cluster is healed,
/// interrupted drains are finished, and the check demands both replica
/// convergence and byte-exact content for every acknowledged ticket:
/// any document an elastic reconfiguration lost, doubled, or mangled
/// fails the run. Runs at two seeds.
#[test]
fn elastic_seeded_schedule_preserves_content_across_reconfiguration() {
    for seed in [0xE1A5_0001u64, 0xE1A5_0002] {
        elastic_chaos_run(seed);
    }
}

fn elastic_chaos_run(seed: u64) {
    const STEPS: usize = 250;
    let derive = |id: i64| doc! {"_id" => id, "k" => id, "pad" => "e".repeat(24)};
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 3,
        replicas_per_shard: 3,
        db_name: "elastic".into(),
        write_concern: WriteConcern::W1,
        retry: RetryPolicy::elastic(),
        ..ClusterConfig::default()
    });
    cluster
        .shard_collection("facts", ShardKey::range(["k"]), 4 * 1024)
        .unwrap();
    let mut acked: Vec<i64> = Vec::new();
    for id in 0..150i64 {
        cluster.router().insert_one("facts", derive(id)).unwrap();
        acked.push(id);
    }
    cluster.balance().unwrap();

    let schedule = ChaosSchedule::seeded_elastic(seed, STEPS, 3, 3);
    let topology_events = schedule
        .events()
        .iter()
        .filter(|e| {
            matches!(
                e.action,
                FaultAction::AddShard | FaultAction::RemoveShard { .. } | FaultAction::Rebalance
            )
        })
        .count();
    assert!(
        topology_events > 0,
        "seed {seed:#x}: an elastic schedule must reshape the topology"
    );

    let mut write_failures = 0usize;
    for step in 0..STEPS {
        schedule.apply_due(&cluster, step);
        let id = 1000 + step as i64;
        match cluster.router().insert_one("facts", derive(id)) {
            Ok(()) => acked.push(id),
            Err(_) => write_failures += 1,
        }
        if step % 20 == 0 {
            // Scatter-gather mid-reconfiguration: may fail while a
            // shard is partitioned, must never panic or wedge.
            let _ = cluster
                .router()
                .try_find_with("facts", &Filter::True, &Default::default());
        }
    }
    assert!(
        acked.len() > 150,
        "seed {seed:#x}: retries should land most writes ({write_failures} failed)"
    );

    chaos::heal_all(&cluster);
    cluster.finish_drains().unwrap();
    cluster.balance().unwrap();
    let report = chaos::check_convergence_with_content(
        &cluster,
        "facts",
        "k",
        acked.iter().copied(),
        derive,
    )
    .unwrap_or_else(|e| panic!("seed {seed:#x}: {e}"));
    assert_eq!(report.checked, acked.len());
}
