//! Reconfiguration stress: a seeded write-then-validate workload runs
//! against a sharded cluster while a controller thread reshapes it —
//! adding a shard, drain-removing one, bouncing chunks between shards,
//! or rolling crash/restarts through every replica set.
//!
//! The workload follows the row-generator pattern: every document is a
//! pure function of `(seed, ticket)` ([`derive_sale_doc`]), so any read
//! can verify the stored bytes without a shadow copy, and the final
//! sweep ([`doclite_sharding::check_content`]) re-derives every
//! acknowledged ticket and demands it exists exactly once,
//! byte-identical. `validation_errors == 0` across all four scenarios
//! is the acceptance bar for elastic topology.

use crate::driver::worker_seed;
use crate::hist::LogHistogram;
use crate::report::Json;
use doclite_bson::codec::encode_document;
use doclite_bson::{doc, Document};
use doclite_docstore::Filter;
use doclite_sharding::{
    chaos, check_content, ClusterConfig, NetworkModel, RetryPolicy, ShardKey, ShardedCluster,
};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Schema tag of the reconfiguration report.
pub const RECONFIG_SCHEMA: &str = "doclite-reconfig/v1";

/// The collection every scenario writes into.
const COLLECTION: &str = "store_sales";

/// Derives the one true document for a ticket. Every field is a pure
/// function of `(seed, ticket)` (splitmix-style hashing), and `_id` is
/// the ticket itself, so a validator can re-derive the exact bytes the
/// writer inserted and compare encodings bit-for-bit.
pub fn derive_sale_doc(seed: u64, ticket: i64) -> Document {
    let mut z = seed ^ (ticket as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    doc! {
        "_id" => ticket,
        "ss_ticket_number" => ticket,
        "ss_item_sk" => (next() % 18_000) as i64 + 1,
        "ss_customer_sk" => (next() % 100_000) as i64 + 1,
        "ss_quantity" => (next() % 100) as i64 + 1,
        "ss_net_paid_cents" => (next() % 1_000_000) as i64,
    }
}

/// One topology-change scenario run under mixed traffic.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ReconfigScenario {
    /// Online `add_shard` mid-run, followed by a balancing round that
    /// migrates chunks onto the newcomer.
    AddShard,
    /// Drain-remove the highest-id non-primary shard mid-run: mark
    /// draining, migrate every chunk off, deregister.
    DrainRemove,
    /// Continuous chunk shuffling: deliberately skew placement, then
    /// rebalance, in a loop — migrations overlap traffic the whole run.
    LiveRebalance,
    /// Roll a crash/restart through one member of every shard while
    /// writes keep flowing (needs `replicas_per_shard >= 2`).
    RollingRestart,
}

impl ReconfigScenario {
    /// Every scenario, in report order.
    pub const ALL: [ReconfigScenario; 4] = [
        ReconfigScenario::AddShard,
        ReconfigScenario::DrainRemove,
        ReconfigScenario::LiveRebalance,
        ReconfigScenario::RollingRestart,
    ];

    /// The report label.
    pub fn name(self) -> &'static str {
        match self {
            ReconfigScenario::AddShard => "add_shard",
            ReconfigScenario::DrainRemove => "drain_remove",
            ReconfigScenario::LiveRebalance => "live_rebalance",
            ReconfigScenario::RollingRestart => "rolling_restart",
        }
    }
}

/// Knobs for one scenario run.
#[derive(Clone, Debug)]
pub struct ReconfigConfig {
    /// Worker threads driving mixed traffic.
    pub threads: usize,
    /// Wall-clock length of the measured run.
    pub duration: Duration,
    /// Reporting interval for the throughput/p99 curves.
    pub interval: Duration,
    /// Root seed: drives document derivation and per-worker op mixing.
    pub seed: u64,
    /// Tickets inserted (and balanced across shards) before the clock
    /// starts, so migrations have substance from the first step.
    pub preload: i64,
    /// Ticket ceiling: once claimed, workers switch to verified reads.
    /// Bounds the final content sweep.
    pub max_tickets: i64,
    /// Percentage of ops that are verified point reads (0–100).
    pub read_pct: u32,
}

impl Default for ReconfigConfig {
    fn default() -> Self {
        ReconfigConfig {
            threads: 4,
            duration: Duration::from_millis(1500),
            interval: Duration::from_millis(200),
            seed: 90210,
            preload: 400,
            max_tickets: 60_000,
            read_pct: 30,
        }
    }
}

/// One reporting interval of one scenario.
#[derive(Clone, Copy, Debug)]
pub struct IntervalStat {
    /// Interval end, seconds from run start.
    pub t_s: f64,
    pub ops: u64,
    pub errors: u64,
    pub throughput_ops_s: f64,
    pub p99_us: f64,
}

/// The outcome of one scenario: aggregate numbers, the per-interval
/// curve, and the validation verdict.
#[derive(Clone, Debug)]
pub struct ScenarioResult {
    pub scenario: String,
    pub threads: usize,
    pub ops: u64,
    pub errors: u64,
    pub elapsed_s: f64,
    pub throughput_ops_s: f64,
    pub p99_us: f64,
    pub intervals: Vec<IntervalStat>,
    /// Tickets the final content sweep re-derived and checked.
    pub validated_rows: usize,
    /// Lost + duplicated + corrupted rows, live read mismatches, and
    /// convergence failures. The acceptance bar is zero.
    pub validation_errors: usize,
}

/// Runs one scenario end to end: build cluster, preload, drive mixed
/// traffic while the controller reshapes the topology, then heal,
/// finish any interrupted drain, and validate every acknowledged ticket
/// byte-for-byte.
pub fn run_scenario(scenario: ReconfigScenario, cfg: &ReconfigConfig) -> ScenarioResult {
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: 3,
        replicas_per_shard: 2,
        db_name: format!("reconfig_{}", scenario.name()),
        network: NetworkModel::free(),
        retry: RetryPolicy::elastic(),
        ..ClusterConfig::default()
    });
    cluster
        .shard_collection(COLLECTION, ShardKey::range(["ss_ticket_number"]), 8 * 1024)
        .expect("shard the workload collection");

    let seed = cfg.seed;
    let mut acked: Vec<i64> = Vec::new();
    for t in 0..cfg.preload {
        cluster
            .router()
            .insert_one(COLLECTION, derive_sale_doc(seed, t))
            .expect("preload insert on a healthy cluster");
        acked.push(t);
    }
    cluster.balance().expect("preload balance");

    let n_intervals =
        (cfg.duration.as_secs_f64() / cfg.interval.as_secs_f64()).ceil() as usize + 1;
    let hists: Vec<LogHistogram> = (0..n_intervals).map(|_| LogHistogram::new()).collect();
    let interval_errors: Vec<AtomicU64> =
        (0..n_intervals).map(|_| AtomicU64::new(0)).collect();
    let total_errors = AtomicU64::new(0);
    let read_mismatches = AtomicU64::new(0);
    let next_ticket = AtomicI64::new(cfg.preload);
    let stop = AtomicBool::new(false);
    let started = Instant::now();

    std::thread::scope(|s| {
        let mut handles = Vec::new();
        for w in 0..cfg.threads {
            let (cluster, hists, interval_errors) = (&cluster, &hists, &interval_errors);
            let (total_errors, read_mismatches) = (&total_errors, &read_mismatches);
            let (next_ticket, stop, cfg) = (&next_ticket, &stop, &cfg);
            handles.push(s.spawn(move || {
                let mut rng = worker_seed(cfg.seed, w);
                let mut roll = move || {
                    rng = rng
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    rng >> 32
                };
                let mut acked_local: Vec<i64> = Vec::new();
                while !stop.load(Ordering::Relaxed) {
                    let idx = ((started.elapsed().as_nanos() / cfg.interval.as_nanos())
                        as usize)
                        .min(n_intervals - 1);
                    let capped = next_ticket.load(Ordering::Relaxed) >= cfg.max_tickets;
                    let read = !acked_local.is_empty()
                        && (capped || roll() % 100 < cfg.read_pct as u64);
                    let t0 = Instant::now();
                    let ok = if read {
                        // Verified point read of a ticket this worker
                        // itself got acknowledged: must return exactly
                        // the derived bytes, through any migration.
                        let t = acked_local[(roll() % acked_local.len() as u64) as usize];
                        match cluster.router().try_find_with(
                            COLLECTION,
                            &Filter::eq("ss_ticket_number", t),
                            &Default::default(),
                        ) {
                            Ok(docs) => {
                                let expect = encode_document(&derive_sale_doc(seed, t));
                                if docs.len() != 1 || encode_document(&docs[0]) != expect {
                                    read_mismatches.fetch_add(1, Ordering::Relaxed);
                                }
                                true
                            }
                            Err(_) => false,
                        }
                    } else {
                        let t = next_ticket.fetch_add(1, Ordering::Relaxed);
                        match cluster
                            .router()
                            .insert_one(COLLECTION, derive_sale_doc(seed, t))
                        {
                            Ok(()) => {
                                acked_local.push(t);
                                true
                            }
                            Err(_) => false,
                        }
                    };
                    hists[idx].record_duration(t0.elapsed());
                    if !ok {
                        interval_errors[idx].fetch_add(1, Ordering::Relaxed);
                        total_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
                acked_local
            }));
        }
        let controller = {
            let (cluster, stop) = (&cluster, &stop);
            let duration = cfg.duration;
            s.spawn(move || run_controller(scenario, cluster, stop, duration))
        };
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            acked.extend(h.join().expect("worker panicked"));
        }
        controller.join().expect("controller panicked");
    });
    let elapsed = started.elapsed();

    // Quiesce: complete any drain the controller left half-done, spread
    // chunks, then validate both replica convergence and content.
    let mut validation_errors = 0usize;
    if let Err(e) = cluster.finish_drains() {
        eprintln!("[{}] finish_drains failed: {e}", scenario.name());
        validation_errors += 1;
    }
    if let Err(e) = cluster.balance() {
        eprintln!("[{}] post-run balance failed: {e}", scenario.name());
        validation_errors += 1;
    }
    if let Err(e) = chaos::check_convergence(&cluster) {
        eprintln!("[{}] convergence check failed: {e}", scenario.name());
        validation_errors += 1;
    }
    acked.sort_unstable();
    let content = check_content(&cluster, COLLECTION, "_id", acked.iter().copied(), |t| {
        derive_sale_doc(seed, t)
    });
    if !content.is_clean() {
        eprintln!(
            "[{}] content sweep: {} missing, {} duplicated, {} corrupted of {}",
            scenario.name(),
            content.missing,
            content.duplicated,
            content.corrupted,
            content.checked
        );
    }
    validation_errors += content.errors() + read_mismatches.load(Ordering::Relaxed) as usize;

    let interval_s = cfg.interval.as_secs_f64();
    let intervals: Vec<IntervalStat> = hists
        .iter()
        .zip(&interval_errors)
        .enumerate()
        .take_while(|(i, _)| (*i as f64) * interval_s < elapsed.as_secs_f64())
        .map(|(i, (h, e))| IntervalStat {
            t_s: (i + 1) as f64 * interval_s,
            ops: h.count(),
            errors: e.load(Ordering::Relaxed),
            throughput_ops_s: h.count() as f64 / interval_s,
            p99_us: h.percentile(99.0) as f64 / 1_000.0,
        })
        .collect();
    let total = LogHistogram::new();
    for h in &hists {
        total.merge(h);
    }
    ScenarioResult {
        scenario: scenario.name().to_owned(),
        threads: cfg.threads,
        ops: total.count(),
        errors: total_errors.load(Ordering::Relaxed),
        elapsed_s: elapsed.as_secs_f64(),
        throughput_ops_s: total.count() as f64 / elapsed.as_secs_f64().max(1e-9),
        p99_us: total.percentile(99.0) as f64 / 1_000.0,
        intervals,
        validated_rows: content.checked,
        validation_errors,
    }
}

/// Sleeps in small slices so a finished run never waits on a dozing
/// controller.
fn nap(stop: &AtomicBool, d: Duration) {
    let end = Instant::now() + d;
    while !stop.load(Ordering::Relaxed) && Instant::now() < end {
        std::thread::sleep(Duration::from_millis(2));
    }
}

/// The topology-change side of a scenario, run concurrently with the
/// worker threads. Errors are tolerated (the run validates outcomes,
/// not controller luck); panics are not.
fn run_controller(
    scenario: ReconfigScenario,
    cluster: &ShardedCluster,
    stop: &AtomicBool,
    duration: Duration,
) {
    match scenario {
        ReconfigScenario::AddShard => {
            nap(stop, duration / 3);
            match cluster.add_shard() {
                Ok(id) => eprintln!("[add_shard] shard {id} joined"),
                Err(e) => eprintln!("[add_shard] add failed: {e}"),
            }
            if let Err(e) = cluster.balance() {
                eprintln!("[add_shard] balance failed: {e}");
            }
        }
        ReconfigScenario::DrainRemove => {
            nap(stop, duration / 3);
            let victim = cluster
                .router()
                .shards()
                .iter()
                .map(|s| s.id())
                .filter(|&id| id != 0)
                .max();
            if let Some(id) = victim {
                match cluster.remove_shard(id) {
                    Ok(moved) => {
                        eprintln!("[drain_remove] shard {id} drained ({moved} chunks) and left")
                    }
                    Err(e) => eprintln!("[drain_remove] removal of {id} deferred: {e}"),
                }
            }
        }
        ReconfigScenario::LiveRebalance => {
            nap(stop, duration / 6);
            while !stop.load(Ordering::Relaxed) {
                // Skew deliberately — push one chunk onto shard 0 —
                // then let the balancer pull the spread tight again, so
                // migrations overlap traffic for the whole run.
                if let Some(meta) = cluster.router().config().meta(COLLECTION) {
                    if let Some(i) = meta.chunks.iter().position(|c| c.shard != 0) {
                        let _ = cluster.router().move_chunk(COLLECTION, i, 0);
                    }
                }
                let _ = cluster.balance();
                nap(stop, duration / 10);
            }
        }
        ReconfigScenario::RollingRestart => {
            nap(stop, duration / 5);
            for shard in cluster.router().shards() {
                if stop.load(Ordering::Relaxed) {
                    break;
                }
                let rs = shard.replica_set();
                let member = rs.member_count() - 1;
                rs.crash_member(member);
                nap(stop, duration / 12);
                if let Err(e) = rs.restart_member(member) {
                    eprintln!("[rolling_restart] restart on {} failed: {e}", shard.name());
                }
                nap(stop, duration / 12);
            }
        }
    }
}

// ----- report ----------------------------------------------------------

/// The full reconfiguration report (`reports/BENCH_reconfig.json`).
#[derive(Clone, Debug, Default)]
pub struct ReconfigReport {
    pub seed: u64,
    pub threads: usize,
    pub duration_s: f64,
    pub scenarios: Vec<ScenarioResult>,
}

impl ReconfigReport {
    /// Total validation errors across every scenario — the number CI
    /// gates on, after the report is written.
    pub fn validation_errors(&self) -> usize {
        self.scenarios.iter().map(|s| s.validation_errors).sum()
    }

    /// The gates a run must pass before its report is written: all four
    /// scenarios present, each with an interval curve and at least one
    /// validated row.
    pub fn check(&self) -> std::result::Result<(), String> {
        for want in ReconfigScenario::ALL {
            if !self.scenarios.iter().any(|s| s.scenario == want.name()) {
                return Err(format!("scenario '{}' missing from report", want.name()));
            }
        }
        for sc in &self.scenarios {
            if sc.intervals.is_empty() {
                return Err(format!("scenario '{}' has an empty interval curve", sc.scenario));
            }
            if sc.validated_rows < 1 {
                return Err(format!("scenario '{}' validated no rows", sc.scenario));
            }
        }
        Ok(())
    }

    /// The `doclite-reconfig/v1` document.
    pub fn to_json(&self) -> Json {
        let scenarios = self.scenarios.iter().map(|sc| {
            let intervals = sc.intervals.iter().map(|iv| {
                Json::obj([
                    ("t_s", Json::rounded(iv.t_s, 3)),
                    ("ops", iv.ops.into()),
                    ("errors", iv.errors.into()),
                    ("throughput_ops_s", Json::rounded(iv.throughput_ops_s, 3)),
                    ("p99_us", Json::rounded(iv.p99_us, 3)),
                ])
            });
            Json::obj([
                ("scenario", sc.scenario.as_str().into()),
                ("threads", sc.threads.into()),
                ("ops", sc.ops.into()),
                ("errors", sc.errors.into()),
                ("elapsed_s", Json::rounded(sc.elapsed_s, 3)),
                ("throughput_ops_s", Json::rounded(sc.throughput_ops_s, 3)),
                ("p99_us", Json::rounded(sc.p99_us, 3)),
                ("validated_rows", sc.validated_rows.into()),
                ("validation_errors", sc.validation_errors.into()),
                ("intervals", Json::Arr(intervals.collect())),
            ])
        });
        Json::obj([
            ("schema", RECONFIG_SCHEMA.into()),
            ("seed", self.seed.into()),
            ("threads", self.threads.into()),
            ("duration_s", Json::rounded(self.duration_s, 3)),
            ("scenarios", Json::Arr(scenarios.collect())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_docs_are_deterministic_and_distinct() {
        let a = derive_sale_doc(7, 42);
        let b = derive_sale_doc(7, 42);
        assert_eq!(encode_document(&a), encode_document(&b));
        assert_ne!(
            encode_document(&derive_sale_doc(7, 43)),
            encode_document(&a),
            "neighboring tickets must differ"
        );
        assert_ne!(
            encode_document(&derive_sale_doc(8, 42)),
            encode_document(&a),
            "different seeds must differ"
        );
        assert_eq!(a.get("_id").and_then(|v| v.as_i64()), Some(42));
    }

    fn tiny_cfg() -> ReconfigConfig {
        ReconfigConfig {
            threads: 2,
            duration: Duration::from_millis(250),
            interval: Duration::from_millis(50),
            preload: 150,
            max_tickets: 4_000,
            ..ReconfigConfig::default()
        }
    }

    #[test]
    fn add_shard_scenario_validates_clean() {
        let r = run_scenario(ReconfigScenario::AddShard, &tiny_cfg());
        assert_eq!(r.validation_errors, 0, "{r:?}");
        assert!(r.validated_rows >= 150);
        assert!(!r.intervals.is_empty());
    }

    #[test]
    fn drain_remove_scenario_validates_clean() {
        let r = run_scenario(ReconfigScenario::DrainRemove, &tiny_cfg());
        assert_eq!(r.validation_errors, 0, "{r:?}");
    }

    #[test]
    fn live_rebalance_scenario_validates_clean() {
        let r = run_scenario(ReconfigScenario::LiveRebalance, &tiny_cfg());
        assert_eq!(r.validation_errors, 0, "{r:?}");
    }

    #[test]
    fn rolling_restart_scenario_validates_clean() {
        let r = run_scenario(ReconfigScenario::RollingRestart, &tiny_cfg());
        assert_eq!(r.validation_errors, 0, "{r:?}");
    }

    fn fake_result(name: &str) -> ScenarioResult {
        ScenarioResult {
            scenario: name.into(),
            threads: 2,
            ops: 100,
            errors: 0,
            elapsed_s: 0.3,
            throughput_ops_s: 333.0,
            p99_us: 50.0,
            intervals: vec![IntervalStat {
                t_s: 0.1,
                ops: 40,
                errors: 0,
                throughput_ops_s: 400.0,
                p99_us: 45.0,
            }],
            validated_rows: 90,
            validation_errors: 0,
        }
    }

    fn full_report() -> ReconfigReport {
        ReconfigReport {
            seed: 1,
            threads: 2,
            duration_s: 0.3,
            scenarios: ReconfigScenario::ALL
                .iter()
                .map(|s| fake_result(s.name()))
                .collect(),
        }
    }

    #[test]
    fn a_full_reconfig_report_passes_its_checks_and_reads_back() {
        let r = full_report();
        r.check().unwrap();
        let json = r.to_json();
        assert_eq!(crate::report::parse_json(&json.render()), Ok(json.clone()));
        assert_eq!(json.get("schema").and_then(Json::as_str), Some(RECONFIG_SCHEMA));
    }

    #[test]
    fn reconfig_check_rejects_missing_scenario() {
        let mut r = full_report();
        r.scenarios.retain(|s| s.scenario != "drain_remove");
        let err = r.check().unwrap_err();
        assert!(err.contains("drain_remove"), "{err}");
    }

    #[test]
    fn reconfig_check_rejects_empty_intervals_and_zero_rows() {
        let mut r = full_report();
        r.scenarios[0].intervals.clear();
        assert!(r.check().unwrap_err().contains("empty interval curve"));
        let mut r = full_report();
        r.scenarios[1].validated_rows = 0;
        assert!(r.check().unwrap_err().contains("validated no rows"));
    }
}
