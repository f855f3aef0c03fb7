//! Materialized-view stress: seeded writer threads churn a sales
//! collection (key skew chosen by a [`Distribution`] spec) while a
//! refresher keeps a Q7-shaped incremental view current and a sampler
//! times view reads against full pipeline recomputes.
//!
//! The run ends with three quiesced drills:
//!
//! 1. **Divergence sweep** — the view's materialization must equal a
//!    fresh `aggregate` of the registered pipeline, byte for byte.
//! 2. **Truncation drill** — shrink the change buffer, checkpoint, and
//!    write past the cursor: the view must detect the truncated resume
//!    token, fall back to a full rebuild, and converge again.
//! 3. **Heartbeat drill** — with writers idle, `heartbeat_on_idle`
//!    must advance the staleness watermark to the log tip.
//!
//! `divergences == 0` and `speedup_mean >= 10` are the acceptance bar
//! (EXPERIMENTS.md ablation 13).

use crate::dist::Distribution;
use crate::driver::worker_seed;
use crate::hist::LogHistogram;
use crate::report::Json;
use doclite_bson::{doc, Document};
use doclite_docstore::wal::{DurableDb, SyncPolicy, WalOptions};
use doclite_docstore::{
    Accumulator, Expr, Filter, GroupId, Pipeline, UpdateSpec, ViewSet,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Schema tag of the views report.
pub const VIEWS_SCHEMA: &str = "doclite-views/v1";

/// The view under test, shaped like the thesis's Q7: filter, group by
/// category, revenue / row count / average quantity, ordered output.
fn q7_pipeline() -> Pipeline {
    Pipeline::new()
        .match_stage(Filter::gte("qty", 0i64))
        .group(
            GroupId::Expr(Expr::field("cat")),
            [
                ("revenue_cents", Accumulator::sum_field("price_cents")),
                ("n", Accumulator::count()),
                ("avg_qty", Accumulator::avg_field("qty")),
            ],
        )
        .sort([("_id", 1)])
}

/// The document for id `i` with category key `cat`. All numerics are
/// integers (cents), so incremental retraction is exact.
fn sale_doc(i: i64, cat: i64, rng: &mut SmallRng) -> Document {
    doc! {
        "_id" => i,
        "cat" => format!("c{cat}"),
        "price_cents" => rng.random_range(0..100_000i64),
        "qty" => rng.random_range(0..100i64),
    }
}

/// Knobs for one run.
#[derive(Clone, Debug)]
pub struct ViewsConfig {
    /// Writer threads.
    pub threads: usize,
    /// Wall-clock length of the concurrent phase.
    pub duration: Duration,
    /// Root seed (documents, op mixing, key skew).
    pub seed: u64,
    /// Documents inserted before the clock starts — also the recompute
    /// baseline's scan size.
    pub preload: i64,
    /// Category-key skew, as a [`Distribution`] spec
    /// (e.g. `gaussian(0..50)`).
    pub key_dist: String,
    /// Hard cap on concurrent-phase writes, across all threads. Bounds
    /// the final quiesced drain (and the WAL) even when writers outrun
    /// the applier for the whole window.
    pub max_writes: u64,
}

impl Default for ViewsConfig {
    fn default() -> Self {
        ViewsConfig {
            threads: 4,
            duration: Duration::from_millis(1500),
            seed: 42_4242,
            preload: 20_000,
            key_dist: "gaussian(0..50)".into(),
            max_writes: 300_000,
        }
    }
}

/// What one run measured.
#[derive(Clone, Debug, Default)]
pub struct ViewsReport {
    pub seed: u64,
    pub threads: usize,
    pub duration_s: f64,
    pub key_dist: String,
    pub preload: i64,
    /// Writes acknowledged during the concurrent phase.
    pub writes: u64,
    /// Refresher totals across the whole run.
    pub frames_applied: u64,
    pub full_rebuilds: u64,
    pub groups_recomputed: u64,
    pub heartbeats: u64,
    /// Worst watermark lag (frames) a sampled read observed.
    pub staleness_max_frames: u64,
    /// Groups in the final materialization.
    pub view_groups: usize,
    pub view_read_p50_us: u64,
    pub view_read_p99_us: u64,
    pub view_read_mean_us: f64,
    pub recompute_p50_us: u64,
    pub recompute_p99_us: u64,
    pub recompute_mean_us: f64,
    /// recompute_mean / view_read_mean.
    pub speedup_mean: f64,
    /// View-vs-recompute mismatches across all sweeps. Must be zero.
    pub divergences: u64,
}

impl ViewsReport {
    /// The gates a run must pass before its report is written: no
    /// divergence, and both drills ran — the heartbeat drill sent a
    /// heartbeat and the truncation drill forced a full rebuild.
    pub fn check(&self) -> std::result::Result<(), String> {
        if self.divergences != 0 {
            return Err(format!("view diverged from recompute {} time(s)", self.divergences));
        }
        if self.heartbeats < 1 {
            return Err("heartbeat drill did not run".into());
        }
        if self.full_rebuilds < 1 {
            return Err("truncation drill did not force a rebuild".into());
        }
        Ok(())
    }

    /// The `doclite-views/v1` document.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("schema", VIEWS_SCHEMA.into()),
            ("seed", self.seed.into()),
            ("threads", self.threads.into()),
            ("duration_s", self.duration_s.into()),
            ("key_dist", self.key_dist.as_str().into()),
            ("preload", self.preload.into()),
            ("writes", self.writes.into()),
            ("frames_applied", self.frames_applied.into()),
            ("full_rebuilds", self.full_rebuilds.into()),
            ("groups_recomputed", self.groups_recomputed.into()),
            ("heartbeats", self.heartbeats.into()),
            ("staleness_max_frames", self.staleness_max_frames.into()),
            ("view_groups", self.view_groups.into()),
            ("view_read_p50_us", self.view_read_p50_us.into()),
            ("view_read_p99_us", self.view_read_p99_us.into()),
            ("view_read_mean_us", Json::rounded(self.view_read_mean_us, 3)),
            ("recompute_p50_us", self.recompute_p50_us.into()),
            ("recompute_p99_us", self.recompute_p99_us.into()),
            ("recompute_mean_us", Json::rounded(self.recompute_mean_us, 3)),
            ("speedup_mean", Json::rounded(self.speedup_mean, 2)),
            ("divergences", self.divergences.into()),
        ])
    }
}

/// Compares the view's served snapshot against a fresh pipeline
/// execution; returns the number of differing positions.
fn divergence_count(ddb: &DurableDb, views: &ViewSet, name: &str) -> u64 {
    let (source, pipeline) = views.pipeline(name).expect("view exists");
    let fresh = ddb.db().aggregate(&source, &pipeline).expect("recompute");
    let (served, _) = views.read(name).expect("view read");
    if *served == fresh {
        return 0;
    }
    let max = served.len().max(fresh.len());
    let mut bad = 0;
    for i in 0..max {
        if served.get(i) != fresh.get(i) {
            bad += 1;
        }
    }
    bad.max(1)
}

/// Runs the workload end to end. Uses a throwaway on-disk directory
/// (WAL-backed store); the directory is removed afterwards.
pub fn run_views(cfg: &ViewsConfig) -> ViewsReport {
    let dir = std::env::temp_dir().join(format!(
        "doclite-stress-views-{}-{}",
        std::process::id(),
        cfg.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let (ddb, _) = DurableDb::open(
        "views",
        &dir,
        WalOptions { sync: SyncPolicy::Never, faults: None },
    )
    .expect("open durable store");
    let key_dist = Distribution::parse(&cfg.key_dist).expect("key_dist spec");

    let sales = ddb.db().collection("sales");
    let mut seed_rng = SmallRng::seed_from_u64(cfg.seed);
    let preload_docs: Vec<Document> = (0..cfg.preload)
        .map(|i| sale_doc(i, key_dist.sample(&mut seed_rng), &mut seed_rng))
        .collect();
    sales.insert_many(preload_docs).expect("preload");

    let views = ViewSet::for_durable(&ddb).expect("view set");
    views
        .create_view("q7", "sales", q7_pipeline())
        .expect("create view");

    let mut report = ViewsReport {
        seed: cfg.seed,
        threads: cfg.threads,
        duration_s: cfg.duration.as_secs_f64(),
        key_dist: key_dist.spec(),
        preload: cfg.preload,
        ..ViewsReport::default()
    };

    let stop = AtomicBool::new(false);
    let next_id = AtomicI64::new(cfg.preload);
    let tickets = AtomicU64::new(0);
    let writes = AtomicU64::new(0);
    let refresh_frames = AtomicU64::new(0);
    let refresh_rebuilds = AtomicU64::new(0);
    let refresh_recomputed = AtomicU64::new(0);
    let staleness_max = AtomicU64::new(0);
    let view_hist = LogHistogram::new();
    let recompute_hist = LogHistogram::new();

    std::thread::scope(|scope| {
        for w in 0..cfg.threads {
            let sales = &sales;
            let stop = &stop;
            let next_id = &next_id;
            let tickets = &tickets;
            let writes = &writes;
            let key_dist = &key_dist;
            let seed = worker_seed(cfg.seed, w);
            let max_writes = cfg.max_writes;
            scope.spawn(move || {
                let mut rng = SmallRng::seed_from_u64(seed);
                while !stop.load(Ordering::Relaxed) {
                    // Claim a write ticket first: the cap bounds the WAL
                    // (and the final quiesced drain) no matter how far
                    // the writers outrun the applier.
                    if tickets.fetch_add(1, Ordering::Relaxed) >= max_writes {
                        break;
                    }
                    let roll: u32 = rng.random_range(0..100u32);
                    let hi = next_id.load(Ordering::Relaxed);
                    if roll < 70 || hi == 0 {
                        let id = next_id.fetch_add(1, Ordering::Relaxed);
                        let cat = key_dist.sample(&mut rng);
                        let _ = sales.insert_one(sale_doc(id, cat, &mut rng));
                    } else if roll < 85 {
                        let id = rng.random_range(0..hi);
                        let _ = sales.update(
                            &Filter::eq("_id", id),
                            &UpdateSpec::set("price_cents", rng.random_range(0..100_000i64)),
                            false,
                            false,
                        );
                    } else {
                        let id = rng.random_range(0..hi);
                        sales.delete_many(&Filter::eq("_id", id));
                    }
                    writes.fetch_add(1, Ordering::Relaxed);
                }
            });
        }

        // The refresher: keeps the view current and tracks staleness.
        {
            let views = &views;
            let stop = &stop;
            let (frames, rebuilds, recomputed, stale) = (
                &refresh_frames,
                &refresh_rebuilds,
                &refresh_recomputed,
                &staleness_max,
            );
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let s = views.refresh().expect("refresh");
                    frames.fetch_add(s.frames_applied, Ordering::Relaxed);
                    rebuilds.fetch_add(s.full_rebuilds, Ordering::Relaxed);
                    recomputed.fetch_add(s.groups_recomputed, Ordering::Relaxed);
                    let lag = views.staleness("q7").expect("staleness");
                    stale.fetch_max(lag, Ordering::Relaxed);
                    std::thread::sleep(Duration::from_micros(200));
                }
            });
        }

        // The stop controller: ends the run on wall-clock alone, so
        // stopping never waits on threads parked behind the view mutex.
        {
            let stop = &stop;
            let duration = cfg.duration;
            scope.spawn(move || {
                std::thread::sleep(duration);
                stop.store(true, Ordering::Relaxed);
            });
        }

        // The sampler (this thread): view read vs full recompute.
        let deadline = Instant::now() + cfg.duration;
        let pipeline = q7_pipeline();
        while Instant::now() < deadline && !stop.load(Ordering::Relaxed) {
            let t = Instant::now();
            let (snapshot, _) = views.read("q7").expect("view read");
            std::hint::black_box(snapshot.len());
            view_hist.record(t.elapsed().as_micros() as u64);

            let t = Instant::now();
            let fresh = ddb.db().aggregate("sales", &pipeline).expect("recompute");
            std::hint::black_box(fresh.len());
            recompute_hist.record(t.elapsed().as_micros() as u64);
            std::thread::sleep(Duration::from_millis(2));
        }
    });

    report.writes = writes.load(Ordering::Relaxed);
    report.staleness_max_frames = staleness_max.load(Ordering::Relaxed);

    let mut frames = refresh_frames.load(Ordering::Relaxed);
    let mut rebuilds = refresh_rebuilds.load(Ordering::Relaxed);
    let mut recomputed = refresh_recomputed.load(Ordering::Relaxed);
    // Each refresh applies a bounded number of frames; quiesced, loop
    // until the cursor is dry before judging convergence.
    let drain_all = |frames: &mut u64, rebuilds: &mut u64, recomputed: &mut u64| loop {
        let s = views.refresh().expect("quiesced refresh");
        *frames += s.frames_applied;
        *rebuilds += s.full_rebuilds;
        *recomputed += s.groups_recomputed;
        if s.frames_applied == 0 {
            return;
        }
    };

    // Drill 1: quiesced divergence sweep.
    drain_all(&mut frames, &mut rebuilds, &mut recomputed);
    report.divergences += divergence_count(&ddb, &views, "q7");

    // Drill 2: checkpoint truncation must force a clean full rebuild.
    ddb.wal().set_change_capacity(4);
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xDEAD);
    for _ in 0..64 {
        let id = next_id.fetch_add(1, Ordering::Relaxed);
        let cat = key_dist.sample(&mut rng);
        sales.insert_one(sale_doc(id, cat, &mut rng)).expect("drill insert");
    }
    ddb.checkpoint().expect("checkpoint");
    drain_all(&mut frames, &mut rebuilds, &mut recomputed);
    report.divergences += divergence_count(&ddb, &views, "q7");

    // Drill 3: idle heartbeat advances the watermark to the tip.
    views.set_heartbeat_on_idle(true);
    let s = views.refresh().expect("heartbeat refresh");
    report.heartbeats = s.heartbeats;
    frames += s.frames_applied;
    if views.staleness("q7").expect("staleness") != 0 {
        report.divergences += 1;
    }

    report.frames_applied = frames;
    report.full_rebuilds = rebuilds;
    report.groups_recomputed = recomputed;
    report.view_groups = views.read("q7").expect("view read").0.len();
    report.view_read_p50_us = view_hist.percentile(50.0);
    report.view_read_p99_us = view_hist.percentile(99.0);
    report.view_read_mean_us = view_hist.mean();
    report.recompute_p50_us = recompute_hist.percentile(50.0);
    report.recompute_p99_us = recompute_hist.percentile(99.0);
    report.recompute_mean_us = recompute_hist.mean();
    report.speedup_mean = if report.view_read_mean_us > 0.0 {
        report.recompute_mean_us / report.view_read_mean_us
    } else {
        report.recompute_mean_us.max(1.0)
    };

    let _ = std::fs::remove_dir_all(&dir);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_run_converges_and_validates() {
        let cfg = ViewsConfig {
            threads: 2,
            duration: Duration::from_millis(250),
            preload: 2_000,
            ..ViewsConfig::default()
        };
        let report = run_views(&cfg);
        assert_eq!(report.divergences, 0);
        assert!(report.writes > 0);
        assert!(report.frames_applied > 0);
        assert!(report.full_rebuilds >= 1, "truncation drill must rebuild");
        assert!(report.heartbeats >= 1);
    }

    #[test]
    fn check_rejects_divergence_and_missing_drills() {
        let mut report = ViewsReport {
            heartbeats: 1,
            full_rebuilds: 1,
            key_dist: "uniform(0..9)".into(),
            ..ViewsReport::default()
        };
        report.check().unwrap();
        let json = report.to_json();
        assert_eq!(crate::report::parse_json(&json.render()), Ok(json));
        report.divergences = 1;
        assert!(report.check().unwrap_err().contains("diverged"));
        report.divergences = 0;
        report.heartbeats = 0;
        assert!(report.check().unwrap_err().contains("heartbeat"));
        report.heartbeats = 1;
        report.full_rebuilds = 0;
        assert!(report.check().unwrap_err().contains("rebuild"));
    }
}
