//! The materialized-view stress binary: seeded writers churn a sales
//! collection while a refresher maintains a Q7-shaped incremental view,
//! then quiesced drills check divergence, checkpoint-truncation
//! fallback, and idle heartbeats. Writes `reports/BENCH_views.json` once
//! the run passes `ViewsReport::check` (no view-vs-recompute divergence,
//! both drills ran) and exits non-zero otherwise, or when the view's
//! read speedup over recomputation falls below 10x.
//!
//! Knobs (environment variables):
//!
//! * `DOCLITE_STRESS_VIEWS=1` — CI smoke scale: shorter window, smaller
//!   preload.
//! * `DOCLITE_VIEWS_SECS` — concurrent seconds (default 1.5; smoke 0.5).
//! * `DOCLITE_VIEWS_THREADS` — writer threads (default 4).
//! * `DOCLITE_VIEWS_SEED` — root seed (default 424242).
//! * `DOCLITE_VIEWS_DIST` — category-key skew spec (default
//!   `gaussian(0..50)`; also accepts `uniform(a..b)`, `seq(a..b)`,
//!   `fixed(n)`).
//! * `DOCLITE_VIEWS_MAX_WRITES` — hard cap on concurrent-phase writes
//!   (default 300000; smoke 100000) bounding the WAL and final drain.

use doclite_stress::report::write_report;
use doclite_stress::{run_views, ViewsConfig};
use std::time::Duration;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let smoke = std::env::var("DOCLITE_STRESS_VIEWS").map(|v| v == "1").unwrap_or(false);
    let secs = env_f64("DOCLITE_VIEWS_SECS", if smoke { 0.5 } else { 1.5 });
    let cfg = ViewsConfig {
        threads: env_f64("DOCLITE_VIEWS_THREADS", 4.0) as usize,
        duration: Duration::from_secs_f64(secs),
        seed: env_f64("DOCLITE_VIEWS_SEED", 424_242.0) as u64,
        preload: if smoke { 5_000 } else { 20_000 },
        key_dist: std::env::var("DOCLITE_VIEWS_DIST")
            .unwrap_or_else(|_| "gaussian(0..50)".into()),
        max_writes: env_f64(
            "DOCLITE_VIEWS_MAX_WRITES",
            if smoke { 100_000.0 } else { 300_000.0 },
        ) as u64,
    };

    let report = run_views(&cfg);
    eprintln!(
        "{} writes  {} frames applied  {} full rebuilds  {} groups recomputed  \
         staleness max {} frames",
        report.writes,
        report.frames_applied,
        report.full_rebuilds,
        report.groups_recomputed,
        report.staleness_max_frames,
    );
    eprintln!(
        "view read p50 {}us p99 {}us mean {:.1}us | recompute p50 {}us p99 {}us mean {:.1}us \
         | speedup {:.1}x | {} divergences",
        report.view_read_p50_us,
        report.view_read_p99_us,
        report.view_read_mean_us,
        report.recompute_p50_us,
        report.recompute_p99_us,
        report.recompute_mean_us,
        report.speedup_mean,
        report.divergences,
    );

    report.check().expect("BENCH_views.json gates");
    write_report("BENCH_views.json", &report.to_json());

    if report.speedup_mean < 10.0 {
        eprintln!(
            "FAILED: view read speedup {:.1}x is below the 10x acceptance bar",
            report.speedup_mean
        );
        std::process::exit(1);
    }
    eprintln!("view stayed convergent; reads {:.1}x faster than recompute", report.speedup_mean);
}
