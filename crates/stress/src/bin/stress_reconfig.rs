//! The reconfiguration stress binary: runs all four topology-change
//! scenarios (shard add, drain-remove, live rebalance, rolling
//! crash/restart) under mixed seeded traffic and writes
//! `reports/BENCH_reconfig.json`. Exits non-zero if any scenario
//! reports `validation_errors > 0` — a lost, doubled, or corrupted
//! document anywhere fails the run.
//!
//! Knobs (environment variables):
//!
//! * `DOCLITE_STRESS_RECONFIG=1` — CI smoke scale: short windows and a
//!   lower ticket ceiling.
//! * `DOCLITE_RECONFIG_SECS` — measured seconds per scenario (default
//!   1.5; smoke 0.5).
//! * `DOCLITE_RECONFIG_THREADS` — worker threads (default 4).
//! * `DOCLITE_RECONFIG_SEED` — root seed for document derivation and
//!   op mixing (default 90210).

use doclite_stress::report::write_report;
use doclite_stress::{run_scenario, ReconfigConfig, ReconfigReport, ReconfigScenario};
use std::time::Duration;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let smoke = std::env::var("DOCLITE_STRESS_RECONFIG").map(|v| v == "1").unwrap_or(false);
    let secs = env_f64("DOCLITE_RECONFIG_SECS", if smoke { 0.5 } else { 1.5 });
    let threads = env_f64("DOCLITE_RECONFIG_THREADS", 4.0) as usize;
    let seed = env_f64("DOCLITE_RECONFIG_SEED", 90210.0) as u64;
    let cfg = ReconfigConfig {
        threads,
        duration: Duration::from_secs_f64(secs),
        interval: Duration::from_secs_f64(secs / 8.0),
        seed,
        preload: 400,
        max_tickets: if smoke { 20_000 } else { 60_000 },
        ..ReconfigConfig::default()
    };

    let mut report = ReconfigReport {
        seed,
        threads,
        duration_s: secs,
        ..ReconfigReport::default()
    };
    for scenario in ReconfigScenario::ALL {
        eprintln!("== scenario: {} ==", scenario.name());
        let r = run_scenario(scenario, &cfg);
        eprintln!(
            "[{:>16}] {:>8} ops  {:>9.0} ops/s  p99 {:>9.1}us  {} errors  \
             {} rows validated  {} validation errors",
            r.scenario, r.ops, r.throughput_ops_s, r.p99_us, r.errors, r.validated_rows,
            r.validation_errors
        );
        report.scenarios.push(r);
    }

    report.check().expect("BENCH_reconfig.json gates");
    write_report("BENCH_reconfig.json", &report.to_json());

    let bad = report.validation_errors();
    if bad > 0 {
        eprintln!("FAILED: {bad} validation error(s) across scenarios");
        std::process::exit(1);
    }
    eprintln!("all scenarios validated clean");
}
