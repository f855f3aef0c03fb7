//! The stress report binary: runs the workload matrix
//! (workload × deployment × thread count, max-throughput plus a
//! fixed-rate cell per deployment) and writes
//! `reports/BENCH_stress.json`.
//!
//! Knobs (environment variables):
//!
//! * `DOCLITE_STRESS_SMOKE=1` — CI smoke: tiny scale factor, short
//!   windows, thread counts {1, 2, 4}.
//! * `DOCLITE_STRESS_SF` — dataset scale factor (default 0.002; smoke
//!   0.001).
//! * `DOCLITE_STRESS_SECS` — measured seconds per cell (default 1.2;
//!   smoke 0.3).
//! * `DOCLITE_STRESS_SEED` — root RNG seed (default 53441).
//! * `DOCLITE_STRESS_REQUIRE_SCALING=1` — fail (exit 1) if the
//!   standalone read-only max-throughput scaling from 1 to 4 threads
//!   comes in under 1.5×. Only enforced when the machine actually has
//!   ≥ 4 cores; on smaller runners the gate logs and passes, because a
//!   single core cannot overlap anything.
//!
//! The sharded deployment runs with the paper's LAN model in *sleeping*
//! mode, so router↔shard exchanges block the worker the way real network
//! round-trips block a driver thread — that blocking is what concurrency
//! overlaps, and the read-only scaling cells measure exactly that.

use doclite_core::{Deployment, SetupOptions};
use doclite_sharding::NetworkModel;
use doclite_stress::{
    run_stress, validate_report, CellResult, OpMix, RateMode, Scaling, StressConfig, StressEnv,
    StressReport,
};
use std::time::Duration;

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_flag(name: &str) -> bool {
    std::env::var(name).map(|v| v == "1").unwrap_or(false)
}

fn deployment_label(d: Deployment) -> &'static str {
    match d {
        Deployment::Standalone => "standalone",
        Deployment::Sharded => "sharded",
    }
}

fn main() {
    let smoke = env_flag("DOCLITE_STRESS_SMOKE");
    let sf = env_f64("DOCLITE_STRESS_SF", if smoke { 0.001 } else { 0.002 });
    let secs = env_f64("DOCLITE_STRESS_SECS", if smoke { 0.3 } else { 1.2 });
    let seed = env_f64("DOCLITE_STRESS_SEED", 53441.0) as u64;
    let thread_counts: Vec<usize> = if smoke { vec![1, 2, 4] } else { vec![1, 2, 4, 8] };
    let warmup = Duration::from_secs_f64((secs * 0.25).max(0.05));
    let duration = Duration::from_secs_f64(secs);

    let mut report = StressReport {
        sf,
        thread_counts: thread_counts.clone(),
        ..StressReport::default()
    };

    for deployment in [Deployment::Standalone, Deployment::Sharded] {
        let dep = deployment_label(deployment);
        eprintln!("== {dep}: loading TPC-DS workload tables at SF {sf} ==");
        let opts = SetupOptions {
            // Sleeping LAN: exchanges cost real wall time per leg, as on
            // the paper's EC2 cluster (standalone ignores the model).
            network: NetworkModel::lan().sleeping(),
            max_chunk_size: 256 * 1024,
            ..SetupOptions::default()
        };
        let env = StressEnv::setup(deployment, sf, &opts)
            .unwrap_or_else(|e| panic!("setup {dep} failed: {e}"));

        let mixes: Vec<OpMix> = if smoke {
            vec![OpMix::read_only(), OpMix::mixed()]
        } else {
            vec![OpMix::read_only(), OpMix::mixed(), OpMix::analytical()]
        };
        let mut read_only_throughput: Vec<(usize, f64)> = Vec::new();
        for mix in &mixes {
            for &threads in &thread_counts {
                let workload = env.workload(mix.clone());
                let cfg = StressConfig {
                    threads,
                    mode: RateMode::MaxThroughput,
                    warmup,
                    duration,
                    max_ops: None,
                    seed,
                    progress: !smoke,
                };
                let r = run_stress(&workload, &cfg);
                eprintln!("[{dep:>10}/{:<10} t={threads}] {}", mix.name(), r.summary());
                if mix.name() == "read_only" {
                    read_only_throughput.push((threads, r.throughput()));
                }
                report.cells.push(CellResult::from_run(
                    mix.name(),
                    dep,
                    threads,
                    "max",
                    &r,
                ));
            }
        }

        // One fixed-rate cell per deployment: read-only at ~25% of the
        // measured max throughput on the highest thread count, with
        // coordinated-omission-corrected recording.
        if let Some(&(threads, max_tp)) = read_only_throughput.last() {
            let rate = (max_tp * 0.25).max(50.0);
            let mode = RateMode::FixedRate(rate);
            let workload = env.workload(OpMix::read_only());
            let cfg = StressConfig {
                threads,
                mode,
                warmup,
                duration,
                max_ops: None,
                seed,
                progress: false,
            };
            let r = run_stress(&workload, &cfg);
            eprintln!("[{dep:>10}/read_only  t={threads}] {} ({})", r.summary(), mode.label());
            report
                .cells
                .push(CellResult::from_run("read_only", dep, threads, &mode.label(), &r));
        }

        // Read-only max-throughput scaling from the lowest thread count
        // to 4 (or the highest measured).
        let lo = read_only_throughput.first().copied();
        let hi = read_only_throughput
            .iter()
            .find(|(t, _)| *t == 4)
            .or(read_only_throughput.last())
            .copied();
        if let (Some((t_lo, tp_lo)), Some((t_hi, tp_hi))) = (lo, hi) {
            if t_hi > t_lo && tp_lo > 0.0 {
                let ratio = tp_hi / tp_lo;
                eprintln!(
                    "[{dep:>10}] read_only scaling {t_lo}->{t_hi} threads: {ratio:.2}x"
                );
                report.scaling.push(Scaling {
                    workload: "read_only".into(),
                    deployment: dep.into(),
                    threads_lo: t_lo,
                    threads_hi: t_hi,
                    ratio,
                });
            }
        }
    }

    let json = report.to_json();
    validate_report(&json).expect("emitted report must satisfy its own schema");

    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports");
    std::fs::create_dir_all(dir).expect("create reports dir");
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../reports/BENCH_stress.json"
    );
    std::fs::write(path, &json).expect("write report");
    println!("wrote {path}");
    println!("{json}");

    // Optional scaling gate (report is written first so a failing run
    // still leaves its evidence behind): standalone read-only must reach
    // 1.5× going 1 → 4 threads. A box without 4 cores cannot overlap
    // 4 threads of CPU-bound work, so the gate only arms there.
    if env_flag("DOCLITE_STRESS_REQUIRE_SCALING") {
        let cores = std::thread::available_parallelism().map(usize::from).unwrap_or(1);
        let cell = report
            .scaling
            .iter()
            .find(|s| s.deployment == "standalone" && s.workload == "read_only");
        match cell {
            Some(s) if cores >= 4 => {
                eprintln!(
                    "scaling gate: standalone read_only {}->{} threads = {:.2}x \
                     (cores={cores}, require >= 1.50x)",
                    s.threads_lo, s.threads_hi, s.ratio
                );
                if s.ratio < 1.5 {
                    eprintln!("scaling gate FAILED");
                    std::process::exit(1);
                }
            }
            Some(s) => eprintln!(
                "scaling gate skipped: only {cores} core(s) available \
                 (measured {:.2}x {}->{})",
                s.ratio, s.threads_lo, s.threads_hi
            ),
            None => {
                eprintln!("scaling gate FAILED: no standalone read_only scaling cell");
                std::process::exit(1);
            }
        }
    }
}
