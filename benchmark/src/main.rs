//! The repo's benchmark. One process runs one workload and prints every
//! metric as `workload metric value unit`, then one JSON result object as
//! its last line; `run.sh` builds this and runs the workloads.

mod fingerprint;
mod matrix;
mod metrics;
mod oltp;
mod probes;
mod setup;
mod stats;
mod suite;
mod sys;
mod trace;

use setup::Deployment;
use std::path::PathBuf;
use std::process::ExitCode;

/// Scale factor of `--smoke` runs.
pub const SMOKE_SF: f64 = 0.002;

/// The three matrix workloads. The normalized pair shares one scale and
/// one seed so their answers can be compared; the scales are what fits
/// three set-ups and ten measured seconds into a twenty-second run.
const MATRIX: [matrix::Spec; 3] = [
    matrix::Spec {
        name: "norm_standalone",
        deployment: Deployment::NormStandalone,
        sf: 0.01,
        warmup: 3,
        min_iterations: 10,
    },
    matrix::Spec {
        name: "norm_sharded",
        deployment: Deployment::NormSharded,
        sf: 0.01,
        warmup: 3,
        min_iterations: 10,
    },
    matrix::Spec {
        name: "denorm_standalone",
        deployment: Deployment::DenormStandalone,
        sf: 0.005,
        warmup: 10,
        min_iterations: 30,
    },
];

/// What one workload run was asked to do.
pub struct Options {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Per-layer metrics from a traced pass, not end-to-end ones.
    pub trace: bool,
    /// Tiny data and iteration counts: checks plumbing, not speed.
    pub smoke: bool,
    /// Where trace files and scratch data go.
    pub out_dir: PathBuf,
}

impl Options {
    /// This process's scratch directory; `main` removes it on exit.
    pub fn scratch_dir(&self) -> PathBuf {
        self.out_dir.join(format!("scratch-{}", std::process::id()))
    }

    /// Writes the spans of a traced pass to `trace-<workload>.json`.
    pub fn write_trace(&self, workload: &str, tracer: &trace::Tracer, settings: &str) {
        let header = format!(
            "{{\"workload\": \"{workload}\", \"seed\": {}, \"smoke\": {}, {settings}, {}}}",
            self.seed,
            self.smoke,
            sys::environment_json()
        );
        let path = self.out_dir.join(format!("trace-{workload}.json"));
        std::fs::create_dir_all(&self.out_dir)
            .and_then(|()| std::fs::write(&path, tracer.to_json(&header)))
            .unwrap_or_else(|e| panic!("cannot write {}: {e}", path.display()));
    }
}

const USAGE: &str = "usage:
  doclite-benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--smoke] [--out DIR]
  doclite-benchmark manifest                  print BENCHMARK.json
  doclite-benchmark check-names <BENCHMARK.json> <run output>...
  doclite-benchmark check-suite <run output>...
  doclite-benchmark summarize <BENCHMARK.json> <run output>...";

fn run_workload(args: &[String]) -> Result<ExitCode, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: 1,
        seconds: metrics::RUN_SECONDS as f64,
        trace: false,
        smoke: false,
        out_dir: PathBuf::from("benchmark/out"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                opts.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => opts.trace = value()? == "1",
            "--out" => opts.out_dir = PathBuf::from(value()?),
            "--smoke" => opts.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }

    let report = match MATRIX.iter().find(|s| s.name == name) {
        Some(spec) => matrix::run(spec, &opts),
        None if name == "oltp_durable" => oltp::run(&opts),
        None => return Err(format!("unknown workload {name}")),
    };
    let _ = std::fs::remove_dir_all(opts.scratch_dir());

    let catalogue = if opts.trace {
        metrics::per_layer()
    } else {
        metrics::end_to_end()
    };
    println!(
        "{name} environment {{{}, \"seconds\": {}, \"trace\": {}}} json",
        sys::environment_json(),
        opts.seconds,
        opts.trace
    );
    print!("{}", report.render(&name, &catalogue));
    let ok = report.failed == 0 && report.problems.is_empty();
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("manifest") => {
            print!("{}", metrics::manifest());
            Ok(ExitCode::SUCCESS)
        }
        Some("check-names") => suite::check_names(&args[1..]),
        Some("check-suite") => suite::check_suite(&args[1..]),
        Some("summarize") => suite::summarize(&args[1..]),
        Some(_) => run_workload(&args),
        None => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|e| {
        eprintln!("doclite-benchmark: {e}\n{USAGE}");
        ExitCode::from(2)
    })
}
