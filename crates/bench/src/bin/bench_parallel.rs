//! Ablation 10: morsel-driven parallel execution — throughput vs worker
//! count and morsel size.
//!
//! Sweeps `agg::run_parallel(docs, stages, source, workers, morsel)` —
//! a pure function no driver calls yet; this sweep is the evidence a
//! planner cost rule for the exchange will have to cite — over
//! `workers × morsel_size` on two analytical shapes (a Q7-style grouped
//! aggregation and a top-k `$sort` + `$limit`), against the serial
//! streaming executor over the same borrowed documents as the 1.0×
//! baseline. Written to `reports/BENCH_parallel.json` and
//! schema-validated before exit, like the other report binaries.
//!
//! On a single-core box the pool degrades to inline execution and every
//! ratio flattens to ~1.0×; the report records
//! `available_parallelism` so readers can tell a flat sweep from a
//! broken one. `DOCLITE_PARALLEL_SMOKE=1` shrinks the dataset and rep
//! count for CI.

use doclite_bson::{doc, Document};
use doclite_docstore::agg::run_parallel;
use doclite_docstore::agg::stream::{run_streaming, DocStream};
use doclite_docstore::{Accumulator, Expr, Filter, GroupId, Pipeline};
use doclite_stress::report::{parse_json, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag the validator pins.
const SCHEMA: &str = "doclite-parallel/v1";

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const MORSEL_SWEEP: [usize; 3] = [256, 1024, 4096];

fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn bench_docs(n: i64) -> Vec<Document> {
    (0..n)
        .map(|i| doc! {"_id" => i, "k" => i % 3000, "grp" => i % 100, "v" => (i * 7 % 1000) as f64})
        .collect()
}

struct Shape {
    name: &'static str,
    pipeline: Pipeline,
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape {
            name: "group_q7",
            pipeline: Pipeline::new()
                .match_stage(Filter::gte("v", 100.0))
                .group(
                    GroupId::Expr(Expr::field("k")),
                    [("avg_v", Accumulator::avg_field("v")), ("n", Accumulator::count())],
                )
                .sort([("_id", 1)])
                .limit(100),
        },
        Shape {
            name: "topk_sort",
            pipeline: Pipeline::new()
                .match_stage(Filter::gte("v", 100.0))
                .sort([("v", -1), ("_id", 1)])
                .limit(50),
        },
    ]
}

fn main() {
    let smoke = std::env::var("DOCLITE_PARALLEL_SMOKE").map(|v| v == "1").unwrap_or(false);
    let reps = if smoke { 2 } else { 5 };
    let n: i64 = if smoke { 20_000 } else { 200_000 };
    let cores = doclite_docstore::parallel_workers();

    let docs = bench_docs(n);
    let refs: Vec<&Document> = docs.iter().collect();

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"docs\": {n},");

    let shapes = shapes();
    for (si, shape) in shapes.iter().enumerate() {
        // Serial streaming is the 1.0× baseline every cell normalizes to.
        let stages = shape.pipeline.stages();
        let serial = || run_streaming(DocStream::from_slice(&docs), stages, None).unwrap();
        let expected = serial();
        let serial_s = best_of(reps, serial);

        let _ = writeln!(json, "  \"{}\": {{", shape.name);
        let _ = writeln!(json, "    \"serial_s\": {serial_s:.6},");
        let _ = writeln!(json, "    \"cells\": [");
        let total = WORKER_SWEEP.len() * MORSEL_SWEEP.len();
        let mut cell = 0usize;
        for workers in WORKER_SWEEP {
            for morsel in MORSEL_SWEEP {
                let parallel = || run_parallel(&refs, stages, None, workers, morsel).unwrap();
                assert_eq!(parallel(), expected, "{}: parallel result diverged", shape.name);
                let s = best_of(reps, parallel);
                cell += 1;
                let _ = writeln!(
                    json,
                    "      {{\"workers\": {workers}, \"morsel\": {morsel}, \
                     \"parallel_s\": {s:.6}, \"speedup\": {:.2}}}{}",
                    serial_s / s,
                    if cell == total { "" } else { "," }
                );
            }
        }
        let _ = writeln!(json, "    ]");
        let _ = writeln!(json, "  }}{}", if si + 1 == shapes.len() { "" } else { "," });
    }
    json.push_str("}\n");

    validate_report(&json).expect("BENCH_parallel.json schema");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/BENCH_parallel.json");
    std::fs::write(path, &json).expect("write report");
    println!("{json}");
    println!("wrote {path}");
}

/// Validates the emitted report: schema tag, both shapes present, every
/// sweep cell with positive finite timings.
fn validate_report(text: &str) -> Result<(), String> {
    let root = parse_json(text)?;
    if root.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema tag must be '{SCHEMA}'"));
    }
    match root.get("mode").and_then(Json::as_str) {
        Some("smoke") | Some("full") => {}
        other => return Err(format!("'mode' must be smoke|full, got {other:?}")),
    }
    for key in ["available_parallelism", "docs"] {
        let v = root.get(key).and_then(Json::as_num).ok_or(format!("'{key}' missing"))?;
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("'{key}' must be positive, got {v}"));
        }
    }
    for shape in ["group_q7", "topk_sort"] {
        let section = root.get(shape).ok_or(format!("'{shape}' section missing"))?;
        let serial = section
            .get("serial_s")
            .and_then(Json::as_num)
            .ok_or(format!("'{shape}.serial_s' missing"))?;
        if !(serial.is_finite() && serial > 0.0) {
            return Err(format!("'{shape}.serial_s' must be positive"));
        }
        let cells = match section.get("cells") {
            Some(Json::Arr(cells)) => cells,
            _ => return Err(format!("'{shape}.cells' must be an array")),
        };
        if cells.len() != WORKER_SWEEP.len() * MORSEL_SWEEP.len() {
            return Err(format!(
                "'{shape}.cells' must have {} entries, got {}",
                WORKER_SWEEP.len() * MORSEL_SWEEP.len(),
                cells.len()
            ));
        }
        for (i, cell) in cells.iter().enumerate() {
            for key in ["workers", "morsel", "parallel_s", "speedup"] {
                let v = cell
                    .get(key)
                    .and_then(Json::as_num)
                    .ok_or(format!("'{shape}.cells[{i}].{key}' missing"))?;
                if !(v.is_finite() && v > 0.0) {
                    return Err(format!("'{shape}.cells[{i}].{key}' must be positive, got {v}"));
                }
            }
        }
    }
    Ok(())
}
