//! Ablation 14: plan quality across a selectivity sweep.
//!
//! One Q7-shaped workload (`$match` → `$group` with count/avg) over a
//! collection with a secondary index on the predicate field and a
//! column declared for every path, swept across predicate selectivities
//! from ~0.1% to ~90% of the rows. Per cell: the cost model's row
//! estimate against the measured cardinality, the plan the aggregation
//! driver chose (access path + whether the `$group` ran off the
//! columns), its time, and the time of a plain row scan — the streaming
//! executor over a borrowed slice of the documents, which can see
//! neither the index nor a column — with result equality asserted
//! between the two before timing.
//!
//! The interesting cells are the wide predicates: dragging ~90% of the
//! collection through the index (random fetch order, row-at-a-time)
//! loses to a sequential pass, and the driver, pricing what it will
//! run, takes the covered aggregate there — which is where the ≥2×
//! separation from the row scan comes from.
//!
//! Written to `reports/BENCH_planner.json` and schema-validated before
//! exit. `DOCLITE_PLANNER_SMOKE=1` shrinks the dataset and rep count
//! for CI; the estimation-error gate applies in both modes.

use doclite_bson::{doc, json::to_json, Document};
use doclite_core::selectivity::plan_quality;
use doclite_docstore::agg::stream::{run_streaming, DocStream};
use doclite_docstore::{Accumulator, Collection, Expr, Filter, GroupId, IndexDef, Pipeline};
use doclite_stress::report::{parse_json, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag the validator pins. v2: one planner, so one plan per
/// shape, timed against a function-level row scan.
const SCHEMA: &str = "doclite-planner/v2";

/// CI gate: the cost model's row estimate must stay within this factor
/// of the measured cardinality on every swept shape.
const MAX_EST_ERROR: f64 = 8.0;

/// Full-run gate: the chosen plan may not be slower than the plain row
/// scan beyond this timing-noise allowance.
const NOISE: f64 = 1.3;

fn best_of<R>(n: usize, mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// `k` takes 1000 distinct values uniformly, so `k < c` retrieves c/10
/// percent of the rows; `grp`/`v` feed the `$group`.
fn bench_docs(n: i64) -> Vec<Document> {
    (0..n)
        .map(|i| doc! {"_id" => i, "k" => i % 1000, "grp" => i % 50, "v" => (i * 7 % 100) as f64})
        .collect()
}

struct Shape {
    name: &'static str,
    filter: Filter,
}

fn shapes() -> Vec<Shape> {
    vec![
        Shape { name: "sel_0p1", filter: Filter::eq("k", 7i64) },
        Shape { name: "sel_1", filter: Filter::is_in("k", (0..10i64).collect::<Vec<_>>()) },
        Shape { name: "sel_10", filter: Filter::lt("k", 100i64) },
        Shape { name: "sel_50", filter: Filter::lt("k", 500i64) },
        Shape { name: "sel_90", filter: Filter::lt("k", 900i64) },
    ]
}

/// Canonical order for result-set comparison: group output order is an
/// access-path detail (index order vs slab order), not a contract.
fn canon(mut docs: Vec<Document>) -> Vec<String> {
    let mut v: Vec<String> = docs.drain(..).map(|d| to_json(&d)).collect();
    v.sort();
    v
}

fn main() {
    let smoke = std::env::var("DOCLITE_PLANNER_SMOKE").map(|v| v == "1").unwrap_or(false);
    let reps = if smoke { 3 } else { 7 };
    let n: i64 = if smoke { 40_000 } else { 400_000 };

    let docs = bench_docs(n);
    let coll = Collection::new("bench_planner");
    coll.insert_many(docs.clone()).expect("insert");
    coll.create_index(IndexDef::single("k")).expect("index");
    coll.enable_columnar(["k", "grp", "v"]);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(json, "  \"available_parallelism\": {},", doclite_docstore::parallel_workers());
    let _ = writeln!(json, "  \"docs\": {n},");

    let shapes = shapes();
    let mut max_speedup = 0.0f64;
    let mut violations: Vec<String> = Vec::new();

    for (si, shape) in shapes.iter().enumerate() {
        let pipeline = Pipeline::new().match_stage(shape.filter.clone()).group(
            GroupId::Expr(Expr::field("grp")),
            [("n", Accumulator::count()), ("avg_v", Accumulator::avg_field("v"))],
        );
        let q = plan_quality(&coll, &shape.filter);
        let err = q.error_factor();

        let row = || run_streaming(DocStream::from_slice(&docs), pipeline.stages(), None).unwrap();
        let expected = row();
        let row_s = best_of(reps, row);

        assert_eq!(
            canon(coll.aggregate(&pipeline).unwrap()),
            canon(expected),
            "{}: planned result diverged from the row scan",
            shape.name
        );
        let plan_s = best_of(reps, || coll.aggregate(&pipeline).unwrap());
        let explain = coll.explain_aggregate(&pipeline, None).unwrap();
        let decisions: Vec<&str> =
            explain.stages.iter().filter_map(|st| st.decision.as_deref()).collect();
        let plan = decisions.join(" -> ");

        let speedup = row_s / plan_s;
        max_speedup = max_speedup.max(speedup);
        if plan_s > row_s * NOISE {
            violations.push(format!("{}: plan {plan_s:.6}s vs row scan {row_s:.6}s", shape.name));
        }

        let _ = writeln!(json, "  \"{}\": {{", shape.name);
        let _ = writeln!(json, "    \"est_rows\": {},", q.est_rows);
        let _ = writeln!(json, "    \"actual_rows\": {},", q.actual_rows);
        let _ = writeln!(json, "    \"est_row_error\": {err:.3},");
        let _ = writeln!(json, "    \"plan\": \"{plan}\",");
        let _ = writeln!(json, "    \"row_s\": {row_s:.6},");
        let _ = writeln!(json, "    \"plan_s\": {plan_s:.6},");
        let _ = writeln!(json, "    \"speedup\": {speedup:.2}");
        let _ = writeln!(json, "  }}{}", if si + 1 == shapes.len() { "" } else { "," });
    }
    json.push_str("}\n");

    validate_report(&json).expect("BENCH_planner.json schema");

    // Acceptance gates. Timing-dependent gates are advisory in smoke
    // mode (CI machines are noisy); the full run enforces them.
    if !smoke {
        assert!(violations.is_empty(), "plans slower than a row scan beyond noise: {violations:?}");
        assert!(
            max_speedup >= 2.0,
            "expected >=2x on at least one wide shape, best was {max_speedup:.2}x"
        );
    } else if !violations.is_empty() {
        eprintln!("note (smoke): cells beyond noise allowance: {violations:?}");
    }

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/BENCH_planner.json");
    std::fs::write(path, &json).expect("write report");
    println!("{json}");
    println!("wrote {path}");
}

/// Validates the emitted report: schema tag, every swept shape present
/// with a plan and positive finite timings, and the estimation-error
/// gate (`MAX_EST_ERROR`) on every shape.
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
    for shape in ["sel_0p1", "sel_1", "sel_10", "sel_50", "sel_90"] {
        let section = root.get(shape).ok_or(format!("'{shape}' section missing"))?;
        for key in ["est_rows", "actual_rows", "row_s", "plan_s", "speedup"] {
            let v = section
                .get(key)
                .and_then(Json::as_num)
                .ok_or(format!("'{shape}.{key}' missing"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("'{shape}.{key}' must be positive, got {v}"));
            }
        }
        let err = section
            .get("est_row_error")
            .and_then(Json::as_num)
            .ok_or(format!("'{shape}.est_row_error' missing"))?;
        if !(err.is_finite() && (1.0..=MAX_EST_ERROR).contains(&err)) {
            return Err(format!(
                "'{shape}.est_row_error' {err} outside [1, {MAX_EST_ERROR}]"
            ));
        }
        if section.get("plan").and_then(Json::as_str).is_none_or(str::is_empty) {
            return Err(format!("'{shape}.plan' must be a non-empty string"));
        }
    }
    Ok(())
}
