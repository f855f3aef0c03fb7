//! Execution-kernel baseline: interpreted evaluation vs the
//! compile-once kernel, per shape, written to
//! `reports/BENCH_kernel.json` and schema-validated before the process
//! exits (CI runs the smoke mode the same way it runs the stress
//! smoke).
//!
//! Four measurements:
//!
//! * `match_scan` — a Q7-shaped residual filter (equality + range +
//!   small `$in`) swept over a document vector: the interpreted matcher
//!   (`query::matches`, which re-splits paths and clones multikey
//!   elements per call) vs `compile` once + `matches_compiled`.
//! * `semi_join_in` — a ~2000-key `$in` probe per document: interpreted
//!   linear scan vs the kernel's sorted-set binary search.
//! * `pipeline_q7` / `pipeline_semi_join` — end-to-end aggregation:
//!   `row_s` streams the pipeline over a borrowed slice of the documents
//!   (function level: it can see neither an index nor a column, so the
//!   label stays true after any number of scans), `driver_s` is
//!   `Collection::aggregate` with whatever access path the planner
//!   picks (the `grp` index for Q7; a column scan of `k` for the
//!   semi-join once its column is built). The morsel exchange is
//!   measured by `bench_parallel`.
//!
//! Run with `cargo run --release -p doclite-bench --bin bench_kernel`;
//! set `DOCLITE_KERNEL_SMOKE=1` for the fast CI configuration.

use doclite_bson::{doc, Document};
use doclite_docstore::agg::stream::{run_streaming, DocStream};
use doclite_docstore::query::{compile, matches, matches_compiled};
use doclite_docstore::{Accumulator, Collection, Expr, Filter, GroupId, IndexDef, Pipeline};
use doclite_stress::report::{parse_json, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag the validator pins. v3 replaced the per-executor-mode
/// pipeline cells with `row_s` (function level) and `driver_s`.
const SCHEMA: &str = "doclite-kernel/v3";

/// Best-of-n wall time in seconds (the thesis reports best-of-5 with
/// warm caches; so do we — smoke mode drops to best-of-2).
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

/// One interpreted-vs-kernel cell.
struct Cell {
    name: &'static str,
    docs: usize,
    interpreted_s: f64,
    kernel_s: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.interpreted_s / self.kernel_s
    }
}

fn main() {
    let smoke = std::env::var("DOCLITE_KERNEL_SMOKE").map(|v| v == "1").unwrap_or(false);
    let reps = if smoke { 2 } else { 5 };
    let scan_n: i64 = if smoke { 20_000 } else { 200_000 };
    let pipe_n: i64 = if smoke { 5_000 } else { 50_000 };

    // --- match_scan: Q7-shaped residual over a document sweep -------
    let docs = bench_docs(scan_n);
    let filter = Filter::and([
        Filter::eq("grp", 42i64),
        Filter::gte("v", 100.0),
        Filter::is_in("k", [42i64, 142, 242, 342, 442]),
    ]);
    let compiled = compile(&filter);
    let interp_hits: usize = docs.iter().filter(|d| matches(&filter, d)).count();
    let kernel_hits: usize = docs.iter().filter(|d| matches_compiled(&compiled, d)).count();
    assert_eq!(interp_hits, kernel_hits, "evaluators disagree on match_scan");
    assert!(interp_hits > 0, "match_scan filter selects nothing");
    let match_scan = Cell {
        name: "match_scan",
        docs: docs.len(),
        interpreted_s: best_of(reps, || {
            docs.iter().filter(|d| matches(&filter, d)).count()
        }),
        kernel_s: best_of(reps, || {
            docs.iter().filter(|d| matches_compiled(&compiled, d)).count()
        }),
    };

    // --- semi_join_in: ~2000-key $in probe per document -------------
    let keys: Vec<i64> = (0..2000i64).map(|i| i * 3 % 3000).collect();
    let in_filter = Filter::is_in("k", keys.clone());
    let in_compiled = compile(&in_filter);
    let a: usize = docs.iter().filter(|d| matches(&in_filter, d)).count();
    let b: usize = docs.iter().filter(|d| matches_compiled(&in_compiled, d)).count();
    assert_eq!(a, b, "evaluators disagree on semi_join_in");
    let semi_join = Cell {
        name: "semi_join_in",
        docs: docs.len(),
        interpreted_s: best_of(reps, || {
            docs.iter().filter(|d| matches(&in_filter, d)).count()
        }),
        kernel_s: best_of(reps, || {
            docs.iter().filter(|d| matches_compiled(&in_compiled, d)).count()
        }),
    };

    // --- end-to-end pipelines: row scan vs the planned driver -------
    let pipe_docs = bench_docs(pipe_n);
    let coll = Collection::new("bench");
    coll.insert_many(pipe_docs.clone()).expect("insert");
    coll.create_index(IndexDef::single("grp")).expect("index");
    let pipeline_cell = |p: &Pipeline| {
        let row = || run_streaming(DocStream::from_slice(&pipe_docs), p.stages(), None).unwrap();
        // Two warm-up runs: the third execution of an unindexed filter
        // is the first that can be served from its column.
        for _ in 0..2 {
            assert_eq!(coll.aggregate(p).unwrap(), row(), "driver result diverged");
        }
        (best_of(reps, row), best_of(reps, || coll.aggregate(p).unwrap()))
    };

    let q7 = Pipeline::new()
        .match_stage(Filter::eq("grp", 42i64))
        .group(
            GroupId::Expr(Expr::field("k")),
            [("avg_v", Accumulator::avg_field("v")), ("n", Accumulator::count())],
        )
        .sort([("_id", 1)])
        .limit(100);
    let (q7_row, q7_driver) = pipeline_cell(&q7);

    let semi = Pipeline::new()
        .match_stage(Filter::is_in("k", keys))
        .group(
            GroupId::Expr(Expr::field("grp")),
            [("n", Accumulator::count()), ("sum_v", Accumulator::sum_field("v"))],
        )
        .sort([("_id", 1)]);
    let (semi_row, semi_driver) = pipeline_cell(&semi);

    // --- report -----------------------------------------------------
    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(json, "  \"available_parallelism\": {},", doclite_docstore::parallel_workers());
    for cell in [&match_scan, &semi_join] {
        let _ = writeln!(
            json,
            "  \"{}\": {{\n    \"docs\": {},\n    \"interpreted_s\": {:.6},\n    \
             \"kernel_s\": {:.6},\n    \"speedup\": {:.2}\n  }},",
            cell.name,
            cell.docs,
            cell.interpreted_s,
            cell.kernel_s,
            cell.speedup()
        );
    }
    for (name, row, driver) in [
        ("pipeline_q7", q7_row, q7_driver),
        ("pipeline_semi_join", semi_row, semi_driver),
    ] {
        let _ = writeln!(
            json,
            "  \"{}\": {{\n    \"docs\": {},\n    \"row_s\": {:.6},\n    \
             \"driver_s\": {:.6},\n    \"speedup\": {:.2}\n  }}{}",
            name,
            pipe_n,
            row,
            driver,
            row / driver,
            if name == "pipeline_semi_join" { "" } else { "," }
        );
    }
    json.push_str("}\n");

    validate_report(&json).expect("BENCH_kernel.json schema");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/BENCH_kernel.json");
    std::fs::write(path, &json).expect("write report");
    println!("{json}");
    println!("wrote {path}");
}

fn section_num(root: &Json, section: &str, key: &str) -> Result<f64, String> {
    root.get(section)
        .and_then(|s| s.get(key))
        .and_then(Json::as_num)
        .ok_or_else(|| format!("'{section}.{key}' must be a number"))
}

/// Validates the emitted report: schema tag, core count, all four
/// sections with positive timings, and finite speedups.
fn validate_report(text: &str) -> Result<(), String> {
    let root = parse_json(text)?;
    if root.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
        return Err(format!("schema tag must be '{SCHEMA}'"));
    }
    match root.get("mode").and_then(Json::as_str) {
        Some("smoke") | Some("full") => {}
        other => return Err(format!("'mode' must be smoke|full, got {other:?}")),
    }
    if root.get("available_parallelism").and_then(Json::as_num).is_none_or(|v| v < 1.0) {
        return Err("'available_parallelism' must be a positive number".into());
    }
    for section in ["match_scan", "semi_join_in"] {
        for key in ["docs", "interpreted_s", "kernel_s", "speedup"] {
            let v = section_num(&root, section, key)?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("'{section}.{key}' must be positive, got {v}"));
            }
        }
    }
    for section in ["pipeline_q7", "pipeline_semi_join"] {
        for key in ["docs", "row_s", "driver_s", "speedup"] {
            let v = section_num(&root, section, key)?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("'{section}.{key}' must be positive, got {v}"));
            }
        }
    }
    Ok(())
}
