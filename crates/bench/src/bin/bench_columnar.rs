//! Ablation 11: the columnar sidecar — covered aggregates and column
//! scans vs row-at-a-time evaluation.
//!
//! Two Q7-shaped analytical workloads over a collection *without*
//! secondary indexes, whose every path has a declared column, so the
//! aggregation driver computes them off the columns and fetches nothing:
//!
//! * `match_scan` — selective `$match` → `$count`, the pure
//!   selection-bitmap case;
//! * `group_q7`   — `$match` → `$group` by `k` with `avg(v)`/count,
//!   the GroupKernel-over-selected-rows case.
//!
//! and the access path the planner takes for an unindexed `find`:
//!
//! * `find_in` — the Fig 4.8 semi-join shape: a two-path integer `$in`
//!   over ≥ 100k rows that returns < 1 % of them, served by the column
//!   scan, timed back to back and again with every other collection of
//!   the process walked in between, which is how the probe runs inside
//!   a query mix (cold caches).
//!
//! Every `row_s` is taken at function level — the streaming executor
//! over a borrowed slice of the documents, `for_each` +
//! `matches_compiled` for `find_in` — which can see neither a column
//! nor an index, so the label is true after any number of scans. Each
//! cell is timed as best-of-N with the columnar result asserted equal to
//! the row result before timing (per-cell result equality is the whole
//! point of the sidecar contract). Written to
//! `reports/BENCH_columnar.json` and schema-validated before exit.
//! `DOCLITE_COLUMNAR_SMOKE=1` shrinks the dataset and rep count for CI.

use doclite_bson::{doc, Document};
use doclite_docstore::agg::stream::{run_streaming, DocStream};
use doclite_docstore::{
    compile, matches_compiled, Accumulator, Collection, Expr, Filter, GroupId, Pipeline,
};
use doclite_stress::report::{parse_json, Json};
use std::fmt::Write as _;
use std::time::Instant;

/// Schema tag the validator pins. v2 dropped the parallel-columnar
/// cells with the fan-out they measured.
const SCHEMA: &str = "doclite-columnar/v2";

fn best_of<R>(n: usize, f: impl FnMut() -> R) -> f64 {
    best_of_after(n, || {}, f)
}

/// Best-of-`n` of `f`, with `prep` run (untimed) before each repetition.
fn best_of_after<R>(n: usize, mut prep: impl FnMut(), mut f: impl FnMut() -> R) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..n {
        prep();
        let t0 = Instant::now();
        std::hint::black_box(f());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Inventory-shaped facts: two foreign keys, a third one and a measure.
fn fact_docs(n: i64) -> Vec<Document> {
    (0..n)
        .map(|i| doc! {"_id" => i, "a" => i % 2000, "b" => (i * 7) % 300, "w" => i % 5, "q" => i % 997})
        .collect()
}

/// The `find_in` shape: row scan vs column scan of one semi-join probe,
/// warm and cold. Returns the JSON section body.
fn find_in(n: i64, reps: usize, others: &[&Collection]) -> String {
    let facts = Collection::new("facts");
    facts.insert_many(fact_docs(n)).expect("insert");
    facts.enable_columnar(["a", "b"]);
    // 60 of 2000 and 10 of 300 keys: about 0.1 % of the rows.
    let probe = Filter::and([
        Filter::is_in("a", (0..60i64).map(|k| k * 31 % 2000).collect::<Vec<_>>()),
        Filter::is_in("b", (0..10i64).map(|k| k * 29 % 300).collect::<Vec<_>>()),
    ]);
    // What a query mix does to the caches between two probes.
    let evict = || {
        for c in others {
            c.for_each(|d| {
                std::hint::black_box(d);
            });
        }
    };

    let compiled = compile(&probe);
    let row_find = || {
        let mut out = Vec::new();
        facts.for_each(|d| {
            if matches_compiled(&compiled, d) {
                out.push(d.clone());
            }
        });
        out
    };
    let expected = row_find();
    let row_s = best_of(reps, row_find);
    let row_cold_s = best_of_after(reps, evict, row_find);

    let plan = facts.explain(&probe).plan;
    assert_eq!(plan, "COLSCAN { a, b }");
    assert_eq!(facts.find(&probe), expected, "find_in: column scan result diverged");
    let col_s = best_of(reps, || facts.find(&probe));
    let col_cold_s = best_of_after(reps, evict, || facts.find(&probe));

    let mut json = String::new();
    let _ = writeln!(json, "    \"rows\": {n},");
    let _ = writeln!(json, "    \"returned\": {},", expected.len());
    let _ = writeln!(json, "    \"row_s\": {row_s:.6},");
    let _ = writeln!(json, "    \"columnar_s\": {col_s:.6},");
    let _ = writeln!(json, "    \"columnar_speedup\": {:.2},", row_s / col_s);
    let _ = writeln!(json, "    \"row_cold_s\": {row_cold_s:.6},");
    let _ = writeln!(json, "    \"columnar_cold_s\": {col_cold_s:.6},");
    let _ = writeln!(json, "    \"columnar_cold_speedup\": {:.2}", row_cold_s / col_cold_s);
    json
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
            name: "match_scan",
            pipeline: Pipeline::new().match_stage(Filter::eq("grp", 42i64)).count("n"),
        },
        Shape {
            name: "group_q7",
            pipeline: Pipeline::new().match_stage(Filter::gte("grp", 42i64)).group(
                GroupId::Expr(Expr::field("k")),
                [("avg_v", Accumulator::avg_field("v")), ("n", Accumulator::count())],
            ),
        },
    ]
}

fn main() {
    let smoke = std::env::var("DOCLITE_COLUMNAR_SMOKE").map(|v| v == "1").unwrap_or(false);
    let reps = if smoke { 2 } else { 7 };
    let n: i64 = if smoke { 20_000 } else { 400_000 };
    let cores = doclite_docstore::parallel_workers();

    // Deliberately no secondary index: an index-served `$match` would
    // reorder the scan and hide the kernel-vs-matcher delta.
    let docs = bench_docs(n);
    let coll = Collection::new("bench_columnar");
    coll.insert_many(docs.clone()).expect("insert");
    coll.enable_columnar(["k", "grp", "v"]);

    let mut json = String::new();
    json.push_str("{\n");
    let _ = writeln!(json, "  \"schema\": \"{SCHEMA}\",");
    let _ = writeln!(json, "  \"mode\": \"{}\",", if smoke { "smoke" } else { "full" });
    let _ = writeln!(json, "  \"available_parallelism\": {cores},");
    let _ = writeln!(json, "  \"docs\": {n},");

    let shapes = shapes();
    for shape in &shapes {
        let p = &shape.pipeline;
        // Row-at-a-time streaming over the documents is the 1.0×
        // baseline.
        let row = || run_streaming(DocStream::from_slice(&docs), p.stages(), None).unwrap();
        let expected = row();
        let row_s = best_of(reps, row);

        // Result equality is asserted before the timed cell, and that
        // the driver really computes the terminal off the columns.
        let explain = coll.explain_aggregate(p, None).unwrap();
        assert_eq!(explain.stages[1].decision.as_deref(), Some("COLUMNS"), "{}", shape.name);
        assert_eq!(coll.aggregate(p).unwrap(), expected, "{}: columnar result diverged", shape.name);
        let col_s = best_of(reps, || coll.aggregate(p).unwrap());

        let _ = writeln!(json, "  \"{}\": {{", shape.name);
        let _ = writeln!(json, "    \"row_s\": {row_s:.6},");
        let _ = writeln!(json, "    \"columnar_s\": {col_s:.6},");
        let _ = writeln!(json, "    \"columnar_speedup\": {:.2}", row_s / col_s);
        let _ = writeln!(json, "  }},");
    }
    // The semi-join probe, with the aggregation collection (and a copy
    // of it) standing in for the rest of a query mix's working set.
    let other = Collection::new("bench_columnar_other");
    other.insert_many(bench_docs(n)).expect("insert");
    let facts_n = if smoke { n } else { 120_000 };
    let _ = writeln!(json, "  \"find_in\": {{\n{}  }}", find_in(facts_n, reps, &[&coll, &other]));
    json.push_str("}\n");

    validate_report(&json).expect("BENCH_columnar.json schema");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reports/BENCH_columnar.json");
    std::fs::write(path, &json).expect("write report");
    println!("{json}");
    println!("wrote {path}");
}

/// Validates the emitted report: schema tag, both aggregation shapes and
/// the `find_in` probe present with positive finite timings and
/// speedups, the probe returning under 1 % of its rows.
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
    for shape in ["match_scan", "group_q7"] {
        let section = root.get(shape).ok_or(format!("'{shape}' section missing"))?;
        for key in ["row_s", "columnar_s", "columnar_speedup"] {
            let v = section
                .get(key)
                .and_then(Json::as_num)
                .ok_or(format!("'{shape}.{key}' missing"))?;
            if !(v.is_finite() && v > 0.0) {
                return Err(format!("'{shape}.{key}' must be positive, got {v}"));
            }
        }
    }
    let section = root.get("find_in").ok_or("'find_in' section missing")?;
    let num = |key: &str| -> Result<f64, String> {
        let v = section
            .get(key)
            .and_then(Json::as_num)
            .ok_or(format!("'find_in.{key}' missing"))?;
        if !(v.is_finite() && v > 0.0) {
            return Err(format!("'find_in.{key}' must be positive, got {v}"));
        }
        Ok(v)
    };
    for key in [
        "row_s",
        "columnar_s",
        "columnar_speedup",
        "row_cold_s",
        "columnar_cold_s",
        "columnar_cold_speedup",
    ] {
        num(key)?;
    }
    if num("returned")? >= num("rows")? * 0.01 {
        return Err("'find_in' must return under 1% of its rows".into());
    }
    Ok(())
}
