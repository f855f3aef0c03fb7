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
//! Written to `reports/BENCH_planner.json` once every cell has a plan,
//! positive timings and an estimate within `MAX_EST_ERROR` of the truth.
//! `DOCLITE_PLANNER_SMOKE=1` shrinks the dataset and rep count for CI;
//! the estimation-error gate applies in both modes.

use doclite_bson::{doc, json::to_json, Document};
use doclite_bench::{best_of, check_positive, report_header};
use doclite_core::selectivity::{plan_quality, PlanQuality};
use doclite_docstore::agg::stream::{run_streaming, DocStream};
use doclite_docstore::{Accumulator, Collection, Expr, Filter, GroupId, IndexDef, Pipeline};
use doclite_stress::report::{write_report, Json};

/// Schema tag of the report. v2: one planner, so one plan per shape,
/// timed against a function-level row scan.
const SCHEMA: &str = "doclite-planner/v2";

/// CI gate: the cost model's row estimate must stay within this factor
/// of the measured cardinality on every swept shape.
const MAX_EST_ERROR: f64 = 8.0;

/// Full-run gate: the chosen plan may not be slower than the plain row
/// scan beyond this timing-noise allowance.
const NOISE: f64 = 1.3;

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

/// One swept shape: the cost model's estimate against the measured
/// cardinality, the plan the driver chose, and its time against a row
/// scan's.
struct Cell {
    name: &'static str,
    quality: PlanQuality,
    plan: String,
    row_s: f64,
    plan_s: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.row_s / self.plan_s
    }

    fn check(&self) -> Result<(), String> {
        let (name, q) = (self.name, self.quality);
        check_positive(
            name,
            &[
                ("est_rows", q.est_rows as f64),
                ("actual_rows", q.actual_rows as f64),
                ("row_s", self.row_s),
                ("plan_s", self.plan_s),
                ("speedup", self.speedup()),
            ],
        )?;
        let err = q.error_factor();
        if !(1.0..=MAX_EST_ERROR).contains(&err) {
            return Err(format!("'{name}.est_row_error' {err} outside [1, {MAX_EST_ERROR}]"));
        }
        if self.plan.is_empty() {
            return Err(format!("'{name}.plan' must be a non-empty string"));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("est_rows", self.quality.est_rows.into()),
            ("actual_rows", self.quality.actual_rows.into()),
            ("est_row_error", Json::rounded(self.quality.error_factor(), 3)),
            ("plan", self.plan.as_str().into()),
            ("row_s", Json::rounded(self.row_s, 6)),
            ("plan_s", Json::rounded(self.plan_s, 6)),
            ("speedup", Json::rounded(self.speedup(), 2)),
        ])
    }
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

    let mut report = report_header(SCHEMA, smoke);
    report.push(("docs".into(), docs.len().into()));
    let mut max_speedup = 0.0f64;
    let mut violations: Vec<String> = Vec::new();

    for shape in shapes() {
        let pipeline = Pipeline::new().match_stage(shape.filter.clone()).group(
            GroupId::Expr(Expr::field("grp")),
            [("n", Accumulator::count()), ("avg_v", Accumulator::avg_field("v"))],
        );
        let quality = plan_quality(&coll, &shape.filter);

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
        let cell = Cell { name: shape.name, quality, plan: decisions.join(" -> "), row_s, plan_s };

        max_speedup = max_speedup.max(cell.speedup());
        if plan_s > row_s * NOISE {
            violations.push(format!("{}: plan {plan_s:.6}s vs row scan {row_s:.6}s", shape.name));
        }
        cell.check().expect("BENCH_planner.json gates");
        report.push((shape.name.into(), cell.to_json()));
    }

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

    write_report("BENCH_planner.json", &Json::Obj(report));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(est_rows: u64, plan: &str) -> Cell {
        Cell {
            name: "sel_1",
            quality: PlanQuality { est_rows, actual_rows: 100 },
            plan: plan.into(),
            row_s: 0.02,
            plan_s: 0.01,
        }
    }

    #[test]
    fn check_gates_the_estimation_error_and_the_plan() {
        cell(100, "IXSCAN { k_1 } (range)").check().unwrap();
        cell(800, "COLSCAN { k } -> COLUMNS").check().unwrap();
        for est_rows in [801, 12] {
            let err = cell(est_rows, "COLSCAN { k }").check().unwrap_err();
            assert!(err.contains("est_row_error"), "{err}");
        }
        assert!(cell(100, "").check().unwrap_err().contains("'sel_1.plan'"));
    }
}
