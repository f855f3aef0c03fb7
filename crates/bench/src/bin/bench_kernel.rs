//! Execution-kernel baseline: interpreted evaluation vs the
//! compile-once kernel, per shape, written to
//! `reports/BENCH_kernel.json` once every timing and speedup is checked
//! positive and finite (CI runs the smoke mode the same way it runs the
//! stress smoke).
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
//!   semi-join once its column is built).
//!
//! Run with `cargo run --release -p doclite-bench --bin bench_kernel`;
//! set `DOCLITE_KERNEL_SMOKE=1` for the fast CI configuration.

use doclite_bson::{doc, Document};
use doclite_docstore::agg::stream::{run_streaming, DocStream};
use doclite_docstore::query::{compile, matches, matches_compiled};
use doclite_docstore::{Accumulator, Collection, Expr, Filter, GroupId, IndexDef, Pipeline};
use doclite_bench::{best_of, check_positive, report_header};
use doclite_stress::report::{write_report, Json};

/// Schema tag of the report. v3 replaced the per-executor-mode pipeline
/// cells with `row_s` (function level) and `driver_s`.
const SCHEMA: &str = "doclite-kernel/v3";

/// The timings of an evaluator cell and of a pipeline cell.
const EVALUATORS: [&str; 2] = ["interpreted_s", "kernel_s"];
const PIPELINES: [&str; 2] = ["row_s", "driver_s"];

fn bench_docs(n: i64) -> Vec<Document> {
    (0..n)
        .map(|i| doc! {"_id" => i, "k" => i % 3000, "grp" => i % 100, "v" => (i * 7 % 1000) as f64})
        .collect()
}

/// One baseline-vs-fast cell; `keys` name its two timings.
struct Cell {
    name: &'static str,
    docs: usize,
    keys: [&'static str; 2],
    base_s: f64,
    fast_s: f64,
}

impl Cell {
    fn speedup(&self) -> f64 {
        self.base_s / self.fast_s
    }

    fn check(&self) -> Result<(), String> {
        let [base, fast] = self.keys;
        check_positive(
            self.name,
            &[(base, self.base_s), (fast, self.fast_s), ("speedup", self.speedup())],
        )
    }

    fn to_json(&self) -> Json {
        let [base, fast] = self.keys;
        Json::obj([
            ("docs", self.docs.into()),
            (base, Json::rounded(self.base_s, 6)),
            (fast, Json::rounded(self.fast_s, 6)),
            ("speedup", Json::rounded(self.speedup(), 2)),
        ])
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
        keys: EVALUATORS,
        base_s: best_of(reps, || {
            docs.iter().filter(|d| matches(&filter, d)).count()
        }),
        fast_s: best_of(reps, || {
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
        keys: EVALUATORS,
        base_s: best_of(reps, || {
            docs.iter().filter(|d| matches(&in_filter, d)).count()
        }),
        fast_s: best_of(reps, || {
            docs.iter().filter(|d| matches_compiled(&in_compiled, d)).count()
        }),
    };

    // --- end-to-end pipelines: row scan vs the planned driver -------
    let pipe_docs = bench_docs(pipe_n);
    let coll = Collection::new("bench");
    coll.insert_many(pipe_docs.clone()).expect("insert");
    coll.create_index(IndexDef::single("grp")).expect("index");
    let pipeline_cell = |name, p: &Pipeline| {
        let row = || run_streaming(DocStream::from_slice(&pipe_docs), p.stages(), None).unwrap();
        // Two warm-up runs: the third execution of an unindexed filter
        // is the first that can be served from its column.
        for _ in 0..2 {
            assert_eq!(coll.aggregate(p).unwrap(), row(), "driver result diverged");
        }
        Cell {
            name,
            docs: pipe_docs.len(),
            keys: PIPELINES,
            base_s: best_of(reps, row),
            fast_s: best_of(reps, || coll.aggregate(p).unwrap()),
        }
    };

    let q7 = Pipeline::new()
        .match_stage(Filter::eq("grp", 42i64))
        .group(
            GroupId::Expr(Expr::field("k")),
            [("avg_v", Accumulator::avg_field("v")), ("n", Accumulator::count())],
        )
        .sort([("_id", 1)])
        .limit(100);
    let pipeline_q7 = pipeline_cell("pipeline_q7", &q7);

    let semi = Pipeline::new()
        .match_stage(Filter::is_in("k", keys))
        .group(
            GroupId::Expr(Expr::field("grp")),
            [("n", Accumulator::count()), ("sum_v", Accumulator::sum_field("v"))],
        )
        .sort([("_id", 1)]);
    let pipeline_semi_join = pipeline_cell("pipeline_semi_join", &semi);

    let mut report = report_header(SCHEMA, smoke);
    for cell in [match_scan, semi_join, pipeline_q7, pipeline_semi_join] {
        cell.check().expect("BENCH_kernel.json gates");
        report.push((cell.name.into(), cell.to_json()));
    }
    write_report("BENCH_kernel.json", &Json::Obj(report));
}
