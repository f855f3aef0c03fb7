//! Ablation 10: morsel-driven parallel execution — throughput vs worker
//! count and morsel size.
//!
//! Sweeps `agg::run_parallel(docs, stages, source, workers, morsel)` —
//! a pure function no driver calls yet; this sweep is the evidence a
//! planner cost rule for the exchange will have to cite — over
//! `workers × morsel_size` on two analytical shapes (a Q7-style grouped
//! aggregation and a top-k `$sort` + `$limit`), against the serial
//! streaming executor over the same borrowed documents as the 1.0×
//! baseline. Written to `reports/BENCH_parallel.json` once every timing
//! and speedup is checked positive and finite, like the other report
//! binaries.
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
use doclite_bench::{best_of, check_positive, report_header};
use doclite_stress::report::{write_report, Json};

/// Schema tag of the report.
const SCHEMA: &str = "doclite-parallel/v1";

const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const MORSEL_SWEEP: [usize; 3] = [256, 1024, 4096];

fn bench_docs(n: i64) -> Vec<Document> {
    (0..n)
        .map(|i| doc! {"_id" => i, "k" => i % 3000, "grp" => i % 100, "v" => (i * 7 % 1000) as f64})
        .collect()
}

struct Shape {
    name: &'static str,
    pipeline: Pipeline,
}

/// One shape's sweep: the serial time and `(workers, morsel, seconds)`
/// per cell.
struct Sweep {
    serial_s: f64,
    cells: Vec<(usize, usize, f64)>,
}

impl Sweep {
    fn check(&self, shape: &str) -> Result<(), String> {
        check_positive(shape, &[("serial_s", self.serial_s)])?;
        for (i, &(_, _, s)) in self.cells.iter().enumerate() {
            check_positive(
                &format!("{shape}.cells[{i}]"),
                &[("parallel_s", s), ("speedup", self.serial_s / s)],
            )?;
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        let cells = self.cells.iter().map(|&(workers, morsel, s)| {
            Json::obj([
                ("workers", workers.into()),
                ("morsel", morsel.into()),
                ("parallel_s", Json::rounded(s, 6)),
                ("speedup", Json::rounded(self.serial_s / s, 2)),
            ])
        });
        Json::obj([
            ("serial_s", Json::rounded(self.serial_s, 6)),
            ("cells", Json::Arr(cells.collect())),
        ])
    }
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
    let docs = bench_docs(n);
    let refs: Vec<&Document> = docs.iter().collect();

    let mut report = report_header(SCHEMA, smoke);
    report.push(("docs".into(), docs.len().into()));
    for shape in shapes() {
        // Serial streaming is the 1.0× baseline every cell normalizes to.
        let stages = shape.pipeline.stages();
        let serial = || run_streaming(DocStream::from_slice(&docs), stages, None).unwrap();
        let expected = serial();
        let mut sweep = Sweep { serial_s: best_of(reps, serial), cells: Vec::new() };
        for workers in WORKER_SWEEP {
            for morsel in MORSEL_SWEEP {
                let parallel = || run_parallel(&refs, stages, None, workers, morsel).unwrap();
                assert_eq!(parallel(), expected, "{}: parallel result diverged", shape.name);
                sweep.cells.push((workers, morsel, best_of(reps, parallel)));
            }
        }
        sweep.check(shape.name).expect("BENCH_parallel.json gates");
        report.push((shape.name.into(), sweep.to_json()));
    }
    write_report("BENCH_parallel.json", &Json::Obj(report));
}
