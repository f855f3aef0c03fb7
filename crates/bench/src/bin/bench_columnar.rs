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
//! `reports/BENCH_columnar.json` once every timing and speedup is checked
//! positive and finite and `find_in` returns under 1 % of its rows.
//! `DOCLITE_COLUMNAR_SMOKE=1` shrinks the dataset and rep count for CI.

use doclite_bson::{doc, Document};
use doclite_docstore::agg::stream::{run_streaming, DocStream};
use doclite_docstore::{
    compile, matches_compiled, Accumulator, Collection, Expr, Filter, GroupId, Pipeline,
};
use doclite_bench::{best_of, best_of_after, check_positive, report_header};
use doclite_stress::report::{write_report, Json};

/// Schema tag of the report. v2 dropped the parallel-columnar cells with
/// the fan-out they measured.
const SCHEMA: &str = "doclite-columnar/v2";

/// Row-scan and columnar seconds of one timed cell.
#[derive(Clone, Copy)]
struct Pair {
    row_s: f64,
    columnar_s: f64,
}

impl Pair {
    fn speedup(&self) -> f64 {
        self.row_s / self.columnar_s
    }

    fn check(&self, section: &str) -> Result<(), String> {
        let speedup = ("columnar_speedup", self.speedup());
        check_positive(section, &[("row_s", self.row_s), ("columnar_s", self.columnar_s), speedup])
    }
}

/// The `find_in` probe: rows scanned, rows returned, warm and cold.
struct FindIn {
    rows: usize,
    returned: usize,
    warm: Pair,
    cold: Pair,
}

impl FindIn {
    fn check(&self) -> Result<(), String> {
        self.warm.check("find_in")?;
        self.cold.check("find_in.cold")?;
        if self.returned == 0 || self.returned as f64 >= self.rows as f64 * 0.01 {
            return Err(format!(
                "'find_in' must return some but under 1% of its rows, returned {} of {}",
                self.returned, self.rows
            ));
        }
        Ok(())
    }

    fn to_json(&self) -> Json {
        Json::obj([
            ("rows", self.rows.into()),
            ("returned", self.returned.into()),
            ("row_s", Json::rounded(self.warm.row_s, 6)),
            ("columnar_s", Json::rounded(self.warm.columnar_s, 6)),
            ("columnar_speedup", Json::rounded(self.warm.speedup(), 2)),
            ("row_cold_s", Json::rounded(self.cold.row_s, 6)),
            ("columnar_cold_s", Json::rounded(self.cold.columnar_s, 6)),
            ("columnar_cold_speedup", Json::rounded(self.cold.speedup(), 2)),
        ])
    }
}

/// Inventory-shaped facts: two foreign keys, a third one and a measure.
fn fact_docs(n: i64) -> Vec<Document> {
    (0..n)
        .map(|i| doc! {"_id" => i, "a" => i % 2000, "b" => (i * 7) % 300, "w" => i % 5, "q" => i % 997})
        .collect()
}

/// The `find_in` shape: row scan vs column scan of one semi-join probe,
/// warm and cold.
fn find_in(n: i64, reps: usize, others: &[&Collection]) -> FindIn {
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
    FindIn {
        rows: facts.len(),
        returned: expected.len(),
        warm: Pair { row_s, columnar_s: best_of(reps, || facts.find(&probe)) },
        cold: Pair {
            row_s: row_cold_s,
            columnar_s: best_of_after(reps, evict, || facts.find(&probe)),
        },
    }
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

    // Deliberately no secondary index: an index-served `$match` would
    // reorder the scan and hide the kernel-vs-matcher delta.
    let docs = bench_docs(n);
    let coll = Collection::new("bench_columnar");
    coll.insert_many(docs.clone()).expect("insert");
    coll.enable_columnar(["k", "grp", "v"]);

    let mut report = report_header(SCHEMA, smoke);
    report.push(("docs".into(), docs.len().into()));
    for shape in shapes() {
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
        let cell = Pair { row_s, columnar_s: best_of(reps, || coll.aggregate(p).unwrap()) };

        cell.check(shape.name).expect("BENCH_columnar.json gates");
        report.push((
            shape.name.into(),
            Json::obj([
                ("row_s", Json::rounded(cell.row_s, 6)),
                ("columnar_s", Json::rounded(cell.columnar_s, 6)),
                ("columnar_speedup", Json::rounded(cell.speedup(), 2)),
            ]),
        ));
    }
    // The semi-join probe, with the aggregation collection (and a copy
    // of it) standing in for the rest of a query mix's working set.
    let other = Collection::new("bench_columnar_other");
    other.insert_many(bench_docs(n)).expect("insert");
    let facts_n = if smoke { n } else { 120_000 };
    let probe = find_in(facts_n, reps, &[&coll, &other]);
    probe.check().expect("BENCH_columnar.json gates");
    report.push(("find_in".into(), probe.to_json()));
    write_report("BENCH_columnar.json", &Json::Obj(report));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn probe(returned: usize) -> FindIn {
        let pair = Pair { row_s: 0.006, columnar_s: 0.001 };
        FindIn { rows: 120_000, returned, warm: pair, cold: pair }
    }

    #[test]
    fn check_wants_find_in_to_return_under_one_percent_of_its_rows() {
        probe(140).check().unwrap();
        for returned in [0, 1_200] {
            assert!(probe(returned).check().unwrap_err().contains("1%"));
        }
        let mut p = probe(140);
        p.cold.columnar_s = 0.0;
        assert!(p.check().unwrap_err().contains("'find_in.cold.columnar_s'"));
    }
}
