//! The metric catalogue — the one place a metric's name, unit, direction
//! and bound are written down — and the report a workload fills in.
//! `BENCHMARK.json` is generated from the catalogue (`manifest`).

use doclite_stress::report::escape_json;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// The four workload queries' metric prefixes, in thesis order.
pub const QUERIES: [&str; 4] = ["q7", "q21", "q46", "q50"];

#[derive(Clone, Debug, PartialEq)]
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `true` when a larger value is better.
    pub higher_is_better: bool,
    /// End-to-end only: the share of the parent's median a metric may
    /// lose before a change counts as a regression.
    pub bound: f64,
}

fn def(name: impl Into<String>, unit: &'static str, higher_is_better: bool) -> MetricDef {
    MetricDef {
        name: name.into(),
        unit,
        higher_is_better,
        bound: 0.0,
    }
}

/// What a user of the system sees. Every workload reports every one.
/// A bound is at least three times the widest spread a workload showed
/// over the recorded runs (`BASELINE.json`) where the contract's ceiling
/// of 0.25 allows; the timings of `norm_standalone` spread 0.06-0.20 on
/// the recording's shared VM, so every timing sits at the ceiling.
pub fn end_to_end() -> Vec<MetricDef> {
    let gated = |name: &str, unit, higher, bound| MetricDef {
        bound,
        ..def(name, unit, higher)
    };
    vec![
        gated("setup_s", "s", false, 0.25),
        gated("load_rows_per_s", "rows/s", true, 0.25),
        gated("q7_ms", "ms", false, 0.25),
        gated("q21_ms", "ms", false, 0.25),
        gated("q46_ms", "ms", false, 0.25),
        gated("q50_ms", "ms", false, 0.25),
        gated("q_sum_ms", "ms", false, 0.25),
        gated("ops_per_s", "ops/s", true, 0.25),
        gated("stored_mb", "MB", false, 0.02),
        gated("rss_mb", "MB", false, 0.05),
    ]
}

/// Single layers, from the traced run and the probes. A workload that
/// bypasses a layer reports 0 for it.
pub fn per_layer() -> Vec<MetricDef> {
    let mut out = Vec::new();
    // tpcds, core::migrate, sharding::balancer, core::fastdn: set-up.
    for (name, unit) in [
        ("setup.gen_s", "s"),
        ("setup.load_s", "s"),
        ("setup.load_rows", "count"),
        ("setup.balance_s", "s"),
        ("setup.chunks", "count"),
        ("setup.denorm_s", "s"),
        ("setup.index_s", "s"),
        ("setup.user_cpu_s", "s"),
        ("setup.sys_cpu_s", "s"),
    ] {
        out.push(def(name, unit, false));
    }
    for q in QUERIES {
        // core::queries: the Fig 4.8 phases of one execution.
        for phase in crate::trace::Phase::REPORTED {
            out.push(def(format!("{q}.{}_ms", phase.label()), "ms", false));
        }
        out.push(def(format!("{q}.self_ms"), "ms", false));
        // Work counts; they repeat exactly for a seed.
        out.push(def(format!("{q}.semi_join_rows"), "count", false));
        out.push(def(format!("{q}.embed_update_calls"), "count", false));
        out.push(def(format!("{q}.examined_per_returned"), "ratio", false));
        // sharding::router, ::shard, ::network, on the fact probe.
        out.push(def(format!("{q}.route_fact_ms"), "ms", false));
        out.push(def(format!("{q}.shard_fact_max_ms"), "ms", false));
        out.push(def(format!("{q}.shard_fact_sum_ms"), "ms", false));
        out.push(def(format!("{q}.net_modelled_ms"), "ms", false));
        out.push(def(format!("{q}.net_bytes"), "bytes", false));
        out.push(def(format!("{q}.legs"), "count", false));
        // docstore::agg, docstore::index, on the denormalized pipeline.
        out.push(def(format!("{q}.match_ms"), "ms", false));
        out.push(def(format!("{q}.out_ms"), "ms", false));
        out.push(def(format!("{q}.rest_ms"), "ms", false));
        // Lazy set-up paid by the first execution.
        out.push(def(format!("{q}.cold_ms"), "ms", false));
    }
    // docstore::query, docstore::collection: unit costs.
    out.push(def("docstore.scan_ns_per_doc", "ns", false));
    out.push(def("docstore.update_us_per_call", "us", false));
    out.push(def("docstore.insert_us_per_doc", "us", false));
    // bson::codec.
    out.push(def("bson.encode_ns_per_byte", "ns", false));
    out.push(def("bson.decode_ns_per_byte", "ns", false));
    // docstore::index, ::collection and lock wait, per operation kind.
    for kind in crate::oltp::OpKind::ALL {
        out.push(def(format!("op.{}_p50_us", kind.label()), "us", false));
        out.push(def(format!("op.{}_p99_us", kind.label()), "us", false));
    }
    out.push(def("op_p50_us", "us", false));
    out.push(def("op_p99_us", "us", false));
    out.push(def("op_p999_us", "us", false));
    // docstore::wal, checkpoint, recovery.
    out.push(def("wal.append_us", "us", false));
    out.push(def("wal.sync_us", "us", false));
    out.push(def("wal.bytes_per_user_byte", "ratio", false));
    out.push(def("ckpt.checkpoint_s", "s", false));
    out.push(def("ckpt.bytes_per_user_byte", "ratio", false));
    out.push(def("recovery.open_s", "s", false));
    out.push(def("recovery.replayed_frames", "count", false));
    // core::migrate, Table 4.3's three largest tables.
    for table in ["inventory", "store_sales", "catalog_sales"] {
        out.push(def(format!("load.{table}_rows_per_s"), "rows/s", true));
    }
    // The whole process.
    out.push(def("stored_bytes_per_dat_byte", "ratio", false));
    out.push(def("trace.overhead_frac", "ratio", false));
    out
}

/// One workload's reasons for existing, as `BENCHMARK.json` states them.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "norm_standalone",
        "Fig 4.8 queries on one in-memory database: nearly all time is docstore scans, \
         intermediate inserts and embed updates; the router does nothing",
    ),
    (
        "norm_sharded",
        "same inputs through the router over 3 shards: adds targeting, scatter, merge and \
         modelled network; Q50 is targeted, the others broadcast",
    ),
    (
        "denorm_standalone",
        "one pipeline per query over embedded documents: agg kernels, indexes and path \
         lookup do the work; Fig 4.8 phases and the router are bypassed",
    ),
    (
        "oltp_durable",
        "WAL on: .dat ingest, then point reads, lookups, inserts and updates from two \
         clients, recovery, then the queries with logged writes",
    ),
];

/// How long one run measures, in seconds.
pub const RUN_SECONDS: u64 = 15;

/// The text of `BENCHMARK.json`.
pub fn manifest() -> String {
    let mut out = String::from("{\n");
    out.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    out.push_str("  \"paths\": [\"benchmark\"],\n");
    let _ = writeln!(out, "  \"run_seconds\": {RUN_SECONDS},");
    let join = |items: Vec<String>| items.join(",\n");
    let better = |d: &MetricDef| {
        if d.higher_is_better {
            "higher"
        } else {
            "lower"
        }
    };
    let workloads = WORKLOADS
        .iter()
        .map(|(n, why)| {
            format!(
                "    {{\"name\": \"{n}\", \"why\": \"{}\"}}",
                escape_json(why)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"workloads\": [\n{}\n  ],", join(workloads));
    let e2e = end_to_end()
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                d.name,
                d.unit,
                better(d),
                d.bound
            )
        })
        .collect();
    let _ = writeln!(out, "  \"end_to_end\": [\n{}\n  ],", join(e2e));
    let layers = per_layer()
        .iter()
        .map(|d| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                d.name,
                d.unit,
                better(d)
            )
        })
        .collect();
    let _ = writeln!(out, "  \"per_layer\": [\n{}\n  ]", join(layers));
    out.push_str("}\n");
    out
}

/// The values one run of one workload measured.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    /// Free-form `name value unit` lines printed beside the metrics:
    /// quartiles, sample counts, fingerprints, settings.
    pub notes: Vec<(String, String, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Reasons the run is not correct; empty means correct.
    pub problems: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: impl Into<String>, value: f64) {
        self.values.insert(name.into(), value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub fn note(&mut self, name: impl Into<String>, value: impl ToString, unit: &str) {
        self.notes
            .push((name.into(), value.to_string(), unit.to_owned()));
    }

    pub fn problem(&mut self, what: impl Into<String>) {
        self.problems.push(what.into());
    }

    /// One `workload metric value unit` line per catalogue metric and
    /// note, then the result object the contract asks for as the last
    /// line. A catalogue metric the workload did not set reads 0; a value
    /// outside the catalogue is a bug in the workload.
    pub fn render(&self, workload: &str, catalogue: &[MetricDef]) -> String {
        for name in self.values.keys() {
            assert!(
                catalogue.iter().any(|d| &d.name == name),
                "{name} is not in the catalogue"
            );
        }
        let mut out = String::new();
        for (name, value, unit) in &self.notes {
            let _ = writeln!(out, "{workload} {name} {value} {unit}");
        }
        let mut members = Vec::with_capacity(catalogue.len());
        for d in catalogue {
            let v = self.get(&d.name).unwrap_or(0.0);
            let _ = writeln!(out, "{workload} {} {v} {}", d.name, d.unit);
            members.push(format!(
                "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            ));
        }
        for p in &self.problems {
            let _ = writeln!(out, "{workload} problem: {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        let _ = writeln!(
            out,
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted.max(1),
            self.failed,
            members.join(", ")
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_stress::report::parse_json;
    use std::collections::BTreeSet;

    #[test]
    fn catalogue_names_are_unique_and_within_the_contract() {
        let e2e = end_to_end();
        let layers = per_layer();
        assert!((1..=16).contains(&e2e.len()));
        assert!(
            (1..=128).contains(&layers.len()),
            "{} per-layer metrics",
            layers.len()
        );
        let mut seen = BTreeSet::new();
        for d in e2e.iter().chain(&layers) {
            assert!(seen.insert(d.name.clone()), "{} is used twice", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16);
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(e2e.iter().all(|d| d.bound > 0.0 && d.bound <= 0.25));
        let setup = e2e
            .iter()
            .find(|d| d.name == "setup_s")
            .expect("the contract needs setup_s");
        assert!(
            e2e.iter().all(|d| d.bound <= setup.bound),
            "setup_s has the largest bound"
        );
    }

    #[test]
    fn manifest_is_json_and_lists_the_catalogue() {
        let parsed = parse_json(&manifest()).expect("the manifest parses");
        let names = |key: &str| -> Vec<String> {
            parsed
                .get(key)
                .and_then(|v| v.as_arr())
                .expect(key)
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(|n| n.as_str())
                        .expect("name")
                        .to_owned()
                })
                .collect()
        };
        assert_eq!(names("workloads").len(), 4);
        assert_eq!(names("end_to_end").len(), end_to_end().len());
        assert_eq!(names("per_layer").len(), per_layer().len());
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'));
        }
    }

    #[test]
    fn report_renders_every_catalogue_metric_and_a_final_result_line() {
        let mut r = Report::default();
        r.set("q7_ms", 1.25);
        r.attempted = 8;
        r.note("q7_ms.n", 40, "count");
        let text = r.render("w", &end_to_end());
        assert!(text.contains("w q7_ms 1.25 ms\n"));
        assert!(text.contains("w setup_s 0 s\n"), "an unset metric reads 0");
        let last = parse_json(text.lines().last().unwrap()).expect("the last line is JSON");
        assert_eq!(last.get("attempted").and_then(|v| v.as_num()), Some(8.0));
        let metrics = last.get("metrics").expect("metrics");
        for d in end_to_end() {
            assert!(metrics.get(&d.name).is_some(), "{}", d.name);
        }
        r.failed = 1;
        assert!(r.render("w", &end_to_end()).contains("\"correct\": false"));
    }
}
