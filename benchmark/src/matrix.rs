//! The three paper-matrix workloads (thesis Table 4.1): the four queries,
//! interleaved per iteration, from one closed-loop client.

use crate::fingerprint::fingerprint;
use crate::metrics::{Report, QUERIES};
use crate::probes;
use crate::setup::{self, Deployment, SetupTimes};
use crate::stats::{median, quiet_rate, quiet_time, summarize};
use crate::trace::{self_time_ns, Phase, Span, StoreOp, TracedStore, Tracer};
use crate::Options;
use doclite_bson::Document;
use doclite_core::{denormalized_pipeline, run_denormalized, run_normalized, Environment, Store};
#[cfg(test)]
use doclite_docstore::Database;
use doclite_docstore::{Collection, Filter, FindOptions, Pipeline, Stage};
use doclite_sharding::ShardedCluster;
use doclite_tpcds::{QueryId, QueryParams};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Set-ups per untraced run; `setup_s` is from their times.
const SETUP_REPEATS: usize = 5;
/// Timed repetitions of a probe call; its cost is their median.
const PROBE_REPEATS: usize = 5;

/// One workload's fixed settings.
pub struct Spec {
    pub name: &'static str,
    pub deployment: Deployment,
    pub sf: f64,
    /// Untimed iterations after the cold one. The denormalized Q21 keeps
    /// speeding up for about 8 runs while its columnar sidecar enables.
    pub warmup: usize,
    /// The timed loop runs at least this often, however long it takes.
    pub min_iterations: usize,
}

/// One execution of one query.
pub(crate) struct Sample {
    ms: f64,
    net_ms: f64,
    net_bytes: u64,
    /// `None` when the query returned an error.
    fingerprint: Option<u32>,
}

/// How a workload runs the four queries; shared with `oltp_durable`.
pub(crate) struct Runner<'a> {
    /// The workload's name, for span request ids.
    pub name: &'a str,
    /// One pipeline per query, not the Fig 4.8 algorithm.
    pub denormalized: bool,
    /// The cluster whose modelled network time counts into a latency.
    pub cluster: Option<&'a ShardedCluster>,
    pub params: QueryParams,
}

impl Runner<'_> {
    fn run_query(&self, store: &dyn Store, q: QueryId) -> doclite_docstore::Result<Vec<Document>> {
        if self.denormalized {
            run_denormalized(store, q, &self.params)
        } else {
            run_normalized(store, q, &self.params)
        }
    }

    /// Runs one query through `store` and times it the way Table 4.5
    /// does: wall time plus, on the cluster, the modelled network time the
    /// parallel legs accumulated meanwhile.
    fn execute(&self, store: &dyn Store, q: QueryId) -> Sample {
        let net = self.cluster.map(|c| c.router().net_stats());
        let before = net.map(|n| (n.parallel_time(), n.bytes()));
        let start = Instant::now();
        let result = self.run_query(store, q);
        let wall = start.elapsed();
        let (net_time, net_bytes) = match (net, before) {
            (Some(n), Some((t0, b0))) => (n.parallel_time().saturating_sub(t0), n.bytes() - b0),
            _ => Default::default(),
        };
        Sample {
            ms: (wall + net_time).as_secs_f64() * 1e3,
            net_ms: net_time.as_secs_f64() * 1e3,
            net_bytes,
            fingerprint: result.ok().map(|docs| fingerprint(&docs)),
        }
    }

    /// The four queries once, run in `order`; the samples come back in
    /// thesis order.
    fn iteration(
        &self,
        store: &dyn Store,
        tracer: Option<(&Tracer, usize)>,
        order: [usize; 4],
    ) -> [Sample; 4] {
        let mut samples: [Option<Sample>; 4] = Default::default();
        for slot in order {
            let (q, label) = (QueryId::ALL[slot], QUERIES[slot]);
            samples[slot] = Some(match tracer {
                Some((t, i)) => t.query(format!("{}/{i}/{label}", self.name), label, || {
                    self.execute(store, q)
                }),
                None => self.execute(store, q),
            });
        }
        samples.map(|s| s.expect("an order names every query once"))
    }

    /// The first execution of each query: it pays lazy set-up (statistics,
    /// sidecars) and fixes the fingerprints every later execution must
    /// reproduce.
    pub fn cold(&self, store: &dyn Store, report: &mut Report) -> ([Sample; 4], [u32; 4]) {
        let cold = self.iteration(store, None, IN_ORDER);
        let mut reference = [0u32; 4];
        for (i, s) in cold.iter().enumerate() {
            report.attempted += 1;
            match s.fingerprint {
                Some(fp) => reference[i] = fp,
                None => {
                    report.failed += 1;
                    report.problem(format!("{} failed on its first execution", QUERIES[i]));
                }
            }
            report.note(format!("fingerprint.{}", QUERIES[i]), reference[i], "crc32");
        }
        (cold, reference)
    }
}

/// Thesis order.
const IN_ORDER: [usize; 4] = [0, 1, 2, 3];

/// The next iteration's query order: a uniform shuffle, as TPC-DS orders
/// the queries of a stream by its seed.
pub(crate) fn query_order(rng: &mut SmallRng) -> [usize; 4] {
    let mut order = IN_ORDER;
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    order
}

/// The samples of a loop, per query.
pub(crate) struct Loop {
    pub ms: [Vec<f64>; 4],
    net_ms: [Vec<f64>; 4],
    net_bytes: [Vec<f64>; 4],
}

impl Loop {
    fn new() -> Self {
        Loop {
            ms: Default::default(),
            net_ms: Default::default(),
            net_bytes: Default::default(),
        }
    }

    /// Files one iteration's samples; a sample whose fingerprint differs
    /// from the reference (or that failed) counts as a failed operation.
    fn push(&mut self, samples: [Sample; 4], reference: &[u32; 4], report: &mut Report) {
        for (i, s) in samples.into_iter().enumerate() {
            report.attempted += 1;
            if s.fingerprint != Some(reference[i]) {
                report.failed += 1;
            }
            self.ms[i].push(s.ms);
            self.net_ms[i].push(s.net_ms);
            self.net_bytes[i].push(s.net_bytes as f64);
        }
    }

    /// Each query's reported latency.
    pub fn latencies(&self) -> [f64; 4] {
        std::array::from_fn(|i| quiet_time(&self.ms[i]))
    }

    /// Prints the whole sample beside the one value reported from it.
    pub fn note_samples(&self, report: &mut Report) {
        for (q, ms) in QUERIES.iter().zip(&self.ms) {
            let s = summarize(ms);
            report.note(
                format!("{q}_ms.samples"),
                format!(
                    "min {} q1 {} median {} q3 {} max {} n {}",
                    s.min, s.q1, s.median, s.q3, s.max, s.n
                ),
                "ms",
            );
        }
    }
}

/// Sets `q7_ms` … `q50_ms` and `q_sum_ms`.
pub(crate) fn report_latencies(latencies: &[f64; 4], report: &mut Report) {
    for (q, ms) in QUERIES.iter().zip(latencies) {
        report.set(format!("{q}_ms"), *ms);
    }
    report.set("q_sum_ms", latencies.iter().sum());
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// Runs iterations, their query order drawn from `rng`, until `seconds`
/// have passed and `min` are done.
#[allow(clippy::too_many_arguments)]
pub(crate) fn timed_loop(
    runner: &Runner,
    store: &dyn Store,
    tracer: Option<&Tracer>,
    rng: &mut SmallRng,
    seconds: f64,
    min: usize,
    reference: &[u32; 4],
    report: &mut Report,
) -> Loop {
    let mut out = Loop::new();
    let start = Instant::now();
    let mut i = 0;
    while i < min || start.elapsed().as_secs_f64() < seconds {
        let samples = runner.iteration(store, tracer.map(|t| (t, i)), query_order(rng));
        out.push(samples, reference, report);
        i += 1;
    }
    out
}

pub fn run(spec: &Spec, opts: &Options) -> Report {
    let mut report = Report::default();
    let sf = if opts.smoke { crate::SMOKE_SF } else { spec.sf };

    // Set-up: everything before the first timed operation.
    let repeats = if opts.trace || opts.smoke {
        1
    } else {
        SETUP_REPEATS
    };
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut built = None;
    for _ in 0..repeats {
        // One deployment alive at a time, so `rss_mb` is that of one.
        drop(built.take());
        let (env, times) = setup::build(spec.deployment, sf);
        setups.push(times);
        built = Some(env);
    }
    let env = built.expect("at least one set-up ran");
    let stored = setup::stored_bytes(&env);
    let denormalized = spec.deployment == Deployment::DenormStandalone;
    let runner = Runner {
        name: spec.name,
        denormalized,
        cluster: env.cluster(),
        params: QueryParams::for_scale(sf),
    };
    let store = env.store();

    let (cold, reference) = runner.cold(store, &mut report);
    if denormalized {
        // The denormalized answers must be the normalized algorithm's
        // answers over the same base collections.
        for (i, &q) in QueryId::ALL.iter().enumerate() {
            report.attempted += 1;
            let normalized = run_normalized(store, q, &runner.params).ok();
            if normalized.map(|docs| fingerprint(&docs)) != Some(reference[i]) {
                report.failed += 1;
                report.problem(format!("{} differs from run_normalized", QUERIES[i]));
            }
        }
    }
    let warmup = if opts.smoke { 2 } else { spec.warmup };
    for _ in 0..warmup {
        Loop::new().push(
            runner.iteration(store, None, IN_ORDER),
            &reference,
            &mut report,
        );
    }

    let min = if opts.smoke { 5 } else { spec.min_iterations };
    let window = if opts.trace {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let timed = timed_loop(
        &runner,
        store,
        None,
        &mut rng,
        window,
        min,
        &reference,
        &mut report,
    );
    let latencies = timed.latencies();

    report.note("sf", sf, "scale");
    report.note("seed", opts.seed, "seed");
    report.note("clients", "1 closed-loop", "");
    report.note("sync_policy", "none (in memory)", "");
    report.note("query_order", "shuffled per iteration from the seed", "");
    report.note("warmup_iterations", warmup + 1, "count");
    report.note("timed_iterations", timed.ms[0].len(), "count");
    timed.note_samples(&mut report);

    if !opts.trace {
        let totals: Vec<f64> = setups.iter().map(|t| t.total_s).collect();
        let rates: Vec<f64> = setups
            .iter()
            .map(|t| t.load_rows as f64 / t.load_s)
            .collect();
        report.set("setup_s", quiet_time(&totals));
        report.set("load_rows_per_s", quiet_rate(&rates));
        report_latencies(&latencies, &mut report);
        // One client, no think time: four queries per sum of latencies.
        report.set("ops_per_s", 4e3 / latencies.iter().sum::<f64>());
        report.set("stored_mb", stored as f64 / 1e6);
        report.set("rss_mb", crate::sys::peak_rss_mb());
        return report;
    }

    // ----- the traced pass and the probes: per-layer metrics ----------
    let t = setups[0];
    report.set("setup.gen_s", t.gen_s);
    report.set("setup.load_s", t.load_s);
    report.set("setup.load_rows", t.load_rows as f64);
    report.set("setup.balance_s", t.balance_s);
    report.set("setup.chunks", t.chunks as f64);
    report.set("setup.denorm_s", t.denorm_s);
    report.set("setup.index_s", t.index_s);
    report.set("setup.user_cpu_s", t.user_cpu_s);
    report.set("setup.sys_cpu_s", t.sys_cpu_s);
    for (q, s) in QUERIES.iter().zip(&cold) {
        report.set(format!("{q}.cold_ms"), s.ms);
    }

    let tracer = Tracer::new();
    let traced_store = TracedStore::new(store, &tracer);
    let traced = timed_loop(
        &runner,
        &traced_store,
        Some(&tracer),
        &mut rng,
        opts.seconds / 2.0,
        min,
        &reference,
        &mut report,
    );
    let traced_latencies = traced.latencies();
    report.set(
        "trace.overhead_frac",
        traced_latencies.iter().sum::<f64>() / latencies.iter().sum::<f64>() - 1.0,
    );
    report.note("traced_iterations", traced.ms[0].len(), "count");
    for (i, q) in QUERIES.iter().enumerate() {
        report.set(format!("{q}.net_modelled_ms"), mean(&traced.net_ms[i]));
        report.set(format!("{q}.net_bytes"), mean(&traced.net_bytes[i]));
    }
    let spans = tracer.spans();
    let phases = report_phases(&spans, &mut report);

    if denormalized {
        report_pipeline_parts(&runner, &env, &mut report);
    } else {
        report_fact_probes(&runner, &env, &phases, &mut report);
    }

    let fact = if denormalized {
        "store_sales_dn"
    } else {
        "store_sales"
    };
    let sample = store.find_with(fact, &Filter::True, &FindOptions::new().with_limit(10_000));
    probes::bson_codec(&sample, &mut report);
    probes::wal(&sample, &opts.scratch_dir(), &mut report);
    let dat_bytes = probes::dat_bytes(sf, denormalized);
    report.set(
        "stored_bytes_per_dat_byte",
        stored as f64 / dat_bytes as f64,
    );

    opts.write_trace(spec.name, &tracer, &format!("\"sf\": {sf}, \"clients\": 1"));
    report
}

/// What the spans of the traced pass add up to, per query.
#[derive(Default, Clone, Copy)]
pub(crate) struct PhaseTotals {
    executions: u64,
    span_ns: u64,
    self_ns: u64,
    phase_ns: [u64; 6],
    semi_join_rows: u64,
    update_calls: u64,
    insert_ns: u64,
    insert_rows: u64,
}

/// Sums the phase spans under each query span, sets the phase metrics
/// (means per execution, so phases plus self equal the mean query span)
/// and returns the totals per query label.
pub(crate) fn report_phases(spans: &[Span], report: &mut Report) -> BTreeMap<String, PhaseTotals> {
    let mut children: BTreeMap<u32, Vec<&Span>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push(s);
        }
    }
    let mut totals: BTreeMap<String, PhaseTotals> = BTreeMap::new();
    for query in spans
        .iter()
        .filter(|s| s.parent.is_none() && s.op.is_none())
    {
        let t = totals.entry(query.name.clone()).or_default();
        let kids: Vec<&Span> = children
            .get(&query.id)
            .map(|k| {
                k.iter()
                    .copied()
                    .filter(|c| c.phase != Phase::Other)
                    .collect()
            })
            .unwrap_or_default();
        t.executions += 1;
        t.span_ns += query.duration_ns();
        t.self_ns += self_time_ns(query, &kids);
        for c in kids {
            let slot = Phase::REPORTED
                .iter()
                .position(|p| *p == c.phase)
                .expect("reported");
            t.phase_ns[slot] += c.duration_ns();
            match (c.phase, c.op) {
                (Phase::SemiJoin, _) => t.semi_join_rows += c.rows_out,
                (Phase::EmbedUpdate, _) => t.update_calls += 1,
                (Phase::IntermWrite, Some(StoreOp::Insert)) => {
                    t.insert_ns += c.duration_ns();
                    t.insert_rows += c.rows_in;
                }
                _ => {}
            }
        }
    }
    for (q, t) in &totals {
        let per_exec_ms = |ns: u64| ns as f64 / 1e6 / t.executions as f64;
        for (slot, phase) in Phase::REPORTED.iter().enumerate() {
            report.set(
                format!("{q}.{}_ms", phase.label()),
                per_exec_ms(t.phase_ns[slot]),
            );
        }
        report.set(format!("{q}.self_ms"), per_exec_ms(t.self_ns));
        report.note(format!("{q}.traced_span_ms"), per_exec_ms(t.span_ns), "ms");
        report.set(
            format!("{q}.semi_join_rows"),
            (t.semi_join_rows / t.executions) as f64,
        );
        report.set(
            format!("{q}.embed_update_calls"),
            (t.update_calls / t.executions) as f64,
        );
    }
    totals
}

fn time_ms<T>(f: impl Fn() -> T) -> f64 {
    let samples: Vec<f64> = (0..PROBE_REPEATS)
        .map(|_| {
            let start = Instant::now();
            std::hint::black_box(f());
            start.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    median(&samples)
}

/// The collections a fact probe reads: the one collection on a
/// stand-alone database, one per contacted shard on the cluster.
fn probe_legs(env: &Environment, collection: &str, filter: &Filter) -> Vec<Arc<Collection>> {
    match env {
        Environment::Standalone(db) => db.get_collection(collection).into_iter().collect(),
        Environment::Sharded(cluster) => {
            let router = cluster.router();
            let route = router.explain_route(collection, filter, &FindOptions::default());
            router
                .shards()
                .iter()
                .filter(|s| route.shards.contains(&s.id()))
                .filter_map(|s| s.db().get_collection(collection).ok())
                .collect()
        }
    }
}

/// Captures each query's fact-probe filters in one untimed pass, then
/// explains them and replays the last one (the probe that fills the
/// intermediate collection) through the store and against each leg.
fn report_fact_probes(
    runner: &Runner,
    env: &Environment,
    phases: &BTreeMap<String, PhaseTotals>,
    report: &mut Report,
) {
    let store = env.store();
    let tracer = Tracer::new();
    let capturing = TracedStore::capturing(store, &tracer);
    let mut all_examined = 0u64;
    for (&q, label) in QueryId::ALL.iter().zip(QUERIES) {
        report.attempted += 1;
        if runner.run_query(&capturing, q).is_err() {
            report.failed += 1;
        }
        let probes = tracer.take_captured();
        let (mut examined, mut returned) = (0u64, 0u64);
        for (collection, filter) in &probes {
            for leg in probe_legs(env, collection, filter) {
                let e = leg.explain(filter);
                examined += e.docs_examined as u64;
                returned += e.docs_returned as u64;
            }
        }
        all_examined += examined;
        report.set(
            format!("{label}.examined_per_returned"),
            examined as f64 / returned.max(1) as f64,
        );
        let Some((collection, filter)) = probes.last() else {
            continue;
        };
        let legs = probe_legs(env, collection, filter);
        let leg_ms: Vec<f64> = legs
            .iter()
            .map(|leg| time_ms(|| leg.find(filter)))
            .collect();
        report.set(
            format!("{label}.route_fact_ms"),
            time_ms(|| store.find(collection, filter)),
        );
        report.set(
            format!("{label}.shard_fact_max_ms"),
            leg_ms.iter().copied().fold(0.0, f64::max),
        );
        report.set(format!("{label}.shard_fact_sum_ms"), leg_ms.iter().sum());
        report.set(format!("{label}.legs"), legs.len() as f64);
    }

    // Unit costs, over all four queries' traced executions.
    let sum = |f: fn(&PhaseTotals) -> f64| phases.values().map(f).sum::<f64>();
    let semi_slot = Phase::REPORTED
        .iter()
        .position(|p| *p == Phase::SemiJoin)
        .expect("reported");
    let update_slot = Phase::REPORTED
        .iter()
        .position(|p| *p == Phase::EmbedUpdate)
        .expect("reported");
    let semi_ns_per_exec: f64 = phases
        .values()
        .map(|t| t.phase_ns[semi_slot] as f64 / t.executions as f64)
        .sum();
    report.set(
        "docstore.scan_ns_per_doc",
        semi_ns_per_exec / all_examined.max(1) as f64,
    );
    report.set(
        "docstore.update_us_per_call",
        phases
            .values()
            .map(|t| t.phase_ns[update_slot] as f64)
            .sum::<f64>()
            / 1e3
            / sum(|t| t.update_calls as f64).max(1.0),
    );
    report.set(
        "docstore.insert_us_per_doc",
        sum(|t| t.insert_ns as f64) / 1e3 / sum(|t| t.insert_rows as f64).max(1.0),
    );
}

/// Splits a denormalized query's latency into its leading `$match`
/// (timed as a `count` of the same filter), its trailing `$out` (the
/// pipeline with minus without it) and the rest (`$group`, `$sort`,
/// `$project`).
fn report_pipeline_parts(runner: &Runner, env: &Environment, report: &mut Report) {
    let Environment::Standalone(db) = env else {
        return;
    };
    let store = env.store();
    for (&q, label) in QueryId::ALL.iter().zip(QUERIES) {
        let (source, pipeline) = denormalized_pipeline(q, &runner.params);
        let stages = pipeline.stages();
        let without_out = stages
            .iter()
            .filter(|s| !matches!(s, Stage::Out(_)))
            .cloned()
            .fold(Pipeline::new(), Pipeline::stage);
        let full_ms = time_ms(|| store.aggregate(&source, &pipeline));
        let no_out_ms = time_ms(|| store.aggregate(&source, &without_out));
        let mut match_ms = 0.0;
        if let Some(Stage::Match(filter)) = stages.first() {
            match_ms = time_ms(|| store.count(&source, filter));
            if let Ok(coll) = db.get_collection(&source) {
                let e = coll.explain(filter);
                report.set(
                    format!("{label}.examined_per_returned"),
                    e.docs_examined as f64 / e.docs_returned.max(1) as f64,
                );
            }
        }
        report.set(format!("{label}.match_ms"), match_ms);
        // Differences of two noisy medians; a part cannot take negative time.
        report.set(format!("{label}.out_ms"), (full_ms - no_out_ms).max(0.0));
        report.set(format!("{label}.rest_ms"), (no_out_ms - match_ms).max(0.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_query_order_is_a_permutation_and_follows_the_seed() {
        let orders = |seed| {
            let mut rng = SmallRng::seed_from_u64(seed);
            (0..20).map(|_| query_order(&mut rng)).collect::<Vec<_>>()
        };
        for order in orders(1) {
            let mut sorted = order;
            sorted.sort_unstable();
            assert_eq!(sorted, IN_ORDER);
        }
        assert_eq!(orders(1), orders(1));
        assert_ne!(orders(1), orders(2));
        assert!(orders(1).iter().any(|o| *o != IN_ORDER));
    }

    #[test]
    fn phases_and_self_time_add_up_to_the_query_span() {
        let db = Database::new("t");
        let tracer = Tracer::new();
        let store = TracedStore::new(&db, &tracer);
        for i in 0..3 {
            tracer.query(format!("t/{i}/q7"), "q7", || {
                store
                    .insert_many(
                        "query7_intermediate",
                        vec![doclite_bson::doc! {"k" => 1i64}],
                    )
                    .unwrap();
                store.find("store_sales", &Filter::True);
                store.count("store_sales", &Filter::True);
            });
        }
        let mut report = Report::default();
        let totals = report_phases(&tracer.spans(), &mut report);
        let t = totals["q7"];
        assert_eq!((t.executions, t.semi_join_rows, t.insert_rows), (3, 0, 3));
        assert_eq!(t.phase_ns.iter().sum::<u64>() + t.self_ns, t.span_ns);
        let reported: f64 = Phase::REPORTED
            .iter()
            .map(|p| report.get(&format!("q7.{}_ms", p.label())).unwrap())
            .sum::<f64>()
            + report.get("q7.self_ms").unwrap();
        assert!((reported - t.span_ns as f64 / 3e6).abs() < 1e-9);
    }
}
