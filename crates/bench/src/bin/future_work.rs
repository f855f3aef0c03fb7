//! The thesis's future-work scenarios (Section 5.2), measured:
//!
//! 1. **Denormalized model on the sharded cluster** — "the denormalized
//!    data model can be deployed on the sharded cluster and its
//!    performance can be studied": `setup_environment` reshards the
//!    denormalized fact collections by the same keys as their normalized
//!    counterparts and balances them, and the four queries run through
//!    the router — each leg ships its partial, the router merges.
//! 2. **Multithreaded dimension filtering** — "individual threads can be
//!    used to query each collection in parallel": Query 7's step-i
//!    filters (its derived plan's `dim_filters`) run one thread per
//!    dimension.
//!
//! Run with `cargo run --release -p doclite-bench --bin future_work`.

use doclite_bench::{runs, sf_small};
use doclite_core::experiment::{
    setup_environment, time_query, DataModel, Deployment, Environment, ExperimentSpec,
    SetupOptions,
};
use doclite_core::queries::{denormalized_pipeline, fact_of};
use doclite_core::{fmt_duration, normalize, run_plan, TextTable};
use doclite_tpcds::{QueryId, QueryParams};
use std::time::Instant;

fn main() {
    let sf = sf_small();
    let params = QueryParams::for_scale(sf);
    let opts = SetupOptions::default();
    let n_runs = runs();

    // ---- 1. denormalized on sharded ------------------------------------
    eprintln!("building denormalized stand-alone environment (SF {sf})…");
    let standalone = setup_environment(
        &ExperimentSpec { id: 7, sf, model: DataModel::Denormalized, deployment: Deployment::Standalone },
        &opts,
    )
    .expect("standalone setup");

    eprintln!("building denormalized sharded environment (SF {sf})…");
    let sharded = setup_environment(
        &ExperimentSpec { id: 8, sf, model: DataModel::Denormalized, deployment: Deployment::Sharded },
        &opts,
    )
    .expect("sharded setup");

    let mut t = TextTable::new(["", "Query 7", "Query 21", "Query 46", "Query 50"]);
    for (label, env) in [("Denorm / Stand-alone", &standalone), ("Denorm / Sharded", &sharded)] {
        let mut cells = vec![label.to_owned()];
        for q in QueryId::ALL {
            let timing =
                time_query(env, q, &params, DataModel::Denormalized, n_runs).expect("query");
            cells.push(fmt_duration(timing.best));
        }
        t.row(cells);
    }
    println!("\nFuture work 1: denormalized data model, stand-alone vs sharded (best of {n_runs})");
    println!("{}", t.render());

    // Both environments must agree on answers.
    for q in QueryId::ALL {
        let a = doclite_core::run_denormalized(standalone.store(), q, &params).expect("standalone");
        let b = doclite_core::run_denormalized(sharded.store(), q, &params).expect("sharded");
        assert_eq!(a.len(), b.len(), "{q}: deployments disagree");
    }
    println!("✓ both deployments return identical result counts for all four queries\n");

    // ---- 2. multithreaded dimension filtering --------------------------
    let norm: Environment = setup_environment(
        &ExperimentSpec { id: 9, sf, model: DataModel::Normalized, deployment: Deployment::Standalone },
        &opts,
    )
    .expect("normalized setup");

    let bench = |f: &dyn Fn() -> usize| {
        let mut best = std::time::Duration::MAX;
        let mut rows = 0;
        for _ in 0..n_runs {
            let t0 = Instant::now();
            rows = f();
            best = best.min(t0.elapsed());
        }
        (best, rows)
    };
    let store = norm.store();
    let (_, pipeline) = denormalized_pipeline(QueryId::Q7, &params);
    let plan = normalize(fact_of(QueryId::Q7), &pipeline).expect("Q7 derives");
    let (seq, rows_a) = bench(&|| run_plan(store, &plan).expect("seq").len());
    let (par, rows_b) = bench(&|| {
        // Collection-level locking makes concurrent dimension reads safe,
        // exactly as the thesis argues.
        let keys: Vec<_> = std::thread::scope(|s| {
            let legs: Vec<_> =
                plan.dim_filters.iter().map(|d| s.spawn(|| d.keys(store))).collect();
            legs.into_iter().map(|l| l.join().expect("dimension filter")).collect()
        });
        plan.finish(store, &keys).expect("par").len()
    });
    assert_eq!(rows_a, rows_b, "parallel variant changed the answer");

    let mut t = TextTable::new(["Query 7 (normalized)", "best time", "rows"]);
    t.row(["single thread (thesis)".to_owned(), fmt_duration(seq), rows_a.to_string()]);
    t.row(["thread per dimension (5.2)".to_owned(), fmt_duration(par), rows_b.to_string()]);
    println!("Future work 2: multithreaded dimension filtering");
    println!("{}", t.render());
}
