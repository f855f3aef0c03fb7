//! The reproduction's central correctness property: every experimental
//! setup of thesis Table 4.1 — normalized stand-alone, normalized
//! sharded, denormalized stand-alone — and the future-work one of
//! Section 5.2 — denormalized sharded, whose balanced facts make every
//! query a multi-leg split aggregation — computes the *same answers* for
//! all four workload queries. (The thesis compares their runtimes; that
//! comparison is only meaningful because the results agree.)

mod common;

use common::assert_results_equivalent;
use doclite::core::experiment::{
    setup_environment, DataModel, Deployment, ExperimentSpec, SetupOptions,
};
use doclite::core::queries::{run_denormalized, run_normalized};
use doclite::sharding::NetworkModel;
use doclite::tpcds::{QueryId, QueryParams};

const SF: f64 = 0.003;

fn opts() -> SetupOptions {
    SetupOptions { network: NetworkModel::free(), max_chunk_size: 128 * 1024, ..SetupOptions::default() }
}

#[test]
fn all_four_setups_agree_on_every_query() {
    let params = QueryParams::for_scale(SF);

    let norm_standalone = setup_environment(
        &ExperimentSpec {
            id: 2,
            sf: SF,
            model: DataModel::Normalized,
            deployment: Deployment::Standalone,
        },
        &opts(),
    )
    .unwrap();
    let denorm_standalone = setup_environment(
        &ExperimentSpec {
            id: 3,
            sf: SF,
            model: DataModel::Denormalized,
            deployment: Deployment::Standalone,
        },
        &opts(),
    )
    .unwrap();
    let norm_sharded = setup_environment(
        &ExperimentSpec {
            id: 1,
            sf: SF,
            model: DataModel::Normalized,
            deployment: Deployment::Sharded,
        },
        &opts(),
    )
    .unwrap();
    let denorm_sharded = setup_environment(
        &ExperimentSpec {
            id: 4,
            sf: SF,
            model: DataModel::Denormalized,
            deployment: Deployment::Sharded,
        },
        &opts(),
    )
    .unwrap();
    // Balanced: the ticket-keyed facts have chunks on every shard. The
    // inventory's hashed warehouse key has five values, so its chunks are
    // jumbo, and the balancer leaves jumbo chunks where they are (Fig 2.7,
    // as for the normalized inventory).
    let config = denorm_sharded.cluster().unwrap().router().config();
    for facts in ["store_sales_dn", "store_returns_dn"] {
        let spread = config.meta(facts).unwrap().chunks_per_shard();
        assert_eq!(spread.len(), 3, "{facts}: chunks per shard {spread:?}");
    }
    let inventory = config.meta("inventory_dn").unwrap();
    assert!(inventory.chunks.iter().all(|c| c.jumbo), "{:?}", inventory.chunks);

    for q in QueryId::ALL {
        let a = run_normalized(norm_standalone.store(), q, &params).unwrap();
        let b = run_denormalized(denorm_standalone.store(), q, &params).unwrap();
        let c = run_normalized(norm_sharded.store(), q, &params).unwrap();
        let d = run_denormalized(denorm_sharded.store(), q, &params).unwrap();
        assert!(
            !a.is_empty(),
            "{q}: empty result set — the workload generator should give every query rows at SF {SF}"
        );
        assert_results_equivalent(&format!("{q}: normalized vs denormalized"), &a, &b);
        assert_results_equivalent(&format!("{q}: standalone vs sharded"), &a, &c);
        assert_results_equivalent(&format!("{q}: denormalized standalone vs sharded"), &b, &d);
    }
}

#[test]
fn queries_materialize_output_collections() {
    let params = QueryParams::for_scale(SF);
    let env = setup_environment(
        &ExperimentSpec {
            id: 3,
            sf: SF,
            model: DataModel::Denormalized,
            deployment: Deployment::Standalone,
        },
        &opts(),
    )
    .unwrap();
    for q in QueryId::ALL {
        let docs = run_denormalized(env.store(), q, &params).unwrap();
        let out = doclite::core::queries::output_collection(q);
        assert_eq!(
            env.store().collection_len(out),
            docs.len(),
            "{q}: $out collection size"
        );
    }
}
