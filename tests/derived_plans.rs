//! The derived Fig 4.8 plan is the denormalized pipeline's meaning over
//! the base collections: random Query 7-shaped pipelines — a random
//! subset of dimension predicates, a random embedded group key — give
//! the same answers through `run_plan(normalize(p))` on the normalized
//! collections as `p` itself does on `store_sales_dn`.

mod common;

use common::assert_results_equivalent;
use doclite::core::experiment::{
    setup_environment, DataModel, Deployment, Environment, ExperimentSpec, SetupOptions,
};
use doclite::core::{normalize, run_plan};
use doclite::docstore::{Accumulator, Expr, Filter, GroupId, Pipeline};
use doclite::sharding::NetworkModel;
use doclite::tpcds::TableId;
use proptest::prelude::*;
use std::sync::OnceLock;

const SF: f64 = 0.003;

/// One stand-alone database holding the base collections and their
/// denormalized copies, built once.
fn environment() -> &'static Environment {
    static ENV: OnceLock<Environment> = OnceLock::new();
    ENV.get_or_init(|| {
        let spec = ExperimentSpec {
            id: 3,
            sf: SF,
            model: DataModel::Denormalized,
            deployment: Deployment::Standalone,
        };
        let opts = SetupOptions { network: NetworkModel::free(), ..SetupOptions::default() };
        setup_environment(&spec, &opts).unwrap()
    })
}

fn pick(values: &'static [&'static str]) -> impl Strategy<Value = &'static str> {
    (0..values.len()).prop_map(move |i| values[i])
}

/// No predicate on the dimension, or one Eq / In / range predicate.
fn arb_dimension_filter(
    eq: (&'static str, &'static [&'static str]),
    is_in: (&'static str, &'static [&'static str]),
    range: (&'static str, f64, f64),
) -> BoxedStrategy<Option<Filter>> {
    let (path, lo, hi) = range;
    prop_oneof![
        2 => Just(None),
        1 => pick(eq.1).prop_map(move |v| Some(Filter::eq(eq.0, v))),
        1 => (pick(is_in.1), pick(is_in.1))
            .prop_map(move |(a, b)| Some(Filter::is_in(is_in.0, [a, b]))),
        1 => (lo..hi, lo..hi)
            .prop_map(move |(a, b)| Some(Filter::between(path, a.min(b), a.max(b)))),
    ]
    .boxed()
}

fn arb_pipeline() -> impl Strategy<Value = Pipeline> {
    let demographics = arb_dimension_filter(
        ("ss_cdemo_sk.cd_gender", &["M", "F"]),
        ("ss_cdemo_sk.cd_marital_status", &["M", "S", "D", "W", "U"]),
        ("ss_cdemo_sk.cd_purchase_estimate", 500.0, 10_000.0),
    );
    let date = arb_dimension_filter(
        ("ss_sold_date_sk.d_day_name", &["Monday", "Saturday", "Sunday"]),
        ("ss_sold_date_sk.d_quarter_name", &["1998Q1", "2000Q2", "2001Q3", "2002Q4"]),
        ("ss_sold_date_sk.d_year", 1998.0, 2003.0),
    );
    let promotion = arb_dimension_filter(
        ("ss_promo_sk.p_channel_email", &["N", "Y"]),
        ("ss_promo_sk.p_channel_event", &["N", "Y"]),
        ("ss_promo_sk.p_response_target", 1.0, 5.0),
    );
    let item = arb_dimension_filter(
        ("ss_item_sk.i_category", &["Books", "Home", "Music", "Women"]),
        ("ss_item_sk.i_color", &["almond", "azure", "beige", "black", "blue"]),
        ("ss_item_sk.i_current_price", 0.5, 40.0),
    );
    let key = pick(&[
        "ss_item_sk.i_item_id",
        "ss_item_sk.i_category",
        "ss_sold_date_sk.d_moy",
        "ss_cdemo_sk.cd_education_status",
        "ss_promo_sk.p_promo_name",
        // Through promotion's own foreign key: a nested embed.
        "ss_promo_sk.p_item_sk.i_category",
    ]);
    // A conjunct on the fact itself, which step ii applies.
    let quantity = prop_oneof![
        Just(None),
        (1..100i64, 1..100i64)
            .prop_map(|(a, b)| Some(Filter::between("ss_quantity", a.min(b), a.max(b)))),
    ];
    ((demographics, date, promotion, item), quantity, key, any::<bool>()).prop_map(
        |((cd, date, promo, item), quantity, key, item_exists)| {
            let mut conjuncts: Vec<Filter> =
                [cd, date, promo, item, quantity].into_iter().flatten().collect();
            if item_exists {
                conjuncts.push(Filter::exists("ss_item_sk.i_item_sk"));
            }
            Pipeline::new()
                .match_stage(Filter::and(conjuncts))
                .group(
                    GroupId::Expr(Expr::field(key)),
                    [
                        ("agg1", Accumulator::avg_field("ss_quantity")),
                        ("agg2", Accumulator::avg_field("ss_sales_price")),
                        ("n", Accumulator::count()),
                    ],
                )
                .sort([("_id", 1)])
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn derived_plan_agrees_with_the_denormalized_pipeline(p in arb_pipeline()) {
        let store = environment().store();
        let plan = normalize(TableId::StoreSales, &p).unwrap();
        let normalized = run_plan(store, &plan).unwrap();
        let denormalized = store.aggregate("store_sales_dn", &p).unwrap();
        assert_results_equivalent(&format!("{p:?}"), &normalized, &denormalized);
    }
}
