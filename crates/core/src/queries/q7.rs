//! Query 7 (thesis Fig 3.5): average quantity / list price / coupon /
//! sales price per item, for a demographic slice in one year, where the
//! promotion used no email or event channel.

use super::{filter_dim_pks, output_collection, semi_join_into};
use crate::denormalize::embed_documents_from;
use crate::store::Store;
use doclite_bson::Document;
use doclite_docstore::{
    Accumulator, Expr, Filter, GroupId, Pipeline, ProjectField, Result,
};
use doclite_tpcds::queries::Q7Params;
use doclite_tpcds::QueryId;

/// The Appendix B pipeline against the denormalized `store_sales`
/// collection.
pub fn denormalized_pipeline(p: &Q7Params) -> Pipeline {
    Pipeline::new()
        .match_stage(Filter::and([
            Filter::eq("ss_cdemo_sk.cd_gender", p.gender),
            Filter::eq("ss_cdemo_sk.cd_marital_status", p.marital_status),
            Filter::eq("ss_cdemo_sk.cd_education_status", p.education_status),
            Filter::or([
                Filter::eq("ss_promo_sk.p_channel_email", "N"),
                Filter::eq("ss_promo_sk.p_channel_event", "N"),
            ]),
            Filter::eq("ss_sold_date_sk.d_year", p.year),
            Filter::exists("ss_item_sk.i_item_sk"),
        ]))
        .group(
            GroupId::Expr(Expr::field("ss_item_sk.i_item_id")),
            [
                ("agg1", Accumulator::avg_field("ss_quantity")),
                ("agg2", Accumulator::avg_field("ss_list_price")),
                ("agg3", Accumulator::avg_field("ss_coupon_amt")),
                ("agg4", Accumulator::avg_field("ss_sales_price")),
            ],
        )
        .sort([("_id", 1)])
        .project([
            ("i_item_id", ProjectField::Compute(Expr::field("_id"))),
            ("agg1", ProjectField::Include),
            ("agg2", ProjectField::Include),
            ("agg3", ProjectField::Include),
            ("agg4", ProjectField::Include),
        ])
        .out(output_collection(QueryId::Q7))
}

fn cd_filter(p: &Q7Params) -> Filter {
    Filter::and([
        Filter::eq("cd_gender", p.gender),
        Filter::eq("cd_marital_status", p.marital_status),
        Filter::eq("cd_education_status", p.education_status),
    ])
}

fn promo_filter() -> Filter {
    Filter::or([
        Filter::eq("p_channel_email", "N"),
        Filter::eq("p_channel_event", "N"),
    ])
}

/// Step i of Fig 4.8, sequentially (the thesis: "the entire query was
/// performed on a single thread").
fn dim_pks(store: &dyn Store, p: &Q7Params) -> (Vec<doclite_bson::Value>, Vec<doclite_bson::Value>, Vec<doclite_bson::Value>) {
    let cd = filter_dim_pks(store, "customer_demographics", &cd_filter(p), "cd_demo_sk");
    let promo = filter_dim_pks(store, "promotion", &promo_filter(), "p_promo_sk");
    let date = filter_dim_pks(store, "date_dim", &Filter::eq("d_year", p.year), "d_date_sk");
    (cd, promo, date)
}

/// Step i with one thread per dimension collection — the thesis's
/// future-work suggestion (Section 5.2): "individual threads can be used
/// to query each collection in parallel". Collection-level locking makes
/// this safe, exactly as the thesis argues.
fn dim_pks_parallel(
    store: &dyn Store,
    p: &Q7Params,
) -> (Vec<doclite_bson::Value>, Vec<doclite_bson::Value>, Vec<doclite_bson::Value>) {
    std::thread::scope(|s| {
        let cd = s.spawn(|| {
            filter_dim_pks(store, "customer_demographics", &cd_filter(p), "cd_demo_sk")
        });
        let promo =
            s.spawn(|| filter_dim_pks(store, "promotion", &promo_filter(), "p_promo_sk"));
        let date = s.spawn(|| {
            filter_dim_pks(store, "date_dim", &Filter::eq("d_year", p.year), "d_date_sk")
        });
        (
            cd.join().expect("cd filter"),
            promo.join().expect("promo filter"),
            date.join().expect("date filter"),
        )
    })
}

/// The Fig 4.8 algorithm against the normalized model.
pub fn run_normalized(store: &dyn Store, p: &Q7Params) -> Result<Vec<Document>> {
    let (cd_pks, promo_pks, date_pks) = dim_pks(store, p);
    run_after_dim_filter(store, cd_pks, promo_pks, date_pks)
}

/// The Fig 4.8 algorithm with multithreaded dimension filtering (the
/// Section 5.2 extension). Same answers as [`run_normalized`].
pub fn run_normalized_parallel(store: &dyn Store, p: &Q7Params) -> Result<Vec<Document>> {
    let (cd_pks, promo_pks, date_pks) = dim_pks_parallel(store, p);
    run_after_dim_filter(store, cd_pks, promo_pks, date_pks)
}

fn run_after_dim_filter(
    store: &dyn Store,
    cd_pks: Vec<doclite_bson::Value>,
    promo_pks: Vec<doclite_bson::Value>,
    date_pks: Vec<doclite_bson::Value>,
) -> Result<Vec<Document>> {

    // Step ii: semi-join the fact collection.
    let intermediate = "query7_intermediate";
    semi_join_into(
        store,
        "store_sales",
        &[
            ("ss_cdemo_sk", &cd_pks),
            ("ss_promo_sk", &promo_pks),
            ("ss_sold_date_sk", &date_pks),
        ],
        Filter::exists("ss_item_sk"),
        intermediate,
        &[],
    )?;

    // Step iii: embed only the dimension used by the aggregation (item,
    // for i_item_id). As in MongoDB, the intermediate collection has no
    // secondary indexes: each embedding update scans it — the cost the
    // thesis identifies as what makes the normalized model slow.
    let items = store.find("item", &Filter::True);
    embed_documents_from(store, intermediate, "ss_item_sk", "i_item_sk", items)?;

    // Step iv: aggregate.
    let pipeline = Pipeline::new()
        .group(
            GroupId::Expr(Expr::field("ss_item_sk.i_item_id")),
            [
                ("agg1", Accumulator::avg_field("ss_quantity")),
                ("agg2", Accumulator::avg_field("ss_list_price")),
                ("agg3", Accumulator::avg_field("ss_coupon_amt")),
                ("agg4", Accumulator::avg_field("ss_sales_price")),
            ],
        )
        .sort([("_id", 1)])
        .project([
            ("i_item_id", ProjectField::Compute(Expr::field("_id"))),
            ("agg1", ProjectField::Include),
            ("agg2", ProjectField::Include),
            ("agg3", ProjectField::Include),
            ("agg4", ProjectField::Include),
        ])
        .out(output_collection(QueryId::Q7));
    store.aggregate(intermediate, &pipeline)
}
