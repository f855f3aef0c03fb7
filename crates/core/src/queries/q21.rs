//! Query 21 (thesis Fig 3.6): per warehouse × item, the on-hand
//! inventory before and after a pivot date, keeping the pairs whose
//! after/before ratio lies in [2/3, 3/2].

use super::{filter_dim_pks, output_collection, semi_join_into};
use crate::denormalize::embed_documents_from;
use crate::store::Store;
use doclite_bson::Document;
use doclite_docstore::{
    Accumulator, CmpOp, Expr, Filter, GroupId, Pipeline, ProjectField, Result,
};
use doclite_tpcds::queries::Q21Params;
use doclite_tpcds::QueryId;

fn window(p: &Q21Params) -> (String, String, String) {
    let pivot = p.pivot_date.to_iso();
    let lo = p.pivot_date.plus_days(-p.window_days).to_iso();
    let hi = p.pivot_date.plus_days(p.window_days).to_iso();
    (pivot, lo, hi)
}

/// The before/after accumulators over the embedded date's `d_date`
/// (ISO date strings compare correctly under lexicographic order).
fn before_after(date_path: &str, qty_path: &str, pivot: &str) -> [(String, Accumulator); 2] {
    [
        (
            "inv_before".to_owned(),
            Accumulator::Sum(Expr::cond(
                Expr::cmp(CmpOp::Lt, Expr::field(date_path), Expr::lit(pivot)),
                Expr::field(qty_path),
                Expr::lit(0i64),
            )),
        ),
        (
            "inv_after".to_owned(),
            Accumulator::Sum(Expr::cond(
                Expr::cmp(CmpOp::Gte, Expr::field(date_path), Expr::lit(pivot)),
                Expr::field(qty_path),
                Expr::lit(0i64),
            )),
        ),
    ]
}

/// The shared tail of both strategies: ratio filter, final projection,
/// sort, `$out`.
fn tail(pipeline: Pipeline) -> Pipeline {
    pipeline
        .project([
            ("_id", ProjectField::Include),
            (
                "temp",
                ProjectField::Compute(Expr::divide(
                    Expr::field("inv_after"),
                    Expr::field("inv_before"),
                )),
            ),
            ("inv_before", ProjectField::Include),
            ("inv_after", ProjectField::Include),
        ])
        .match_stage(Filter::between("temp", 2.0 / 3.0, 3.0 / 2.0))
        .project([
            ("_id", ProjectField::Exclude),
            ("w_warehouse_name", ProjectField::Compute(Expr::field("_id.w_name"))),
            ("i_item_id", ProjectField::Compute(Expr::field("_id.i_id"))),
            ("inv_before", ProjectField::Include),
            ("inv_after", ProjectField::Include),
        ])
        .sort([("w_warehouse_name", 1), ("i_item_id", 1)])
        .out(output_collection(QueryId::Q21))
}

/// The Appendix B pipeline against the denormalized `inventory`
/// collection.
pub fn denormalized_pipeline(p: &Q21Params) -> Pipeline {
    let (pivot, lo, hi) = window(p);
    let head = Pipeline::new()
        .match_stage(Filter::and([
            Filter::between("inv_item_sk.i_current_price", p.price_lo, p.price_hi),
            Filter::exists("inv_warehouse_sk.w_warehouse_sk"),
            Filter::between("inv_date_sk.d_date", lo.as_str(), hi.as_str()),
        ]))
        .group(
            GroupId::Expr(Expr::Doc(vec![
                ("w_name".into(), Expr::field("inv_warehouse_sk.w_warehouse_name")),
                ("i_id".into(), Expr::field("inv_item_sk.i_item_id")),
            ])),
            before_after("inv_date_sk.d_date", "inv_quantity_on_hand", &pivot),
        );
    tail(head)
}

/// The Fig 4.8 algorithm against the normalized model.
pub fn run_normalized(store: &dyn Store, p: &Q21Params) -> Result<Vec<Document>> {
    let (pivot, lo, hi) = window(p);

    // Step i: filter item on price, date_dim on the ±30-day window.
    let item_filter = Filter::between("i_current_price", p.price_lo, p.price_hi);
    let item_pks = filter_dim_pks(store, "item", &item_filter, "i_item_sk");
    let date_filter = Filter::between("d_date", lo.as_str(), hi.as_str());
    let date_pks = filter_dim_pks(store, "date_dim", &date_filter, "d_date_sk");

    // Step ii: semi-join inventory.
    let intermediate = "query21_intermediate";
    semi_join_into(
        store,
        "inventory",
        &[("inv_item_sk", &item_pks), ("inv_date_sk", &date_pks)],
        Filter::exists("inv_warehouse_sk"),
        intermediate,
        &[],
    )?;

    // Step iii: embed the aggregation-relevant dimensions — warehouse
    // (name), the *filtered* items (id), and the *filtered* dates (d_date
    // drives the before/after conditions).
    let warehouses = store.find("warehouse", &Filter::True);
    embed_documents_from(store, intermediate, "inv_warehouse_sk", "w_warehouse_sk", warehouses)?;
    let items = store.find("item", &item_filter);
    embed_documents_from(store, intermediate, "inv_item_sk", "i_item_sk", items)?;
    let dates = store.find("date_dim", &date_filter);
    embed_documents_from(store, intermediate, "inv_date_sk", "d_date_sk", dates)?;

    // Step iv: aggregate (same shape as the denormalized pipeline).
    let head = Pipeline::new().group(
        GroupId::Expr(Expr::Doc(vec![
            ("w_name".into(), Expr::field("inv_warehouse_sk.w_warehouse_name")),
            ("i_id".into(), Expr::field("inv_item_sk.i_item_id")),
        ])),
        before_after("inv_date_sk.d_date", "inv_quantity_on_hand", &pivot),
    );
    store.aggregate(intermediate, &tail(head))
}
