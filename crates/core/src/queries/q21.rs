//! Query 21 (thesis Fig 3.6): per warehouse × item, the on-hand
//! inventory before and after a pivot date, keeping the pairs whose
//! after/before ratio lies in [2/3, 3/2].

use super::output_collection;
use doclite_docstore::{Accumulator, CmpOp, Expr, Filter, GroupId, Pipeline, ProjectField};
use doclite_tpcds::queries::Q21Params;
use doclite_tpcds::QueryId;

/// The Appendix B pipeline against the denormalized `inventory`
/// collection.
pub fn denormalized_pipeline(p: &Q21Params) -> Pipeline {
    let pivot = p.pivot_date.to_iso();
    let lo = p.pivot_date.plus_days(-p.window_days).to_iso();
    let hi = p.pivot_date.plus_days(p.window_days).to_iso();
    // The on-hand quantity on one side of the pivot, over the embedded
    // date's `d_date` (ISO date strings compare correctly under
    // lexicographic order).
    let side = |op| {
        Accumulator::Sum(Expr::cond(
            Expr::cmp(op, Expr::field("inv_date_sk.d_date"), Expr::lit(pivot.as_str())),
            Expr::field("inv_quantity_on_hand"),
            Expr::lit(0i64),
        ))
    };
    Pipeline::new()
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
            [("inv_before", side(CmpOp::Lt)), ("inv_after", side(CmpOp::Gte))],
        )
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
