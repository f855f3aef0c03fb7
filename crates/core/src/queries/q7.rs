//! Query 7 (thesis Fig 3.5): average quantity / list price / coupon /
//! sales price per item, for a demographic slice in one year, where the
//! promotion used no email or event channel.

use super::output_collection;
use doclite_docstore::{Accumulator, Expr, Filter, GroupId, Pipeline, ProjectField};
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
