//! Query 46 (thesis Fig 3.7): weekend purchases in target cities by
//! households with a given dependent/vehicle profile, grouped per
//! ticket, keeping customers who bought in a city other than their
//! current one.

use super::output_collection;
use doclite_docstore::{Accumulator, CmpOp, Expr, Filter, GroupId, Pipeline, ProjectField};
use doclite_tpcds::queries::Q46Params;
use doclite_tpcds::QueryId;

/// The Appendix B pipeline against the denormalized `store_sales`
/// collection (customer documents carry their embedded current address).
pub fn denormalized_pipeline(p: &Q46Params) -> Pipeline {
    Pipeline::new()
        .match_stage(Filter::and([
            Filter::is_in("ss_store_sk.s_city", p.cities.clone()),
            Filter::is_in("ss_sold_date_sk.d_dow", p.dows.to_vec()),
            Filter::is_in("ss_sold_date_sk.d_year", p.years.to_vec()),
            Filter::or([
                Filter::eq("ss_hdemo_sk.hd_dep_count", p.dep_count),
                Filter::eq("ss_hdemo_sk.hd_vehicle_count", p.vehicle_count),
            ]),
            Filter::exists("ss_addr_sk.ca_address_sk"),
            Filter::exists("ss_customer_sk.c_customer_sk"),
        ]))
        .project([
            (
                "value",
                ProjectField::Compute(Expr::cmp(
                    CmpOp::Ne,
                    Expr::field("ss_customer_sk.c_current_addr_sk.ca_city"),
                    Expr::field("ss_addr_sk.ca_city"),
                )),
            ),
            ("c_last_name", ProjectField::Compute(Expr::field("ss_customer_sk.c_last_name"))),
            (
                "c_first_name",
                ProjectField::Compute(Expr::field("ss_customer_sk.c_first_name")),
            ),
            ("bought_city", ProjectField::Compute(Expr::field("ss_addr_sk.ca_city"))),
            (
                "ca_city",
                ProjectField::Compute(Expr::field("ss_customer_sk.c_current_addr_sk.ca_city")),
            ),
            ("ss_ticket_number", ProjectField::Include),
            (
                "ss_customer_sk",
                ProjectField::Compute(Expr::field("ss_customer_sk.c_customer_sk")),
            ),
            ("ss_addr_sk", ProjectField::Compute(Expr::field("ss_addr_sk.ca_address_sk"))),
            ("amt", ProjectField::Compute(Expr::field("ss_coupon_amt"))),
            ("profit", ProjectField::Compute(Expr::field("ss_net_profit"))),
        ])
        // `value` is current city ≠ bought city.
        .match_stage(Filter::eq("value", true))
        .group(
            GroupId::Expr(Expr::Doc(vec![
                ("ss_ticket_number".into(), Expr::field("ss_ticket_number")),
                ("ss_customer_sk".into(), Expr::field("ss_customer_sk")),
                ("ss_addr_sk".into(), Expr::field("ss_addr_sk")),
                ("ca_city".into(), Expr::field("ca_city")),
                ("bought_city".into(), Expr::field("bought_city")),
                ("c_last_name".into(), Expr::field("c_last_name")),
                ("c_first_name".into(), Expr::field("c_first_name")),
            ])),
            [
                ("amt", Accumulator::sum_field("amt")),
                ("profit", Accumulator::sum_field("profit")),
            ],
        )
        .project([
            ("_id", ProjectField::Exclude),
            ("c_last_name", ProjectField::Compute(Expr::field("_id.c_last_name"))),
            ("c_first_name", ProjectField::Compute(Expr::field("_id.c_first_name"))),
            ("ca_city", ProjectField::Compute(Expr::field("_id.ca_city"))),
            ("bought_city", ProjectField::Compute(Expr::field("_id.bought_city"))),
            (
                "ss_ticket_number",
                ProjectField::Compute(Expr::field("_id.ss_ticket_number")),
            ),
            ("amt", ProjectField::Include),
            ("profit", ProjectField::Include),
        ])
        .sort([
            ("c_last_name", 1),
            ("c_first_name", 1),
            ("ca_city", 1),
            ("bought_city", 1),
            ("ss_ticket_number", 1),
        ])
        .out(output_collection(QueryId::Q46))
}
