//! Query 46 (thesis Fig 3.7): weekend purchases in target cities by
//! households with a given dependent/vehicle profile, grouped per
//! ticket, keeping customers who bought in a city other than their
//! current one.

use super::{distinct_values, filter_dim_pks, output_collection, semi_join_into};
use crate::denormalize::embed_documents_from;
use crate::store::Store;
use doclite_bson::{Document, Value};
use doclite_docstore::{
    Accumulator, CmpOp, Expr, Filter, GroupId, Pipeline, ProjectField, Result,
};
use doclite_tpcds::queries::Q46Params;
use doclite_tpcds::QueryId;

fn city_values(p: &Q46Params) -> Vec<Value> {
    p.cities.iter().map(|c| Value::from(*c)).collect()
}

/// The final group / flatten / sort / `$out` tail shared by both
/// strategies, operating on documents that carry the flattened fields
/// `value` (current ≠ bought), names, cities, ticket, amt, profit.
fn tail(pipeline: Pipeline) -> Pipeline {
    pipeline
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

/// The Appendix B pipeline against the denormalized `store_sales`
/// collection (customer documents carry their embedded current address).
pub fn denormalized_pipeline(p: &Q46Params) -> Pipeline {
    let head = Pipeline::new()
        .match_stage(Filter::and([
            Filter::In { path: "ss_store_sk.s_city".into(), values: city_values(p) },
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
        ]);
    tail(head)
}

/// The Fig 4.8 algorithm against the normalized model. The derived table
/// `dn` is materialized as an intermediate collection; the outer joins to
/// `customer` and `customer_address current_addr` become an embedding
/// pass over it.
pub fn run_normalized(store: &dyn Store, p: &Q46Params) -> Result<Vec<Document>> {
    // Step i: filter the predicated dimensions of the inner query.
    let date_pks = filter_dim_pks(
        store,
        "date_dim",
        &Filter::and([
            Filter::is_in("d_dow", p.dows.to_vec()),
            Filter::is_in("d_year", p.years.to_vec()),
        ]),
        "d_date_sk",
    );
    let store_pks = filter_dim_pks(
        store,
        "store",
        &Filter::In { path: "s_city".into(), values: city_values(p) },
        "s_store_sk",
    );
    let hd_pks = filter_dim_pks(
        store,
        "household_demographics",
        &Filter::or([
            Filter::eq("hd_dep_count", p.dep_count),
            Filter::eq("hd_vehicle_count", p.vehicle_count),
        ]),
        "hd_demo_sk",
    );

    // Step ii: semi-join store_sales, keeping the address and customer
    // keys its rows reference.
    let intermediate = "query46_intermediate";
    let (_, referenced) = semi_join_into(
        store,
        "store_sales",
        &[
            ("ss_sold_date_sk", &date_pks),
            ("ss_store_sk", &store_pks),
            ("ss_hdemo_sk", &hd_pks),
        ],
        Filter::and([Filter::exists("ss_addr_sk"), Filter::exists("ss_customer_sk")]),
        intermediate,
        &["ss_addr_sk", "ss_customer_sk"],
    )?;
    let [bought_addr_pks, customer_pks]: [Vec<Value>; 2] =
        referenced.try_into().expect("one key list per referenced field");

    // Step iii: embed the aggregation-relevant dimensions — the bought
    // address (ca_city groups the inner query) and the customer with the
    // customer's *current* address expanded (the outer query's
    // `current_addr` join). Only the referenced customers are fetched,
    // and only the addresses they or the sales rows point at: a
    // statement for any other key could match nothing.
    let mut customers =
        store.find("customer", &Filter::In { path: "c_customer_sk".into(), values: customer_pks });
    let mut addr_pks = distinct_values(&customers, "c_current_addr_sk");
    addr_pks.extend(bought_addr_pks.iter().cloned());
    let addresses =
        store.find("customer_address", &Filter::In { path: "ca_address_sk".into(), values: addr_pks });
    // Expand c_current_addr_sk in memory (customer ⋈ current_addr).
    let addr_by_pk: std::collections::HashMap<i64, &Document> = addresses
        .iter()
        .filter_map(|a| a.get("ca_address_sk").and_then(Value::as_i64).map(|k| (k, a)))
        .collect();
    for c in &mut customers {
        if let Some(k) = c.get("c_current_addr_sk").and_then(Value::as_i64) {
            if let Some(addr) = addr_by_pk.get(&k) {
                let mut a = (*addr).clone();
                a.remove("_id");
                c.set("c_current_addr_sk", Value::Document(a));
            }
        }
    }
    // Both embeds consume their rows, so the addresses are handed over
    // only after the expansion above has read them — and only the ones a
    // sales row bought at.
    let bought = |a: &Document| {
        a.get("ca_address_sk")
            .is_some_and(|k| bought_addr_pks.binary_search_by(|pk| pk.canonical_cmp(k)).is_ok())
    };
    let bought_addresses = addresses.into_iter().filter(bought).collect();
    embed_documents_from(store, intermediate, "ss_addr_sk", "ca_address_sk", bought_addresses)?;
    embed_documents_from(store, intermediate, "ss_customer_sk", "c_customer_sk", customers)?;

    // Step iv: flatten and aggregate (same tail as denormalized).
    let head = Pipeline::new().project([
        (
            "value",
            ProjectField::Compute(Expr::cmp(
                CmpOp::Ne,
                Expr::field("ss_customer_sk.c_current_addr_sk.ca_city"),
                Expr::field("ss_addr_sk.ca_city"),
            )),
        ),
        ("c_last_name", ProjectField::Compute(Expr::field("ss_customer_sk.c_last_name"))),
        ("c_first_name", ProjectField::Compute(Expr::field("ss_customer_sk.c_first_name"))),
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
    ]);
    store.aggregate(intermediate, &tail(head))
}
