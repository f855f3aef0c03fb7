//! Query 50 (thesis Fig 3.8): per store, the count of returns bucketed
//! by days-to-return (≤30, 31–60, 61–90, 91–120, >120) for returns
//! booked in one month.
//!
//! This is the query whose predicates carry the fact collections' shard
//! key (ticket number), which is why it is the one query the thesis
//! found *faster* on the sharded deployment (Section 4.3 item iii).

use super::{distinct_values, output_collection, semi_join_into};
use crate::denormalize::embed_documents_from;
use crate::store::Store;
use doclite_bson::{Document, Value};
use doclite_docstore::{
    Accumulator, BulkUpdate, CmpOp, Expr, Filter, GroupId, Pipeline, ProjectField, Result,
    UpdateSpec,
};
use doclite_tpcds::queries::Q50Params;
use doclite_tpcds::QueryId;

const STORE_FIELDS: [&str; 10] = [
    "s_store_name",
    "s_company_id",
    "s_street_number",
    "s_street_name",
    "s_street_type",
    "s_suite_number",
    "s_city",
    "s_county",
    "s_state",
    "s_zip",
];

const BUCKETS: [(&str, Option<i64>, Option<i64>); 5] = [
    ("30 days", None, Some(30)),
    ("31-60 days", Some(30), Some(60)),
    ("61-90 days", Some(60), Some(90)),
    ("91-120 days", Some(90), Some(120)),
    (">120 days", Some(120), None),
];

/// `sum(case when lo < diff [and diff <= hi] then 1 else 0 end)`.
fn bucket_acc(diff: Expr, lo: Option<i64>, hi: Option<i64>) -> Accumulator {
    let mut conds = Vec::new();
    if let Some(lo) = lo {
        conds.push(Expr::cmp(CmpOp::Gt, diff.clone(), Expr::lit(lo)));
    }
    if let Some(hi) = hi {
        conds.push(Expr::cmp(CmpOp::Lte, diff.clone(), Expr::lit(hi)));
    }
    let cond = if conds.len() == 1 { conds.pop().expect("one") } else { Expr::And(conds) };
    Accumulator::Sum(Expr::cond(cond, Expr::lit(1i64), Expr::lit(0i64)))
}

/// The group / flatten / sort / `$out` tail shared by both strategies.
/// `store_path(f)` locates store attribute `f`; `diff` is the
/// days-to-return expression.
fn tail(pipeline: Pipeline, store_path: impl Fn(&str) -> String, diff: Expr) -> Pipeline {
    let group_id = Expr::Doc(
        STORE_FIELDS
            .iter()
            .map(|f| (f.to_string(), Expr::field(store_path(f))))
            .collect(),
    );
    let accs: Vec<(String, Accumulator)> = BUCKETS
        .iter()
        .map(|(name, lo, hi)| (name.to_string(), bucket_acc(diff.clone(), *lo, *hi)))
        .collect();

    let mut projection: Vec<(String, ProjectField)> =
        vec![("_id".to_owned(), ProjectField::Exclude)];
    for f in STORE_FIELDS {
        projection.push((
            f.to_owned(),
            ProjectField::Compute(Expr::field(format!("_id.{f}"))),
        ));
    }
    for (name, _, _) in BUCKETS {
        projection.push((name.to_owned(), ProjectField::Include));
    }

    // ORDER BY lists the first seven store columns (Fig 3.8).
    let sort: Vec<(String, i32)> = STORE_FIELDS[..7]
        .iter()
        .map(|f| (f.to_string(), 1))
        .collect();

    pipeline
        .group(GroupId::Expr(group_id), accs)
        .project(projection)
        .sort(sort)
        .out(output_collection(QueryId::Q50))
}

/// The pipeline against the denormalized `store_sales` collection, whose
/// documents carry their matching return under `ss_return` (the
/// fact-to-fact embedding of
/// [`crate::denormalize::embed_store_returns`]).
pub fn denormalized_pipeline(p: &Q50Params) -> Pipeline {
    let diff = Expr::subtract(
        Expr::field("ss_return.sr_returned_date_sk.d_date_sk"),
        Expr::field("ss_sold_date_sk.d_date_sk"),
    );
    let head = Pipeline::new()
        .match_stage(Filter::and([
            Filter::eq("ss_return.sr_returned_date_sk.d_year", p.year),
            Filter::eq("ss_return.sr_returned_date_sk.d_moy", p.moy),
            Filter::exists("ss_return.sr_customer_sk.c_customer_sk"),
            Filter::exists("ss_item_sk.i_item_sk"),
            Filter::exists("ss_sold_date_sk.d_date_sk"),
            Filter::exists("ss_store_sk.s_store_sk"),
        ]))
        // ss_customer_sk = sr_customer_sk (the join predicate that is not
        // structural): computed then matched, the thesis's treatment of
        // non-equi predicates in Appendix B.
        .project([
            (
                "cust_match",
                ProjectField::Compute(Expr::cmp(
                    CmpOp::Eq,
                    Expr::field("ss_customer_sk.c_customer_sk"),
                    Expr::field("ss_return.sr_customer_sk.c_customer_sk"),
                )),
            ),
            ("diff", ProjectField::Compute(diff)),
            ("ss_store_sk", ProjectField::Include),
        ])
        .match_stage(Filter::eq("cust_match", true));
    tail(head, |f| format!("ss_store_sk.{f}"), Expr::field("diff"))
}

/// The Fig 4.8 algorithm against the normalized model, extended with the
/// fact-to-fact join: returns for the target month are fetched, the
/// sales fact is semi-joined on their ticket numbers (the shard-key
/// predicate!), and each return document is embedded into its matching
/// sale in the intermediate collection.
pub fn run_normalized(store: &dyn Store, p: &Q50Params) -> Result<Vec<Document>> {
    // Step i: filter date_dim d2 (returned month).
    let d2_filter = Filter::and([Filter::eq("d_year", p.year), Filter::eq("d_moy", p.moy)]);
    let d2_pks = super::filter_dim_pks(store, "date_dim", &d2_filter, "d_date_sk");

    // Step ii-a: semi-join store_returns on the returned date.
    let returns = store.find(
        "store_returns",
        &Filter::and([
            Filter::In { path: "sr_returned_date_sk".into(), values: d2_pks },
            Filter::exists("sr_customer_sk"),
        ]),
    );

    // Step ii-b: semi-join store_sales on the returns' ticket numbers.
    let tickets = distinct_values(&returns, "sr_ticket_number");
    let intermediate = "query50_intermediate";
    semi_join_into(
        store,
        "store_sales",
        &[("ss_ticket_number", &tickets)],
        Filter::and([
            Filter::exists("ss_item_sk"),
            Filter::exists("ss_sold_date_sk"),
            Filter::exists("ss_store_sk"),
            Filter::exists("ss_customer_sk"),
        ]),
        intermediate,
        &[],
    )?;

    // Step iii-a: embed each return into its matching sale line (ticket,
    // item, customer) — one targeted multi-update per return document,
    // sent as one ordered batch.
    let mut embeds = Vec::with_capacity(returns.len());
    for mut ret in returns {
        ret.remove("_id");
        let (Some(ticket), Some(item), Some(customer)) = (
            ret.get("sr_ticket_number").cloned(),
            ret.get("sr_item_sk").cloned(),
            ret.get("sr_customer_sk").cloned(),
        ) else {
            continue;
        };
        embeds.push(BulkUpdate {
            filter: Filter::and([
                Filter::eq("ss_ticket_number", ticket),
                Filter::eq("ss_item_sk", item),
                Filter::eq("ss_customer_sk", customer),
            ]),
            spec: UpdateSpec::set("sr", Value::Document(ret)),
            multi: true,
        });
    }
    store.update_batch(intermediate, &embeds)?;

    // Step iii-b: embed store (the grouping dimension).
    let stores = store.find("store", &Filter::True);
    embed_documents_from(store, intermediate, "ss_store_sk", "s_store_sk", stores)?;

    // Step iv: aggregate. Here both date keys are raw integers, so the
    // day difference is a direct subtraction of surrogate keys, exactly
    // as the SQL computes it.
    let diff = Expr::subtract(Expr::field("sr.sr_returned_date_sk"), Expr::field("ss_sold_date_sk"));
    let head = Pipeline::new().match_stage(Filter::exists("sr"));
    let pipeline = tail(head, |f| format!("ss_store_sk.{f}"), diff);
    store.aggregate(intermediate, &pipeline)
}
