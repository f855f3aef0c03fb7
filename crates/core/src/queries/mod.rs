//! The four workload queries (thesis Table 3.5), each in both execution
//! strategies:
//!
//! * **denormalized** — an aggregation pipeline against the denormalized
//!   fact collection (the Appendix B scripts);
//! * **normalized** — the Fig 4.8 translation algorithm: filter each
//!   dimension by its WHERE predicates, semi-join the fact collection via
//!   `$in`, store an intermediate collection, embed the
//!   aggregation-relevant dimensions, then aggregate.

pub mod q21;
pub mod q46;
pub mod q50;
pub mod q7;

use crate::store::Store;
use doclite_bson::{Document, Value};
use doclite_docstore::{Filter, FindOptions, Result};
use doclite_tpcds::{QueryId, QueryParams};

/// Runs a query against the denormalized data model (experiments 3/6).
pub fn run_denormalized(
    store: &dyn Store,
    query: QueryId,
    params: &QueryParams,
) -> Result<Vec<Document>> {
    let (source, pipeline) = denormalized_pipeline(query, params);
    store.aggregate(&source, &pipeline)
}

/// The denormalized source collection and pipeline for a query.
pub fn denormalized_pipeline(
    query: QueryId,
    params: &QueryParams,
) -> (String, doclite_docstore::Pipeline) {
    match query {
        QueryId::Q7 => ("store_sales_dn".to_owned(), q7::denormalized_pipeline(&params.q7)),
        QueryId::Q21 => ("inventory_dn".to_owned(), q21::denormalized_pipeline(&params.q21)),
        QueryId::Q46 => ("store_sales_dn".to_owned(), q46::denormalized_pipeline(&params.q46)),
        QueryId::Q50 => ("store_sales_dn".to_owned(), q50::denormalized_pipeline(&params.q50)),
    }
}

/// Runs a query through the normalized-model translation algorithm
/// (experiments 1/2/4/5).
pub fn run_normalized(
    store: &dyn Store,
    query: QueryId,
    params: &QueryParams,
) -> Result<Vec<Document>> {
    match query {
        QueryId::Q7 => q7::run_normalized(store, &params.q7),
        QueryId::Q21 => q21::run_normalized(store, &params.q21),
        QueryId::Q46 => q46::run_normalized(store, &params.q46),
        QueryId::Q50 => q50::run_normalized(store, &params.q50),
    }
}

/// The `$out` collection name a query materializes into (thesis
/// Appendix B naming).
pub fn output_collection(query: QueryId) -> &'static str {
    match query {
        QueryId::Q7 => "query7_output",
        QueryId::Q21 => "query21_output",
        QueryId::Q46 => "query46_output",
        QueryId::Q50 => "query50_output",
    }
}

// ----- shared steps of the Fig 4.8 algorithm ---------------------------

/// Step i: filters one dimension by its WHERE predicates and returns the
/// primary keys of the surviving documents (the `ArrayList` of Fig 4.8
/// step 5).
pub fn filter_dim_pks(store: &dyn Store, dim: &str, filter: &Filter, pk: &str) -> Vec<Value> {
    store
        .find_with(dim, filter, &FindOptions::new().include(pk))
        .into_iter()
        // The projected documents are owned; move the key out rather
        // than cloning it.
        .filter_map(|mut d| d.remove(pk))
        .collect()
}

/// Step ii: semi-joins the fact collection against the filtered
/// dimension keys with `$in`, materializing matching fact documents into
/// the intermediate collection (Fig 4.8 step 7). Returns the row count
/// and, per field of `referenced`, the distinct values the materialized
/// rows hold there (in canonical order, read off the rows already in
/// hand) — the only dimension keys step iii's embeds can match.
pub fn semi_join_into(
    store: &dyn Store,
    fact: &str,
    constraints: &[(&str, &[Value])],
    extra: Filter,
    intermediate: &str,
    referenced: &[&str],
) -> Result<(usize, Vec<Vec<Value>>)> {
    let mut parts: Vec<Filter> = constraints
        .iter()
        .map(|(field, values)| Filter::In {
            path: (*field).to_owned(),
            values: values.to_vec(),
        })
        .collect();
    parts.push(extra);
    let filter = Filter::and(parts);

    store.drop_collection(intermediate);
    let mut docs = store.find(fact, &filter);
    for d in &mut docs {
        d.remove("_id"); // fresh ids in the intermediate collection
    }
    let keys = referenced.iter().map(|field| distinct_values(&docs, field)).collect();
    Ok((store.insert_many(intermediate, docs)?, keys))
}

/// The distinct values of top-level `field` over `docs`, in canonical
/// order.
pub fn distinct_values(docs: &[Document], field: &str) -> Vec<Value> {
    let mut values: Vec<Value> = docs.iter().filter_map(|d| d.get(field).cloned()).collect();
    values.sort_by(|a, b| a.canonical_cmp(b));
    values.dedup_by(|a, b| a.canonical_eq(b));
    values
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;
    use doclite_docstore::Database;

    #[test]
    fn filter_dim_pks_projects_keys() {
        let db = Database::new("t");
        db.collection("dim")
            .insert_many([
                doc! {"pk" => 1i64, "x" => "a"},
                doc! {"pk" => 2i64, "x" => "b"},
                doc! {"pk" => 3i64, "x" => "a"},
            ])
            .unwrap();
        let pks = filter_dim_pks(&db, "dim", &Filter::eq("x", "a"), "pk");
        assert_eq!(pks, vec![Value::Int64(1), Value::Int64(3)]);
    }

    #[test]
    fn semi_join_materializes_intersection() {
        let db = Database::new("t");
        db.collection("fact")
            .insert_many((0..20i64).map(|i| doc! {"a" => i % 4, "b" => i % 5, "v" => i}))
            .unwrap();
        let a_keys = [Value::Int64(1), Value::Int64(2)];
        let b_keys = [Value::Int64(0), Value::Int64(1)];
        let (n, keys) = semi_join_into(
            &db,
            "fact",
            &[("a", &a_keys), ("b", &b_keys)],
            Filter::True,
            "inter",
            &["b", "v"],
        )
        .unwrap();
        let expected = (0..20i64)
            .filter(|i| [1, 2].contains(&(i % 4)) && [0, 1].contains(&(i % 5)))
            .count();
        assert_eq!(n, expected);
        assert_eq!(db.get_collection("inter").unwrap().len(), expected);
        // The referenced keys are the distinct values of the kept rows.
        assert_eq!(keys[0], b_keys);
        assert_eq!(keys[1].len(), expected, "v is unique per row");
        // re-running replaces, not appends
        semi_join_into(&db, "fact", &[("a", &a_keys), ("b", &b_keys)], Filter::True, "inter", &[])
            .unwrap();
        assert_eq!(db.get_collection("inter").unwrap().len(), expected);
    }

    #[test]
    fn output_collection_names_match_appendix_b() {
        assert_eq!(output_collection(QueryId::Q7), "query7_output");
        assert_eq!(output_collection(QueryId::Q50), "query50_output");
    }
}
