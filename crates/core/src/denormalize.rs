//! Denormalization: the thesis's `Create Denormalized Collection`
//! (Fig 4.6) and `EmbedDocuments` (Fig 4.7) algorithms.
//!
//! "Joining a dimension collection to a fact collection is equivalent to
//! embedding the dimension collection documents in the fact collection"
//! (Section 4.1.3.1): each foreign-key field's scalar value is replaced
//! by the referenced dimension document (Fig 4.5), via one
//! `update(query, {$set …}, upsert:false, multi:true)` per dimension
//! document — exactly the algorithm's step 10, submitted as one ordered
//! bulk write ([`Store::update_batch`]) the way a driver batches them.

use crate::store::Store;
use doclite_bson::{Document, Value};
use doclite_docstore::{BulkUpdate, Filter, IndexDef, OrdValue, Result, UpdateSpec};
use doclite_tpcds::schema::{foreign_keys_of, TableId};
use std::collections::HashMap;

/// One embedding instruction: replace `fact_field` in `fact` documents by
/// the `dim_collection` document whose `dim_pk` equals the field's value.
#[derive(Clone, Debug)]
pub struct EmbedSpec {
    pub fact_field: String,
    pub dim_collection: String,
    pub dim_pk: String,
}

/// Outcome of one `EmbedDocuments` run.
#[derive(Clone, Debug, Default)]
pub struct EmbedReport {
    /// Dimension documents hashed (the `n` of the `O(n + n log m)`
    /// complexity bound in Section 4.1.3.1.1).
    pub dim_docs: usize,
    /// Fact documents modified across all updates.
    pub facts_modified: usize,
}

/// `EmbedDocuments(F, D)` — Fig 4.7, steps 2–11.
pub fn embed_documents(store: &dyn Store, fact: &str, spec: &EmbedSpec) -> Result<EmbedReport> {
    let dim_docs = store.find(&spec.dim_collection, &Filter::True);
    embed_documents_from(store, fact, &spec.fact_field, &spec.dim_pk, dim_docs)
}

/// The embedding loop over an explicit dimension document set — reused by
/// the normalized-model translator (Fig 4.8 step iii), which embeds only
/// pre-filtered dimension documents.
pub fn embed_documents_from(
    store: &dyn Store,
    fact: &str,
    fact_field: &str,
    dim_pk: &str,
    dim_docs: Vec<Document>,
) -> Result<EmbedReport> {
    // Steps 2–8: hash pk → document (without its _id).
    let mut map: HashMap<OrdValue, Document> = HashMap::with_capacity(dim_docs.len());
    for mut doc in dim_docs {
        doc.remove("_id");
        let Some(pk) = doc.get(dim_pk).cloned() else { continue };
        map.insert(OrdValue(pk), doc);
    }
    // Steps 9–11: one multi-update per dimension document, sent as one
    // ordered batch.
    let ops: Vec<BulkUpdate> = map
        .into_iter()
        .map(|(pk, doc)| BulkUpdate {
            filter: Filter::eq(fact_field, pk.into_value()),
            spec: UpdateSpec::set(fact_field, Value::Document(doc)),
            multi: true,
        })
        .collect();
    let res = store.update_batch(fact, &ops)?;
    Ok(EmbedReport { dim_docs: ops.len(), facts_modified: res.modified })
}

/// Conventional name for a denormalized fact collection.
pub fn denormalized_name(fact: TableId) -> String {
    format!("{}_dn", fact.name())
}

/// `Create Denormalized Collection` — Fig 4.6: copies the fact collection
/// and embeds every dimension its foreign keys reference (per the FK
/// catalog of thesis Figs 3.2–3.4). Indexes each FK field first so the
/// per-dimension updates hit the `O(log m)` index path the complexity
/// analysis assumes.
pub fn create_denormalized(store: &dyn Store, fact: TableId, out: &str) -> Result<EmbedReport> {
    store.drop_collection(out);
    let docs = store.find(fact.name(), &Filter::True);
    let mut copies = Vec::with_capacity(docs.len());
    for mut d in docs {
        d.remove("_id"); // fresh ids in the new collection
        copies.push(d);
    }
    store.insert_many(out, copies)?;

    let mut total = EmbedReport::default();
    for fk in foreign_keys_of(fact) {
        store.create_index(out, IndexDef::single(fk.column))?;
        // Snowflake expansion: the dimension's own foreign keys are
        // expanded in memory first (customer → customer_address etc.), so
        // the denormalized fact exposes paths like
        // `ss_customer_sk.c_current_addr_sk.ca_city` (Query 46's outer
        // join target).
        let dim_docs = expanded_dimension_docs(store, fk.ref_table);
        let report =
            embed_documents_from(store, out, fk.column, fk.ref_column, dim_docs)?;
        total.dim_docs += report.dim_docs;
        total.facts_modified += report.facts_modified;
    }
    Ok(total)
}

/// Fetches a dimension's documents with their own dimension references
/// expanded (one level — the snowflake edges of the FK catalog).
fn expanded_dimension_docs(store: &dyn Store, dim: TableId) -> Vec<Document> {
    let mut docs = store.find(dim.name(), &Filter::True);
    for fk in foreign_keys_of(dim) {
        let mut by_pk: HashMap<OrdValue, Document> = HashMap::new();
        for mut d in store.find(fk.ref_table.name(), &Filter::True) {
            d.remove("_id");
            if let Some(pk) = d.get(fk.ref_column).cloned() {
                by_pk.insert(OrdValue(pk), d);
            }
        }
        for doc in &mut docs {
            if let Some(v) = doc.get(fk.column).cloned() {
                if let Some(inner) = by_pk.get(&OrdValue(v)) {
                    doc.set(fk.column, Value::Document(inner.clone()));
                }
            }
        }
    }
    docs
}

/// The Query 50 extension: embeds each (already denormalized) return
/// document into its matching sale document under `ss_return`, joining on
/// ticket number and item — the fact-to-fact join of Fig 3.8, realized
/// the same way dimension joins are (one targeted multi-update per
/// return).
pub fn embed_store_returns(store: &dyn Store, sales_dn: &str, returns_dn: &str) -> Result<usize> {
    store.create_index(sales_dn, IndexDef::single("ss_ticket_number"))?;
    let mut ops = Vec::new();
    for mut ret in store.find(returns_dn, &Filter::True) {
        ret.remove("_id");
        let Some(ticket) = ret.get("sr_ticket_number").cloned() else { continue };
        // After denormalization sr_item_sk holds the embedded item
        // document; its primary key carries the raw join value.
        let Some(item) = ret.get_path("sr_item_sk.i_item_sk") else { continue };
        ops.push(BulkUpdate {
            filter: Filter::and([
                Filter::eq("ss_ticket_number", ticket),
                Filter::eq("ss_item_sk.i_item_sk", item),
            ]),
            spec: UpdateSpec::set("ss_return", Value::Document(ret)),
            multi: true,
        });
    }
    Ok(store.update_batch(sales_dn, &ops)?.modified)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::migrate::load_table_direct;
    use doclite_bson::doc;
    use doclite_docstore::Database;
    use doclite_tpcds::Generator;

    #[test]
    fn embed_documents_replaces_fk_with_dimension_doc() {
        let db = Database::new("t");
        db.collection("facts")
            .insert_many([
                doc! {"fk" => 1i64, "v" => 10i64},
                doc! {"fk" => 2i64, "v" => 20i64},
                doc! {"fk" => 1i64, "v" => 30i64},
            ])
            .unwrap();
        db.collection("dims")
            .insert_many([
                doc! {"pk" => 1i64, "name" => "one"},
                doc! {"pk" => 2i64, "name" => "two"},
                doc! {"pk" => 3i64, "name" => "three"},
            ])
            .unwrap();
        let report = embed_documents(
            &db,
            "facts",
            &EmbedSpec {
                fact_field: "fk".into(),
                dim_collection: "dims".into(),
                dim_pk: "pk".into(),
            },
        )
        .unwrap();
        assert_eq!(report.dim_docs, 3);
        assert_eq!(report.facts_modified, 3);

        let facts = db.get_collection("facts").unwrap();
        let hits = facts.find(&Filter::eq("fk.name", "one"));
        assert_eq!(hits.len(), 2);
        // The embedded document keeps its pk but not its _id.
        let d = &hits[0];
        assert_eq!(d.get_path("fk.pk"), Some(Value::Int64(1)));
        assert_eq!(d.get_path("fk._id"), None);
    }

    #[test]
    fn embedding_skips_null_fks() {
        let db = Database::new("t");
        db.collection("facts")
            .insert_many([doc! {"v" => 1i64}, doc! {"fk" => Value::Null, "v" => 2i64}])
            .unwrap();
        db.collection("dims")
            .insert_one(doc! {"pk" => 1i64})
            .unwrap();
        let report = embed_documents(
            &db,
            "facts",
            &EmbedSpec {
                fact_field: "fk".into(),
                dim_collection: "dims".into(),
                dim_pk: "pk".into(),
            },
        )
        .unwrap();
        assert_eq!(report.facts_modified, 0);
    }

    fn loaded_db(sf: f64) -> Database {
        let db = Database::new("Dataset_test");
        let gen = Generator::new(sf);
        for t in [
            TableId::StoreSales,
            TableId::StoreReturns,
            TableId::DateDim,
            TableId::TimeDim,
            TableId::Item,
            TableId::Customer,
            TableId::CustomerAddress,
            TableId::CustomerDemographics,
            TableId::HouseholdDemographics,
            TableId::Store,
            TableId::Promotion,
            TableId::Reason,
        ] {
            load_table_direct(&db, &gen, t).unwrap();
        }
        db
    }

    #[test]
    fn create_denormalized_store_sales_embeds_all_dimensions() {
        let db = loaded_db(0.0008);
        let out = denormalized_name(TableId::StoreSales);
        create_denormalized(&db, TableId::StoreSales, &out).unwrap();
        let dn = db.get_collection(&out).unwrap();
        assert_eq!(dn.len(), db.get_collection("store_sales").unwrap().len());

        // Every non-null FK field now holds an embedded document.
        let sample = dn.find_with(&Filter::exists("ss_item_sk"), &Default::default());
        assert!(!sample.is_empty());
        for d in sample.iter().take(20) {
            assert!(
                matches!(d.get("ss_item_sk"), Some(Value::Document(_))),
                "{d}"
            );
            if let Some(v) = d.get("ss_sold_date_sk") {
                let Value::Document(date) = v else { panic!("not embedded: {v}") };
                assert!(date.contains_key("d_year"));
            }
        }
        // Denormalized form is much larger than the normalized fact.
        assert!(dn.data_size() > db.get_collection("store_sales").unwrap().data_size() * 3);
    }

    #[test]
    fn embed_store_returns_attaches_matching_return() {
        let db = loaded_db(0.0015);
        let ss_dn = denormalized_name(TableId::StoreSales);
        let sr_dn = denormalized_name(TableId::StoreReturns);
        create_denormalized(&db, TableId::StoreSales, &ss_dn).unwrap();
        create_denormalized(&db, TableId::StoreReturns, &sr_dn).unwrap();
        let embedded = embed_store_returns(&db, &ss_dn, &sr_dn).unwrap();
        assert!(embedded > 0, "no returns embedded");
        let with_return = db
            .get_collection(&ss_dn)
            .unwrap()
            .find(&Filter::exists("ss_return"));
        // Several returns may hit the same sale line (the embed then
        // overwrites), so distinct sale docs ≤ update modifications.
        assert!(!with_return.is_empty());
        assert!(with_return.len() <= embedded);
        // Ticket numbers agree between sale and embedded return.
        for d in with_return.iter().take(10) {
            assert_eq!(
                d.get("ss_ticket_number").cloned(),
                d.get_path("ss_return.sr_ticket_number"),
                "{d}"
            );
        }
    }
}
