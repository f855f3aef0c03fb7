//! Fast denormalization: a single-pass hash-join assembly of the
//! denormalized fact collections.
//!
//! [`crate::denormalize::create_denormalized`] reproduces the thesis's
//! `EmbedDocuments` algorithm faithfully — one multi-update per
//! dimension document — which is exactly as expensive as the thesis says
//! it is. Setup code that only needs the *result* (the experiment
//! harness rebuilds denormalized environments dozens of times) uses this
//! module instead: same output collections (asserted by the
//! `fast_path_matches_algorithmic_path` test), built in one pass per
//! fact.

use crate::denormalize::{denormalized_name, expanded_dimension_docs};
use crate::store::Store;
use doclite_bson::{Document, Value};
use doclite_docstore::{keybytes, Filter, IndexDef, Key, Result};
use doclite_tpcds::schema::{foreign_keys_of, ForeignKey, TableId};
use std::collections::HashMap;

/// A dimension lookup table: pk → document (without `_id`), with the
/// dimension's own FK fields expanded one level (snowflake).
fn dimension_map(store: &dyn Store, fk: &ForeignKey) -> HashMap<Key, Document> {
    expanded_dimension_docs(store, fk, None, &foreign_keys_of(fk.ref_table))
        .into_iter()
        .filter_map(|mut d| {
            d.remove("_id");
            d.get(fk.ref_column).map(Key::of).map(|k| (k, d))
        })
        .collect()
}

/// The foreign-key fields of `fact` and their dimension maps.
fn dimension_maps(store: &dyn Store, fact: TableId) -> Vec<(&'static str, HashMap<Key, Document>)> {
    foreign_keys_of(fact)
        .into_iter()
        .map(|fk| (fk.column, dimension_map(store, &fk)))
        .collect()
}

/// Replaces each foreign-key field of `d` by its dimension document,
/// probing the maps through `scratch`.
fn embed(d: &mut Document, joins: &[(&str, HashMap<Key, Document>)], scratch: &mut Vec<u8>) {
    for (field, map) in joins {
        let Some(v) = d.get(field) else { continue };
        keybytes::encode_into(v, scratch);
        if let Some(emb) = map.get(scratch.as_slice()) {
            d.set(*field, Value::Document(emb.clone()));
        }
    }
}

/// Builds one denormalized fact collection in a single pass.
pub fn create_denormalized_fast(store: &dyn Store, fact: TableId, out: &str) -> Result<usize> {
    store.drop_collection(out);
    let joins = dimension_maps(store, fact);
    let mut docs = store.find(fact.name(), &Filter::True);
    let mut scratch = Vec::new();
    for d in &mut docs {
        d.remove("_id");
        embed(d, &joins, &mut scratch);
    }
    store.insert_many(out, docs)
}

/// Builds the full denormalized workload — the three fact collections
/// with `store_sales_dn` carrying its embedded returns — plus the
/// query-path indexes, in one pass each. Result-identical to
/// [`crate::experiment::build_denormalized`]'s algorithmic construction.
pub fn build_denormalized_fast(store: &dyn Store) -> Result<()> {
    let ss_dn = denormalized_name(TableId::StoreSales);
    let sr_dn = denormalized_name(TableId::StoreReturns);
    let inv_dn = denormalized_name(TableId::Inventory);

    create_denormalized_fast(store, TableId::StoreReturns, &sr_dn)?;
    create_denormalized_fast(store, TableId::Inventory, &inv_dn)?;

    // store_sales_dn with the matching return attached during assembly.
    // Key returns by (ticket, item pk) — later returns overwrite earlier
    // ones, matching the algorithmic path's update order.
    let mut returns_by_key: HashMap<Key, Document> = HashMap::new();
    for mut r in store.find(&sr_dn, &Filter::True) {
        r.remove("_id");
        let (Some(t), Some(i)) = (
            r.get("sr_ticket_number").cloned(),
            r.get_path("sr_item_sk.i_item_sk"),
        ) else {
            continue;
        };
        returns_by_key.insert(Key::from_values([&t, &i]), r);
    }

    store.drop_collection(&ss_dn);
    let joins = dimension_maps(store, TableId::StoreSales);
    let mut docs = store.find("store_sales", &Filter::True);
    let mut scratch = Vec::new();
    for d in &mut docs {
        d.remove("_id");
        embed(d, &joins, &mut scratch);
        let (Some(t), Some(i)) = (d.get("ss_ticket_number"), d.get_path("ss_item_sk.i_item_sk"))
        else {
            continue;
        };
        keybytes::encode_into(t, &mut scratch);
        keybytes::encode_value(&i, &mut scratch);
        if let Some(r) = returns_by_key.get(scratch.as_slice()) {
            d.set("ss_return", Value::Document(r.clone()));
        }
    }
    store.insert_many(&ss_dn, docs)?;

    // The same query-path indexes the algorithmic builder creates.
    store.create_index(&ss_dn, IndexDef::single("ss_cdemo_sk.cd_education_status"))?;
    store.create_index(&ss_dn, IndexDef::single("ss_sold_date_sk.d_year"))?;
    store.create_index(&ss_dn, IndexDef::single("ss_return.sr_returned_date_sk.d_year"))?;
    store.create_index(&inv_dn, IndexDef::single("inv_item_sk.i_current_price"))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::build_denormalized;
    use crate::migrate::load_table_direct;
    use doclite_docstore::Database;
    use doclite_tpcds::Generator;

    fn loaded_db(name: &str, sf: f64) -> Database {
        let db = Database::new(name);
        let gen = Generator::new(sf);
        let mut tables = vec![TableId::Reason, TableId::TimeDim];
        tables.extend(crate::experiment::WORKLOAD_TABLES);
        for t in tables {
            load_table_direct(&db, &gen, t).unwrap();
        }
        db
    }

    #[test]
    fn fast_path_matches_algorithmic_path() {
        let sf = 0.0015;
        let slow_db = loaded_db("slow", sf);
        build_denormalized(&slow_db).unwrap();
        let fast_db = loaded_db("fast", sf);
        build_denormalized_fast(&fast_db).unwrap();

        for coll in ["store_sales_dn", "store_returns_dn", "inventory_dn"] {
            let mut a = slow_db.get_collection(coll).unwrap().all_docs();
            let mut b = fast_db.get_collection(coll).unwrap().all_docs();
            for d in a.iter_mut().chain(b.iter_mut()) {
                d.remove("_id");
            }
            let key = doclite_bson::json::to_json;
            a.sort_by_key(&key);
            b.sort_by_key(&key);
            assert_eq!(a.len(), b.len(), "{coll}: row counts");
            for (x, y) in a.iter().zip(b.iter()) {
                assert_eq!(x, y, "{coll}: documents differ");
            }
            // Same index sets too: the algorithmic path builds no FK index.
            let names = |db: &Database| {
                let mut n: Vec<String> = db
                    .get_collection(coll)
                    .unwrap()
                    .index_defs()
                    .into_iter()
                    .map(|d| d.name)
                    .collect();
                n.sort();
                n
            };
            assert_eq!(names(&slow_db), names(&fast_db), "{coll}: index sets differ");
        }
    }
}
