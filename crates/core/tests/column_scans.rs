//! The Fig 4.8 semi-join is an unindexed `$in` scan of the fact
//! collection. A collection builds a column for a path the second time
//! it is scanned, so from its third execution on normalized Q21 probes
//! `inventory` through a column scan — stand-alone and on every shard
//! that holds enough of it — and answers exactly as it did the first time.

use doclite_bson::{json::to_json, Document};
use doclite_core::experiment::{fact_shard_keys, N_SHARDS};
use doclite_core::{load_table_direct, run_normalized, Store};
use doclite_docstore::{
    BulkUpdate, Database, Filter, FindOptions, IndexDef, Pipeline, Result, UpdateResult,
    UpdateSpec,
};
use doclite_sharding::{ClusterConfig, ShardedCluster};
use doclite_tpcds::{Generator, QueryId, QueryParams, TableId};
use std::sync::Mutex;

const SF: f64 = 0.01;
/// The tables normalized Q21 reads.
const TABLES: [TableId; 4] =
    [TableId::Inventory, TableId::Item, TableId::DateDim, TableId::Warehouse];
const COLUMN_PLAN: &str = "COLSCAN { inv_item_sk, inv_date_sk, inv_warehouse_sk }";

/// Remembers the filter of the last `find` on `inventory`.
struct ProbeRecorder<'a> {
    inner: &'a dyn Store,
    probe: Mutex<Option<Filter>>,
}

impl Store for ProbeRecorder<'_> {
    fn insert_one(&self, collection: &str, doc: Document) -> Result<()> {
        self.inner.insert_one(collection, doc)
    }
    fn insert_many(&self, collection: &str, docs: Vec<Document>) -> Result<usize> {
        self.inner.insert_many(collection, docs)
    }
    fn find_with(&self, collection: &str, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        if collection == "inventory" {
            *self.probe.lock().expect("no panic while recording") = Some(filter.clone());
        }
        self.inner.find_with(collection, filter, opts)
    }
    fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.inner.count(collection, filter)
    }
    fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult> {
        self.inner.update(collection, filter, spec, upsert, multi)
    }
    fn update_batch(&self, collection: &str, ops: &[BulkUpdate]) -> Result<UpdateResult> {
        self.inner.update_batch(collection, ops)
    }
    fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        self.inner.aggregate(collection, pipeline)
    }
    fn create_index(&self, collection: &str, def: IndexDef) -> Result<()> {
        self.inner.create_index(collection, def)
    }
    fn drop_collection(&self, collection: &str) -> bool {
        self.inner.drop_collection(collection)
    }
    fn collection_len(&self, collection: &str) -> usize {
        self.inner.collection_len(collection)
    }
    fn collection_data_size(&self, collection: &str) -> usize {
        self.inner.collection_data_size(collection)
    }
}

/// Byte for byte, but for the ObjectIds `$out` mints per run.
fn json(docs: &[Document]) -> Vec<String> {
    docs.iter()
        .map(|d| {
            let mut d = d.clone();
            d.remove("_id");
            to_json(&d)
        })
        .collect()
}

/// Runs normalized Q21 four times on `store`; `plans` reports how each
/// database holding `inventory` would serve the probe right now.
fn check(store: &dyn Store, plans: &dyn Fn(&Filter) -> Vec<String>) {
    let params = QueryParams::for_scale(SF);
    let recorder = ProbeRecorder { inner: store, probe: Mutex::new(None) };
    let first = run_normalized(&recorder, QueryId::Q21, &params).unwrap();
    assert!(!first.is_empty(), "Q21 returns rows at this scale");
    let probe = recorder.probe.lock().unwrap().clone().expect("Q21 probes inventory");
    assert!(plans(&probe).iter().all(|p| p == "COLLSCAN"), "one scan earns no column");

    let second = run_normalized(&recorder, QueryId::Q21, &params).unwrap();
    let after_two = plans(&probe);
    assert!(after_two.iter().any(|p| p == COLUMN_PLAN), "{after_two:?}");
    assert!(after_two.iter().all(|p| p == COLUMN_PLAN || p == "COLLSCAN"), "{after_two:?}");
    for _ in 0..2 {
        let later = run_normalized(&recorder, QueryId::Q21, &params).unwrap();
        assert_eq!(json(&later), json(&first), "a column scan changed the answer");
        assert_eq!(plans(&probe), after_two);
    }
    assert_eq!(json(&second), json(&first));
}

#[test]
fn standalone_q21_probes_inventory_through_columns_from_the_third_run() {
    let gen = Generator::new(SF);
    let db = Database::new("standalone");
    for t in TABLES {
        load_table_direct(&db, &gen, t).unwrap();
    }
    let inventory = db.get_collection("inventory").unwrap();
    check(&db, &|probe| vec![inventory.explain(probe).plan]);
    assert_eq!(inventory.explain(&Filter::True).plan, "COLLSCAN");
}

#[test]
fn sharded_q21_probes_inventory_through_columns_on_every_large_shard() {
    let gen = Generator::new(SF);
    let cluster = ShardedCluster::with_config(ClusterConfig {
        n_shards: N_SHARDS,
        db_name: "sharded".into(),
        ..ClusterConfig::default()
    });
    for (table, key) in fact_shard_keys() {
        if table == TableId::Inventory {
            cluster.shard_collection(table.name(), key, 1 << 20).unwrap();
        }
    }
    for t in TABLES {
        load_table_direct(cluster.router(), &gen, t).unwrap();
    }
    cluster.balance().unwrap();
    let shards = cluster.router().shards();
    // A shard builds columns only once it holds enough of the
    // collection; the others keep scanning their few documents.
    check(cluster.router(), &|probe| {
        shards
            .iter()
            .filter_map(|s| s.db().get_collection("inventory").ok())
            .map(|c| c.explain(probe).plan)
            .collect()
    });
}
