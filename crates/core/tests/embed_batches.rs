//! `EmbedDocuments` submits its per-dimension-document updates as one
//! ordered bulk write: one `Store::update_batch` call per embedded
//! dimension, which on a cluster is a handful of router↔shard exchanges
//! instead of one per dimension document — with the same query result.

use doclite_bson::{json::to_json, Document};
use doclite_core::experiment::{
    setup_environment, DataModel, Deployment, ExperimentSpec, SetupOptions,
};
use doclite_core::{run_normalized, Store};
use doclite_docstore::{
    BulkUpdate, Filter, FindOptions, IndexDef, Pipeline, Result, UpdateResult, UpdateSpec,
};
use doclite_tpcds::{Generator, QueryId, QueryParams, TableId};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};

const SF: f64 = 0.003;

fn environment(id: u8, deployment: Deployment) -> doclite_core::Environment {
    let spec = ExperimentSpec { id, sf: SF, model: DataModel::Normalized, deployment };
    setup_environment(&spec, &SetupOptions::default()).unwrap()
}

/// Counts how the translator writes; everything goes to the inner store.
struct CountingStore<'a> {
    inner: &'a dyn Store,
    updates: AtomicUsize,
    batches: AtomicUsize,
    statements: AtomicUsize,
}

impl Store for CountingStore<'_> {
    fn insert_one(&self, collection: &str, doc: Document) -> Result<()> {
        self.inner.insert_one(collection, doc)
    }
    fn insert_many(&self, collection: &str, docs: Vec<Document>) -> Result<usize> {
        self.inner.insert_many(collection, docs)
    }
    fn find_with(&self, collection: &str, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
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
        self.updates.fetch_add(1, Ordering::Relaxed);
        self.inner.update(collection, filter, spec, upsert, multi)
    }
    fn update_batch(&self, collection: &str, ops: &[BulkUpdate]) -> Result<UpdateResult> {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.statements.fetch_add(ops.len(), Ordering::Relaxed);
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

#[test]
fn normalized_q46_embeds_in_two_batches_and_a_few_exchanges() {
    let params = QueryParams::for_scale(SF);
    let gen = Generator::new(SF);
    let dimension_docs = gen.documents(TableId::CustomerAddress).count()
        + gen.documents(TableId::Customer).count();

    let standalone = environment(1, Deployment::Standalone);
    let counted = CountingStore {
        inner: standalone.store(),
        updates: AtomicUsize::new(0),
        batches: AtomicUsize::new(0),
        statements: AtomicUsize::new(0),
    };
    let expected = run_normalized(&counted, QueryId::Q46, &params).unwrap();
    assert!(!expected.is_empty(), "Q46 returns rows at this scale");
    assert_eq!(counted.updates.load(Ordering::Relaxed), 0, "no per-document update calls");
    assert_eq!(counted.batches.load(Ordering::Relaxed), 2, "one batch per embedded dimension");
    // One statement per address and per customer the semi-joined rows
    // reference and the dimension holds — what used to be one update
    // round trip each — not one per dimension document. Those are the
    // keys now embedded in the intermediate.
    let embedded = standalone.store().find("query46_intermediate", &Filter::True);
    let distinct = |path: &str| -> usize {
        embedded.iter().filter_map(|d| d.get_path(path)?.as_i64()).collect::<HashSet<_>>().len()
    };
    let referenced = distinct("ss_addr_sk.ca_address_sk") + distinct("ss_customer_sk.c_customer_sk");
    assert_eq!(counted.statements.load(Ordering::Relaxed), referenced);
    assert!(referenced > 20 && referenced < dimension_docs / 2, "{referenced} of {dimension_docs}");

    let sharded = environment(2, Deployment::Sharded);
    let stats = sharded.cluster().unwrap().router().net_stats();
    let before = stats.exchanges();
    let got = run_normalized(sharded.store(), QueryId::Q46, &params).unwrap();
    let exchanges = stats.exchanges() - before;
    assert!(
        exchanges < 40,
        "{exchanges} exchanges for {dimension_docs} embedded dimension documents"
    );
    // Byte for byte, but for the ObjectIds `$out` mints per run.
    let json = |docs: &[Document]| -> Vec<String> {
        docs.iter()
            .map(|d| {
                let mut d = d.clone();
                d.remove("_id");
                to_json(&d)
            })
            .collect()
    };
    assert_eq!(json(&got), json(&expected), "sharded result differs from stand-alone");
}
