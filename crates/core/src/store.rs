//! A deployment-agnostic data-access facade.
//!
//! The thesis's algorithms are "independent of the choice of the
//! deployment environment" (Section 4.1.3); this trait is that
//! independence made concrete — the migration, denormalization, and
//! query-translation code runs unchanged against a stand-alone
//! [`Database`] or a sharded cluster's [`Mongos`] router.

use doclite_bson::Document;
use doclite_docstore::{
    BulkUpdate, Database, Filter, FindOptions, IndexDef, Pipeline, Result, UpdateResult,
    UpdateSpec,
};
use doclite_sharding::Mongos;

/// Uniform operations over a deployment target.
pub trait Store: Sync {
    /// Inserts one document.
    fn insert_one(&self, collection: &str, doc: Document) -> Result<()>;

    /// Inserts many documents, returning the count.
    fn insert_many(&self, collection: &str, docs: Vec<Document>) -> Result<usize> {
        let mut n = 0;
        for d in docs {
            self.insert_one(collection, d)?;
            n += 1;
        }
        Ok(n)
    }

    /// `find` with options.
    fn find_with(&self, collection: &str, filter: &Filter, opts: &FindOptions) -> Vec<Document>;

    /// `find` with default options.
    fn find(&self, collection: &str, filter: &Filter) -> Vec<Document> {
        self.find_with(collection, filter, &FindOptions::default())
    }

    /// Counts matches.
    fn count(&self, collection: &str, filter: &Filter) -> usize;

    /// The thesis's four-parameter update (Fig 4.7 step 10).
    fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult>;

    /// An ordered bulk update: the statements of `ops` applied in order
    /// (none upserts), stopping at the first error, with the summed
    /// counts returned. The provided body issues one [`Store::update`]
    /// per statement; [`Database`] and [`Mongos`] override it with their
    /// batched paths (one lock and group commit; one exchange per shard
    /// group). `EmbedDocuments` submits its per-dimension-document
    /// updates through this.
    fn update_batch(&self, collection: &str, ops: &[BulkUpdate]) -> Result<UpdateResult> {
        let mut total = UpdateResult::default();
        for op in ops {
            total.absorb(&self.update(collection, &op.filter, &op.spec, false, op.multi)?);
        }
        Ok(total)
    }

    /// Runs an aggregation pipeline (materializing `$out` if present).
    fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>>;

    /// Creates an index.
    fn create_index(&self, collection: &str, def: IndexDef) -> Result<()>;

    /// Drops a collection; true if it existed.
    fn drop_collection(&self, collection: &str) -> bool;

    /// Documents in a collection.
    fn collection_len(&self, collection: &str) -> usize;

    /// Encoded bytes stored for a collection.
    fn collection_data_size(&self, collection: &str) -> usize;
}

impl Store for Database {
    fn insert_one(&self, collection: &str, doc: Document) -> Result<()> {
        self.collection(collection).insert_one(doc).map(|_| ())
    }

    fn insert_many(&self, collection: &str, docs: Vec<Document>) -> Result<usize> {
        self.collection(collection)
            .insert_many(docs)
            .map_err(|(_, e)| e)
    }

    fn find_with(&self, collection: &str, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        match self.get_collection(collection) {
            Ok(c) => c.find_with(filter, opts),
            Err(_) => Vec::new(),
        }
    }

    fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.get_collection(collection)
            .map(|c| c.count(filter))
            .unwrap_or(0)
    }

    fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult> {
        self.collection(collection).update(filter, spec, upsert, multi)
    }

    fn update_batch(&self, collection: &str, ops: &[BulkUpdate]) -> Result<UpdateResult> {
        self.collection(collection).update_batch(ops)
    }

    fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        Database::aggregate(self, collection, pipeline)
    }

    fn create_index(&self, collection: &str, def: IndexDef) -> Result<()> {
        self.collection(collection).create_index(def)
    }

    fn drop_collection(&self, collection: &str) -> bool {
        Database::drop_collection(self, collection)
    }

    fn collection_len(&self, collection: &str) -> usize {
        self.get_collection(collection).map(|c| c.len()).unwrap_or(0)
    }

    fn collection_data_size(&self, collection: &str) -> usize {
        self.get_collection(collection)
            .map(|c| c.data_size())
            .unwrap_or(0)
    }
}

impl Store for Mongos {
    fn insert_one(&self, collection: &str, doc: Document) -> Result<()> {
        Mongos::insert_one(self, collection, doc)
    }

    fn insert_many(&self, collection: &str, docs: Vec<Document>) -> Result<usize> {
        Mongos::insert_many(self, collection, docs)
    }

    fn find_with(&self, collection: &str, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        Mongos::find_with(self, collection, filter, opts)
    }

    fn count(&self, collection: &str, filter: &Filter) -> usize {
        Mongos::count(self, collection, filter)
    }

    fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult> {
        Mongos::update(self, collection, filter, spec, upsert, multi)
    }

    fn update_batch(&self, collection: &str, ops: &[BulkUpdate]) -> Result<UpdateResult> {
        Mongos::update_batch(self, collection, ops)
    }

    fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        Mongos::aggregate(self, collection, pipeline)
    }

    fn create_index(&self, collection: &str, def: IndexDef) -> Result<()> {
        Mongos::create_index(self, collection, def)
    }

    fn drop_collection(&self, collection: &str) -> bool {
        let mut any = false;
        for shard in self.shards() {
            // Replica-aware: the collection must vanish from every
            // member, not just the primary copy.
            any |= shard.replica_set().drop_collection(collection);
        }
        any
    }

    fn collection_len(&self, collection: &str) -> usize {
        Mongos::collection_len(self, collection)
    }

    fn collection_data_size(&self, collection: &str) -> usize {
        Mongos::collection_data_size(self, collection)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;
    use doclite_sharding::{ConfigServer, NetworkModel, Shard, ShardKey};
    use std::sync::Arc;

    fn exercise(store: &dyn Store) {
        store
            .insert_many(
                "c",
                (0..20i64).map(|i| doc! {"k" => i, "grp" => i % 2}).collect(),
            )
            .unwrap();
        assert_eq!(store.collection_len("c"), 20);
        assert_eq!(store.count("c", &Filter::eq("grp", 1i64)), 10);
        store
            .update(
                "c",
                &Filter::eq("grp", 0i64),
                &UpdateSpec::set("flag", true),
                false,
                true,
            )
            .unwrap();
        assert_eq!(store.find("c", &Filter::eq("flag", true)).len(), 10);
        store.create_index("c", IndexDef::single("k")).unwrap();
        assert!(store.collection_data_size("c") > 0);
        assert!(store.drop_collection("c"));
        assert_eq!(store.collection_len("c"), 0);
    }

    #[test]
    fn database_implements_store() {
        exercise(&Database::new("t"));
    }

    #[test]
    fn mongos_implements_store() {
        let shards: Vec<Arc<Shard>> = (0..2).map(|i| Arc::new(Shard::new(i, "t"))).collect();
        let router = Mongos::new(shards, Arc::new(ConfigServer::new()), NetworkModel::free());
        router.shard_collection("c", ShardKey::range(["k"]), 1024).unwrap();
        exercise(&router);
    }
}
