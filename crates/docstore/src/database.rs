//! Databases: named sets of collections, plus `$out` materialization
//! and the cost-based `$in` semi-join rewrite over `$lookup` pipelines.

use crate::agg::{LookupMeta, LookupSource, Pipeline, Stage};
use crate::collection::Collection;
use crate::error::{Error, Result};
use crate::ordvalue::OrdValue;
use crate::query::filter::{CmpOp, Filter};
use crate::wal::{Wal, WalBatch};
use doclite_bson::{Document, Value};
use parking_lot::RwLock;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Caps the key set materialized by the `$in` semi-join rewrite; larger
/// dimension matches abandon the rewrite (the probe list would rival
/// the join itself).
pub const MAX_SEMIJOIN_KEYS: usize = 4096;

/// Dimension-match selectivity above which the semi-join rewrite is not
/// worth it — the paper's crossover: selective dimension filters win by
/// probing, broad ones by scanning.
pub const SEMIJOIN_MAX_FRACTION: f64 = 0.5;

/// A database: a namespace of collections (e.g. `Dataset_1GB` holding the
/// 24 migrated TPC-DS collections).
pub struct Database {
    name: String,
    collections: RwLock<BTreeMap<String, Arc<Collection>>>,
    /// Write-ahead log shared by every collection when the database is
    /// durable (see `docstore::wal::DurableDb`).
    wal: RwLock<Option<Arc<Wal>>>,
}

impl Database {
    /// Creates an empty database.
    pub fn new(name: impl Into<String>) -> Self {
        Database {
            name: name.into(),
            collections: RwLock::new(BTreeMap::new()),
            wal: RwLock::new(None),
        }
    }

    /// The database name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Routes writes on every existing and future collection through a
    /// write-ahead log. Recovery attaches the WAL only after replay.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        // Lock order: collections map before the wal slot, matching
        // `collection()` (map lock) → attach (wal slot).
        let map = self.collections.read();
        for coll in map.values() {
            coll.attach_wal(Arc::clone(&wal));
        }
        *self.wal.write() = Some(wal);
    }

    fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.wal.read().clone()
    }

    /// Gets or creates a collection (MongoDB's implicit-creation
    /// behaviour on first use).
    pub fn collection(&self, name: &str) -> Arc<Collection> {
        if let Some(c) = self.collections.read().get(name) {
            return Arc::clone(c);
        }
        let mut map = self.collections.write();
        Arc::clone(map.entry(name.to_owned()).or_insert_with(|| {
            let c = Arc::new(Collection::new(name));
            if let Some(wal) = self.wal_handle() {
                c.attach_wal(wal);
            }
            c
        }))
    }

    /// Gets an existing collection.
    pub fn get_collection(&self, name: &str) -> Result<Arc<Collection>> {
        self.collections
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::NoSuchCollection(name.to_owned()))
    }

    /// True if the collection exists.
    pub fn has_collection(&self, name: &str) -> bool {
        self.collections.read().contains_key(name)
    }

    /// Drops a collection; returns whether it existed. A WAL append
    /// failure rolls the drop back (see
    /// [`Database::try_drop_collection`]) and reports `false`.
    pub fn drop_collection(&self, name: &str) -> bool {
        self.try_drop_collection(name).unwrap_or(false)
    }

    /// Fallible [`Database::drop_collection`]: on WAL append failure the
    /// collection is restored (the append already rewound the log) and
    /// the error is returned, so the drop either fully happened — in
    /// memory and in the log — or not at all.
    pub fn try_drop_collection(&self, name: &str) -> Result<bool> {
        // The map lock is held across the append so the rollback cannot
        // interleave with a concurrent re-creation of the name.
        let mut map = self.collections.write();
        let Some(coll) = map.remove(name) else { return Ok(false) };
        if let Some(wal) = self.wal_handle() {
            let mut batch = WalBatch::new();
            batch.drop_collection(name);
            if let Err(e) = wal.commit(batch) {
                map.insert(name.to_owned(), coll);
                return Err(e);
            }
        }
        Ok(true)
    }

    /// Collection names in sorted order.
    pub fn collection_names(&self) -> Vec<String> {
        self.collections.read().keys().cloned().collect()
    }

    /// Total data size across collections in bytes.
    pub fn data_size(&self) -> usize {
        self.collections
            .read()
            .values()
            .map(|c| c.data_size())
            .sum()
    }

    /// Runs an aggregation on a collection; a trailing `$out` stage
    /// replaces the target collection with the results (MongoDB `$out`
    /// semantics) and the materialized documents are also returned.
    /// Note the returned documents are read back *as stored*: any
    /// pipeline output lacking an `_id` (e.g. a `$project` that dropped
    /// it) comes back with a store-assigned ObjectId `_id`.
    pub fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        let source = self.get_collection(collection)?;
        let rewritten = self.rewrite_semijoin(pipeline);
        let effective = rewritten.as_ref().unwrap_or(pipeline);
        let results = source.aggregate_with(effective, Some(self))?;
        if let Some(target) = pipeline.out_target() {
            self.try_drop_collection(target)?;
            let out = self.collection(target);
            // Move the result set into the target collection instead of
            // cloning every document on the way in; the returned
            // documents are re-read from the store.
            out.insert_many(results).map_err(|(_, e)| e)?;
            return Ok(out.all_docs());
        }
        Ok(results)
    }

    /// The paper's normalized-model strategy: for a
    /// `$lookup` → `$unwind` → `$match`-on-dimension pipeline with a
    /// *selective* dimension filter, filter the dimension first and
    /// pre-filter the fact side with an `$in` over the surviving join
    /// keys. Returns the rewritten pipeline, or `None` when the shape
    /// does not apply or the cost gate says the dimension match is too
    /// broad to pay off.
    ///
    /// The rewrite only *inserts* a `Match($in)` in front of the
    /// `$lookup`; every original stage is kept, so an over-approximate
    /// key set cannot change results. It is abandoned whenever a
    /// surviving dimension key is missing, null, or an array — the only
    /// shapes whose `$in` probe semantics could under-approximate the
    /// join's null ↔ missing / whole-array equality.
    pub fn rewrite_semijoin(&self, pipeline: &Pipeline) -> Option<Pipeline> {
        let stages = pipeline.stages();
        let i = stages.iter().position(|s| matches!(s, Stage::Lookup { .. }))?;
        let Stage::Lookup { from, local_field, foreign_field, as_field } = &stages[i] else {
            unreachable!("position matched a lookup");
        };
        let Some(Stage::Unwind(unwound)) = stages.get(i + 1) else { return None };
        if unwound.strip_prefix('$').unwrap_or(unwound) != as_field {
            return None;
        }
        let Some(Stage::Match(g)) = stages.get(i + 2) else { return None };
        let dim_filter = dimension_conjuncts(g, as_field)?;
        let dim = self.get_collection(from).ok()?;
        // Cost gate: estimated dimension selectivity and key count.
        let frac = dim.estimate_fraction(&dim_filter);
        let dim_len = dim.len();
        if frac > SEMIJOIN_MAX_FRACTION || frac * dim_len as f64 > MAX_SEMIJOIN_KEYS as f64 {
            return None;
        }
        let mut keys: BTreeSet<OrdValue> = BTreeSet::new();
        for d in dim.find(&dim_filter) {
            match d.get_path(foreign_field) {
                Some(Value::Null) | None => return None,
                Some(Value::Array(_)) => return None,
                Some(v) => {
                    keys.insert(OrdValue(v));
                }
            }
            if keys.len() > MAX_SEMIJOIN_KEYS {
                return None;
            }
        }
        let probe = Filter::In {
            path: local_field.clone(),
            values: keys.into_iter().map(OrdValue::into_value).collect(),
        };
        let mut rewritten: Vec<Stage> = stages.to_vec();
        rewritten.insert(i, Stage::Match(probe));
        Some(rewritten.into_iter().fold(Pipeline::new(), Pipeline::stage))
    }
}

/// Extracts the conjuncts of `g` that constrain `as_field.*` paths,
/// re-rooted onto the dimension document. Only conjuncts whose probe
/// semantics are exactly preserved per dimension document qualify
/// (`$eq`/`$in`/ranges on non-null scalars); a subset of conjuncts
/// over-approximates, which is sound. Returns `None` when no conjunct
/// qualifies.
fn dimension_conjuncts(g: &Filter, as_field: &str) -> Option<Filter> {
    let prefix = format!("{as_field}.");
    let mut picked: Vec<Filter> = Vec::new();
    let mut stack: Vec<&Filter> = vec![g];
    while let Some(f) = stack.pop() {
        match f {
            Filter::And(fs) => stack.extend(fs),
            Filter::Cmp { path, op, value } => {
                if let Some(dim_path) = path.strip_prefix(&prefix) {
                    let ok = !matches!(op, CmpOp::Ne) && !matches!(value, Value::Null);
                    if ok && !dim_path.is_empty() {
                        picked.push(Filter::Cmp {
                            path: dim_path.to_owned(),
                            op: *op,
                            value: value.clone(),
                        });
                    }
                }
            }
            Filter::In { path, values } => {
                if let Some(dim_path) = path.strip_prefix(&prefix) {
                    if !dim_path.is_empty() && !values.iter().any(Value::is_null) {
                        picked.push(Filter::In {
                            path: dim_path.to_owned(),
                            values: values.clone(),
                        });
                    }
                }
            }
            _ => {}
        }
    }
    if picked.is_empty() {
        None
    } else {
        Some(Filter::and(picked))
    }
}

impl LookupSource for Database {
    fn collection_docs(&self, name: &str) -> Option<Vec<Document>> {
        self.get_collection(name).ok().map(|c| c.all_docs())
    }

    fn collection_lookup_meta(&self, name: &str, field: &str) -> Option<LookupMeta> {
        self.get_collection(name).ok().map(|c| c.lookup_meta(field))
    }

    fn indexed_foreign_docs(&self, name: &str, field: &str, key: &Value) -> Option<Vec<Document>> {
        self.get_collection(name).ok().map(|c| c.docs_by_field_eq(field, key))
    }

    fn with_collection_docs(
        &self,
        name: &str,
        f: &mut dyn for<'a> FnMut(&mut (dyn Iterator<Item = &'a Document> + 'a)),
    ) {
        // Borrow the foreign collection's documents in place under its
        // read lock instead of cloning them all (the default impl);
        // $lookup builds its join table from the borrowed iterator and
        // clones only matched rows. A missing collection joins as empty.
        match self.get_collection(name) {
            Ok(c) => c.with_docs(f),
            Err(_) => f(&mut std::iter::empty()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{Accumulator, GroupId, Pipeline};
    use crate::query::Filter;
    use doclite_bson::doc;

    #[test]
    fn implicit_collection_creation() {
        let db = Database::new("test");
        assert!(!db.has_collection("a"));
        db.collection("a").insert_one(doc! {"x" => 1i64}).unwrap();
        assert!(db.has_collection("a"));
        assert!(db.get_collection("missing").is_err());
    }

    #[test]
    fn collection_handle_is_shared() {
        let db = Database::new("test");
        let c1 = db.collection("a");
        let c2 = db.collection("a");
        c1.insert_one(doc! {"x" => 1i64}).unwrap();
        assert_eq!(c2.len(), 1);
    }

    #[test]
    fn drop_collection() {
        let db = Database::new("test");
        db.collection("a");
        assert!(db.drop_collection("a"));
        assert!(!db.drop_collection("a"));
    }

    #[test]
    fn aggregate_with_out_materializes() {
        let db = Database::new("test");
        let src = db.collection("src");
        for i in 0..10i64 {
            src.insert_one(doc! {"k" => i % 2, "v" => i}).unwrap();
        }
        let p = Pipeline::new()
            .group(
                GroupId::Expr(crate::agg::Expr::field("k")),
                [("total", Accumulator::sum_field("v"))],
            )
            .sort([("_id", 1)])
            .out("dst");
        let results = db.aggregate("src", &p).unwrap();
        assert_eq!(results.len(), 2);
        let dst = db.get_collection("dst").unwrap();
        assert_eq!(dst.len(), 2);
        // $out replaces on re-run rather than appending.
        db.aggregate("src", &p).unwrap();
        assert_eq!(db.get_collection("dst").unwrap().len(), 2);
    }

    #[test]
    fn out_anywhere_but_last_is_rejected_and_writes_nothing() {
        let db = Database::new("test");
        db.collection("src").insert_one(doc! {"k" => 1i64}).unwrap();
        let p = Pipeline::new().out("dst").limit(1);
        let err = db.aggregate("src", &p).unwrap_err();
        assert!(matches!(err, Error::InvalidQuery(_)), "{err}");
        assert_eq!(err.to_string(), "invalid query: $out can only be the final stage of a pipeline");
        assert!(!db.has_collection("dst"));
        let src = db.get_collection("src").unwrap();
        assert!(src.aggregate(&p).is_err() && src.explain_aggregate(&p, None).is_err());
    }

    #[test]
    fn database_data_size_sums_collections() {
        let db = Database::new("test");
        db.collection("a").insert_one(doc! {"x" => 1i64}).unwrap();
        db.collection("b").insert_one(doc! {"y" => "abc"}).unwrap();
        let expected = db.get_collection("a").unwrap().data_size()
            + db.get_collection("b").unwrap().data_size();
        assert_eq!(db.data_size(), expected);
        db.collection("c").find(&Filter::True); // empty collection adds 0
        assert_eq!(db.data_size(), expected);
    }
}
