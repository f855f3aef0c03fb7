//! Collections: the unit of storage, indexing, and querying.

use crate::agg::{kernel, sort_documents, stream, LookupMeta, LookupSource, Pipeline, Stage};
use crate::columnar;
use crate::error::{Error, Result};
use crate::index::keys::for_each_single_key;
use crate::index::{extract_keys, Index, IndexDef, IndexKind, SortOrder};
use crate::keybytes::{self, Key};
use crate::query::filter::Filter;
use crate::query::matcher::{compile, matches_compiled, CompiledFilter};
use crate::query::planner::{
    conjunctive_constraints, plan_with_stats, unique_point_plan, Plan, PlanKind,
};
use crate::stats::{self, CollStats};
use crate::storage::{DocId, Slab};
use crate::update::{apply_update, upsert_seed, BulkUpdate, UpdateResult, UpdateSpec};
use crate::wal::{Wal, WalBatch};
use doclite_bson::{codec::encoded_size, CompiledPath, Document, Value, MAX_DOCUMENT_SIZE};
use parking_lot::{Mutex, RwLock};
use std::cmp::Reverse;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Options for a `find`: sort, skip, limit, projection.
#[derive(Clone, Debug, Default)]
pub struct FindOptions {
    /// Sort spec: `(path, 1|-1)` pairs.
    pub sort: Vec<(String, i32)>,
    /// Documents to skip after sorting.
    pub skip: usize,
    /// Maximum documents to return (0 = unlimited).
    pub limit: usize,
    /// Paths to include (empty = whole documents).
    pub projection: Vec<String>,
}

impl FindOptions {
    /// Default options (no sort/skip/limit/projection).
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a sort key.
    pub fn sort_by(mut self, path: impl Into<String>, dir: i32) -> Self {
        self.sort.push((path.into(), dir));
        self
    }

    /// Sets the limit.
    pub fn with_limit(mut self, n: usize) -> Self {
        self.limit = n;
        self
    }

    /// Sets the skip.
    pub fn with_skip(mut self, n: usize) -> Self {
        self.skip = n;
        self
    }

    /// Adds a projected path.
    pub fn include(mut self, path: impl Into<String>) -> Self {
        self.projection.push(path.into());
        self
    }
}

/// Execution report returned by [`Collection::explain`], in the spirit of
/// `db.collection.explain()`.
#[derive(Clone, Debug, PartialEq)]
pub struct Explain {
    /// `COLLSCAN`, `COLSCAN { <paths> }` or `IXSCAN { <index> }`.
    pub plan: String,
    /// Whether an index served the fetch.
    pub used_index: bool,
    /// Rows the predicate was evaluated on: every live document for a
    /// collection or column scan, the fetched candidates for an index.
    pub docs_examined: usize,
    /// Documents that satisfied the full filter.
    pub docs_returned: usize,
    /// Cost-model row estimate for the filter. Comparing it against
    /// `docs_returned` measures estimation error.
    pub est_rows: u64,
}

/// One stage's entry in an [`AggExplain`] report.
#[derive(Clone, Debug)]
pub struct StageExplain {
    /// Stage name (`$match`, `$lookup`, …).
    pub stage: String,
    /// Cost-model estimate of rows *leaving* the stage, where the model
    /// has one (leading `$match` stages).
    pub est_rows: Option<u64>,
    /// Rows that actually left the stage.
    pub actual_rows: u64,
    /// The physical decision taken, when one was made: the access plan
    /// for a leading `$match`, the join strategy for a `$lookup`,
    /// `COLUMNS` for a `$group` / `$count` computed off the columns.
    pub decision: Option<String>,
}

/// Execution report for an aggregation pipeline, in the spirit of
/// `db.collection.explain()` on an aggregate: per-stage estimated vs
/// actual row counts plus the planner decisions taken. Runs the
/// pipeline one stage at a time to observe the intermediate
/// cardinalities.
#[derive(Clone, Debug)]
pub struct AggExplain {
    /// Source collection name.
    pub collection: String,
    /// One entry per executed stage (a trailing `$out` is skipped).
    pub stages: Vec<StageExplain>,
    /// When the pipeline read a materialized view: frames the view's
    /// watermark lags behind the WAL head (0 = fresh). `None` for a
    /// direct collection read.
    pub view_staleness: Option<u64>,
}

/// One index of a collection and the documents its slots name, as
/// [`Collection::read_index`] hands them out under the shared lock.
pub struct IndexRead<'a> {
    index: &'a Index,
    slab: &'a Slab,
}

impl<'a> IndexRead<'a> {
    /// The index's distinct keys with their slots ([`Index::keys_from`]).
    pub fn keys_from(
        &self,
        from: Option<&Key>,
    ) -> Box<dyn Iterator<Item = (&'a Key, &'a [DocId])> + 'a> {
        self.index.keys_from(from)
    }

    /// The document in slot `id`.
    pub fn doc(&self, id: DocId) -> Option<&'a Document> {
        self.slab.get(id)
    }
}

/// The routing half of a bulk update: a hash join of the batch's
/// statements against the collection (DESIGN.md, *Bulk updates: route by
/// join, apply in place*). The statements that pin one shared path to a
/// single value are hashed by that value; one slot-order pass over the
/// collection reads each document's cell at the path and hands the slot
/// to every such statement. A statement's candidates are a superset of
/// what its scan would match — a document's keys are the ones a
/// single-field index on the path holds for it ([`for_each_single_key`]:
/// a missing field as null, an array once per element) — and the full
/// filter is re-applied to each, so the join decides cost, never
/// results. It lives for one `update_ordered` call, under the write lock.
struct StatementJoin {
    /// The equality path most statements of the batch pin.
    path: String,
    compiled: CompiledPath,
    /// Per statement, its group; `None` for a statement that does not
    /// pin `path` to one value and goes through the planner.
    group_of: Vec<Option<usize>>,
    /// Per distinct pinned value, its candidate slots in slot order,
    /// each once.
    groups: Vec<Vec<DocId>>,
    /// The [`Key`] of a pinned value → its group.
    by_key: HashMap<Key, usize>,
    /// Type ranks of the pinned values, one bit each: a cell of another
    /// rank (the document an embed has just written over its key) is
    /// not even encoded.
    ranks: u8,
    /// The probe buffer a cell is encoded into.
    scratch: Vec<u8>,
}

impl StatementJoin {
    /// Routes `ops` over `slab`, or `None` when fewer than two of them
    /// pin a common path to a single value — then every statement plans
    /// for itself. The path is the one most statements pin, the
    /// alphabetically first on a tie; a path any statement compares to
    /// a whole array is never joined (a document's keys are its array's
    /// elements, so the join would miss what that statement's scan
    /// finds).
    fn over(slab: &Slab, ops: &[(&Filter, &UpdateSpec, bool)]) -> Option<Self> {
        if ops.len() < 2 {
            return None;
        }
        let mut constraints: Vec<_> =
            ops.iter().map(|&(filter, ..)| conjunctive_constraints(filter)).collect();
        let mut pinned: HashMap<&str, Option<usize>> = HashMap::new();
        for (path, c) in constraints.iter().flatten() {
            let Some(eq) = &c.eq_set else { continue };
            let tally = pinned.entry(path).or_insert(Some(0));
            if eq.iter().any(|v| matches!(v, Value::Array(_))) {
                *tally = None;
            } else if let ([_], Some(n)) = (eq.as_slice(), tally) {
                *n += 1;
            }
        }
        let (_, Reverse(path)) = pinned
            .into_iter()
            .filter_map(|(path, n)| Some((n.filter(|n| *n >= 2)?, Reverse(path))))
            .max()?;
        let mut join = StatementJoin {
            path: path.to_owned(),
            compiled: CompiledPath::new(path),
            group_of: Vec::with_capacity(ops.len()),
            groups: Vec::new(),
            by_key: HashMap::new(),
            ranks: 0,
            scratch: Vec::new(),
        };
        for statement in &mut constraints {
            let pin = statement
                .remove(&join.path)
                .and_then(|c| c.eq_set)
                .and_then(|eq| <[Value; 1]>::try_from(eq).ok());
            let group = pin.map(|[key]| join.group_for(&key));
            join.group_of.push(group);
        }
        for (id, doc) in slab.iter() {
            join.enlist(id, doc);
        }
        Some(join)
    }

    /// The group of statements pinning `key`, created on first sight.
    fn group_for(&mut self, key: &Value) -> usize {
        self.ranks |= 1 << key.canonical_rank();
        let next = self.groups.len();
        let g = *self.by_key.entry(Key::of(key)).or_insert(next);
        if g == next {
            self.groups.push(Vec::new());
        }
        g
    }

    /// Hands slot `id` to every group pinning one of `doc`'s keys, in
    /// slot position and once: the collection pass, and again whenever a
    /// statement rewrites the joined path, for the statements after it.
    /// Entries a rewrite leaves stale are dropped by the re-applied
    /// filter.
    fn enlist(&mut self, id: DocId, doc: &Document) {
        let Self { compiled, groups, by_key, ranks, scratch, .. } = self;
        for_each_single_key(doc, compiled, |key| {
            if (1 << key.canonical_rank()) & *ranks == 0 {
                return;
            }
            keybytes::encode_into(key, scratch);
            let Some(&g) = by_key.get(scratch.as_slice()) else { return };
            let slots = &mut groups[g];
            if slots.last().is_none_or(|&last| last < id) {
                slots.push(id);
            } else if let Err(at) = slots.binary_search(&id) {
                slots.insert(at, id);
            }
        });
    }

    /// Statement `at`'s candidate slots; `None` when it is not keyed.
    fn candidates(&self, at: usize) -> Option<&[DocId]> {
        self.group_of[at].map(|g| self.groups[g].as_slice())
    }
}

/// The keys a document had in one index before an edit, and has after.
type KeyMove = (Vec<Key>, Vec<Key>);

/// What an update call keeps while a WAL is attached: the frames its
/// group commit appends, and what a failed append has to undo.
#[derive(Default)]
struct UpdateLog {
    /// Post-image frames of modified documents (and an upsert's insert),
    /// in apply order, each encoded from the document where it lies.
    batch: WalBatch,
    /// Pre-images of the replaced documents, in apply order.
    undo: Vec<(DocId, Document)>,
    /// Slot of the document an upsert created.
    upserted: Option<DocId>,
}

struct Inner {
    slab: Slab,
    indexes: Vec<Index>,
    /// Optional columnar sidecar: one column per path declared through
    /// [`Collection::enable_columnar`] or scanned often enough to earn
    /// one (`build_due_columns`), maintained by every slab mutation
    /// below (insert/update/delete and their WAL rollbacks) so it is
    /// always consistent with the slab. Not logged, checkpointed or
    /// replicated.
    columnar: Option<columnar::ColumnSet>,
    /// Per-field statistics for the cost-based planner, adjusted by the
    /// same mutations (write paths use `get_mut`, so the mutex is
    /// uncontended there; read-path planning locks it briefly under the
    /// shared `inner` lock — lock order `inner` → `stats`).
    stats: Mutex<CollStats>,
}

/// A collection of documents with secondary indexes. Thread-safe: reads
/// take a shared lock, writes an exclusive one (the engine-level analogue
/// of MongoDB's collection-level locking the thesis discusses in its
/// future-work chapter).
pub struct Collection {
    name: String,
    inner: RwLock<Inner>,
    /// Write-ahead log, if the owning database is durable. Writes are
    /// logged *after* applying but *before* acknowledging, while still
    /// holding the exclusive `inner` lock, so frame order always agrees
    /// with apply order (lock order: `inner` → WAL mutex).
    wal: RwLock<Option<Arc<Wal>>>,
}

impl Collection {
    /// Creates an empty collection with the default unique `_id` index.
    pub fn new(name: impl Into<String>) -> Self {
        let id_index = Index::new(IndexDef {
            name: "_id_".to_owned(),
            fields: vec![("_id".to_owned(), SortOrder::Ascending)],
            kind: IndexKind::BTree,
            unique: true,
        })
        .expect("_id index definition is valid");
        Collection {
            name: name.into(),
            inner: RwLock::new(Inner {
                slab: Slab::new(),
                indexes: vec![id_index],
                columnar: None,
                stats: Mutex::new(CollStats::new()),
            }),
            wal: RwLock::new(None),
        }
    }

    /// The collection name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Routes subsequent writes through a write-ahead log. Recovery
    /// attaches the WAL only *after* replay, so replayed operations are
    /// not re-logged.
    pub fn attach_wal(&self, wal: Arc<Wal>) {
        *self.wal.write() = Some(wal);
    }

    fn wal_handle(&self) -> Option<Arc<Wal>> {
        self.wal.read().clone()
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.inner.read().slab.len()
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total encoded size of stored documents in bytes.
    pub fn data_size(&self) -> usize {
        self.inner.read().slab.data_size()
    }

    /// Average encoded document size in bytes (0 if empty).
    pub fn avg_doc_size(&self) -> usize {
        let inner = self.inner.read();
        inner
            .slab
            .data_size()
            .checked_div(inner.slab.len())
            .unwrap_or(0)
    }

    /// Inserts one document, assigning an ObjectId `_id` if absent.
    /// Returns the document's id value.
    pub fn insert_one(&self, mut doc: Document) -> Result<Value> {
        let id = doc.ensure_id();
        let size = encoded_size(&doc);
        if size > MAX_DOCUMENT_SIZE {
            return Err(Error::DocumentTooLarge { size, max: MAX_DOCUMENT_SIZE });
        }
        let wal = self.wal_handle();
        let mut inner = self.inner.write();
        let (slot, stored) = Self::insert_locked(&mut inner, doc)?;
        if let Some(wal) = wal {
            let mut batch = WalBatch::new();
            batch.insert(&self.name, stored);
            if let Err(e) = wal.commit(batch) {
                // The commit rewound the log; undo the apply too, so the
                // errored insert is absent everywhere.
                Self::rollback_inserts(&mut inner, &[slot]);
                return Err(e);
            }
        }
        Ok(id)
    }

    /// Inserts many documents; stops at the first error, returning the
    /// count inserted so far alongside the error. If the batch's WAL
    /// commit fails, every insert of this call is rolled back (memory
    /// rejoins the rewound log) and the count reported is 0.
    pub fn insert_many(
        &self,
        docs: impl IntoIterator<Item = Document>,
    ) -> std::result::Result<usize, (usize, Error)> {
        let wal = self.wal_handle();
        let mut inner = self.inner.write();
        let mut n = 0;
        // With a WAL: one frame per applied insert, encoded from the
        // stored document, and the slots a failed commit has to empty.
        let mut batch = WalBatch::new();
        let mut applied: Vec<DocId> = Vec::new();
        let mut failed = None;
        for mut doc in docs {
            doc.ensure_id();
            let size = encoded_size(&doc);
            if size > MAX_DOCUMENT_SIZE {
                failed = Some(Error::DocumentTooLarge { size, max: MAX_DOCUMENT_SIZE });
                break;
            }
            match Self::insert_locked(&mut inner, doc) {
                Ok((slot, stored)) => {
                    if wal.is_some() {
                        batch.insert(&self.name, stored);
                        applied.push(slot);
                    }
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
            n += 1;
        }
        // The successfully-inserted prefix is logged (as one group
        // commit) even when a later document errored: those inserts are
        // applied and must survive a crash.
        if let Some(wal) = wal {
            if !batch.is_empty() {
                if let Err(e) = wal.commit(batch) {
                    Self::rollback_inserts(&mut inner, &applied);
                    return Err((0, e));
                }
            }
        }
        match failed {
            Some(e) => Err((n, e)),
            None => Ok(n),
        }
    }

    /// Stores `doc` and indexes it; returns its slot and the stored
    /// document, which the caller logs from where it now lies.
    fn insert_locked(inner: &mut Inner, doc: Document) -> Result<(DocId, &Document)> {
        // Validate unique indexes before touching state.
        for idx in inner.indexes.iter().filter(|idx| idx.def.unique) {
            if extract_keys(&doc, &idx.def)?.iter().any(|k| idx.contains_key(k)) {
                return Err(idx.def.duplicate(&doc));
            }
        }
        // Split-borrow so the indexes can read the stored document in
        // place instead of cloning it for backfill.
        let Inner { slab, indexes, columnar, stats } = inner;
        let id = slab.insert(doc);
        let doc_ref = slab.get(id).expect("just inserted");
        for idx in indexes.iter_mut() {
            idx.insert(id, doc_ref)
                .expect("uniqueness pre-validated");
        }
        if let Some(cs) = columnar {
            cs.set_row(id, doc_ref);
        }
        stats.get_mut().record_insert(doc_ref);
        Ok((id, doc_ref))
    }

    /// Undoes applied-but-unlogged inserts after a WAL append failure
    /// (the append already rewound the log), so memory and log agree
    /// again and a later seal fingerprint stays reproducible.
    fn rollback_inserts(inner: &mut Inner, slots: &[DocId]) {
        for slot in slots.iter().rev() {
            if let Some(doc) = inner.slab.remove(*slot) {
                for idx in &mut inner.indexes {
                    idx.remove(*slot, &doc);
                }
                if let Some(cs) = &mut inner.columnar {
                    cs.clear_row(*slot);
                }
                inner.stats.get_mut().record_delete(&doc);
            }
        }
    }

    /// Creates an index; backfills existing documents. Creating an index
    /// that already exists (same definition) is a no-op.
    pub fn create_index(&self, def: IndexDef) -> Result<()> {
        def.validate()?;
        let wal = self.wal_handle();
        let mut inner = self.inner.write();
        if let Some(existing) = inner.indexes.iter().find(|i| i.def.name == def.name) {
            if existing.def == def {
                return Ok(());
            }
            return Err(Error::IndexConflict(def.name));
        }
        let tracked: Vec<String> = def.field_names().iter().map(|s| (*s).to_owned()).collect();
        let mut idx = Index::new(def)?;
        for (id, doc) in inner.slab.iter() {
            idx.insert(id, doc)?;
        }
        if let Some(wal) = wal {
            let mut batch = WalBatch::new();
            batch.create_index(&self.name, &idx.def);
            wal.commit(batch)?;
        }
        inner.indexes.push(idx);
        // Indexed fields are exactly the ones the cost model needs
        // selectivities for; tracking forces a rebuild before the next
        // cost-based plan.
        inner.stats.get_mut().track_fields(tracked.iter().map(String::as_str));
        Ok(())
    }

    /// Drops an index by name (the `_id_` index cannot be dropped).
    pub fn drop_index(&self, name: &str) -> Result<()> {
        if name == "_id_" {
            return Err(Error::InvalidIndex("cannot drop the _id index".into()));
        }
        let wal = self.wal_handle();
        let mut inner = self.inner.write();
        let pos = inner
            .indexes
            .iter()
            .position(|i| i.def.name == name)
            .ok_or_else(|| Error::NoSuchIndex(name.to_owned()))?;
        let removed = inner.indexes.remove(pos);
        if let Some(wal) = wal {
            let mut batch = WalBatch::new();
            batch.drop_index(&self.name, name);
            if let Err(e) = wal.commit(batch) {
                inner.indexes.insert(pos, removed);
                return Err(e);
            }
        }
        Ok(())
    }

    /// The definitions of all indexes on this collection.
    pub fn index_defs(&self) -> Vec<IndexDef> {
        self.inner.read().indexes.iter().map(|i| i.def.clone()).collect()
    }

    /// Total encoded size of index keys — a stand-in for index memory
    /// footprint in working-set calculations (thesis Section 2.1.3.2).
    pub fn index_size(&self) -> usize {
        let inner = self.inner.read();
        inner
            .indexes
            .iter()
            .map(|i| i.entry_count() * 16) // entries × (key ref + DocId)
            .sum()
    }

    /// Bytes held by the columnar sidecar (0 without one) — the
    /// sidecar's counterpart of [`Collection::index_size`]. Bounded by
    /// 8 bytes and 4 bits per slot and column plus one bit per slot,
    /// and [`columnar::DICT_CAP`] dictionary entries per string column.
    pub fn columnar_size(&self) -> usize {
        self.inner.read().columnar.as_ref().map_or(0, columnar::ColumnSet::bytes)
    }

    /// Visits the plan's candidate slots in fetch order (slot order for
    /// the two scans) until `visit` returns false, and returns the number
    /// of rows the plan examined to produce them: the documents visited
    /// for a collection scan or an index, the live rows the filter was
    /// evaluated on for a column scan. `compiled` is the plan's residual
    /// compiled for documents; every caller re-applies it to what it is
    /// handed, so no access path can change a result.
    fn for_each_candidate(
        inner: &Inner,
        plan: &Plan,
        compiled: &CompiledFilter,
        mut visit: impl FnMut(DocId) -> bool,
    ) -> usize {
        fn visit_ids(
            ids: impl Iterator<Item = DocId>,
            visit: &mut impl FnMut(DocId) -> bool,
        ) -> usize {
            let mut n = 0;
            for id in ids {
                n += 1;
                if !visit(id) {
                    break;
                }
            }
            n
        }
        /// An index's ids, each document once and in the order the index
        /// gave them. Only a multikey index can repeat one (an array
        /// with equal elements under one key, or with elements under
        /// several keys of the lookup), so only it pays for the set.
        fn once_each(idx: &Index, mut ids: Vec<DocId>) -> Vec<DocId> {
            if idx.is_multikey() {
                let mut seen = HashSet::with_capacity(ids.len());
                ids.retain(|id| seen.insert(*id));
            }
            ids
        }
        match &plan.kind {
            PlanKind::CollScan => visit_ids(inner.slab.iter().map(|(id, _)| id), &mut visit),
            PlanKind::ColumnScan { .. } => {
                let cs = inner.columnar.as_ref().expect("planner only scans existing columns");
                columnar::scan(cs, &inner.slab, &plan.residual, compiled, &mut visit)
            }
            PlanKind::IndexEq { index, keys } => {
                let idx = Self::index_by_name(inner, index);
                let mut ids = Vec::new();
                let mut scratch = Vec::new();
                for key in keys {
                    scratch.clear();
                    for v in key {
                        keybytes::encode_value(v, &mut scratch);
                    }
                    ids.extend_from_slice(idx.lookup_eq(&scratch));
                }
                visit_ids(once_each(idx, ids).into_iter(), &mut visit)
            }
            PlanKind::IndexRange { index, min, max } => {
                let idx = Self::index_by_name(inner, index);
                let ids = idx
                    .lookup_range(
                        min.as_ref().map(|(v, i)| (v, *i)),
                        max.as_ref().map(|(v, i)| (v, *i)),
                    )
                    .unwrap_or_default();
                visit_ids(once_each(idx, ids).into_iter(), &mut visit)
            }
        }
    }

    /// Every candidate slot of the plan, for the write paths that mutate
    /// the collection while walking them.
    fn fetch_candidates(inner: &Inner, plan: &Plan, compiled: &CompiledFilter) -> Vec<DocId> {
        let mut ids = Vec::new();
        Self::for_each_candidate(inner, plan, compiled, |id| {
            ids.push(id);
            true
        });
        ids
    }

    fn index_by_name<'a>(inner: &'a Inner, name: &str) -> &'a Index {
        inner
            .indexes
            .iter()
            .find(|i| i.def.name == name)
            .expect("planner only names existing indexes")
    }

    /// Plans `filter`: a unique index pinned on every field is the plan
    /// outright ([`unique_point_plan`]); otherwise refreshes stale
    /// statistics — only when the filter constrains a path, since no
    /// estimate reaches an unconstrained choice — and prices index
    /// candidates and the column scan against the collection scan. Returns the row estimate that drove the
    /// choice. `fetch` is false only for the aggregation driver's covered
    /// terminal, which reads the selection off the columns and fetches no
    /// document. The plan's residual is the full filter, so the choice can
    /// never change results.
    fn plan(inner: &Inner, filter: &Filter, fetch: bool) -> (Plan, u64) {
        let live = inner.slab.len();
        let constraints = conjunctive_constraints(filter);
        let costed = match unique_point_plan(filter, &constraints, &inner.indexes, live) {
            Some(point) => point,
            None => {
                let mut st = inner.stats.lock();
                if !constraints.is_empty() && st.needs_rebuild(live) {
                    st.rebuild(&inner.slab);
                }
                let has_column =
                    |p: &str| inner.columnar.as_ref().is_some_and(|cs| cs.has_column(p));
                plan_with_stats(filter, &constraints, &inner.indexes, &st, live, &has_column, fetch)
            }
        };
        (costed.plan, costed.est_rows)
    }

    /// Counts a collection scan over a collection
    /// of at least [`stats::AUTO_COLUMNAR_MIN_DOCS`] documents against
    /// every path of its filter that has no column. True when one of
    /// them is now due a column; the caller then calls
    /// [`Self::build_due_columns`] once it holds the write lock (read
    /// paths: [`Self::finish_scan`]). A filter reading a rejected path is not counted: no column
    /// scan can ever serve it.
    fn note_scan(inner: &Inner, plan: &Plan) -> bool {
        if !matches!(plan.kind, PlanKind::CollScan)
            || inner.slab.len() < stats::AUTO_COLUMNAR_MIN_DOCS
        {
            return false;
        }
        let cs = inner.columnar.as_ref();
        let paths = plan.residual.referenced_paths();
        if paths.iter().any(|p| cs.is_some_and(|cs| cs.is_rejected(p))) {
            return false;
        }
        let uncovered = paths.into_iter().filter(|p| !cs.is_some_and(|cs| cs.has_column(p)));
        inner.stats.lock().note_scan(uncovered)
    }

    /// Ends a read path's scan: counts it ([`Self::note_scan`]) and, with
    /// the read lock released, builds the columns that are now due.
    fn finish_scan(&self, inner: parking_lot::RwLockReadGuard<'_, Inner>, plan: &Plan) {
        let due = Self::note_scan(&inner, plan);
        drop(inner);
        if due {
            Self::build_due_columns(&mut self.inner.write(), &plan.residual);
        }
    }

    /// Rows the plan examines and how many of them satisfy the filter.
    fn count_matching(inner: &Inner, plan: &Plan, compiled: &CompiledFilter) -> (usize, usize) {
        let mut matching = 0;
        let examined = Self::for_each_candidate(inner, plan, compiled, |id| {
            matching +=
                usize::from(inner.slab.get(id).is_some_and(|d| matches_compiled(compiled, d)));
            true
        });
        (examined, matching)
    }

    /// Adds a column for every path of `filter` that is due one, in one
    /// pass over the slab, and registers the paths with the statistics
    /// so the column scan can be priced. A racing builder that comes
    /// second finds nothing due and returns.
    fn build_due_columns(inner: &mut Inner, filter: &Filter) {
        let Inner { slab, columnar, stats, .. } = inner;
        let stats = stats.get_mut();
        let due: Vec<&str> =
            filter.referenced_paths().into_iter().filter(|p| stats.column_due(p)).collect();
        if due.is_empty() || slab.len() < stats::AUTO_COLUMNAR_MIN_DOCS {
            return;
        }
        let cs = columnar.get_or_insert_with(|| columnar::ColumnSet::over(slab));
        cs.add_columns(&due, slab, false);
        for p in &due {
            stats.forget_scans(p);
        }
        stats.track_fields(due.into_iter().filter(|p| cs.has_column(p)));
    }

    /// Finds documents matching a filter.
    pub fn find(&self, filter: &Filter) -> Vec<Document> {
        self.find_with(filter, &FindOptions::default())
    }

    /// Finds with sort/skip/limit/projection.
    pub fn find_with(&self, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        self.find_with_shared(filter, &compile(filter), opts)
    }

    /// [`Collection::find_with`] with a caller-compiled filter, so hot
    /// paths that evaluate the same filter repeatedly (the sharded
    /// router's scatter legs) compile it once. The snapshot's documents
    /// are the page: a stored document is copy-on-write, so returning it
    /// copies no field (a projection builds its page from them instead).
    ///
    /// The read lock is held only long enough to plan and snapshot the
    /// candidate documents (see [`Self::snapshot_candidates`]); sorting
    /// and paging run lock-free, so a slow scan cannot convoy writers —
    /// and other readers — behind it. Without a sort, a `limit` stops the
    /// scan at `skip + limit` matches.
    pub fn find_with_shared(
        &self,
        filter: &Filter,
        compiled: &CompiledFilter,
        opts: &FindOptions,
    ) -> Vec<Document> {
        let want = if opts.sort.is_empty() && opts.limit > 0 {
            opts.skip.saturating_add(opts.limit)
        } else {
            usize::MAX
        };
        let (mut matched, _) = self.snapshot_candidates(filter, compiled, want);
        if want == usize::MAX {
            matched.retain(|d| matches_compiled(compiled, d));
        }
        if !opts.sort.is_empty() {
            sort_documents(&mut matched, &opts.sort);
        }
        let lo = opts.skip.min(matched.len());
        let hi = if opts.limit > 0 {
            opts.skip.saturating_add(opts.limit).min(matched.len())
        } else {
            matched.len()
        };
        matched.truncate(hi);
        matched.drain(..lo);
        if opts.projection.is_empty() {
            matched
        } else {
            matched.iter().map(|d| project_paths(d, &opts.projection)).collect()
        }
    }

    /// Finds the first matching document.
    pub fn find_one(&self, filter: &Filter) -> Option<Document> {
        self.find_with(filter, &FindOptions::new().with_limit(1))
            .into_iter()
            .next()
    }

    /// Counts matching documents without materializing them.
    pub fn count(&self, filter: &Filter) -> usize {
        let compiled = compile(filter);
        let inner = self.inner.read();
        let (plan, _) = Self::plan(&inner, filter, true);
        let (_, matching) = Self::count_matching(&inner, &plan, &compiled);
        self.finish_scan(inner, &plan);
        matching
    }

    /// Explains how a filter would execute, running it to report counts.
    /// Diagnostic only: it is not counted as a scan of the filter's
    /// paths, so it reports the plan the next `find` will get.
    pub fn explain(&self, filter: &Filter) -> Explain {
        let compiled = compile(filter);
        let inner = self.inner.read();
        let (plan, est_rows) = Self::plan(&inner, filter, true);
        let (docs_examined, docs_returned) = Self::count_matching(&inner, &plan, &compiled);
        Explain {
            plan: plan.describe(),
            used_index: plan.uses_index(),
            docs_examined,
            docs_returned,
            est_rows,
        }
    }

    /// Updates matching documents.
    ///
    /// The four parameters mirror the thesis's description of the update
    /// query in Fig 4.7 step 10: selection criteria, modification,
    /// `upsert`, and `multi`.
    pub fn update(
        &self,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult> {
        self.update_ordered(&[(filter, spec, multi)], upsert)
    }

    /// Applies `ops` as one *ordered* bulk update: statements run in
    /// slice order, each seeing the effects of the ones before it, under
    /// one write-lock acquisition and one WAL group commit. The first
    /// statement error stops the batch and is returned; what was applied
    /// before it stays applied and logged. A failed WAL append rolls
    /// back every statement of the batch. Returns the summed counts.
    ///
    /// Statements that pin one shared path by equality are routed by one
    /// pass over the collection instead of each planning and fetching
    /// for itself (see [`StatementJoin`]).
    pub fn update_batch<'a>(
        &self,
        ops: impl IntoIterator<Item = &'a BulkUpdate>,
    ) -> Result<UpdateResult> {
        let ops: Vec<_> = ops.into_iter().map(|op| (&op.filter, &op.spec, op.multi)).collect();
        self.update_ordered(&ops, false)
    }

    /// The one apply/log/rollback routine behind [`Collection::update`]
    /// (one statement, optionally upserting) and
    /// [`Collection::update_batch`].
    fn update_ordered(
        &self,
        ops: &[(&Filter, &UpdateSpec, bool)],
        upsert: bool,
    ) -> Result<UpdateResult> {
        let wal = self.wal_handle();
        let mut inner = self.inner.write();
        let mut join = StatementJoin::over(&inner.slab, ops);
        let mut log = wal.as_ref().map(|_| UpdateLog::default());

        // Applied post-images are logged even when a later document or
        // statement errors: their effects are in memory and must
        // survive a crash.
        let outcome = (|| -> Result<UpdateResult> {
            let mut total = UpdateResult::default();
            for (at, &statement) in ops.iter().enumerate() {
                let join = join.as_mut().map(|j| (j, at));
                self.apply_statement(&mut inner, statement, join, log.as_mut(), &mut total)?;
            }
            if total.matched == 0 && upsert {
                let (filter, spec, _) = ops[0];
                let mut seed = upsert_seed(filter);
                apply_update(&mut seed, spec)?;
                let id = seed.ensure_id();
                let (slot, stored) = Self::insert_locked(&mut inner, seed)?;
                if let Some(log) = &mut log {
                    log.upserted = Some(slot);
                    log.batch.insert(&self.name, stored);
                }
                total.upserted_id = Some(id);
            }
            Ok(total)
        })();

        if let (Some(wal), Some(log)) = (wal, log) {
            if !log.batch.is_empty() {
                if let Err(e) = wal.commit(log.batch) {
                    // The commit rewound the log; undo the applies in
                    // reverse order so memory rejoins it.
                    if let Some(slot) = log.upserted {
                        Self::rollback_inserts(&mut inner, &[slot]);
                    }
                    for (id, old) in log.undo.into_iter().rev() {
                        let new = inner.slab.replace(id, old).expect("doc exists");
                        let Inner { slab, indexes, columnar, stats } = &mut *inner;
                        let old_ref = slab.get(id).expect("just restored");
                        for idx in indexes.iter_mut() {
                            idx.remove(id, &new);
                            idx.insert(id, old_ref).expect("was indexed before");
                        }
                        if let Some(cs) = columnar {
                            cs.set_row(id, old_ref);
                        }
                        stats.get_mut().record_update(&new, old_ref);
                    }
                    return Err(e);
                }
            }
        }
        outcome
    }

    /// Runs one update statement under the held write lock: take its
    /// candidates from the batch's join (`join` carries it and the
    /// statement's position) or plan and fetch them, re-apply the filter,
    /// and edit each match where it lies, adjusting the indexes, columns
    /// and statistics over the paths the spec touches and no others.
    /// With `log` present (a WAL is attached) it records the post-image
    /// frames and the pre-images a rollback needs. Counts go into `total`
    /// as they happen.
    fn apply_statement(
        &self,
        inner: &mut Inner,
        (filter, spec, multi): (&Filter, &UpdateSpec, bool),
        mut join: Option<(&mut StatementJoin, usize)>,
        mut log: Option<&mut UpdateLog>,
        total: &mut UpdateResult,
    ) -> Result<()> {
        let keyed = join.as_ref().and_then(|(j, at)| j.candidates(*at));
        if keyed.is_some_and(<[DocId]>::is_empty) {
            return Ok(());
        }
        let compiled = compile(filter);
        // Either way the candidates come in slot order, once each — what
        // a scan would visit — so which document a single-document
        // update picks, and how often a multikey match is updated, never
        // depends on what found them.
        let ids = match keyed {
            Some(slots) => slots.to_vec(),
            None => {
                let (plan, _) = Self::plan(inner, filter, true);
                let mut ids = Self::fetch_candidates(inner, &plan, &compiled);
                if Self::note_scan(inner, &plan) {
                    Self::build_due_columns(inner, &plan.residual);
                }
                if plan.uses_index() {
                    ids.sort_unstable();
                    ids.dedup();
                }
                ids
            }
        };
        let Inner { slab, indexes, columnar, stats } = inner;
        let stats = stats.get_mut();
        let touched: Vec<usize> = (0..indexes.len())
            .filter(|&i| indexes[i].def.fields.iter().any(|(field, _)| spec.touches(field)))
            .collect();
        let stat_fields = stats.touched_fields(|path| spec.touches(path));
        let rejoins = join.as_ref().is_some_and(|(j, _)| spec.touches(&j.path));
        // A statement applies to a document fully or not at all. One
        // operator fails before it changes anything, so a copy to
        // restore from is taken only when something else can refuse the
        // edited document — a later operator, a unique or compound index
        // over a touched path, the size cap (checked per document below)
        // — or when the WAL needs it as the undo entry anyway.
        let refusable = log.is_some()
            || !matches!(spec, UpdateSpec::Ops(ops) if ops.len() == 1)
            || touched.iter().any(|&i| indexes[i].def.unique || indexes[i].def.fields.len() > 1);
        let max_growth = spec.max_growth();
        for id in ids {
            let Some(doc) = slab.get(id) else { continue };
            if !matches_compiled(&compiled, doc) {
                continue;
            }
            total.matched += 1;
            let old_stats: Vec<_> = stat_fields.iter().map(|path| doc.get_path(path)).collect();
            let edited = slab
                .edit(id, |doc, size| {
                    let pre_image = (refusable || size + max_growth > MAX_DOCUMENT_SIZE)
                        .then(|| doc.clone());
                    match Self::edit_document(doc, size, spec, id, indexes, &touched) {
                        Ok(None) => Ok((0, None)),
                        Ok(Some((delta, keys))) => Ok((delta, Some((pre_image, keys)))),
                        Err(e) => {
                            if let Some(pre_image) = pre_image {
                                *doc = pre_image;
                            }
                            Err(e)
                        }
                    }
                })
                .expect("doc exists")?;
            if let Some((pre_image, keys)) = edited {
                for (&i, (old, new)) in touched.iter().zip(keys) {
                    if old != new {
                        indexes[i].rekey(id, &old, new);
                    }
                }
                let doc = slab.get(id).expect("just edited");
                if let Some(cs) = columnar {
                    cs.set_cells(id, doc, |path| spec.touches(path));
                }
                stats.record_edit(&stat_fields, old_stats, doc);
                if let (true, Some((join, _))) = (rejoins, &mut join) {
                    join.enlist(id, doc);
                }
                // Log the post-image so replay is independent of how
                // the update expression computed it.
                if let Some(log) = &mut log {
                    let pre_image = pre_image.ok_or_else(|| {
                        Error::Storage("a logged update kept no pre-image to roll back to".into())
                    })?;
                    log.undo.push((id, pre_image));
                    log.batch.update(&self.name, doc);
                }
                total.modified += 1;
            }
            if !multi {
                break;
            }
        }
        Ok(())
    }

    /// The fallible half of an in-place update: applies `spec` to `doc`
    /// (of encoded size `size`, in slot `id`) and decides whether the
    /// result may stay — under the size cap, and with keys every touched
    /// index accepts, all checked before any index is changed. `None`
    /// when the document did not change; otherwise the size delta and,
    /// per index of `touched`, the keys the document had and has. On
    /// `Err` the document may be half-edited: the caller restores it.
    fn edit_document(
        doc: &mut Document,
        size: usize,
        spec: &UpdateSpec,
        id: DocId,
        indexes: &[Index],
        touched: &[usize],
    ) -> Result<Option<(isize, Vec<KeyMove>)>> {
        let old_keys: Vec<_> = touched
            .iter()
            .map(|&i| extract_keys(doc, &indexes[i].def).unwrap_or_default())
            .collect();
        let before = spec.touched_size(doc);
        if !apply_update(doc, spec)? {
            return Ok(None);
        }
        let delta = spec.touched_size(doc) as isize - before as isize;
        let size = size.saturating_add_signed(delta);
        if size > MAX_DOCUMENT_SIZE {
            return Err(Error::DocumentTooLarge { size, max: MAX_DOCUMENT_SIZE });
        }
        let mut keys = Vec::with_capacity(touched.len());
        for (&i, old) in touched.iter().zip(old_keys) {
            let new = extract_keys(doc, &indexes[i].def)?;
            if indexes[i].def.unique && indexes[i].conflicts(id, &new) {
                return Err(indexes[i].def.duplicate(doc));
            }
            keys.push((old, new));
        }
        Ok(Some((delta, keys)))
    }

    /// Deletes matching documents, returning the count removed. A WAL
    /// append failure rolls the whole delete back (see
    /// [`Collection::try_delete_many`]) and reports 0 removed; callers
    /// that need the error itself should use the fallible form.
    pub fn delete_many(&self, filter: &Filter) -> usize {
        self.try_delete_many(filter).unwrap_or(0)
    }

    /// Fallible [`Collection::delete_many`]. The removed `_id`s are
    /// logged as size-bounded `Delete` frames in one group commit; on
    /// append failure the log is rewound, every removal is reinserted,
    /// and the error is returned — the delete either fully happened
    /// (memory and log) or not at all.
    pub fn try_delete_many(&self, filter: &Filter) -> Result<usize> {
        let wal = self.wal_handle();
        let mut inner = self.inner.write();
        let (plan, _) = Self::plan(&inner, filter, true);
        let compiled = compile(filter);
        let ids = Self::fetch_candidates(&inner, &plan, &compiled);
        if Self::note_scan(&inner, &plan) {
            Self::build_due_columns(&mut inner, &plan.residual);
        }
        let mut removed = 0;
        // With a WAL: the removed documents, which the frames take their
        // `_id`s from and a failed commit reinserts.
        let mut undo: Vec<Document> = Vec::new();
        for id in ids {
            let is_match = inner
                .slab
                .get(id)
                .is_some_and(|d| matches_compiled(&compiled, d));
            if !is_match {
                continue;
            }
            let old = inner.slab.remove(id).expect("checked above");
            for idx in &mut inner.indexes {
                idx.remove(id, &old);
            }
            if let Some(cs) = &mut inner.columnar {
                cs.clear_row(id);
            }
            inner.stats.get_mut().record_delete(&old);
            if wal.is_some() {
                undo.push(old);
            }
            removed += 1;
        }
        if let Some(wal) = wal {
            let mut batch = WalBatch::new();
            batch.delete(&self.name, undo.iter().filter_map(Document::id));
            if !batch.is_empty() {
                if let Err(e) = wal.commit(batch) {
                    for doc in undo.into_iter().rev() {
                        Self::insert_locked(&mut inner, doc)
                            .expect("rollback reinserts a doc that was just removed");
                    }
                    return Err(e);
                }
            }
        }
        Ok(removed)
    }

    /// Runs an aggregation pipeline. A trailing `$out` stage is ignored
    /// here (results are returned); use `Database::aggregate` to
    /// materialize into a collection.
    ///
    /// The leading `$match` run is served through the planner, so an
    /// indexed `$match` avoids a full scan — the optimization MongoDB
    /// applies and the thesis's queries depend on.
    pub fn aggregate(&self, pipeline: &Pipeline) -> Result<Vec<Document>> {
        self.aggregate_with(pipeline, None)
    }

    /// [`Collection::aggregate`] with a `$lookup` resolver (the database
    /// that owns the foreign collections) — the one aggregation driver
    /// (DESIGN.md, *Aggregation driver*). The leading `$match` run is
    /// ANDed into one filter and planned like any `find`; then either
    /// the filter and a following `$count` / `$group` are computed off
    /// the columns under the read lock, fetching nothing
    /// ([`Self::plan_covered`]), or the plan's candidates are snapshotted
    /// as shared handles, the lock is released, and the stages stream
    /// over the borrowed documents — so a selective indexed match
    /// touches (and clones) only the documents that survive, and a
    /// `$lookup` back into this collection cannot deadlock. The choice
    /// never changes a result or an error string
    /// (`tests/plan_vs_reference.rs`).
    pub fn aggregate_with(
        &self,
        pipeline: &Pipeline,
        source: Option<&dyn LookupSource>,
    ) -> Result<Vec<Document>> {
        let (filter, rest) = Self::split_match_pushdown(pipeline.body()?);
        let compiled = compile(&filter);
        let inner = self.inner.read();
        if let Some((plan, covered)) = Self::plan_covered(&inner, &filter, &compiled, rest.first()) {
            let cs = inner.columnar.as_ref().expect("a covered plan implies a sidecar");
            let grouped = columnar::execute(cs, &inner.slab, &covered);
            self.finish_scan(inner, &plan);
            return stream::run_streaming(stream::DocStream::from_vec(grouped?), &rest[1..], source);
        }
        drop(inner);
        let (snapshot, _) = self.snapshot_candidates(&filter, &compiled, usize::MAX);
        let matched = snapshot.iter().filter(move |d| matches_compiled(&compiled, d));
        stream::run_streaming(stream::DocStream::Borrowed(Box::new(matched)), rest, source)
    }

    /// The driver's decision: `Some` when `filter` followed by `next` is
    /// a covered aggregate ([`columnar::plan`]) and the planner — told
    /// that nothing will be fetched — still prefers no index.
    fn plan_covered<'p>(
        inner: &Inner,
        filter: &Filter,
        compiled: &'p CompiledFilter,
        next: Option<&'p Stage>,
    ) -> Option<(Plan, columnar::ColPlan<'p>)> {
        let covered = columnar::plan(filter, compiled, next, inner.columnar.as_ref()?)?;
        let (plan, _) = Self::plan(inner, filter, false);
        (!plan.uses_index()).then_some((plan, covered))
    }

    /// Declares scalar paths to maintain as typed column vectors, ahead
    /// of the scans that would earn them a column, and builds the ones
    /// not yet present from the current contents; columns that already
    /// exist are kept. Subsequent writes keep them consistent. Declared
    /// columns also serve `$group` keys and accumulator inputs of the
    /// aggregation driver's covered terminal, which lazily built columns
    /// (filter paths only) do not.
    pub fn enable_columnar<I, S>(&self, fields: I)
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let fields: Vec<String> = fields.into_iter().map(Into::into).collect();
        let paths: Vec<&str> = fields.iter().map(String::as_str).collect();
        let mut inner = self.inner.write();
        let Inner { slab, columnar, stats, .. } = &mut *inner;
        stats.get_mut().track_fields(paths.iter().copied());
        columnar
            .get_or_insert_with(|| columnar::ColumnSet::over(slab))
            .add_columns(&paths, slab, true);
    }

    /// True if a columnar sidecar is maintained.
    pub fn columnar_enabled(&self) -> bool {
        self.inner.read().columnar.is_some()
    }

    /// Drops the columnar sidecar (every read goes back to the documents).
    pub fn disable_columnar(&self) {
        self.inner.write().columnar = None;
    }

    /// Plans `filter` and snapshots its candidate documents under the
    /// read lock (a clone each: a refcount bump, no field copied), releasing
    /// it before anything is sorted, paged or aggregated. The snapshot is
    /// consistent — a held document never changes: an update edits a
    /// slot in place only when nobody else holds it, and a copy otherwise
    /// ([`Slab::edit`]) — and lock-free execution means an analytical scan does not
    /// convoy concurrent writers (or `$lookup` re-entry into this
    /// collection) behind it. What is evaluated under the lock depends on
    /// the plan: nothing for a collection scan or an index (the caller
    /// applies the filter to the snapshot), the filter over the typed
    /// columns for a column scan, which then takes the matching
    /// documents only.
    ///
    /// `want` bounds the snapshot to the first `want` *matching*
    /// candidates (`usize::MAX`: all candidates, unfiltered): the filter
    /// then runs under the lock on each candidate visited and the scan
    /// stops early. Returns the documents and the rows examined.
    fn snapshot_candidates(
        &self,
        filter: &Filter,
        compiled: &CompiledFilter,
        want: usize,
    ) -> (Vec<Document>, usize) {
        let inner = self.inner.read();
        let (plan, _) = Self::plan(&inner, filter, true);
        let mut snapshot = Vec::new();
        let examined = Self::for_each_candidate(&inner, &plan, compiled, |id| {
            let keep = want == usize::MAX
                || inner.slab.get(id).is_some_and(|d| matches_compiled(compiled, d));
            if keep {
                snapshot.extend(inner.slab.get(id).cloned());
            }
            snapshot.len() < want
        });
        self.finish_scan(inner, &plan);
        (snapshot, examined)
    }

    /// Splits off the leading `$match` run for planner pushdown
    /// (MongoDB's optimizer coalesces adjacent `$match`es the same way).
    /// The residual conjunction is always re-applied, so this is safe
    /// for any filter shape.
    fn split_match_pushdown(body: &[Stage]) -> (Filter, &[Stage]) {
        let n_match = body.iter().take_while(|s| matches!(s, Stage::Match(_))).count();
        let filter = Filter::and(body[..n_match].iter().map(|s| match s {
            Stage::Match(f) => f.clone(),
            _ => unreachable!("prefix is all $match"),
        }));
        (filter, &body[n_match..])
    }

    /// Runs `read` over index `name` and the documents its slots name,
    /// under one hold of the shared lock, so a key and the document it
    /// names cannot come apart (a slot freed by a concurrent delete and
    /// refilled by an insert). Fails with [`Error::NoSuchIndex`] when the
    /// collection has no index of that name.
    pub fn read_index<R>(&self, name: &str, read: impl FnOnce(IndexRead<'_>) -> R) -> Result<R> {
        let inner = self.inner.read();
        let index = inner
            .indexes
            .iter()
            .find(|i| i.def.name == name)
            .ok_or_else(|| Error::NoSuchIndex(name.to_owned()))?;
        Ok(read(IndexRead { index, slab: &inner.slab }))
    }

    /// Visits every document without cloning (shared lock held for the
    /// duration).
    pub fn for_each(&self, mut f: impl FnMut(&Document)) {
        let inner = self.inner.read();
        for (_, doc) in inner.slab.iter() {
            f(doc);
        }
    }

    /// Fallible [`Collection::for_each`]: stops at the first error and
    /// returns it, so callers like the dump writer do not keep encoding
    /// documents into a sink that already failed.
    pub fn try_for_each<E>(
        &self,
        mut f: impl FnMut(&Document) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        let inner = self.inner.read();
        for (_, doc) in inner.slab.iter() {
            f(doc)?;
        }
        Ok(())
    }

    /// Clones out all documents.
    pub fn all_docs(&self) -> Vec<Document> {
        let inner = self.inner.read();
        inner.slab.iter().map(|(_, d)| d.clone()).collect()
    }

    /// Runs `f` over the collection's documents borrowed straight from
    /// storage, holding the read lock for the duration — the clone-free
    /// backing for [`crate::agg::LookupSource::with_collection_docs`].
    /// `f` must not call back into this collection (the lock is held).
    pub fn with_docs(&self, f: &mut dyn for<'a> FnMut(&mut (dyn Iterator<Item = &'a Document> + 'a))) {
        let inner = self.inner.read();
        f(&mut inner.slab.iter().map(|(_, d)| d));
    }

    /// Build/probe metadata for the `$lookup` strategy choice: live
    /// document count and whether `field` leads a probe-usable index
    /// (any single-field index, or a compound B-tree whose prefix range
    /// can serve an equality on the first field).
    pub fn lookup_meta(&self, field: &str) -> LookupMeta {
        let inner = self.inner.read();
        let has_index = inner.indexes.iter().any(|i| {
            let names = i.def.field_names();
            names.first() == Some(&field) && (names.len() == 1 || i.def.kind == IndexKind::BTree)
        });
        LookupMeta { docs: inner.slab.len(), has_index }
    }

    /// All documents whose `field` equals `key` under `$lookup` equality
    /// semantics, in slab (insertion-slot) order — the index-nested-loop
    /// probe. Multikey index candidates over-approximate, so every
    /// candidate is re-checked against the resolved value exactly the
    /// way the hash-join path buckets it; with no usable index the probe
    /// degrades to a scan, so results never depend on index presence.
    pub fn docs_by_field_eq(&self, field: &str, key: &Value) -> Vec<Document> {
        let inner = self.inner.read();
        let mut ids: Vec<DocId> = 'ids: {
            for idx in &inner.indexes {
                let names = idx.def.field_names();
                if names.first() != Some(&field) {
                    continue;
                }
                if names.len() == 1 {
                    break 'ids idx.lookup_eq(Key::of(key).as_bytes()).to_vec();
                }
                if idx.def.kind == IndexKind::BTree {
                    if let Some(ids) = idx.lookup_range(Some((key, true)), Some((key, true))) {
                        break 'ids ids;
                    }
                }
            }
            inner.slab.iter().map(|(id, _)| id).collect()
        };
        ids.sort_unstable();
        ids.dedup();
        ids.into_iter()
            .filter_map(|id| inner.slab.get(id))
            .filter(|d| d.get_path(field).as_ref().unwrap_or(&Value::Null).canonical_eq(key))
            .cloned()
            .collect()
    }

    /// Estimated fraction of documents matching `filter`, refreshing
    /// stale statistics first.
    pub fn estimate_fraction(&self, filter: &Filter) -> f64 {
        let inner = self.inner.read();
        let mut st = inner.stats.lock();
        if st.needs_rebuild(inner.slab.len()) {
            st.rebuild(&inner.slab);
        }
        st.estimate_fraction(filter)
    }

    /// Estimated matching rows for `filter` (see
    /// [`Collection::estimate_fraction`]).
    pub fn estimate_rows(&self, filter: &Filter) -> u64 {
        let inner = self.inner.read();
        let live = inner.slab.len();
        let mut st = inner.stats.lock();
        if st.needs_rebuild(live) {
            st.rebuild(&inner.slab);
        }
        st.estimate_rows(filter, live)
    }

    /// Serializes the collection's statistics for the checkpoint
    /// manifest (see [`CollStats::to_doc`]).
    pub fn stats_doc(&self) -> Document {
        self.inner.read().stats.lock().to_doc()
    }

    /// Restores statistics serialized by [`Collection::stats_doc`], so a
    /// recovered database plans as well as it did before the restart.
    pub fn load_stats_doc(&self, d: &Document) {
        *self.inner.write().stats.get_mut() = CollStats::from_doc(d);
    }

    /// Explains an aggregation: runs the pipeline one stage at a time,
    /// reporting per-stage estimated vs actual row counts and the
    /// physical decisions [`Collection::aggregate_with`] takes (access
    /// plan for the leading `$match` stages, `COLUMNS` for a `$group` /
    /// `$count` it computes off the columns, join strategy per
    /// `$lookup`). A trailing `$out` is skipped.
    pub fn explain_aggregate(
        &self,
        pipeline: &Pipeline,
        source: Option<&dyn LookupSource>,
    ) -> Result<AggExplain> {
        let body = pipeline.body()?;
        let (filter, rest) = Self::split_match_pushdown(body);
        let n_match = body.len() - rest.len();
        let covered = {
            let inner = self.inner.read();
            Self::plan_covered(&inner, &filter, &compile(&filter), rest.first()).is_some()
        };
        let mut docs = self.all_docs();
        let mut report = Vec::with_capacity(body.len());
        for (i, stage) in body.iter().enumerate() {
            let mut est_rows = None;
            let mut decision = None;
            match stage {
                Stage::Match(_) if i < n_match => {
                    let (cum, _) = Self::split_match_pushdown(&body[..=i]);
                    let (p, est) = Self::plan(&self.inner.read(), &cum, !covered);
                    est_rows = Some(est);
                    decision = Some(p.describe());
                }
                Stage::Group { .. } | Stage::Count(_) if covered && i == n_match => {
                    decision = Some("COLUMNS".to_owned());
                }
                Stage::Lookup { from, local_field, foreign_field, .. } => {
                    if let Some(src) = source {
                        let indexed =
                            kernel::use_indexed_lookup(&docs, src, from, local_field, foreign_field);
                        let strategy = if indexed { "INDEX_NESTED_LOOP" } else { "HASH_JOIN" };
                        decision = Some(format!("{strategy} {{ {from}.{foreign_field} }}"));
                    }
                }
                _ => {}
            }
            docs = stream::execute_streaming(docs, std::slice::from_ref(stage), source)?;
            report.push(StageExplain {
                stage: stage_name(stage).to_owned(),
                est_rows,
                actual_rows: docs.len() as u64,
                decision,
            });
        }
        Ok(AggExplain { collection: self.name.clone(), stages: report, view_staleness: None })
    }
}

/// The `$`-prefixed name of a stage, for explain output.
fn stage_name(stage: &Stage) -> &'static str {
    match stage {
        Stage::Match(_) => "$match",
        Stage::Project(_) => "$project",
        Stage::Group { .. } => "$group",
        Stage::Sort(_) => "$sort",
        Stage::Limit(_) => "$limit",
        Stage::Skip(_) => "$skip",
        Stage::Unwind(_) => "$unwind",
        Stage::Lookup { .. } => "$lookup",
        Stage::Count(_) => "$count",
        Stage::Out(_) => "$out",
    }
}

/// Projects a document down to `_id` plus the listed paths — the
/// `find`-style inclusion projection. Shared with the sharded router,
/// which applies it after merging when the projection cannot be pushed
/// to the shards.
pub fn project_paths(doc: &Document, paths: &[String]) -> Document {
    let mut out = Document::new();
    if let Some(id) = doc.id() {
        out.set("_id", id.clone());
    }
    for p in paths {
        if let Some(v) = doc.get_path(p) {
            out.set_path(p, v);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;

    fn seeded() -> Collection {
        let c = Collection::new("items");
        c.insert_many((0..100).map(|i| {
            doc! {"_id" => i as i64, "grp" => (i % 10) as i64, "val" => (i * 2) as i64}
        }))
        .unwrap();
        c
    }

    #[test]
    fn insert_assigns_object_ids() {
        let c = Collection::new("t");
        let id = c.insert_one(doc! {"a" => 1i64}).unwrap();
        assert!(matches!(id, Value::ObjectId(_)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn duplicate_id_rejected() {
        let c = Collection::new("t");
        c.insert_one(doc! {"_id" => 1i64}).unwrap();
        assert!(matches!(
            c.insert_one(doc! {"_id" => 1i64}),
            Err(Error::DuplicateId(_))
        ));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn find_uses_id_index() {
        let c = seeded();
        let ex = c.explain(&Filter::eq("_id", 42i64));
        assert!(ex.used_index);
        assert_eq!(ex.docs_examined, 1);
        assert_eq!(ex.docs_returned, 1);
    }

    #[test]
    fn secondary_index_backfills_and_serves() {
        let c = seeded();
        let before = c.explain(&Filter::eq("grp", 3i64));
        assert!(!before.used_index);
        assert_eq!(before.docs_examined, 100);

        c.create_index(IndexDef::single("grp")).unwrap();
        let after = c.explain(&Filter::eq("grp", 3i64));
        assert!(after.used_index);
        assert_eq!(after.docs_examined, 10);
        assert_eq!(after.docs_returned, 10);
    }

    #[test]
    fn create_same_index_twice_is_noop() {
        let c = seeded();
        c.create_index(IndexDef::single("grp")).unwrap();
        c.create_index(IndexDef::single("grp")).unwrap();
        assert_eq!(c.index_defs().len(), 2); // _id_ + grp_1
    }

    #[test]
    fn drop_index_works_but_not_id() {
        let c = seeded();
        c.create_index(IndexDef::single("grp")).unwrap();
        c.drop_index("grp_1").unwrap();
        assert!(c.drop_index("grp_1").is_err());
        assert!(c.drop_index("_id_").is_err());
    }

    #[test]
    fn find_with_sort_skip_limit_projection() {
        let c = seeded();
        let out = c.find_with(
            &Filter::lt("val", 20i64),
            &FindOptions::new()
                .sort_by("val", -1)
                .with_skip(1)
                .with_limit(3)
                .include("val"),
        );
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].get("val"), Some(&Value::Int64(16)));
        assert!(out[0].get("grp").is_none());
        assert!(out[0].get("_id").is_some());
    }

    #[test]
    fn find_one_and_unsorted_limit_stop_at_the_last_document_they_need() {
        let c = seeded();
        let filter = Filter::eq("grp", 3i64);
        let compiled = compile(&filter);
        // grp 3 holds slots 3, 13, 23, …: the first match is the 4th
        // document visited, the third the 24th.
        let (page, examined) = c.snapshot_candidates(&filter, &compiled, 1);
        assert_eq!((page.len(), examined), (1, 4));
        let (page, examined) = c.snapshot_candidates(&filter, &compiled, 3);
        assert_eq!((page.len(), examined), (3, 24));
        let (all, examined) = c.snapshot_candidates(&filter, &compiled, usize::MAX);
        assert_eq!((all.len(), examined), (100, 100), "unbounded: every candidate, unfiltered");

        assert_eq!(c.find_one(&filter).unwrap().get("_id"), Some(&Value::Int64(3)));
        let ids = |opts: &FindOptions| -> Vec<i64> {
            c.find_with(&filter, opts).iter().map(|d| d.get("_id").unwrap().as_i64().unwrap()).collect()
        };
        assert_eq!(ids(&FindOptions::new().with_skip(1).with_limit(2)), vec![13, 23]);
        assert_eq!(ids(&FindOptions::new().with_skip(9).with_limit(5)), vec![93]);
        // A sort needs every match before it can page.
        assert_eq!(ids(&FindOptions::new().sort_by("val", -1).with_limit(2)), vec![93, 83]);
        // The index path stops early too.
        c.create_index(IndexDef::single("grp")).unwrap();
        let (page, examined) = c.snapshot_candidates(&filter, &compiled, 2);
        assert_eq!((page.len(), examined), (2, 2));
    }

    #[test]
    fn update_multi_and_single() {
        let c = seeded();
        let r = c
            .update(&Filter::eq("grp", 1i64), &UpdateSpec::set("flag", true), false, true)
            .unwrap();
        assert_eq!(r.matched, 10);
        assert_eq!(r.modified, 10);

        let r = c
            .update(&Filter::eq("grp", 2i64), &UpdateSpec::set("flag", true), false, false)
            .unwrap();
        assert_eq!(r.matched, 1);
    }

    #[test]
    fn update_maintains_indexes() {
        let c = seeded();
        c.create_index(IndexDef::single("grp")).unwrap();
        c.update(&Filter::eq("_id", 5i64), &UpdateSpec::set("grp", 99i64), false, true)
            .unwrap();
        let out = c.find(&Filter::eq("grp", 99i64));
        assert_eq!(out.len(), 1);
        let ex = c.explain(&Filter::eq("grp", 5i64));
        assert_eq!(ex.docs_returned, 9); // one moved out of grp 5
    }

    /// `n` embed-style statements: `{grp: i} → $set grp: {pk: i}`.
    fn embed_statements(n: i64) -> Vec<BulkUpdate> {
        (0..n)
            .map(|i| BulkUpdate {
                filter: Filter::eq("grp", i),
                spec: UpdateSpec::set("grp", doc! {"pk" => i}),
                multi: true,
            })
            .collect()
    }

    fn as_refs(ops: &[BulkUpdate]) -> Vec<(&Filter, &UpdateSpec, bool)> {
        ops.iter().map(|op| (&op.filter, &op.spec, op.multi)).collect()
    }

    #[test]
    fn statements_are_joined_on_the_path_two_or_more_of_them_pin() {
        let c = seeded();
        let inner = c.inner.read();
        let route = |ops: &[BulkUpdate]| StatementJoin::over(&inner.slab, &as_refs(ops));
        assert!(route(&embed_statements(1)).is_none(), "one statement plans for itself");
        assert!(route(&[]).is_none());

        let mut ops = embed_statements(3);
        ops.push(BulkUpdate {
            filter: Filter::lt("val", 10i64),
            spec: UpdateSpec::set("flag", true),
            multi: true,
        });
        ops.push(BulkUpdate {
            filter: Filter::and([Filter::eq("grp", 1i32), Filter::gt("val", 50i64)]),
            spec: UpdateSpec::set("flag", true),
            multi: true,
        });
        ops.push(BulkUpdate {
            filter: Filter::is_in("grp", [1i64, 2i64]),
            spec: UpdateSpec::set("flag", true),
            multi: true,
        });
        let join = route(&ops).expect("four statements pin grp");
        assert_eq!(join.path, "grp");
        // Statement 4 pins the value statement 1 does (across numeric
        // types) and shares its candidates; a range and a two-valued
        // `$in` are not keyed.
        assert_eq!(join.group_of, vec![Some(0), Some(1), Some(2), None, Some(1), None]);
        assert_eq!(join.candidates(1).unwrap(), [1, 11, 21, 31, 41, 51, 61, 71, 81, 91]);
        assert_eq!(join.candidates(3), None);

        // The most-pinned path wins, the alphabetically first on a tie.
        let two_paths: Vec<BulkUpdate> = (0..2i64)
            .map(|i| BulkUpdate {
                filter: Filter::and([Filter::eq("val", i), Filter::eq("grp", i)]),
                spec: UpdateSpec::set("flag", true),
                multi: true,
            })
            .collect();
        assert_eq!(route(&two_paths).unwrap().path, "grp");
        // One whole-array comparison rules its path out: a document's
        // keys are its array's elements, so the join would miss what
        // that statement's scan finds.
        let mut with_array = embed_statements(4);
        with_array[3].filter = Filter::eq("grp", doclite_bson::array![1i64, 2i64]);
        assert!(route(&with_array).is_none());
    }

    #[test]
    fn joined_batch_applies_in_order_and_leaves_nothing_behind() {
        for indexed in [false, true] {
            let c = seeded();
            if indexed {
                c.create_index(IndexDef::single("grp")).unwrap();
            }
            let defs = c.index_defs();
            let mut ops = embed_statements(10);
            // A chain through the joined field: grp 3 → 4 happens before
            // the statement that embeds grp 4, which must then see those
            // rows — and the statement that embeds grp 3 must not.
            ops.insert(
                0,
                BulkUpdate {
                    filter: Filter::eq("grp", 3i64),
                    spec: UpdateSpec::set("grp", 4i64),
                    multi: true,
                },
            );
            let r = c.update_batch(&ops).unwrap();
            assert_eq!((r.matched, r.modified), (110, 110));
            assert_eq!(c.count(&Filter::eq("grp.pk", 4i64)), 20);
            assert_eq!(c.count(&Filter::eq("grp.pk", 3i64)), 0);
            assert_eq!(c.index_defs(), defs);
            assert_eq!(c.explain(&Filter::eq("grp.pk", 4i64)).docs_returned, 20);
            assert_eq!(c.explain(&Filter::eq("grp", 5i64)).used_index, indexed);

            // A statement error stops the batch and keeps what came
            // before it.
            let c = seeded();
            let mut ops = embed_statements(10);
            ops[2].spec = UpdateSpec::set("_id", 0i64);
            let err = c.update_batch(&ops).unwrap_err();
            assert_eq!(err.to_string(), "invalid query: _id is immutable");
            assert_eq!(c.count(&Filter::exists("grp.pk")), 20, "statements 0 and 1 applied");
            assert_eq!(c.index_defs().len(), 1);
        }
    }

    /// Index contents as lookups see them: per probed key, the `_id`s an
    /// index-served equality returns.
    fn lookups(c: &Collection, path: &str, keys: impl IntoIterator<Item = Value>) -> Vec<Vec<i64>> {
        keys.into_iter()
            .map(|k| {
                let filter = Filter::eq(path, k);
                assert!(c.explain(&filter).used_index, "{path} is indexed");
                c.find(&filter).iter().map(|d| d.get("_id").unwrap().as_i64().unwrap()).collect()
            })
            .collect()
    }

    #[test]
    fn refused_update_leaves_the_document_and_every_index_as_they_were() {
        let fresh = || {
            let c = Collection::new("t");
            c.create_index(IndexDef::single("v")).unwrap();
            c.create_index(IndexDef::single("u").unique()).unwrap();
            c.insert_many([
                doc! {"_id" => 0i64, "u" => 1i64, "v" => 10i64},
                doc! {"_id" => 1i64, "u" => 2i64, "v" => 20i64},
                doc! {"_id" => 2i64, "u" => 3i64, "v" => 30i64},
            ])
            .unwrap();
            c
        };
        let state = |c: &Collection| {
            (
                c.all_docs(),
                lookups(c, "u", (1..=4i64).map(Value::Int64)),
                lookups(c, "v", [10i64, 20, 21, 30].map(Value::Int64)),
                c.data_size(),
            )
        };
        // `v` is indexed ahead of `u`: it used to be re-keyed before `u`
        // refused the document.
        let collide = UpdateSpec::set("v", 21i64).and_set("u", 1i64);

        let c = fresh();
        let before = state(&c);
        let err = c.update(&Filter::eq("u", 2i64), &collide, false, true).unwrap_err();
        assert!(matches!(err, Error::DuplicateId(_)), "{err}");
        assert_eq!(state(&c), before);

        // As statement 2 of 3: statement 1 stays, statement 3 never runs.
        let c = fresh();
        let ops = [
            BulkUpdate { filter: Filter::eq("u", 3i64), spec: UpdateSpec::set("u", 4i64), multi: true },
            BulkUpdate { filter: Filter::eq("u", 2i64), spec: collide.clone(), multi: true },
            BulkUpdate { filter: Filter::eq("u", 1i64), spec: UpdateSpec::set("v", 11i64), multi: true },
        ];
        assert!(matches!(c.update_batch(&ops), Err(Error::DuplicateId(_))));
        let expected = fresh();
        expected.update(&ops[0].filter, &ops[0].spec, false, true).unwrap();
        assert_eq!(state(&c), state(&expected));
        assert_eq!(lookups(&c, "u", [Value::Int64(4)]), [[2]]);
    }

    #[test]
    fn in_place_update_is_copy_on_write_for_a_reader_holding_the_document() {
        let c = seeded();
        let filter = Filter::eq("_id", 7i64);
        let (held, _) = c.snapshot_candidates(&filter, &compile(&filter), usize::MAX);
        let spec = UpdateSpec::set("grp", doc! {"pk" => 7i64});
        assert_eq!(c.update(&filter, &spec, false, true).unwrap().modified, 1);
        assert_eq!(held[0].get("grp"), Some(&Value::Int64(7)), "the handle keeps the pre-image");
        let now = c.find_one(&filter).unwrap();
        assert_eq!(now.get_path("grp.pk"), Some(Value::Int64(7)), "the collection serves the post-image");
        // `$set` of an existing key keeps its position; a new key appends.
        c.update(&filter, &UpdateSpec::set("flag", true), false, true).unwrap();
        let keys: Vec<String> = c.find_one(&filter).unwrap().keys().cloned().collect();
        assert_eq!(keys, ["_id", "grp", "val", "flag"]);
    }

    #[test]
    fn update_rekeys_only_the_indexes_over_the_paths_it_touches() {
        let c = Collection::new("t");
        for def in [IndexDef::single("a"), IndexDef::single("a.b"), IndexDef::single("c")] {
            c.create_index(def).unwrap();
        }
        c.insert_many((0..4i64).map(|i| doc! {"_id" => i, "a" => doc! {"b" => i}, "c" => i % 2}))
            .unwrap();
        let entries = |c: &Collection| -> Vec<usize> {
            c.inner.read().indexes.iter().map(Index::entry_count).collect()
        };
        // The untouched indexes are not visited at all: emptied behind
        // the collection's back, they stay empty through the update.
        {
            let mut inner = c.inner.write();
            for i in [0, 3] {
                let def = inner.indexes[i].def.clone();
                inner.indexes[i] = Index::new(def).unwrap();
            }
        }
        c.update(&Filter::eq("a.b", 1i64), &UpdateSpec::set("a.b", 9i64), false, true).unwrap();
        assert_eq!(entries(&c), [0, 4, 4, 0], "_id_ and c_1 were not re-keyed");
        assert_eq!(lookups(&c, "a.b", [1i64, 9].map(Value::Int64)), [vec![], vec![1]]);
        assert_eq!(lookups(&c, "a", [Value::Document(doc! {"b" => 9i64})]), [[1]]);

        let unset = UpdateSpec::Ops(vec![crate::update::UpdateOp::Unset("a".into())]);
        c.update(&Filter::eq("a.b", 9i64), &unset, false, true).unwrap();
        assert_eq!(entries(&c), [0, 4, 4, 0]);
        assert_eq!(lookups(&c, "a.b", [Value::Int64(9), Value::Null]), [vec![], vec![1]]);
        assert_eq!(lookups(&c, "a", [Value::Null]), [[1]]);
    }

    #[test]
    fn upsert_creates_from_filter_equalities() {
        let c = Collection::new("t");
        let r = c
            .update(
                &Filter::eq("k", 7i64),
                &UpdateSpec::set("v", "new"),
                true,
                true,
            )
            .unwrap();
        assert!(r.upserted_id.is_some());
        let doc = c.find_one(&Filter::eq("k", 7i64)).unwrap();
        assert_eq!(doc.get("v"), Some(&Value::from("new")));
    }

    #[test]
    fn delete_many_removes_and_unindexes() {
        let c = seeded();
        c.create_index(IndexDef::single("grp")).unwrap();
        let n = c.delete_many(&Filter::eq("grp", 0i64));
        assert_eq!(n, 10);
        assert_eq!(c.len(), 90);
        assert!(c.find(&Filter::eq("grp", 0i64)).is_empty());
    }

    #[test]
    fn oversized_document_rejected() {
        let c = Collection::new("t");
        let big = "x".repeat(MAX_DOCUMENT_SIZE);
        assert!(matches!(
            c.insert_one(doc! {"s" => big}),
            Err(Error::DocumentTooLarge { .. })
        ));
    }

    #[test]
    fn update_past_the_size_cap_is_refused_and_leaves_the_document() {
        let c = Collection::new("t");
        c.insert_one(doc! {"_id" => 1i64, "s" => "x".repeat(MAX_DOCUMENT_SIZE - 100)}).unwrap();
        let before = (c.all_docs(), c.data_size());
        let by_id = Filter::eq("_id", 1i64);
        let err = c.update(&by_id, &UpdateSpec::set("t", "y".repeat(200)), false, true).unwrap_err();
        assert!(matches!(err, Error::DocumentTooLarge { size, .. } if size > MAX_DOCUMENT_SIZE), "{err}");
        assert_eq!((c.all_docs(), c.data_size()), before);
        assert_eq!(c.update(&by_id, &UpdateSpec::set("t", "y"), false, true).unwrap().modified, 1);
        assert_eq!(c.data_size(), before.1 + "t".len() + 2 + 4 + "y".len() + 1);
    }

    #[test]
    fn aggregate_leading_match_uses_index() {
        use crate::agg::{Accumulator, GroupId, Pipeline};
        let c = seeded();
        c.create_index(IndexDef::single("grp")).unwrap();
        let out = c
            .aggregate(
                &Pipeline::new()
                    .match_stage(Filter::eq("grp", 4i64))
                    .group(GroupId::Null, [("total", Accumulator::sum_field("val"))]),
            )
            .unwrap();
        assert_eq!(out.len(), 1);
        // grp 4 holds _ids 4,14,…,94; val = 2*_id
        let expected: i64 = (0..10).map(|i| (4 + 10 * i) * 2).sum();
        assert_eq!(out[0].get("total"), Some(&Value::Int64(expected)));
    }

    #[test]
    fn an_unconstrained_plan_builds_no_statistics() {
        use crate::agg::{Accumulator, Expr, GroupId, Pipeline};
        let c = Collection::new("t");
        c.insert_many((0..1000i64).map(|i| doc! {"_id" => i, "g" => i % 7})).unwrap();
        let built = || c.stats_doc().get("built") == Some(&Value::Bool(true));
        assert_eq!(c.count(&Filter::True), 1000);
        let by_g = Pipeline::new()
            .group(GroupId::Expr(Expr::field("g")), [("n", Accumulator::count())]);
        assert_eq!(c.aggregate(&by_g).unwrap().len(), 7);
        assert!(!built(), "no estimate reaches an unconstrained plan");
        assert_eq!(c.count(&Filter::gte("g", 3i64)), 4 * 1000 / 7);
        assert!(built(), "a constrained plan still builds the statistics");
    }

    #[test]
    fn data_size_accounts_inserts_and_deletes() {
        let c = Collection::new("t");
        assert_eq!(c.data_size(), 0);
        c.insert_one(doc! {"a" => "hello"}).unwrap();
        let sz = c.data_size();
        assert!(sz > 0);
        c.delete_many(&Filter::True);
        assert_eq!(c.data_size(), 0);
        assert_eq!(c.avg_doc_size(), 0);
    }
}
