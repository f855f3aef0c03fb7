//! Incrementally maintained materialized views over the change stream.
//!
//! A view is a Q7-shaped aggregation — `$match* → $group [→ $sort [→
//! $limit]]` — registered once with [`ViewSet::create_view`] and kept
//! current by applying change-stream deltas instead of re-executing the
//! pipeline. Reads are served from a cached materialization at
//! point-read cost, tagged with a staleness watermark (the WAL sequence
//! number the view reflects).
//!
//! ## Invertibility
//!
//! A view's groups hold the same [`AccState`]s a query's `$group` does,
//! fed through the same compiled inputs. Each insert folds in and leaves
//! a contribution token per accumulator; a delete hands the tokens back
//! to [`AccState::retract`]. Following the expressivity bounds of
//! Botoeva et al. (PAPERS.md), that splits the accumulators three ways:
//!
//! * **Exact while integral** — `$sum`, `$avg` (and `$sum: 1` counts):
//!   an integer input is subtracted back out while the magnitudes the
//!   group holds add up to at most 2^53, where f64 addition is exact in
//!   any order. Retracting a double, or out of a larger total, marks the
//!   group dirty instead: subtraction would not undo the rounding.
//! * **Insert-only** — `$min`, `$max`: inserts fold in directly; a
//!   retraction that removed a non-null input marks the group dirty.
//! * **Recompute-only** — `$first`, `$last`, `$push`, `$addToSet`
//!   depend on physical document order; [`ViewSet::create_view`]
//!   rejects them ([`Accumulator::is_maintainable`]).
//!
//! The next refresh recomputes each dirty group (not the view) from the
//! source collection, so a view reads as a recompute does; its doubles
//! can differ only by the reassociation of f64 addition, because a view
//! folds inserts in log order and a recompute in slot order.
//!
//! ## Consistency
//!
//! Group output order is canonical key order (not the executor's
//! first-appearance order), then the registered `$sort`, so a view read
//! is deterministic regardless of delta arrival order. Reads serve the
//! last *clean* materialization: if a refresh leaves dirty groups
//! behind (it recomputes them under the source collection's read lock,
//! so this only happens transiently), readers keep the previous
//! consistent snapshot and its watermark.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

use doclite_bson::{Document, Value};
use parking_lot::Mutex;

use crate::agg::accum::{AccState, Contribution};
use crate::agg::kernel::compile_group;
use crate::agg::sort_documents;
use crate::agg::{Accumulator, CompiledExpr, Pipeline, Stage};
use crate::changes::{watch, ChangeCursor, ChangeScope};
use crate::database::Database;
use crate::error::{Error, Result};
use crate::keybytes::Key;
use crate::query::{compile, matches_compiled, CompiledFilter};
use crate::wal::{DurableDb, Wal, WalRecord};

/// Rounds of the dirty-group/drain loop per refresh before giving up
/// and leaving the stale-but-consistent cache in place (only reachable
/// under a sustained concurrent write storm).
const MAX_DIRTY_ROUNDS: usize = 32;

/// Frames applied per [`ViewSet::refresh`] call before it returns:
/// keeps one refresh bounded even when writers outpace the applier, so
/// readers blocked on the set mutex are never starved. The next refresh
/// resumes at the cursor position this one reached; the staleness
/// watermark reports the lag honestly in the meantime.
const MAX_FRAMES_PER_REFRESH: usize = 1 << 16;

/// What one [`ViewSet::refresh`] call did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Change-stream frames applied across all views.
    pub frames_applied: u64,
    /// Views rebuilt from a full source scan (resume token truncated,
    /// or first build).
    pub full_rebuilds: u64,
    /// Dirty groups recomputed from the source (retractions the
    /// accumulators could not take back exactly).
    pub groups_recomputed: u64,
    /// Heartbeat frames appended because the stream was idle.
    pub heartbeats: u64,
}

/// One group's incremental state.
#[derive(Clone, Debug)]
struct GroupState {
    /// First-seen group-key value, emitted as `_id`.
    rep: Value,
    /// Documents currently contributing (passing the view filter).
    live: u64,
    accs: Vec<AccState>,
    /// An accumulator could not take an input back; the group can't be
    /// trusted until recomputed from the source.
    dirty: bool,
}

/// Everything one document contributed, keyed for retraction.
#[derive(Clone, Debug)]
struct DocContrib {
    group: Key,
    inputs: Vec<Contribution>,
}

#[derive(Default)]
struct ViewState {
    /// Groups by key; a BTreeMap so materialization is in canonical key
    /// order.
    groups: BTreeMap<Key, GroupState>,
    /// `_id` key → contribution, for retraction on delete/update.
    contribs: HashMap<Key, DocContrib>,
    dirty_groups: usize,
}

/// The compiled, validated shape of a registered view.
struct CompiledView {
    source: String,
    filters: Vec<CompiledFilter>,
    id: CompiledExpr,
    fields: Vec<(String, Accumulator)>,
    inputs: Vec<CompiledExpr>,
    sort: Option<Vec<(String, i32)>>,
    limit: Option<usize>,
    pipeline: Pipeline,
}

impl CompiledView {
    fn compile(source: &str, pipeline: &Pipeline) -> Result<CompiledView> {
        let shape_err = || {
            Error::InvalidQuery(
                "view pipelines must be $match* -> $group [-> $sort [-> $limit]]; other \
                 stages are recompute-only"
                    .into(),
            )
        };
        let mut stages = pipeline.stages().iter();
        let mut filters = Vec::new();
        let mut group = None;
        let mut sort = None;
        let mut limit = None;
        for stage in &mut stages {
            match stage {
                Stage::Match(f) if group.is_none() => filters.push(compile(f)),
                Stage::Group { id, fields } if group.is_none() => group = Some((id, fields)),
                Stage::Sort(spec) if group.is_some() && sort.is_none() && limit.is_none() => {
                    sort = Some(spec.clone());
                }
                Stage::Limit(n) if group.is_some() && limit.is_none() => limit = Some(*n),
                _ => return Err(shape_err()),
            }
        }
        let (id, fields) = group.ok_or_else(shape_err)?;
        if !fields.iter().all(|(_, spec)| spec.is_maintainable()) {
            return Err(Error::InvalidQuery(
                "$first/$last/$push/$addToSet depend on document order and are not \
                 incrementally maintainable; this accumulator is recompute-only"
                    .into(),
            ));
        }
        let (id, inputs) = compile_group(id, fields);
        Ok(CompiledView {
            source: source.to_owned(),
            filters,
            id,
            fields: fields.clone(),
            inputs,
            sort,
            limit,
            pipeline: pipeline.clone(),
        })
    }

    /// Folds `doc` into its group, created on first sight, if it passes
    /// the view's filters and `only` (when given) holds its group key.
    /// Returns the group key and each accumulator's contribution. A
    /// registration, an insert and a dirty group's recompute all fold
    /// through here.
    fn fold(
        &self,
        groups: &mut BTreeMap<Key, GroupState>,
        doc: &Document,
        only: Option<&BTreeSet<Key>>,
    ) -> Result<Option<(Key, Vec<Contribution>)>> {
        if !self.filters.iter().all(|f| matches_compiled(f, doc)) {
            return Ok(None);
        }
        let rep = self.id.eval_ref(doc)?;
        let key = Key::of(rep.as_value());
        if only.is_some_and(|keys| !keys.contains(&key)) {
            return Ok(None);
        }
        let group = groups.entry(key.clone()).or_insert_with(|| GroupState {
            rep: rep.into_value(),
            live: 0,
            accs: self.fields.iter().map(|(_, spec)| AccState::new(spec)).collect(),
            dirty: false,
        });
        group.live += 1;
        let inputs = group
            .accs
            .iter_mut()
            .zip(&self.inputs)
            .map(|(acc, input)| Ok(acc.accumulate_resolved(input.eval_ref(doc)?)))
            .collect::<Result<_>>()?;
        Ok(Some((key, inputs)))
    }
}

struct View {
    def: CompiledView,
    state: ViewState,
    /// WAL seq this view's state reflects (frames at or below are
    /// applied or subsumed by a rebuild scan).
    watermark: u64,
    /// Whether `state` changed since the clean cache was built.
    touched: bool,
    /// The served materialization and the watermark it was clean at.
    clean_docs: Arc<Vec<Document>>,
    clean_watermark: u64,
}

impl View {
    fn mark_dirty(state: &mut ViewState, key: &Key) {
        if let Some(g) = state.groups.get_mut(key) {
            if !g.dirty {
                g.dirty = true;
                state.dirty_groups += 1;
            }
        }
    }

    fn apply_insert(def: &CompiledView, state: &mut ViewState, doc: &Document) -> Result<()> {
        let Some((group, inputs)) = def.fold(&mut state.groups, doc, None)? else {
            return Ok(());
        };
        if let Some(id) = doc.id() {
            state.contribs.insert(Key::of(id), DocContrib { group, inputs });
        }
        Ok(())
    }

    fn apply_retract(state: &mut ViewState, id: &Value) {
        let Some(contrib) = state.contribs.remove(&Key::of(id)) else {
            return; // the document never passed the view's filter
        };
        let Some(group) = state.groups.get_mut(&contrib.group) else {
            return;
        };
        let mut exact = true;
        for (acc, c) in group.accs.iter_mut().zip(contrib.inputs) {
            exact &= acc.retract(c);
        }
        group.live -= 1;
        if group.live == 0 {
            // The group vanishes outright — a recompute would not emit
            // it, so no dirty recompute is needed either.
            let was_dirty = group.dirty;
            state.groups.remove(&contrib.group);
            if was_dirty {
                state.dirty_groups -= 1;
            }
        } else if !exact {
            View::mark_dirty(state, &contrib.group);
        }
    }

    /// Applies one change-stream record; the caller advances the
    /// watermark.
    fn apply_record(&mut self, record: &WalRecord) -> Result<()> {
        match record {
            WalRecord::Insert { doc, .. } => {
                self.touched = true;
                View::apply_insert(&self.def, &mut self.state, doc)
            }
            WalRecord::Update { doc, .. } => {
                self.touched = true;
                if let Some(id) = doc.id() {
                    let id = id.clone();
                    View::apply_retract(&mut self.state, &id);
                }
                View::apply_insert(&self.def, &mut self.state, doc)
            }
            WalRecord::Delete { ids, .. } => {
                self.touched = true;
                for id in ids {
                    View::apply_retract(&mut self.state, id);
                }
                Ok(())
            }
            WalRecord::DropCollection { .. } => {
                self.touched = true;
                self.state = ViewState::default();
                Ok(())
            }
            // Index ops don't change content; Noop/Seal are markers.
            WalRecord::CreateIndex { .. }
            | WalRecord::DropIndex { .. }
            | WalRecord::Seal { .. }
            | WalRecord::Noop => Ok(()),
        }
    }

    fn materialize(&self) -> Vec<Document> {
        let mut out = Vec::with_capacity(self.state.groups.len());
        for group in self.state.groups.values() {
            let mut d = Document::new();
            d.set("_id", group.rep.clone());
            for ((name, _), acc) in self.def.fields.iter().zip(&group.accs) {
                d.set(name.clone(), acc.clone().finish());
            }
            out.push(d);
        }
        if let Some(spec) = &self.def.sort {
            sort_documents(&mut out, spec);
        }
        if let Some(n) = self.def.limit {
            out.truncate(n);
        }
        out
    }
}

struct SetInner {
    cursor: ChangeCursor,
    views: BTreeMap<String, View>,
}

/// A view's served materialization and the watermark it is clean at.
type Snapshot = (Arc<Vec<Document>>, u64);

/// A registry of incrementally maintained views over one database's
/// WAL. All maintenance happens inside [`ViewSet::refresh`]; reads
/// never touch the source collections.
pub struct ViewSet {
    db: Arc<Database>,
    wal: Arc<Wal>,
    inner: Mutex<SetInner>,
    /// Clean snapshots by view name, behind their own lock: a read
    /// never queues behind a refresh mid-drain. Lock order: `inner`
    /// before `published` (reads take only `published`).
    published: Mutex<BTreeMap<String, Snapshot>>,
    heartbeat_on_idle: std::sync::atomic::AtomicBool,
}

impl ViewSet {
    /// A view set following `db`'s writes through `wal`. The stream
    /// starts at the current tip; views register with a full build.
    pub fn new(db: Arc<Database>, wal: Arc<Wal>) -> Result<ViewSet> {
        let cursor = watch(&wal, ChangeScope::Database, None)?;
        Ok(ViewSet {
            db,
            wal,
            inner: Mutex::new(SetInner { cursor, views: BTreeMap::new() }),
            published: Mutex::new(BTreeMap::new()),
            heartbeat_on_idle: std::sync::atomic::AtomicBool::new(false),
        })
    }

    /// Convenience constructor over a [`DurableDb`].
    pub fn for_durable(ddb: &DurableDb) -> Result<ViewSet> {
        ViewSet::new(Arc::clone(ddb.db()), Arc::clone(ddb.wal()))
    }

    /// When enabled, an idle [`ViewSet::refresh`] appends a
    /// [`WalRecord::Noop`] heartbeat so watermarks (and resume tokens)
    /// demonstrably advance without real traffic.
    pub fn set_heartbeat_on_idle(&self, on: bool) {
        self.heartbeat_on_idle.store(on, std::sync::atomic::Ordering::Relaxed);
    }

    /// Registers and fully builds a view. Fails if the name is taken,
    /// the pipeline shape is not maintainable, or the initial build
    /// hits an expression error.
    pub fn create_view(&self, name: &str, source: &str, pipeline: Pipeline) -> Result<()> {
        let def = CompiledView::compile(source, &pipeline)?;
        let mut inner = self.inner.lock();
        if inner.views.contains_key(name) {
            return Err(Error::InvalidQuery(format!("view already exists: {name}")));
        }
        let mut view = View {
            def,
            state: ViewState::default(),
            watermark: 0,
            touched: false,
            clean_docs: Arc::new(Vec::new()),
            clean_watermark: 0,
        };
        self.rebuild(&mut view)?;
        view.clean_docs = Arc::new(view.materialize());
        view.clean_watermark = view.watermark;
        view.touched = false;
        self.published
            .lock()
            .insert(name.to_owned(), (Arc::clone(&view.clean_docs), view.clean_watermark));
        inner.views.insert(name.to_owned(), view);
        Ok(())
    }

    /// Unregisters a view; returns whether it existed.
    pub fn drop_view(&self, name: &str) -> bool {
        let mut inner = self.inner.lock();
        let existed = inner.views.remove(name).is_some();
        self.published.lock().remove(name);
        existed
    }

    /// Registered view names.
    pub fn view_names(&self) -> Vec<String> {
        self.inner.lock().views.keys().cloned().collect()
    }

    /// The registered pipeline (for re-execution comparisons).
    pub fn pipeline(&self, name: &str) -> Option<(String, Pipeline)> {
        let inner = self.inner.lock();
        inner
            .views
            .get(name)
            .map(|v| (v.def.source.clone(), v.def.pipeline.clone()))
    }

    /// The view's current consistent materialization and the WAL seq it
    /// reflects. Point-read cost: one (uncontended) mutex, one `Arc`
    /// clone — reads go through the published-snapshot map, never the
    /// maintenance lock, so a refresh mid-drain cannot stall them.
    pub fn read(&self, name: &str) -> Result<(Arc<Vec<Document>>, u64)> {
        let published = self.published.lock();
        let (docs, watermark) = published
            .get(name)
            .ok_or_else(|| Error::InvalidQuery(format!("no such view: {name}")))?;
        Ok((Arc::clone(docs), *watermark))
    }

    /// How many frames the served materialization trails the log tip.
    pub fn staleness(&self, name: &str) -> Result<u64> {
        let (_, watermark) = self.read(name)?;
        Ok(self.wal.last_seq().saturating_sub(watermark))
    }

    /// Explains the view's registered pipeline against its source
    /// collection (per-stage estimates and physical decisions, as
    /// [`Collection::explain_aggregate`]) and reports how far the
    /// served materialization currently trails the log tip.
    ///
    /// [`Collection::explain_aggregate`]: crate::Collection::explain_aggregate
    pub fn explain(&self, name: &str) -> Result<crate::AggExplain> {
        let (source, pipeline) = self
            .pipeline(name)
            .ok_or_else(|| Error::InvalidQuery(format!("no such view: {name}")))?;
        let staleness = self.staleness(name)?;
        let coll = self.db.get_collection(&source)?;
        let mut explain = coll.explain_aggregate(&pipeline, Some(self.db.as_ref()))?;
        explain.view_staleness = Some(staleness);
        Ok(explain)
    }

    /// Applies every committed change, recomputes dirty groups, and
    /// republishes clean materializations. On a truncated resume token
    /// (the set fell behind a checkpoint) every view is rebuilt from a
    /// full source scan — the documented fallback.
    pub fn refresh(&self) -> Result<ViewStats> {
        let mut inner = self.inner.lock();
        let mut stats = ViewStats::default();
        self.drain(&mut inner, &mut stats)?;

        // Dirty groups are recomputed under the source collection's
        // read lock, which also blocks new source writes; frames that
        // raced in from *other* collections are applied first, so the
        // scan and the incremental state agree on the watermark. A
        // recompute can itself be outrun by writes to other views'
        // sources, hence the bounded loop.
        for _ in 0..MAX_DIRTY_ROUNDS {
            let Some(name) = inner
                .views
                .iter()
                .find(|(_, v)| v.state.dirty_groups > 0)
                .map(|(n, _)| n.clone())
            else {
                break;
            };
            self.recompute_dirty(&mut inner, &name, &mut stats)?;
        }

        if stats.frames_applied == 0
            && self.heartbeat_on_idle.load(std::sync::atomic::Ordering::Relaxed)
        {
            self.wal.heartbeat()?;
            stats.heartbeats += 1;
            self.drain(&mut inner, &mut stats)?;
        }

        for (name, view) in inner.views.iter_mut() {
            let clean = view.state.dirty_groups == 0;
            if clean && (view.touched || view.watermark > view.clean_watermark) {
                if view.touched {
                    view.clean_docs = Arc::new(view.materialize());
                }
                view.clean_watermark = view.watermark;
                view.touched = false;
                self.published
                    .lock()
                    .insert(name.clone(), (Arc::clone(&view.clean_docs), view.clean_watermark));
            }
        }
        Ok(stats)
    }

    /// Drains the shared cursor (up to [`MAX_FRAMES_PER_REFRESH`]
    /// frames), fanning each frame out to every view whose watermark
    /// hasn't subsumed it. A truncated token rebuilds everything.
    fn drain(&self, inner: &mut SetInner, stats: &mut ViewStats) -> Result<()> {
        let mut budget = MAX_FRAMES_PER_REFRESH;
        loop {
            let next = match inner.cursor.try_next() {
                Ok(next) => next,
                Err(Error::TruncatedToken { .. }) => {
                    // Re-subscribe at the tip *before* rebuilding, so
                    // nothing committed after the rebuild scan is lost.
                    inner.cursor = watch(&self.wal, ChangeScope::Database, None)?;
                    for view in inner.views.values_mut() {
                        self.rebuild(view)?;
                        stats.full_rebuilds += 1;
                    }
                    continue;
                }
                Err(e) => return Err(e),
            };
            let Some(frame) = next else { return Ok(()) };
            stats.frames_applied += 1;
            for view in inner.views.values_mut() {
                if frame.seq <= view.watermark {
                    continue;
                }
                if frame.record.coll().is_none_or(|c| c == view.def.source) {
                    view.apply_record(&frame.record)?;
                }
                view.watermark = frame.seq;
            }
            budget -= 1;
            if budget == 0 {
                return Ok(());
            }
        }
    }

    /// Rebuilds one view from a full scan of its source, capturing the
    /// watermark under the collection's read lock so no write can fall
    /// between the scan and the token.
    fn rebuild(&self, view: &mut View) -> Result<()> {
        let coll = self.db.collection(&view.def.source);
        let mut state = ViewState::default();
        let mut token = 0;
        let mut failed = None;
        coll.with_docs(&mut |docs| {
            token = self.wal.last_seq();
            for doc in docs {
                if let Err(e) = View::apply_insert(&view.def, &mut state, doc) {
                    failed = Some(e);
                    return;
                }
            }
        });
        if let Some(e) = failed {
            return Err(e);
        }
        view.state = state;
        view.watermark = token;
        view.touched = true;
        Ok(())
    }

    /// Recomputes the named view's dirty groups from its source. Under
    /// the source's read lock no new source frames can commit, so after
    /// an in-lock catch-up the scan is exactly the state at the
    /// cursor's position.
    fn recompute_dirty(
        &self,
        inner: &mut SetInner,
        name: &str,
        stats: &mut ViewStats,
    ) -> Result<()> {
        let source = inner.views[name].def.source.clone();
        let coll = self.db.collection(&source);
        let mut failed = None;
        coll.with_docs(&mut |docs| {
            // Frames committed between the outer drain and this lock
            // acquisition (any collection) are folded in first.
            let pending = match self.wal.frames_since(inner.cursor.resume_token()) {
                Ok(p) => p,
                Err(e) => {
                    failed = Some(e);
                    return;
                }
            };
            if !pending.is_empty() {
                // Cheaper to retry from the top of refresh's loop than
                // to duplicate the drain (with its truncation fallback)
                // inside a lock we want to hold briefly.
                return;
            }
            let view = inner.views.get_mut(name).expect("checked by caller");
            let groups = &mut view.state.groups;
            let dirty: BTreeSet<Key> =
                groups.iter().filter(|(_, g)| g.dirty).map(|(k, _)| k.clone()).collect();
            let mut rebuilt = BTreeMap::new();
            for doc in docs {
                if let Err(e) = view.def.fold(&mut rebuilt, doc, Some(&dirty)) {
                    failed = Some(e);
                    return;
                }
            }
            groups.retain(|_, g| !g.dirty);
            groups.append(&mut rebuilt);
            stats.groups_recomputed += dirty.len() as u64;
            view.state.dirty_groups = 0;
            view.touched = true;
        });
        match failed {
            Some(e) => Err(e),
            None => {
                // If pending frames aborted the recompute, fold them in
                // now; the outer loop will come back for the dirt.
                self.drain(inner, stats)
            }
        }
    }
}


#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::{Expr, GroupId};
    use crate::query::Filter;
    use crate::update::UpdateSpec;
    use crate::wal::{SyncPolicy, WalOptions};
    use doclite_bson::doc;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "doclite-views-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> WalOptions {
        WalOptions { sync: SyncPolicy::Never, faults: None }
    }

    /// The Q7 shape from the thesis: filter, group by category, sum /
    /// count / avg, ordered output.
    fn q7() -> Pipeline {
        Pipeline::new()
            .match_stage(Filter::gte("qty", 0i64))
            .group(
                GroupId::Expr(Expr::field("cat")),
                [
                    ("revenue", Accumulator::sum_field("price")),
                    ("n", Accumulator::count()),
                    ("avg_qty", Accumulator::avg_field("qty")),
                ],
            )
            .sort([("_id", 1)])
    }

    fn recompute(db: &Database, source: &str, pipeline: &Pipeline) -> Vec<Document> {
        db.aggregate(source, pipeline).unwrap()
    }

    #[test]
    fn view_read_matches_recompute_through_inserts_updates_deletes() {
        let dir = tmpdir("equiv");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let sales = ddb.db().collection("sales");
        for i in 0..40i64 {
            sales
                .insert_one(doc! {
                    "_id" => i,
                    "cat" => format!("c{}", i % 5),
                    "price" => (i * 3) % 17,
                    "qty" => i % 7,
                })
                .unwrap();
        }
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("q7", "sales", q7()).unwrap();

        let (docs, _) = views.read("q7").unwrap();
        assert_eq!(*docs, recompute(ddb.db(), "sales", &q7()));

        // Mutate: updates move documents between groups, deletes retract.
        sales
            .update(&Filter::eq("_id", 3i64), &UpdateSpec::set("cat", "c0"), false, false)
            .unwrap();
        sales.delete_many(&Filter::eq("cat", "c4"));
        sales.insert_one(doc! {"_id" => 100i64, "cat" => "c9", "price" => 5i64, "qty" => 2i64}).unwrap();
        let stats = views.refresh().unwrap();
        assert!(stats.frames_applied > 0);
        assert_eq!(stats.full_rebuilds, 0, "all deltas must apply incrementally");

        let (docs, watermark) = views.read("q7").unwrap();
        assert_eq!(*docs, recompute(ddb.db(), "sales", &q7()));
        assert_eq!(watermark, ddb.wal().last_seq());
        assert_eq!(views.staleness("q7").unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn explain_reports_staleness_and_stage_plan() {
        let dir = tmpdir("explain");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let sales = ddb.db().collection("sales");
        for i in 0..20i64 {
            sales
                .insert_one(doc! {"_id" => i, "cat" => format!("c{}", i % 3), "price" => i, "qty" => 1i64})
                .unwrap();
        }
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("q7", "sales", q7()).unwrap();

        let ex = views.explain("q7").unwrap();
        assert_eq!(ex.collection, "sales");
        assert_eq!(ex.view_staleness, Some(0));
        assert_eq!(ex.stages.len(), 3); // $match, $group, $sort
        assert_eq!(ex.stages[0].stage, "$match");
        assert!(ex.stages[0].decision.is_some());

        // New writes the view has not refreshed past show up as lag.
        sales.insert_one(doc! {"_id" => 100i64, "cat" => "c0", "price" => 1i64, "qty" => 1i64}).unwrap();
        let lag = views.explain("q7").unwrap().view_staleness.unwrap();
        assert!(lag > 0, "unrefreshed write must surface as staleness");
        views.refresh().unwrap();
        assert_eq!(views.explain("q7").unwrap().view_staleness, Some(0));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn filter_transitions_are_tracked_across_updates() {
        let dir = tmpdir("filter");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("s");
        c.insert_one(doc! {"_id" => 1i64, "cat" => "a", "price" => 10i64, "qty" => 1i64}).unwrap();
        c.insert_one(doc! {"_id" => 2i64, "cat" => "a", "price" => 20i64, "qty" => -5i64}).unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", q7()).unwrap();
        // _id 2 fails the qty >= 0 filter; only _id 1 contributes.
        let (docs, _) = views.read("v").unwrap();
        assert_eq!(docs.len(), 1);
        assert_eq!(docs[0].get("revenue"), Some(&Value::Int64(10)));

        // Leave the filter (1), enter it (2): retraction must only touch
        // documents that contributed.
        c.update(&Filter::eq("_id", 1i64), &UpdateSpec::set("qty", -1i64), false, false).unwrap();
        c.update(&Filter::eq("_id", 2i64), &UpdateSpec::set("qty", 5i64), false, false).unwrap();
        views.refresh().unwrap();
        let (docs, _) = views.read("v").unwrap();
        assert_eq!(*docs, recompute(ddb.db(), "s", &q7()));
        assert_eq!(docs[0].get("revenue"), Some(&Value::Int64(20)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn min_max_deletes_recompute_only_the_dirty_group() {
        let dir = tmpdir("minmax");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("s");
        for i in 0..10i64 {
            c.insert_one(doc! {"_id" => i, "g" => i % 2, "v" => i}).unwrap();
        }
        let pipeline = Pipeline::new()
            .group(
                GroupId::Expr(Expr::field("g")),
                [
                    ("lo", Accumulator::Min(Expr::field("v"))),
                    ("hi", Accumulator::Max(Expr::field("v"))),
                ],
            )
            .sort([("_id", 1)]);
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("mm", "s", pipeline.clone()).unwrap();

        // Deleting the max of group 1 (v=9) invalidates that group only.
        c.delete_many(&Filter::eq("_id", 9i64));
        let stats = views.refresh().unwrap();
        assert_eq!(stats.groups_recomputed, 1);
        let (docs, _) = views.read("mm").unwrap();
        assert_eq!(*docs, recompute(ddb.db(), "s", &pipeline));
        assert_eq!(docs[1].get("hi"), Some(&Value::Int64(7)));

        // Deleting a middle value retracts without recomputation.
        c.delete_many(&Filter::eq("_id", 4i64));
        let stats = views.refresh().unwrap();
        assert_eq!(stats.groups_recomputed, 1, "min/max retraction is conservative");
        assert_eq!(*views.read("mm").unwrap().0, recompute(ddb.db(), "s", &pipeline));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_disappears_when_its_last_contributor_leaves() {
        let dir = tmpdir("vanish");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("s");
        c.insert_one(doc! {"_id" => 1i64, "cat" => "only", "price" => 1i64, "qty" => 1i64})
            .unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", q7()).unwrap();
        assert_eq!(views.read("v").unwrap().0.len(), 1);
        c.delete_many(&Filter::eq("_id", 1i64));
        views.refresh().unwrap();
        assert!(views.read("v").unwrap().0.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recompute_only_accumulators_and_bad_shapes_are_rejected() {
        let dir = tmpdir("reject");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        let push = Pipeline::new().group(
            GroupId::Null,
            [("all", Accumulator::Push(Expr::field("v")))],
        );
        assert!(matches!(views.create_view("p", "s", push), Err(Error::InvalidQuery(_))));
        let unwind = Pipeline::new().unwind("tags").group(
            GroupId::Null,
            [("n", Accumulator::count())],
        );
        assert!(matches!(views.create_view("u", "s", unwind), Err(Error::InvalidQuery(_))));
        let no_group = Pipeline::new().match_stage(Filter::eq("a", 1i64));
        assert!(matches!(views.create_view("m", "s", no_group), Err(Error::InvalidQuery(_))));
        // $match after $group is a post-filter the delta path can't model.
        let late_match = Pipeline::new()
            .group(GroupId::Null, [("n", Accumulator::count())])
            .match_stage(Filter::eq("n", 1i64));
        assert!(matches!(views.create_view("l", "s", late_match), Err(Error::InvalidQuery(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncation_falls_back_to_full_rebuild() {
        let dir = tmpdir("trunc");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("s");
        c.insert_one(doc! {"_id" => 0i64, "cat" => "a", "price" => 1i64, "qty" => 1i64}).unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", q7()).unwrap();

        // Shrink the in-memory tail so the checkpoint's truncation
        // really leaves the cursor's token unreachable.
        ddb.wal().set_change_capacity(1);
        for i in 1..20i64 {
            c.insert_one(doc! {"_id" => i, "cat" => "a", "price" => i, "qty" => 1i64}).unwrap();
        }
        ddb.checkpoint().unwrap();
        c.insert_one(doc! {"_id" => 100i64, "cat" => "b", "price" => 2i64, "qty" => 1i64})
            .unwrap();

        let stats = views.refresh().unwrap();
        assert_eq!(stats.full_rebuilds, 1, "lost log range must force a rebuild");
        let (docs, watermark) = views.read("v").unwrap();
        assert_eq!(*docs, recompute(ddb.db(), "s", &q7()));
        assert_eq!(watermark, ddb.wal().last_seq());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn idle_refresh_heartbeats_and_advances_the_watermark() {
        let dir = tmpdir("idle");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        ddb.db()
            .collection("s")
            .insert_one(doc! {"_id" => 1i64, "cat" => "a", "price" => 1i64, "qty" => 1i64})
            .unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", q7()).unwrap();
        let before = views.read("v").unwrap().1;

        let stats = views.refresh().unwrap();
        assert_eq!(stats.heartbeats, 0, "heartbeating is opt-in");
        assert_eq!(views.read("v").unwrap().1, before);

        views.set_heartbeat_on_idle(true);
        let stats = views.refresh().unwrap();
        assert_eq!(stats.heartbeats, 1);
        assert_eq!(stats.frames_applied, 1, "the Noop itself flows through the stream");
        assert_eq!(views.read("v").unwrap().1, before + 1);
        assert_eq!(views.staleness("v").unwrap(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dropping_the_source_collection_empties_the_view() {
        let dir = tmpdir("dropsrc");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        ddb.db()
            .collection("s")
            .insert_one(doc! {"_id" => 1i64, "cat" => "a", "price" => 1i64, "qty" => 1i64})
            .unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", q7()).unwrap();
        assert_eq!(views.read("v").unwrap().0.len(), 1);
        ddb.db().drop_collection("s");
        views.refresh().unwrap();
        assert!(views.read("v").unwrap().0.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sum_type_latch_survives_retraction() {
        // A double-typed contribution forces Double output; retracting
        // it must restore integer output, exactly like a recompute.
        let dir = tmpdir("latch");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("s");
        c.insert_one(doc! {"_id" => 1i64, "cat" => "a", "price" => 2i64, "qty" => 1i64}).unwrap();
        c.insert_one(doc! {"_id" => 2i64, "cat" => "a", "price" => 0.25f64, "qty" => 1i64})
            .unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", q7()).unwrap();
        assert_eq!(views.read("v").unwrap().0[0].get("revenue"), Some(&Value::Double(2.25)));

        c.delete_many(&Filter::eq("_id", 2i64));
        views.refresh().unwrap();
        let (docs, _) = views.read("v").unwrap();
        assert_eq!(*docs, recompute(ddb.db(), "s", &q7()));
        assert_eq!(docs[0].get("revenue"), Some(&Value::Int64(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn retracted_doubles_recompute_their_group_instead_of_subtracting() {
        // In f64, 0.1 + 0.2 + 1e16 - 0.1 - 1e16 is 0.0: a view that
        // subtracted the deleted prices would serve 0.0 where a recompute
        // returns 0.2.
        let dir = tmpdir("doubles");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("s");
        for (id, price) in [(1i64, 0.1f64), (2, 0.2), (3, 1e16)] {
            c.insert_one(doc! {"_id" => id, "price" => price}).unwrap();
        }
        let pipeline = Pipeline::new().group(
            GroupId::Null,
            [("s", Accumulator::sum_field("price")), ("a", Accumulator::avg_field("price"))],
        );
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", pipeline.clone()).unwrap();

        c.delete_many(&Filter::is_in("_id", [1i64, 3]));
        let stats = views.refresh().unwrap();
        let (docs, _) = views.read("v").unwrap();
        assert_eq!(*docs, recompute(ddb.db(), "s", &pipeline));
        assert_eq!(docs[0].get("s"), Some(&Value::Double(0.2)));
        assert_eq!(docs[0].get("a"), Some(&Value::Double(0.2)));
        assert_eq!(stats.groups_recomputed, 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reads_are_shared_snapshots_at_point_read_cost() {
        let dir = tmpdir("snap");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("s");
        c.insert_one(doc! {"_id" => 1i64, "cat" => "a", "price" => 1i64, "qty" => 1i64}).unwrap();
        let views = ViewSet::for_durable(&ddb).unwrap();
        views.create_view("v", "s", q7()).unwrap();
        let (before, _) = views.read("v").unwrap();
        // An unrefreshed read returns the same Arc — no recomputation.
        let (again, _) = views.read("v").unwrap();
        assert!(Arc::ptr_eq(&before, &again));
        // Refresh with changes swaps in a new snapshot; the old one is
        // still usable (readers are never invalidated in place).
        c.insert_one(doc! {"_id" => 2i64, "cat" => "a", "price" => 1i64, "qty" => 1i64}).unwrap();
        views.refresh().unwrap();
        let (after, _) = views.read("v").unwrap();
        assert!(!Arc::ptr_eq(&before, &after));
        assert_eq!(before[0].get("revenue"), Some(&Value::Int64(1)));
        assert_eq!(after[0].get("revenue"), Some(&Value::Int64(2)));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
