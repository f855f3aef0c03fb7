//! The query router (`mongos`, thesis Section 2.1.3.1 component iii):
//! routes reads and writes to the right shards, gathers and merges
//! results, and triggers chunk splits.
//!
//! Every operation is *plan → legs → merge*: a pure plan ([`crate::route`])
//! derived from one metadata snapshot per attempt, run by one read-leg
//! runner (`Mongos::read_legs`) or one write exchange
//! (`Mongos::write_leg`) under one retry loop (`Mongos::retrying`).
//!
//! Stale routing is one protocol with five roles. The shard-side
//! surrendered-range table is the *state*. The ownership check is the
//! *read* of it: before a write applies ([`Shard::owned_write`], under
//! the ownership lock, so a bounced write has applied nothing), after a
//! read returns (on the plan's point key — a scan cannot hold the lock,
//! so it is checked once the result exists). [`Error::StaleRoute`] is
//! the *signal*, the retry loop's re-plan from a fresh snapshot is the
//! *reaction*, and the owed list of `Mongos::update_grouped` is the
//! write side's *memory* of what already applied.

use crate::chunk::{ShardId, SplitPoint};
use crate::config::ConfigServer;
use crate::network::{Faults, NetMode, NetStats, NetworkModel, RetryPolicy};
use crate::replica::{ReadPreference, ReplicaSet, WriteConcern};
use crate::route::{self, FindPlan, Merge, Owed, Targeting};
use crate::shard::Shard;
use crate::shardkey::ShardKey;
use doclite_bson::{codec::encoded_size, Document};
use doclite_docstore::agg::Partial;
use doclite_docstore::{
    compile, project_paths, BulkUpdate, Collection, Error, Filter, FindOptions, IndexDef, Key,
    Pipeline, Result, UpdateResult, UpdateSpec,
};
use parking_lot::{Mutex, RwLock};
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the router does when a whole shard stays unreachable after
/// retries during a scatter-gather read — the caller's choice between
/// failing loudly and degrading gracefully.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum DegradedReads {
    /// Fail the operation (MongoDB's default behaviour).
    #[default]
    Fail,
    /// Return results from the reachable shards and record a warning,
    /// drainable via [`Mongos::take_warnings`].
    Partial,
}

/// Router-level explain for a find: the plan itself.
pub type RouteExplain = FindPlan;

/// What `Mongos::retrying` retries, and so where the fault plan sits
/// relative to the operation.
enum Retried<'a, T> {
    /// An operation that re-plans from fresh metadata on every call,
    /// retried on [`Error::StaleRoute`] (chunk moved, shard left). The
    /// retry *is* the refresh: once the migration's config flip lands
    /// the operation re-targets the new owner.
    Stale,
    /// A read leg: it runs, then the exchange — sized by its response —
    /// is subjected to the fault plan, and a faulted leg runs again.
    Read(ShardId, &'a dyn Fn(&T) -> usize),
    /// A write: the exchange — sized by the request — is checked
    /// *before* the operation, so a dropped or timed-out write retries
    /// without ever being half-applied, and the operation runs at most
    /// once: its own errors (duplicate key, write concern) surface
    /// unretried, since retrying those would re-apply a committed write.
    Write(ShardId, usize),
}

/// The router. All application traffic flows through here, as in the
/// thesis's AppServer/QueryRouter node.
pub struct Mongos {
    /// The live shard set, keyed by identity (`Shard::id`), not
    /// position: ids are monotonic and never reused, so a stale id
    /// from a pre-reconfiguration snapshot can only *miss* (and
    /// surface as [`Error::StaleRoute`]), never address the wrong
    /// shard. Behind a lock so shards can join and leave online.
    shards: RwLock<Vec<Arc<Shard>>>,
    config: Arc<ConfigServer>,
    network: NetworkModel,
    stats: Arc<NetStats>,
    /// Unsharded collections live on this shard (MongoDB's "primary
    /// shard" for a database).
    primary: ShardId,
    /// Injectable router↔shard faults (chaos testing).
    faults: Arc<Faults>,
    /// Bounded exponential backoff for faulted exchanges.
    retry: RetryPolicy,
    /// Behaviour when a shard stays unreachable during a read.
    degraded: DegradedReads,
    /// Write concern applied to every routed write.
    write_concern: WriteConcern,
    /// Member preference for routed reads.
    read_pref: ReadPreference,
    /// Warnings from degraded (partial-result) reads.
    warnings: Mutex<Vec<String>>,
    /// Serializes chunk migrations: the copy/flip/delete protocol is
    /// safe against concurrent *writes* but not against a second
    /// migration of an overlapping range.
    migration: Mutex<()>,
    /// Entropy for jittered retry backoff: one counter tick per wait,
    /// so concurrent operations decorrelate while a seeded replay of a
    /// single-threaded schedule stays deterministic.
    entropy: AtomicU64,
}

impl Mongos {
    /// Creates a router over the given shards and config server.
    pub fn new(
        mut shards: Vec<Arc<Shard>>,
        config: Arc<ConfigServer>,
        network: NetworkModel,
    ) -> Self {
        assert!(!shards.is_empty(), "cluster needs at least one shard");
        shards.sort_by_key(|s| s.id());
        Mongos {
            shards: RwLock::new(shards),
            config,
            network,
            stats: Arc::new(NetStats::new()),
            primary: 0,
            faults: Arc::new(Faults::new()),
            retry: RetryPolicy::default(),
            degraded: DegradedReads::default(),
            write_concern: WriteConcern::default(),
            read_pref: ReadPreference::default(),
            warnings: Mutex::new(Vec::new()),
            migration: Mutex::new(()),
            entropy: AtomicU64::new(0),
        }
    }

    /// Sets the retry/backoff policy for faulted exchanges.
    pub fn set_retry_policy(&mut self, retry: RetryPolicy) {
        self.retry = retry;
    }

    /// Sets the degraded-read behaviour.
    pub fn set_degraded_reads(&mut self, degraded: DegradedReads) {
        self.degraded = degraded;
    }

    /// Sets the write concern for routed writes.
    pub fn set_write_concern(&mut self, concern: WriteConcern) {
        self.write_concern = concern;
    }

    /// Sets the read preference for routed reads.
    pub fn set_read_preference(&mut self, pref: ReadPreference) {
        self.read_pref = pref;
    }

    /// The injectable fault plan (partition toggles, drop probability,
    /// request timeouts).
    pub fn faults(&self) -> &Faults {
        &self.faults
    }

    /// The retry policy in force.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Drains the warnings recorded by degraded reads and by chunks that
    /// cannot split.
    pub fn take_warnings(&self) -> Vec<String> {
        std::mem::take(&mut self.warnings.lock())
    }

    fn warn(&self, w: String) {
        self.warnings.lock().push(w);
    }

    /// Network statistics accumulated by this router.
    pub fn net_stats(&self) -> &NetStats {
        &self.stats
    }

    /// The network model in force.
    pub fn network(&self) -> &NetworkModel {
        &self.network
    }

    /// Snapshot of the live shard set, sorted by id. With a static
    /// topology (no removals) position equals id; after churn, address
    /// shards by [`Shard::id`], never by position.
    pub fn shards(&self) -> Vec<Arc<Shard>> {
        self.shards.read().clone()
    }

    /// The config server.
    pub fn config(&self) -> &ConfigServer {
        &self.config
    }

    /// Adds a shard to the live set (replacing any same-id entry).
    /// Routing only reaches it once chunks are placed there, so the
    /// add itself is invisible to in-flight traffic.
    pub fn add_shard(&self, shard: Arc<Shard>) {
        let mut shards = self.shards.write();
        shards.retain(|s| s.id() != shard.id());
        shards.push(shard);
        shards.sort_by_key(|s| s.id());
    }

    /// Removes a shard from the live set. The caller (the cluster's
    /// drain state machine) must have moved every chunk off it first —
    /// any straggler operation holding the old routing view gets
    /// [`Error::StaleRoute`] and re-resolves.
    pub fn remove_shard(&self, id: ShardId) -> Result<()> {
        if id == self.primary {
            return Err(Error::InvalidQuery(
                "cannot remove the primary shard (unsharded collections live there)".into(),
            ));
        }
        let mut shards = self.shards.write();
        let pos = shards.iter().position(|s| s.id() == id).ok_or_else(|| {
            Error::StaleRoute(format!("shard {id} is not part of the cluster"))
        })?;
        if shards.len() == 1 {
            return Err(Error::InvalidQuery("cannot remove the last shard".into()));
        }
        shards.remove(pos);
        Ok(())
    }

    /// Looks up a live shard by id. Fails with [`Error::StaleRoute`]
    /// when the shard has left the cluster — the caller's routing view
    /// is out of date and must be refreshed.
    pub fn shard(&self, id: ShardId) -> Result<Arc<Shard>> {
        self.shards
            .read()
            .iter()
            .find(|s| s.id() == id)
            .cloned()
            .ok_or_else(|| Error::StaleRoute(format!("shard {id} is not part of the cluster")))
    }

    /// The one retry loop: bounded attempts, jittered exponential
    /// backoff and the per-op deadline, whatever is being retried (see
    /// `Retried`). Replica-set-level errors (no reachable member)
    /// surface immediately — retries address *network* faults and stale
    /// routes; member faults are the replica set's problem (election,
    /// read failover). With no faults active an exchange adds a single
    /// branch on one relaxed atomic load to the healthy path.
    fn retrying<T>(&self, what: Retried<'_, T>, mut op: impl FnMut() -> Result<T>) -> Result<T> {
        let stale = matches!(what, Retried::Stale);
        if !stale && !self.faults.active() {
            return op();
        }
        let fault = |shard: ShardId, bytes: usize| {
            let kind = self.faults.check(shard, &self.network, bytes).err()?;
            self.stats.record_fault(&self.network, kind);
            Some(format!("Shard{} unreachable: {kind}", shard + 1))
        };
        let mut attempt = 0u32;
        let mut waited = Duration::ZERO;
        loop {
            let failed = match &what {
                Retried::Stale => match op() {
                    Err(Error::StaleRoute(msg)) => {
                        format!("stale routing not resolved after {attempt} retries: {msg}")
                    }
                    done => return done,
                },
                Retried::Read(shard, bytes_of) => {
                    let v = op()?;
                    match fault(*shard, bytes_of(&v)) {
                        None => return Ok(v),
                        Some(why) => format!("{why} (gave up after {attempt} retries)"),
                    }
                }
                Retried::Write(shard, request_bytes) => match fault(*shard, *request_bytes) {
                    None => return op(),
                    Some(why) => format!("{why} (gave up after {attempt} retries)"),
                },
            };
            if attempt >= self.retry.max_retries || self.retry.deadline_exceeded(waited) {
                return Err(Error::Unavailable(failed));
            }
            attempt += 1;
            let entropy = self.entropy.fetch_add(1, Ordering::Relaxed);
            let backoff = self.retry.jittered_backoff(attempt, entropy);
            self.stats.record_retry(&self.network, backoff);
            // Unlike modelled network time, the wait before a re-plan is
            // load-bearing: it gives the in-flight migration wall-clock
            // time to flip the routing table, so it really sleeps even
            // where the stats only account.
            if stale && self.network.mode != NetMode::Sleep && !backoff.is_zero() {
                std::thread::sleep(backoff);
            }
            waited += backoff;
        }
    }

    /// The one read leg, run once per shard of `shards` (a route plan
    /// has at least one): picks the member by read preference, runs
    /// `run(leg, collection)` (a missing collection reads as
    /// `T::default()`), and — for a point-targeted read — re-checks
    /// ownership of `point_key` *after* the scan: if the chunk was
    /// surrendered to a migration meanwhile, the scan may have observed
    /// post-flip state through a stale routing view, so it surfaces
    /// `StaleRoute` for the retry loop to re-plan instead of silently
    /// missing the row.
    ///
    /// The legs overlap, as the paper's shards do: the caller runs leg 0
    /// and every further leg gets a scoped thread. Results are joined in
    /// leg order, so the returned vector is in leg order whichever leg
    /// finishes first — the `(leg, pos)` order downstream merges rely on
    /// — and a panicking leg resumes on the caller with its own payload
    /// once every other leg has finished. Each shard is charged one
    /// network leg, sized by the payload it ships *after* any shard-side
    /// sort/limit/projection: the serial clock advances by the sum of the
    /// legs, the parallel clock by the slowest.
    ///
    /// Then the degraded-read policy: under [`DegradedReads::Fail`] the
    /// first unreachable shard fails the whole read; under
    /// [`DegradedReads::Partial`] its leg reads as `T::default()` and a
    /// warning is recorded. Only an unreachable shard
    /// ([`Error::Unavailable`]) degrades. Stale routing is a
    /// router-level condition, not a shard outage, and a query error (a
    /// failing `$project` in a shard-side pipeline) is the answer: both
    /// always propagate, never degrade to partial or empty results.
    fn read_legs<T: Default + Send>(
        &self,
        collection: &str,
        shards: &[ShardId],
        point_key: Option<&Key>,
        run: impl Fn(usize, &Collection) -> Result<T> + Sync,
        bytes_of: impl Fn(&T) -> usize + Sync,
    ) -> Result<Vec<T>> {
        let leg = |i: usize| {
            self.retrying(Retried::Read(shards[i], &bytes_of), || {
                let shard = self.shard(shards[i])?;
                let db = shard.read_db(self.read_pref)?;
                let v = match db.get_collection(collection) {
                    Ok(coll) => run(i, &coll)?,
                    Err(_) => T::default(),
                };
                if point_key.is_some_and(|key| !shard.owns(collection, key)) {
                    return Err(Error::StaleRoute(format!(
                        "read of '{collection}' raced a chunk migration"
                    )));
                }
                Ok(v)
            })
        };
        let legs: Vec<Result<T>> = std::thread::scope(|s| {
            let rest: Vec<_> = (1..shards.len()).map(|i| s.spawn(move || leg(i))).collect();
            let first = leg(0);
            let rest = rest.into_iter().map(|h| h.join().unwrap_or_else(|p| resume_unwind(p)));
            std::iter::once(first).chain(rest).collect()
        });
        let leg_bytes: Vec<usize> = legs.iter().map(|l| l.as_ref().map_or(0, &bytes_of)).collect();
        self.stats.charge_parallel(&self.network, &leg_bytes);
        legs.into_iter()
            .map(|leg| match leg {
                Err(e @ Error::Unavailable(_)) if self.degraded == DegradedReads::Partial => {
                    self.warn(format!("{e}; returning partial results"));
                    Ok(T::default())
                }
                leg => leg,
            })
            .collect()
    }

    /// The one router→shard write exchange: `op` runs at most once,
    /// behind the fault plan, and a completed exchange is charged its
    /// request bytes.
    fn write_leg<T>(
        &self,
        shard: ShardId,
        bytes: usize,
        op: impl FnOnce() -> Result<T>,
    ) -> Result<T> {
        let mut op = Some(op);
        let r = self.retrying(Retried::Write(shard, bytes), || {
            op.take().expect("a write runs at most once")()
        })?;
        self.stats.charge(&self.network, bytes);
        Ok(r)
    }

    /// Routes and stores one document without charging the network;
    /// returns the bytes written. Triggers a chunk split when the target
    /// chunk crosses the size threshold.
    ///
    /// The write is ownership-checked on the target shard: if the chunk
    /// migrated away between the routing snapshot and the write landing,
    /// the shard bounces it and the next attempt re-routes from fresh
    /// metadata. Both the fault check and the ownership check run
    /// *before* the store consumes the document, so a bounced attempt
    /// retries the original document without ever cloning it.
    /// (Unsharded collections live on the primary shard, which is never
    /// removable — no key, no ownership protocol.)
    fn insert_routed(&self, collection: &str, doc: Document) -> Result<usize> {
        let bytes = encoded_size(&doc);
        let mut slot = Some(doc);
        let key = self.retrying(Retried::Stale, || {
            let doc = slot.as_ref().expect("a bounced insert has not consumed the document");
            let meta = self.config.meta(collection);
            let (shard_id, key) = route::document_target(meta.as_deref(), self.primary, doc)?;
            // Released before the write, so a concurrent chunk-accounting
            // update has no snapshot to copy on its account.
            drop(meta);
            let shard = self.shard(shard_id)?;
            self.retrying(Retried::Write(shard_id, bytes), || {
                shard.owned_write(collection, key.as_slice(), || {
                    let doc = slot.take().expect("document consumed at most once");
                    shard.replica_set().insert_one(collection, doc, self.write_concern)
                })
            })?;
            Ok(key)
        })?;
        let Some(key) = key else { return Ok(bytes) };
        // Re-derive the target chunk *by key, under the config
        // lock*: a concurrent split or migration may have shifted chunk
        // indices since the routing snapshot above, and charging
        // a stale index would credit the wrong chunk's
        // byte/doc totals.
        let needs_split = self
            .config
            .with_meta_mut(collection, |m| {
                let idx = m.chunk_for(&key);
                let c = &mut m.chunks[idx];
                c.bytes += bytes;
                c.docs += 1;
                c.bytes > m.max_chunk_size && !c.jumbo
            })
            .unwrap_or(false);
        if needs_split {
            self.try_split(collection, &key);
        }
        Ok(bytes)
    }

    /// Inserts one document, routing by shard key (or to the primary
    /// shard for unsharded collections).
    pub fn insert_one(&self, collection: &str, doc: Document) -> Result<()> {
        let bytes = self.insert_routed(collection, doc)?;
        self.stats.charge(&self.network, bytes);
        Ok(())
    }

    /// Batch size of one driver write batch: documents travel to the
    /// cluster in groups, so the network is charged one exchange per
    /// [`Self::WRITE_BATCH`] documents rather than per document (the Java
    /// driver the thesis used batches the same way).
    pub const WRITE_BATCH: usize = 1000;

    /// Inserts many documents with batched network accounting.
    pub fn insert_many(
        &self,
        collection: &str,
        docs: impl IntoIterator<Item = Document>,
    ) -> Result<usize> {
        let mut n = 0usize;
        let mut pending_bytes = 0usize;
        for doc in docs {
            pending_bytes += self.insert_routed(collection, doc)?;
            n += 1;
            if n.is_multiple_of(Self::WRITE_BATCH) {
                self.stats.charge(&self.network, pending_bytes);
                pending_bytes = 0;
            }
        }
        if pending_bytes > 0 || n == 0 {
            self.stats.charge(&self.network, pending_bytes);
        }
        Ok(n)
    }

    /// Attempts to split the chunk containing `key` at the median
    /// shard-key value of its resident documents. If every document
    /// shares one key value the chunk is marked **jumbo** and left alone
    /// (thesis Fig 2.7).
    ///
    /// The split vector comes from the per-key counts of the chunk's keys
    /// in the owning shard's shard-key index
    /// ([`crate::chunk::Chunk::key_counts`]): no document is read. A
    /// shard without the index (it is created with the collection's
    /// sharding, [`Mongos::shard_collection`]; a collection registered on
    /// the config server alone has none) has nothing to derive a split
    /// from: the chunk is marked jumbo, with a warning, so it is reported
    /// once and not retried on every insert.
    ///
    /// The chunk is addressed by a resident key rather than by index:
    /// concurrent splits reshuffle chunk indices, so the final split is
    /// re-located and re-validated against the size threshold under the
    /// config lock ([`ConfigServer::split_chunk_at_key`]).
    fn try_split(&self, collection: &str, key: &Key) {
        let Some(meta) = self.config.meta(collection) else { return };
        let chunk = &meta.chunks[meta.chunk_for(key)];
        // A split is advisory: if the owning shard left the cluster
        // between the snapshot and now, simply skip it.
        let Ok(shard) = self.shard(chunk.shard) else { return };
        let Ok(coll) = shard.db().get_collection(collection) else { return };
        let split = match chunk.key_counts(&coll, &meta.key) {
            Ok(counts) => {
                // One metadata round-trip to the shard for the split vector.
                self.stats.charge(&self.network, counts.iter().map(|(_, n)| n).sum::<usize>() * 16);
                chunk.split_point(&counts)
            }
            Err(e) => {
                self.warn(format!(
                    "chunk of '{collection}' on shard {} cannot split: {e}",
                    chunk.shard
                ));
                SplitPoint::Jumbo
            }
        };
        // No snapshot is held across the update, so it copies nothing.
        drop(meta);
        match split {
            SplitPoint::Keep => {}
            // Unsplittable: same shard-key value throughout, or no
            // shard-key index to read one from. Re-locate
            // by key and re-check the threshold under the lock so a
            // concurrently shrunk chunk isn't frozen by mistake.
            SplitPoint::Jumbo => {
                self.config.with_meta_mut(collection, |m| {
                    let idx = m.chunk_for(key);
                    let c = &mut m.chunks[idx];
                    if c.bytes > m.max_chunk_size {
                        c.jumbo = true;
                    }
                });
            }
            SplitPoint::At { key: split_key, left_fraction } => {
                self.config.split_chunk_at_key(collection, key, split_key, left_fraction);
            }
        }
    }

    /// Routes a find: targeted when the filter pins the shard key,
    /// scatter-gather otherwise, per the [`route::plan_find`] plan.
    pub fn find_with(
        &self,
        collection: &str,
        filter: &Filter,
        opts: &FindOptions,
    ) -> Vec<Document> {
        self.try_find_with(collection, filter, opts)
            .expect("find failed (use try_find_with under fault injection)")
    }

    /// [`Mongos::find_with`], surfacing shard unavailability instead of
    /// panicking — the entry point once faults are in play. Under
    /// [`DegradedReads::Partial`] an unreachable shard's leg is dropped
    /// with a warning instead of failing the read.
    pub fn try_find_with(
        &self,
        collection: &str,
        filter: &Filter,
        opts: &FindOptions,
    ) -> Result<Vec<Document>> {
        self.retrying(Retried::Stale, || self.find_once(collection, filter, opts))
    }

    fn find_once(
        &self,
        collection: &str,
        filter: &Filter,
        opts: &FindOptions,
    ) -> Result<Vec<Document>> {
        let plan = self.explain_route(collection, filter, opts);
        // Compile the filter once at the router; every leg shares it.
        let compiled = compile(filter);
        let doc_bytes = |docs: &Vec<Document>| docs.iter().map(encoded_size).sum();
        let mut legs = self.read_legs(
            collection,
            &plan.shards,
            plan.point_key.as_ref(),
            |i, coll| Ok(coll.find_with_shared(filter, &compiled, &plan.leg_opts[i])),
            doc_bytes,
        )?;
        // Optimistic per-leg limits can under-fetch: re-run the legs
        // that may be hiding rows the global window needs.
        let saturated = plan.saturated_legs(&legs);
        if !saturated.is_empty() {
            let ids: Vec<ShardId> = saturated.iter().map(|&i| plan.shards[i]).collect();
            let full = plan.full_window_opts();
            let refreshed = self.read_legs(
                collection,
                &ids,
                None,
                |_, coll| Ok(coll.find_with_shared(filter, &compiled, &full)),
                doc_bytes,
            )?;
            for (slot, leg) in saturated.into_iter().zip(refreshed) {
                legs[slot] = leg;
            }
        }
        let mut docs: Vec<Document> = match plan.merge {
            Merge::Single => return Ok(legs.into_iter().flatten().collect()),
            Merge::Concat => legs.into_iter().flatten().collect(),
            Merge::Sorted => merge_sorted_legs(legs, &opts.sort),
        };
        if opts.skip > 0 {
            docs.drain(..opts.skip.min(docs.len()));
        }
        if opts.limit > 0 {
            docs.truncate(opts.limit);
        }
        if !plan.push_projection {
            docs = docs
                .iter()
                .map(|d| project_paths(d, &opts.projection))
                .collect();
        }
        Ok(docs)
    }

    /// `find` with default options.
    pub fn find(&self, collection: &str, filter: &Filter) -> Vec<Document> {
        self.find_with(collection, filter, &FindOptions::default())
    }

    /// The routing decision for a filter (exposed for tests/benches and
    /// explain-style reporting).
    pub fn explain_targeting(&self, collection: &str, filter: &Filter) -> Targeting {
        route::target(self.config.meta(collection).as_deref(), self.primary, filter)
    }

    /// Router-level explain for a find — the plan [`Mongos::find_with`]
    /// executes, from one metadata snapshot, without running the query.
    pub fn explain_route(
        &self,
        collection: &str,
        filter: &Filter,
        opts: &FindOptions,
    ) -> RouteExplain {
        route::plan_find(self.config.meta(collection).as_deref(), self.primary, filter, opts)
    }

    /// Counts matching documents across the targeted shards.
    pub fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.try_count(collection, filter)
            .expect("count failed (use try_count under fault injection)")
    }

    /// [`Mongos::count`], surfacing shard unavailability. Under
    /// [`DegradedReads::Partial`] unreachable shards are skipped with a
    /// warning and the count covers the reachable ones.
    pub fn try_count(&self, collection: &str, filter: &Filter) -> Result<usize> {
        self.retrying(Retried::Stale, || {
            let t = self.explain_targeting(collection, filter);
            let legs = self.read_legs(
                collection,
                &t.shards,
                t.point_key.as_ref(),
                |_, coll| Ok(coll.count(filter)),
                |_| 16,
            )?;
            Ok(legs.into_iter().sum())
        })
    }

    /// Routes an update to the shards its filter targets, retrying
    /// stale routes against refreshed metadata.
    ///
    /// A `multi` update is a bulk update of one statement, so a bounced
    /// leg is re-sent only where it is still owed — re-running the
    /// whole statement would apply an `$inc` or `$push` twice on the
    /// shards that already have it. A `multi: false` update walks its
    /// shards and stops at the first match, so nothing has applied
    /// before a bounce and the walk simply starts over. An upsert that
    /// matched nothing lands on the shard owning the seed document's key.
    /// An update that can write an array into a shard-key field is
    /// refused before any shard sees it ([`ShardKey::check_update`]).
    pub fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult> {
        if let Some(meta) = self.config.meta(collection) {
            meta.key.check_update(spec)?;
        }
        let mut total = UpdateResult::default();
        if multi {
            let op = BulkUpdate { filter: filter.clone(), spec: spec.clone(), multi };
            self.update_grouped(collection, &[&op], &mut total)?;
        } else {
            total = self.retrying(Retried::Stale, || {
                let t = self.explain_targeting(collection, filter);
                let mut total = UpdateResult::default();
                for &id in &t.shards {
                    let keys = t.point_key.as_slice();
                    total.absorb(&self.update_leg(id, collection, keys, spec.payload_size(), |rs| {
                        rs.update(collection, filter, spec, false, false, self.write_concern)
                    })?);
                    if total.matched > 0 {
                        break;
                    }
                }
                Ok(total)
            })?;
        }
        if total.matched == 0 && upsert {
            let r = self.retrying(Retried::Stale, || {
                let meta = self.config.meta(collection);
                let seed = doclite_docstore::update::upsert_seed(filter);
                let (id, key) = route::document_target(meta.as_deref(), self.primary, &seed)?;
                self.update_leg(id, collection, key.as_slice(), spec.payload_size(), |rs| {
                    rs.update(collection, filter, spec, true, multi, self.write_concern)
                })
            })?;
            total.upserted_id = r.upserted_id;
        }
        Ok(total)
    }

    /// Request-header bytes of one update exchange; the statements'
    /// encoded payloads ([`UpdateSpec::payload_size`]) come on top.
    const UPDATE_HEADER: usize = 64;

    /// One router→shard update exchange, shared by single updates and
    /// bulk groups: the fault plan and retry policy apply to the whole
    /// request, every key in `keys` is ownership-checked under one hold
    /// of the shard's ownership lock *before* `run` applies anything
    /// (so a bounced request has applied nothing and can be re-sent),
    /// and the network is charged the header plus `payload` bytes.
    /// Broadcast legs carry no key — they reach a migration's
    /// destination copy through its own shard anyway.
    fn update_leg(
        &self,
        shard_id: ShardId,
        collection: &str,
        keys: &[Key],
        payload: usize,
        run: impl FnOnce(&ReplicaSet) -> Result<UpdateResult>,
    ) -> Result<UpdateResult> {
        let shard = self.shard(shard_id)?;
        self.write_leg(shard_id, Self::UPDATE_HEADER + payload, || {
            shard.owned_write(collection, keys, || run(shard.replica_set()))
        })
    }

    /// Routes an ordered bulk update (statements never upsert).
    ///
    /// Statements are grouped by target shard — a broadcast statement
    /// joins every shard's group — keeping their relative order, and
    /// each shard receives its group in [`Self::WRITE_BATCH`]-sized
    /// exchanges (an unsharded collection's whole batch goes to the
    /// primary shard). Shards hold disjoint documents, so per-shard
    /// order is the batch's order for every document. The first
    /// statement error stops the batch; exchanges already applied, on
    /// this shard or others, stay applied.
    ///
    /// A `multi: false` statement that reaches several shards stops at
    /// the first shard that matches (the [`Mongos::update`] rule), which
    /// per-shard groups cannot express: it runs alone, in order, between
    /// the grouped runs.
    ///
    /// A batch with a statement that can write an array into a shard-key
    /// field is refused whole, before any statement is sent.
    pub fn update_batch(&self, collection: &str, ops: &[BulkUpdate]) -> Result<UpdateResult> {
        let mut total = UpdateResult::default();
        let mut run: Vec<&BulkUpdate> = Vec::with_capacity(ops.len());
        let meta = self.config.meta(collection);
        if let Some(m) = &meta {
            ops.iter().try_for_each(|op| m.key.check_update(&op.spec))?;
        }
        for op in ops {
            if !op.multi && route::target(meta.as_deref(), self.primary, &op.filter).shards.len() > 1 {
                self.update_grouped(collection, &run, &mut total)?;
                run.clear();
                total.absorb(&self.update(collection, &op.filter, &op.spec, false, false)?);
            } else {
                run.push(op);
            }
        }
        self.update_grouped(collection, &run, &mut total)?;
        Ok(total)
    }

    /// Sends a run of statements grouped per shard, re-sending bounced
    /// exchanges under the stale-route retry policy until none is owed.
    fn update_grouped(
        &self,
        collection: &str,
        ops: &[&BulkUpdate],
        total: &mut UpdateResult,
    ) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut owed: Vec<Owed> = (0..ops.len()).map(|i| (i, None)).collect();
        self.retrying(Retried::Stale, || self.update_round(collection, ops, &mut owed, total))
    }

    /// One routing round of `Mongos::update_grouped`: routes every
    /// owed statement from one fresh metadata snapshot and sends each
    /// shard its group. A bounced exchange applied nothing, so it and
    /// the rest of that shard's group go back on the owed list — point
    /// statements to be re-routed, broadcast statements still owed to
    /// that shard only (the others already have them, so re-routing
    /// would double-apply) — and the round reports the stale route.
    fn update_round(
        &self,
        collection: &str,
        ops: &[&BulkUpdate],
        owed: &mut Vec<Owed>,
        total: &mut UpdateResult,
    ) -> Result<()> {
        // A shard that left the cluster was drained into the others,
        // which have the statements owed to it already.
        owed.retain(|(_, only)| only.is_none_or(|id| self.shard(id).is_ok()));
        let meta = self.config.meta(collection);
        let groups =
            route::group_writes(meta.as_deref(), self.primary, |i| &ops[i].filter, owed.drain(..));
        let mut stale = None;
        for (id, group) in groups {
            let mut sent = 0;
            while sent < group.len() {
                let exchange = &group[sent..group.len().min(sent + Self::WRITE_BATCH)];
                let batch: Vec<&BulkUpdate> = exchange.iter().map(|(i, _)| ops[*i]).collect();
                let keys: Vec<Key> =
                    exchange.iter().filter_map(|(_, key)| key.clone()).collect();
                let payload = batch.iter().map(|op| op.spec.payload_size()).sum();
                match self.update_leg(id, collection, &keys, payload, |rs| {
                    rs.update_batch(collection, &batch, self.write_concern)
                }) {
                    Ok(r) => {
                        total.absorb(&r);
                        sent += exchange.len();
                    }
                    Err(Error::StaleRoute(msg)) => {
                        // Later exchanges to this shard wait behind the
                        // bounced one, or they would overtake it.
                        owed.extend(
                            group[sent..].iter().map(|(i, key)| (*i, key.is_none().then_some(id))),
                        );
                        stale = Some(msg);
                        break;
                    }
                    Err(e) => return Err(e),
                }
            }
        }
        match stale {
            None => Ok(()),
            Some(msg) => {
                owed.sort_by_key(|(i, _)| *i);
                Err(Error::StaleRoute(msg))
            }
        }
    }

    /// Routes a delete.
    pub fn delete_many(&self, collection: &str, filter: &Filter) -> usize {
        self.try_delete_many(collection, filter)
            .expect("delete failed (use try_delete_many under fault injection)")
    }

    /// [`Mongos::delete_many`], surfacing shard unavailability (writes
    /// never degrade to partial application silently).
    pub fn try_delete_many(&self, collection: &str, filter: &Filter) -> Result<usize> {
        self.retrying(Retried::Stale, || {
            let mut n = 0;
            for id in self.explain_targeting(collection, filter).shards {
                let shard = self.shard(id)?;
                n += self.write_leg(id, 16, || {
                    shard.replica_set().delete_many(collection, filter, self.write_concern)
                })?;
            }
            Ok(n)
        })
    }

    /// Creates an index on every shard's copy of the collection
    /// (replicated to every member, so secondaries can serve
    /// index-backed reads after failover).
    pub fn create_index(&self, collection: &str, def: IndexDef) -> Result<()> {
        for shard in self.shards() {
            self.write_leg(shard.id(), 64, || {
                shard.replica_set().create_index(collection, def.clone())
            })?;
        }
        Ok(())
    }

    /// Runs an aggregation pipeline against a (possibly sharded)
    /// collection, per the [`route::plan_aggregate`] plan: a single leg
    /// runs the whole pipeline on its shard and ships only the results;
    /// several legs each run the per-document prefix and ship a partial
    /// (`docstore::agg::Split`), which the router merges in leg order
    /// before it executes the remaining stages. Any `$out` target is
    /// materialized on the primary shard. The transfer of intermediate
    /// data from several nodes is precisely the "expensive process" of
    /// aggregating from multiple nodes the thesis measures; each leg is
    /// charged its partial's [`Partial::encoded_size`].
    pub fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        self.retrying(Retried::Stale, || self.aggregate_once(collection, pipeline))
    }

    fn aggregate_once(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        let meta = self.config.meta(collection);
        let plan = route::plan_aggregate(meta.as_deref(), self.primary, pipeline)?;
        let split = &plan.split;
        // $lookup resolves against the primary shard, where unsharded
        // collections live (MongoDB requires the from-collection of a
        // $lookup to be unsharded), whether it runs in a leg or here.
        let primary = self.shard(self.primary)?;
        let lookup_db = primary.db();
        // A leg that reads as `None` (a missing collection, a degraded
        // shard) contributes nothing to the merge.
        let legs = self.read_legs(
            collection,
            &plan.route.shards,
            plan.route.point_key.as_ref(),
            |_, coll| split.partial(coll.aggregate_with(split.part(), Some(&*lookup_db))?).map(Some),
            |leg| leg.as_ref().map_or(0, Partial::encoded_size),
        )?;
        let results = split.merge(legs.into_iter().flatten(), Some(&*lookup_db))?;

        if let Some(name) = pipeline.out_target() {
            let out_bytes: usize = results.iter().map(encoded_size).sum();
            let rs = primary.replica_set();
            rs.drop_collection(name);
            // Move the results into the target collection on every
            // member; the returned documents are re-read from the
            // store, so pipeline outputs without an _id gain a
            // store-assigned ObjectId.
            self.write_leg(self.primary, out_bytes, || {
                rs.insert_many(name, results, self.write_concern)
            })?;
            return Ok(rs.db().get_collection(name)?.all_docs());
        }
        Ok(results)
    }

    /// Total documents stored for a collection across shards.
    pub fn collection_len(&self, collection: &str) -> usize {
        self.shards()
            .iter()
            .map(|s| {
                s.db()
                    .get_collection(collection)
                    .map(|c| c.len())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Total data bytes stored for a collection across shards.
    pub fn collection_data_size(&self, collection: &str) -> usize {
        self.shards()
            .iter()
            .map(|s| {
                s.db()
                    .get_collection(collection)
                    .map(|c| c.data_size())
                    .unwrap_or(0)
            })
            .sum()
    }

    /// Shards a collection — the one registration path: the shard-key
    /// index on every shard first (MongoDB requires it; splits and
    /// migrations read chunks off it, [`crate::chunk::Chunk::key_counts`]),
    /// then the metadata, one full-range chunk on the primary shard that
    /// splits past `max_chunk_size` bytes.
    pub fn shard_collection(
        &self,
        collection: &str,
        key: ShardKey,
        max_chunk_size: usize,
    ) -> Result<()> {
        self.create_index(collection, key.index_def())?;
        self.config
            .shard_collection_with_chunk_size(collection, key, self.primary, max_chunk_size);
        Ok(())
    }

    /// Shards an *existing, populated* collection: gathers its documents
    /// from wherever they live (the primary shard for a previously
    /// unsharded collection), registers the shard-key metadata, and
    /// re-routes every document through the normal insert path so chunks
    /// split and distribute as if the data had been loaded sharded.
    ///
    /// Every index the collection had is rebuilt on every shard.
    ///
    /// This backs the thesis's future-work scenario (Section 5.2): "the
    /// denormalized data model can be deployed on the sharded cluster".
    pub fn reshard_collection(
        &self,
        collection: &str,
        key: ShardKey,
        max_chunk_size: usize,
    ) -> Result<usize> {
        // Gather all documents currently stored anywhere and the indexes
        // over them, then drop the collection on every replica-set member
        // so no stale copy survives the reshard.
        let mut docs: Vec<Document> = Vec::new();
        let mut indexes: Vec<IndexDef> = Vec::new();
        for shard in self.shards() {
            if let Ok(coll) = shard.db().get_collection(collection) {
                docs.extend(coll.all_docs());
                for def in coll.index_defs() {
                    if !indexes.contains(&def) {
                        indexes.push(def);
                    }
                }
            }
            shard.replica_set().drop_collection(collection);
        }
        self.shard_collection(collection, key, max_chunk_size)?;
        for def in indexes {
            self.create_index(collection, def)?;
        }
        self.insert_many(collection, docs)
    }

    /// Physically relocates a chunk's documents and updates metadata —
    /// the data-movement half of a balancer migration.
    ///
    /// The protocol is a migration critical section that loses no
    /// concurrent write:
    ///
    /// 1. **Surrender** the range on the source shard. The surrender
    ///    takes the ownership write lock, so it strictly orders
    ///    against in-flight [`Shard::owned_write`]s: every write that
    ///    already passed its ownership check completes before the
    ///    surrender returns, and every later write bounces with
    ///    [`Error::StaleRoute`] (the router retries it until step 4
    ///    re-targets it at the destination).
    /// 2. **Read** the chunk's resident documents — complete by step 1 —
    ///    off the source's shard-key index
    ///    ([`crate::chunk::Chunk::documents`]: the chunk's keys, not the
    ///    collection) and **copy** them to the destination, which
    ///    reclaims the range (in case it migrated away from there
    ///    earlier) only once the copies have landed.
    /// 3. **Flip** the routing table. New traffic now targets the
    ///    destination, where the copies already are.
    /// 4. **Delete** the copied documents from the source: one
    ///    `{_id: {$in: ids}}` statement, which the planner serves by
    ///    point lookups on the `_id` index.
    ///
    /// Between steps 2 and 4 both sides hold the documents; targeted
    /// reads are unaffected (they see exactly one side), broadcast
    /// reads can transiently observe duplicates — the same orphan
    /// window MongoDB's `moveChunk` has before orphan cleanup.
    ///
    /// Migration writes at W1: every healthy member applies the copy and
    /// the cleanup, but only the primary's acknowledgement is awaited
    /// (it is internal data movement; a down member catches up at
    /// recovery resync).
    pub fn move_chunk(&self, collection: &str, chunk_idx: usize, to: ShardId) -> Result<usize> {
        let _one_at_a_time = self.migration.lock();
        let meta = self
            .config
            .meta(collection)
            .ok_or_else(|| Error::NoSuchCollection(collection.to_owned()))?;
        let chunk = meta
            .chunks
            .get(chunk_idx)
            .ok_or_else(|| Error::InvalidQuery(format!("no chunk {chunk_idx}")))?
            .clone();
        if chunk.shard == to {
            return Ok(0);
        }
        let src = self.shard(chunk.shard)?;
        let dest = self.shard(to)?;

        // Step 1: close the source side of the range to new writes.
        src.surrender_range(collection, chunk.min.clone(), chunk.max.clone());

        // Step 2: the index now holds every write that ever passed an
        // ownership check for this range.
        let moving = match src.replica_set().db().get_collection(collection) {
            Ok(coll) => chunk.documents(&coll, &meta.key),
            Err(_) => Ok(Vec::new()), // nothing was ever stored there
        };
        // No snapshot is held across the flip, so it copies nothing.
        drop(meta);
        let moving = match moving {
            Ok(docs) => docs,
            Err(e) => {
                src.reclaim_range(collection, &chunk.min, &chunk.max);
                return Err(e);
            }
        };
        let bytes: usize = moving.iter().map(encoded_size).sum();
        let n = moving.len();
        let ids = Filter::is_in(
            "_id",
            moving.iter().map(|d| d.id().expect("stored docs have _id").clone()),
        );

        if let Err(e) = dest
            .replica_set()
            .insert_many(collection, moving, WriteConcern::W1)
        {
            // Copy failed: roll back. Remove whatever partial copy
            // landed, reopen the source range, leave routing untouched
            // — the migration never happened.
            let _ = dest.replica_set().delete_many(collection, &ids, WriteConcern::W1);
            src.reclaim_range(collection, &chunk.min, &chunk.max);
            return Err(e);
        }
        // Only now does the destination accept writes for the range (it
        // may have surrendered it in an earlier migration): a write
        // routed from a stale snapshot that reached it before the copy
        // landed would have found nothing to update.
        dest.reclaim_range(collection, &chunk.min, &chunk.max);

        // Step 3: flip routing. The chunk is re-located by occupancy
        // under the config lock — concurrent splits may have shifted
        // indices, but splits preserve shard placement, so every chunk
        // now covering `[min, max)` still points at the source.
        self.config.with_meta_mut(collection, |m| {
            for c in &mut m.chunks {
                if c.shard == chunk.shard
                    && c.min.cmp_bound(&chunk.min) != std::cmp::Ordering::Less
                    && c.max.cmp_bound(&chunk.max) != std::cmp::Ordering::Greater
                {
                    c.shard = to;
                }
            }
        });

        // Step 4: drop the source copies; routing no longer reaches them.
        if let Err(e) = src.replica_set().delete_many(collection, &ids, WriteConcern::W1) {
            // The chunk has moved; stragglers on the source are
            // unreachable by targeted traffic but would show up in
            // broadcasts. Surface loudly rather than failing the
            // already-committed migration.
            self.warn(format!("orphan cleanup after chunk move failed: {e}"));
        }

        // Source→destination transfer plus two metadata round-trips.
        self.stats.charge(&self.network, bytes);
        self.stats.charge(&self.network, 64);
        Ok(n)
    }
}

/// Merges per-shard sorted runs into one globally sorted vector with a
/// k-way heap merge — O(total · log legs) key comparisons instead of a
/// linear scan over all legs per emitted document — breaking ties by
/// (leg index, position within leg). That is exactly the order
/// concatenating whole legs and stable-sorting produced, so pushing
/// the sort down is invisible to callers.
fn merge_sorted_legs(legs: Vec<Vec<Document>>, spec: &[(String, i32)]) -> Vec<Document> {
    use doclite_docstore::agg::CompiledSortSpec;
    use std::cmp::{Ordering, Reverse};
    use std::collections::BinaryHeap;

    /// A leg's current head document, ordered by (sort key, leg index).
    /// Each leg has at most one entry in the heap, so within-leg
    /// position order is preserved by construction. Keys are owned —
    /// the document moves into the heap — but extracted through the
    /// compiled spec: one value clone per key component, no
    /// per-document path splitting.
    struct Head<'s> {
        key: Vec<doclite_bson::Value>,
        leg: usize,
        doc: Document,
        spec: &'s CompiledSortSpec,
    }

    impl Ord for Head<'_> {
        fn cmp(&self, other: &Self) -> Ordering {
            self.spec
                .compare_values(&self.key, &other.key)
                .then(self.leg.cmp(&other.leg))
        }
    }
    impl PartialOrd for Head<'_> {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl PartialEq for Head<'_> {
        fn eq(&self, other: &Self) -> bool {
            self.cmp(other) == Ordering::Equal
        }
    }
    impl Eq for Head<'_> {}

    let cs = CompiledSortSpec::new(spec);
    let total: usize = legs.iter().map(Vec::len).sum();
    let mut iters: Vec<std::vec::IntoIter<Document>> =
        legs.into_iter().map(Vec::into_iter).collect();
    let mut heap: BinaryHeap<Reverse<Head<'_>>> = BinaryHeap::with_capacity(iters.len());
    for (leg, it) in iters.iter_mut().enumerate() {
        if let Some(doc) = it.next() {
            heap.push(Reverse(Head { key: cs.key_owned(&doc), leg, doc, spec: &cs }));
        }
    }
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse(head)) = heap.pop() {
        let leg = head.leg;
        out.push(head.doc);
        if let Some(doc) = iters[leg].next() {
            heap.push(Reverse(Head { key: cs.key_owned(&doc), leg, doc, spec: &cs }));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{KeyBound, DEFAULT_CHUNK_SIZE};
    use doclite_bson::doc;
    use std::sync::atomic::AtomicUsize;

    fn cluster(n: usize) -> Mongos {
        let shards: Vec<Arc<Shard>> = (0..n).map(|i| Arc::new(Shard::new(i, "test"))).collect();
        Mongos::new(shards, Arc::new(ConfigServer::new()), NetworkModel::free())
    }

    /// A router over four shards that each hold an empty collection `c`,
    /// so every read leg runs its closure.
    fn four_shards_with_c() -> Mongos {
        let r = cluster(4);
        for s in r.shards() {
            s.db().collection("c");
        }
        r
    }

    #[test]
    fn every_read_leg_runs_exactly_once() {
        let r = four_shards_with_c();
        for shards in [&[0usize][..], &[2, 0], &[0, 1, 2, 3]] {
            let runs: Vec<AtomicUsize> = (0..4).map(|_| AtomicUsize::new(0)).collect();
            let run = |leg: usize, _: &Collection| {
                runs[shards[leg]].fetch_add(1, Ordering::Relaxed);
                Ok(leg)
            };
            let out = r.read_legs("c", shards, None, run, |_| 0).unwrap();
            assert_eq!(out, (0..shards.len()).collect::<Vec<_>>());
            for (id, n) in runs.iter().enumerate() {
                let want = usize::from(shards.contains(&id));
                assert_eq!(n.load(Ordering::Relaxed), want, "shard {id} of {shards:?}");
            }
        }
    }

    #[test]
    fn scatter_leg_order_is_stable_regardless_of_completion_order() {
        // Leg i may finish only once leg i + 1 has, so the legs finish in
        // reverse; results must still come back in leg order, which the
        // (leg, pos) merge invariant depends on.
        let r = four_shards_with_c();
        let ids = [0usize, 1, 2, 3];
        let finished = Mutex::new(Vec::new());
        let run = |leg: usize, _: &Collection| {
            while leg + 1 < ids.len() && !finished.lock().contains(&(leg + 1)) {
                std::thread::yield_now();
            }
            finished.lock().push(leg);
            Ok(leg)
        };
        assert_eq!(r.read_legs("c", &ids, None, run, |_| 0).unwrap(), vec![0, 1, 2, 3]);
        assert_eq!(*finished.lock(), vec![3, 2, 1, 0]);
    }

    #[test]
    fn a_panicking_leg_reraises_on_the_caller_after_the_other_legs_finish() {
        let r = four_shards_with_c();
        let ids = [0usize, 1, 2, 3];
        for bad in ids {
            let finished = AtomicUsize::new(0);
            let run = |leg: usize, _: &Collection| {
                if leg == bad {
                    panic!("leg {leg} failed");
                }
                // Outlast the panic: a re-raise that did not wait for
                // the other legs would count fewer than three.
                std::thread::sleep(Duration::from_millis(5));
                finished.fetch_add(1, Ordering::Relaxed);
                Ok(leg)
            };
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                r.read_legs("c", &ids, None, run, |_| 0)
            }))
            .unwrap_err();
            assert_eq!(payload.downcast_ref::<String>(), Some(&format!("leg {bad} failed")));
            assert_eq!(finished.load(Ordering::Relaxed), 3, "leg {bad}: the others finished");
        }
    }

    /// A router whose retry loop gives up after two instant retries,
    /// and a counter of how often the retried operation ran.
    fn two_retries() -> (Mongos, std::cell::Cell<u32>) {
        let mut r = cluster(2);
        r.set_retry_policy(RetryPolicy {
            max_retries: 2,
            initial_backoff: Duration::ZERO,
            ..RetryPolicy::default()
        });
        (r, std::cell::Cell::new(0))
    }

    #[test]
    fn stale_operations_replan_until_the_retries_run_out() {
        let (r, runs) = two_retries();
        let err = r
            .retrying(Retried::Stale, || -> Result<()> {
                runs.set(runs.get() + 1);
                Err(Error::StaleRoute("chunk moved".into()))
            })
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "unavailable: stale routing not resolved after 2 retries: chunk moved"
        );
        assert_eq!((runs.get(), r.net_stats().retries()), (3, 2));
        // Anything else — success or another error — ends the loop.
        let err = r.retrying(Retried::Stale, || -> Result<()> { Err(Error::InvalidQuery("no".into())) });
        assert_eq!(err.unwrap_err().to_string(), "invalid query: no");
        assert_eq!(r.net_stats().retries(), 2);
    }

    #[test]
    fn a_faulted_read_leg_runs_again() {
        let (r, runs) = two_retries();
        let leg = || {
            runs.set(runs.get() + 1);
            Ok(7usize)
        };
        // Healthy: straight through, the fault plan is never consulted.
        assert_eq!(r.retrying(Retried::Read(1, &|_| 16), leg).unwrap(), 7);
        assert_eq!(runs.get(), 1);
        r.faults().set_partitioned(1, true);
        let err = r.retrying(Retried::Read(1, &|_| 16), leg).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unavailable: Shard2 unreachable: network partition (gave up after 2 retries)"
        );
        assert_eq!((runs.get(), r.net_stats().partitioned()), (1 + 3, 3));
        assert_eq!(r.retrying(Retried::Read(0, &|_| 16), leg).unwrap(), 7, "shard 0 is reachable");
    }

    #[test]
    fn a_write_runs_at_most_once() {
        let (mut r, runs) = two_retries();
        let write = || {
            runs.set(runs.get() + 1);
            Ok(())
        };
        // Behind a partition the request never arrives...
        r.faults().set_partitioned(1, true);
        let err = r.write_leg(1, 16, write).unwrap_err();
        assert_eq!(
            err.to_string(),
            "unavailable: Shard2 unreachable: network partition (gave up after 2 retries)"
        );
        assert_eq!((runs.get(), r.net_stats().exchanges()), (0, 0));
        // ...and over a link that drops 9 requests in 10 it is re-sent
        // until it arrives, applies once and is charged once.
        r.faults().clear();
        r.faults().set_seed(7);
        r.faults().set_drop_probability(0.9);
        r.set_retry_policy(RetryPolicy { max_retries: 500, ..r.retry_policy() });
        for sent in 1..=20 {
            r.write_leg(1, 16, write).unwrap();
            assert_eq!((runs.get(), r.net_stats().exchanges()), (sent, sent as u64));
        }
        assert!(r.net_stats().dropped() > 20);
        assert_eq!(r.net_stats().retries(), 2 + r.net_stats().dropped());
    }

    /// A shard that has surrendered a range (here: a migration that never
    /// flips the config) must not answer a point read of it from the
    /// surrendered copy, whichever read it is: find, count and aggregate
    /// re-plan until the retries run out. Reads that pin no point —
    /// ranges, broadcasts — have no key to check and answer.
    #[test]
    fn point_reads_of_a_surrendered_range_bounce_whichever_read_it_is() {
        let (r, _) = two_retries();
        r.shard_collection("facts", ShardKey::range(["k"]), DEFAULT_CHUNK_SIZE).unwrap();
        for i in 0..20i64 {
            r.insert_one("facts", doc! {"k" => i}).unwrap();
        }
        r.shards()[0].surrender_range("facts", KeyBound::MinKey, KeyBound::MaxKey);
        let point = Filter::eq("k", 3i64);
        let errors = [
            r.try_find_with("facts", &point, &FindOptions::default()).unwrap_err(),
            r.try_count("facts", &point).unwrap_err(),
            r.aggregate("facts", &Pipeline::new().match_stage(point.clone()).limit(5)).unwrap_err(),
        ];
        for e in errors {
            assert_eq!(
                e.to_string(),
                "unavailable: stale routing not resolved after 2 retries: \
                 read of 'facts' raced a chunk migration"
            );
        }
        assert_eq!(r.find("facts", &Filter::lt("k", 5i64)).len(), 5);
        assert_eq!(r.aggregate("facts", &Pipeline::new().limit(5)).unwrap().len(), 5);
    }

    #[test]
    fn out_anywhere_but_last_is_rejected_and_writes_nothing() {
        let r = cluster(2);
        r.insert_one("src", doc! {"k" => 1i64}).unwrap();
        let p = Pipeline::new().match_stage(Filter::True).out("dst").limit(1);
        let err = r.aggregate("src", &p).unwrap_err();
        assert_eq!(err.to_string(), "invalid query: $out can only be the final stage of a pipeline");
        assert!(r.shards().iter().all(|s| s.db().get_collection("dst").is_err()));
        // The trailing form still materializes on the primary.
        let out = r.aggregate("src", &Pipeline::new().limit(1).out("dst")).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(r.shards()[0].db().get_collection("dst").unwrap().len(), 1);
    }

    #[test]
    fn unsharded_collections_live_on_primary() {
        let r = cluster(3);
        r.insert_one("dims", doc! {"a" => 1i64}).unwrap();
        assert_eq!(r.shards()[0].db().get_collection("dims").unwrap().len(), 1);
        assert!(r.shards()[1].db().get_collection("dims").is_err());
        assert_eq!(r.find("dims", &Filter::True).len(), 1);
    }

    #[test]
    fn sharded_insert_routes_and_splits() {
        let r = cluster(3);
        r.shard_collection("facts", ShardKey::range(["k"]), 4 * 1024).unwrap();
        for i in 0..500i64 {
            r.insert_one("facts", doc! {"k" => i, "pad" => "x".repeat(40)})
                .unwrap();
        }
        let meta = r.config().meta("facts").unwrap();
        assert!(meta.chunks.len() > 1, "expected splits, got 1 chunk");
        meta.check_invariants().unwrap();
        assert_eq!(r.collection_len("facts"), 500);
    }

    #[test]
    fn jumbo_chunk_detected_for_single_valued_key() {
        let r = cluster(2);
        r.shard_collection("facts", ShardKey::range(["k"]), 2 * 1024).unwrap();
        for _ in 0..200 {
            r.insert_one("facts", doc! {"k" => 36i64, "pad" => "y".repeat(40)})
                .unwrap();
        }
        let meta = r.config().meta("facts").unwrap();
        assert!(meta.chunks.iter().any(|c| c.jumbo), "expected a jumbo chunk");
    }

    /// A collection registered on the config server alone has no
    /// shard-key index to split by: its full chunk is marked jumbo with
    /// one warning, not retried in silence on every insert.
    #[test]
    fn a_chunk_without_the_shard_key_index_is_jumbo_with_a_warning() {
        let r = cluster(2);
        r.config().shard_collection_with_chunk_size("c", ShardKey::range(["k"]), 0, 1024);
        for i in 0..200i64 {
            r.insert_one("c", doc! {"_id" => i, "k" => i, "pad" => "p".repeat(24)}).unwrap();
        }
        let meta = r.config().meta("c").unwrap();
        assert_eq!(meta.chunks.len(), 1);
        assert!(meta.chunks[0].jumbo && meta.chunks[0].bytes > 1024);
        let warnings = r.take_warnings();
        assert_eq!(warnings.len(), 1, "{warnings:?}");
        assert!(warnings[0].contains("k_1"), "{warnings:?}");
    }

    #[test]
    fn targeted_vs_broadcast_find() {
        let r = cluster(3);
        r.shard_collection("facts", ShardKey::range(["k"]), 2 * 1024).unwrap();
        for i in 0..300i64 {
            r.insert_one("facts", doc! {"k" => i, "v" => i * 2, "pad" => "z".repeat(30)})
                .unwrap();
        }
        // rebalance a bit so multiple shards hold chunks
        let n_chunks = r.config().meta("facts").unwrap().chunks.len();
        for (i, to) in (0..n_chunks).zip([0usize, 1, 2].iter().cycle()) {
            r.move_chunk("facts", i, *to).unwrap();
        }

        let t = r.explain_targeting("facts", &Filter::eq("k", 5i64));
        assert!(t.is_targeted());
        assert_eq!(t.shards().len(), 1);
        assert_eq!(r.find("facts", &Filter::eq("k", 5i64)).len(), 1);

        let t = r.explain_targeting("facts", &Filter::eq("v", 10i64));
        assert!(!t.is_targeted());
        assert_eq!(r.find("facts", &Filter::eq("v", 10i64)).len(), 1);
        assert_eq!(r.collection_len("facts"), 300);
    }

    #[test]
    fn aggregate_pushes_match_down_and_materializes_out() {
        use doclite_docstore::{Accumulator, GroupId};
        let r = cluster(2);
        r.shard_collection("facts", ShardKey::range(["k"]), 1024).unwrap();
        for i in 0..100i64 {
            r.insert_one("facts", doc! {"k" => i, "grp" => i % 5, "v" => 1i64})
                .unwrap();
        }
        let p = Pipeline::new()
            .match_stage(Filter::lt("k", 50i64))
            .group(
                GroupId::Expr(doclite_docstore::Expr::field("grp")),
                [("n", Accumulator::sum_field("v"))],
            )
            .sort([("_id", 1)])
            .out("agg_out");
        let results = r.aggregate("facts", &p).unwrap();
        assert_eq!(results.len(), 5);
        assert_eq!(
            results[0].get("n"),
            Some(&doclite_bson::Value::Int64(10))
        );
        let out = r.shards()[0].db().get_collection("agg_out").unwrap();
        assert_eq!(out.len(), 5);
    }

    #[test]
    fn update_and_delete_route() {
        let r = cluster(2);
        r.shard_collection("facts", ShardKey::range(["k"]), 1024).unwrap();
        for i in 0..50i64 {
            r.insert_one("facts", doc! {"k" => i}).unwrap();
        }
        let res = r
            .update(
                "facts",
                &Filter::eq("k", 7i64),
                &UpdateSpec::set("flag", true),
                false,
                true,
            )
            .unwrap();
        assert_eq!(res.modified, 1);
        assert_eq!(r.delete_many("facts", &Filter::eq("k", 7i64)), 1);
        assert_eq!(r.collection_len("facts"), 49);
    }

    #[test]
    fn create_index_reaches_every_shard() {
        let r = cluster(3);
        r.shard_collection("facts", ShardKey::range(["k"]), DEFAULT_CHUNK_SIZE).unwrap();
        r.insert_one("facts", doc! {"k" => 1i64}).unwrap();
        r.create_index("facts", IndexDef::single("v")).unwrap();
        for s in r.shards() {
            let defs = s.db().collection("facts").index_defs();
            assert!(defs.iter().any(|d| d.name == "v_1"));
        }
    }

    #[test]
    fn move_chunk_relocates_documents() {
        let r = cluster(2);
        r.shard_collection("facts", ShardKey::range(["k"]), DEFAULT_CHUNK_SIZE).unwrap();
        for i in 0..20i64 {
            r.insert_one("facts", doc! {"k" => i}).unwrap();
        }
        let moved = r.move_chunk("facts", 0, 1).unwrap();
        assert_eq!(moved, 20);
        assert_eq!(r.shards()[0].db().get_collection("facts").unwrap().len(), 0);
        assert_eq!(r.shards()[1].db().get_collection("facts").unwrap().len(), 20);
        // routing follows the metadata
        assert_eq!(r.find("facts", &Filter::eq("k", 3i64)).len(), 1);
    }

    #[test]
    fn sorted_limited_find_transfers_o_limit_bytes_per_leg() {
        let r = cluster(3);
        r.shard_collection("facts", ShardKey::hashed("k"), 1024).unwrap();
        for i in 0..300i64 {
            r.insert_one("facts", doc! {"k" => i, "v" => i, "pad" => "x".repeat(400)})
                .unwrap();
        }
        let data = r.collection_data_size("facts");
        let avg_doc = data / 300;
        r.net_stats().reset();
        let opts = FindOptions {
            sort: vec![("v".into(), 1)],
            limit: 5,
            ..FindOptions::default()
        };
        let docs = r.find_with("facts", &Filter::True, &opts);
        assert_eq!(docs.len(), 5);
        assert_eq!(docs[0].get("v"), Some(&doclite_bson::Value::Int64(0)));
        assert_eq!(docs[4].get("v"), Some(&doclite_bson::Value::Int64(4)));
        // Each of the 3 legs ships at most `limit` documents, so the
        // scatter-gather transfer is bounded by shards × limit × doc
        // size — far below the full broadcast payload.
        let bytes = r.net_stats().bytes() as usize;
        assert!(
            bytes <= 3 * 5 * avg_doc * 2,
            "bytes {bytes}, avg doc {avg_doc}"
        );
        assert!(bytes * 4 < data, "bytes {bytes} vs collection {data}");
    }

    #[test]
    fn sorted_skip_limit_find_matches_unpushed_semantics() {
        let r = cluster(3);
        r.shard_collection("facts", ShardKey::hashed("k"), 1024).unwrap();
        for i in 0..100i64 {
            r.insert_one("facts", doc! {"k" => i, "v" => (i * 37) % 100})
                .unwrap();
        }
        let opts = FindOptions {
            sort: vec![("v".into(), -1)],
            skip: 10,
            limit: 7,
            ..FindOptions::default()
        };
        let docs = r.find_with("facts", &Filter::True, &opts);
        assert_eq!(docs.len(), 7);
        // (i * 37) % 100 is a permutation of 0..100, so descending with
        // skip 10 starts at 89.
        for (n, d) in docs.iter().enumerate() {
            assert_eq!(
                d.get("v"),
                Some(&doclite_bson::Value::Int64(89 - n as i64))
            );
        }
    }

    #[test]
    fn aggregate_pushes_sort_limit_window_to_shards() {
        let r = cluster(3);
        r.shard_collection("facts", ShardKey::hashed("k"), 1024).unwrap();
        for i in 0..300i64 {
            r.insert_one("facts", doc! {"k" => i, "v" => i, "pad" => "y".repeat(400)})
                .unwrap();
        }
        let data = r.collection_data_size("facts");
        r.net_stats().reset();
        let p = Pipeline::new().sort([("v", 1)]).skip(2).limit(3);
        let docs = r.aggregate("facts", &p).unwrap();
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].get("v"), Some(&doclite_bson::Value::Int64(2)));
        assert_eq!(docs[2].get("v"), Some(&doclite_bson::Value::Int64(4)));
        let bytes = r.net_stats().bytes() as usize;
        // Each leg ships at most skip + limit = 5 documents.
        assert!(bytes * 4 < data, "bytes {bytes} vs collection {data}");
    }

    #[test]
    fn find_projection_applies_through_router() {
        let r = cluster(2);
        r.shard_collection("facts", ShardKey::hashed("k"), 1024).unwrap();
        for i in 0..40i64 {
            r.insert_one("facts", doc! {"k" => i, "v" => i, "w" => i * 2})
                .unwrap();
        }
        // Sort path outside the projection: projection must not be
        // pushed below the merge, yet still applies at the router.
        let opts = FindOptions {
            sort: vec![("v".into(), 1)],
            limit: 3,
            projection: vec!["w".into()],
            ..FindOptions::default()
        };
        let docs = r.find_with("facts", &Filter::True, &opts);
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[0].get("w"), Some(&doclite_bson::Value::Int64(0)));
        assert!(docs[0].get("v").is_none());
        // Sort path inside the projection: pushed to the legs.
        let opts = FindOptions {
            sort: vec![("v".into(), 1)],
            limit: 3,
            projection: vec!["v".into()],
            ..FindOptions::default()
        };
        let docs = r.find_with("facts", &Filter::True, &opts);
        assert_eq!(docs.len(), 3);
        assert_eq!(docs[1].get("v"), Some(&doclite_bson::Value::Int64(1)));
        assert!(docs[1].get("w").is_none());
    }

    #[test]
    fn network_stats_accumulate_per_leg() {
        let r = cluster(3);
        r.shard_collection("facts", ShardKey::range(["k"]), DEFAULT_CHUNK_SIZE).unwrap();
        r.insert_one("facts", doc! {"k" => 1i64}).unwrap();
        let before = r.net_stats().exchanges();
        r.find("facts", &Filter::eq("nonkey", 0i64)); // broadcast: 1 leg per chunk-holding shard
        assert!(r.net_stats().exchanges() > before);
    }

    /// A skewed two-shard layout: shard 0 holds 10 docs (the globally
    /// smallest `v`s), shard 1 holds 500. Stats-sized per-leg limits
    /// cap shard 0 below the window, so the saturation retry must
    /// re-fetch it — the final window still has to be exact.
    fn skewed_cluster() -> Mongos {
        let r = cluster(2);
        r.shard_collection("facts", ShardKey::range(["k"]), DEFAULT_CHUNK_SIZE).unwrap();
        r.config().split_chunk(
            "facts",
            0,
            Key::of(&doclite_bson::Value::Int64(100)),
            0.5,
        );
        r.config().move_chunk("facts", 1, 1);
        for i in 0..10i64 {
            r.insert_one("facts", doc! {"k" => i, "v" => i}).unwrap();
        }
        for i in 0..500i64 {
            r.insert_one("facts", doc! {"k" => 100 + i, "v" => 1000 + i})
                .unwrap();
        }
        r
    }

    #[test]
    fn optimistic_leg_limits_keep_sorted_window_exact() {
        let r = skewed_cluster();
        let opts = FindOptions {
            sort: vec![("v".to_string(), 1)],
            skip: 0,
            limit: 10,
            projection: Vec::new(),
        };
        // The optimistic cap for shard 0 is below the window (its stats
        // share is ~2%), so its 10 smallest docs are only complete
        // after the saturation retry.
        let docs = r.find_with("facts", &Filter::True, &opts);
        let vs: Vec<i64> = docs
            .iter()
            .map(|d| match d.get("v") {
                Some(doclite_bson::Value::Int64(v)) => *v,
                other => panic!("unexpected v: {other:?}"),
            })
            .collect();
        assert_eq!(vs, (0..10).collect::<Vec<i64>>());

        // Windows deeper than any single optimistic cap still merge
        // correctly across both legs.
        let opts = FindOptions {
            sort: vec![("v".to_string(), 1)],
            skip: 5,
            limit: 20,
            projection: Vec::new(),
        };
        let docs = r.find_with("facts", &Filter::True, &opts);
        let vs: Vec<i64> = docs
            .iter()
            .filter_map(|d| match d.get("v") {
                Some(doclite_bson::Value::Int64(v)) => Some(*v),
                _ => None,
            })
            .collect();
        let expect: Vec<i64> = (5..10).chain(1000..1015).collect();
        assert_eq!(vs, expect);
    }

    /// The plan over *live* chunk accounting (the pure cases are
    /// `route`'s table): inserts fed `est_docs`, which sizes the legs.
    #[test]
    fn explain_route_reports_targeting_and_leg_limits() {
        let r = skewed_cluster();
        let ex = r.explain_route("facts", &Filter::eq("k", 5i64), &FindOptions::new().with_limit(3));
        assert!(ex.targeted);
        assert_eq!((ex.shards, ex.est_docs, ex.leg_limits), (vec![0], vec![10], vec![3]));
        let top10 = FindOptions::new().sort_by("v", 1).with_limit(10);
        let ex = r.explain_route("facts", &Filter::True, &top10);
        assert!(!ex.targeted);
        // The small shard is capped below the window (at the even split).
        assert_eq!((ex.shards, ex.est_docs, ex.leg_limits), (vec![0, 1], vec![10, 500], vec![5, 10]));
    }
}

#[cfg(test)]
mod reshard_tests {
    use super::*;
    use doclite_bson::doc;

    #[test]
    fn reshard_existing_collection_redistributes_and_preserves_data() {
        let shards: Vec<Arc<Shard>> = (0..3).map(|i| Arc::new(Shard::new(i, "t"))).collect();
        let r = Mongos::new(shards, Arc::new(ConfigServer::new()), NetworkModel::free());
        // Load unsharded (lands on the primary).
        for i in 0..400i64 {
            r.insert_one("dn", doc! {"k" => i, "pad" => "p".repeat(40)}).unwrap();
        }
        assert_eq!(r.shards()[0].db().get_collection("dn").unwrap().len(), 400);

        let n = r
            .reshard_collection("dn", ShardKey::range(["k"]), 4 * 1024)
            .unwrap();
        assert_eq!(n, 400);
        let meta = r.config().meta("dn").unwrap();
        assert!(meta.chunks.len() > 1, "resharding should split chunks");
        meta.check_invariants().unwrap();
        assert_eq!(r.collection_len("dn"), 400);
        // Targeted routing now works on the new key.
        assert!(r.explain_targeting("dn", &Filter::eq("k", 7i64)).is_targeted());
        assert_eq!(r.find("dn", &Filter::eq("k", 7i64)).len(), 1);
    }

    #[test]
    fn reshard_keeps_every_secondary_index_on_every_shard() {
        let shards: Vec<Arc<Shard>> = (0..3).map(|i| Arc::new(Shard::new(i, "t"))).collect();
        let r = Mongos::new(shards, Arc::new(ConfigServer::new()), NetworkModel::free());
        for i in 0..400i64 {
            r.insert_one("dn", doc! {"k" => i, "e" => doc! {"y" => i % 7}}).unwrap();
        }
        let secondary = [IndexDef::single("e.y"), IndexDef::compound(["e.y", "k"])];
        for def in &secondary {
            r.create_index("dn", def.clone()).unwrap();
        }
        r.reshard_collection("dn", ShardKey::range(["k"]), 4 * 1024).unwrap();
        for shard in r.shards() {
            let defs = shard.db().get_collection("dn").unwrap().index_defs();
            for def in secondary.iter().chain([&ShardKey::range(["k"]).index_def()]) {
                assert!(defs.contains(def), "{}: {def:?} missing from {defs:?}", shard.name());
            }
        }
    }
}
