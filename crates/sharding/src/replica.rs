//! Replica sets: "a feature of MongoDB that ensures redundancy by
//! storing the same data on multiple servers" (thesis Section 2.1.3.1 —
//! a shard may be "either a single mongod instance or a replica set";
//! Fig 2.5's production cluster replicates every shard).
//!
//! This implementation keeps the thesis-relevant semantics: synchronous
//! statement replication from primary to healthy secondaries under a
//! write concern, read preferences, primary failover by election of the
//! lowest-id healthy member, and resynchronization of recovered members.
//!
//! Two divergence hazards of naive statement replication are handled
//! explicitly:
//!
//! * **Upserts** materialize the document once on the primary and
//!   replicate it *by value*, so every member stores the same `_id`
//!   (re-running the upsert statement per member would mint a fresh
//!   `_id` on each).
//! * **Partial replication**: a secondary whose apply fails mid-write is
//!   marked [`MemberState::Stale`] and excluded from traffic until
//!   [`ReplicaSet::recover_member`] resyncs it; the write concern is
//!   then judged against the applies that actually succeeded, never
//!   against pre-checked member health alone.

use doclite_bson::Document;
use doclite_docstore::wal::{apply_record, DurableDb, RecoveryReport, SyncPolicy, Wal, WalOptions};
use doclite_docstore::{
    BulkUpdate, Database, Error, Filter, FindOptions, IndexDef, Result, UpdateResult, UpdateSpec,
};
use parking_lot::RwLock;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Health of one replica-set member.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemberState {
    /// Serving reads/writes.
    Up,
    /// Unreachable (network fault); its process — and therefore its
    /// in-memory data — is intact, and recovery only needs a resync of
    /// the writes it missed.
    Down,
    /// A replicated apply failed on this member after the primary had
    /// already committed: its copy may silently trail the primary, so it
    /// receives no traffic until [`ReplicaSet::recover_member`] resyncs
    /// it from the primary.
    Stale,
    /// The member's *process* died: its in-memory data is gone. A
    /// durable member restarts from checkpoint + WAL
    /// ([`ReplicaSet::restart_member`]); a non-durable one restarts
    /// empty and relies entirely on resync from a surviving primary.
    Crashed,
}

/// Per-member durability bookkeeping: where the WAL/checkpoint live and
/// the live handle (dropped while the member is crashed).
struct MemberDurability {
    dir: PathBuf,
    sync: SyncPolicy,
    handle: Option<DurableDb>,
}

/// Where reads are served.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ReadPreference {
    /// From the primary (MongoDB's default; always up to date).
    #[default]
    Primary,
    /// From a healthy secondary if one exists (may trail the primary
    /// while a member resyncs).
    Secondary,
}

/// How many members must acknowledge a write.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum WriteConcern {
    /// Primary only.
    #[default]
    W1,
    /// Strict majority of the configured member count.
    Majority,
    /// Every configured member (fails while any member is down).
    All,
}

impl WriteConcern {
    /// Acknowledgements required out of `total` configured members.
    pub fn required(self, total: usize) -> usize {
        match self {
            WriteConcern::W1 => 1,
            WriteConcern::Majority => total / 2 + 1,
            WriteConcern::All => total,
        }
    }
}

struct Member {
    db: Arc<Database>,
    state: MemberState,
    durable: Option<MemberDurability>,
    /// The highest primary-WAL sequence this member's copy reflects —
    /// its log-shipping resume token. Advanced on every acknowledged
    /// apply and on resync; zeroed by a crash (memory gone).
    synced_to: u64,
}

/// How members were brought back in sync (see
/// [`ReplicaSet::resync_stats`]).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResyncStats {
    /// Catch-ups served incrementally from the primary's log tail.
    pub log_shipped: u64,
    /// Catch-ups that fell back to a full copy (non-durable primary,
    /// token truncated by a checkpoint, or a diverged member whose
    /// frame apply failed).
    pub full_copies: u64,
}

/// A replica set: one primary plus secondaries holding copies of the
/// data.
pub struct ReplicaSet {
    name: String,
    members: RwLock<Vec<Member>>,
    primary: RwLock<usize>,
    log_shipped: AtomicU64,
    full_copies: AtomicU64,
}

// Lock ordering: `members` before `primary`, everywhere. Every method
// below that takes both acquires them in that order, so writers cannot
// deadlock against failover.
impl ReplicaSet {
    /// Creates a set with `n` members (`n ≥ 1`); member 0 starts as
    /// primary.
    pub fn new(name: impl Into<String>, n: usize) -> Self {
        assert!(n >= 1, "replica set needs at least one member");
        let name = name.into();
        let members = (0..n)
            .map(|i| Member {
                db: Arc::new(Database::new(format!("{name}_m{i}"))),
                state: MemberState::Up,
                durable: None,
                synced_to: 0,
            })
            .collect();
        ReplicaSet {
            name,
            members: RwLock::new(members),
            primary: RwLock::new(0),
            log_shipped: AtomicU64::new(0),
            full_copies: AtomicU64::new(0),
        }
    }

    /// Creates a set whose members are durable: each member keeps a WAL
    /// and checkpoints under `<base_dir>/m<i>`, so a crashed member can
    /// restart with every write it acknowledged before dying. Reopening
    /// an existing directory recovers whatever a previous incarnation
    /// persisted.
    pub fn new_durable(
        name: impl Into<String>,
        n: usize,
        base_dir: &Path,
        sync: SyncPolicy,
    ) -> Result<Self> {
        assert!(n >= 1, "replica set needs at least one member");
        let name = name.into();
        let mut members = Vec::with_capacity(n);
        for i in 0..n {
            let dir = base_dir.join(format!("m{i}"));
            let (handle, _) = DurableDb::open(
                format!("{name}_m{i}"),
                &dir,
                WalOptions { sync, faults: None },
            )?;
            members.push(Member {
                db: Arc::clone(handle.db()),
                state: MemberState::Up,
                durable: Some(MemberDurability { dir, sync, handle: Some(handle) }),
                synced_to: 0,
            });
        }
        Ok(ReplicaSet {
            name,
            members: RwLock::new(members),
            primary: RwLock::new(0),
            log_shipped: AtomicU64::new(0),
            full_copies: AtomicU64::new(0),
        })
    }

    /// The set name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Number of configured members.
    pub fn member_count(&self) -> usize {
        self.members.read().len()
    }

    /// Index of the current primary.
    pub fn primary_index(&self) -> usize {
        *self.primary.read()
    }

    /// Health of a member.
    pub fn member_state(&self, index: usize) -> MemberState {
        self.members.read()[index].state
    }

    /// Healthy member count.
    pub fn healthy_members(&self) -> usize {
        self.members
            .read()
            .iter()
            .filter(|m| m.state == MemberState::Up)
            .count()
    }

    /// The current primary's database handle, regardless of its health —
    /// for inspection (balancer bookkeeping, tests, data-size reports),
    /// not for serving traffic.
    pub fn db(&self) -> Arc<Database> {
        let members = self.members.read();
        Arc::clone(&members[*self.primary.read()].db)
    }

    /// A specific member's database handle (inspection/convergence
    /// checks).
    pub fn member_db(&self, index: usize) -> Arc<Database> {
        Arc::clone(&self.members.read()[index].db)
    }

    /// A durable member's live WAL handle (inspection: change streams,
    /// log-shipping tests); `None` while crashed or non-durable.
    pub fn member_wal(&self, index: usize) -> Option<Arc<Wal>> {
        Self::wal_of(&self.members.read()[index]).cloned()
    }

    /// The primary's database for serving traffic; fails when the
    /// primary is down and no election has replaced it.
    pub fn primary_db(&self) -> Result<Arc<Database>> {
        let members = self.members.read();
        let primary = *self.primary.read();
        if members[primary].state != MemberState::Up {
            return Err(Error::Unavailable(format!(
                "replica set {}: no primary available",
                self.name
            )));
        }
        Ok(Arc::clone(&members[primary].db))
    }

    /// The database a read under `pref` is served from: the primary by
    /// default, a healthy secondary under
    /// [`ReadPreference::Secondary`] — and, either way, *any* healthy
    /// member as a fallback, so reads fail over while the set retains at
    /// least one live member.
    pub fn read_db(&self, pref: ReadPreference) -> Result<Arc<Database>> {
        let members = self.members.read();
        let primary = *self.primary.read();
        let pick = |want_secondary: bool| {
            members
                .iter()
                .enumerate()
                .find(|(i, m)| (*i != primary) == want_secondary && m.state == MemberState::Up)
        };
        let chosen = match pref {
            ReadPreference::Primary => pick(false).or_else(|| pick(true)),
            ReadPreference::Secondary => pick(true).or_else(|| pick(false)),
        };
        match chosen {
            Some((_, m)) => Ok(Arc::clone(&m.db)),
            None => Err(Error::Unavailable(format!(
                "replica set {}: no healthy member to read from",
                self.name
            ))),
        }
    }

    /// Runs `primary_op` against the primary, then `secondary_op`
    /// against every healthy secondary (synchronous statement
    /// replication). A secondary whose apply fails is marked
    /// [`MemberState::Stale`] — never silently left behind — and the
    /// write concern is honored against the applies that *succeeded*.
    ///
    /// A statically unsatisfiable concern (fewer healthy members than
    /// acknowledgements required) is rejected before touching the
    /// primary; a concern that becomes unsatisfiable because applies
    /// failed en route returns an error *after* the primary committed,
    /// exactly like a MongoDB write-concern error (the write is not
    /// rolled back).
    fn replicate_with<R>(
        &self,
        concern: WriteConcern,
        primary_op: impl FnOnce(&Database) -> Result<R>,
        secondary_op: impl Fn(&Database, &R) -> Result<()>,
    ) -> Result<R> {
        let mut members = self.members.write();
        let primary = *self.primary.read();
        let total = members.len();
        let needed = concern.required(total);
        let healthy = members
            .iter()
            .filter(|m| m.state == MemberState::Up)
            .count();
        if members[primary].state != MemberState::Up {
            return Err(Error::Unavailable(format!(
                "replica set {}: no primary available",
                self.name
            )));
        }
        if healthy < needed {
            return Err(Error::Unavailable(format!(
                "write concern not satisfiable: {healthy} healthy of {total}, need {needed}"
            )));
        }
        let result = primary_op(&members[primary].db)?;
        // The primary's log position after this write: a secondary that
        // acknowledges it is synced through here, which is the resume
        // token a later log-shipping catch-up starts from.
        let tip = Self::wal_of(&members[primary]).map(|w| w.last_seq());
        let mut acked = 1usize;
        for (i, m) in members.iter_mut().enumerate() {
            if i == primary || m.state != MemberState::Up {
                continue;
            }
            match secondary_op(&m.db, &result) {
                Ok(()) => {
                    acked += 1;
                    if let Some(tip) = tip {
                        m.synced_to = tip;
                    }
                }
                // The member's copy may now trail the primary: take it
                // out of rotation until recovery resyncs it.
                Err(_) => m.state = MemberState::Stale,
            }
        }
        if acked < needed {
            return Err(Error::Unavailable(format!(
                "write concern not satisfied: {acked} of {total} members acknowledged, need \
                 {needed} (failed members marked stale; write committed on primary)"
            )));
        }
        Ok(result)
    }

    /// The sole member of a single-member set, if it is up — the fast
    /// path for the thesis's unreplicated evaluation cluster, where
    /// writes move straight into the store without defensive clones.
    /// (With one member every concern requires exactly one ack, and
    /// there is no secondary to mark stale, so the slow path's
    /// bookkeeping is all vacuous.)
    fn solo_member(&self) -> Option<Result<Arc<Database>>> {
        let members = self.members.read();
        if members.len() != 1 {
            return None;
        }
        Some(if members[0].state == MemberState::Up {
            Ok(Arc::clone(&members[0].db))
        } else {
            Err(Error::Unavailable(format!(
                "replica set {}: no primary available",
                self.name
            )))
        })
    }

    /// Inserts one document under a write concern.
    pub fn insert_one(
        &self,
        collection: &str,
        doc: Document,
        concern: WriteConcern,
    ) -> Result<()> {
        let mut doc = doc;
        if let Some(solo) = self.solo_member() {
            return solo?.collection(collection).insert_one(doc).map(|_| ());
        }
        // ensure_id first so every member stores the same _id.
        doc.ensure_id();
        self.replicate_with(
            concern,
            |db| db.collection(collection).insert_one(doc.clone()).map(|_| ()),
            |db, ()| db.collection(collection).insert_one(doc.clone()).map(|_| ()),
        )
    }

    /// Inserts a batch under a write concern; returns the batch size.
    pub fn insert_many(
        &self,
        collection: &str,
        docs: Vec<Document>,
        concern: WriteConcern,
    ) -> Result<usize> {
        let mut docs = docs;
        let n = docs.len();
        if let Some(solo) = self.solo_member() {
            return solo?
                .collection(collection)
                .insert_many(docs)
                .map(|_| n)
                .map_err(|(_, e)| e);
        }
        for d in &mut docs {
            d.ensure_id();
        }
        self.replicate_with(
            concern,
            |db| {
                db.collection(collection)
                    .insert_many(docs.clone())
                    .map(|_| ())
                    .map_err(|(_, e)| e)
            },
            |db, ()| {
                db.collection(collection)
                    .insert_many(docs.clone())
                    .map(|_| ())
                    .map_err(|(_, e)| e)
            },
        )
        .map(|()| n)
    }

    /// Updates under a write concern.
    ///
    /// Upserts are replicated by value: the primary materializes the new
    /// document (minting its `_id` exactly once), and secondaries insert
    /// that document verbatim instead of re-running the upsert — the one
    /// statement whose re-execution is not deterministic across members.
    pub fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
        concern: WriteConcern,
    ) -> Result<UpdateResult> {
        let (result, _) = self.replicate_with(
            concern,
            |db| {
                let r = db.collection(collection).update(filter, spec, upsert, multi)?;
                // Fetch the upserted document (if any) from the primary
                // so secondaries can store an identical copy.
                let upserted = match &r.upserted_id {
                    Some(id) => db
                        .get_collection(collection)?
                        .find_one(&Filter::eq("_id", id.clone())),
                    None => None,
                };
                Ok((r, upserted))
            },
            |db, (_, upserted)| match upserted {
                Some(doc) => db.collection(collection).insert_one(doc.clone()).map(|_| ()),
                // No upsert happened on the primary, so replicate the
                // statement itself with upsert disabled: a stale
                // secondary must not invent its own document.
                None => db
                    .collection(collection)
                    .update(filter, spec, false, multi)
                    .map(|_| ()),
            },
        )?;
        Ok(result)
    }

    /// Applies an ordered bulk update under a write concern: the primary
    /// runs the batch (one lock, one group commit), then every healthy
    /// secondary runs the same batch — bulk statements never upsert, so
    /// re-execution is deterministic across members.
    pub fn update_batch(
        &self,
        collection: &str,
        ops: &[&BulkUpdate],
        concern: WriteConcern,
    ) -> Result<UpdateResult> {
        self.replicate_with(
            concern,
            |db| db.collection(collection).update_batch(ops.iter().copied()),
            |db, _| db.collection(collection).update_batch(ops.iter().copied()).map(|_| ()),
        )
    }

    /// Deletes under a write concern; returns the primary's count.
    pub fn delete_many(
        &self,
        collection: &str,
        filter: &Filter,
        concern: WriteConcern,
    ) -> Result<usize> {
        self.replicate_with(
            concern,
            // The fallible form surfaces a primary-side WAL append
            // failure (the delete was rolled back) instead of
            // acknowledging a count the log cannot reproduce.
            |db| match db.get_collection(collection) {
                Ok(c) => c.try_delete_many(filter),
                Err(_) => Ok(0),
            },
            |db, _| {
                db.get_collection(collection)
                    .map(|c| c.delete_many(filter))
                    .ok();
                Ok(())
            },
        )
    }

    /// Creates an index on every healthy member (replicated DDL, so
    /// secondaries can serve index-backed reads after failover).
    pub fn create_index(&self, collection: &str, def: IndexDef) -> Result<()> {
        self.replicate_with(
            WriteConcern::W1,
            |db| db.collection(collection).create_index(def.clone()),
            |db, ()| db.collection(collection).create_index(def.clone()),
        )
    }

    /// Drops a collection on every healthy member; true if the primary
    /// had it.
    pub fn drop_collection(&self, collection: &str) -> bool {
        let mut members = self.members.write();
        let primary = *self.primary.read();
        let mut existed = false;
        for (i, m) in members.iter().enumerate() {
            let dropped = m.db.drop_collection(collection);
            if i == primary {
                existed = dropped;
            }
        }
        // Healthy members got the drop; replaying the DropCollection
        // frame onto an unhealthy one later is idempotent, so their
        // tokens are left where they were.
        if let Some(tip) = Self::wal_of(&members[primary]).map(|w| w.last_seq()) {
            for m in members.iter_mut() {
                if m.state == MemberState::Up {
                    m.synced_to = tip;
                }
            }
        }
        existed
    }

    /// Reads under a read preference, failing over to any healthy member
    /// when the preferred one is gone. Returns an empty result when no
    /// member is reachable (use [`ReplicaSet::read_db`] for a fallible
    /// handle).
    pub fn find_with(
        &self,
        collection: &str,
        filter: &Filter,
        opts: &FindOptions,
        pref: ReadPreference,
    ) -> Vec<Document> {
        let Ok(db) = self.read_db(pref) else {
            return Vec::new();
        };
        match db.get_collection(collection) {
            Ok(c) => c.find_with(filter, opts),
            Err(_) => Vec::new(),
        }
    }

    /// Reads with default options.
    pub fn find(&self, collection: &str, filter: &Filter, pref: ReadPreference) -> Vec<Document> {
        self.find_with(collection, filter, &FindOptions::default(), pref)
    }

    /// Marks a member down. If it was the primary, the lowest-index
    /// healthy member is elected (returns the new primary, or `None` if
    /// the set lost quorum entirely).
    pub fn fail_member(&self, index: usize) -> Option<usize> {
        let mut members = self.members.write();
        members[index].state = MemberState::Down;
        let mut primary = self.primary.write();
        if *primary == index {
            let next = members
                .iter()
                .position(|m| m.state == MemberState::Up)?;
            *primary = next;
        }
        Some(*primary)
    }

    /// Brings a member back up, resynchronizing its data from the
    /// current primary (initial-sync semantics: its state is replaced by
    /// a copy of the primary's, index definitions included). The
    /// member's database handle stays the same `Arc`, so held references
    /// observe the resynced state. A [`MemberState::Crashed`] member is
    /// routed through [`ReplicaSet::restart_member`] instead — its
    /// in-memory data is gone and must come back from disk first.
    pub fn recover_member(&self, index: usize) {
        if self.member_state(index) == MemberState::Crashed {
            let _ = self.restart_member(index);
            return;
        }
        let mut members = self.members.write();
        let mut primary = self.primary.write();
        if index == *primary {
            members[index].state = MemberState::Up;
            return;
        }
        if members[*primary].state == MemberState::Crashed {
            // The configured primary is a crashed placeholder: the
            // recovering member's intact memory is strictly newer than
            // an empty shell, so elect it instead of resyncing from
            // (i.e. being wiped by) the placeholder.
            members[index].state = MemberState::Up;
            *primary = index;
            return;
        }
        if Self::ship_log(&mut members, *primary, index) {
            self.log_shipped.fetch_add(1, Ordering::Relaxed);
        } else {
            Self::resync_from(&mut members, *primary, index);
            self.full_copies.fetch_add(1, Ordering::Relaxed);
        }
        members[index].state = MemberState::Up;
    }

    /// The primary-side WAL of a member, when it is durable and alive.
    fn wal_of(member: &Member) -> Option<&Arc<Wal>> {
        member
            .durable
            .as_ref()
            .and_then(|d| d.handle.as_ref())
            .map(|h| h.wal())
    }

    /// Tries to catch `index` up by replaying the primary's log tail
    /// above the member's resume token instead of copying everything.
    /// Returns `false` — leaving the member for a full resync — when
    /// the primary keeps no log, a checkpoint truncated the needed
    /// range, or a frame fails to apply (a diverged copy: e.g. replaying
    /// an insert the member half-applied before going stale trips its
    /// unique `_id` check).
    fn ship_log(members: &mut [Member], primary: usize, index: usize) -> bool {
        let Some(wal) = Self::wal_of(&members[primary]).cloned() else {
            return false;
        };
        let Ok(frames) = wal.frames_since(members[index].synced_to) else {
            return false;
        };
        let target = Arc::clone(&members[index].db);
        let mut token = members[index].synced_to;
        for frame in &frames {
            // Re-logging into the member's own WAL is intended: the
            // shipped writes must survive the member's next crash too.
            if apply_record(&target, &frame.record).is_err() {
                return false;
            }
            token = frame.seq;
        }
        members[index].synced_to = token;
        true
    }

    /// Rebuilds `index`'s data in place from `primary`'s copy. When the
    /// target is durable (WAL attached), the drops and inserts are
    /// logged like any other writes, so the resynced state is itself
    /// crash-safe.
    fn resync_from(members: &mut [Member], primary: usize, index: usize) {
        let target = Arc::clone(&members[index].db);
        for name in target.collection_names() {
            target.drop_collection(&name);
        }
        for name in members[primary].db.collection_names() {
            let Ok(src) = members[primary].db.get_collection(&name) else { continue };
            let dst = target.collection(&name);
            for def in src.index_defs() {
                dst.create_index(def).ok();
            }
            dst.insert_many(src.all_docs()).ok();
        }
        // The copy reflects the primary as of now (the members lock
        // blocks concurrent writes), so the token moves to its tip.
        members[index].synced_to =
            Self::wal_of(&members[primary]).map_or(0, |w| w.last_seq());
    }

    /// How recoveries were served so far: incrementally from the log
    /// tail vs. by full copy.
    pub fn resync_stats(&self) -> ResyncStats {
        ResyncStats {
            log_shipped: self.log_shipped.load(Ordering::Relaxed),
            full_copies: self.full_copies.load(Ordering::Relaxed),
        }
    }

    /// Kills a member's *process*: its in-memory database is replaced by
    /// an empty placeholder (memory does not survive a crash) and its
    /// durability handle is dropped, releasing the WAL file. Only bytes
    /// the WAL already wrote to disk survive. If the member was primary,
    /// the lowest-index healthy member is elected (returns the new
    /// primary, or `None` if none is left).
    pub fn crash_member(&self, index: usize) -> Option<usize> {
        let mut members = self.members.write();
        {
            let m = &mut members[index];
            m.state = MemberState::Crashed;
            m.db = Arc::new(Database::new(format!("{}_m{index}_crashed", self.name)));
            // The in-memory copy the token described is gone; what disk
            // preserved is judged afresh by restart_member.
            m.synced_to = 0;
            if let Some(d) = &mut m.durable {
                d.handle = None;
            }
        }
        let mut primary = self.primary.write();
        if *primary == index {
            let next = members
                .iter()
                .position(|m| m.state == MemberState::Up)?;
            *primary = next;
        }
        Some(*primary)
    }

    /// Restarts a crashed member. A durable member first recovers from
    /// its checkpoint + WAL (the state as of its last acknowledged
    /// write); a non-durable member comes back empty. Then:
    ///
    /// * if a healthy primary exists, the member resyncs from it (the
    ///   authoritative copy may have moved on while the member was dead)
    ///   and checkpoints, compacting the resync into a fresh baseline;
    /// * if no member is healthy but the configured primary is merely
    ///   [`MemberState::Down`]/[`MemberState::Stale`] — its memory
    ///   intact and at least as new as our disk state — the restarted
    ///   member waits as `Stale` rather than usurping it, and resyncs
    ///   once that primary is back;
    /// * otherwise (the configured primary itself crashed) the
    ///   restarted member *becomes* primary, serving whatever its own
    ///   durability layer preserved — the total-cluster-restart path,
    ///   and exactly where WAL durability pays off. With per-member
    ///   logs there is no cross-member opTime to compare, so the first
    ///   member restarted wins the election; use `w:all` when a
    ///   workload must survive arbitrary-order total restarts (opTime
    ///   terms are future work).
    pub fn restart_member(&self, index: usize) -> Result<RecoveryReport> {
        let mut members = self.members.write();
        let mut report = RecoveryReport::default();
        if let Some(dur) = &members[index].durable {
            let (handle, rep) = DurableDb::open(
                format!("{}_m{index}", self.name),
                &dur.dir,
                WalOptions { sync: dur.sync, faults: None },
            )?;
            report = rep;
            let m = &mut members[index];
            m.db = Arc::clone(handle.db());
            m.durable.as_mut().expect("checked above").handle = Some(handle);
        }
        let mut primary = self.primary.write();
        let healthy_primary =
            *primary != index && members[*primary].state == MemberState::Up;
        if healthy_primary {
            Self::resync_from(&mut members, *primary, index);
            members[index].state = MemberState::Up;
            if let Some(handle) = members[index]
                .durable
                .as_ref()
                .and_then(|d| d.handle.as_ref())
            {
                handle.checkpoint()?;
            }
        } else if *primary != index
            && matches!(
                members[*primary].state,
                MemberState::Down | MemberState::Stale
            )
        {
            // The configured primary is unreachable but its memory is
            // intact — it holds at least every write our disk does, and
            // possibly later ones. Wait for it as a stale secondary
            // rather than usurping it with an older disk image;
            // `recover_member` resyncs us once a primary is healthy.
            members[index].state = MemberState::Stale;
        } else {
            members[index].state = MemberState::Up;
            *primary = index;
        }
        Ok(report)
    }

    /// Quiesced log compaction on every live durable member (test/ops
    /// hook; a no-op for non-durable members).
    pub fn checkpoint_all(&self) -> Result<()> {
        let members = self.members.write();
        for m in members.iter() {
            if m.state != MemberState::Up {
                continue;
            }
            if let Some(handle) = m.durable.as_ref().and_then(|d| d.handle.as_ref()) {
                handle.checkpoint()?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;

    fn seeded(n: usize) -> ReplicaSet {
        let rs = ReplicaSet::new("rs0", n);
        for i in 0..10i64 {
            rs.insert_one("c", doc! {"k" => i}, WriteConcern::All).unwrap();
        }
        rs
    }

    #[test]
    fn writes_replicate_to_all_members() {
        let rs = seeded(3);
        for i in 0..3 {
            assert_eq!(rs.member_db(i).get_collection("c").unwrap().len(), 10);
        }
    }

    #[test]
    fn replicated_docs_share_ids() {
        let rs = seeded(2);
        let a = rs.find("c", &Filter::eq("k", 3i64), ReadPreference::Primary);
        let b = rs.find("c", &Filter::eq("k", 3i64), ReadPreference::Secondary);
        assert_eq!(a, b);
        assert_eq!(a[0].id(), b[0].id());
    }

    #[test]
    fn secondary_reads_serve_from_secondary() {
        let rs = seeded(3);
        assert_eq!(
            rs.find("c", &Filter::True, ReadPreference::Secondary).len(),
            10
        );
    }

    #[test]
    fn secondary_reads_fall_back_to_primary_when_alone() {
        let rs = seeded(3);
        rs.fail_member(1);
        rs.fail_member(2);
        assert_eq!(
            rs.find("c", &Filter::True, ReadPreference::Secondary).len(),
            10
        );
    }

    #[test]
    fn failover_elects_new_primary_and_keeps_data() {
        let rs = seeded(3);
        assert_eq!(rs.primary_index(), 0);
        let new_primary = rs.fail_member(0).unwrap();
        assert_eq!(new_primary, 1);
        // Reads and writes continue.
        assert_eq!(rs.find("c", &Filter::True, ReadPreference::Primary).len(), 10);
        rs.insert_one("c", doc! {"k" => 99i64}, WriteConcern::Majority).unwrap();
        assert_eq!(rs.find("c", &Filter::eq("k", 99i64), ReadPreference::Primary).len(), 1);
    }

    #[test]
    fn write_concern_all_fails_with_a_member_down() {
        let rs = seeded(3);
        rs.fail_member(2);
        let err = rs.insert_one("c", doc! {"k" => 100i64}, WriteConcern::All);
        assert!(err.is_err());
        // Majority still succeeds (2 of 3).
        rs.insert_one("c", doc! {"k" => 100i64}, WriteConcern::Majority).unwrap();
    }

    #[test]
    fn majority_fails_when_quorum_lost() {
        let rs = seeded(3);
        rs.fail_member(1);
        rs.fail_member(2);
        assert!(rs
            .insert_one("c", doc! {"k" => 1i64}, WriteConcern::Majority)
            .is_err());
        // W1 still works on the surviving primary.
        rs.insert_one("c", doc! {"k" => 1i64}, WriteConcern::W1).unwrap();
    }

    #[test]
    fn recovered_member_resyncs_missed_writes() {
        let rs = seeded(3);
        rs.fail_member(2);
        for i in 100..110i64 {
            rs.insert_one("c", doc! {"k" => i}, WriteConcern::Majority).unwrap();
        }
        rs.recover_member(2);
        assert_eq!(rs.healthy_members(), 3);
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), 20);
    }

    #[test]
    fn recovery_resync_copies_index_definitions() {
        let rs = seeded(3);
        rs.create_index("c", IndexDef::single("k")).unwrap();
        rs.fail_member(2);
        rs.insert_one("c", doc! {"k" => 500i64}, WriteConcern::Majority).unwrap();
        rs.recover_member(2);
        let defs = rs.member_db(2).get_collection("c").unwrap().index_defs();
        assert!(defs.iter().any(|d| d.name == "k_1"), "{defs:?}");
    }

    #[test]
    fn upserted_id_is_identical_on_every_member() {
        let rs = ReplicaSet::new("rs0", 3);
        let r = rs
            .update(
                "c",
                &Filter::eq("k", 7i64),
                &UpdateSpec::set("v", 1i64),
                true,
                false,
                WriteConcern::All,
            )
            .unwrap();
        let id = r.upserted_id.expect("upserted");
        for i in 0..3 {
            let docs = rs
                .member_db(i)
                .get_collection("c")
                .unwrap()
                .find(&Filter::eq("k", 7i64));
            assert_eq!(docs.len(), 1, "member {i}");
            assert_eq!(docs[0].id(), Some(&id), "member {i} minted its own _id");
        }
    }

    #[test]
    fn failed_secondary_apply_marks_member_stale_and_concern_counts_acks() {
        let rs = ReplicaSet::new("rs0", 3);
        rs.insert_one("c", doc! {"_id" => 1i64, "k" => 1i64}, WriteConcern::All)
            .unwrap();
        // Sabotage member 2: give it a conflicting doc so the next
        // replicated insert fails there (duplicate _id).
        rs.member_db(2)
            .collection("c")
            .insert_one(doc! {"_id" => 2i64, "rogue" => true})
            .unwrap();
        // W1 succeeds (primary committed) but member 2 must be stale.
        rs.insert_one("c", doc! {"_id" => 2i64, "k" => 2i64}, WriteConcern::W1)
            .unwrap();
        assert_eq!(rs.member_state(2), MemberState::Stale);
        assert_eq!(rs.healthy_members(), 2);
        // An All write is now rejected up front (stale member can't ack).
        assert!(rs
            .insert_one("c", doc! {"_id" => 3i64}, WriteConcern::All)
            .is_err());
        // Recovery resyncs the stale copy; divergence is repaired.
        rs.recover_member(2);
        assert_eq!(rs.member_state(2), MemberState::Up);
        let primary_docs = rs.member_db(0).get_collection("c").unwrap().len();
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), primary_docs);
        assert_eq!(
            rs.member_db(2)
                .get_collection("c")
                .unwrap()
                .find(&Filter::eq("rogue", true))
                .len(),
            0
        );
    }

    #[test]
    fn concern_failure_after_primary_commit_reports_error_without_rollback() {
        let rs = ReplicaSet::new("rs0", 2);
        rs.member_db(1)
            .collection("c")
            .insert_one(doc! {"_id" => 9i64})
            .unwrap();
        // Both members look healthy, so the pre-check passes; the
        // secondary apply then fails, so w:all cannot be satisfied.
        let err = rs.insert_one("c", doc! {"_id" => 9i64, "k" => 9i64}, WriteConcern::All);
        assert!(err.is_err());
        // MongoDB semantics: the primary keeps the write.
        assert_eq!(rs.member_db(0).get_collection("c").unwrap().len(), 1);
        assert_eq!(rs.member_state(1), MemberState::Stale);
    }

    #[test]
    fn total_failure_leaves_no_primary() {
        let rs = seeded(2);
        rs.fail_member(1);
        assert_eq!(rs.fail_member(0), None);
        assert!(rs.insert_one("c", doc! {"k" => 1i64}, WriteConcern::W1).is_err());
    }

    #[test]
    #[should_panic(expected = "at least one member")]
    fn empty_set_panics() {
        let _ = ReplicaSet::new("rs0", 0);
    }

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("doclite-rs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crashed_durable_member_restarts_with_its_acked_writes() {
        let dir = tmp("durable");
        let rs = ReplicaSet::new_durable("rs0", 3, &dir, SyncPolicy::Always).unwrap();
        for i in 0..10i64 {
            rs.insert_one("c", doc! {"k" => i}, WriteConcern::All).unwrap();
        }
        rs.crash_member(2);
        assert_eq!(rs.member_state(2), MemberState::Crashed);
        // Memory is gone while crashed.
        assert!(rs.member_db(2).get_collection("c").is_err());
        // Writes continue on the survivors.
        rs.insert_one("c", doc! {"k" => 100i64}, WriteConcern::Majority).unwrap();
        let report = rs.restart_member(2).unwrap();
        assert!(report.frames_replayed > 0 || report.checkpoint_docs > 0);
        // Resynced from the primary: the missed write is present too.
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), 11);
        assert_eq!(rs.member_state(2), MemberState::Up);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crashed_primary_triggers_election_and_restart_resyncs() {
        let dir = tmp("primary-crash");
        let rs = ReplicaSet::new_durable("rs0", 3, &dir, SyncPolicy::Always).unwrap();
        for i in 0..5i64 {
            rs.insert_one("c", doc! {"k" => i}, WriteConcern::Majority).unwrap();
        }
        let new_primary = rs.crash_member(0).unwrap();
        assert_eq!(new_primary, 1);
        rs.insert_one("c", doc! {"k" => 99i64}, WriteConcern::Majority).unwrap();
        rs.restart_member(0).unwrap();
        assert_eq!(rs.member_db(0).get_collection("c").unwrap().len(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn total_crash_restart_preserves_every_all_acked_write() {
        // Every member crashes: only the durability layer can bring the
        // data back. Writes acked at w:all are on every member's WAL,
        // so whichever restarts first serves them all.
        let dir = tmp("total-crash");
        let rs = ReplicaSet::new_durable("rs0", 3, &dir, SyncPolicy::Always).unwrap();
        for i in 0..20i64 {
            rs.insert_one("c", doc! {"_id" => i}, WriteConcern::All).unwrap();
        }
        rs.crash_member(2);
        rs.crash_member(1);
        assert_eq!(rs.crash_member(0), None, "no healthy member left");
        assert!(rs.insert_one("c", doc! {"_id" => 99i64}, WriteConcern::W1).is_err());

        let report = rs.restart_member(1).unwrap();
        assert_eq!(report.frames_replayed, 20);
        assert_eq!(rs.primary_index(), 1, "restarted member becomes primary");
        rs.restart_member(0).unwrap();
        rs.restart_member(2).unwrap();
        for i in 0..3 {
            assert_eq!(
                rs.member_db(i).get_collection("c").unwrap().len(),
                20,
                "member {i}"
            );
        }
        rs.insert_one("c", doc! {"_id" => 100i64}, WriteConcern::All).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_durable_crash_restart_resyncs_from_surviving_primary() {
        let rs = seeded(3);
        rs.crash_member(2);
        rs.insert_one("c", doc! {"k" => 77i64}, WriteConcern::Majority).unwrap();
        rs.restart_member(2).unwrap();
        // Nothing on disk, but the primary survived: full resync.
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), 11);
    }

    #[test]
    fn recovered_durable_member_catches_up_by_log_shipping() {
        let dir = tmp("logship");
        let rs = ReplicaSet::new_durable("rs0", 3, &dir, SyncPolicy::Never).unwrap();
        for i in 0..10i64 {
            rs.insert_one("c", doc! {"_id" => i}, WriteConcern::All).unwrap();
        }
        rs.fail_member(2);
        for i in 10..25i64 {
            rs.insert_one("c", doc! {"_id" => i}, WriteConcern::Majority).unwrap();
        }
        rs.update(
            "c",
            &Filter::eq("_id", 3i64),
            &UpdateSpec::set("v", 1i64),
            false,
            false,
            WriteConcern::Majority,
        )
        .unwrap();
        rs.delete_many("c", &Filter::eq("_id", 7i64), WriteConcern::Majority).unwrap();

        rs.recover_member(2);
        let stats = rs.resync_stats();
        assert_eq!(stats, ResyncStats { log_shipped: 1, full_copies: 0 });
        let member = rs.member_db(2).get_collection("c").unwrap();
        assert_eq!(member.len(), 24);
        assert_eq!(
            member.find_one(&Filter::eq("_id", 3i64)).unwrap().get("v"),
            Some(&doclite_bson::Value::Int64(1))
        );
        assert!(member.find_one(&Filter::eq("_id", 7i64)).is_none());
        // The shipped writes are on the member's own log: survive a
        // crash without a surviving primary.
        rs.crash_member(2);
        rs.crash_member(1);
        rs.crash_member(0);
        rs.restart_member(2).unwrap();
        assert_eq!(rs.primary_index(), 2);
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), 24);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncation_forces_full_copy_fallback() {
        let dir = tmp("logship-trunc");
        let rs = ReplicaSet::new_durable("rs0", 3, &dir, SyncPolicy::Never).unwrap();
        rs.insert_one("c", doc! {"_id" => 0i64}, WriteConcern::All).unwrap();
        rs.fail_member(2);
        // Shrink the primary's in-memory log tail so the checkpoint's
        // truncation really strands the member's token.
        rs.member_wal(rs.primary_index()).unwrap().set_change_capacity(1);
        for i in 1..10i64 {
            rs.insert_one("c", doc! {"_id" => i}, WriteConcern::Majority).unwrap();
        }
        rs.checkpoint_all().unwrap();
        rs.recover_member(2);
        let stats = rs.resync_stats();
        assert_eq!(stats, ResyncStats { log_shipped: 0, full_copies: 1 });
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), 10);
        // Having resynced, the next catch-up ships the log again.
        rs.fail_member(2);
        rs.insert_one("c", doc! {"_id" => 100i64}, WriteConcern::Majority).unwrap();
        rs.recover_member(2);
        assert_eq!(
            rs.resync_stats(),
            ResyncStats { log_shipped: 1, full_copies: 1 }
        );
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn diverged_member_falls_back_to_full_copy() {
        let dir = tmp("logship-diverge");
        let rs = ReplicaSet::new_durable("rs0", 3, &dir, SyncPolicy::Never).unwrap();
        rs.insert_one("c", doc! {"_id" => 1i64}, WriteConcern::All).unwrap();
        // Sabotage member 2 with a conflicting doc, then stale it.
        rs.member_db(2)
            .collection("c")
            .insert_one(doc! {"_id" => 2i64, "rogue" => true})
            .unwrap();
        rs.insert_one("c", doc! {"_id" => 2i64, "k" => 2i64}, WriteConcern::W1).unwrap();
        assert_eq!(rs.member_state(2), MemberState::Stale);
        // Replaying the insert of _id 2 onto the diverged copy fails its
        // unique-_id check; the recovery must detect that and copy.
        rs.recover_member(2);
        assert_eq!(
            rs.resync_stats(),
            ResyncStats { log_shipped: 0, full_copies: 1 }
        );
        let member = rs.member_db(2).get_collection("c").unwrap();
        assert_eq!(member.len(), 2);
        assert!(member.find(&Filter::eq("rogue", true)).is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn non_durable_recovery_counts_as_full_copy() {
        let rs = seeded(3);
        rs.fail_member(2);
        rs.insert_one("c", doc! {"k" => 50i64}, WriteConcern::Majority).unwrap();
        rs.recover_member(2);
        assert_eq!(
            rs.resync_stats(),
            ResyncStats { log_shipped: 0, full_copies: 1 }
        );
        assert_eq!(rs.member_db(2).get_collection("c").unwrap().len(), 11);
    }

    #[test]
    fn reopening_a_durable_set_directory_recovers_state() {
        let dir = tmp("reopen");
        {
            let rs = ReplicaSet::new_durable("rs0", 2, &dir, SyncPolicy::Always).unwrap();
            for i in 0..7i64 {
                rs.insert_one("c", doc! {"_id" => i}, WriteConcern::All).unwrap();
            }
            rs.checkpoint_all().unwrap();
            rs.insert_one("c", doc! {"_id" => 7i64}, WriteConcern::All).unwrap();
        }
        let rs = ReplicaSet::new_durable("rs0", 2, &dir, SyncPolicy::Always).unwrap();
        for i in 0..2 {
            assert_eq!(rs.member_db(i).get_collection("c").unwrap().len(), 8, "member {i}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
