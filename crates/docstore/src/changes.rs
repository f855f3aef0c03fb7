//! Change streams over the WAL.
//!
//! The WAL (PR 3) already totally orders every acknowledged write; this
//! module exposes that order as a subscription surface. A
//! [`ChangeCursor`] delivers committed frames — inserts, updates,
//! deletes, index operations, collection drops, and [`WalRecord::Noop`]
//! heartbeats — in sequence order, scoped to one collection or the
//! whole database.
//!
//! ## Resume tokens
//!
//! The resume token *is* the WAL sequence number of the last event the
//! caller processed. A cursor opened with token `t` replays every
//! committed frame with `seq > t`, then follows live writes. Frames are
//! served from two places: the in-memory [`ChangeHub`] ring buffer
//! (the newest frames as the bytes the log holds, decoded when read;
//! survives log truncation) and the log file itself (everything since
//! the last checkpoint truncation). When a checkpoint
//! has truncated past `t` *and* the ring has evicted the gap, the
//! cursor reports [`Error::TruncatedToken`] so the caller can fall back
//! to a full re-read — exactly the contract replica log shipping and
//! view rebuilds use.
//!
//! ## What is never emitted
//!
//! Rolled-back writes. Frames are published to the hub only after the
//! whole WAL batch committed; a failed append rewinds the file and
//! publishes nothing, so "memory == log == stream".

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use crate::error::Result;
use crate::wal::{Frame, Wal, WalRecord};
use std::sync::Arc;

/// What a cursor subscribes to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChangeScope {
    /// Every collection in the database.
    Database,
    /// One collection. Stream-control frames (`Noop` heartbeats,
    /// `Seal`) are still delivered: they advance the resume token and
    /// prove liveness without carrying data.
    Collection(String),
}

impl ChangeScope {
    fn admits(&self, record: &WalRecord) -> bool {
        match (self, record.coll()) {
            (ChangeScope::Database, _) => true,
            (ChangeScope::Collection(_), None) => true,
            (ChangeScope::Collection(want), Some(coll)) => want == coll,
        }
    }
}

/// One delivered change: the WAL frame, verbatim. `seq` is the resume
/// token for "everything after this event"; `record` carries the full
/// post-image payload (updates are logged by value), enough to apply
/// downstream without consulting the source.
pub type ChangeEvent = Frame;

/// The in-memory tail of committed frames, owned by the [`Wal`]: a ring
/// of encoded frame bodies — the bytes the log file holds, which a
/// reader decodes with the function the recovery scan uses — so a commit
/// copies bytes into it and never a document. Publishing happens under
/// the WAL's append lock, so the buffer order is the sequence order;
/// eviction is FIFO once `capacity` is reached, which bounds the ring at
/// `capacity` frames × their body bytes.
pub(crate) struct ChangeHub {
    state: Mutex<HubState>,
    cv: Condvar,
}

struct HubState {
    buf: VecDeque<(u64, Arc<[u8]>)>,
    capacity: usize,
    /// Sequence number of the most recently published frame (0 before
    /// the first publish in this process).
    last_pub: u64,
}

impl ChangeHub {
    pub(crate) fn new(capacity: usize) -> ChangeHub {
        ChangeHub {
            state: Mutex::new(HubState {
                buf: VecDeque::new(),
                capacity: capacity.max(1),
                last_pub: 0,
            }),
            cv: Condvar::new(),
        }
    }

    pub(crate) fn set_capacity(&self, capacity: usize) {
        let mut st = self.state.lock().expect("change hub poisoned");
        st.capacity = capacity.max(1);
        while st.buf.len() > st.capacity {
            st.buf.pop_front();
        }
    }

    /// Appends the `count` frames of one commit, given as `(seq, body)`
    /// in order, and wakes blocked cursors. Only the newest `capacity`
    /// of them are copied (and then push out everything older): the rest
    /// would be evicted before anyone could read them.
    pub(crate) fn publish<'a>(&self, count: usize, frames: impl Iterator<Item = (u64, &'a [u8])>) {
        let mut st = self.state.lock().expect("change hub poisoned");
        let skipped = count.saturating_sub(st.capacity);
        for (at, (seq, body)) in frames.enumerate() {
            st.last_pub = seq;
            if at < skipped {
                continue;
            }
            if st.buf.len() >= st.capacity {
                st.buf.pop_front();
            }
            st.buf.push_back((seq, Arc::from(body)));
        }
        drop(st);
        self.cv.notify_all();
    }

    /// The encoded bodies of all buffered frames with `seq > token`, or
    /// `None` when the ring has already evicted part of that range (the
    /// caller then falls back to the log file).
    pub(crate) fn buffered_after(&self, token: u64) -> Option<Vec<(u64, Arc<[u8]>)>> {
        let st = self.state.lock().expect("change hub poisoned");
        let first = st.buf.front()?.0;
        if token + 1 < first {
            return None;
        }
        Some(st.buf.iter().filter(|(seq, _)| *seq > token).cloned().collect())
    }

    /// Sequence number of the oldest buffered frame, if any.
    pub(crate) fn oldest_buffered(&self) -> Option<u64> {
        self.state.lock().expect("change hub poisoned").buf.front().map(|(seq, _)| *seq)
    }

    /// Blocks until a frame with `seq > token` has been published or
    /// the timeout elapses; returns whether one was.
    fn wait_past(&self, token: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock().expect("change hub poisoned");
        while st.last_pub <= token {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return false;
            }
            let (next, _) = self.cv.wait_timeout(st, left).expect("change hub poisoned");
            st = next;
        }
        true
    }
}

/// A resumable change-stream cursor. Not `Sync` by design: one reader
/// owns the position; clone-free fan-out is the hub's job.
pub struct ChangeCursor {
    wal: Arc<Wal>,
    scope: ChangeScope,
    /// Sequence of the last frame *consumed* (delivered or filtered by
    /// scope) — the resume token.
    pos: u64,
    pending: VecDeque<Frame>,
}

impl std::fmt::Debug for ChangeCursor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChangeCursor")
            .field("scope", &self.scope)
            .field("pos", &self.pos)
            .field("pending", &self.pending.len())
            .finish_non_exhaustive()
    }
}

/// Opens a cursor on `wal`. With `resume_after: None` the stream starts
/// at the current tip (only future events). With `Some(token)` it first
/// replays every committed frame above the token — or fails with
/// [`Error::TruncatedToken`] when a checkpoint truncated that range, in
/// which case the caller must re-read the source in full and resume
/// from the tip it observed.
pub fn watch(
    wal: &Arc<Wal>,
    scope: ChangeScope,
    resume_after: Option<u64>,
) -> Result<ChangeCursor> {
    let pos = resume_after.unwrap_or_else(|| wal.last_seq());
    let pending = VecDeque::from(wal.frames_since(pos)?);
    Ok(ChangeCursor { wal: Arc::clone(wal), scope, pos, pending })
}

impl ChangeCursor {
    /// The token to pass to [`watch`] to continue exactly after the
    /// last event this cursor delivered.
    pub fn resume_token(&self) -> u64 {
        self.pos
    }

    /// The cursor's scope.
    pub fn scope(&self) -> &ChangeScope {
        &self.scope
    }

    /// The next event, without blocking: `Ok(None)` when the cursor is
    /// at the tip. Fails with [`Error::TruncatedToken`] when the cursor
    /// fell so far behind that both the hub ring and the log file
    /// dropped the frames it still needed.
    pub fn try_next(&mut self) -> Result<Option<ChangeEvent>> {
        loop {
            if self.pending.is_empty() {
                self.pending = VecDeque::from(self.wal.frames_since(self.pos)?);
                if self.pending.is_empty() {
                    return Ok(None);
                }
            }
            while let Some(frame) = self.pending.pop_front() {
                self.pos = frame.seq;
                if self.scope.admits(&frame.record) {
                    return Ok(Some(frame));
                }
            }
        }
    }

    /// The next event, blocking up to `timeout` for one to be
    /// committed. `Ok(None)` means the timeout elapsed with the cursor
    /// still at the tip.
    pub fn next_timeout(&mut self, timeout: Duration) -> Result<Option<ChangeEvent>> {
        let deadline = Instant::now() + timeout;
        loop {
            if let Some(ev) = self.try_next()? {
                return Ok(Some(ev));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() || !self.wal.change_hub().wait_past(self.pos, left) {
                return Ok(None);
            }
        }
    }

    /// Drains every event currently committed, returning them in order.
    pub fn drain(&mut self) -> Result<Vec<ChangeEvent>> {
        let mut out = Vec::new();
        while let Some(ev) = self.try_next()? {
            out.push(ev);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::Error;
    use crate::wal::{DurableDb, SyncPolicy, WalOptions};
    use doclite_bson::doc;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "doclite-changes-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn opts() -> WalOptions {
        WalOptions { sync: SyncPolicy::Never, faults: None }
    }

    #[test]
    fn cursor_sees_inserts_updates_deletes_and_drops_in_order() {
        let dir = tmpdir("order");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let mut cur = watch(ddb.wal(), ChangeScope::Database, None).unwrap();

        let sales = ddb.db().collection("sales");
        sales.insert_one(doc! {"_id" => 1i64, "x" => 1i64}).unwrap();
        sales.insert_one(doc! {"_id" => 2i64, "x" => 2i64}).unwrap();
        sales
            .update(
                &crate::query::Filter::eq("_id", 1i64),
                &crate::update::UpdateSpec::set("x", 9i64),
                false,
                false,
            )
            .unwrap();
        sales.delete_many(&crate::query::Filter::eq("_id", 2i64));
        ddb.db().drop_collection("sales");

        let evs = cur.drain().unwrap();
        let kinds: Vec<&str> = evs
            .iter()
            .map(|e| match &e.record {
                WalRecord::Insert { .. } => "insert",
                WalRecord::Update { .. } => "update",
                WalRecord::Delete { .. } => "delete",
                WalRecord::DropCollection { .. } => "drop",
                _ => "other",
            })
            .collect();
        assert_eq!(kinds, ["insert", "insert", "update", "delete", "drop"]);
        assert!(evs.windows(2).all(|w| w[0].seq < w[1].seq), "events in seq order");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn collection_scope_filters_but_still_advances_the_token() {
        let dir = tmpdir("scope");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let mut cur =
            watch(ddb.wal(), ChangeScope::Collection("a".into()), None).unwrap();
        ddb.db().collection("a").insert_one(doc! {"_id" => 1i64}).unwrap();
        ddb.db().collection("b").insert_one(doc! {"_id" => 1i64}).unwrap();
        ddb.db().collection("a").insert_one(doc! {"_id" => 2i64}).unwrap();

        let evs = cur.drain().unwrap();
        assert_eq!(evs.len(), 2);
        assert!(evs.iter().all(|e| e.record.coll() == Some("a")));
        // The token covers the filtered-out frame too.
        assert_eq!(cur.resume_token(), ddb.wal().last_seq());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_replays_only_whats_after_the_token() {
        let dir = tmpdir("resume");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("c");
        for i in 0..5i64 {
            c.insert_one(doc! {"_id" => i}).unwrap();
        }
        let mut cur = watch(ddb.wal(), ChangeScope::Database, Some(0)).unwrap();
        let first_two: Vec<_> =
            (0..2).map(|_| cur.try_next().unwrap().unwrap()).collect();
        let token = cur.resume_token();
        drop(cur);

        let mut resumed = watch(ddb.wal(), ChangeScope::Database, Some(token)).unwrap();
        let rest = resumed.drain().unwrap();
        assert_eq!(first_two.len() + rest.len(), 5);
        assert_eq!(rest.first().unwrap().seq, token + 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncation_past_the_token_is_reported() {
        let dir = tmpdir("trunc");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        // Tiny hub so truncation actually drops history.
        ddb.wal().set_change_capacity(1);
        let c = ddb.db().collection("c");
        for i in 0..10i64 {
            c.insert_one(doc! {"_id" => i}).unwrap();
        }
        ddb.checkpoint().unwrap();
        let err = watch(ddb.wal(), ChangeScope::Database, Some(2)).unwrap_err();
        assert!(matches!(err, Error::TruncatedToken { token: 2, .. }), "{err}");
        // The tip itself is always a valid resume point.
        let mut cur = watch(ddb.wal(), ChangeScope::Database, None).unwrap();
        c.insert_one(doc! {"_id" => 100i64}).unwrap();
        assert!(matches!(
            cur.try_next().unwrap().unwrap().record,
            WalRecord::Insert { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_commit_larger_than_the_ring_leaves_exactly_its_newest_frames() {
        let dir = tmpdir("big-commit");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let wal = ddb.wal();
        let c = ddb.db().collection("c");
        c.insert_one(doc! {"_id" => -1i64}).unwrap();
        c.insert_many((0..10_000i64).map(|i| doc! {"_id" => i})).unwrap();
        let tip = wal.last_seq();
        assert_eq!(tip, 10_001);
        let capacity = crate::wal::DEFAULT_CHANGE_BUFFER as u64;
        let hub = wal.change_hub();
        assert_eq!(hub.oldest_buffered(), Some(tip - capacity + 1));
        assert_eq!(hub.buffered_after(tip - capacity).map(|f| f.len()), Some(capacity as usize));
        assert!(hub.buffered_after(tip - capacity - 1).is_none(), "the ring holds no more");

        // The ring serves what it holds, the file the rest, both in full.
        let id_of = |f: &Frame| match &f.record {
            WalRecord::Insert { doc, .. } => doc.get("_id").cloned(),
            _ => None,
        };
        let from_ring = wal.frames_since(tip - 3).unwrap();
        assert_eq!(from_ring.iter().map(|f| f.seq).collect::<Vec<_>>(), [tip - 2, tip - 1, tip]);
        assert_eq!(id_of(&from_ring[2]), Some(9_999i64.into()));
        let from_file = wal.frames_since(1).unwrap();
        assert_eq!(from_file.len(), 10_000);
        assert_eq!((from_file[0].seq, id_of(&from_file[0])), (2, Some(0i64.into())));
        assert!(wal.frames_since(tip).unwrap().is_empty());

        // Once a checkpoint truncates the file, only the ring is left.
        ddb.checkpoint().unwrap();
        let tip = wal.last_seq();
        assert_eq!(wal.frames_since(tip - capacity).unwrap().len(), capacity as usize);
        let err = wal.frames_since(tip - capacity - 1).unwrap_err();
        assert!(
            matches!(err, Error::TruncatedToken { token, oldest }
                if token == tip - capacity - 1 && oldest == tip - capacity),
            "{err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn heartbeat_frames_keep_idle_streams_live() {
        let dir = tmpdir("noop");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        ddb.db().collection("c").insert_one(doc! {"_id" => 1i64}).unwrap();
        let mut cur = watch(ddb.wal(), ChangeScope::Collection("c".into()), None).unwrap();
        // A checkpoint truncates the log and appends a Noop heartbeat;
        // the scoped cursor still observes it.
        ddb.checkpoint().unwrap();
        let ev = cur.next_timeout(Duration::from_secs(5)).unwrap().unwrap();
        assert!(matches!(ev.record, WalRecord::Noop));
        assert_eq!(cur.resume_token(), ddb.wal().last_seq());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rolled_back_writes_emit_no_events() {
        let dir = tmpdir("rollback");
        let (ddb, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = ddb.db().collection("c");
        c.insert_one(doc! {"_id" => 1i64}).unwrap();
        let mut cur = watch(ddb.wal(), ChangeScope::Database, None).unwrap();
        // Duplicate _id: the write fails before logging anything.
        assert!(c.insert_one(doc! {"_id" => 1i64}).is_err());
        assert!(cur.try_next().unwrap().is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
