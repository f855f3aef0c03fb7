//! Crash/recovery suite: WAL prefix cuts, torn writes, and bit flips.
//!
//! The central property: for a log cut at *any* byte inside the final
//! frame, recovery reproduces exactly the state as of the last intact
//! commit — never a torn document, never a lost earlier write.

use doclite_bson::doc;
use doclite_docstore::wal::{db_fingerprint, DurableDb, SyncPolicy, WalOptions};
use doclite_docstore::{watch, BulkUpdate, ChangeScope, Filter, StorageFaults, UpdateSpec};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "doclite-crash-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn opts() -> WalOptions {
    WalOptions { sync: SyncPolicy::Always, faults: None }
}

const WAL_MAGIC_LEN: usize = 8;
const FRAME_HEADER: usize = 16;

/// Byte offsets of frame starts, plus the end offset of the last frame.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    let mut pos = WAL_MAGIC_LEN;
    let mut bounds = vec![pos];
    while pos + FRAME_HEADER <= bytes.len() {
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize;
        if pos + FRAME_HEADER + len > bytes.len() {
            break;
        }
        pos += FRAME_HEADER + len;
        bounds.push(pos);
    }
    bounds
}

/// Recovers a store whose `wal.log` is `bytes` truncated to `cut`, and
/// returns its fingerprint.
fn fingerprint_of_prefix(dir: &PathBuf, bytes: &[u8], cut: usize) -> doclite_bson::Document {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).unwrap();
    std::fs::write(dir.join("wal.log"), &bytes[..cut]).unwrap();
    let (d, _) = DurableDb::open("db", dir, opts()).unwrap();
    db_fingerprint(d.db())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Cut the log at every byte of the final insert frame and of every
    /// frame a trailing bulk update wrote: recovery must equal the state
    /// as of the last intact frame, and the cut bytes must register as a
    /// torn tail (except at an exact frame boundary, where nothing is
    /// torn). A bulk update is one group commit but one frame per
    /// modified document, so a crash inside it keeps the statements (and
    /// documents) whose frames made it — a prefix, never a mixture.
    #[test]
    fn prefix_cut_recovers_last_intact_commit(
        keys in proptest::collection::vec(0i64..1_000_000, 2..7),
        pad in 1usize..40,
        bulk in proptest::collection::vec((0usize..7, 1i64..1_000_000), 0..4),
    ) {
        let base = tmp("prefix");
        let modified = {
            let (d, _) = DurableDb::open("db", &base, opts()).unwrap();
            let c = d.db().collection("c");
            for (i, k) in keys.iter().enumerate() {
                // _id = position so duplicate keys stay insertable.
                c.insert_one(doc! {"_id" => i as i64, "k" => *k, "pad" => "x".repeat(pad)})
                    .unwrap();
            }
            // Statements may hit the same document twice (a chain of
            // post-images) or set a value it already has (no frame).
            let statements: Vec<BulkUpdate> = bulk
                .iter()
                .map(|(target, k)| BulkUpdate {
                    filter: Filter::eq("_id", (target % keys.len()) as i64),
                    spec: UpdateSpec::set("k", -*k),
                    multi: true,
                })
                .collect();
            c.update_batch(&statements).unwrap().modified
        };
        let bytes = std::fs::read(base.join("wal.log")).unwrap();
        let bounds = frame_boundaries(&bytes);
        let frames = keys.len() + modified;
        prop_assert_eq!(bounds.len() - 1, frames, "one frame per insert and per modified doc");
        prop_assert_eq!(*bounds.last().unwrap(), bytes.len(), "no trailing garbage in a clean log");

        let trial = tmp("prefix-trial");
        // From the last insert's frame on: every frame start is a state.
        for frame in keys.len() - 1..frames {
            let (prev, end) = (bounds[frame], bounds[frame + 1]);
            let expect_prev = fingerprint_of_prefix(&trial, &bytes, prev);
            let expect_full = fingerprint_of_prefix(&trial, &bytes, end);
            prop_assert_ne!(&expect_prev, &expect_full);
            for cut in prev..end {
                let _ = std::fs::remove_dir_all(&trial);
                std::fs::create_dir_all(&trial).unwrap();
                std::fs::write(trial.join("wal.log"), &bytes[..cut]).unwrap();
                let (d, report) = DurableDb::open("db", &trial, opts()).unwrap();
                prop_assert_eq!(&db_fingerprint(d.db()), &expect_prev, "cut at byte {}", cut);
                prop_assert_eq!(report.torn_tail, cut > prev, "cut at byte {}", cut);
                prop_assert_eq!(report.frames_replayed as usize, frame);
            }
        }

        std::fs::remove_dir_all(&base).unwrap();
        std::fs::remove_dir_all(&trial).unwrap();
    }
}

/// A group commit is one buffer handed to one `write`. Killing the
/// process at every byte of a three-frame commit: the caller gets an
/// `Err`, and memory, the live log and the change stream all show
/// nothing of the batch; what reached the file is a prefix of the
/// buffer, which recovery reads as the whole frames before the cut —
/// never a later frame without the earlier ones. A commit that fails
/// without a crash (transient EIO) leaves the file byte-for-byte as it
/// was.
#[test]
fn a_three_frame_commit_cut_at_every_byte_recovers_a_prefix_of_whole_frames() {
    let batch = || (10..13i64).map(|i| doc! {"_id" => i, "v" => "x".repeat(i as usize)});
    // A clean run gives the batch's frame boundaries.
    let clean = tmp("batch-clean");
    {
        let (d, _) = DurableDb::open("db", &clean, opts()).unwrap();
        let c = d.db().collection("c");
        c.insert_one(doc! {"_id" => 1i64}).unwrap();
        c.insert_many(batch()).unwrap();
    }
    let bytes = std::fs::read(clean.join("wal.log")).unwrap();
    let bounds = frame_boundaries(&bytes);
    assert_eq!(bounds.len() - 1, 4, "one earlier frame, then the batch's three");
    let (start, end) = (bounds[1], bounds[4]);

    for cut in 0..end - start {
        let dir = tmp("batch-cut");
        let faults = StorageFaults::new();
        {
            let (d, _) = DurableDb::open(
                "db",
                &dir,
                WalOptions { sync: SyncPolicy::Always, faults: Some(faults.clone()) },
            )
            .unwrap();
            let c = d.db().collection("c");
            c.insert_one(doc! {"_id" => 1i64}).unwrap();
            let mut stream = watch(d.wal(), ChangeScope::Database, None).unwrap();
            let writes = faults.writes();
            faults.crash_after_bytes(cut as u64);
            let (inserted, _) = c.insert_many(batch()).unwrap_err();
            assert_eq!(faults.writes() - writes, 1, "the batch is one write");
            assert_eq!(inserted, 0, "cut {cut}: nothing is acknowledged");
            assert_eq!(c.len(), 1, "cut {cut}: memory shows nothing of the batch");
            assert_eq!(d.wal().last_seq(), 1, "cut {cut}: no sequence number was issued");
            assert!(stream.try_next().unwrap().is_none(), "cut {cut}: no change event");
            assert!(d.wal().poisoned().is_some(), "a dead process appends nothing more");
        }
        let on_disk = std::fs::read(dir.join("wal.log")).unwrap();
        assert_eq!(on_disk, bytes[..start + cut], "cut {cut}: the file holds a prefix of the buffer");
        let whole = bounds[1..].iter().filter(|&&b| b > start && b <= start + cut).count();
        let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
        assert_eq!(report.frames_replayed as usize, 1 + whole, "cut {cut}");
        assert_eq!(report.torn_tail, !bounds.contains(&(start + cut)), "cut {cut}");
        let ids: Vec<i64> = d
            .db()
            .collection("c")
            .all_docs()
            .iter()
            .map(|doc| match doc.get("_id") {
                Some(doclite_bson::Value::Int64(i)) => *i,
                other => panic!("unexpected _id {other:?}"),
            })
            .collect();
        let expect: Vec<i64> = std::iter::once(1).chain((10..13).take(whole)).collect();
        assert_eq!(ids, expect, "cut {cut}: a prefix of the batch, in order");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    // Not a crash: the failed commit writes nothing and the retry lands
    // where it would have.
    let dir = tmp("batch-eio");
    let faults = StorageFaults::new();
    {
        let (d, _) = DurableDb::open(
            "db",
            &dir,
            WalOptions { sync: SyncPolicy::Always, faults: Some(faults.clone()) },
        )
        .unwrap();
        let c = d.db().collection("c");
        c.insert_one(doc! {"_id" => 1i64}).unwrap();
        let mut stream = watch(d.wal(), ChangeScope::Database, None).unwrap();
        faults.transient_eio(1);
        assert!(c.insert_many(batch()).is_err());
        assert_eq!(c.len(), 1);
        assert!(stream.try_next().unwrap().is_none());
        assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), bytes[..start]);
        c.insert_many(batch()).unwrap();
        assert_eq!(stream.drain().unwrap().len(), 3);
    }
    assert_eq!(std::fs::read(dir.join("wal.log")).unwrap(), bytes);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&clean).unwrap();
}

/// A torn write (half the frame hits disk, then the process dies) rolls
/// back to the pre-write state on recovery.
#[test]
fn torn_write_rolls_back_to_last_commit() {
    let dir = tmp("torn");
    let faults = StorageFaults::new();
    {
        let (d, _) = DurableDb::open(
            "db",
            &dir,
            WalOptions { sync: SyncPolicy::Always, faults: Some(faults.clone()) },
        )
        .unwrap();
        let c = d.db().collection("c");
        c.insert_one(doc! {"_id" => 1i64, "v" => "keep"}).unwrap();
        faults.tear_next_write();
        let err = c.insert_one(doc! {"_id" => 2i64, "v" => "torn away"});
        assert!(err.is_err(), "the write must not be acknowledged");
        assert!(faults.crashed());
    }
    let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
    assert!(report.torn_tail, "half a frame is on disk");
    assert_eq!(report.frames_replayed, 1);
    let c = d.db().get_collection("c").unwrap();
    assert_eq!(c.len(), 1);
    assert!(c.find_one(&Filter::eq("_id", 1i64)).is_some());
    assert!(c.find_one(&Filter::eq("_id", 2i64)).is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A byte-budget crash cuts the log mid-frame at an arbitrary offset;
/// recovery keeps every acknowledged write and drops the torn one.
#[test]
fn crash_after_bytes_preserves_acknowledged_prefix() {
    let dir = tmp("budget");
    let faults = StorageFaults::new();
    {
        let (d, _) = DurableDb::open(
            "db",
            &dir,
            WalOptions { sync: SyncPolicy::Always, faults: Some(faults.clone()) },
        )
        .unwrap();
        let c = d.db().collection("c");
        // Arm a budget that admits a few whole frames and then dies
        // somewhere inside a later one.
        faults.crash_after_bytes(200);
        let mut acked = 0i64;
        for i in 0..100i64 {
            match c.insert_one(doc! {"_id" => i, "v" => "some payload"}) {
                Ok(_) => acked = i + 1,
                Err(_) => break,
            }
        }
        assert!(acked > 0, "the budget admits at least one frame");
        assert!(faults.crashed(), "the budget is small enough to trip");
    }
    let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
    let c = d.db().get_collection("c").unwrap();
    // Every acknowledged insert is present; the torn one is not. (The
    // torn frame was cut mid-write, so a tail must have been discarded.)
    assert!(report.torn_tail);
    assert_eq!(c.len() as u64, report.frames_replayed);
    for i in 0..report.frames_replayed as i64 {
        assert!(
            c.find_one(&Filter::eq("_id", i)).is_some(),
            "acknowledged _id {i} lost"
        );
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A bit flip in the middle of the log is caught by the frame CRC:
/// recovery stops at the corrupt frame rather than replaying garbage.
#[test]
fn bit_flip_is_caught_by_frame_crc() {
    let dir = tmp("bitflip");
    {
        let (d, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = d.db().collection("c");
        for i in 0..10i64 {
            c.insert_one(doc! {"_id" => i, "v" => "payload payload"}).unwrap();
        }
    }
    let path = dir.join("wal.log");
    let mut bytes = std::fs::read(&path).unwrap();
    let bounds = frame_boundaries(&bytes);
    // Flip one byte inside the 6th frame's body.
    let target = bounds[5] + FRAME_HEADER + 3;
    bytes[target] ^= 0x01;
    std::fs::write(&path, &bytes).unwrap();

    let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
    assert!(report.torn_tail, "the corrupt frame and everything after it is dropped");
    assert_eq!(report.frames_replayed, 5);
    assert_eq!(d.db().get_collection("c").unwrap().len(), 5);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Transient EIO fails the write without corrupting the log: the store
/// keeps working once the fault clears, and recovery sees every
/// successfully acknowledged write.
#[test]
fn transient_eio_is_not_fatal_to_the_log() {
    let dir = tmp("eio");
    let faults = StorageFaults::new();
    {
        let (d, _) = DurableDb::open(
            "db",
            &dir,
            WalOptions { sync: SyncPolicy::Always, faults: Some(faults.clone()) },
        )
        .unwrap();
        let c = d.db().collection("c");
        c.insert_one(doc! {"_id" => 1i64}).unwrap();
        faults.transient_eio(1);
        assert!(c.insert_one(doc! {"_id" => 2i64}).is_err(), "EIO surfaces");
        // The failed insert was rolled back from memory too, so the
        // live store already matches what recovery will rebuild.
        assert_eq!(c.len(), 1);
        // The fault has passed; later writes succeed.
        c.insert_one(doc! {"_id" => 3i64}).unwrap();
    }
    let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
    assert!(!report.torn_tail, "EIO left no partial frame");
    let c = d.db().get_collection("c").unwrap();
    assert!(c.find_one(&Filter::eq("_id", 1i64)).is_some());
    assert!(c.find_one(&Filter::eq("_id", 3i64)).is_some());
    // _id 2 was never acknowledged anywhere: not in the log, and rolled
    // back from memory when the append failed.
    assert!(c.find_one(&Filter::eq("_id", 2i64)).is_none());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A WAL append failure rolls the in-memory apply back, so the live
/// store never diverges from what recovery would rebuild — and a
/// clean-shutdown seal written later still verifies.
#[test]
fn eio_rolls_back_insert_update_and_delete_in_memory() {
    let dir = tmp("eio-rollback");
    let faults = StorageFaults::new();
    {
        let (d, _) = DurableDb::open(
            "db",
            &dir,
            WalOptions { sync: SyncPolicy::Always, faults: Some(faults.clone()) },
        )
        .unwrap();
        let c = d.db().collection("c");
        c.insert_one(doc! {"_id" => 1i64, "v" => "original"}).unwrap();

        // Insert rollback: the same _id stays insertable afterwards.
        faults.transient_eio(1);
        assert!(c.insert_one(doc! {"_id" => 2i64}).is_err());
        assert_eq!(c.len(), 1);
        c.insert_one(doc! {"_id" => 2i64}).unwrap();

        // Update rollback: the document keeps its pre-update value.
        faults.transient_eio(1);
        assert!(c
            .update(&Filter::eq("_id", 1i64), &UpdateSpec::set("v", "changed"), false, true)
            .is_err());
        assert_eq!(
            c.find_one(&Filter::eq("_id", 1i64)).unwrap().get("v"),
            Some(&doclite_bson::Value::from("original"))
        );

        // Upsert rollback: the seeded document does not survive.
        faults.transient_eio(1);
        assert!(c
            .update(&Filter::eq("_id", 9i64), &UpdateSpec::set("v", "seed"), true, true)
            .is_err());
        assert!(c.find_one(&Filter::eq("_id", 9i64)).is_none());

        // Delete rollback: the fallible form errors, the documents stay.
        faults.transient_eio(1);
        assert!(c.try_delete_many(&Filter::True).is_err());
        assert_eq!(c.len(), 2);
        // The infallible wrapper reports 0 removed under the same fault.
        faults.transient_eio(1);
        assert_eq!(c.delete_many(&Filter::eq("_id", 2i64)), 0);
        assert_eq!(c.len(), 2);

        // Memory matches the log, so the seal fingerprint verifies.
        d.seal().unwrap();
    }
    let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
    assert!(report.sealed, "fingerprint of the rolled-back state verifies");
    let c = d.db().get_collection("c").unwrap();
    assert_eq!(c.len(), 2);
    assert_eq!(
        c.find_one(&Filter::eq("_id", 1i64)).unwrap().get("v"),
        Some(&doclite_bson::Value::from("original"))
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A delete large enough that a single WAL frame would blow the scan cap
/// (and, pre-fix, silently truncate the log) survives recovery via
/// chunked Delete frames.
#[test]
fn huge_delete_survives_recovery_via_chunked_frames() {
    let dir = tmp("huge-delete");
    {
        let (d, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = d.db().collection("c");
        // ~700 KB string _ids × 40 docs ≈ 28 MB of ids: far over the
        // one-frame cap once logged as a single Delete record.
        for i in 0..40i64 {
            c.insert_one(doc! {"_id" => format!("{i:04}-{}", "x".repeat(700 * 1024))})
                .unwrap();
        }
        assert_eq!(c.delete_many(&Filter::True), 40);
        // A write *after* the delete: pre-fix, the oversized frame made
        // this one unreachable to the recovery scan.
        d.db().collection("after").insert_one(doc! {"_id" => 1i64}).unwrap();
    }
    let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
    assert!(!report.torn_tail, "chunked frames all scan cleanly");
    assert_eq!(d.db().get_collection("c").unwrap().len(), 0, "deletes replayed");
    assert_eq!(d.db().get_collection("after").unwrap().len(), 1, "later write reachable");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Checkpoint + post-checkpoint WAL writes + crash: recovery stitches
/// both together.
#[test]
fn checkpoint_plus_wal_tail_recovers_combined_state() {
    let dir = tmp("stitch");
    {
        let (d, _) = DurableDb::open("db", &dir, opts()).unwrap();
        let c = d.db().collection("c");
        c.insert_many((0..30i64).map(|i| doc! {"_id" => i, "v" => i})).unwrap();
        d.checkpoint().unwrap();
        c.insert_many((30..40i64).map(|i| doc! {"_id" => i, "v" => i})).unwrap();
        c.delete_many(&Filter::eq("_id", 0i64));
    }
    let (d, report) = DurableDb::open("db", &dir, opts()).unwrap();
    assert_eq!(report.checkpoint_docs, 30);
    assert!(report.frames_replayed >= 2, "inserts + delete replayed from the log");
    let c = d.db().get_collection("c").unwrap();
    assert_eq!(c.len(), 39);
    assert!(c.find_one(&Filter::eq("_id", 0i64)).is_none());
    assert!(c.find_one(&Filter::eq("_id", 39i64)).is_some());
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Columns are neither logged nor checkpointed. While the process lives
/// they follow every write, including the ones a failed WAL append rolls
/// back; after a reopen the collection earns them again by the same rule
/// — two row scans, then column scans — with identical answers.
#[test]
fn columns_follow_rollbacks_and_are_earned_again_after_reopen() {
    let dir = tmp("columns");
    let faults = StorageFaults::new();
    let by_grp = Filter::and([Filter::eq("grp", 3i64), Filter::lt("v", 50i64)]);
    let expected = {
        let (d, _) = DurableDb::open(
            "db",
            &dir,
            WalOptions { sync: SyncPolicy::Always, faults: Some(faults.clone()) },
        )
        .unwrap();
        let c = d.db().collection("c");
        c.insert_many((0..5000i64).map(|i| doc! {"_id" => i, "grp" => i % 10, "v" => i % 100}))
            .unwrap();
        let before = c.find(&by_grp);
        assert_eq!(before.len(), 250);
        assert_eq!(c.find(&by_grp), before);
        assert_eq!(c.explain(&by_grp).plan, "COLSCAN { grp, v }");

        // Each rolled-back write would change what the filter selects;
        // the column scan must keep seeing the restored documents.
        faults.transient_eio(1);
        assert!(c
            .update(&Filter::eq("grp", 3i64), &UpdateSpec::set("grp", 4i64), false, true)
            .is_err());
        assert_eq!(c.find(&by_grp), before, "update rollback restores the cells");
        faults.transient_eio(1);
        assert!(c.insert_one(doc! {"_id" => 5000i64, "grp" => 3i64, "v" => 0i64}).is_err());
        assert_eq!(c.find(&by_grp), before, "insert rollback clears the row");
        faults.transient_eio(1);
        assert!(c.try_delete_many(&Filter::lt("v", 10i64)).is_err());
        assert_eq!(c.find(&by_grp), before, "delete rollback rewrites the rows");
        assert_eq!(c.explain(&by_grp).plan, "COLSCAN { grp, v }");

        // And a write that does commit shows up.
        c.update(&Filter::eq("_id", 3i64), &UpdateSpec::set("v", 77i64), false, false).unwrap();
        let after = c.find(&by_grp);
        assert_eq!(after.len(), 249);
        d.checkpoint().unwrap();
        after
    };
    let (d, _) = DurableDb::open("db", &dir, opts()).unwrap();
    let c = d.db().get_collection("c").unwrap();
    assert!(!c.columnar_enabled(), "nothing of the sidecar is stored");
    assert_eq!(c.explain(&by_grp).plan, "COLLSCAN");
    assert_eq!(c.find(&by_grp), expected);
    assert_eq!(c.explain(&by_grp).plan, "COLLSCAN");
    assert_eq!(c.find(&by_grp), expected);
    assert_eq!(c.explain(&by_grp).plan, "COLSCAN { grp, v }");
    assert_eq!(c.find(&by_grp), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}
