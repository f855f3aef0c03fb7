//! Concurrency regressions for the snapshot-then-release read path.
//!
//! PR 6 shrank the collection read-lock hold time: queries snapshot
//! their candidate documents (`Arc` refcount bumps) under the lock and
//! run matching/sorting/aggregation lock-free. The stress report's
//! 2-thread standalone p999 blowup (466µs → 4128µs) was lock-convoy
//! shaped — a writer stuck behind a long analytical scan. These tests
//! pin the fix:
//!
//! * a writer completes *while* a long aggregation is still running,
//!   instead of queueing behind it;
//! * scans started around concurrent writes see a consistent snapshot
//!   (no torn documents, counts within the pre/post bounds).

use doclite_bson::{doc, Value};
use doclite_docstore::{
    Accumulator, BulkUpdate, Database, Expr, Filter, GroupId, Pipeline, UpdateSpec,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// Builds a collection big enough that the analytical pipeline below
/// takes at least `min_scan` of wall time, by doubling. Returns the
/// database and the calibrated scan duration.
fn calibrated_db(min_scan: Duration) -> (Database, Duration) {
    let db = Database::new("bench");
    let coll = db.collection("facts");
    let mut n: usize = 8_192;
    let mut inserted = 0usize;
    loop {
        let batch: Vec<_> = (inserted..n)
            .map(|i| {
                doc! {
                    "_id" => i as i64,
                    "grp" => (i % 1000) as i64,
                    "v" => ((i * 31) % 9973) as i64
                }
            })
            .collect();
        coll.insert_many(batch).map_err(|(_, e)| e).unwrap();
        inserted = n;
        let t = Instant::now();
        let out = db.aggregate("facts", &scan_pipeline()).unwrap();
        let took = t.elapsed();
        assert!(!out.is_empty());
        if took >= min_scan || n >= 2_000_000 {
            return (db, took);
        }
        n *= 2;
    }
}

fn scan_pipeline() -> Pipeline {
    Pipeline::new()
        .match_stage(Filter::gte("v", 0i64))
        .group(
            GroupId::Expr(Expr::field("grp")),
            [("n", Accumulator::count()), ("s", Accumulator::sum_field("v"))],
        )
        .sort([("_id", 1)])
}

#[test]
fn writer_is_not_convoyed_behind_a_long_scan() {
    // Calibrate so the scan comfortably covers the writer's start delay.
    let (db, scan_time) = calibrated_db(Duration::from_millis(80));
    let scanning = AtomicBool::new(false);

    let (scan_done_at, write_done_at) = std::thread::scope(|s| {
        let scanner = s.spawn(|| {
            scanning.store(true, Ordering::SeqCst);
            let out = db.aggregate("facts", &scan_pipeline()).unwrap();
            assert!(!out.is_empty());
            Instant::now()
        });
        let writer = s.spawn(|| {
            while !scanning.load(Ordering::SeqCst) {
                std::hint::spin_loop();
            }
            // Give the scanner a head start into the scan body, well
            // under the calibrated scan duration.
            std::thread::sleep(scan_time / 8);
            db.collection("facts")
                .insert_one(doc! {"_id" => -1i64, "grp" => 0i64, "v" => 1i64})
                .unwrap();
            Instant::now()
        });
        (scanner.join().unwrap(), writer.join().unwrap())
    });

    // Pre-fix, the insert queued behind the scan's read lock and could
    // only finish after it; post-fix it lands while the scan is still
    // running. Comparing completion instants avoids asserting absolute
    // latencies on a loaded (or single-core) machine.
    assert!(
        write_done_at < scan_done_at,
        "writer finished {:?} after the scan — read lock held across the scan",
        write_done_at.duration_since(scan_done_at)
    );
}

#[test]
fn scans_see_consistent_snapshots_under_concurrent_writes() {
    let db = Database::new("snap");
    let coll = db.collection("facts");
    let base = 4_000usize;
    let extra = 1_000usize;
    coll.insert_many(
        (0..base)
            .map(|i| doc! {"_id" => i as i64, "grp" => (i % 10) as i64, "v" => 1i64})
            .collect::<Vec<_>>(),
    )
    .map_err(|(_, e)| e)
    .unwrap();

    let counts: Vec<i64> = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            for i in 0..extra {
                coll.insert_one(
                    doc! {"_id" => (base + i) as i64, "grp" => (i % 10) as i64, "v" => 1i64},
                )
                .unwrap();
            }
        });
        let mut counts = Vec::new();
        for _ in 0..50 {
            let out = db
                .aggregate(
                    "facts",
                    &Pipeline::new().group(GroupId::Null, [("n", Accumulator::count())]),
                )
                .unwrap();
            counts.push(match out[0].get("n") {
                Some(doclite_bson::Value::Int64(n)) => *n,
                other => panic!("count came back as {other:?}"),
            });
        }
        writer.join().unwrap();
        counts
    });

    // Each scan's snapshot was taken at some instant between test start
    // and writer completion: every count is within bounds, and counts
    // never go backwards faster than a snapshot can (they are each
    // internally consistent single values here — the bounds are the
    // meaningful check).
    for n in counts {
        assert!(
            (base as i64..=(base + extra) as i64).contains(&n),
            "snapshot count {n} outside [{base}, {}]",
            base + extra
        );
    }
    assert_eq!(coll.len(), base + extra);
}

/// Readers scan on `grp` while a writer keeps rewriting `grp`, and the
/// readers' own second scan builds `grp`'s column in the middle of it.
/// Every write is one batch that moves a document out of group 3 and
/// another one in, under one lock hold — so a scan that evaluates the
/// filter over a column kept in step with the documents sees exactly
/// 600 members, every time, and each of them satisfies the filter.
#[test]
fn column_scans_stay_exact_while_the_scanned_field_is_rewritten() {
    const DOCS: i64 = 6_000;
    const SWAPS: usize = 1_500;
    let db = Database::new("swap");
    let coll = db.collection("facts");
    coll.insert_many((0..DOCS).map(|i| doc! {"_id" => i, "grp" => i % 10, "v" => i}))
        .map_err(|(_, e)| e)
        .unwrap();
    let in_group = Filter::eq("grp", 3i64);
    let members = (DOCS / 10) as usize;
    let done = AtomicBool::new(false);
    // Writer and readers leave the barrier together, so the scans (and
    // the column build the second one triggers) overlap the writes.
    let start = Barrier::new(3);

    std::thread::scope(|s| {
        s.spawn(|| {
            let mut grp: Vec<i64> = (0..DOCS).map(|i| i % 10).collect();
            let set = |id: i64, g: i64| BulkUpdate {
                filter: Filter::eq("_id", id),
                spec: UpdateSpec::set("grp", g),
                multi: false,
            };
            start.wait();
            for n in 0..SWAPS {
                // Deterministic walk: the n-th member leaves, a
                // non-member `n * 7` further on takes its place.
                let out = (0..DOCS).cycle().skip(n * 13).find(|&i| grp[i as usize] == 3).unwrap();
                let inn = (0..DOCS).cycle().skip(n * 7).find(|&i| grp[i as usize] != 3).unwrap();
                let r = coll.update_batch(&[set(out, grp[inn as usize]), set(inn, 3)]).unwrap();
                assert_eq!(r.modified, 2);
                grp[out as usize] = grp[inn as usize];
                grp[inn as usize] = 3;
            }
            done.store(true, Ordering::SeqCst);
        });
        for _ in 0..2 {
            s.spawn(|| {
                start.wait();
                let mut scans = 0;
                while !done.load(Ordering::SeqCst) || scans < 4 {
                    let found = coll.find(&in_group);
                    assert_eq!(found.len(), members, "scan {scans} lost or gained a member");
                    assert!(found.iter().all(|d| d.get("grp") == Some(&Value::Int64(3))));
                    assert_eq!(coll.count(&in_group), members);
                    scans += 1;
                }
            });
        }
    });
    assert_eq!(coll.explain(&in_group).plan, "COLSCAN { grp }", "the build landed");
    assert_eq!(coll.find(&in_group).len(), members);
}
