//! Property tests for the WAL-driven materialized views and change
//! streams:
//!
//! 1. **View ≡ recompute at every watermark.** A generated op sequence
//!    (inserts, updates, deletes, checkpoints) interleaved with refresh
//!    points: after each refresh the view's served materialization must
//!    equal a fresh execution of the registered pipeline — so the
//!    incremental accumulate/retract state, the dirty-group recompute,
//!    and the truncation-rebuild fallback all agree with the aggregation
//!    driver.
//!    A second generator prices in doubles of mixed magnitude, whose
//!    retraction the view cannot subtract exactly: it recomputes the
//!    group instead, and each double may differ from the recompute only
//!    by the reassociation of f64 addition (log order against slot
//!    order).
//! 2. **Resume tokens cut at every boundary.** For every frame boundary
//!    in a generated history, a cursor resumed at that token replays
//!    exactly the suffix — no lost frames, no duplicates — or reports
//!    `TruncatedToken` (and only when the token really fell behind the
//!    oldest retained frame).

use doclite_bson::{doc, Document, Value};
use doclite_docstore::wal::{DurableDb, SyncPolicy, WalOptions};
use doclite_docstore::{
    watch, Accumulator, ChangeScope, Collection, Error, Expr, Filter, GroupId, Pipeline,
    UpdateSpec, ViewSet,
};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Unique scratch directory per proptest case (one process, many
/// cases: a counter + pid disambiguates).
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn case_dir(tag: &str) -> PathBuf {
    let n = DIR_SEQ.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("doclite_viewprop_{tag}_{}_{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The registered view: Q7-shaped plus `$min`/`$max`, so deletes of
/// extreme contributions exercise the dirty-group recompute path, not
/// just the invertible counters.
fn view_pipeline() -> Pipeline {
    Pipeline::new()
        .match_stage(Filter::gte("qty", 0i64))
        .group(
            GroupId::Expr(Expr::field("cat")),
            [
                ("revenue", Accumulator::sum_field("price")),
                ("n", Accumulator::count()),
                ("avg_qty", Accumulator::avg_field("qty")),
                ("lo", Accumulator::Min(Expr::field("qty"))),
                ("hi", Accumulator::Max(Expr::field("price"))),
            ],
        )
        .sort([("_id", 1)])
}

/// The double-priced view: sums and averages doubles spanning 1e-3 to
/// 1e16, where f64 addition is far from associative. It holds no `$min`
/// / `$max`, whose retraction would recompute the group regardless.
fn double_view_pipeline() -> Pipeline {
    Pipeline::new()
        .match_stage(Filter::gte("qty", 0i64))
        .group(
            GroupId::Expr(Expr::field("cat")),
            [
                ("revenue", Accumulator::sum_field("price")),
                ("n", Accumulator::count()),
                ("avg_price", Accumulator::avg_field("price")),
            ],
        )
        .sort([("_id", 1)])
}

#[derive(Clone, Debug)]
enum Op {
    /// Insert a fresh document (ids are sequential, so inserts never
    /// collide; `qty` may be negative, probing the `$match` filter).
    Insert { cat: i64, price: Value, qty: i64 },
    /// Re-price an existing document picked by index (no-op when the
    /// table is empty or the pick was already deleted).
    Update { pick: u64, price: Value },
    /// Delete an existing document picked by index.
    Delete { pick: u64 },
    /// Quiesced log compaction: truncates the WAL, so a lagging view
    /// cursor must take the documented rebuild fallback.
    Checkpoint,
    /// Refresh the view set and compare against recomputation.
    Refresh,
}

fn int_price() -> BoxedStrategy<Value> {
    (0..100i64).prop_map(Value::Int64).boxed()
}

/// A double of magnitude 1e-3 to 1e16.
fn double_price() -> BoxedStrategy<Value> {
    (1.0..10.0f64, -3..16i32).prop_map(|(m, e)| Value::Double(m * 10f64.powi(e))).boxed()
}

fn insert_op(price: BoxedStrategy<Value>) -> impl Strategy<Value = Op> {
    (0..5i64, price, -2..20i64).prop_map(|(cat, price, qty)| Op::Insert { cat, price, qty })
}

fn arb_op() -> impl Strategy<Value = Op> {
    arb_op_priced(int_price)
}

fn arb_op_priced(price: fn() -> BoxedStrategy<Value>) -> impl Strategy<Value = Op> {
    // Insert arm repeated for weight.
    prop_oneof![
        insert_op(price()),
        insert_op(price()),
        insert_op(price()),
        (any::<u64>(), price()).prop_map(|(pick, price)| Op::Update { pick, price }),
        any::<u64>().prop_map(|pick| Op::Delete { pick }),
        Just(Op::Checkpoint),
        Just(Op::Refresh),
        Just(Op::Refresh),
    ]
}

/// Applies a write (or checkpoint) op to `sales`; `Refresh` is the
/// caller's.
fn apply(ddb: &DurableDb, sales: &Collection, op: &Op, next_id: &mut i64) {
    match op {
        Op::Insert { cat, price, qty } => {
            let d = doc! {
                "_id" => *next_id,
                "cat" => format!("c{cat}"),
                "price" => price.clone(),
                "qty" => *qty,
            };
            *next_id += 1;
            sales.insert_one(d).expect("insert");
        }
        Op::Update { pick, price } if *next_id > 0 => {
            let id = (pick % *next_id as u64) as i64;
            let _ = sales.update(
                &Filter::eq("_id", id),
                &UpdateSpec::set("price", price.clone()),
                false,
                false,
            );
        }
        Op::Delete { pick } if *next_id > 0 => {
            let id = (pick % *next_id as u64) as i64;
            sales.delete_many(&Filter::eq("_id", id));
        }
        Op::Update { .. } | Op::Delete { .. } | Op::Refresh => {}
        Op::Checkpoint => ddb.checkpoint().expect("checkpoint"),
    }
}

/// Drains the view set completely (each refresh call is bounded) and
/// returns the served snapshot and a fresh execution of `pipeline`.
fn served_and_fresh(
    ddb: &DurableDb,
    views: &ViewSet,
    pipeline: &Pipeline,
) -> (Vec<Document>, Vec<Document>) {
    loop {
        let stats = views.refresh().expect("refresh");
        if stats.frames_applied == 0 {
            break;
        }
    }
    let (served, _) = views.read("v").expect("view read");
    let fresh = ddb.db().collection("sales").aggregate(pipeline).expect("recompute");
    ((*served).clone(), fresh)
}

/// Asserts the served snapshot equals a fresh pipeline execution.
fn assert_view_matches_recompute(ddb: &DurableDb, views: &ViewSet) {
    let (served, fresh) = served_and_fresh(ddb, views, &view_pipeline());
    assert_eq!(served, fresh);
}

/// Asserts the served double-priced view has the recompute's groups,
/// fields and types, and that each double lies within `2(n−1)·ε·Σ|x|`
/// of the recompute's, for the `n` prices `x` of its group: two f64
/// folds of the same `n` numbers in different orders differ by at most
/// that.
fn assert_double_view_near_recompute(ddb: &DurableDb, views: &ViewSet) {
    let (served, fresh) = served_and_fresh(ddb, views, &double_view_pipeline());
    assert_eq!(served.len(), fresh.len(), "groups: {served:?} vs {fresh:?}");
    let sales = ddb.db().collection("sales");
    for (got, want) in served.iter().zip(&fresh) {
        let prices: Vec<f64> = sales
            .find(&Filter::and([
                Filter::eq("cat", want.get("_id").expect("_id").clone()),
                Filter::gte("qty", 0i64),
            ]))
            .iter()
            .filter_map(|d| d.get("price").and_then(Value::as_f64))
            .collect();
        let n = prices.len() as f64;
        let magnitude: f64 = prices.iter().map(|x| x.abs()).sum();
        let tolerance = 2.0 * (n - 1.0).max(0.0) * f64::EPSILON * magnitude;
        let fields = |d: &Document| d.iter().map(|(k, _)| k.clone()).collect::<Vec<_>>();
        assert_eq!(fields(got), fields(want));
        for ((name, g), (_, w)) in got.iter().zip(want.iter()) {
            match (g, w) {
                (Value::Double(g), Value::Double(w)) => assert!(
                    (g - w).abs() <= tolerance,
                    "{name}: view {g} vs recompute {w}, tolerance {tolerance} ({got:?})"
                ),
                _ => assert_eq!(g, w, "{name}"),
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The headline property: at every refresh watermark the view is
    /// byte-identical to recomputing its pipeline.
    #[test]
    fn view_equals_recompute_at_every_watermark(
        ops in prop::collection::vec(arb_op(), 1..60),
    ) {
        let dir = case_dir("equiv");
        let (ddb, _) = DurableDb::open(
            "views",
            &dir,
            WalOptions { sync: SyncPolicy::Never, faults: None },
        )
        .expect("open");
        let sales = ddb.db().collection("sales");
        let views = ViewSet::for_durable(&ddb).expect("view set");
        views.create_view("v", "sales", view_pipeline()).expect("create view");

        let mut next_id: i64 = 0;
        for op in &ops {
            match op {
                Op::Refresh => assert_view_matches_recompute(&ddb, &views),
                _ => apply(&ddb, &sales, op, &mut next_id),
            }
        }
        assert_view_matches_recompute(&ddb, &views);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Doubles of mixed magnitude: a retraction the view cannot take
    /// back exactly recomputes its group, so the view stays within the
    /// reassociation error of a recompute (a subtracting view served
    /// 0.0 for a group whose remaining price was 0.2).
    #[test]
    fn double_view_stays_within_reassociation_error_of_recompute(
        ops in prop::collection::vec(arb_op_priced(double_price), 1..60),
    ) {
        let dir = case_dir("doubles");
        let (ddb, _) = DurableDb::open(
            "views",
            &dir,
            WalOptions { sync: SyncPolicy::Never, faults: None },
        )
        .expect("open");
        let sales = ddb.db().collection("sales");
        let views = ViewSet::for_durable(&ddb).expect("view set");
        views.create_view("v", "sales", double_view_pipeline()).expect("create view");

        let mut next_id: i64 = 0;
        for op in &ops {
            match op {
                Op::Refresh => assert_double_view_near_recompute(&ddb, &views),
                _ => apply(&ddb, &sales, op, &mut next_id),
            }
        }
        assert_double_view_near_recompute(&ddb, &views);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Cut the history at *every* frame boundary: a cursor resumed
    /// there replays exactly the suffix, or reports `TruncatedToken`
    /// only when the token genuinely predates the oldest retained
    /// frame (after which re-watching at the tip is the documented
    /// fallback and must succeed).
    #[test]
    fn resume_token_cut_at_every_boundary_loses_nothing(
        ops in prop::collection::vec(arb_op(), 1..40),
        capacity in 1usize..32,
    ) {
        let dir = case_dir("resume");
        let (ddb, _) = DurableDb::open(
            "views",
            &dir,
            WalOptions { sync: SyncPolicy::Never, faults: None },
        )
        .expect("open");
        // A small ring buffer makes checkpoint truncation actually
        // observable at old tokens instead of being papered over.
        ddb.wal().set_change_capacity(capacity);
        let sales = ddb.db().collection("sales");

        // Expected history: every op appends 0+ frames; the WAL tip
        // delta after each op is authoritative (a missed update/delete
        // appends nothing; a checkpoint truncates then heartbeats).
        let mut expected: Vec<u64> = Vec::new();
        let mut next_id: i64 = 0;
        let mut tip = ddb.wal().last_seq();
        for op in &ops {
            apply(&ddb, &sales, op, &mut next_id);
            let now = ddb.wal().last_seq();
            expected.extend(tip + 1..=now);
            tip = now;
        }

        let replay_from = |token: u64| -> Result<Vec<u64>, Error> {
            let mut cursor = watch(ddb.wal(), ChangeScope::Database, Some(token))?;
            let mut seqs = Vec::new();
            loop {
                let batch = cursor.drain()?;
                if batch.is_empty() {
                    return Ok(seqs);
                }
                seqs.extend(batch.iter().map(|f| f.seq));
            }
        };

        for boundary in std::iter::once(0u64).chain(expected.iter().copied()) {
            let suffix: Vec<u64> =
                expected.iter().copied().filter(|&s| s > boundary).collect();
            match replay_from(boundary) {
                Ok(seqs) => prop_assert_eq!(seqs, suffix, "boundary {}", boundary),
                Err(Error::TruncatedToken { token, oldest }) => {
                    prop_assert_eq!(token, boundary);
                    prop_assert!(
                        boundary < oldest,
                        "truncation reported at boundary {boundary} but oldest is {oldest}"
                    );
                    // The documented fallback: re-watch at the tip.
                    let at_tip = replay_from(tip).expect("tip watch");
                    prop_assert!(at_tip.is_empty());
                }
                Err(e) => prop_assert!(false, "boundary {}: {e}", boundary),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
