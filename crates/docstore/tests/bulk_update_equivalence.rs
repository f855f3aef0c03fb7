//! Property tests: `Collection::update_batch` is the `update` loop.
//!
//! An ordered bulk update changes what a batch of statements *costs*
//! (one lock, one group commit, one pass over the collection routing
//! every statement that pins the shared path instead of a plan and a
//! fetch per statement) and nothing else. For random statement lists —
//! mixed `$set`/`$inc`/`$unset`, statements that rewrite the joined
//! field so later ones chase the re-keyed documents, `multi` on and off,
//! a statement that fails mid-batch or runs into a unique index — over
//! random collections with and without a real index on the joined path,
//! the batch must equal the loop in final contents, result totals and
//! returned error string; with a WAL attached, in what recovery
//! rebuilds; and a failed group commit must leave memory, log and index
//! set exactly as they were.
//!
//! The join is decided by the batch alone — two or more statements
//! pinning one path — so the lists come in the sizes on both sides of
//! that (0–3 statements, a couple of dozen, about 300), mix keyed
//! statements with ones only the planner can serve, and the collections
//! come small and large enough to leave the small-collection rule
//! planner.

use doclite_bson::{array, codec::encoded_size, doc, json::to_json, Document, Value};
use doclite_docstore::query::matcher::matches;
use doclite_docstore::wal::{db_fingerprint, DurableDb, SyncPolicy, WalOptions};
use doclite_docstore::{
    BulkUpdate, Collection, Filter, IndexDef, StorageFaults, UpdateOp, UpdateResult, UpdateSpec,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "doclite-bulk-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Values of the joined field `k`: a small colliding integer domain,
/// plus null, a string and an embedded document.
fn arb_k() -> BoxedStrategy<Value> {
    prop_oneof![
        8 => (0..6i64).prop_map(Value::Int64),
        1 => Just(Value::Null),
        1 => Just(Value::from("six")),
        1 => (0..3i64).prop_map(|i| Value::Document(doc! {"pk" => i})),
    ]
    .boxed()
}

/// Documents: `k` may be missing or an array (multikey), `s` is a string
/// so `$inc s` is the statement that fails. `seed` adds `u`, the
/// document's position, which a case may index uniquely.
fn arb_doc() -> BoxedStrategy<Document> {
    let k = prop_oneof![
        8 => arb_k().prop_map(Some),
        1 => Just(None),
        1 => (0..6i64, 0..6i64).prop_map(|(a, b)| Some(array![a, b])),
    ];
    (k, 0..3i64, -5..5i64)
        .prop_map(|(k, g, n)| {
            let mut d = doc! {"g" => g, "n" => n, "s" => "text"};
            if let Some(k) = k {
                d.set("k", k);
            }
            d
        })
        .boxed()
}

fn arb_filter() -> BoxedStrategy<Filter> {
    prop_oneof![
        12 => arb_k().prop_map(|v| Filter::eq("k", v)),
        3 => (arb_k(), 0..3i64)
            .prop_map(|(v, g)| Filter::and([Filter::eq("k", v), Filter::eq("g", g)])),
        1 => (0..3i64).prop_map(|g| Filter::eq("g", g)),
        1 => (-5..5i64).prop_map(|n| Filter::lt("n", n)),
        1 => prop::collection::vec(0..6i64, 0..3).prop_map(|ks| Filter::is_in("k", ks)),
    ]
    .boxed()
}

fn arb_spec() -> BoxedStrategy<UpdateSpec> {
    prop_oneof![
        // Rewrites the joined field: later statements must find the
        // document under its new key and not under the old one.
        6 => arb_k().prop_map(|v| UpdateSpec::set("k", v)),
        3 => (-5..5i64).prop_map(|n| UpdateSpec::set("n", n)),
        3 => (-2..3i64).prop_map(|d| UpdateSpec::Ops(vec![UpdateOp::Inc("n".into(), d as f64)])),
        1 => Just(UpdateSpec::Ops(vec![UpdateOp::Unset("k".into())])),
        1 => Just(UpdateSpec::Ops(vec![UpdateOp::Unset("g".into())])),
        2 => (arb_k(), -2..3i64).prop_map(|(v, d)| UpdateSpec::set("k", v).and_inc("n", d as f64)),
        // Collides with another document's `u` more often than not: with
        // the unique index the statement is refused part-way through
        // its matches, and, as its second operator, after `k` was set.
        1 => (0..300i64).prop_map(|u| UpdateSpec::set("u", u)),
        1 => (arb_k(), 0..300i64).prop_map(|(v, u)| UpdateSpec::set("k", v).and_set("u", u)),
    ]
    .boxed()
}

fn arb_statement() -> BoxedStrategy<BulkUpdate> {
    (arb_filter(), arb_spec(), any::<bool>())
        .prop_map(|(filter, spec, multi)| BulkUpdate { filter, spec, multi })
        .boxed()
}

/// `$inc` on the string field: errors on the first document it matches.
fn failing_statement() -> BulkUpdate {
    BulkUpdate {
        filter: Filter::True,
        spec: UpdateSpec::Ops(vec![UpdateOp::Inc("s".into(), 1.0)]),
        multi: true,
    }
}

/// Statement lists on both sides of the join decision: too few to join,
/// exactly enough, a couple of dozen, and about 300.
fn arb_statements() -> BoxedStrategy<Vec<BulkUpdate>> {
    prop_oneof![
        1 => prop::collection::vec(arb_statement(), 0..2),
        2 => prop::collection::vec(arb_statement(), 2..4),
        2 => prop::collection::vec(arb_statement(), 4..24),
        3 => prop::collection::vec(arb_statement(), 290..320),
    ]
    .boxed()
}

/// `fail_at` splices the failing statement in at that fraction of the
/// list.
fn with_failure(mut ops: Vec<BulkUpdate>, fail_at: Option<usize>) -> Vec<BulkUpdate> {
    if let Some(per_mille) = fail_at {
        ops.insert(ops.len() * per_mille / 1000, failing_statement());
    }
    ops
}

/// What a case puts beside the `_id_` index: a real index on the joined
/// path `k`, and a unique one on `u`.
#[derive(Clone, Copy, Debug)]
struct Indexes {
    k: bool,
    unique_u: bool,
}

fn arb_indexes() -> impl Strategy<Value = Indexes> {
    (any::<bool>(), 0..10u8).prop_map(|(k, u)| Indexes { k, unique_u: u < 3 })
}

fn seed(c: &Collection, docs: &[Document], indexes: Indexes) {
    c.insert_many(docs.iter().enumerate().map(|(i, d)| {
        let mut d = d.clone();
        d.set("_id", i as i64);
        d.set("u", i as i64);
        d
    }))
    .map_err(|(_, e)| e)
    .unwrap();
    if indexes.k {
        c.create_index(IndexDef::single("k")).unwrap();
    }
    if indexes.unique_u {
        c.create_index(IndexDef::single("u").unique()).unwrap();
    }
}

/// The reference: one `update` per statement, stopping at the first
/// error — what `EmbedDocuments` did before it batched.
fn update_loop(c: &Collection, ops: &[BulkUpdate]) -> Result<UpdateResult, String> {
    let mut total = UpdateResult::default();
    for op in ops {
        let r = c.update(&op.filter, &op.spec, false, op.multi).map_err(|e| e.to_string())?;
        total.absorb(&r);
    }
    Ok(total)
}

fn contents(c: &Collection) -> Vec<String> {
    // `_id` is the insertion position, so slot order is `_id` order.
    c.all_docs().iter().map(to_json).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// In memory: same contents, same totals, same error, same indexes.
    #[test]
    fn batch_equals_update_loop(
        docs in prop_oneof![
            prop::collection::vec(arb_doc(), 0..40),
            prop::collection::vec(arb_doc(), 260..300),
        ],
        ops in arb_statements(),
        indexed in arb_indexes(),
        fail_at in prop_oneof![2 => Just(None), 1 => (0..1000usize).prop_map(Some)],
    ) {
        let ops = with_failure(ops, fail_at);
        let (by_loop, by_batch) = (Collection::new("c"), Collection::new("c"));
        seed(&by_loop, &docs, indexed);
        seed(&by_batch, &docs, indexed);

        let expected = update_loop(&by_loop, &ops);
        let got = by_batch.update_batch(&ops).map_err(|e| e.to_string());
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(contents(&by_batch), contents(&by_loop));
        // Routing the batch leaves nothing behind.
        prop_assert_eq!(by_batch.index_defs(), by_loop.index_defs());
        // Every index still answers for what is stored, and the running
        // size is the sum it stands for.
        for c in [&by_batch, &by_loop] {
            let docs = c.all_docs();
            // (As sets: an index lookup returns a document once per
            // equal element of a multikey array.)
            let ids = |docs: &[Document]| -> BTreeSet<i64> {
                docs.iter().map(|d| d.get("_id").unwrap().as_i64().unwrap()).collect()
            };
            for (path, key) in [("k", Value::Int64(2)), ("k", Value::Null), ("u", Value::Int64(7))] {
                let filter = Filter::eq(path, key);
                let held: Vec<Document> = docs.iter().filter(|d| matches(&filter, d)).cloned().collect();
                prop_assert_eq!(ids(&c.find(&filter)), ids(&held), "{} lookup", path);
            }
            prop_assert_eq!(c.data_size(), docs.iter().map(encoded_size).sum::<usize>());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// With a WAL: recovery rebuilds the same state from the batch's one
    /// group commit as from the loop's commit per statement, and that
    /// state is the live one — statements before a failing one included.
    #[test]
    fn batch_recovers_like_update_loop(
        docs in prop::collection::vec(arb_doc(), 270..300),
        ops in arb_statements(),
        indexed in arb_indexes(),
        fail_at in prop_oneof![Just(None), (0..1000usize).prop_map(Some)],
    ) {
        let ops = with_failure(ops, fail_at);
        let opts = || WalOptions { sync: SyncPolicy::Never, faults: None };
        let (loop_dir, batch_dir) = (tmp("loop"), tmp("batch"));
        let live = {
            let (l, _) = DurableDb::open("db", &loop_dir, opts()).unwrap();
            let (b, _) = DurableDb::open("db", &batch_dir, opts()).unwrap();
            seed(&l.db().collection("c"), &docs, indexed);
            seed(&b.db().collection("c"), &docs, indexed);
            let expected = update_loop(&l.db().collection("c"), &ops);
            let got = b.db().collection("c").update_batch(&ops).map_err(|e| e.to_string());
            prop_assert_eq!(&got, &expected);
            prop_assert_eq!(db_fingerprint(b.db()), db_fingerprint(l.db()));
            db_fingerprint(b.db())
        };
        let (l, _) = DurableDb::open("db", &loop_dir, opts()).unwrap();
        let (b, _) = DurableDb::open("db", &batch_dir, opts()).unwrap();
        prop_assert_eq!(&db_fingerprint(b.db()), &live, "the log holds what memory held");
        prop_assert_eq!(&db_fingerprint(l.db()), &live);
        prop_assert_eq!(
            b.db().collection("c").index_defs(),
            l.db().collection("c").index_defs(),
            "routing logs nothing"
        );
        drop((l, b));
        std::fs::remove_dir_all(&loop_dir).unwrap();
        std::fs::remove_dir_all(&batch_dir).unwrap();
    }

    /// A failed group commit undoes the whole batch — every statement,
    /// every index entry — so memory rejoins the rewound log.
    #[test]
    fn failed_group_commit_rolls_the_batch_back(
        docs in prop::collection::vec(arb_doc(), 270..300),
        ops in arb_statements(),
        // No unique index: this property is about the commit failing,
        // so no statement may.
        indexed in any::<bool>().prop_map(|k| Indexes { k, unique_u: false }),
    ) {
        let dir = tmp("eio");
        let faults = StorageFaults::new();
        let live = {
            let (d, _) = DurableDb::open(
                "db",
                &dir,
                WalOptions { sync: SyncPolicy::Never, faults: Some(faults.clone()) },
            )
            .unwrap();
            let c = d.db().collection("c");
            seed(&c, &docs, indexed);
            let before = (db_fingerprint(d.db()), contents(&c), c.index_defs());

            // The batch's first frame write fails; statements that
            // modify nothing log nothing and so cannot fail.
            faults.transient_eio(1);
            let outcome = c.update_batch(&ops);
            let logged_nothing = faults.active();
            faults.clear();
            if logged_nothing {
                prop_assert_eq!(outcome.map(|r| r.modified), Ok(0));
            } else {
                prop_assert!(outcome.unwrap_err().to_string().starts_with("storage:"));
            }
            prop_assert_eq!(&(db_fingerprint(d.db()), contents(&c), c.index_defs()), &before);

            // The collection still works, and still agrees with a loop.
            let reference = Collection::new("c");
            seed(&reference, &docs, indexed);
            let expected = update_loop(&reference, &ops);
            prop_assert_eq!(c.update_batch(&ops).map_err(|e| e.to_string()), expected);
            prop_assert_eq!(contents(&c), contents(&reference));
            db_fingerprint(d.db())
        };
        let (d, _) = DurableDb::open("db", &dir, WalOptions { sync: SyncPolicy::Never, faults: None })
            .unwrap();
        prop_assert_eq!(db_fingerprint(d.db()), live, "memory == log after the rollback");
        drop(d);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
