//! Pins how many times a point operation allocates with a WAL attached:
//! a `find` by `_id`, a `find` by a secondary index (one ticket, 12
//! rows), an 8-key `$in`, one `update` and one `insert_one`.
//!
//! A stored document is copy-on-write, so a `find` hands out the stored
//! rows without copying a field: its count depends on the plan and the
//! number of rows, not on how wide the rows are. Probe keys are encoded
//! into a buffer the operation owns instead of a fresh key per probe.
//!
//! Like `kernel_alloc.rs` this is its own integration binary with a
//! single `#[test]`, because it installs a counting `#[global_allocator]`
//! and the counts only mean something if no other test thread allocates
//! meanwhile.

use doclite_bson::{Document, Value};
use doclite_docstore::wal::{DurableDb, SyncPolicy, WalOptions};
use doclite_docstore::{Collection, Filter, IndexDef, UpdateSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

struct CountingAlloc;

static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Rows per ticket, as in `store_sales`.
const LINES: i64 = 12;
const TICKETS: i64 = 500;
/// Keys of the `$in` lookup.
const IN_KEYS: i64 = 8;

/// A `store_sales`-shaped row with `extra` more string fields, so two
/// collections can differ only in how wide their rows are.
fn row(i: i64, extra: usize) -> Document {
    let mut fields: Vec<(String, Value)> = vec![
        ("_id".into(), Value::Int64(i)),
        ("ss_ticket_number".into(), Value::Int64(i / LINES)),
        ("ss_item_sk".into(), Value::Int64(i % 18_000)),
        ("ss_customer_sk".into(), Value::Int64(i % 100_000)),
        ("ss_store_sk".into(), Value::Int64(i % 12)),
        ("ss_quantity".into(), Value::Int64(i % 100)),
        ("ss_sales_price".into(), Value::Double((i % 15_000) as f64 / 100.0)),
        ("ss_net_paid".into(), Value::Double((i % 90_000) as f64 / 100.0)),
        ("ss_note".into(), Value::from(format!("ticket {} line {}", i / LINES, i % LINES))),
    ];
    fields.extend(
        (0..extra).map(|f| (format!("ss_extra_{f}"), Value::from(format!("value {f} of row {i}")))),
    );
    fields.into_iter().collect()
}

fn allocations_during<T>(f: impl FnOnce() -> T) -> (usize, T) {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    let out = f();
    (ALLOCATIONS.load(Ordering::SeqCst) - before, out)
}

/// Allocations per operation kind on one collection, each the most any
/// of `REPS` repetitions took (after a warm-up repetition).
#[derive(Debug, PartialEq)]
struct Counts {
    find_id: usize,
    find_index: usize,
    find_in: usize,
    update: usize,
    insert: usize,
}

const REPS: i64 = 8;

fn measure(coll: &Collection, width: usize) -> Counts {
    let most = |op: &dyn Fn(i64) -> usize| (0..=REPS).map(op).skip(1).max().unwrap_or(0);
    let find_id = most(&|r| {
        let filter = Filter::eq("_id", 7 * r + 1);
        let (n, found) = allocations_during(|| coll.find(&filter));
        assert_eq!(found.len(), 1);
        n
    });
    let find_index = most(&|r| {
        let filter = Filter::eq("ss_ticket_number", 3 * r + 2);
        let (n, found) = allocations_during(|| coll.find(&filter));
        assert_eq!(found.len(), LINES as usize);
        n
    });
    let find_in = most(&|r| {
        let filter = Filter::is_in("ss_ticket_number", (0..IN_KEYS).map(|k| 40 * k + r));
        let (n, found) = allocations_during(|| coll.find(&filter));
        assert_eq!(found.len(), (IN_KEYS * LINES) as usize);
        n
    });
    let update = most(&|r| {
        let filter = Filter::eq("_id", 11 * r + 3);
        let spec = UpdateSpec::set("ss_quantity", 1_000 + r);
        let (n, res) = allocations_during(|| coll.update(&filter, &spec, false, false));
        assert_eq!(res.expect("update applies").modified, 1);
        n
    });
    let insert = most(&|r| {
        let doc = row(TICKETS * LINES + width as i64 * 100 + r, width);
        let (n, res) = allocations_during(|| coll.insert_one(doc));
        res.expect("insert applies");
        n
    });
    Counts { find_id, find_index, find_in, update, insert }
}

#[test]
fn point_operations_allocate_a_bounded_number_of_times() {
    let dir = std::env::temp_dir().join(format!("doclite-point-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = WalOptions { sync: SyncPolicy::Never, faults: None };
    let (durable, _) = DurableDb::open("db", &dir, options).unwrap();

    let mut counts = Vec::new();
    for (name, width) in [("narrow", 0), ("wide", 24)] {
        let coll = durable.db().collection(name);
        coll.create_index(IndexDef::single("ss_ticket_number")).unwrap();
        coll.insert_many((0..TICKETS * LINES).map(|i| row(i, width))).unwrap();
        let c = measure(&coll, width);
        println!("{name} rows ({} fields): {c:?}", 9 + width);
        counts.push(c);
    }
    let (narrow, wide) = (&counts[0], &counts[1]);

    // A find copies no stored field, so a row 24 fields wider costs the
    // same number of allocations.
    assert_eq!(
        (narrow.find_id, narrow.find_index, narrow.find_in),
        (wide.find_id, wide.find_index, wide.find_in),
        "a find's allocations grew with its rows' field count"
    );
    // Ceilings on the narrow rows, a few allocations above what this
    // engine measures, so a copied row (10 allocations) or a key per
    // probe shows. An update with a WAL attached keeps the row's
    // pre-image for a rollback, so its edit copies the row's field
    // vector and the update's count does grow with the row.
    let ceilings = Counts { find_id: 20, find_index: 26, find_in: 42, update: 42, insert: 40 };
    assert!(narrow.find_id <= ceilings.find_id, "find by _id: {narrow:?}");
    assert!(narrow.find_index <= ceilings.find_index, "find by index: {narrow:?}");
    assert!(narrow.find_in <= ceilings.find_in, "$in find: {narrow:?}");
    assert!(narrow.update <= ceilings.update, "update: {narrow:?}");
    assert!(
        narrow.insert <= ceilings.insert && wide.insert <= ceilings.insert,
        "insert_one: {counts:?}"
    );

    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
