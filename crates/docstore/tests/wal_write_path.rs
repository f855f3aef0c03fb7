//! Pins what the WAL write path costs per logged document: a group
//! commit is **one** `write`, and logging a document clones nothing —
//! its frame is encoded from the stored document where it lies.
//!
//! Like `kernel_alloc.rs` this is its own integration binary with a
//! single `#[test]`, because it installs a counting `#[global_allocator]`
//! and the counts only mean something if no other test thread allocates
//! meanwhile.

use doclite_bson::{doc, Document};
use doclite_docstore::wal::{scan_wal, DurableDb, SyncPolicy, WalOptions};
use doclite_docstore::{Collection, StorageFaults};
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

const DOCS: usize = 1024;

/// `store_sales`-shaped rows: 23 fields, so one clone of one document is
/// two dozen allocations (the field vector, every key, every string).
fn rows(from: i64) -> Vec<Document> {
    (from..from + DOCS as i64)
        .map(|i| {
            doc! {
                "_id" => i,
                "ss_sold_date_sk" => 2_450_816 + i % 1_800,
                "ss_sold_time_sk" => 28_800 + i % 40_000,
                "ss_item_sk" => i % 18_000,
                "ss_customer_sk" => i % 100_000,
                "ss_cdemo_sk" => i % 1_920_800,
                "ss_hdemo_sk" => i % 7_200,
                "ss_addr_sk" => i % 50_000,
                "ss_store_sk" => i % 12,
                "ss_promo_sk" => i % 300,
                "ss_ticket_number" => i / 12,
                "ss_quantity" => i % 100,
                "ss_wholesale_cost" => (i % 10_000) as f64 / 100.0,
                "ss_list_price" => (i % 20_000) as f64 / 100.0,
                "ss_sales_price" => (i % 15_000) as f64 / 100.0,
                "ss_ext_discount_amt" => 0.0,
                "ss_ext_sales_price" => (i % 90_000) as f64 / 100.0,
                "ss_ext_wholesale_cost" => (i % 80_000) as f64 / 100.0,
                "ss_ext_list_price" => (i % 95_000) as f64 / 100.0,
                "ss_ext_tax" => (i % 900) as f64 / 100.0,
                "ss_coupon_amt" => 0.0,
                "ss_net_paid" => (i % 90_000) as f64 / 100.0,
                "ss_note" => format!("ticket {} line {}", i / 12, i % 12),
            }
        })
        .collect()
}

fn allocations_during(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.load(Ordering::SeqCst);
    f();
    ALLOCATIONS.load(Ordering::SeqCst) - before
}

#[test]
fn a_logged_insert_many_is_one_write_and_clones_no_document() {
    let dir = std::env::temp_dir().join(format!("doclite-wal-write-path-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    // What inserting the same already-built documents costs with no log.
    let plain = Collection::new("store_sales");
    plain.insert_many(rows(-(DOCS as i64))).unwrap();
    let batch = rows(0);
    let unlogged = allocations_during(|| {
        plain.insert_many(batch).unwrap();
    });
    let one_clone = {
        let row = rows(0).swap_remove(0);
        allocations_during(|| drop(std::hint::black_box(row.clone())))
    };
    assert!(one_clone >= 24, "a row clone is {one_clone} allocations");

    let faults = StorageFaults::new();
    let options = WalOptions { sync: SyncPolicy::Never, faults: Some(faults.clone()) };
    let (durable, _) = DurableDb::open("db", &dir, options).unwrap();
    let logged_coll = durable.db().collection("store_sales");
    logged_coll.insert_many(rows(-(DOCS as i64))).unwrap();
    let batch = rows(0);
    let writes = faults.writes();
    let logged = allocations_during(|| {
        logged_coll.insert_many(batch).unwrap();
    });
    assert_eq!(faults.writes() - writes, 1, "one write per group commit, not one per frame");

    // Per logged document: its body copied once into the change ring.
    // Per commit: the staging buffer's growth and the rollback slot list.
    // At a clone per document this would be `DOCS * one_clone` more.
    let extra = logged.saturating_sub(unlogged);
    assert!(
        extra <= DOCS + 64,
        "logging {DOCS} documents cost {extra} allocations over the unlogged insert \
         ({logged} vs {unlogged}); one clone of one document is {one_clone}"
    );

    // And the log holds them all.
    let scan = scan_wal(durable.wal().path()).unwrap();
    assert_eq!(scan.frames.len(), 2 * DOCS);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}
