//! Pins that storing a generated row does not double its field vector.
//!
//! `Generator::document` builds each row with an exactly sized field
//! vector, and an insert puts the `_id` in front of it
//! (`Document::ensure_id`). A plain `Vec::insert` at full capacity
//! doubles the vector, leaving half of every stored document's fields
//! as spare capacity; `ensure_id` reserves exactly the one slot it
//! needs.
//!
//! This lives in its own integration binary because it installs a
//! counting `#[global_allocator]`, and the single `#[test]` here is the
//! whole binary, so no other thread reallocates meanwhile.

use doclite_bson::{Document, Value};
use doclite_docstore::Collection;
use doclite_tpcds::{schema::TableId, Generator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// One document field, the element of a document's field vector.
const FIELD: usize = std::mem::size_of::<(String, Value)>();

/// System allocator that, while armed, counts the reallocations that
/// grow a field-sized, field-aligned vector by more than one element.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static FIELD_VEC_GROWTHS: AtomicUsize = AtomicUsize::new(0);
static FIELD_VEC_DOUBLINGS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        System.alloc(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let field_vec = layout.align() == std::mem::align_of::<(String, Value)>()
            && layout.size().is_multiple_of(FIELD)
            && new_size > layout.size();
        if ARMED.load(Ordering::Relaxed) && field_vec {
            FIELD_VEC_GROWTHS.fetch_add(1, Ordering::Relaxed);
            if new_size > layout.size() + FIELD {
                FIELD_VEC_DOUBLINGS.fetch_add(1, Ordering::Relaxed);
            }
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

#[test]
fn inserting_generated_rows_allocates_no_second_field_vector() {
    let gen = Generator::new(0.01);
    let docs: Vec<Document> = (0..1024).map(|i| gen.document(TableId::StoreSales, i)).collect();
    let coll = Collection::new("store_sales");

    ARMED.store(true, Ordering::SeqCst);
    let inserted = coll.insert_many(docs).expect("generated rows insert");
    ARMED.store(false, Ordering::SeqCst);

    assert_eq!(inserted, 1024);
    // Rows whose every column is set arrive exactly sized and grow by
    // the one `_id` slot; rows with a NULL column have room already.
    assert!(FIELD_VEC_GROWTHS.load(Ordering::SeqCst) > 0, "no exactly sized row was inserted");
    assert_eq!(FIELD_VEC_DOUBLINGS.load(Ordering::SeqCst), 0, "a field vector grew past its `_id` slot");
}
