//! # doclite-docstore
//!
//! An in-process document store reproducing the MongoDB 3.0 semantics the
//! thesis's experiments exercise: schemaless collections of BSON-like
//! documents, a unique `_id` index plus secondary B-tree / hashed /
//! compound / multikey indexes selected under the index-prefix rule, the
//! match expression language, `$set`-family updates with upsert/multi,
//! and the aggregation pipeline (`$match`, `$project`, `$group`, `$sort`,
//! `$limit`, `$skip`, `$unwind`, `$count`, `$out`).
//!
//! ```
//! use doclite_docstore::{Database, Filter, Pipeline, Accumulator, GroupId, Expr, IndexDef};
//! use doclite_bson::doc;
//!
//! let db = Database::new("shop");
//! let sales = db.collection("sales");
//! sales.insert_one(doc! {"item" => "apple", "qty" => 5i64}).unwrap();
//! sales.insert_one(doc! {"item" => "apple", "qty" => 7i64}).unwrap();
//! sales.create_index(IndexDef::single("item")).unwrap();
//!
//! let out = db.aggregate("sales", &Pipeline::new()
//!     .match_stage(Filter::eq("item", "apple"))
//!     .group(GroupId::Expr(Expr::field("item")),
//!            [("total", Accumulator::sum_field("qty"))])).unwrap();
//! assert_eq!(out[0].get("total"), Some(&doclite_bson::Value::Int64(12)));
//! ```

pub mod agg;
pub mod changes;
pub mod collection;
pub mod columnar;
pub mod database;
pub mod dump;
pub mod error;
pub mod index;
pub mod keybytes;
pub mod ordvalue;
pub mod pool;
pub mod query;
pub mod stats;
pub mod storage;
pub mod update;
pub mod views;
pub mod wal;

pub use agg::{
    auto_morsel_size, Accumulator, CompiledExpr, CompiledSortSpec, Expr, GroupId, LookupMeta,
    Pipeline, ProjectField, Stage,
};
pub use collection::{project_paths, AggExplain, Collection, Explain, FindOptions, StageExplain};
pub use stats::CollStats;
pub use pool::{parallel_for, parallel_workers};
pub use database::Database;
pub use dump::{dump_collection, dump_database, restore_collection, restore_database, DumpReader};
pub use error::{Error, Result};
pub use index::{IndexDef, IndexKind, SortOrder};
pub use ordvalue::{CompoundKey, OrdValue};
pub use query::{compile, matches_compiled, CmpOp, CompiledFilter, Filter};
pub use storage::{crc32, Crc32, DocId, StorageFaults};
pub use update::{BulkUpdate, UpdateOp, UpdateResult, UpdateSpec};
pub use changes::{watch, ChangeCursor, ChangeEvent, ChangeScope};
pub use views::{ViewSet, ViewStats};
pub use wal::{
    apply_record, db_fingerprint, scan_wal, DurableDb, Frame, RecoveryReport, SyncPolicy, Wal,
    WalBatch, WalOptions, WalRecord,
};

/// Compile-time proof that the types worker threads share by reference
/// in the stress driver are `Send + Sync`. Never called; a violation
/// (e.g. an accidental `Rc` or raw-cell field) fails the build here
/// instead of deep inside a `thread::scope` in a downstream crate.
#[allow(dead_code)]
fn assert_shared_types_are_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Database>();
    check::<Collection>();
    check::<DurableDb>();
    check::<Wal>();
    check::<StorageFaults>();
}
