//! The data-migration algorithm (thesis Fig 4.3): `.dat` files →
//! MongoDB collections.
//!
//! Reproduced step-for-step:
//!
//! 1. create a collection;
//! 2. build a `HashMap<position, column name>` for the headerless file
//!    (the thesis's Step 3 — `.dat` files carry no header row);
//! 3. for each line, split on `'|'`;
//! 4. for each field, look the column name up by position and append the
//!    key/value pair — omitting SQL NULLs (empty fields), matching the
//!    storage convention of Fig 4.2;
//! 5. insert the document.
//!
//! The thesis shows the algorithm is `O(m)` in the line count (Section
//! 4.1.2.2); [`MigrationReport`] exposes per-table timings so Table 4.3
//! can be regenerated.

use crate::store::Store;
use doclite_bson::{Document, Value};
use doclite_tpcds::schema::{table_def, ColumnType, TableId};
use doclite_tpcds::DatReader;
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

/// Timing and volume outcome of migrating one table.
#[derive(Clone, Debug)]
pub struct MigrationReport {
    pub table: TableId,
    pub rows: u64,
    pub elapsed: Duration,
    /// Bytes stored (encoded document size) after migration — the
    /// "increase by a factor of nearly nine" effect of Section 4.1.2
    /// is visible by comparing this to the `.dat` file size.
    pub stored_bytes: usize,
}

/// Errors from migration: IO or engine.
#[derive(Debug)]
pub enum MigrateError {
    Io(io::Error),
    Engine(doclite_docstore::Error),
}

impl std::fmt::Display for MigrateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MigrateError::Io(e) => write!(f, "io error: {e}"),
            MigrateError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for MigrateError {}

impl From<io::Error> for MigrateError {
    fn from(e: io::Error) -> Self {
        MigrateError::Io(e)
    }
}

impl From<doclite_docstore::Error> for MigrateError {
    fn from(e: doclite_docstore::Error) -> Self {
        MigrateError::Engine(e)
    }
}

/// Builds the position → column-name map of the algorithm's Step 3.
pub fn header_map(table: TableId) -> HashMap<usize, &'static str> {
    table_def(table)
        .columns
        .iter()
        .enumerate()
        .map(|(i, c)| (i, c.name))
        .collect()
}

/// Parses one `.dat` field under its column's type. dsdgen renders
/// integers bare, decimals with a point, and chars/dates verbatim.
fn parse_field(raw: &str, ty: ColumnType) -> Value {
    match ty {
        ColumnType::Integer => raw
            .parse::<i64>()
            .map(Value::Int64)
            .unwrap_or_else(|_| Value::String(raw.to_owned())),
        ColumnType::Decimal => raw
            .parse::<f64>()
            .map(Value::Double)
            .unwrap_or_else(|_| Value::String(raw.to_owned())),
        ColumnType::Char | ColumnType::Date => Value::String(raw.to_owned()),
    }
}

/// Converts one split `.dat` line into a document (the algorithm's
/// Steps 5–10). NULL (empty) fields are omitted.
pub fn line_to_document(
    table: TableId,
    header: &HashMap<usize, &'static str>,
    fields: &[Option<String>],
) -> Document {
    let def = table_def(table);
    fields
        .iter()
        .enumerate()
        .filter_map(|(i, field)| {
            let raw = field.as_deref()?;
            let name = header.get(&i)?;
            Some(((*name).to_owned(), parse_field(raw, def.columns[i].ty)))
        })
        .collect()
}

/// Migrates one table's `.dat` file into a collection named after the
/// table (Fig 4.3, the whole algorithm).
pub fn migrate_table(
    store: &dyn Store,
    dir: &Path,
    table: TableId,
) -> Result<MigrationReport, MigrateError> {
    let start = Instant::now();
    let header = header_map(table);
    let mut rows = 0u64;
    // Batch inserts so engine locking isn't the measured bottleneck.
    let mut batch: Vec<Document> = Vec::with_capacity(1024);
    for line in DatReader::open(dir, table)? {
        let fields = line?;
        batch.push(line_to_document(table, &header, &fields));
        rows += 1;
        if batch.len() == 1024 {
            store.insert_many(table.name(), std::mem::take(&mut batch))?;
        }
    }
    if !batch.is_empty() {
        store.insert_many(table.name(), batch)?;
    }
    Ok(MigrationReport {
        table,
        rows,
        elapsed: start.elapsed(),
        stored_bytes: store.collection_data_size(table.name()),
    })
}

/// Migrates all 24 tables, returning per-table reports in Table 3.6
/// order.
pub fn migrate_all(store: &dyn Store, dir: &Path) -> Result<Vec<MigrationReport>, MigrateError> {
    TableId::ALL
        .iter()
        .map(|&t| migrate_table(store, dir, t))
        .collect()
}

/// Fast path used by query-focused experiments: loads a table straight
/// from the generator, skipping the `.dat` round-trip (identical
/// resulting collections — see the `dat_and_direct_loads_agree` test).
pub fn load_table_direct(
    store: &dyn Store,
    gen: &doclite_tpcds::Generator,
    table: TableId,
) -> Result<u64, MigrateError> {
    let mut batch: Vec<Document> = Vec::with_capacity(1024);
    let mut rows = 0u64;
    for doc in gen.documents(table) {
        batch.push(doc);
        rows += 1;
        if batch.len() == 1024 {
            store.insert_many(table.name(), std::mem::take(&mut batch))?;
        }
    }
    if !batch.is_empty() {
        store.insert_many(table.name(), batch)?;
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_docstore::{Database, Filter};
    use doclite_tpcds::Generator;
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("doclite-mig-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn header_map_positions_match_schema() {
        let h = header_map(TableId::CustomerAddress);
        assert_eq!(h[&0], "ca_address_sk");
        assert_eq!(h[&6], "ca_city");
        assert_eq!(h.len(), 13);
    }

    #[test]
    fn line_to_document_omits_nulls_and_types_fields() {
        let h = header_map(TableId::Inventory);
        let fields = vec![
            Some("2450815".to_owned()),
            Some("7".to_owned()),
            None,
            Some("250".to_owned()),
        ];
        let doc = line_to_document(TableId::Inventory, &h, &fields);
        assert_eq!(doc.get("inv_date_sk"), Some(&Value::Int64(2_450_815)));
        assert_eq!(doc.get("inv_item_sk"), Some(&Value::Int64(7)));
        assert!(doc.get("inv_warehouse_sk").is_none());
        assert_eq!(doc.len(), 3);
    }

    #[test]
    fn migrate_table_roundtrip() {
        let dir = tmpdir("table");
        let gen = Generator::new(0.001);
        doclite_tpcds::write_table(&dir, &gen, TableId::Store).unwrap();

        let db = Database::new("Dataset_test");
        let report = migrate_table(&db, &dir, TableId::Store).unwrap();
        assert_eq!(report.rows, gen.row_count(TableId::Store));
        assert!(report.stored_bytes > 0);
        let coll = db.get_collection("store").unwrap();
        assert_eq!(coll.len() as u64, report.rows);
        // Spot-check a document: s_store_sk 1 exists with typed fields.
        let doc = coll.find_one(&Filter::eq("s_store_sk", 1i64)).unwrap();
        assert!(matches!(doc.get("s_city"), Some(Value::String(_))));
        assert!(matches!(doc.get("s_gmt_offset"), Some(Value::Double(_))));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn dat_and_direct_loads_agree() {
        let dir = tmpdir("agree");
        let gen = Generator::new(0.001);
        doclite_tpcds::write_table(&dir, &gen, TableId::Warehouse).unwrap();

        let via_dat = Database::new("a");
        migrate_table(&via_dat, &dir, TableId::Warehouse).unwrap();
        let direct = Database::new("b");
        load_table_direct(&direct, &gen, TableId::Warehouse).unwrap();

        let mut a = via_dat.get_collection("warehouse").unwrap().all_docs();
        let mut b = direct.get_collection("warehouse").unwrap().all_docs();
        // Strip the engine-assigned _ids before comparing.
        for d in a.iter_mut().chain(b.iter_mut()) {
            d.remove("_id");
        }
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            assert_eq!(x, y);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn migrate_all_loads_24_collections() {
        let dir = tmpdir("all");
        let gen = Generator::new(0.0005);
        doclite_tpcds::write_all(&dir, &gen).unwrap();
        let db = Database::new("Dataset_tiny");
        let reports = migrate_all(&db, &dir).unwrap();
        assert_eq!(reports.len(), 24);
        for r in &reports {
            assert_eq!(r.rows, gen.row_count(r.table), "{}", r.table);
        }
        assert_eq!(db.collection_names().len(), 24);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn stored_size_exceeds_dat_size() {
        // The thesis's ~9x blow-up from repeating keys per document: at
        // minimum the stored form must exceed the raw text.
        let dir = tmpdir("blowup");
        let gen = Generator::new(0.001);
        doclite_tpcds::write_table(&dir, &gen, TableId::StoreSales).unwrap();
        let dat_size = std::fs::metadata(doclite_tpcds::dat_path(&dir, TableId::StoreSales))
            .unwrap()
            .len() as usize;
        let db = Database::new("d");
        let report = migrate_table(&db, &dir, TableId::StoreSales).unwrap();
        assert!(
            report.stored_bytes > 2 * dat_size,
            "stored {} vs dat {dat_size}",
            report.stored_bytes
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
