//! Layer probes over a workload's own documents: the codec and the WAL,
//! timed through their public calls.

use crate::metrics::Report;
use doclite_bson::codec::{decode_document, encode_document};
use doclite_bson::Document;
use doclite_core::WORKLOAD_TABLES;
use doclite_docstore::{Wal, WalOptions, WalRecord};
use doclite_tpcds::{Generator, TableId};
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

const WAL_APPENDS: usize = 10_000;
const WAL_SYNCS: usize = 100;

/// `bson.encode_ns_per_byte` / `bson.decode_ns_per_byte` over `sample`.
pub fn bson_codec(sample: &[Document], report: &mut Report) {
    let start = Instant::now();
    let encoded: Vec<Vec<u8>> = sample
        .iter()
        .map(|d| black_box(encode_document(d)))
        .collect();
    let encode_ns = start.elapsed().as_nanos() as f64;
    let bytes: usize = encoded.iter().map(Vec::len).sum();
    let start = Instant::now();
    for e in &encoded {
        black_box(decode_document(e).expect("the codec reads what it wrote"));
    }
    let decode_ns = start.elapsed().as_nanos() as f64;
    report.set("bson.encode_ns_per_byte", encode_ns / bytes.max(1) as f64);
    report.set("bson.decode_ns_per_byte", decode_ns / bytes.max(1) as f64);
}

/// `wal.append_us` (10k appends under the default sync policy, its
/// periodic fsyncs included) and `wal.sync_us` (100 explicit syncs, each
/// after one append) on a scratch log.
pub fn wal(sample: &[Document], scratch: &Path, report: &mut Report) {
    if sample.is_empty() {
        return;
    }
    std::fs::create_dir_all(scratch).expect("the scratch directory can be created");
    let path = scratch.join("wal-probe.log");
    let log = Wal::open(&path, WalOptions::default()).expect("a scratch log opens");
    let records: Vec<WalRecord> = sample
        .iter()
        .cycle()
        .take(WAL_APPENDS)
        .map(|doc| WalRecord::Insert {
            coll: "probe".into(),
            doc: doc.clone(),
        })
        .collect();
    let start = Instant::now();
    for r in &records {
        log.append(r).expect("a scratch log appends");
    }
    report.set(
        "wal.append_us",
        start.elapsed().as_secs_f64() * 1e6 / records.len() as f64,
    );
    let mut sync_s = 0.0;
    for r in records.iter().take(WAL_SYNCS) {
        log.append(r).expect("a scratch log appends");
        let start = Instant::now();
        log.sync().expect("a scratch log syncs");
        sync_s += start.elapsed().as_secs_f64();
    }
    report.set("wal.sync_us", sync_s * 1e6 / WAL_SYNCS as f64);
    drop(log);
    let _ = std::fs::remove_file(&path);
}

/// Bytes the workload tables would take as dsdgen `.dat` text.
pub fn dat_bytes(sf: f64, with_denorm_extras: bool) -> u64 {
    let gen = Generator::new(sf);
    let mut tables = WORKLOAD_TABLES.to_vec();
    if with_denorm_extras {
        tables.extend([TableId::Reason, TableId::TimeDim]);
    }
    tables
        .iter()
        .flat_map(|&t| gen.rows(t))
        // One separator or newline follows every field.
        .map(|row| {
            row.iter()
                .map(|c| c.to_dat_field().len() as u64 + 1)
                .sum::<u64>()
        })
        .sum()
}
