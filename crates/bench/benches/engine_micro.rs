//! Criterion micro-benchmarks of the document-store engine: the codec,
//! filter evaluation (interpreted vs compiled), indexed vs scanned
//! lookups, and the aggregation pipeline.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use doclite_bson::{codec, doc, Document, Value};
use doclite_docstore::query::matcher::{compile, matches, matches_compiled};
use doclite_docstore::{
    Accumulator, Collection, Expr, Filter, GroupId, IndexDef, Pipeline,
};
use std::hint::black_box;

fn sample_doc() -> Document {
    doc! {
        "ss_sold_date_sk" => 2_450_815i64,
        "ss_item_sk" => 1234i64,
        "ss_customer_sk" => 999i64,
        "ss_quantity" => 42i64,
        "ss_list_price" => 35.99f64,
        "ss_coupon_amt" => 0.0f64,
        "store" => doc!{"s_city" => "Midway", "s_state" => "OH"},
        "tags" => Value::Array(vec![Value::from("a"), Value::from("b")]),
    }
}

fn bench_codec(c: &mut Criterion) {
    let d = sample_doc();
    let bytes = codec::encode_document(&d);
    c.bench_function("codec/encode", |b| {
        b.iter(|| black_box(codec::encode_document(black_box(&d))))
    });
    c.bench_function("codec/decode", |b| {
        b.iter(|| black_box(codec::decode_document(black_box(&bytes)).unwrap()))
    });
    c.bench_function("codec/encoded_size", |b| {
        b.iter(|| black_box(codec::encoded_size(black_box(&d))))
    });
}

fn bench_matcher(c: &mut Criterion) {
    let d = sample_doc();
    // A wide $in — the semi-join shape the compiled path exists for.
    let values: Vec<Value> = (0..2000i64).map(Value::Int64).collect();
    let filter = Filter::and([
        Filter::In { path: "ss_customer_sk".into(), values },
        Filter::eq("store.s_city", "Midway"),
    ]);
    c.bench_function("matcher/interpreted_wide_in", |b| {
        b.iter(|| black_box(matches(black_box(&filter), black_box(&d))))
    });
    let compiled = compile(&filter);
    c.bench_function("matcher/compiled_wide_in", |b| {
        b.iter(|| black_box(matches_compiled(black_box(&compiled), black_box(&d))))
    });
}

fn seeded_collection(n: i64) -> Collection {
    let coll = Collection::new("bench");
    coll.insert_many((0..n).map(|i| {
        doc! {"_id" => i, "k" => i, "grp" => i % 100, "v" => (i * 7 % 1000) as f64}
    }))
    .expect("insert");
    coll
}

fn bench_lookup(c: &mut Criterion) {
    let coll = seeded_collection(50_000);
    c.bench_function("find/collscan_eq", |b| {
        b.iter(|| black_box(coll.find(&Filter::eq("grp", 42i64))))
    });
    coll.create_index(IndexDef::single("grp")).expect("index");
    c.bench_function("find/ixscan_eq", |b| {
        b.iter(|| black_box(coll.find(&Filter::eq("grp", 42i64))))
    });
    c.bench_function("find/ixscan_point_id", |b| {
        b.iter(|| black_box(coll.find(&Filter::eq("_id", 25_000i64))))
    });
}

fn bench_insert(c: &mut Criterion) {
    c.bench_function("insert/one_with_id_index", |b| {
        let coll = Collection::new("ins");
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            coll.insert_one(doc! {"_id" => i, "v" => i * 3}).unwrap()
        })
    });
    c.bench_function("insert/batch_1000", |b| {
        b.iter_batched(
            || (0..1000i64).map(|i| doc! {"k" => i}).collect::<Vec<_>>(),
            |docs| Collection::new("batch").insert_many(docs).unwrap(),
            BatchSize::SmallInput,
        )
    });
}

fn bench_pipeline(c: &mut Criterion) {
    let coll = seeded_collection(50_000);
    let p = Pipeline::new()
        .match_stage(Filter::lt("k", 25_000i64))
        .group(
            GroupId::Expr(Expr::field("grp")),
            [("total", Accumulator::sum_field("v")), ("n", Accumulator::count())],
        )
        .sort([("total", -1)]);
    c.bench_function("aggregate/match_group_sort_50k", |b| {
        b.iter(|| black_box(coll.aggregate(&p).unwrap()))
    });
}

fn bench_agg_streaming(c: &mut Criterion) {
    // Q7 shape: a selective leading $match (one of 100 groups), $group
    // with averages, $sort, $limit. With the `grp` index in place the
    // driver index-scans ~500 documents and clones only the survivors.
    let coll = seeded_collection(50_000);
    coll.create_index(IndexDef::single("grp")).expect("index");
    let p = Pipeline::new()
        .match_stage(Filter::eq("grp", 42i64))
        .group(
            GroupId::Expr(Expr::field("k")),
            [("avg_v", Accumulator::avg_field("v")), ("n", Accumulator::count())],
        )
        .sort([("_id", 1)])
        .limit(100);
    c.bench_function("agg_streaming/streaming", |b| {
        b.iter(|| black_box(coll.aggregate(&p).unwrap()))
    });
}

fn bench_wal_overhead(c: &mut Criterion) {
    // What logging costs the write path. The baseline collection has no
    // WAL attached; the durable ones log every insert, with fsync policy
    // as the variable. `Never` isolates pure frame-encoding + file-write
    // overhead — the healthy-path cost a cluster without durability
    // never pays.
    use doclite_docstore::{DurableDb, SyncPolicy, WalOptions};
    let scratch = std::env::temp_dir().join(format!("doclite_walbench_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut g = c.benchmark_group("wal_overhead");
    g.bench_function("insert_no_wal", |b| {
        let coll = Collection::new("w0");
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            coll.insert_one(doc! {"_id" => i, "v" => i * 3}).unwrap()
        })
    });
    for (label, sync) in [
        ("insert_wal_never", SyncPolicy::Never),
        ("insert_wal_every64", SyncPolicy::EveryN(64)),
    ] {
        let dir = scratch.join(label);
        let (handle, _) = DurableDb::open("walbench", &dir, WalOptions { sync, faults: None })
            .expect("open durable db");
        let coll = handle.db().collection("w1");
        let mut i = 0i64;
        g.bench_function(label, |b| {
            b.iter(|| {
                i += 1;
                coll.insert_one(doc! {"_id" => i, "v" => i * 3}).unwrap()
            })
        });
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

fn bench_wal_commit(c: &mut Criterion) {
    // The log's write path alone, per commit: stage `n` generated
    // `store_sales` rows from borrows, then number, checksum, write (one
    // `write` per commit) and publish them. Divide the 1,024-row time by
    // 1,024 for the per-record cost; the 1-row commit is what a single
    // `insert_one` pays. `Never` leaves out fsync; the default policy
    // syncs every 64th commit.
    use doclite_docstore::{SyncPolicy, Wal, WalBatch, WalOptions};
    use doclite_tpcds::{Generator, TableId};
    let rows: Vec<Document> = Generator::new(0.001).documents(TableId::StoreSales).take(1024).collect();
    let scratch = std::env::temp_dir().join(format!("doclite_walcommit_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    let mut g = c.benchmark_group("wal_commit");
    for (policy, sync) in [("never", SyncPolicy::Never), ("default", WalOptions::default().sync)] {
        for n in [1usize, 1024] {
            let label = format!("{n}_docs_sync_{policy}");
            let wal = Wal::open(scratch.join(format!("{label}.log")), WalOptions { sync, faults: None })
                .expect("open scratch log");
            g.bench_function(&label, |b| {
                b.iter(|| {
                    let mut batch = WalBatch::new();
                    for row in &rows[..n] {
                        batch.insert("store_sales", row);
                    }
                    wal.commit(batch).unwrap()
                })
            });
            // Keep the scratch file from growing across groups.
            wal.truncate().expect("truncate scratch log");
        }
    }
    g.finish();
    let _ = std::fs::remove_dir_all(&scratch);
}

criterion_group!(
    benches,
    bench_codec,
    bench_matcher,
    bench_lookup,
    bench_insert,
    bench_pipeline,
    bench_agg_streaming,
    bench_wal_overhead,
    bench_wal_commit
);
criterion_main!(benches);
