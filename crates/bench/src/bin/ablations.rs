//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. index vs. collection scan for the dimension-filter step;
//! 2. hashed vs. range sharding for `store_sales` (distribution, jumbo
//!    chunks, and targetability — thesis Section 2.1.3.3);
//! 3. one `$in` semi-join vs. per-key point queries (Fig 4.8 step ii);
//! 4. overlapped vs. serial scatter-gather legs (the thesis's future-work
//!    multithreading suggestion), both clocks read from one run;
//! 5. embedding only aggregation-relevant dimensions vs. all dimensions
//!    (the Fig 4.8 step-iii optimization);
//! 6. durability cost and recovery time: WAL sync-policy overhead on a
//!    bulk load, and crash-recovery time against checkpoint freshness
//!    (full WAL replay vs checkpoint + tail vs fresh checkpoint).
//!
//! Run with `cargo run --release -p doclite-bench --bin ablations`.

use doclite_bench::sf_small;
use doclite_core::experiment::{
    setup_environment, DataModel, Deployment, ExperimentSpec, SetupOptions,
};
use doclite_core::normalize::Embed;
use doclite_core::queries::{denormalized_pipeline, fact_of, filter_dim_pks, semi_join_into};
use doclite_core::store::Store;
use doclite_core::{fmt_duration, normalize, TextTable};
use doclite_docstore::{Database, DurableDb, Filter, IndexDef, SyncPolicy, WalOptions};
use doclite_sharding::{NetworkModel, ShardKey, ShardedCluster};
use doclite_tpcds::{Generator, QueryId, QueryParams, TableId};
use std::time::Instant;

fn time<R>(f: impl FnOnce() -> R) -> (R, std::time::Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

fn main() {
    let sf = sf_small();
    let params = QueryParams::for_scale(sf);
    println!("ablations at SF {sf}\n");

    ablation_dim_index(sf, &params);
    ablation_shard_key(sf);
    ablation_semi_join(sf, &params);
    ablation_scatter_overlap(sf);
    ablation_embed_scope(sf, &params);
    ablation_durability(sf);
}

/// 1. Dimension filtering with and without a secondary index.
fn ablation_dim_index(sf: f64, params: &QueryParams) {
    let db = Database::new("abl1");
    let gen = Generator::new(sf);
    doclite_core::load_table_direct(&db, &gen, TableId::DateDim).expect("load");
    let filter = Filter::eq("d_year", params.q7.year);

    let (pks, scan) = time(|| filter_dim_pks(&db, "date_dim", &filter, "d_date_sk"));
    db.collection("date_dim").create_index(IndexDef::single("d_year")).expect("index");
    let (pks_ix, ix) = time(|| filter_dim_pks(&db, "date_dim", &filter, "d_date_sk"));
    assert_eq!(pks.len(), pks_ix.len());

    let mut t = TextTable::new(["dimension filter (date_dim, d_year)", "time", "rows"]);
    t.row(["collection scan".to_owned(), fmt_duration(scan), pks.len().to_string()]);
    t.row(["single-field index".to_owned(), fmt_duration(ix), pks_ix.len().to_string()]);
    println!("{}", t.render());
}

/// 2. Range vs hashed shard key for store_sales.
fn ablation_shard_key(sf: f64) {
    let gen = Generator::new(sf);
    let mut t = TextTable::new([
        "shard key",
        "chunks",
        "jumbo",
        "max/min docs per shard",
        "eq targeted?",
        "range targeted?",
    ]);
    for (label, key) in [
        ("range(ss_ticket_number)", ShardKey::range(["ss_ticket_number"])),
        ("hashed(ss_ticket_number)", ShardKey::hashed("ss_ticket_number")),
        ("range(ss_store_sk) [low card]", ShardKey::range(["ss_store_sk"])),
    ] {
        let cluster = ShardedCluster::new(3, "abl2", NetworkModel::free());
        cluster
            .shard_collection("store_sales", key, 256 * 1024)
            .expect("shard");
        cluster
            .router()
            .insert_many(
                "store_sales",
                gen.documents(TableId::StoreSales).collect::<Vec<_>>(),
            )
            .expect("load");
        cluster.balance().expect("balance");
        let meta = cluster.router().config().meta("store_sales").expect("meta");
        let per_shard: Vec<usize> = cluster
            .router()
            .shards()
            .iter()
            .map(|s| s.db().get_collection("store_sales").map(|c| c.len()).unwrap_or(0))
            .collect();
        let eq = cluster
            .router()
            .explain_targeting("store_sales", &Filter::eq("ss_ticket_number", 10i64));
        let range = cluster.router().explain_targeting(
            "store_sales",
            &Filter::between("ss_ticket_number", 10i64, 50i64),
        );
        t.row([
            label.to_owned(),
            meta.chunks.len().to_string(),
            meta.chunks.iter().filter(|c| c.jumbo).count().to_string(),
            format!(
                "{}/{}",
                per_shard.iter().max().expect("shards"),
                per_shard.iter().min().expect("shards")
            ),
            (eq.is_targeted() && eq.shards().len() == 1).to_string(),
            (range.is_targeted() && range.shards().len() < 3).to_string(),
        ]);
    }
    println!("{}", t.render());
}

/// 3. Semi-join via one $in vs per-key point queries.
fn ablation_semi_join(sf: f64, params: &QueryParams) {
    let db = Database::new("abl3");
    let gen = Generator::new(sf);
    for t in [TableId::StoreSales, TableId::DateDim] {
        doclite_core::load_table_direct(&db, &gen, t).expect("load");
    }
    let date_pks = filter_dim_pks(
        &db,
        "date_dim",
        &Filter::eq("d_year", params.q7.year),
        "d_date_sk",
    );

    let (n_in, via_in) = time(|| {
        semi_join_into(&db, "store_sales", &[("ss_sold_date_sk", &date_pks)], Filter::True, "i1", &[])
            .expect("semi-join")
            .0
    });
    let (n_pt, via_points) = time(|| {
        db.drop_collection("i2");
        let mut n = 0;
        for pk in &date_pks {
            let mut docs = db.find("store_sales", &Filter::eq("ss_sold_date_sk", pk.clone()));
            for d in &mut docs {
                d.remove("_id");
            }
            n += Store::insert_many(&db, "i2", docs).expect("insert");
        }
        n
    });
    assert_eq!(n_in, n_pt);

    let mut t = TextTable::new(["fact semi-join (365 date keys)", "time", "rows"]);
    t.row(["single $in filter".to_owned(), fmt_duration(via_in), n_in.to_string()]);
    t.row([
        format!("{} point queries", date_pks.len()),
        fmt_duration(via_points),
        n_pt.to_string(),
    ]);
    println!("{}", t.render());
}

/// 4. Overlapped vs serial scatter-gather legs on a broadcast find: one
///    run under the LAN model records both clocks — the serial one sums
///    the legs, the parallel one advances by the slowest.
fn ablation_scatter_overlap(sf: f64) {
    let gen = Generator::new(sf);
    let cluster = ShardedCluster::new(3, "abl4", NetworkModel::lan());
    cluster
        .shard_collection("store_sales", ShardKey::range(["ss_ticket_number"]), 256 * 1024)
        .expect("shard");
    cluster
        .router()
        .insert_many("store_sales", gen.documents(TableId::StoreSales).collect::<Vec<_>>())
        .expect("load");
    cluster.balance().expect("balance");
    let stats = cluster.router().net_stats();
    stats.reset();
    // Broadcast: predicate not on the shard key.
    let (n, cpu) =
        time(|| cluster.router().find("store_sales", &Filter::gt("ss_quantity", 50i64)).len());
    let mut t = TextTable::new(["scatter-gather (broadcast find)", "modelled network", "rows"]);
    let ms = |d: std::time::Duration| format!("{:.2} ms", d.as_secs_f64() * 1e3);
    t.row(["legs overlap (slowest leg)".to_owned(), ms(stats.parallel_time()), n.to_string()]);
    t.row(["legs in sequence (sum of legs)".to_owned(), ms(stats.serial_time()), n.to_string()]);
    println!("{}", t.render());
    println!("({} legs; shard and router CPU for the same find: {})\n", stats.exchanges(), ms(cpu));
}

/// 5. Embed only the aggregation-relevant dimension vs every dimension.
fn ablation_embed_scope(sf: f64, params: &QueryParams) {
    let env = setup_environment(
        &ExperimentSpec {
            id: 0,
            sf,
            model: DataModel::Normalized,
            deployment: Deployment::Standalone,
        },
        &SetupOptions { network: NetworkModel::free(), max_chunk_size: 1 << 20, ..SetupOptions::default() },
    )
    .expect("setup");
    let store = env.store();

    // Q7's derived plan: its step i once, then step ii afresh per row.
    let (_, pipeline) = denormalized_pipeline(QueryId::Q7, params);
    let relevant = normalize(fact_of(QueryId::Q7), &pipeline).expect("Q7 derives");
    let keys: Vec<_> = relevant.dim_filters.iter().map(|d| d.keys(store)).collect();
    let mut every = relevant.clone();
    every.embeds.extend(
        relevant.dim_filters.iter().map(|d| Embed { fk: d.fk.clone(), nested: Vec::new() }),
    );

    let mut t = TextTable::new(["Q7 embedding scope", "time", "dims embedded"]);
    for (label, plan) in
        [("aggregation-relevant only (thesis)", &relevant), ("every joined dimension", &every)]
    {
        let referenced = plan.semi_join(store, &keys).expect("semi-join");
        let (n, took) = time(|| plan.embed(store, referenced).expect("embed"));
        t.row([label.to_owned(), fmt_duration(took), n.to_string()]);
    }
    println!("{}", t.render());
}

/// 6. What durability costs, and what buys recovery time back.
///
/// Part one loads `store_sales` in 256-document batches under each WAL
/// sync policy (plus a no-WAL baseline): group commit makes even
/// `Always` pay one fsync per *batch*, not per document. Part two
/// crashes (drops without sealing) a loaded store and times
/// `DurableDb::open` against checkpoint freshness — the recovery-time
/// ablation EXPERIMENTS.md discusses.
fn ablation_durability(sf: f64) {
    let gen = Generator::new(sf);
    let docs: Vec<_> = gen.documents(TableId::StoreSales).collect();
    let scratch = std::env::temp_dir().join(format!("doclite_abl7_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);

    let load = |handle: &DurableDb| {
        let coll = handle.db().collection("store_sales");
        for batch in docs.chunks(256) {
            coll.insert_many(batch.to_vec()).expect("insert");
        }
    };

    let mut t = TextTable::new(["WAL sync policy (bulk load)", "time", "log bytes"]);
    let (_, baseline) = time(|| {
        let db = Database::new("abl7_base");
        for batch in docs.chunks(256) {
            db.collection("store_sales").insert_many(batch.to_vec()).expect("insert");
        }
    });
    t.row(["no WAL (in-memory)".to_owned(), fmt_duration(baseline), "0".to_owned()]);
    for (label, sync) in [
        ("Never (crash-consistent file)", SyncPolicy::Never),
        ("EveryN(64) commits", SyncPolicy::EveryN(64)),
        ("Always (group commit/batch)", SyncPolicy::Always),
    ] {
        let dir = scratch.join(label.split(' ').next().expect("label"));
        let (handle, _) = DurableDb::open("abl7", &dir, WalOptions { sync, faults: None })
            .expect("open");
        let (_, took) = time(|| load(&handle));
        let log_bytes =
            std::fs::metadata(handle.wal().path()).map(|m| m.len()).unwrap_or(0);
        t.row([label.to_owned(), fmt_duration(took), log_bytes.to_string()]);
    }
    println!("{}", t.render());

    let mut t = TextTable::new([
        "recovery vs checkpoint freshness",
        "frames replayed",
        "ckpt docs",
        "recovery time",
    ]);
    for (label, checkpoint_at) in [
        ("no checkpoint (full replay)", None),
        ("checkpoint at half the load", Some(docs.len() / 2)),
        ("fresh checkpoint (empty tail)", Some(docs.len())),
    ] {
        let dir = scratch.join(format!("rec_{}", label.split(' ').next().expect("label")));
        let opts = WalOptions { sync: SyncPolicy::EveryN(64), faults: None };
        let (handle, _) = DurableDb::open("abl7r", &dir, opts.clone()).expect("open");
        let coll = handle.db().collection("store_sales");
        let mut written = 0usize;
        for batch in docs.chunks(256) {
            coll.insert_many(batch.to_vec()).expect("insert");
            written += batch.len();
            if checkpoint_at.is_some_and(|at| written >= at && written - batch.len() < at) {
                handle.checkpoint().expect("checkpoint");
            }
        }
        // Simulated crash: drop without sealing, then recover.
        drop(handle);
        let ((recovered, report), took) =
            time(|| DurableDb::open("abl7r", &dir, opts.clone()).expect("recover"));
        assert_eq!(
            recovered.db().get_collection("store_sales").expect("recovered").len(),
            docs.len()
        );
        t.row([
            label.to_owned(),
            report.frames_replayed.to_string(),
            report.checkpoint_docs.to_string(),
            fmt_duration(took),
        ]);
    }
    println!("{}", t.render());
    let _ = std::fs::remove_dir_all(&scratch);
}
