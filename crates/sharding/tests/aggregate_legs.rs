//! Router vs stand-alone: an aggregation through `Mongos` returns what
//! `Database::aggregate` returns over the same documents — the results,
//! their order and the error strings — whichever route it takes. One leg
//! (an unsharded collection, a point-targeted `$match`, a range reaching
//! one shard) runs the whole pipeline on its shard; a broadcast splits it
//! (`docstore::agg::Split`): every shard runs the per-document prefix and
//! ships a partial — `$group` states, a count, a sorted window's top
//! `skip + limit` — and the router merges them in leg order and runs the
//! rest. Each placement runs over one shard and over three.
//!
//! The facts are inserted in shard-key order after the chunks are placed,
//! so every shard holds its documents in insertion order and the legs,
//! concatenated in leg order, are the stand-alone collection's slot
//! order: first-seen `$group` order and sort ties agree exactly.
//!
//! Also pinned: a leg ships only its results or its partial (`NetStats`
//! bytes), no fixed body ships more than before the split, a lazy
//! `$project` behind a bare `$limit` stays lazy, the first error is the
//! stand-alone one, and under `DegradedReads::Partial` only an
//! unreachable shard degrades — a query error in a shard-side stage is
//! returned, never emptied. Last, `plan_vs_reference`'s generator drives
//! the router over one and three shards, range and hashed keys.

#[path = "../../docstore/tests/common/mod.rs"]
mod common;

use common::{arb_dim, arb_doc, arb_pipeline, multiset};
use doclite_bson::{array, codec::encoded_size, doc, Document, Value};
use doclite_docstore::{
    Accumulator, Database, Expr, Filter, GroupId, Key, Pipeline, ProjectField, Result, Stage,
};
use doclite_sharding::{
    ClusterConfig, DegradedReads, NetworkModel, Partitioning, RetryPolicy, ShardKey,
    ShardedCluster,
};
use proptest::prelude::*;

const FACTS: &str = "facts";
const DIMS: &str = "dims";
const OUT: &str = "agg_out";
const N_FACTS: i64 = 120;

/// Fact `i`: shard key `k = i / 20` (0..6, twenty documents each), a
/// group key, a sort key with ties, a `$lookup` key (3 matches nothing),
/// an array of 0–2 elements to unwind and a string no `$add` accepts.
fn fact(i: i64) -> Document {
    doc! {
        "_id" => i,
        "k" => i / 20,
        "g" => i % 3,
        "v" => (i * 7) % 11,
        "d" => i % 4,
        "xs" => Value::Array((0..i % 3).map(|x| Value::Int64(10 * i + x)).collect()),
        "tag" => format!("t{}", i % 4)
    }
}

fn dim(d: i64) -> Document {
    doc! {"_id" => 1000 + d, "d" => d, "name" => format!("dim{d}")}
}

fn include(paths: &[&str]) -> Vec<(String, ProjectField)> {
    paths
        .iter()
        .map(|p| (p.to_string(), ProjectField::Include))
        .collect()
}

fn group_by_g() -> Stage {
    Stage::Group {
        id: GroupId::Expr(Expr::field("g")),
        fields: vec![
            ("n".into(), Accumulator::count()),
            ("sum_v".into(), Accumulator::sum_field("v")),
            ("min_v".into(), Accumulator::Min(Expr::field("v"))),
            ("max_v".into(), Accumulator::Max(Expr::field("v"))),
        ],
    }
}

/// `$project: {y: {$add: ["$tag", 1]}}` — fails on the first document.
fn failing_project() -> Stage {
    let add = Expr::Add(vec![Expr::field("tag"), Expr::lit(1i64)]);
    Stage::Project(vec![("y".into(), ProjectField::Compute(add))])
}

/// The pipeline bodies every placement runs, after its own `$match`.
fn bodies() -> Vec<(&'static str, Vec<Stage>)> {
    let twice = Expr::Add(vec![Expr::field("v"), Expr::field("v")]);
    let mut project = include(&["v"]);
    project.push(("twice".into(), ProjectField::Compute(twice)));
    vec![
        ("$match", vec![Stage::Match(Filter::gte("v", 5i64))]),
        ("$group", vec![group_by_g()]),
        (
            "$group + $sort",
            vec![group_by_g(), Stage::Sort(vec![("_id".into(), -1)])],
        ),
        (
            "$sort + $skip + $limit",
            vec![
                Stage::Sort(vec![("v".into(), 1)]),
                Stage::Skip(3),
                Stage::Limit(7),
            ],
        ),
        ("$limit", vec![Stage::Limit(5)]),
        ("$project", vec![Stage::Project(project)]),
        (
            "$unwind",
            vec![
                Stage::Unwind("xs".into()),
                Stage::Project(include(&["k", "xs"])),
            ],
        ),
        (
            "$count",
            vec![
                Stage::Match(Filter::lt("v", 3i64)),
                Stage::Count("n".into()),
            ],
        ),
        (
            "$lookup",
            vec![
                Stage::Lookup {
                    from: DIMS.into(),
                    local_field: "d".into(),
                    foreign_field: "d".into(),
                    as_field: "dim".into(),
                },
                Stage::Unwind("dim".into()),
                Stage::Project(include(&["k", "dim.name"])),
            ],
        ),
        (
            "$out",
            vec![
                group_by_g(),
                Stage::Sort(vec![("_id".into(), 1)]),
                Stage::Out(OUT.into()),
            ],
        ),
        ("a $project that fails", vec![failing_project()]),
    ]
}

/// Where the pipeline's data is, as its leading `$match` routes it.
#[derive(Clone, Copy, Debug)]
enum Placement {
    /// The facts are not sharded: one leg on the primary.
    Unsharded,
    /// `{k: 3}`: one leg on the shard owning 3.
    Point,
    /// `{k: {$gte: 2, $lte: 3}}`: one leg, no point key.
    OneShardRange,
    /// No `$match` on the key: every shard that holds chunks.
    Broadcast,
}

impl Placement {
    fn sharded(self) -> bool {
        !matches!(self, Placement::Unsharded)
    }

    fn head(self) -> Option<Filter> {
        match self {
            Placement::Unsharded | Placement::Broadcast => None,
            Placement::Point => Some(Filter::eq("k", 3i64)),
            Placement::OneShardRange => Some(Filter::between("k", 2i64, 3i64)),
        }
    }

    /// The legs the route has over `n_shards` shards.
    fn legs(self, n_shards: usize) -> usize {
        match self {
            Placement::Broadcast => n_shards,
            _ => 1,
        }
    }
}

fn key(k: i64) -> Key {
    Key::of(&Value::Int64(k))
}

/// A cluster of `n_shards` holding the facts (sharded on `k` with chunks
/// `[min, 2)`, `[2, 4)`, `[4, max)` on shards 0, 1, 2 — all on shard 0
/// over one shard — or unsharded) and the dimension (unsharded), plus a
/// stand-alone database holding the same documents in the same order.
fn setup(n_shards: usize, sharded: bool, config: ClusterConfig) -> (ShardedCluster, Database) {
    setup_with(n_shards, sharded, config, (0..N_FACTS).map(fact).collect())
}

/// [`setup`] over other facts: 120 of them, `k = _id / 20` as in [`fact`].
fn setup_with(
    n_shards: usize,
    sharded: bool,
    config: ClusterConfig,
    facts: Vec<Document>,
) -> (ShardedCluster, Database) {
    let cluster = ShardedCluster::with_config(ClusterConfig { n_shards, ..config });
    let router = cluster.router();
    if sharded {
        cluster
            .shard_collection(FACTS, ShardKey::range(["k"]), 1 << 30)
            .unwrap();
        if n_shards == 3 {
            router.config().split_chunk(FACTS, 0, key(2), 0.5);
            router.config().split_chunk(FACTS, 1, key(4), 0.5);
            router.move_chunk(FACTS, 1, 1).unwrap();
            router.move_chunk(FACTS, 2, 2).unwrap();
        }
    }
    let standalone = Database::new("standalone");
    for (name, docs) in [(FACTS, facts), (DIMS, (0..3).map(dim).collect())] {
        router.insert_many(name, docs.clone()).unwrap();
        standalone.collection(name).insert_many(docs).unwrap();
    }
    if sharded && n_shards == 3 {
        for shard in router.shards() {
            assert_eq!(
                shard.db().get_collection(FACTS).unwrap().len(),
                40,
                "{}",
                shard.name()
            );
        }
    }
    (cluster, standalone)
}

fn free_config() -> ClusterConfig {
    ClusterConfig {
        network: NetworkModel::free(),
        ..ClusterConfig::default()
    }
}

fn free(n_shards: usize, sharded: bool) -> (ShardedCluster, Database) {
    setup(n_shards, sharded, free_config())
}

fn pipeline(head: Option<Filter>, body: &[Stage]) -> Pipeline {
    let p = head
        .into_iter()
        .fold(Pipeline::new(), Pipeline::match_stage);
    body.iter().cloned().fold(p, Pipeline::stage)
}

/// Results, or the error as the caller reads it.
fn outcome(r: Result<Vec<Document>>) -> std::result::Result<Vec<Document>, String> {
    r.map_err(|e| e.to_string())
}

#[test]
fn every_route_returns_what_the_standalone_database_returns() {
    let placements = [
        Placement::Unsharded,
        Placement::Point,
        Placement::OneShardRange,
        Placement::Broadcast,
    ];
    for n_shards in [1, 3] {
        for placement in placements {
            let (cluster, standalone) = free(n_shards, placement.sharded());
            let router = cluster.router();
            let head = placement.head();
            let route = router.explain_targeting(FACTS, head.as_ref().unwrap_or(&Filter::True));
            assert_eq!(
                route.shards().len(),
                placement.legs(n_shards),
                "{placement:?} over {n_shards}"
            );
            for (what, body) in bodies() {
                let p = pipeline(head.clone(), &body);
                let want = outcome(standalone.aggregate(FACTS, &p));
                let got = outcome(router.aggregate(FACTS, &p));
                let case = format!("{what}, {placement:?} over {n_shards} shard(s)");
                assert_eq!(got, want, "{case}");
                if what == "a $project that fails" {
                    assert!(
                        want.as_ref()
                            .is_err_and(|e| e.starts_with("expression error")),
                        "{case}"
                    );
                } else {
                    assert!(
                        want.as_ref().is_ok_and(|docs| !docs.is_empty()),
                        "{case}: {want:?}"
                    );
                }
                if p.out_target().is_some() {
                    let primary = router.shards()[0].db();
                    let materialized = primary.get_collection(OUT).unwrap().all_docs();
                    assert_eq!(
                        materialized,
                        standalone.get_collection(OUT).unwrap().all_docs(),
                        "{case}"
                    );
                    assert!(router.shards()[1..]
                        .iter()
                        .all(|s| s.db().get_collection(OUT).is_err()));
                }
            }
        }
    }
}

/// A single leg ships its results and nothing else: one exchange of
/// exactly their encoded size. A broadcast ships one partial per leg:
/// each shard's group states, which for these integer accumulators are
/// the size of the documents the shard's own `$group` would return —
/// not the 120 facts the router grouped before the split.
#[test]
fn a_single_leg_group_ships_only_its_results() {
    let (cluster, standalone) = free(3, true);
    let router = cluster.router();
    let facts_bytes: usize = standalone
        .get_collection(FACTS)
        .unwrap()
        .all_docs()
        .iter()
        .map(encoded_size)
        .sum();
    let group = pipeline(None, &[group_by_g()]);
    let partials_bytes: usize = router
        .shards()
        .iter()
        .flat_map(|s| s.db().aggregate(FACTS, &group).unwrap())
        .map(|d| encoded_size(&d))
        .sum();
    assert!(partials_bytes * 10 < facts_bytes, "{partials_bytes} vs {facts_bytes}");
    let cases = [
        ("point", Placement::Point.head(), 1),
        ("one-shard range", Placement::OneShardRange.head(), 1),
        ("broadcast", None, 3),
    ];
    for (what, head, legs) in cases {
        let p = pipeline(head, &[group_by_g()]);
        router.net_stats().reset();
        let results = router.aggregate(FACTS, &p).unwrap();
        assert_eq!(results.len(), 3, "{what}");
        let results_bytes: usize = results.iter().map(encoded_size).sum();
        let shipped = if legs == 1 {
            results_bytes
        } else {
            partials_bytes
        };
        assert_eq!(router.net_stats().bytes(), shipped as u64, "{what}");
        assert_eq!(router.net_stats().exchanges(), legs, "{what}");
    }
}

/// What each body's broadcast over three shards shipped before the
/// split, when only the `$match` and a sort/limit window went down and
/// every other matching fact came back: none ships more now.
#[test]
fn no_broadcast_ships_more_than_before_the_split() {
    let before = [
        ("$match", 6171),
        ("$group", 11280),
        ("$group + $sort", 11280),
        ("$sort + $skip + $limit", 2820),
        ("$limit", 1410),
        ("$project", 11280),
        ("$unwind", 11280),
        ("$count", 3124),
        ("$lookup", 11280),
        ("$out", 11502),
        ("a $project that fails", 11280),
    ];
    let (cluster, _) = free(3, true);
    let router = cluster.router();
    for ((what, body), (named, bytes)) in bodies().into_iter().zip(before) {
        assert_eq!(what, named);
        router.net_stats().reset();
        let _ = router.aggregate(FACTS, &pipeline(None, &body));
        let now = router.net_stats().bytes();
        assert!(now <= bytes, "{what}: {now} bytes, {bytes} before the split");
    }
}

/// Facts whose `xs` takes `$add` for the first five only: a fallible
/// `$project` behind a bare `$limit` must evaluate only what the limit
/// pulls — an eager shard-side `$project` would fail on the other legs.
#[test]
fn a_bare_limit_keeps_a_fallible_project_lazy_across_legs() {
    let facts = (0..N_FACTS)
        .map(|i| {
            let xs = if i < 5 { Value::Int64(1) } else { array![1i64] };
            doc! {"_id" => i, "k" => i / 20, "xs" => xs}
        })
        .collect();
    let (cluster, standalone) = setup_with(3, true, free_config(), facts);
    let inc = Expr::Add(vec![Expr::field("xs"), Expr::lit(1i64)]);
    let body = [
        Stage::Match(Filter::gte("_id", 0i64)),
        Stage::Project(vec![("y".into(), ProjectField::Compute(inc))]),
        Stage::Limit(5),
    ];
    let p = pipeline(None, &body);
    let want = standalone.aggregate(FACTS, &p).unwrap();
    assert_eq!(want.len(), 5);
    assert_eq!(cluster.router().aggregate(FACTS, &p).unwrap(), want);
}

/// The first failing document in slot order (57, on the middle shard,
/// a string) decides the error, over later ones on every leg (arrays),
/// and over a shard-side `$project` that fails on a later document of
/// the same leg (63).
#[test]
fn the_first_error_is_the_standalone_first_error() {
    let facts = (0..N_FACTS)
        .map(|i| {
            let g = match i {
                57 => Value::from("s"),
                i if i > 57 && i % 10 == 7 => array![1i64],
                i => Value::Int64(i % 5),
            };
            let h = if i == 63 { array![1i64] } else { Value::Int64(i) };
            doc! {"_id" => i, "k" => i / 20, "g" => g, "h" => h}
        })
        .collect();
    let (cluster, standalone) = setup_with(3, true, free_config(), facts);
    let plus_one = |path: &str| Expr::Add(vec![Expr::field(path), Expr::lit(1i64)]);
    let group = Stage::Group {
        id: GroupId::Expr(plus_one("g")),
        fields: vec![("n".into(), Accumulator::count())],
    };
    let project = Stage::Project(vec![
        ("g".into(), ProjectField::Include),
        ("y".into(), ProjectField::Compute(plus_one("h"))),
    ]);
    for body in [vec![group.clone()], vec![project, group]] {
        let p = pipeline(None, &body);
        let want = standalone.aggregate(FACTS, &p).unwrap_err().to_string();
        assert!(want.ends_with("got string"), "{want}");
        assert_eq!(cluster.router().aggregate(FACTS, &p).unwrap_err().to_string(), want);
    }
}

fn partial() -> (ShardedCluster, Database) {
    setup(
        3,
        true,
        ClusterConfig {
            network: NetworkModel::free(),
            retry: RetryPolicy::none(),
            degraded_reads: DegradedReads::Partial,
            ..ClusterConfig::default()
        },
    )
}

/// Under `Partial`, a `$project` that fails in a single leg's shard-side
/// pipeline is the answer — the stand-alone error string — not an empty
/// result with a warning.
#[test]
fn partial_reads_return_a_shard_side_query_error() {
    let (cluster, standalone) = partial();
    let router = cluster.router();
    for head in [Placement::Point.head(), Placement::OneShardRange.head()] {
        let p = pipeline(head, &[failing_project()]);
        let want = standalone.aggregate(FACTS, &p).unwrap_err().to_string();
        assert!(want.starts_with("expression error"), "{want}");
        assert_eq!(router.aggregate(FACTS, &p).unwrap_err().to_string(), want);
    }
    assert_eq!(router.take_warnings(), Vec::<String>::new());
}

/// Under `Partial`, a partitioned shard still reads as missing, with a
/// warning per degraded leg — whether its leg runs the whole pipeline or
/// only the `$match`.
#[test]
fn partial_reads_skip_a_partitioned_shard_with_a_warning() {
    let (cluster, standalone) = partial();
    let router = cluster.router();
    router.faults().set_partitioned(1, true);
    let body = [Stage::Match(Filter::gte("v", 5i64)), group_by_g()];
    // Shard 1 holds k ∈ {2, 3}: the reachable answer is the stand-alone
    // answer without those documents.
    let reachable = Filter::or([Filter::lt("k", 2i64), Filter::gte("k", 4i64)]);
    let want = standalone
        .aggregate(FACTS, &pipeline(Some(reachable), &body))
        .unwrap();
    assert_eq!(
        router.aggregate(FACTS, &pipeline(None, &body)).unwrap(),
        want
    );
    let point = router
        .aggregate(FACTS, &pipeline(Placement::Point.head(), &body))
        .unwrap();
    assert_eq!(point, Vec::<Document>::new());
    let warnings = router.take_warnings();
    assert_eq!(warnings.len(), 2, "{warnings:?}");
    for w in &warnings {
        assert!(
            w.starts_with("unavailable: Shard2 unreachable")
                && w.ends_with("returning partial results"),
            "{w}"
        );
    }
    router.faults().set_partitioned(1, false);
    let whole = standalone.aggregate(FACTS, &pipeline(None, &body)).unwrap();
    assert_eq!(
        router.aggregate(FACTS, &pipeline(None, &body)).unwrap(),
        whole
    );
}

/// A cluster of `n_shards` with `c` sharded on `_id` by `key` — over
/// three shards, cut into thirds: `_id` 13 and 26 for a range key, a
/// third of the hash space for a hashed one — and `dim` unsharded, plus a
/// stand-alone database holding the same documents in the same order.
/// Each document's `_id` is its position.
fn split_cluster(
    n_shards: usize,
    shard_key: ShardKey,
    docs: Vec<Document>,
    dim: Vec<Document>,
) -> (ShardedCluster, Database) {
    let cluster = ShardedCluster::with_config(ClusterConfig { n_shards, ..free_config() });
    let router = cluster.router();
    let cuts = match shard_key.partitioning() {
        Partitioning::Range => [13, 26],
        Partitioning::Hashed => [i64::MIN / 3, i64::MAX / 3],
    };
    cluster.shard_collection("c", shard_key, 1 << 30).unwrap();
    if n_shards == 3 {
        for (chunk, cut) in cuts.into_iter().enumerate() {
            router.config().split_chunk("c", chunk, key(cut), 0.5);
            router.move_chunk("c", chunk + 1, chunk + 1).unwrap();
        }
    }
    let docs: Vec<Document> = (0i64..)
        .zip(docs)
        .map(|(id, mut d)| {
            d.set("_id", id);
            d
        })
        .collect();
    let standalone = Database::new("standalone");
    for (name, docs) in [("c", docs), ("dim", dim)] {
        router.insert_many(name, docs.clone()).unwrap();
        standalone.collection(name).insert_many(docs).unwrap();
    }
    (cluster, standalone)
}

/// The results, with the ObjectIds a `$out` mints for `_id`-less
/// documents removed (each side mints its own).
fn minted_ids_removed(r: Result<Vec<Document>>) -> std::result::Result<Vec<Document>, String> {
    outcome(r).map(|docs| {
        docs.into_iter()
            .map(|mut d| {
                if matches!(d.get("_id"), Some(Value::ObjectId(_))) {
                    d.remove("_id");
                }
                d
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Leg order is slot order — one shard under either key, three
    /// `_id` ranges in shard order — so the router returns the
    /// stand-alone sequence and error string exactly.
    #[test]
    fn router_equals_database_where_leg_order_is_slot_order(
        layout in prop_oneof![
            Just((1, ShardKey::range(["_id"]))),
            Just((1, ShardKey::hashed("_id"))),
            Just((3, ShardKey::range(["_id"]))),
        ],
        pipeline in arb_pipeline(true),
        docs in prop::collection::vec(arb_doc(), 0..40),
        dim in arb_dim(),
    ) {
        let (n_shards, shard_key) = layout;
        let (cluster, standalone) = split_cluster(n_shards, shard_key, docs, dim);
        let want = minted_ids_removed(standalone.aggregate("c", &pipeline));
        let got = minted_ids_removed(cluster.router().aggregate("c", &pipeline));
        prop_assert_eq!(got, want, "{:?}", pipeline);
    }

    /// A hashed `_id` over three shards scatters slot order: pipelines
    /// that do not depend on input order agree as multisets, and their
    /// errors agree. (Trailing `$out`s are dropped: which duplicate `_id`
    /// one meets first depends on the order.)
    #[test]
    fn router_equals_database_as_multisets_under_a_hashed_key(
        pipeline in arb_pipeline(false),
        docs in prop::collection::vec(arb_doc(), 0..40),
        dim in arb_dim(),
    ) {
        let stages = pipeline.stages();
        let kept = stages.iter().rposition(|s| !matches!(s, Stage::Out(_))).map_or(0, |i| i + 1);
        let pipeline = stages[..kept].iter().cloned().fold(Pipeline::new(), Pipeline::stage);
        let (cluster, standalone) = split_cluster(3, ShardKey::hashed("_id"), docs, dim);
        let want = outcome(standalone.aggregate("c", &pipeline)).map(multiset);
        let got = outcome(cluster.router().aggregate("c", &pipeline)).map(multiset);
        prop_assert_eq!(got, want, "{:?}", pipeline);
    }
}
