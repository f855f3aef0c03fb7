//! The route plan: which shards an operation contacts and what each leg
//! is asked for.
//!
//! This is the mechanism behind the thesis's key observation
//! (Section 4.3 item iii): "If a query includes a shard key, the mongos
//! routes the query to a specific shard rather than broadcasting the
//! query to all the shards in the cluster."
//!
//! Everything here is a pure function of the request and *one* metadata
//! snapshot (`None` = unsharded: the collection lives on the primary
//! shard). Nothing locks, sleeps, counts or holds a shard, so what
//! `Mongos::explain_route` returns is the plan `Mongos::find_with` runs.

use crate::chunk::ShardId;
use crate::config::CollectionMeta;
use crate::shardkey::Partitioning;
use doclite_bson::{Document, Value};
use doclite_docstore::agg::{CompiledSortSpec, Split};
use doclite_docstore::query::planner::{cartesian, conjunctive_constraints};
use doclite_docstore::{Filter, FindOptions, Key, Pipeline, Result};
use std::collections::BTreeMap;

/// The routing decision for one filter.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Targeting {
    /// `true` when the filter pinned the shard key (no broadcast).
    pub(crate) targeted: bool,
    /// The shards to contact, ascending; never empty.
    pub(crate) shards: Vec<ShardId>,
    /// The chunk-keyspace point the filter pins — present when, and only
    /// when, every shard-key field is pinned by a single equality. It
    /// anchors the ownership checks; a range or `$in` that happens to
    /// reach one shard has no such point (a key padded with nulls would
    /// test the ownership of the lowest chunk instead).
    pub(crate) point_key: Option<Key>,
}

impl Targeting {
    /// The shards to contact.
    pub fn shards(&self) -> &[ShardId] {
        &self.shards
    }

    /// True if the router avoided a broadcast.
    pub fn is_targeted(&self) -> bool {
        self.targeted
    }
}

/// Cap on `$in`-set expansion during targeting, mirroring the planner's.
const MAX_TARGET_POINTS: usize = 1024;

/// Point combos beyond this multiple of the chunk count skip expansion
/// and broadcast instead (see the cost gate in [`target`]).
const EXPANSION_FACTOR_CAP: usize = 4;

/// Computes the routing decision for a filter.
pub fn target(meta: Option<&CollectionMeta>, primary: ShardId, filter: &Filter) -> Targeting {
    let (targeted, mut shards, point_key) = match meta {
        None => (true, vec![primary], None),
        Some(meta) => target_sharded(meta, filter),
    };
    if shards.is_empty() {
        // An empty key range: one leg that finds nothing.
        shards.push(primary);
    }
    Targeting { targeted, shards, point_key }
}

fn target_sharded(
    meta: &CollectionMeta,
    filter: &Filter,
) -> (bool, Vec<ShardId>, Option<Key>) {
    let constraints = conjunctive_constraints(filter);
    let fields = meta.key.fields();

    // Case 1: equality on every shard-key field → point-target chunks.
    let eq_sets: Option<Vec<&Vec<Value>>> = fields
        .iter()
        .map(|f| constraints.get(f.as_str()).and_then(|c| c.eq_set.as_ref()))
        .collect();
    if let Some(eq_sets) = eq_sets {
        let combos: usize = eq_sets.iter().map(|s| s.len()).product();
        // Cost gate: expanding far more point combos than there are
        // chunks almost certainly touches every chunk anyway, so the
        // O(combos) expansion buys nothing — broadcast (a superset of
        // the targeted shard set, so this is perf-safe, never wrong).
        if combos > EXPANSION_FACTOR_CAP.saturating_mul(meta.chunks.len()) {
            return (false, meta.all_shards(), None);
        }
        if combos > 0 && combos <= MAX_TARGET_POINTS {
            let mut keys: Vec<Key> =
                cartesian(&eq_sets).iter().map(|c| meta.key.keyspace_value(c)).collect();
            let mut shards: Vec<ShardId> =
                keys.iter().map(|k| meta.chunks[meta.chunk_for(k)].shard).collect();
            shards.sort_unstable();
            shards.dedup();
            let point_key = if keys.len() == 1 { keys.pop() } else { None };
            return (true, shards, point_key);
        }
    }

    // Case 2: a range on the leading shard-key field — only meaningful
    // for range partitioning (hashed scatters ranges, thesis 2.1.3.3).
    if meta.key.partitioning() == Partitioning::Range {
        if let Some(c) = constraints.get(fields[0].as_str()) {
            // Every key whose first component is `v` lies in
            // `[Key::of(v), Key::of(v).prefix_end())`; bounds on the first
            // component alone ignore exclusivity, so a range may take an
            // extra chunk but never misses one.
            let lo = c.min.as_ref().map(|(v, _)| Key::of(v));
            let hi = c.max.as_ref().map(|(v, _)| Key::of(v).prefix_end());
            if lo.is_some() || hi.is_some() {
                let shards = meta.shards_for_range(lo.as_ref(), hi.as_ref());
                return (true, shards, None);
            }
        }
    }

    (false, meta.all_shards(), None)
}


/// Where a document lives — an insert, or an upsert's seed: the shard
/// owning its key, and that key for the write's ownership check (an
/// unsharded collection has neither: the primary shard, no key). A
/// document whose shard key holds an array has no home and is refused
/// ([`crate::shardkey::ShardKey::extract`]).
pub fn document_target(
    meta: Option<&CollectionMeta>,
    primary: ShardId,
    doc: &Document,
) -> Result<(ShardId, Option<Key>)> {
    Ok(match meta {
        None => (primary, None),
        Some(meta) => {
            let key = meta.key.extract(doc)?;
            (meta.chunks[meta.chunk_for(&key)].shard, Some(key))
        }
    })
}

/// How the router combines a find's legs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Merge {
    /// One leg serves the global result verbatim: the whole window —
    /// skip included — and the projection ran on the shard, so the
    /// skipped prefix never crosses the network.
    Single,
    /// Concatenate in leg order, then window and project at the router.
    Concat,
    /// k-way merge of the legs' sorted runs, then window and project.
    Sorted,
}

/// The plan of one find — and, unchanged, its router-level explain:
/// which shards the read contacts, how many documents each is estimated
/// to hold (chunk accounting), what each leg is asked for and how the
/// legs are merged.
#[derive(Clone, Debug)]
pub struct FindPlan {
    /// `true` when the filter pinned the shard key (no broadcast).
    pub targeted: bool,
    /// The legs the read contacts, in leg order.
    pub shards: Vec<ShardId>,
    /// See [`Targeting::point_key`]: checked against the leg's shard
    /// after the scan.
    pub point_key: Option<Key>,
    /// Approximate resident documents per contacted shard.
    pub est_docs: Vec<usize>,
    /// The `limit` each leg is asked for (0 = unlimited).
    pub leg_limits: Vec<usize>,
    /// `skip + limit` (0 = unlimited): a document outside the first
    /// `full_window` of its own shard's sorted run cannot appear in the
    /// global window either.
    pub full_window: usize,
    /// Projection goes shard-side unless the router's merge would then
    /// be missing a sort path the projection strips.
    pub push_projection: bool,
    /// The options each leg runs with.
    pub leg_opts: Vec<FindOptions>,
    pub merge: Merge,
}

/// Plans a find: sort, limit and (when safe) projection are pushed to
/// the shards, so a sorted-and-limited broadcast transfers O(limit)
/// bytes per leg instead of every matching document.
pub fn plan_find(
    meta: Option<&CollectionMeta>,
    primary: ShardId,
    filter: &Filter,
    opts: &FindOptions,
) -> FindPlan {
    let Targeting { targeted, shards, point_key } = target(meta, primary, filter);
    let per_shard = meta.map(CollectionMeta::docs_per_shard).unwrap_or_default();
    let est_docs = shards.iter().map(|id| per_shard.get(id).copied().unwrap_or(0)).collect();
    let full_window = if opts.limit > 0 { opts.skip.saturating_add(opts.limit) } else { 0 };
    let single = shards.len() == 1;
    let push_projection = single
        || opts.projection.is_empty()
        || opts.sort.iter().all(|(p, _)| p == "_id" || opts.projection.contains(p));
    let leg_limits = if single {
        vec![opts.limit]
    } else {
        optimistic_leg_limits(&per_shard, &shards, opts, full_window)
    };
    let leg_opts = leg_limits
        .iter()
        .map(|&limit| FindOptions {
            sort: opts.sort.clone(),
            skip: if single { opts.skip } else { 0 },
            limit,
            projection: if push_projection { opts.projection.clone() } else { Vec::new() },
        })
        .collect();
    let merge = match (single, opts.sort.is_empty()) {
        (true, _) => Merge::Single,
        (false, true) => Merge::Concat,
        (false, false) => Merge::Sorted,
    };
    FindPlan {
        targeted,
        shards,
        point_key,
        est_docs,
        leg_limits,
        full_window,
        push_projection,
        leg_opts,
        merge,
    }
}

/// Per-leg `limit`s for a sorted multi-shard window. Each leg is
/// capped near 1.5× its share of the window — share taken from the
/// chunk accounting's resident-document counts — floored at an even
/// split, instead of everyone shipping the full `skip + limit`.
/// Unsorted reads, unlimited reads, and collections without
/// accounting keep the full window.
fn optimistic_leg_limits(
    per_shard: &BTreeMap<ShardId, usize>,
    shards: &[ShardId],
    opts: &FindOptions,
    full_window: usize,
) -> Vec<usize> {
    let n = shards.len();
    let total: usize = per_shard.values().sum();
    if full_window == 0 || opts.sort.is_empty() || n < 2 || total == 0 {
        return vec![full_window; n];
    }
    let floor = (full_window / n).max(1);
    shards
        .iter()
        .map(|id| {
            let share = per_shard.get(id).copied().unwrap_or(0) as f64 / total as f64;
            let sized = (full_window as f64 * share * 1.5).ceil() as usize;
            sized.clamp(floor, full_window)
        })
        .collect()
}

impl FindPlan {
    /// A leg's options with the optimistic cap lifted to the full window.
    pub fn full_window_opts(&self) -> FindOptions {
        FindOptions { limit: self.full_window, ..self.leg_opts[0].clone() }
    }

    /// Indices of legs whose optimistic cap may have cut the global
    /// window: the leg filled its cap AND its worst returned document
    /// does not sort strictly past the window cutoff computed over
    /// everything returned so far (hidden rows of any *other* leg can
    /// only push the true cutoff earlier, so "strictly past" stays
    /// sound). The router re-runs exactly those legs with
    /// [`FindPlan::full_window_opts`], so the sizing only ever affects
    /// bytes shipped, never results.
    pub fn saturated_legs(&self, legs: &[Vec<Document>]) -> Vec<usize> {
        let full_window = self.full_window;
        // Only a sorted multi-leg window is ever capped below `full_window`.
        if self.merge != Merge::Sorted || self.leg_limits.iter().all(|&l| l >= full_window) {
            return Vec::new();
        }
        let cs = CompiledSortSpec::new(&self.leg_opts[0].sort);
        let mut all_keys: Vec<Vec<Value>> =
            legs.iter().flatten().map(|d| cs.key_owned(d)).collect();
        all_keys.sort_by(|a, b| cs.compare_values(a, b));
        let cutoff = all_keys.get(full_window - 1);
        (0..legs.len())
            .filter(|&i| {
                let (docs, cap) = (&legs[i], self.leg_limits[i]);
                if cap >= full_window || docs.len() < cap {
                    return false; // unconstrained or exhausted: complete
                }
                match (cutoff, docs.last()) {
                    // Fewer returned rows than the window needs: any
                    // saturated leg may be hiding the missing ones.
                    (None, _) => true,
                    (Some(c), Some(last)) => {
                        cs.compare_values(&cs.key_owned(last), c) != std::cmp::Ordering::Greater
                    }
                    (Some(_), None) => false,
                }
            })
            .collect()
    }
}

/// The plan of one aggregation. The coalesced leading `$match` run picks
/// the shards. A route with one leg — an unsharded collection (on the
/// primary shard), a point-targeted `$match`, a range or `$in` reaching
/// one shard — runs the whole pipeline on that shard, where its data
/// lives, as MongoDB runs an unsharded collection's pipeline on its
/// primary shard: only the results travel. A route with several legs
/// splits the body with the legs as its parts ([`Split::new`]): each
/// shard runs the per-document prefix and ships its partial — a
/// `$group`'s running states, a `$count`'s count, its top `skip + limit`
/// of a sorted window — and the router merges them in leg order and runs
/// the rest.
pub struct AggPlan<'p> {
    /// The shards the leading `$match` reaches, in leg order.
    pub route: Targeting,
    /// What each leg runs and ships, and what the router runs over the
    /// merged legs: [`Split::whole`] for one leg. Never a `$out`.
    pub split: Split<'p>,
}

/// Plans an aggregation; fails on a `$out` anywhere but last.
pub fn plan_aggregate<'p>(
    meta: Option<&CollectionMeta>,
    primary: ShardId,
    pipeline: &'p Pipeline,
) -> Result<AggPlan<'p>> {
    let body = pipeline.body()?;
    let push_down = Filter::and(pipeline.leading_matches().iter().map(|f| (*f).clone()));
    let route = target(meta, primary, &push_down);
    let split = if route.shards.len() == 1 { Split::whole(body) } else { Split::new(body) };
    Ok(AggPlan { route, split })
}

/// A statement still to be applied, by its index in the batch, and the
/// one shard it is still owed to (`None` = wherever routing sends it).
pub type Owed = (usize, Option<ShardId>);

/// Groups owed update statements per target shard, keeping their
/// relative order; a broadcast statement joins every shard's group.
/// Each entry carries the point key its filter pins (for the write's
/// ownership check) — none for a statement owed to one shard only,
/// which is a broadcast the other shards already applied.
pub fn group_writes<'f>(
    meta: Option<&CollectionMeta>,
    primary: ShardId,
    filter_of: impl Fn(usize) -> &'f Filter,
    owed: impl IntoIterator<Item = Owed>,
) -> BTreeMap<ShardId, Vec<(usize, Option<Key>)>> {
    let mut groups: BTreeMap<ShardId, Vec<(usize, Option<Key>)>> = BTreeMap::new();
    for (i, only) in owed {
        match only {
            Some(id) => groups.entry(id).or_default().push((i, None)),
            None => {
                let route = target(meta, primary, filter_of(i));
                for id in route.shards {
                    groups.entry(id).or_default().push((i, route.point_key.clone()));
                }
            }
        }
    }
    groups
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::DEFAULT_CHUNK_SIZE;
    use crate::config::ConfigServer;
    use crate::shardkey::ShardKey;
    use doclite_docstore::{Accumulator, Expr, GroupId, ProjectField, Stage};

    fn k(v: i64) -> Key {
        Key::of(&Value::Int64(v))
    }

    /// `key` split at 100 and 200: (-inf,100)→0 holding 10 documents,
    /// [100,200)→1 holding 500, [200,+inf)→2 holding 490.
    fn three_chunks(key: ShardKey) -> CollectionMeta {
        let cfg = ConfigServer::new();
        cfg.shard_collection_with_chunk_size("c", key, 0, DEFAULT_CHUNK_SIZE);
        cfg.split_chunk("c", 0, k(100), 0.5);
        cfg.split_chunk("c", 1, k(200), 0.5);
        cfg.move_chunk("c", 1, 1);
        cfg.move_chunk("c", 2, 2);
        cfg.with_meta_mut("c", |m| {
            for (chunk, docs) in m.chunks.iter_mut().zip([10, 500, 490]) {
                chunk.docs = docs;
            }
        });
        std::sync::Arc::unwrap_or_clone(cfg.meta("c").unwrap())
    }

    /// What the table pins of a [`FindPlan`].
    #[derive(Debug, PartialEq)]
    struct Want {
        targeted: bool,
        shards: Vec<ShardId>,
        point_key: Option<Key>,
        leg_limits: Vec<usize>,
        push_projection: bool,
        full_window: usize,
        merge: Merge,
    }

    fn want(targeted: bool, shards: &[ShardId], point_key: Option<Key>) -> Want {
        Want {
            targeted,
            shards: shards.to_vec(),
            point_key,
            leg_limits: vec![0; shards.len()],
            push_projection: true,
            full_window: 0,
            merge: if shards.len() == 1 { Merge::Single } else { Merge::Concat },
        }
    }

    #[test]
    fn find_plans_are_a_function_of_snapshot_filter_and_options() {
        const PRIMARY: ShardId = 7;
        let range = three_chunks(ShardKey::range(["k"]));
        let pair = three_chunks(ShardKey::range(["k", "j"]));
        let hashed = three_chunks(ShardKey::hashed("k"));
        let hash_of_42 = hashed.key.keyspace_value(&[Value::Int64(42)]);
        let hash_shard = hashed.chunks[hashed.chunk_for(&hash_of_42)].shard;
        let plain = FindOptions::new();
        let top10 = FindOptions::new().sort_by("v", 1).with_limit(10);
        let everything = [0, 1, 2];
        let cases: Vec<(&str, Option<&CollectionMeta>, Filter, FindOptions, Want)> = vec![
            // Targeting: which shards, and whether a point is pinned.
            ("equality pins the point", Some(&range), Filter::eq("k", 150i64), plain.clone(),
                want(true, &[1], Some(k(150)))),
            ("equality on every field of a compound key", Some(&pair),
                Filter::and([Filter::eq("k", 150i64), Filter::eq("j", 3i64)]), plain.clone(),
                want(true, &[1], Some(Key::from_values(&[150i64.into(), 3i64.into()])))),
            ("equality on a key prefix broadcasts", Some(&pair), Filter::eq("k", 150i64),
                plain.clone(), want(false, &everything, None)),
            ("a range reaching one shard pins no point", Some(&range),
                Filter::between("k", 120i64, 180i64), plain.clone(), want(true, &[1], None)),
            ("an $in reaching one shard pins no point", Some(&range),
                Filter::is_in("k", [110i64, 120i64]), plain.clone(), want(true, &[1], None)),
            ("an $in targets the union of its shards", Some(&range),
                Filter::is_in("k", [50i64, 250i64]), plain.clone(), want(true, &[0, 2], None)),
            ("open ranges target the intersecting chunks", Some(&range), Filter::gte("k", 150i64),
                plain.clone(), want(true, &[1, 2], None)),
            ("an empty key range is one leg on the primary", Some(&range),
                Filter::and([Filter::gt("k", 300i64), Filter::lt("k", -5i64)]), plain.clone(),
                want(true, &[PRIMARY], None)),
            ("$in expansion past the cost gate broadcasts", Some(&range),
                Filter::is_in("k", (0..13i64).map(|i| i * 25)), plain.clone(),
                want(false, &everything, None)),
            ("a filter off the key broadcasts", Some(&range), Filter::eq("other", 1i64),
                plain.clone(), want(false, &everything, None)),
            ("$or on the key broadcasts", Some(&range),
                Filter::or([Filter::eq("k", 1i64), Filter::eq("k", 250i64)]), plain.clone(),
                want(false, &everything, None)),
            ("hashed equality pins the hashed point", Some(&hashed), Filter::eq("k", 42i64),
                plain.clone(), want(true, &[hash_shard], Some(hash_of_42))),
            ("ranges cannot target a hashed key", Some(&hashed),
                Filter::between("k", 0i64, 100i64), plain.clone(), want(false, &everything, None)),
            ("an unsharded collection lives on the primary", None, Filter::eq("k", 150i64),
                plain.clone(), want(true, &[PRIMARY], None)),
            // Leg sizing, push-down and merge.
            ("a single leg takes the whole window, skip included", Some(&range),
                Filter::eq("k", 150i64), top10.clone().with_skip(4),
                Want { leg_limits: vec![10], full_window: 14, ..want(true, &[1], Some(k(150))) }),
            ("sorted legs are capped at 1.5x their share, floored at an even split", Some(&range),
                Filter::True, top10.clone(),
                Want { leg_limits: vec![3, 8, 8], full_window: 10, merge: Merge::Sorted,
                    ..want(false, &everything, None) }),
            ("unsorted legs keep the full window", Some(&range), Filter::True,
                plain.clone().with_skip(5).with_limit(20),
                Want { leg_limits: vec![25; 3], full_window: 25, ..want(false, &everything, None) }),
            ("a projection that strips a sort path stays at the router", Some(&range),
                Filter::True, top10.clone().include("w"),
                Want { leg_limits: vec![3, 8, 8], full_window: 10, merge: Merge::Sorted,
                    push_projection: false, ..want(false, &everything, None) }),
            ("a projection that keeps the sort path is pushed", Some(&range), Filter::True,
                top10.clone().include("v"),
                Want { leg_limits: vec![3, 8, 8], full_window: 10, merge: Merge::Sorted,
                    ..want(false, &everything, None) }),
        ];
        for (what, meta, filter, opts, want) in cases {
            let p = plan_find(meta, PRIMARY, &filter, &opts);
            let t = target(meta, PRIMARY, &filter);
            assert_eq!((t.targeted, &t.shards, &t.point_key), (p.targeted, &p.shards, &p.point_key));
            // Every leg runs the caller's sort; only a single leg skips;
            // the projection travels iff it is pushed.
            for (leg, &limit) in p.leg_opts.iter().zip(&p.leg_limits) {
                assert_eq!((&leg.sort, leg.limit), (&opts.sort, limit), "{what}");
                assert_eq!(leg.skip, if p.merge == Merge::Single { opts.skip } else { 0 }, "{what}");
                assert_eq!(leg.projection.is_empty(), !p.push_projection || opts.projection.is_empty());
            }
            assert_eq!(p.est_docs.len(), p.shards.len(), "{what}");
            let got = Want {
                targeted: p.targeted,
                shards: p.shards,
                point_key: p.point_key,
                leg_limits: p.leg_limits,
                push_projection: p.push_projection,
                full_window: p.full_window,
                merge: p.merge,
            };
            assert_eq!(got, want, "{what}");
        }
        let skew = plan_find(Some(&range), PRIMARY, &Filter::True, &top10);
        assert_eq!(skew.est_docs, vec![10, 500, 490]);
    }

    #[test]
    fn aggregate_plans_are_a_function_of_snapshot_and_pipeline() {
        const PRIMARY: ShardId = 7;
        let range = three_chunks(ShardKey::range(["k"]));
        let everything = [0, 1, 2];
        // `head` $match stages, then a window, a $count and a $out.
        let windowed = |head: Vec<Filter>| {
            let p = head.into_iter().fold(Pipeline::new(), Pipeline::match_stage);
            p.match_stage(Filter::gt("v", 1i64)).sort([("v", 1)]).skip(2).limit(3).count("n").out("dst")
        };
        let tail = || {
            let sort = Stage::Sort(vec![("v".into(), 1)]);
            vec![sort, Stage::Skip(2), Stage::Limit(3), Stage::Count("n".into())]
        };
        // What a broadcast leg runs of `windowed`: the $match run and its
        // own top `skip + limit`.
        let pushed = |f: Filter| {
            let p = Pipeline::new().match_stage(f).match_stage(Filter::gt("v", 1i64));
            p.sort([("v", 1)]).limit(5).stages().to_vec()
        };
        let body = |p: &Pipeline| p.body().unwrap().to_vec();
        let point = windowed(vec![Filter::eq("k", 150i64)]);
        let one_range = windowed(vec![Filter::between("k", 120i64, 180i64)]);
        let empty_range = windowed(vec![Filter::gt("k", 300i64), Filter::lt("k", -5i64)]);
        let off_key = windowed(vec![Filter::eq("w", 1i64)]);
        let two_shards = windowed(vec![Filter::is_in("k", [50i64, 250i64])]);
        let sort_only = Pipeline::new().sort([("v", 1)]);
        let w1 = || Pipeline::new().match_stage(Filter::eq("w", 1i64));
        let grouped = w1()
            .group(GroupId::Expr(Expr::field("g")), [("n", Accumulator::count())])
            .sort([("_id", 1)]);
        let key_and_input = w1().project([
            ("_id", ProjectField::Exclude),
            ("k", ProjectField::Compute(Expr::field("g"))),
            ("a0", ProjectField::Compute(Expr::lit(1i64))),
        ]);
        let unwound = w1().unwind("xs").limit(4);
        let projected = w1().project([("v", ProjectField::Include)]).limit(4);
        let counted = w1().unwind("xs").count("n");
        /// What, snapshot, pipeline, shards, leg pipeline stages, router-side stages.
        type Case<'a> =
            (&'a str, Option<&'a CollectionMeta>, &'a Pipeline, &'a [ShardId], Vec<Stage>, Vec<Stage>);
        let cases: Vec<Case> = vec![
            // One leg: the whole body runs where the data lives.
            ("an unsharded collection runs whole on the primary", None, &off_key, &[PRIMARY],
                body(&off_key), vec![]),
            ("a point-targeted $match runs whole on its shard", Some(&range), &point, &[1],
                body(&point), vec![]),
            ("a range reaching one shard runs whole there", Some(&range), &one_range, &[1],
                body(&one_range), vec![]),
            ("an empty key range runs whole on the primary", Some(&range), &empty_range, &[PRIMARY],
                body(&empty_range), vec![]),
            // Several legs: each runs the prefix and its partial, the
            // router merges and runs the rest.
            ("a broadcast ships its top skip + limit", Some(&range), &off_key, &everything,
                pushed(Filter::eq("w", 1i64)), tail()),
            ("an $in over two shards ships the same", Some(&range), &two_shards, &[0, 2],
                pushed(Filter::is_in("k", [50i64, 250i64])), tail()),
            ("no $match and no window: every shard ships everything", Some(&range), &sort_only,
                &everything, vec![], sort_only.stages().to_vec()),
            ("a $group ships its key and inputs' running states", Some(&range), &grouped,
                &everything, key_and_input.stages().to_vec(), vec![Stage::Sort(vec![("_id".into(), 1)])]),
            ("a $count ships a count", Some(&range), &counted, &everything, body(&counted), vec![]),
            ("a bare $limit behind infallible stages travels", Some(&range), &unwound, &everything,
                body(&unwound), vec![Stage::Limit(4)]),
            ("a bare $limit behind a $project stays with it at the router", Some(&range), &projected,
                &everything, w1().stages().to_vec(), body(&projected)[1..].to_vec()),
        ];
        for (what, meta, pipeline, shards, leg, rest) in cases {
            let plan = plan_aggregate(meta, PRIMARY, pipeline).unwrap();
            assert_eq!(plan.route.shards(), shards, "{what}");
            assert_eq!(plan.split.part().stages(), &leg[..], "{what}");
            assert_eq!(plan.split.rest(), &rest[..], "{what}");
            let out = |s: &Stage| matches!(s, Stage::Out(_));
            assert!(!plan.split.part().stages().iter().any(out) && !plan.split.rest().iter().any(out), "{what}");
        }
        // A point route keeps its key for the leg's ownership check.
        let plan = plan_aggregate(Some(&range), PRIMARY, &point).unwrap();
        assert_eq!(plan.route.point_key, Some(k(150)));
        // A $out anywhere but last is refused, whatever the route.
        let misplaced = Pipeline::new().match_stage(Filter::eq("k", 150i64)).out("x").limit(1);
        for meta in [None, Some(&range)] {
            let err = plan_aggregate(meta, PRIMARY, &misplaced).err().unwrap();
            assert_eq!(err.to_string(), "invalid query: $out can only be the final stage of a pipeline");
        }
    }

    #[test]
    fn write_groups_keep_statement_order_and_owed_shards() {
        let range = three_chunks(ShardKey::range(["k"]));
        let filters = [Filter::eq("k", 250i64), Filter::True, Filter::eq("k", 5i64)];
        let groups = group_writes(Some(&range), 0, |i| &filters[i], [(0, None), (1, Some(2)), (2, None)]);
        let want = BTreeMap::from([
            (0, vec![(2, Some(k(5)))]),
            (2, vec![(0, Some(k(250))), (1, None)]),
        ]);
        assert_eq!(groups, want);
        let fresh = group_writes(Some(&range), 0, |i| &filters[i], [(1, None)]);
        assert_eq!(fresh.keys().copied().collect::<Vec<_>>(), [0, 1, 2]);
    }
}
