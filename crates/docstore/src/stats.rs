//! Per-collection statistics for cost-based planning.
//!
//! The paper's central observation is that the winning physical strategy
//! flips with selectivity: filter the dimension and `$in`-semi-join the
//! fact when predicates are selective, full-scan otherwise. Making that
//! call requires cardinality estimates, so each collection maintains
//! per-field statistics: an exact value→count map for low-cardinality
//! fields that spills into an equi-depth histogram past
//! [`EXACT_CAP`] distinct values. Stats are maintained incrementally on
//! the write path (cheap count adjustments) and rebuilt from the slab
//! once enough writes have accumulated to make the increments drift
//! ([`CollStats::needs_rebuild`]). They serialize into the checkpoint
//! manifest so a recovered database plans as well as it did before the
//! restart.

use crate::keybytes::{self, Key};
use crate::query::filter::Filter;
use crate::query::planner::{conjunctive_constraints, Constraints, PathConstraint};
use crate::storage::Slab;
use doclite_bson::{Document, Value};
use std::collections::BTreeMap;
use std::ops::Bound;

/// Collection scans that must read a path before the collection builds
/// a column for it. The first scan may be a one-off (an ad-hoc query, a
/// reference run); the second shows the path is read repeatedly, and
/// the build costs about the scan it then replaces.
pub const COLUMN_AFTER_SCANS: u32 = 2;
/// Minimum live documents before a collection builds columns: below
/// this a scan is cheaper than keeping a sidecar consistent.
pub const AUTO_COLUMNAR_MIN_DOCS: usize = 4096;

/// Distinct values an exact per-field map holds before spilling into an
/// equi-depth histogram.
pub const EXACT_CAP: usize = 256;
/// Target histogram bucket count after a spill or rebuild.
pub const HIST_BUCKETS: usize = 64;
/// Default equality selectivity for untracked fields.
pub const DEFAULT_EQ_FRACTION: f64 = 0.10;
/// Default range selectivity for untracked fields.
pub const DEFAULT_RANGE_FRACTION: f64 = 1.0 / 3.0;

/// One equi-depth histogram bucket: values in `(prev.upper, upper]`.
/// `upper` is the [`Key`] of `upper_value`, which the stats document
/// persists.
#[derive(Clone, Debug)]
struct Bucket {
    upper: Key,
    upper_value: Value,
    count: u64,
    distinct: u64,
}

/// A value's key → the value first seen with it and its occurrence
/// count.
type Counts = BTreeMap<Key, (Value, u64)>;

#[derive(Clone, Debug)]
enum Dist {
    /// Exact value → occurrence count (≤ [`EXACT_CAP`] distinct).
    Exact(Counts),
    /// Equi-depth buckets; counts drift incrementally, distincts are
    /// frozen at build time.
    Hist(Vec<Bucket>),
}

/// Statistics for one tracked field.
#[derive(Clone, Debug)]
struct FieldStats {
    dist: Dist,
    /// Documents where the path resolves to a scalar (incl. null).
    scalar: u64,
    /// Documents where the path is absent.
    missing: u64,
    /// Documents where the path resolves to an array or sub-document.
    other: u64,
}

impl FieldStats {
    fn new() -> Self {
        FieldStats { dist: Dist::Exact(BTreeMap::new()), scalar: 0, missing: 0, other: 0 }
    }

    fn total(&self) -> u64 {
        self.scalar + self.missing + self.other
    }

    fn record(&mut self, value: Option<&Value>, delta: i64) {
        let bump = |n: &mut u64| {
            *n = if delta > 0 { n.saturating_add(1) } else { n.saturating_sub(1) }
        };
        match value {
            None => bump(&mut self.missing),
            Some(Value::Array(_) | Value::Document(_)) => bump(&mut self.other),
            Some(v) => {
                bump(&mut self.scalar);
                let key = Key::of(v);
                match &mut self.dist {
                    Dist::Exact(map) => {
                        if delta > 0 {
                            map.entry(key).or_insert_with(|| (v.clone(), 0)).1 += 1;
                            if map.len() > EXACT_CAP {
                                let taken = std::mem::take(map);
                                self.dist = Dist::Hist(hist_from_counts(taken));
                            }
                        } else if let Some((_, n)) = map.get_mut(&key) {
                            *n = n.saturating_sub(1);
                            if *n == 0 {
                                map.remove(&key);
                            }
                        }
                    }
                    Dist::Hist(buckets) => {
                        if buckets.is_empty() {
                            if delta > 0 {
                                let upper_value = v.clone();
                                buckets.push(Bucket { upper: key, upper_value, count: 1, distinct: 1 });
                            }
                            return;
                        }
                        let i = buckets
                            .partition_point(|b| b.upper < key)
                            .min(buckets.len() - 1);
                        if delta > 0 {
                            buckets[i].count = buckets[i].count.saturating_add(1);
                            if key > buckets[i].upper {
                                // extend the tail bucket
                                buckets[i].upper = key;
                                buckets[i].upper_value = v.clone();
                            }
                        } else {
                            buckets[i].count = buckets[i].count.saturating_sub(1);
                        }
                    }
                }
            }
        }
    }

    /// Estimated fraction of documents whose value equals `v`, probed
    /// by `v`'s key bytes encoded into `scratch`.
    fn eq_fraction(&self, v: &Value, scratch: &mut Vec<u8>) -> f64 {
        let total = self.total().max(1) as f64;
        keybytes::encode_into(v, scratch);
        let key = scratch.as_slice();
        match &self.dist {
            Dist::Exact(map) => map.get(key).map_or(0, |(_, n)| *n) as f64 / total,
            Dist::Hist(buckets) => {
                let i = buckets.partition_point(|b| b.upper.as_bytes() < key);
                match buckets.get(i) {
                    Some(b) => b.count as f64 / b.distinct.max(1) as f64 / total,
                    None => 0.0,
                }
            }
        }
    }

    /// Estimated fraction of documents whose value lies in the range.
    fn range_fraction(
        &self,
        min: Option<&(Value, bool)>,
        max: Option<&(Value, bool)>,
    ) -> f64 {
        let total = self.total().max(1) as f64;
        let key = |b: Option<&(Value, bool)>| b.map(|(v, incl)| (Key::of(v), *incl));
        let (min, max) = (key(min), key(max));
        if let (Some((a, ai)), Some((b, bi))) = (&min, &max) {
            match a.cmp(b) {
                std::cmp::Ordering::Greater => return 0.0,
                std::cmp::Ordering::Equal if !(*ai && *bi) => return 0.0,
                _ => {}
            }
        }
        match &self.dist {
            Dist::Exact(map) => {
                fn bound(b: &Option<(Key, bool)>) -> Bound<&Key> {
                    match b {
                        None => Bound::Unbounded,
                        Some((k, true)) => Bound::Included(k),
                        Some((k, false)) => Bound::Excluded(k),
                    }
                }
                let span = map.range::<Key, _>((bound(&min), bound(&max)));
                let n: u64 = span.map(|(_, (_, c))| *c).sum();
                n as f64 / total
            }
            Dist::Hist(buckets) => {
                let mut n = 0.0;
                for (i, b) in buckets.iter().enumerate() {
                    let b_lo = if i == 0 { None } else { Some(&buckets[i - 1].upper) };
                    // Bucket entirely below the range?
                    if let Some((mv, incl)) = &min {
                        if b.upper < *mv || (b.upper == *mv && !incl) {
                            continue;
                        }
                    }
                    // Bucket entirely above the range?
                    if let (Some((mv, _)), Some(l)) = (&max, b_lo) {
                        if l >= mv {
                            break;
                        }
                    }
                    let covers_lo = match (&min, b_lo) {
                        (None, _) => true,
                        (Some((mv, _)), Some(l)) => l >= mv,
                        (Some(_), None) => false,
                    };
                    let covers_hi = match &max {
                        None => true,
                        Some((mv, incl)) => b.upper < *mv || (b.upper == *mv && *incl),
                    };
                    // Boundary buckets contribute half their mass.
                    n += if covers_lo && covers_hi {
                        b.count as f64
                    } else {
                        b.count as f64 / 2.0
                    };
                }
                n / total
            }
        }
    }

    fn to_doc(&self, name: &str) -> Document {
        let mut d = Document::new();
        d.set("f", name);
        d.set("scalar", self.scalar as i64);
        d.set("missing", self.missing as i64);
        d.set("other", self.other as i64);
        match &self.dist {
            Dist::Exact(map) => {
                d.set("t", "exact");
                d.set("vals", Value::Array(map.values().map(|(v, _)| v.clone()).collect()));
                d.set(
                    "counts",
                    Value::Array(map.values().map(|(_, c)| Value::Int64(*c as i64)).collect()),
                );
            }
            Dist::Hist(buckets) => {
                d.set("t", "hist");
                d.set(
                    "uppers",
                    Value::Array(buckets.iter().map(|b| b.upper_value.clone()).collect()),
                );
                d.set(
                    "counts",
                    Value::Array(
                        buckets.iter().map(|b| Value::Int64(b.count as i64)).collect(),
                    ),
                );
                d.set(
                    "distincts",
                    Value::Array(
                        buckets.iter().map(|b| Value::Int64(b.distinct as i64)).collect(),
                    ),
                );
            }
        }
        d
    }

    fn from_doc(d: &Document) -> Option<(String, FieldStats)> {
        let name = d.get("f")?.as_str()?.to_owned();
        let mut fs = FieldStats::new();
        fs.scalar = d.get("scalar")?.as_i64()?.max(0) as u64;
        fs.missing = d.get("missing")?.as_i64()?.max(0) as u64;
        fs.other = d.get("other")?.as_i64()?.max(0) as u64;
        let counts: Vec<u64> = d
            .get("counts")?
            .as_array()?
            .iter()
            .map(|v| v.as_i64().unwrap_or(0).max(0) as u64)
            .collect();
        match d.get("t")?.as_str()? {
            "exact" => {
                let vals = d.get("vals")?.as_array()?;
                if vals.len() != counts.len() {
                    return None;
                }
                let map = vals.iter().zip(counts).map(|(v, c)| (Key::of(v), (v.clone(), c))).collect();
                fs.dist = Dist::Exact(map);
            }
            "hist" => {
                let uppers = d.get("uppers")?.as_array()?;
                let distincts: Vec<u64> = d
                    .get("distincts")?
                    .as_array()?
                    .iter()
                    .map(|v| v.as_i64().unwrap_or(1).max(1) as u64)
                    .collect();
                if uppers.len() != counts.len() || uppers.len() != distincts.len() {
                    return None;
                }
                let buckets = uppers
                    .iter()
                    .zip(counts)
                    .zip(distincts)
                    .map(|((u, count), distinct)| Bucket {
                        upper: Key::of(u),
                        upper_value: u.clone(),
                        count,
                        distinct,
                    })
                    .collect();
                fs.dist = Dist::Hist(buckets);
            }
            _ => return None,
        }
        Some((name, fs))
    }
}

/// Builds equi-depth buckets from an exact (sorted) value→count map.
fn hist_from_counts(map: Counts) -> Vec<Bucket> {
    let total: u64 = map.values().map(|(_, c)| c).sum();
    let depth = (total / HIST_BUCKETS as u64).max(1);
    let mut buckets: Vec<Bucket> = Vec::with_capacity(HIST_BUCKETS + 1);
    let mut count = 0;
    let mut distinct = 0;
    let mut last: Option<(Key, Value)> = None;
    for (k, (v, c)) in map {
        count += c;
        distinct += 1;
        last = Some((k, v));
        if count >= depth {
            let (upper, upper_value) = last.take().expect("just set");
            buckets.push(Bucket { upper, upper_value, count, distinct });
            count = 0;
            distinct = 0;
        }
    }
    if let Some((upper, upper_value)) = last {
        buckets.push(Bucket { upper, upper_value, count, distinct });
    }
    buckets
}

/// Incrementally-maintained per-collection statistics.
#[derive(Clone, Debug, Default)]
pub struct CollStats {
    fields: BTreeMap<String, FieldStats>,
    writes_since_build: u64,
    built: bool,
    /// Collection scans seen per filter path that has no column yet
    /// (see [`CollStats::note_scan`]). Not serialized: a reopened or
    /// copied collection earns its columns again.
    scans: BTreeMap<String, u32>,
}

impl CollStats {
    /// Empty stats tracking only `_id`.
    pub fn new() -> Self {
        let mut s = CollStats::default();
        s.fields.insert("_id".to_owned(), FieldStats::new());
        s
    }

    /// Registers paths to track (idempotent). Newly-registered paths
    /// force a rebuild before the next cost-based plan.
    pub fn track_fields<'a>(&mut self, paths: impl IntoIterator<Item = &'a str>) {
        for p in paths {
            if !self.fields.contains_key(p) {
                self.fields.insert(p.to_owned(), FieldStats::new());
                self.built = false;
            }
        }
    }

    /// Counts one collection scan against each of `paths` (the paths its
    /// filter read that have no column). True when one of them has now
    /// been scanned [`COLUMN_AFTER_SCANS`] times, i.e. a column is due.
    pub fn note_scan<'a>(&mut self, paths: impl IntoIterator<Item = &'a str>) -> bool {
        let mut due = false;
        for p in paths {
            let n = self.scans.entry(p.to_owned()).or_insert(0);
            *n = n.saturating_add(1);
            due |= *n >= COLUMN_AFTER_SCANS;
        }
        due
    }

    /// True once `path` has been scanned [`COLUMN_AFTER_SCANS`] times
    /// without a column.
    pub fn column_due(&self, path: &str) -> bool {
        self.scans.get(path).is_some_and(|n| *n >= COLUMN_AFTER_SCANS)
    }

    /// Drops `path`'s scan count (its column was built or rejected).
    pub fn forget_scans(&mut self, path: &str) {
        self.scans.remove(path);
    }

    /// The tracked paths.
    pub fn tracked_fields(&self) -> impl Iterator<Item = &str> {
        self.fields.keys().map(String::as_str)
    }

    /// True once a full rebuild has run and no tracked field was added
    /// since.
    pub fn is_built(&self) -> bool {
        self.built
    }

    /// True when the increments have drifted enough (or a field was
    /// added) that estimates need a fresh scan.
    pub fn needs_rebuild(&self, live: usize) -> bool {
        !self.built || self.writes_since_build > (live as u64 / 4).max(1024)
    }

    /// Rebuilds every tracked field's distribution from the slab.
    pub fn rebuild(&mut self, slab: &Slab) {
        for (path, fs) in self.fields.iter_mut() {
            let mut map = Counts::new();
            let mut fresh = FieldStats::new();
            for (_, doc) in slab.iter() {
                match doc.get_path(path) {
                    None => fresh.missing += 1,
                    Some(Value::Array(_) | Value::Document(_)) => fresh.other += 1,
                    Some(v) => {
                        fresh.scalar += 1;
                        map.entry(Key::of(&v)).or_insert((v, 0)).1 += 1;
                    }
                }
            }
            fresh.dist = if map.len() <= EXACT_CAP {
                Dist::Exact(map)
            } else {
                Dist::Hist(hist_from_counts(map))
            };
            *fs = fresh;
        }
        self.writes_since_build = 0;
        self.built = true;
    }

    /// Adjusts stats for an inserted document.
    pub fn record_insert(&mut self, doc: &Document) {
        self.record(doc, 1);
    }

    /// Adjusts stats for a removed document.
    pub fn record_delete(&mut self, doc: &Document) {
        self.record(doc, -1);
    }

    /// Adjusts stats for a replaced document.
    pub fn record_update(&mut self, old: &Document, new: &Document) {
        self.record(old, -1);
        self.record(new, 1);
    }

    /// The tracked paths an in-place update must re-count, given which
    /// paths its spec touches — none until the statistics are built,
    /// like every other increment.
    pub(crate) fn touched_fields(&self, touches: impl Fn(&str) -> bool) -> Vec<String> {
        if !self.built {
            return Vec::new();
        }
        self.fields.keys().filter(|path| touches(path)).cloned().collect()
    }

    /// Adjusts stats for a document edited in place: `fields` are the
    /// [`touched_fields`](Self::touched_fields) of the edit and `old`
    /// what they resolved to before it, in that order. The untouched
    /// fields' counts are already right. Drift is counted as for
    /// [`record_update`](Self::record_update), except that an edit
    /// touching no tracked field moves no distribution and counts none.
    pub(crate) fn record_edit(&mut self, fields: &[String], old: Vec<Option<Value>>, new: &Document) {
        if !self.built || fields.is_empty() {
            return;
        }
        for (path, old) in fields.iter().zip(old) {
            if let Some(fs) = self.fields.get_mut(path) {
                fs.record(old.as_ref(), -1);
                fs.record(new.get_path(path).as_ref(), 1);
            }
        }
        self.writes_since_build += 2;
    }

    fn record(&mut self, doc: &Document, delta: i64) {
        // Until the first rebuild the distributions are empty and every
        // estimate falls back to defaults, so incremental maintenance
        // would be pure write-path overhead — a collection that never
        // plans never pays for stats.
        if !self.built {
            return;
        }
        for (path, fs) in self.fields.iter_mut() {
            fs.record(doc.get_path(path).as_ref(), delta);
        }
        self.writes_since_build += 1;
    }

    /// Estimated fraction of documents whose `path` equals `v`
    /// (untracked paths use [`DEFAULT_EQ_FRACTION`]). `scratch` is the
    /// caller's buffer for the probe key, reused across its probes.
    pub fn eq_value_fraction(&self, path: &str, v: &Value, scratch: &mut Vec<u8>) -> f64 {
        match self.fields.get(path) {
            Some(fs) if self.built => fs.eq_fraction(v, scratch),
            _ => DEFAULT_EQ_FRACTION,
        }
    }

    /// Estimated fraction of documents satisfying one path constraint;
    /// `scratch` as in [`Self::eq_value_fraction`].
    pub fn constraint_fraction(
        &self,
        path: &str,
        c: &PathConstraint,
        scratch: &mut Vec<u8>,
    ) -> f64 {
        if let Some(eq) = &c.eq_set {
            if eq.is_empty() {
                return 0.0;
            }
            let sum: f64 = eq.iter().map(|v| self.eq_value_fraction(path, v, scratch)).sum();
            return sum.min(1.0);
        }
        if c.min.is_some() || c.max.is_some() {
            return match self.fields.get(path) {
                Some(fs) if self.built => fs.range_fraction(c.min.as_ref(), c.max.as_ref()),
                _ => DEFAULT_RANGE_FRACTION,
            };
        }
        1.0
    }

    /// Estimated fraction of documents satisfying a filter's conjunctive
    /// constraints, multiplied under the independence assumption.
    /// Disjunctions contribute nothing (fraction 1.0 — conservative).
    pub fn estimate_fraction(&self, filter: &Filter) -> f64 {
        if matches!(filter, Filter::True) {
            return 1.0;
        }
        self.constraints_fraction(&conjunctive_constraints(filter), &mut Vec::new())
    }

    /// [`Self::estimate_fraction`] over constraints the caller already
    /// derived (the planner derives them once per plan).
    pub fn constraints_fraction(&self, constraints: &Constraints, scratch: &mut Vec<u8>) -> f64 {
        let mut frac = 1.0;
        for (path, c) in constraints {
            frac *= self.constraint_fraction(path, c, scratch);
        }
        frac.clamp(0.0, 1.0)
    }

    /// Estimated result rows for a filter over `live` documents.
    pub fn estimate_rows(&self, filter: &Filter, live: usize) -> u64 {
        (self.estimate_fraction(filter) * live as f64).round() as u64
    }

    /// Serializes into a checkpoint-manifest sub-document. Readers of
    /// older checkpoints simply miss the key and rebuild lazily.
    pub fn to_doc(&self) -> Document {
        let mut d = Document::new();
        d.set("built", self.built);
        d.set("wsb", self.writes_since_build as i64);
        d.set(
            "fields",
            Value::Array(self.fields.iter().map(|(n, fs)| Value::Document(fs.to_doc(n))).collect()),
        );
        d
    }

    /// Restores from [`CollStats::to_doc`] output; malformed input is
    /// ignored field-by-field (stats are advisory — a rebuild fixes any
    /// gap).
    pub fn from_doc(d: &Document) -> Self {
        let mut s = CollStats::new();
        s.built = d.get("built") == Some(&Value::Bool(true));
        s.writes_since_build =
            d.get("wsb").and_then(Value::as_i64).unwrap_or(0).max(0) as u64;
        if let Some(Value::Array(fields)) = d.get("fields") {
            for f in fields {
                if let Some((name, fs)) = f.as_document().and_then(FieldStats::from_doc) {
                    s.fields.insert(name, fs);
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;

    fn slab_of(docs: impl IntoIterator<Item = Document>) -> Slab {
        let mut s = Slab::new();
        for d in docs {
            s.insert(d);
        }
        s
    }

    fn built(slab: &Slab, fields: &[&str]) -> CollStats {
        let mut s = CollStats::new();
        s.track_fields(fields.iter().copied());
        s.rebuild(slab);
        s
    }

    #[test]
    fn exact_tier_estimates_equality_exactly() {
        let slab = slab_of((0..100).map(|i| doc! {"_id" => i as i64, "g" => (i % 10) as i64}));
        let s = built(&slab, &["g"]);
        let f = s.eq_value_fraction("g", &Value::Int64(3), &mut Vec::new());
        assert!((f - 0.1).abs() < 1e-9, "{f}");
        assert_eq!(s.estimate_rows(&Filter::eq("g", 3i64), 100), 10);
    }

    #[test]
    fn spills_to_histogram_past_exact_cap() {
        let slab = slab_of((0..2000).map(|i| doc! {"_id" => i as i64, "k" => i as i64}));
        let s = built(&slab, &["k"]);
        // 2000 distinct values > EXACT_CAP → histogram; a range covering
        // half the domain should estimate roughly half the rows.
        let rows = s.estimate_rows(&Filter::lt("k", 1000i64), 2000);
        assert!((800..=1200).contains(&(rows as usize)), "{rows}");
        // Point estimate lands near 1/2000.
        let f = s.eq_value_fraction("k", &Value::Int64(500), &mut Vec::new());
        assert!(f < 0.05, "{f}");
    }

    #[test]
    fn incremental_writes_track_counts() {
        let slab = slab_of((0..100).map(|i| doc! {"_id" => i as i64, "g" => (i % 10) as i64}));
        let mut s = built(&slab, &["g"]);
        for i in 100..150 {
            s.record_insert(&doc! {"_id" => i as i64, "g" => 3i64});
        }
        let f = s.eq_value_fraction("g", &Value::Int64(3), &mut Vec::new());
        assert!((f - 60.0 / 150.0).abs() < 1e-9, "{f}");
        s.record_delete(&doc! {"_id" => 100i64, "g" => 3i64});
        let f = s.eq_value_fraction("g", &Value::Int64(3), &mut Vec::new());
        assert!((f - 59.0 / 149.0).abs() < 1e-9, "{f}");
    }

    #[test]
    fn conjunction_multiplies_independent_fractions() {
        let slab = slab_of(
            (0..100).map(|i| doc! {"_id" => i as i64, "a" => (i % 10) as i64, "b" => (i % 4) as i64}),
        );
        let s = built(&slab, &["a", "b"]);
        let f = s.estimate_fraction(&Filter::and([
            Filter::eq("a", 1i64),
            Filter::eq("b", 2i64),
        ]));
        assert!((f - 0.1 * 0.25).abs() < 1e-6, "{f}");
    }

    #[test]
    fn roundtrips_through_manifest_doc() {
        let slab = slab_of((0..2000).map(|i| doc! {"_id" => i as i64, "k" => (i % 500) as i64}));
        let s = built(&slab, &["k"]);
        let restored = CollStats::from_doc(&s.to_doc());
        assert!(restored.is_built());
        for v in [0i64, 250, 499] {
            let a = s.eq_value_fraction("k", &Value::Int64(v), &mut Vec::new());
            let b = restored.eq_value_fraction("k", &Value::Int64(v), &mut Vec::new());
            assert!((a - b).abs() < 1e-9, "{v}: {a} vs {b}");
        }
    }

    #[test]
    fn edits_of_an_untracked_path_are_no_drift() {
        let slab = slab_of((0..4000).map(|i| doc! {"_id" => i as i64, "g" => (i % 10) as i64}));
        let mut s = built(&slab, &["g"]);
        for i in 0..600 {
            let fields = s.touched_fields(|path| path == "u");
            assert!(fields.is_empty());
            s.record_edit(&fields, Vec::new(), &doc! {"_id" => i as i64, "g" => 1i64, "u" => 1i64});
        }
        assert!(!s.needs_rebuild(4000), "600 edits of an untracked path forced a rebuild");
        // An edit of a tracked path still counts.
        for i in 0..600 {
            let fields = s.touched_fields(|path| path == "g");
            let old = vec![Some(Value::Int64(i % 10))];
            s.record_edit(&fields, old, &doc! {"_id" => i, "g" => 3i64});
        }
        assert!(s.needs_rebuild(4000));
    }

    #[test]
    fn rebuild_threshold_scales_with_live_count() {
        let slab = slab_of((0..10).map(|i| doc! {"_id" => i as i64}));
        let mut s = built(&slab, &[]);
        assert!(!s.needs_rebuild(10));
        for i in 0..1025 {
            s.record_insert(&doc! {"_id" => (100 + i) as i64});
        }
        assert!(s.needs_rebuild(1035));
    }
}
