//! Query planning: index selection under the index-prefix rule.
//!
//! Thesis Section 2.1.2 describes MongoDB's prefix rule: a compound index
//! on `(a, b, c)` serves queries constraining `a`, `a,b`, or `a,b,c`. The
//! planner extracts per-path constraints from the conjunctive part of a
//! filter, scores each index by its usable equality prefix (plus a final
//! range), and picks the best. The full filter is always re-applied as a
//! residual, so plans are correct even when the index key is a
//! conservative over-approximation (multikey, partial prefix, `$or`).

use super::filter::{CmpOp, Filter};
use crate::index::{Index, IndexKind};
use crate::ordvalue::CompoundKey;
use doclite_bson::Value;
use std::cmp::Ordering;
use std::collections::HashMap;

/// Per-path constraint derived from a filter's conjunctive predicates.
#[derive(Clone, Debug, Default)]
pub struct PathConstraint {
    /// Equality set: the path must equal one of these (`$eq` → 1 value,
    /// `$in` → n values). Empty set = unsatisfiable.
    pub eq_set: Option<Vec<Value>>,
    /// Lower bound (value, inclusive).
    pub min: Option<(Value, bool)>,
    /// Upper bound (value, inclusive).
    pub max: Option<(Value, bool)>,
}

impl PathConstraint {
    fn add_eq(&mut self, v: Value) {
        match &mut self.eq_set {
            None => self.eq_set = Some(vec![v]),
            Some(set) => {
                // Conjunction of equalities: intersect.
                set.retain(|x| x.canonical_eq(&v));
            }
        }
    }

    fn add_in(&mut self, values: &[Value]) {
        match &mut self.eq_set {
            None => self.eq_set = Some(values.to_vec()),
            Some(set) => set.retain(|x| values.iter().any(|v| v.canonical_eq(x))),
        }
    }

    fn add_min(&mut self, v: Value, inclusive: bool) {
        let tighter = match &self.min {
            None => true,
            Some((cur, cur_incl)) => match v.canonical_cmp(cur) {
                Ordering::Greater => true,
                Ordering::Equal => *cur_incl && !inclusive,
                Ordering::Less => false,
            },
        };
        if tighter {
            self.min = Some((v, inclusive));
        }
    }

    fn add_max(&mut self, v: Value, inclusive: bool) {
        let tighter = match &self.max {
            None => true,
            Some((cur, cur_incl)) => match v.canonical_cmp(cur) {
                Ordering::Less => true,
                Ordering::Equal => *cur_incl && !inclusive,
                Ordering::Greater => false,
            },
        };
        if tighter {
            self.max = Some((v, inclusive));
        }
    }

    /// True if the constraint pins the path to exact value(s).
    pub fn is_equality(&self) -> bool {
        self.eq_set.is_some()
    }

    /// True if there is a usable range bound.
    pub fn has_range(&self) -> bool {
        self.min.is_some() || self.max.is_some()
    }
}

/// Extracts per-path constraints from the top-level conjunction of a
/// filter. Disjunctions (`$or`/`$nor`/`$not`) contribute nothing — they
/// cannot narrow an index scan conservatively. Also used by the sharding
/// router to decide targeted-vs-broadcast (thesis Section 4.3 item iii).
pub fn conjunctive_constraints(filter: &Filter) -> HashMap<String, PathConstraint> {
    let mut map: HashMap<String, PathConstraint> = HashMap::new();
    collect(filter, &mut map);
    map
}

fn collect(filter: &Filter, map: &mut HashMap<String, PathConstraint>) {
    match filter {
        Filter::And(fs) => {
            for f in fs {
                collect(f, map);
            }
        }
        Filter::Cmp { path, op, value } => {
            let c = map.entry(path.clone()).or_default();
            match op {
                CmpOp::Eq => c.add_eq(value.clone()),
                CmpOp::Gt => c.add_min(value.clone(), false),
                CmpOp::Gte => c.add_min(value.clone(), true),
                CmpOp::Lt => c.add_max(value.clone(), false),
                CmpOp::Lte => c.add_max(value.clone(), true),
                CmpOp::Ne => {}
            }
        }
        Filter::In { path, values } => {
            map.entry(path.clone()).or_default().add_in(values);
        }
        // $or/$nor/$not/$nin/$exists/True: no conjunctive narrowing.
        _ => {}
    }
}

/// How a query will fetch candidate documents.
#[derive(Clone, Debug, PartialEq)]
pub enum PlanKind {
    /// Scan every live document.
    CollScan,
    /// Evaluate the filter over the sidecar's typed columns and fetch
    /// only the matching documents. `cols` are the paths the filter
    /// reads, each of which has a column.
    ColumnScan { cols: Vec<String> },
    /// Point lookups on full index keys (equality on every index field).
    IndexEq { index: String, keys: Vec<CompoundKey> },
    /// B-tree range scan on the index's first field.
    IndexRange {
        index: String,
        min: Option<(Value, bool)>,
        max: Option<(Value, bool)>,
    },
}

/// A chosen plan: a fetch strategy plus the residual filter that is always
/// re-applied to candidates.
#[derive(Clone, Debug)]
pub struct Plan {
    pub kind: PlanKind,
    pub residual: Filter,
}

impl Plan {
    /// Short explain string, e.g. `IXSCAN { d_year_1 }` / `COLLSCAN` /
    /// `COLSCAN { inv_item_sk, inv_date_sk }`.
    pub fn describe(&self) -> String {
        match &self.kind {
            PlanKind::CollScan => "COLLSCAN".to_owned(),
            PlanKind::ColumnScan { cols } => format!("COLSCAN {{ {} }}", cols.join(", ")),
            PlanKind::IndexEq { index, keys } => {
                format!("IXSCAN {{ {index} }} ({} point lookup(s))", keys.len())
            }
            PlanKind::IndexRange { index, .. } => format!("IXSCAN {{ {index} }} (range)"),
        }
    }

    /// True if the plan uses an index (a column scan, like a
    /// collection scan, does not).
    pub fn uses_index(&self) -> bool {
        matches!(self.kind, PlanKind::IndexEq { .. } | PlanKind::IndexRange { .. })
    }
}

/// Upper bound on the cartesian expansion of `$in` sets into point
/// lookups; beyond this the planner degrades to a first-field range or a
/// collection scan.
const MAX_POINT_LOOKUPS: usize = 1024;

/// Picks the best plan for a filter over the available indexes by the
/// prefix rule alone ("any usable index prefix wins") — what
/// [`plan_with_stats`] falls back to for collections too small to price.
fn plan(filter: &Filter, indexes: &[Index]) -> Plan {
    let constraints = conjunctive_constraints(filter);
    let mut best: Option<(usize, PlanKind)> = None; // (score, kind)

    for idx in indexes {
        let Some(candidate) = plan_for_index(idx, &constraints) else {
            continue;
        };
        let score = score(&candidate, idx);
        let better = match &best {
            None => true,
            Some((best_score, _)) => score > *best_score,
        };
        if better {
            best = Some((score, candidate));
        }
    }

    Plan {
        kind: best.map_or(PlanKind::CollScan, |(_, k)| k),
        residual: filter.clone(),
    }
}

fn score(kind: &PlanKind, idx: &Index) -> usize {
    match kind {
        PlanKind::CollScan | PlanKind::ColumnScan { .. } => 0,
        // Full-key equality is the most selective; weight by key arity so
        // a compound full-key match beats a single-field one.
        PlanKind::IndexEq { .. } => 100 + idx.def.fields.len() * 10,
        PlanKind::IndexRange { min, max, .. } => {
            let bounded = usize::from(min.is_some()) + usize::from(max.is_some());
            // An eq-as-range (min==max inclusive) scores above a true range.
            10 + bounded
        }
    }
}

fn plan_for_index(
    idx: &Index,
    constraints: &HashMap<String, PathConstraint>,
) -> Option<PlanKind> {
    let fields = idx.def.field_names();

    // Case 1: equality on every index field → point lookups.
    let eq_sets: Option<Vec<&Vec<Value>>> = fields
        .iter()
        .map(|f| constraints.get(*f).and_then(|c| c.eq_set.as_ref()))
        .collect();
    if let Some(eq_sets) = eq_sets {
        let combos: usize = eq_sets.iter().map(|s| s.len().max(1)).product();
        if combos > 0 && combos <= MAX_POINT_LOOKUPS && eq_sets.iter().all(|s| !s.is_empty())
        {
            let keys = cartesian(&eq_sets);
            return Some(PlanKind::IndexEq { index: idx.def.name.clone(), keys });
        }
    }

    // Case 2 (B-tree only): range or equality on the first field.
    if idx.def.kind == IndexKind::BTree {
        if let Some(c) = constraints.get(fields[0]) {
            if let Some(eq) = &c.eq_set {
                if eq.len() == 1 {
                    let v = eq[0].clone();
                    return Some(PlanKind::IndexRange {
                        index: idx.def.name.clone(),
                        min: Some((v.clone(), true)),
                        max: Some((v, true)),
                    });
                }
            } else if c.has_range() {
                return Some(PlanKind::IndexRange {
                    index: idx.def.name.clone(),
                    min: c.min.clone(),
                    max: c.max.clone(),
                });
            }
        }
    }

    None
}

/// Per-row cost of the full collection scan (the baseline unit).
pub const COST_SCAN_ROW: f64 = 1.0;
/// Per-row cost of fetching an index candidate (Arc bump + residual
/// match) — barely above the scan row, because the streaming scan is
/// itself just an Arc bump + match per row.
pub const COST_FETCH_ROW: f64 = 1.2;
/// Fixed cost per index probe (point lookup or range-scan start).
pub const COST_SEEK: f64 = 16.0;
/// Per-row cost of evaluating a filter over typed columns, from the
/// recorded ~8× batch-vs-row speedup on scan-heavy shapes
/// (BENCH_columnar). A column scan pays it for every live row, then
/// [`COST_FETCH_ROW`] for each row it expects to match — unless the
/// caller consumes the selection without fetching documents.
pub const COST_COLUMNAR_ROW: f64 = 0.15;

/// At or below this live-document count the cost model defers to the
/// prefix rule: every choice is noise at this scale, and deferring keeps
/// small-fixture behavior (and its `explain` counters) unchanged.
pub const SMALL_COLLECTION: usize = 256;

/// A plan chosen by the cost model, with the estimates that selected it.
#[derive(Clone, Debug)]
pub struct CostedPlan {
    pub plan: Plan,
    /// Estimated fraction of live documents satisfying the full filter.
    pub est_fraction: f64,
    /// Estimated result rows (`est_fraction × live`).
    pub est_rows: u64,
    /// Estimated cost of the chosen plan, in scan-row units.
    pub cost: f64,
}

/// Cost-based planning: enumerates the index candidates of the prefix
/// rule plus the collection scan and — when `has_column` holds for
/// *every* path the filter reads — the column scan, prices each with the
/// per-field statistics, and picks the cheapest. `fetch` says whether the
/// caller reads the matching documents (every `find` / `update` /
/// streamed pipeline) or only the columns (the aggregation driver's
/// covered terminal), in which case a column scan pays no per-match
/// fetch. The residual filter is always the full filter, so any choice
/// returns identical results — a misestimate costs time, not
/// correctness. Collections under [`SMALL_COLLECTION`] documents defer
/// to the rule planner.
pub fn plan_with_stats(
    filter: &Filter,
    indexes: &[Index],
    stats: &crate::stats::CollStats,
    live: usize,
    has_column: &dyn Fn(&str) -> bool,
    fetch: bool,
) -> CostedPlan {
    let est_fraction = stats.estimate_fraction(filter);
    let est_rows = (est_fraction * live as f64).round() as u64;
    if live <= SMALL_COLLECTION {
        let plan = plan(filter, indexes);
        return CostedPlan { plan, est_fraction, est_rows, cost: live as f64 };
    }
    let constraints = conjunctive_constraints(filter);
    let mut best_kind = PlanKind::CollScan;
    let mut best_cost = live as f64 * COST_SCAN_ROW;
    for idx in indexes {
        let Some(candidate) = plan_for_index(idx, &constraints) else {
            continue;
        };
        let cost = index_cost(&candidate, idx, stats, live);
        if cost < best_cost {
            best_cost = cost;
            best_kind = candidate;
        }
    }
    let paths = filter.referenced_paths();
    if !paths.is_empty() && paths.iter().all(|p| has_column(p)) {
        let fetched = if fetch { est_rows as f64 * COST_FETCH_ROW } else { 0.0 };
        let cost = live as f64 * COST_COLUMNAR_ROW + fetched;
        if cost < best_cost {
            best_cost = cost;
            best_kind =
                PlanKind::ColumnScan { cols: paths.into_iter().map(str::to_owned).collect() };
        }
    }
    CostedPlan {
        plan: Plan { kind: best_kind, residual: filter.clone() },
        est_fraction,
        est_rows,
        cost: best_cost,
    }
}

/// Prices an index candidate: seeks plus estimated candidate fetches.
fn index_cost(kind: &PlanKind, idx: &Index, stats: &crate::stats::CollStats, live: usize) -> f64 {
    let fields = idx.def.field_names();
    match kind {
        PlanKind::CollScan | PlanKind::ColumnScan { .. } => {
            unreachable!("index_cost prices index candidates only")
        }
        PlanKind::IndexEq { keys, .. } => {
            // Candidate fraction: Σ over keys of Π over fields of the
            // per-value equality fraction (independence assumption).
            let mut frac = 0.0;
            for key in keys {
                let mut kf = 1.0;
                for (f, ov) in fields.iter().zip(&key.0) {
                    kf *= stats.eq_value_fraction(f, ov.value());
                }
                frac += kf;
            }
            let rows = frac.min(1.0) * live as f64;
            keys.len() as f64 * COST_SEEK + rows * COST_FETCH_ROW
        }
        PlanKind::IndexRange { min, max, .. } => {
            let c = PathConstraint { eq_set: None, min: min.clone(), max: max.clone() };
            let frac = stats.constraint_fraction(fields[0], &c);
            COST_SEEK + frac * live as f64 * COST_FETCH_ROW
        }
    }
}

fn cartesian(sets: &[&Vec<Value>]) -> Vec<CompoundKey> {
    let mut keys: Vec<Vec<Value>> = vec![Vec::new()];
    for set in sets {
        let mut next = Vec::with_capacity(keys.len() * set.len());
        for prefix in &keys {
            for v in set.iter() {
                let mut k = prefix.clone();
                k.push(v.clone());
                next.push(k);
            }
        }
        keys = next;
    }
    keys.into_iter().map(CompoundKey::from_values).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexDef;

    fn idx(def: IndexDef) -> Index {
        Index::new(def).unwrap()
    }

    #[test]
    fn constraints_merge_ranges() {
        let f = Filter::and([
            Filter::gte("p", 1i64),
            Filter::gt("p", 0i64),
            Filter::lte("p", 9i64),
            Filter::lt("p", 20i64),
        ]);
        let c = conjunctive_constraints(&f);
        let pc = &c["p"];
        assert_eq!(pc.min, Some((Value::Int64(1), true)));
        assert_eq!(pc.max, Some((Value::Int64(9), true)));
    }

    #[test]
    fn constraints_intersect_eq_and_in() {
        let f = Filter::and([
            Filter::is_in("k", [1i64, 2i64, 3i64]),
            Filter::is_in("k", [2i64, 3i64, 4i64]),
        ]);
        let c = conjunctive_constraints(&f);
        let eq = c["k"].eq_set.as_ref().unwrap();
        assert_eq!(eq.len(), 2);
    }

    #[test]
    fn or_contributes_no_constraints() {
        let f = Filter::or([Filter::eq("a", 1i64), Filter::eq("b", 2i64)]);
        assert!(conjunctive_constraints(&f).is_empty());
    }

    #[test]
    fn full_key_equality_beats_range() {
        let indexes = vec![
            idx(IndexDef::single("a")),
            idx(IndexDef::compound(["a", "b"])),
        ];
        let f = Filter::and([Filter::eq("a", 1i64), Filter::eq("b", 2i64)]);
        let p = plan(&f, &indexes);
        assert!(matches!(
            &p.kind,
            PlanKind::IndexEq { index, keys } if index == "a_1_b_1" && keys.len() == 1
        ));
    }

    #[test]
    fn in_expands_to_point_lookups() {
        let indexes = vec![idx(IndexDef::single("dow"))];
        let f = Filter::is_in("dow", [6i64, 0i64]);
        let p = plan(&f, &indexes);
        assert!(matches!(&p.kind, PlanKind::IndexEq { keys, .. } if keys.len() == 2));
    }

    #[test]
    fn range_uses_first_field() {
        let indexes = vec![idx(IndexDef::compound(["price", "qty"]))];
        let f = Filter::between("price", 1i64, 5i64);
        let p = plan(&f, &indexes);
        assert!(matches!(&p.kind, PlanKind::IndexRange { index, .. } if index == "price_1_qty_1"));
    }

    #[test]
    fn prefix_rule_no_first_field_means_collscan() {
        let indexes = vec![idx(IndexDef::compound(["a", "b"]))];
        let f = Filter::eq("b", 1i64); // only the non-leading field
        let p = plan(&f, &indexes);
        assert_eq!(p.kind, PlanKind::CollScan);
    }

    #[test]
    fn hashed_index_serves_equality_not_range() {
        let indexes = vec![idx(IndexDef::hashed("k"))];
        let eq = plan(&Filter::eq("k", 1i64), &indexes);
        assert!(matches!(eq.kind, PlanKind::IndexEq { .. }));
        let rng = plan(&Filter::gt("k", 1i64), &indexes);
        assert_eq!(rng.kind, PlanKind::CollScan);
    }

    #[test]
    fn unsatisfiable_eq_intersection_degrades_safely() {
        let indexes = vec![idx(IndexDef::single("k"))];
        let f = Filter::and([Filter::eq("k", 1i64), Filter::eq("k", 2i64)]);
        let p = plan(&f, &indexes);
        // Empty eq set → no index plan; collection scan with residual
        // filter still returns zero rows, which is correct.
        assert_eq!(p.kind, PlanKind::CollScan);
    }
}
