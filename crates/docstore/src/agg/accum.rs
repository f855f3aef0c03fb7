//! `$group` accumulators.
//!
//! Semantics follow MongoDB's: `$sum` and `$avg` skip non-numeric inputs
//! (so `{$sum: {$cond: [...]}}` patterns — Query 21 and Query 50's
//! bucketed day-range counts — behave exactly as in the thesis's scripts).
//!
//! The same states serve a query's `$group`, a shard's partial group
//! ([`AccState::merge`]) and a view's incrementally maintained group
//! ([`AccState::retract`]). Following the invertibility classes of
//! Botoeva et al. (PAPERS.md), a state takes an input back only while
//! doing so is exact: `$sum` and `$avg` subtract an integer input while
//! the magnitudes of everything they hold add up to at most 2^53, where
//! every order of adding them is exact in f64. Any other retraction — a
//! double, a larger total, a non-null `$min` / `$max` input — reports
//! that the group must be recomputed from its source.

use super::expr::Expr;
use crate::error::Result;
use doclite_bson::codec::{encoded_array_size, encoded_value_size};
use doclite_bson::{Document, Resolved, Value};

/// An accumulator specification: the operator plus its argument
/// expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Accumulator {
    /// `{$sum: expr}`; `{$sum: 1}` is the idiomatic count.
    Sum(Expr),
    /// `{$avg: expr}`.
    Avg(Expr),
    /// `{$min: expr}`.
    Min(Expr),
    /// `{$max: expr}`.
    Max(Expr),
    /// `{$first: expr}` (document order).
    First(Expr),
    /// `{$last: expr}`.
    Last(Expr),
    /// `{$push: expr}`.
    Push(Expr),
    /// `{$addToSet: expr}`.
    AddToSet(Expr),
}

impl Accumulator {
    /// `{$sum: "$path"}`.
    pub fn sum_field(path: impl Into<String>) -> Self {
        Accumulator::Sum(Expr::field(path))
    }

    /// `{$avg: "$path"}`.
    pub fn avg_field(path: impl Into<String>) -> Self {
        Accumulator::Avg(Expr::field(path))
    }

    /// `{$sum: 1}` — row count.
    pub fn count() -> Self {
        Accumulator::Sum(Expr::lit(1i64))
    }

    /// Whether a change stream can keep this accumulator current: `$sum`,
    /// `$avg`, `$min` and `$max` fold inserts in and take deletes back or
    /// recompute their group ([`AccState::retract`]). `$first`, `$last`,
    /// `$push` and `$addToSet` depend on document order, which a change
    /// stream does not carry.
    pub fn is_maintainable(&self) -> bool {
        matches!(
            self,
            Accumulator::Sum(_) | Accumulator::Avg(_) | Accumulator::Min(_) | Accumulator::Max(_)
        )
    }
}

/// Every integer of at most this magnitude is exact in f64, and so is
/// every sum of integers whose magnitudes add up to at most this.
const EXACT_LIMIT: f64 = 9_007_199_254_740_992.0; // 2^53

/// What one input did to an [`AccState`]: the token [`AccState::retract`]
/// takes back. A view keeps one per accumulator per live source document.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) enum Contribution {
    /// The state ignored the input (a non-numeric `$sum` / `$avg` input,
    /// a null `$min` / `$max` one): taking it back changes nothing.
    Skip,
    /// An integer added to `$sum` / `$avg`.
    Integer(f64),
    /// Anything else: taking it back needs the group recomputed.
    Recompute,
}

/// Running state for one accumulator in one group. `magnitude` is the
/// sum of the integer inputs' magnitudes, and infinite once a double
/// came in: it says whether `total` is exact and an integer.
#[derive(Clone, Debug)]
pub enum AccState {
    Sum { total: f64, magnitude: f64 },
    Avg { total: f64, count: usize, magnitude: f64 },
    Min(Option<Value>),
    Max(Option<Value>),
    First(Option<Value>),
    Last(Option<Value>),
    Push(Vec<Value>),
    AddToSet(Vec<Value>),
}

impl AccState {
    /// Fresh state for a spec.
    pub fn new(spec: &Accumulator) -> Self {
        match spec {
            Accumulator::Sum(_) => AccState::Sum { total: 0.0, magnitude: 0.0 },
            Accumulator::Avg(_) => AccState::Avg { total: 0.0, count: 0, magnitude: 0.0 },
            Accumulator::Min(_) => AccState::Min(None),
            Accumulator::Max(_) => AccState::Max(None),
            Accumulator::First(_) => AccState::First(None),
            Accumulator::Last(_) => AccState::Last(None),
            Accumulator::Push(_) => AccState::Push(Vec::new()),
            Accumulator::AddToSet(_) => AccState::AddToSet(Vec::new()),
        }
    }

    /// Folds one document into the state.
    pub fn accumulate(&mut self, spec: &Accumulator, doc: &Document) -> Result<()> {
        let v = spec_expr(spec).eval(doc)?;
        self.accumulate_resolved(Resolved::Owned(v));
        Ok(())
    }

    /// Folds an already-evaluated input value into the state and returns
    /// what [`retract`](Self::retract) needs to take it back. Inspection
    /// (numeric extraction, extremum comparison, set membership) happens
    /// by reference; the value is taken by move only where the state
    /// actually retains it, so the kernel's borrowed inputs stay
    /// clone-free for `$sum`/`$avg`, rejected extrema, and set duplicates.
    pub(crate) fn accumulate_resolved(&mut self, v: Resolved<'_>) -> Contribution {
        match self {
            AccState::Sum { total, magnitude } => add(total, magnitude, v.as_value()),
            AccState::Avg { total, count, magnitude } => {
                let c = add(total, magnitude, v.as_value());
                *count += usize::from(c != Contribution::Skip);
                c
            }
            AccState::Min(cur) => extremum(cur, v, std::cmp::Ordering::Less),
            AccState::Max(cur) => extremum(cur, v, std::cmp::Ordering::Greater),
            AccState::First(cur) => {
                if cur.is_none() {
                    *cur = Some(v.into_value());
                }
                Contribution::Recompute
            }
            AccState::Last(cur) => {
                *cur = Some(v.into_value());
                Contribution::Recompute
            }
            AccState::Push(items) => {
                items.push(v.into_value());
                Contribution::Recompute
            }
            AccState::AddToSet(set) => {
                if !set.iter().any(|m| m.canonical_eq(v.as_value())) {
                    set.push(v.into_value());
                }
                Contribution::Recompute
            }
        }
    }

    /// Takes back an input that [`accumulate_resolved`](Self::accumulate_resolved)
    /// folded in, given the token it returned. True when the state now
    /// equals folding the remaining inputs afresh. False when it cannot
    /// take the input back — a double, a `$sum` / `$avg` past
    /// [`EXACT_LIMIT`], a non-null `$min` / `$max` input — and the group
    /// must be recomputed from its source; the state is then left as it
    /// was.
    pub(crate) fn retract(&mut self, c: Contribution) -> bool {
        let n = match c {
            Contribution::Skip => return true,
            Contribution::Recompute => return false,
            Contribution::Integer(n) => n,
        };
        match self {
            AccState::Sum { total, magnitude } => subtract(total, magnitude, n),
            AccState::Avg { total, count, magnitude } => {
                let exact = subtract(total, magnitude, n);
                *count -= usize::from(exact);
                exact
            }
            _ => unreachable!("only $sum and $avg hand out integer contributions"),
        }
    }

    /// Merges `other` — the state of the *later* part in document
    /// order ([`super::Split`]) — into `self`. Every accumulator is
    /// associative over ordered partitions: order-insensitive ones
    /// (`$sum`, `$avg`, `$min`, `$max`, `$addToSet`'s membership) combine
    /// freely, and the order-sensitive ones (`$first`, `$last`, `$push`,
    /// `$addToSet`'s first-seen ordering) are correct exactly because
    /// parts merge in document order. Only the float running sums
    /// (`$sum`/`$avg` over doubles) can differ from serial execution, by
    /// the usual ULP-level non-associativity of f64 addition.
    pub fn merge(&mut self, other: AccState) {
        match (self, other) {
            (AccState::Sum { total, magnitude }, AccState::Sum { total: t2, magnitude: m2 }) => {
                *total += t2;
                *magnitude += m2;
            }
            (
                AccState::Avg { total, count, magnitude },
                AccState::Avg { total: t2, count: c2, magnitude: m2 },
            ) => {
                *total += t2;
                *count += c2;
                *magnitude += m2;
            }
            (AccState::Min(cur), AccState::Min(v)) => {
                if let Some(v) = v {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.canonical_cmp(c) == std::cmp::Ordering::Less)
                    {
                        *cur = Some(v);
                    }
                }
            }
            (AccState::Max(cur), AccState::Max(v)) => {
                if let Some(v) = v {
                    if cur
                        .as_ref()
                        .is_none_or(|c| v.canonical_cmp(c) == std::cmp::Ordering::Greater)
                    {
                        *cur = Some(v);
                    }
                }
            }
            (AccState::First(cur), AccState::First(v)) => {
                if cur.is_none() {
                    *cur = v;
                }
            }
            (AccState::Last(cur), AccState::Last(v)) => {
                if v.is_some() {
                    *cur = v;
                }
            }
            (AccState::Push(items), AccState::Push(more)) => items.extend(more),
            (AccState::AddToSet(set), AccState::AddToSet(more)) => {
                for v in more {
                    if !set.iter().any(|have| have.canonical_eq(&v)) {
                        set.push(v);
                    }
                }
            }
            _ => unreachable!("merging accumulator states of different kinds"),
        }
    }

    /// The payload bytes this state ships in a partial `$group`: one
    /// number for `$sum`, a sum and a count for `$avg`, the kept value
    /// for `$min` / `$max` / `$first` / `$last` (nothing before one is
    /// seen), the array so far for `$push` / `$addToSet`.
    pub fn encoded_size(&self) -> usize {
        match self {
            AccState::Sum { .. } => 8,
            AccState::Avg { .. } => 16,
            AccState::Min(v) | AccState::Max(v) | AccState::First(v) | AccState::Last(v) => {
                v.as_ref().map_or(0, encoded_value_size)
            }
            AccState::Push(items) => encoded_array_size(items),
            AccState::AddToSet(set) => encoded_array_size(set.iter()),
        }
    }

    /// Final value for the group.
    pub fn finish(self) -> Value {
        match self {
            // MongoDB: $sum over no numeric inputs is 0, an integer.
            AccState::Sum { total, magnitude } => {
                if magnitude.is_finite() && total.fract() == 0.0 && total.abs() < i64::MAX as f64 {
                    Value::Int64(total as i64)
                } else {
                    Value::Double(total)
                }
            }
            AccState::Avg { total, count, .. } => {
                if count == 0 {
                    Value::Null
                } else {
                    Value::Double(total / count as f64)
                }
            }
            AccState::Min(v) | AccState::Max(v) | AccState::First(v) | AccState::Last(v) => {
                v.unwrap_or(Value::Null)
            }
            AccState::Push(items) => Value::Array(items),
            AccState::AddToSet(set) => Value::Array(set),
        }
    }
}

/// Adds a `$sum` / `$avg` input: a number counts, anything else is
/// skipped.
fn add(total: &mut f64, magnitude: &mut f64, v: &Value) -> Contribution {
    let Some(n) = v.as_f64() else {
        return Contribution::Skip;
    };
    *total += n;
    if matches!(v, Value::Int32(_) | Value::Int64(_)) {
        *magnitude += n.abs();
        Contribution::Integer(n)
    } else {
        *magnitude = f64::INFINITY;
        Contribution::Recompute
    }
}

/// Keeps a non-null `$min` / `$max` input that compares `wins` against
/// the current one.
fn extremum(cur: &mut Option<Value>, v: Resolved<'_>, wins: std::cmp::Ordering) -> Contribution {
    if v.as_value().is_null() {
        return Contribution::Skip;
    }
    if cur.as_ref().is_none_or(|c| v.as_value().canonical_cmp(c) == wins) {
        *cur = Some(v.into_value());
    }
    Contribution::Recompute
}

/// Takes an integer back out of a `$sum` / `$avg`, if its total is exact.
fn subtract(total: &mut f64, magnitude: &mut f64, n: f64) -> bool {
    let exact = *magnitude <= EXACT_LIMIT;
    if exact {
        *total -= n;
        *magnitude -= n.abs();
    }
    exact
}

/// The expression an accumulator folds over its group's documents.
pub fn spec_expr(spec: &Accumulator) -> &Expr {
    match spec {
        Accumulator::Sum(e)
        | Accumulator::Avg(e)
        | Accumulator::Min(e)
        | Accumulator::Max(e)
        | Accumulator::First(e)
        | Accumulator::Last(e)
        | Accumulator::Push(e)
        | Accumulator::AddToSet(e) => e,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;
    use proptest::prelude::*;

    fn run(spec: Accumulator, docs: &[Document]) -> Value {
        let mut st = AccState::new(&spec);
        for d in docs {
            st.accumulate(&spec, d).unwrap();
        }
        st.finish()
    }

    #[test]
    fn sum_skips_non_numeric_and_counts_with_literal_one() {
        let docs = [doc! {"x" => 1i64}, doc! {"x" => "skip"}, doc! {"x" => 2i64}, doc! {}];
        assert_eq!(run(Accumulator::sum_field("x"), &docs), Value::Int64(3));
        assert_eq!(run(Accumulator::count(), &docs), Value::Int64(4));
    }

    #[test]
    fn empty_sum_is_zero() {
        assert_eq!(run(Accumulator::sum_field("x"), &[]), Value::Int64(0));
    }

    #[test]
    fn sum_becomes_double_when_any_input_is() {
        let docs = [doc! {"x" => 1i64}, doc! {"x" => 0.5f64}];
        assert_eq!(run(Accumulator::sum_field("x"), &docs), Value::Double(1.5));
    }

    #[test]
    fn avg_ignores_missing_and_non_numeric() {
        let docs = [doc! {"x" => 2i64}, doc! {"y" => 1i64}, doc! {"x" => 4i64}];
        assert_eq!(run(Accumulator::avg_field("x"), &docs), Value::Double(3.0));
        assert_eq!(run(Accumulator::avg_field("z"), &docs), Value::Null);
    }

    #[test]
    fn min_max_skip_nulls() {
        let docs = [doc! {"x" => 5i64}, doc! {}, doc! {"x" => 2i64}, doc! {"x" => 9i64}];
        assert_eq!(run(Accumulator::Min(Expr::field("x")), &docs), Value::Int64(2));
        assert_eq!(run(Accumulator::Max(Expr::field("x")), &docs), Value::Int64(9));
    }

    #[test]
    fn first_last_respect_order() {
        let docs = [doc! {"x" => 1i64}, doc! {"x" => 2i64}, doc! {"x" => 3i64}];
        assert_eq!(run(Accumulator::First(Expr::field("x")), &docs), Value::Int64(1));
        assert_eq!(run(Accumulator::Last(Expr::field("x")), &docs), Value::Int64(3));
    }

    #[test]
    fn push_and_add_to_set() {
        let docs = [doc! {"x" => 1i64}, doc! {"x" => 1i64}, doc! {"x" => 2i64}];
        assert_eq!(
            run(Accumulator::Push(Expr::field("x")), &docs),
            Value::Array(vec![Value::Int64(1), Value::Int64(1), Value::Int64(2)])
        );
        assert_eq!(
            run(Accumulator::AddToSet(Expr::field("x")), &docs),
            Value::Array(vec![Value::Int64(1), Value::Int64(2)])
        );
    }

    #[test]
    fn conditional_sum_reproduces_case_when_bucketing() {
        // sum(case when diff <= 30 then 1 else 0 end) — Query 50's shape.
        let spec = Accumulator::Sum(Expr::cond(
            Expr::cmp(CmpOpLocal::Lte, Expr::field("diff"), Expr::lit(30i64)),
            Expr::lit(1i64),
            Expr::lit(0i64),
        ));
        let docs = [doc! {"diff" => 10i64}, doc! {"diff" => 40i64}, doc! {"diff" => 30i64}];
        assert_eq!(run(spec, &docs), Value::Int64(2));
    }

    use crate::query::filter::CmpOp as CmpOpLocal;

    #[test]
    fn merge_of_split_states_equals_serial_fold_at_every_split_point() {
        let docs = [
            doc! {"x" => 5i64},
            doc! {"x" => "skip"},
            doc! {},
            doc! {"x" => 2i64},
            doc! {"x" => 2i64},
            doc! {"x" => 9i64},
        ];
        let specs = [
            Accumulator::sum_field("x"),
            Accumulator::avg_field("x"),
            Accumulator::Min(Expr::field("x")),
            Accumulator::Max(Expr::field("x")),
            Accumulator::First(Expr::field("x")),
            Accumulator::Last(Expr::field("x")),
            Accumulator::Push(Expr::field("x")),
            Accumulator::AddToSet(Expr::field("x")),
            Accumulator::count(),
        ];
        for spec in &specs {
            let serial = run(spec.clone(), &docs);
            for split in 0..=docs.len() {
                let mut left = AccState::new(spec);
                for d in &docs[..split] {
                    left.accumulate(spec, d).unwrap();
                }
                let mut right = AccState::new(spec);
                for d in &docs[split..] {
                    right.accumulate(spec, d).unwrap();
                }
                left.merge(right);
                assert_eq!(left.finish(), serial, "{spec:?} split at {split}");
            }
        }
    }

    #[test]
    fn a_contribution_fits_in_16_bytes() {
        assert!(std::mem::size_of::<Contribution>() <= 16);
    }

    #[derive(Clone, Debug)]
    enum Step {
        Add(Value),
        /// Retracts a live input picked by index.
        Take(usize),
    }

    fn arb_input() -> impl Strategy<Value = Value> {
        prop_oneof![
            8 => (-1_000i64..1_000).prop_map(Value::Int64),
            4 => (-1_000i32..1_000).prop_map(Value::Int32),
            // Around the exact limit, 2^53, on either side of zero.
            2 => ((1i64 << 51)..(1i64 << 54)).prop_map(Value::Int64),
            2 => ((1i64 << 51)..(1i64 << 54)).prop_map(|n| Value::Int64(-n)),
            1 => any::<i64>().prop_map(Value::Int64),
            1 => (-1e3..1e3).prop_map(Value::Double),
            1 => (1e15..1e17).prop_map(Value::Double),
            1 => Just(Value::Null),
            1 => Just(Value::from("x")),
        ]
    }

    fn arb_step() -> impl Strategy<Value = Step> {
        prop_oneof![
            arb_input().prop_map(Step::Add),
            arb_input().prop_map(Step::Add),
            any::<usize>().prop_map(Step::Take),
        ]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Any interleaving of folds and retractions leaves a state that
        /// finishes equal to folding the surviving inputs afresh, in
        /// their order — or the retraction reported that it could not.
        #[test]
        fn a_retraction_is_exact_or_reports_the_group_dirty(
            steps in prop::collection::vec(arb_step(), 1..40),
        ) {
            let specs = [
                Accumulator::sum_field("x"),
                Accumulator::avg_field("x"),
                Accumulator::Min(Expr::field("x")),
                Accumulator::Max(Expr::field("x")),
            ];
            for spec in &specs {
                let mut state = AccState::new(spec);
                let mut live: Vec<(Value, Contribution)> = Vec::new();
                for step in &steps {
                    match step {
                        Step::Add(v) => {
                            live.push((v.clone(), state.accumulate_resolved(Resolved::Borrowed(v))));
                        }
                        Step::Take(pick) if !live.is_empty() => {
                            let (_, c) = live.remove(pick % live.len());
                            if !state.retract(c) {
                                break;
                            }
                        }
                        Step::Take(_) => {}
                    }
                    let mut fresh = AccState::new(spec);
                    for (v, _) in &live {
                        fresh.accumulate_resolved(Resolved::Borrowed(v));
                    }
                    prop_assert_eq!(state.clone().finish(), fresh.finish(), "{:?} after {:?}", spec, step);
                }
            }
        }
    }
}
