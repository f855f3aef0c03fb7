//! `$group` accumulators.
//!
//! Semantics follow MongoDB's: `$sum` and `$avg` skip non-numeric inputs
//! (so `{$sum: {$cond: [...]}}` patterns — Query 21 and Query 50's
//! bucketed day-range counts — behave exactly as in the thesis's scripts).

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
}

/// Running state for one accumulator in one group.
#[derive(Clone, Debug)]
pub enum AccState {
    Sum { total: f64, integral: bool, seen: bool },
    Avg { total: f64, count: usize },
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
            Accumulator::Sum(_) => AccState::Sum { total: 0.0, integral: true, seen: false },
            Accumulator::Avg(_) => AccState::Avg { total: 0.0, count: 0 },
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

    /// Folds an already-evaluated input value into the state. Inspection
    /// (numeric extraction, extremum comparison, set membership) happens
    /// by reference; the value is taken by move only where the state
    /// actually retains it, so the kernel's borrowed inputs stay
    /// clone-free for `$sum`/`$avg`, rejected extrema, and set duplicates.
    pub(crate) fn accumulate_resolved(&mut self, v: Resolved<'_>) {
        match self {
            AccState::Sum { total, integral, seen } => {
                if let Some(n) = v.as_value().as_f64() {
                    *total += n;
                    *integral &= matches!(v.as_value(), Value::Int32(_) | Value::Int64(_));
                    *seen = true;
                }
            }
            AccState::Avg { total, count } => {
                if let Some(n) = v.as_value().as_f64() {
                    *total += n;
                    *count += 1;
                }
            }
            AccState::Min(cur) => {
                if !v.as_value().is_null()
                    && cur
                        .as_ref()
                        .is_none_or(|c| v.as_value().canonical_cmp(c) == std::cmp::Ordering::Less)
                {
                    *cur = Some(v.into_value());
                }
            }
            AccState::Max(cur) => {
                if !v.as_value().is_null()
                    && cur.as_ref().is_none_or(|c| {
                        v.as_value().canonical_cmp(c) == std::cmp::Ordering::Greater
                    })
                {
                    *cur = Some(v.into_value());
                }
            }
            AccState::First(cur) => {
                if cur.is_none() {
                    *cur = Some(v.into_value());
                }
            }
            AccState::Last(cur) => *cur = Some(v.into_value()),
            AccState::Push(items) => items.push(v.into_value()),
            AccState::AddToSet(set) => {
                if !set.iter().any(|m| m.canonical_eq(v.as_value())) {
                    set.push(v.into_value());
                }
            }
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
            (
                AccState::Sum { total, integral, seen },
                AccState::Sum { total: t2, integral: i2, seen: s2 },
            ) => {
                *total += t2;
                *integral &= i2;
                *seen |= s2;
            }
            (AccState::Avg { total, count }, AccState::Avg { total: t2, count: c2 }) => {
                *total += t2;
                *count += c2;
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
            AccState::Sum { total, integral, seen } => {
                if !seen {
                    // MongoDB: $sum over no numeric inputs is 0.
                    Value::Int64(0)
                } else if integral && total.fract() == 0.0 && total.abs() < i64::MAX as f64 {
                    Value::Int64(total as i64)
                } else {
                    Value::Double(total)
                }
            }
            AccState::Avg { total, count } => {
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
}
