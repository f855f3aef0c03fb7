//! Filter evaluation against documents.
//!
//! Semantics follow MongoDB's match rules that the workload depends on:
//!
//! * a predicate on a path whose resolved value is an array matches if
//!   *any element* matches, or if the array as a whole matches (`$eq` on
//!   whole arrays);
//! * `{path: null}` matches both explicit nulls and missing fields;
//! * ordered comparisons (`$gt` …) only match within the same canonical
//!   type family — a number never `$gt`-matches a string;
//! * `$ne` / `$nin` are the negations of `$eq` / `$in` (so they *do*
//!   match documents where the field is missing).
//!
//! Two evaluators share these semantics: [`matches`] interprets the
//! source [`Filter`] directly (splitting paths and materializing values
//! per call — kept as the reference implementation the equivalence
//! proptests check against), while [`compile`]/[`matches_compiled`] is
//! the execution-kernel path: dotted paths are pre-split into
//! [`CompiledPath`]s, values resolve by reference (zero clones for
//! scalar paths), and `$in`/`$nin` lists become canonically sorted
//! slices probed by `binary_search` against a borrowed value.

use super::filter::{CmpOp, Filter};
use doclite_bson::{CompiledPath, Document, Resolved, Value};
use std::cmp::Ordering;

/// Evaluates a filter against a document — the interpreted reference
/// implementation (see the module docs; hot paths use [`compile`]).
pub fn matches(filter: &Filter, doc: &Document) -> bool {
    match filter {
        Filter::True => true,
        Filter::Cmp { path, op, value } => match_cmp(doc, path, *op, value),
        Filter::In { path, values } => values
            .iter()
            .any(|v| match_cmp(doc, path, CmpOp::Eq, v)),
        Filter::Nin { path, values } => !values
            .iter()
            .any(|v| match_cmp(doc, path, CmpOp::Eq, v)),
        Filter::Exists { path, exists } => doc.get_path(path).is_some() == *exists,
        Filter::And(fs) => fs.iter().all(|f| matches(f, doc)),
        Filter::Or(fs) => fs.iter().any(|f| matches(f, doc)),
        Filter::Nor(fs) => !fs.iter().any(|f| matches(f, doc)),
        Filter::Not(f) => !matches(f, doc),
    }
}

/// A filter preprocessed for repeated evaluation: paths are pre-split
/// ([`CompiledPath`]), values resolve by reference, and `$in`/`$nin`
/// value lists become canonically sorted slices, turning the thesis's
/// large semi-join `$in` arrays (Fig 4.8 step ii can pass thousands of
/// keys) from `O(list)` clones into `O(log list)` clone-free probes per
/// document.
#[derive(Clone, Debug)]
pub enum CompiledFilter {
    True,
    Cmp { path: CompiledPath, op: CmpOp, value: Value },
    InSet { path: CompiledPath, set: Box<[Value]>, has_null: bool },
    NinSet { path: CompiledPath, set: Box<[Value]>, has_null: bool },
    Exists { path: CompiledPath, exists: bool },
    And(Vec<CompiledFilter>),
    Or(Vec<CompiledFilter>),
    Nor(Vec<CompiledFilter>),
    Not(Box<CompiledFilter>),
}

/// Sorts and dedups an `$in`/`$nin` value list under canonical order so
/// membership is a binary search against a borrowed probe value.
/// Shared with the columnar batch kernel, whose `$in` masks must probe
/// identically-built sets.
pub(crate) fn compile_set(values: &[Value]) -> Box<[Value]> {
    let mut set = values.to_vec();
    set.sort_by(Value::canonical_cmp);
    set.dedup_by(|a, b| a.canonical_eq(b));
    set.into_boxed_slice()
}

/// Compiles a filter for repeated evaluation.
pub fn compile(filter: &Filter) -> CompiledFilter {
    match filter {
        Filter::True => CompiledFilter::True,
        Filter::Cmp { path, op, value } => CompiledFilter::Cmp {
            path: CompiledPath::new(path),
            op: *op,
            value: value.clone(),
        },
        Filter::In { path, values } => CompiledFilter::InSet {
            path: CompiledPath::new(path),
            set: compile_set(values),
            has_null: values.iter().any(Value::is_null),
        },
        Filter::Nin { path, values } => CompiledFilter::NinSet {
            path: CompiledPath::new(path),
            set: compile_set(values),
            has_null: values.iter().any(Value::is_null),
        },
        Filter::Exists { path, exists } => {
            CompiledFilter::Exists { path: CompiledPath::new(path), exists: *exists }
        }
        Filter::And(fs) => CompiledFilter::And(fs.iter().map(compile).collect()),
        Filter::Or(fs) => CompiledFilter::Or(fs.iter().map(compile).collect()),
        Filter::Nor(fs) => CompiledFilter::Nor(fs.iter().map(compile).collect()),
        Filter::Not(f) => CompiledFilter::Not(Box::new(compile(f))),
    }
}

/// Evaluates a compiled filter. Semantics are identical to [`matches`]
/// on the source filter (pinned by the kernel-equivalence proptests);
/// scalar predicates evaluate without any heap allocation (pinned by
/// the counting-allocator test).
pub fn matches_compiled(filter: &CompiledFilter, doc: &Document) -> bool {
    match filter {
        CompiledFilter::True => true,
        CompiledFilter::Cmp { path, op, value } => {
            let resolved = path.resolve(doc);
            match op {
                CmpOp::Eq => eq_matches(resolved.as_ref().map(Resolved::as_value), value),
                CmpOp::Ne => !eq_matches(resolved.as_ref().map(Resolved::as_value), value),
                CmpOp::Gt | CmpOp::Gte | CmpOp::Lt | CmpOp::Lte => {
                    let Some(v) = resolved else { return false };
                    ordered_matches(v.as_value(), *op, value)
                }
            }
        }
        CompiledFilter::InSet { path, set, has_null } => {
            in_set(path.resolve(doc).as_ref().map(Resolved::as_value), set, *has_null)
        }
        CompiledFilter::NinSet { path, set, has_null } => {
            !in_set(path.resolve(doc).as_ref().map(Resolved::as_value), set, *has_null)
        }
        CompiledFilter::Exists { path, exists } => path.resolve(doc).is_some() == *exists,
        CompiledFilter::And(fs) => fs.iter().all(|f| matches_compiled(f, doc)),
        CompiledFilter::Or(fs) => fs.iter().any(|f| matches_compiled(f, doc)),
        CompiledFilter::Nor(fs) => !fs.iter().any(|f| matches_compiled(f, doc)),
        CompiledFilter::Not(f) => !matches_compiled(f, doc),
    }
}

/// Clone-free membership probe: canonical binary search of `v` in the
/// sorted set, so `{$in: [1.0]}` finds `Int32(1)` through the
/// cross-numeric-type comparison equality uses.
pub(crate) fn set_contains(set: &[Value], v: &Value) -> bool {
    set.binary_search_by(|m| m.canonical_cmp(v)).is_ok()
}

fn in_set(resolved: Option<&Value>, set: &[Value], has_null: bool) -> bool {
    match resolved {
        // {$in: [.., null]} matches a missing field, like {path: null}.
        None => has_null,
        Some(v) => {
            if set_contains(set, v) {
                return true;
            }
            if let Value::Array(items) = v {
                return items.iter().any(|e| set_contains(set, e));
            }
            false
        }
    }
}

fn match_cmp(doc: &Document, path: &str, op: CmpOp, rhs: &Value) -> bool {
    let resolved = doc.get_path(path);
    match op {
        CmpOp::Eq => eq_matches(resolved.as_ref(), rhs),
        CmpOp::Ne => !eq_matches(resolved.as_ref(), rhs),
        CmpOp::Gt | CmpOp::Gte | CmpOp::Lt | CmpOp::Lte => {
            let Some(v) = resolved else { return false };
            ordered_matches(&v, op, rhs)
        }
    }
}

fn eq_matches(resolved: Option<&Value>, rhs: &Value) -> bool {
    match resolved {
        // {path: null} matches a missing field.
        None => rhs.is_null(),
        Some(v) => value_eq_any(v, rhs),
    }
}

/// Equality with array-any semantics: an array value matches if the whole
/// array equals `rhs` or any element does. Entirely by reference — the
/// multikey element scan never clones.
fn value_eq_any(v: &Value, rhs: &Value) -> bool {
    if v.canonical_eq(rhs) {
        return true;
    }
    if let Value::Array(items) = v {
        return items.iter().any(|e| e.canonical_eq(rhs));
    }
    false
}

fn ordered_matches(v: &Value, op: CmpOp, rhs: &Value) -> bool {
    if let Value::Array(items) = v {
        // Array-any semantics; note a whole-array comparison against a
        // non-array rhs never holds under same-family rules.
        return items.iter().any(|e| scalar_ordered(e, op, rhs));
    }
    scalar_ordered(v, op, rhs)
}

fn same_family(a: &Value, b: &Value) -> bool {
    use Value::*;
    matches!(
        (a, b),
        (Int32(_) | Int64(_) | Double(_), Int32(_) | Int64(_) | Double(_))
            | (String(_), String(_))
            | (Bool(_), Bool(_))
            | (DateTime(_), DateTime(_))
            | (ObjectId(_), ObjectId(_))
            | (Array(_), Array(_))
            | (Document(_), Document(_))
    )
}

fn scalar_ordered(v: &Value, op: CmpOp, rhs: &Value) -> bool {
    if !same_family(v, rhs) {
        return false;
    }
    let ord = v.canonical_cmp(rhs);
    match op {
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Gte => ord != Ordering::Less,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Lte => ord != Ordering::Greater,
        CmpOp::Eq | CmpOp::Ne => unreachable!("handled by eq_matches"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::{array, doc};

    /// Evaluates through both the interpreted and compiled evaluators
    /// and insists they agree, so every semantic test below pins both.
    fn matches(filter: &Filter, doc: &Document) -> bool {
        let interpreted = super::matches(filter, doc);
        let compiled = matches_compiled(&compile(filter), doc);
        assert_eq!(
            interpreted, compiled,
            "interpreted and compiled evaluators disagree on {filter:?} over {doc:?}"
        );
        interpreted
    }

    #[test]
    fn implicit_eq_and_ne() {
        let d = doc! {"a" => 5i64};
        assert!(matches(&Filter::eq("a", 5i32), &d));
        assert!(!matches(&Filter::eq("a", 6i64), &d));
        assert!(matches(&Filter::ne("a", 6i64), &d));
        assert!(matches(&Filter::ne("missing", 6i64), &d));
    }

    #[test]
    fn null_matches_missing() {
        let d = doc! {"a" => Value::Null};
        assert!(matches(&Filter::eq("a", Value::Null), &d));
        assert!(matches(&Filter::eq("b", Value::Null), &d));
        assert!(!matches(&Filter::eq("a", 0i64), &d));
    }

    #[test]
    fn range_operators_respect_type_families() {
        let d = doc! {"n" => 10i64, "s" => "m"};
        assert!(matches(&Filter::gt("n", 5i64), &d));
        assert!(matches(&Filter::gte("n", 10.0f64), &d));
        assert!(!matches(&Filter::gt("n", "a"), &d));
        assert!(matches(&Filter::lt("s", "z"), &d));
        assert!(!matches(&Filter::lt("s", 100i64), &d));
    }

    #[test]
    fn between_is_inclusive() {
        let d = doc! {"p" => 0.99f64};
        assert!(matches(&Filter::between("p", 0.99f64, 1.49f64), &d));
        let d2 = doc! {"p" => 1.49f64};
        assert!(matches(&Filter::between("p", 0.99f64, 1.49f64), &d2));
        let d3 = doc! {"p" => 1.50f64};
        assert!(!matches(&Filter::between("p", 0.99f64, 1.49f64), &d3));
    }

    #[test]
    fn in_and_nin() {
        let d = doc! {"dow" => 6i64};
        assert!(matches(&Filter::is_in("dow", [6i64, 0i64]), &d));
        assert!(!matches(&Filter::is_in("dow", [1i64, 2i64]), &d));
        assert!(matches(&Filter::not_in("dow", [1i64, 2i64]), &d));
        // $nin matches missing fields, like $ne.
        assert!(matches(&Filter::not_in("absent", [1i64]), &d));
    }

    #[test]
    fn in_set_unifies_numeric_types() {
        // Regression: the sorted-slice probe must keep the cross-type
        // numeric unification of canonical equality.
        let d = doc! {"k" => Value::Int32(1)};
        assert!(matches(&Filter::is_in("k", [1.0f64]), &d));
        assert!(matches(&Filter::is_in("k", [1i64]), &d));
        assert!(!matches(&Filter::is_in("k", [2.0f64]), &d));
        let d = doc! {"k" => 2.0f64};
        assert!(matches(&Filter::is_in("k", [Value::Int32(2)]), &d));
        assert!(!matches(&Filter::not_in("k", [2i64]), &d));
        // ... and through array-any element probes.
        let d = doc! {"ks" => array![Value::Int32(3), Value::Int32(4)]};
        assert!(matches(&Filter::is_in("ks", [4.0f64]), &d));
    }

    #[test]
    fn in_with_null_and_whole_array_values() {
        let missing = doc! {"other" => 1i64};
        assert!(matches(&Filter::is_in("k", [Value::Null, Value::Int64(2)]), &missing));
        assert!(!matches(&Filter::is_in("k", [Value::Int64(2)]), &missing));
        // A whole array can be a set member.
        let d = doc! {"tags" => array!["x", "y"]};
        assert!(matches(&Filter::is_in("tags", [array!["x", "y"]]), &d));
        // Duplicate list values collapse without changing semantics.
        let d = doc! {"k" => 1i64};
        assert!(matches(&Filter::is_in("k", [1i64, 1i64, 1i64]), &d));
    }

    #[test]
    fn array_any_semantics() {
        let d = doc! {"tags" => array!["x", "y"]};
        assert!(matches(&Filter::eq("tags", "x"), &d));
        assert!(!matches(&Filter::eq("tags", "z"), &d));
        // whole-array equality
        assert!(matches(&Filter::eq("tags", array!["x", "y"]), &d));
        let nums = doc! {"xs" => array![1i64, 5i64, 9i64]};
        assert!(matches(&Filter::gt("xs", 8i64), &nums));
        assert!(!matches(&Filter::gt("xs", 9i64), &nums));
    }

    #[test]
    fn exists_checks_resolution() {
        let d = doc! {"a" => doc!{"b" => 1i64}};
        assert!(matches(&Filter::exists("a.b"), &d));
        assert!(matches(&Filter::not_exists("a.c"), &d));
        assert!(!matches(&Filter::exists("a.c"), &d));
    }

    #[test]
    fn boolean_combinators() {
        let d = doc! {"dep" => 2i64, "veh" => 1i64};
        let f = Filter::or([Filter::eq("dep", 2i64), Filter::eq("veh", 3i64)]);
        assert!(matches(&f, &d));
        let f = Filter::and([Filter::eq("dep", 2i64), Filter::eq("veh", 3i64)]);
        assert!(!matches(&f, &d));
        let f = Filter::Nor(vec![Filter::eq("dep", 3i64), Filter::eq("veh", 3i64)]);
        assert!(matches(&f, &d));
        assert!(matches(&Filter::not(Filter::eq("dep", 3i64)), &d));
    }

    #[test]
    fn dotted_path_into_embedded_docs() {
        let d = doc! {"demo" => doc!{"cd_gender" => "M"}};
        assert!(matches(&Filter::eq("demo.cd_gender", "M"), &d));
        assert!(!matches(&Filter::eq("demo.cd_gender", "F"), &d));
    }

    #[test]
    fn multikey_fanout_through_embedded_array() {
        let d = doc! {"books" => Value::Array(vec![
            Value::Document(doc!{"pages" => 100i64}),
            Value::Document(doc!{"pages" => 500i64}),
        ])};
        assert!(matches(&Filter::gt("books.pages", 400i64), &d));
        assert!(!matches(&Filter::gt("books.pages", 600i64), &d));
    }

    #[test]
    fn invalid_paths_never_resolve_in_either_evaluator() {
        let d = doc! {"a" => 1i64};
        for path in ["", "a..b", ".a"] {
            assert!(!matches(&Filter::exists(path), &d), "path {path:?}");
            // An unresolvable path behaves like a missing field: $eq null
            // and $ne/$nin match, everything else does not.
            assert!(matches(&Filter::eq(path, Value::Null), &d));
            assert!(matches(&Filter::ne(path, 1i64), &d));
            assert!(!matches(&Filter::gt(path, 0i64), &d));
        }
    }
}
