//! Property tests: the compiled execution kernel agrees with the
//! interpreted reference evaluators.
//!
//! Two pairings:
//!
//! * **Matcher** — `matches_compiled(&compile(f), d)` vs the interpreted
//!   `query::matches(f, d)` on random filters × random documents. The
//!   interpreted matcher re-splits paths and clones multikey elements on
//!   every call; the kernel pre-splits paths and compares by reference —
//!   the answers must be bit-identical anyway.
//! * **Expressions** — `CompiledExpr::new(e).eval_ref(d)` vs the
//!   interpreted `Expr::eval(d)`: equal values on success, equal error
//!   messages on failure (type errors are part of the contract).
//!
//! Documents, filters and expressions come from `common`: a small
//! colliding domain with nested documents, arrays of documents, nulls
//! and missing fields, probed through present and absent dotted paths.

mod common;

use common::{arb_document, arb_expr, arb_filter};
use doclite_bson::{doc, Value};
use doclite_docstore::query::{compile, matches, matches_compiled};
use doclite_docstore::{CompiledExpr, Filter};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn compiled_matcher_agrees_with_interpreted(
        filter in arb_filter(),
        docs in prop::collection::vec(arb_document(), 0..12),
    ) {
        let compiled = compile(&filter);
        for d in &docs {
            prop_assert_eq!(
                matches(&filter, d),
                matches_compiled(&compiled, d),
                "filter {:?} on doc {:?}", filter, d
            );
        }
    }

    #[test]
    fn compiled_expr_agrees_with_interpreted(
        expr in arb_expr(),
        docs in prop::collection::vec(arb_document(), 0..8),
    ) {
        let compiled = CompiledExpr::new(&expr);
        for d in &docs {
            match (expr.eval(d), compiled.eval_ref(d)) {
                (Ok(a), Ok(b)) => prop_assert_eq!(
                    &a, b.as_value(),
                    "expr {:?} on doc {:?}", expr, d
                ),
                (Err(a), Err(b)) => prop_assert_eq!(
                    a.to_string(), b.to_string(),
                    "expr {:?} on doc {:?}", expr, d
                ),
                (a, b) => prop_assert!(
                    false,
                    "divergent fallibility for {:?} on {:?}: interpreted {:?}, compiled {:?}",
                    expr, d, a.map(|_| ()), b.map(|_| ())
                ),
            }
        }
    }
}

/// The `$in: [1.0]` ↔ `Int32(1)` unification pinned as a plain
/// regression test (the proptest domain covers it probabilistically).
#[test]
fn in_list_unifies_numeric_types_across_representations() {
    let f = Filter::is_in("a", [Value::Double(1.0)]);
    let c = compile(&f);
    for v in [
        Value::Int32(1),
        Value::Int64(1),
        Value::Double(1.0),
        Value::Array(vec![Value::Int32(5), Value::Int32(1)]),
    ] {
        let d = doc! {"a" => v};
        assert!(matches(&f, &d), "interpreted rejected {d:?}");
        assert!(matches_compiled(&c, &d), "compiled rejected {d:?}");
    }
    let miss = doc! {"a" => Value::Int32(2)};
    assert!(!matches(&f, &miss));
    assert!(!matches_compiled(&c, &miss));
}
