//! The reference interpreter: what a pipeline must return.
//!
//! A **test oracle** — no product path calls it. It states each stage
//! of the MQuery fragment the engine implements (Botoeva et al.:
//! `$match`, `$group`, `$unwind`, `$lookup`, plus the positional and
//! reshaping stages) in the most direct way available, and is written
//! only from the interpreted evaluators: [`crate::query::matches`],
//! [`Expr::eval`], [`AccState::accumulate`], [`Document::get_path`] /
//! `set_path`, `canonical_cmp` over the sort keys, and a nested-loop
//! `$lookup` under `canonical_eq`. It must never import the compiled
//! kernel (`agg::kernel`'s evaluators, `matcher::compile`,
//! `CompiledPath`): the point of comparing the driver with it is that
//! the two share no evaluator, so a disagreement is a bug in one of
//! them and an agreement is evidence about both.
//!
//! **Errors are stream items.** The driver is demand-driven: a fallible
//! `$project` behind a `$limit` never evaluates the documents the limit
//! does not pull. The oracle keeps that contract with eager code by
//! carrying a failed evaluation in the stream (`Result<Document>`):
//! per-document stages pass it along, `$skip` / `$limit` count it as an
//! item, and the first stage that needs every input (`$group`, `$sort`,
//! `$count`, `$lookup`) — or the end of the pipeline — reports the
//! first one in stream order.

use super::accum::{AccState, Accumulator};
use super::expr::Expr;
use super::stage::{GroupId, ProjectField, Stage};
use super::LookupSource;
use crate::error::{Error, Result};
use crate::query::matches;
use doclite_bson::{Document, Value};
use std::cmp::Ordering;

/// Runs `stages` (a [`Pipeline::body`](super::Pipeline::body)) over
/// `docs` in order. `source` supplies `$lookup`'s foreign collections.
pub fn run(
    docs: Vec<Document>,
    stages: &[Stage],
    source: Option<&dyn LookupSource>,
) -> Result<Vec<Document>> {
    let mut stream: Vec<Result<Document>> = docs.into_iter().map(Ok).collect();
    for stage in stages {
        stream = match stage {
            Stage::Match(f) => {
                stream.into_iter().filter(|r| r.as_ref().map_or(true, |d| matches(f, d))).collect()
            }
            Stage::Project(fields) => {
                stream.into_iter().map(|r| r.and_then(|d| project(&d, fields))).collect()
            }
            Stage::Unwind(path) => {
                let path = path.strip_prefix('$').unwrap_or(path);
                let mut out = Vec::new();
                for r in stream {
                    match r {
                        Ok(d) => out.extend(unwind(&d, path).into_iter().map(Ok)),
                        Err(e) => out.push(Err(e)),
                    }
                }
                out
            }
            Stage::Skip(n) => stream.into_iter().skip(*n).collect(),
            Stage::Limit(n) => stream.into_iter().take(*n).collect(),
            Stage::Sort(spec) => {
                let mut keyed: Vec<(Vec<Value>, Document)> =
                    all(stream)?.into_iter().map(|d| (sort_keys(&d, spec), d)).collect();
                // `sort_by` is stable: ties keep their input order.
                keyed.sort_by(|(a, _), (b, _)| compare_sort_keys(a, b, spec));
                keyed.into_iter().map(|(_, d)| Ok(d)).collect()
            }
            Stage::Group { id, fields } => {
                group(stream, id, fields)?.into_iter().map(Ok).collect()
            }
            Stage::Count(name) => {
                let n = all(stream)?.len();
                let mut d = Document::new();
                d.set(name.clone(), Value::Int64(n as i64));
                vec![Ok(d)]
            }
            Stage::Lookup { from, local_field, foreign_field, as_field } => {
                let source = source.ok_or_else(|| {
                    Error::InvalidQuery(
                        "$lookup requires a database context (use Database::aggregate)".into(),
                    )
                })?;
                let foreign = source.collection_docs(from).unwrap_or_default();
                let mut out = Vec::new();
                for mut d in all(stream)? {
                    let joined = lookup(&d, &foreign, local_field, foreign_field);
                    d.set(as_field.clone(), Value::Array(joined));
                    out.push(Ok(d));
                }
                out
            }
            Stage::Out(_) => {
                return Err(Error::InvalidQuery(
                    "$out can only be the final stage of a pipeline".into(),
                ))
            }
        };
    }
    all(stream)
}

/// Every document of the stream, or its first error.
fn all(stream: Vec<Result<Document>>) -> Result<Vec<Document>> {
    stream.into_iter().collect()
}

/// `$project`: any included or computed field other than `_id` makes it
/// an inclusion (`_id` rides along unless excluded); otherwise the
/// listed paths are removed from a copy.
fn project(doc: &Document, fields: &[(String, ProjectField)]) -> Result<Document> {
    let inclusion = fields.iter().any(|(k, f)| *f != ProjectField::Exclude && k != "_id");
    if !inclusion {
        let mut out = doc.clone();
        for (path, _) in fields {
            remove_path(&mut out, path);
        }
        return Ok(out);
    }
    let mut out = Document::new();
    let id_excluded = fields.iter().any(|(k, f)| k == "_id" && *f == ProjectField::Exclude);
    if let (false, Some(id)) = (id_excluded, doc.id()) {
        out.set("_id", id.clone());
    }
    for (path, field) in fields {
        match field {
            ProjectField::Exclude => {}
            ProjectField::Include => {
                if let Some(v) = doc.get_path(path) {
                    out.set_path(path, v);
                }
            }
            ProjectField::Compute(e) => {
                out.set_path(path, e.eval(doc)?);
            }
        }
    }
    Ok(out)
}

fn remove_path(doc: &mut Document, path: &str) {
    match path.split_once('.') {
        None => {
            doc.remove(path);
        }
        Some((head, rest)) => {
            if let Some(Value::Document(inner)) = doc.get_mut(head) {
                remove_path(inner, rest);
            }
        }
    }
}

/// `$unwind` (MongoDB 3.0): one copy per array element, none for a
/// missing, null or empty-array field, the document itself for a scalar.
fn unwind(doc: &Document, path: &str) -> Vec<Document> {
    match doc.get_path(path) {
        Some(Value::Array(items)) => items
            .into_iter()
            .map(|item| {
                let mut copy = doc.clone();
                copy.set_path(path, item);
                copy
            })
            .collect(),
        Some(Value::Null) | None => Vec::new(),
        Some(_) => vec![doc.clone()],
    }
}

/// `$group`: groups in first-appearance order, two keys being one group
/// iff they are `canonical_eq`; the first key seen represents the group.
/// Empty input yields no group, even for `_id: null`.
fn group(
    stream: Vec<Result<Document>>,
    id: &GroupId,
    fields: &[(String, Accumulator)],
) -> Result<Vec<Document>> {
    let id = match id {
        GroupId::Null => Expr::Literal(Value::Null),
        GroupId::Expr(e) => e.clone(),
    };
    let mut groups: Vec<(Value, Vec<AccState>)> = Vec::new();
    for r in stream {
        let d = r?;
        let key = id.eval(&d)?;
        let slot = match groups.iter().position(|(k, _)| k.canonical_eq(&key)) {
            Some(slot) => slot,
            None => {
                groups.push((key, fields.iter().map(|(_, a)| AccState::new(a)).collect()));
                groups.len() - 1
            }
        };
        for (state, (_, spec)) in groups[slot].1.iter_mut().zip(fields) {
            state.accumulate(spec, &d)?;
        }
    }
    Ok(groups
        .into_iter()
        .map(|(key, states)| {
            let mut d = Document::new();
            d.set("_id", key);
            for (state, (name, _)) in states.into_iter().zip(fields) {
                d.set(name.clone(), state.finish());
            }
            d
        })
        .collect())
}

/// The sort key of `doc` under `spec`: a missing path keys as `Null`
/// (so it sorts first ascending, as in MongoDB).
fn sort_keys(doc: &Document, spec: &[(String, i32)]) -> Vec<Value> {
    spec.iter().map(|(p, _)| doc.get_path(p).unwrap_or(Value::Null)).collect()
}

/// Compares two keys produced by [`sort_keys`] under the spec's
/// directions.
fn compare_sort_keys(a: &[Value], b: &[Value], spec: &[(String, i32)]) -> Ordering {
    for ((va, vb), (_, dir)) in a.iter().zip(b).zip(spec) {
        let mut ord = va.canonical_cmp(vb);
        if *dir < 0 {
            ord = ord.reverse();
        }
        if ord != Ordering::Equal {
            return ord;
        }
    }
    Ordering::Equal
}

/// `$lookup`'s matches for one document, by nested loop: a missing field
/// joins as `null` on either side, an array-valued local field joins
/// once per element (in element order), and a foreign value is compared
/// whole — a foreign array equals only an equal array element.
fn lookup(doc: &Document, foreign: &[Document], local: &str, foreign_field: &str) -> Vec<Value> {
    let probes = match doc.get_path(local).unwrap_or(Value::Null) {
        Value::Array(items) => items,
        v => vec![v],
    };
    let mut joined = Vec::new();
    for probe in &probes {
        for f in foreign {
            if f.get_path(foreign_field).unwrap_or(Value::Null).canonical_eq(probe) {
                joined.push(Value::Document(f.clone()));
            }
        }
    }
    joined
}

#[cfg(test)]
mod tests {
    //! The stage semantics, stated on small inputs. Each case runs the
    //! oracle *and* the streaming executor and requires both to produce
    //! the stated answer.

    use super::*;
    use crate::agg::stage::Pipeline;
    use crate::agg::stream::execute_streaming;
    use crate::database::Database;
    use crate::query::filter::Filter;
    use doclite_bson::{array, doc};

    fn both(docs: Vec<Document>, p: Pipeline, source: Option<&dyn LookupSource>) -> Vec<Document> {
        let oracle = run(docs.clone(), p.stages(), source).unwrap();
        let streaming = execute_streaming(docs, p.stages(), source).unwrap();
        assert_eq!(oracle, streaming, "{p:?}");
        oracle
    }

    fn ids(docs: &[Document]) -> Vec<i64> {
        docs.iter().map(|d| d.get("_id").and_then(Value::as_i64).unwrap()).collect()
    }

    fn sales() -> Vec<Document> {
        vec![
            doc! {"_id" => 1i64, "item" => "a", "qty" => 10i64, "price" => 2.5f64},
            doc! {"_id" => 2i64, "item" => "b", "qty" => 20i64, "price" => 1.0f64},
            doc! {"_id" => 3i64, "item" => "a", "qty" => 5i64, "price" => 3.0f64},
            doc! {"_id" => 4i64, "item" => "c", "qty" => 20i64, "price" => 4.0f64},
        ]
    }

    #[test]
    fn match_treats_null_as_missing_and_arrays_as_any_element() {
        let docs = vec![
            doc! {"_id" => 0i64, "k" => Value::Null},
            doc! {"_id" => 1i64},
            doc! {"_id" => 2i64, "k" => 3i64},
            doc! {"_id" => 3i64, "k" => array![1i64, 3i64]},
            doc! {"_id" => 4i64, "k" => array![array![3i64]]},
        ];
        let run = |f: Filter| ids(&both(docs.clone(), Pipeline::new().match_stage(f), None));
        assert_eq!(run(Filter::eq("k", Value::Null)), vec![0, 1]);
        assert_eq!(run(Filter::eq("k", 3i64)), vec![2, 3]);
        assert_eq!(run(Filter::gt("k", 2i64)), vec![2, 3]);
        // The array as a whole is a candidate too.
        assert_eq!(run(Filter::eq("k", array![1i64, 3i64])), vec![3]);
        // $ne is the negation of $eq, so it matches the missing field.
        assert_eq!(run(Filter::ne("k", 3i64)), vec![0, 1, 4]);
    }

    #[test]
    fn skip_limit_sort_and_count() {
        assert_eq!(ids(&both(sales(), Pipeline::new().skip(1).limit(2), None)), vec![2, 3]);
        // Descending qty, ties (2 and 4) broken by item.
        let p = Pipeline::new().sort([("qty", -1), ("item", 1)]);
        assert_eq!(ids(&both(sales(), p, None)), vec![2, 4, 1, 3]);
        // A stable sort keeps input order among full ties.
        assert_eq!(ids(&both(sales(), Pipeline::new().sort([("qty", 1)]), None)), vec![3, 1, 2, 4]);
        let p = Pipeline::new().match_stage(Filter::eq("item", "a")).count("n");
        assert_eq!(both(sales(), p, None), vec![doc! {"n" => 2i64}]);
        // $count emits its document over empty input; $group emits none.
        assert_eq!(both(vec![], Pipeline::new().count("n"), None), vec![doc! {"n" => 0i64}]);
        let p = Pipeline::new().group(GroupId::Null, [("n", Accumulator::count())]);
        assert!(both(vec![], p, None).is_empty());
    }

    #[test]
    fn group_by_field_null_and_compound_key() {
        let p = Pipeline::new().group(
            GroupId::Expr(Expr::field("item")),
            [("total", Accumulator::sum_field("qty")), ("avg", Accumulator::avg_field("price"))],
        );
        let out = both(sales(), p, None);
        // First-appearance order: a, b, c.
        assert_eq!(out[0], doc! {"_id" => "a", "total" => 15i64, "avg" => 2.75f64});
        assert_eq!(out.len(), 3);
        let p = Pipeline::new().group(GroupId::Null, [("n", Accumulator::count())]);
        assert_eq!(both(sales(), p, None), vec![doc! {"_id" => Value::Null, "n" => 4i64}]);
        let key = Expr::Doc(vec![("i".into(), Expr::field("item")), ("q".into(), Expr::field("qty"))]);
        let p = Pipeline::new().group(GroupId::Expr(key), [("n", Accumulator::count())]);
        let out = both(sales(), p, None);
        assert_eq!(out.len(), 4);
        assert_eq!(out[2].get_path("_id.q"), Some(Value::Int64(5)));
    }

    #[test]
    fn group_keys_unify_numeric_types_and_keep_the_first_representative() {
        let docs = vec![
            doc! {"k" => 1i32, "v" => 1i64},
            doc! {"k" => 1i64, "v" => 2i64},
            doc! {"k" => 1.0f64, "v" => 3i64},
            doc! {"v" => 4i64},
            doc! {"k" => Value::Null, "v" => 5i64},
        ];
        let p = Pipeline::new().group(GroupId::Expr(Expr::field("k")), [("n", Accumulator::count())]);
        let out = both(docs, p, None);
        // A missing key groups with null.
        assert_eq!(out, vec![doc! {"_id" => 1i32, "n" => 3i64}, doc! {"_id" => Value::Null, "n" => 2i64}]);
    }

    #[test]
    fn project_inclusion_exclusion_and_computed_fields() {
        let value = Expr::Multiply(vec![Expr::field("qty"), Expr::field("price")]);
        let p = Pipeline::new()
            .project([("item", ProjectField::Include), ("value", ProjectField::Compute(value))]);
        assert_eq!(both(sales(), p, None)[0], doc! {"_id" => 1i64, "item" => "a", "value" => 25.0f64});
        let p = Pipeline::new()
            .project([("_id", ProjectField::Exclude), ("item", ProjectField::Include)]);
        assert_eq!(both(sales(), p, None)[0], doc! {"item" => "a"});
        let p = Pipeline::new().project([("price", ProjectField::Exclude)]);
        assert_eq!(both(sales(), p, None)[0], doc! {"_id" => 1i64, "item" => "a", "qty" => 10i64});
        // Nested paths: included into, and removed from, embedded documents.
        let nested = vec![doc! {"_id" => 1i64, "n" => doc! {"c" => 1i64, "d" => 2i64}}];
        let p = Pipeline::new().project([("n.c", ProjectField::Include)]);
        assert_eq!(both(nested.clone(), p, None), vec![doc! {"_id" => 1i64, "n" => doc! {"c" => 1i64}}]);
        let p = Pipeline::new().project([("n.c", ProjectField::Exclude)]);
        assert_eq!(both(nested, p, None), vec![doc! {"_id" => 1i64, "n" => doc! {"d" => 2i64}}]);
    }

    #[test]
    fn unwind_of_array_scalar_empty_null_and_missing() {
        let docs = vec![
            doc! {"_id" => 1i64, "tags" => array!["x", "y"]},
            doc! {"_id" => 2i64},
            doc! {"_id" => 3i64, "tags" => "scalar"},
            doc! {"_id" => 4i64, "tags" => Value::Array(vec![])},
            doc! {"_id" => 5i64, "tags" => Value::Null},
        ];
        let out = both(docs, Pipeline::new().unwind("$tags"), None);
        assert_eq!(ids(&out), vec![1, 1, 3]);
        assert_eq!(out[1].get("tags"), Some(&Value::from("y")));
        assert_eq!(out[2].get("tags"), Some(&Value::from("scalar")));
    }

    #[test]
    fn errors_are_stream_items_until_something_pulls_them() {
        let docs: Vec<Document> = (0..6i64)
            .map(|i| if i == 1 || i >= 4 { doc! {"_id" => i, "x" => "s"} } else { doc! {"_id" => i, "x" => i} })
            .collect();
        let inc = ProjectField::Compute(Expr::Add(vec![Expr::field("x"), Expr::lit(1i64)]));
        let project = || Pipeline::new().project([("y", inc.clone())]);
        // The limit never pulls documents 4 and 5; the skip discards 1.
        assert_eq!(ids(&both(docs.clone(), project().skip(2).limit(2), None)), vec![2, 3]);
        for p in [project(), project().limit(2), project().count("n"), project().sort([("y", 1)])] {
            let oracle = run(docs.clone(), p.stages(), None).unwrap_err().to_string();
            let streaming = execute_streaming(docs.clone(), p.stages(), None).unwrap_err().to_string();
            assert_eq!(oracle, streaming);
            assert!(oracle.contains("$add"), "{oracle}");
        }
    }

    fn shop() -> Database {
        let db = Database::new("t");
        db.collection("inventory")
            .insert_many([
                doc! {"_id" => 1i64, "sku" => "a", "instock" => 120i64},
                doc! {"_id" => 2i64, "sku" => "b", "instock" => 80i64},
                doc! {"_id" => 3i64, "sku" => "a", "instock" => 40i64},
                doc! {"_id" => 4i64, "instock" => 0i64}, // missing sku
                doc! {"_id" => 5i64, "sku" => array!["p", "q"]},
            ])
            .unwrap();
        db
    }

    /// The `_id`s `$lookup` joined to each input document.
    fn joined(db: &Database, orders: Vec<Document>) -> Vec<Vec<i64>> {
        let p = Pipeline::new().lookup("inventory", "item", "sku", "stock");
        both(orders, p, Some(db))
            .iter()
            .map(|d| match d.get("stock") {
                Some(Value::Array(docs)) => {
                    docs.iter().map(|d| d.as_document().unwrap().get("_id").unwrap().as_i64().unwrap()).collect()
                }
                other => panic!("stock is {other:?}"),
            })
            .collect()
    }

    #[test]
    fn lookup_is_a_left_outer_join_with_null_for_missing() {
        let db = shop();
        let orders = vec![
            doc! {"_id" => 1i64, "item" => "a"},
            doc! {"_id" => 2i64, "item" => "z"},
            doc! {"_id" => 3i64},
            doc! {"_id" => 4i64, "item" => Value::Null},
        ];
        // Unmatched keeps an empty array; missing and null both join the
        // document whose sku is missing.
        assert_eq!(joined(&db, orders), vec![vec![1, 3], vec![], vec![4], vec![4]]);
    }

    #[test]
    fn lookup_fans_out_a_local_array_and_compares_a_foreign_array_whole() {
        let db = shop();
        let orders = vec![
            doc! {"_id" => 1i64, "item" => array!["b", "a", "b"]},
            // No element of ["p", "q"] is the foreign array ["p", "q"] …
            doc! {"_id" => 2i64, "item" => array!["p", "q"]},
            doc! {"_id" => 3i64, "item" => "p"},
            // … but an element that is that array equals it.
            doc! {"_id" => 4i64, "item" => array![array!["p", "q"]]},
        ];
        assert_eq!(joined(&db, orders), vec![vec![2, 1, 3, 2], vec![], vec![], vec![5]]);
    }

    #[test]
    fn lookup_needs_a_source_and_joins_a_missing_collection_as_empty() {
        let p = Pipeline::new().lookup("nope", "item", "sku", "stock");
        let out = both(vec![doc! {"item" => "a"}], p.clone(), Some(&shop()));
        assert_eq!(out, vec![doc! {"item" => "a", "stock" => Value::Array(vec![])}]);
        let oracle = run(vec![], p.stages(), None).unwrap_err().to_string();
        assert_eq!(oracle, execute_streaming(vec![], p.stages(), None).unwrap_err().to_string());
        assert!(oracle.contains("$lookup requires a database context"));
    }

    #[test]
    fn lookup_unwind_group_is_a_join_aggregate() {
        let db = shop();
        let orders = vec![
            doc! {"_id" => 1i64, "item" => "a"},
            doc! {"_id" => 2i64, "item" => "b"},
            doc! {"_id" => 3i64, "item" => "z"},
        ];
        let p = Pipeline::new()
            .lookup("inventory", "item", "sku", "stock")
            .unwind("$stock")
            .group(GroupId::Expr(Expr::field("item")), [("n", Accumulator::sum_field("stock.instock"))]);
        // "z" had no stock and is dropped by the $unwind.
        assert_eq!(both(orders, p, Some(&db)), vec![doc! {"_id" => "a", "n" => 160i64}, doc! {"_id" => "b", "n" => 80i64}]);
    }
}
