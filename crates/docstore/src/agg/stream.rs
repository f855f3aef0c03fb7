//! Streaming pipeline execution.
//!
//! The stages run as fused iterator adapters over a [`DocStream`]:
//! documents flow one at a time, stage prefixes like
//! `$match`/`$project`/`$skip`/`$limit` never materialize anything, and
//! — crucially — documents start as *borrowed* references into
//! collection storage and are only cloned at the first stage that must
//! produce new documents (`$project`, `$unwind`, `$sort`'s surviving
//! window, final materialization). A selective `$match` therefore never
//! clones the documents it rejects.
//!
//! `$sort` additionally fuses any directly following `$skip`/`$limit`
//! stages into a window `[start, end)` and clones only the documents
//! inside that window — the classic top-k optimization the sharded
//! router relies on for shard-side sort/limit pushdown.
//!
//! What every stage must return is stated by [`super::reference`], the
//! interpreted oracle the tests compare this module with.

use super::kernel::{
    lookup_stage, unwind_parts_compiled, CompiledProject, CompiledSortSpec, GroupKernel,
    LookupSource,
};
use super::stage::{out_not_last, Stage};
use crate::error::{Error, Result};
use crate::query::matcher::{compile, matches_compiled};
use doclite_bson::{CompiledPath, Document, Value};

/// A stream of documents flowing through the pipeline. Documents start
/// borrowed from collection storage and are promoted to owned by the
/// first stage that has to rewrite them.
pub enum DocStream<'a> {
    /// References into collection storage (or any caller-held slice).
    Borrowed(Box<dyn Iterator<Item = &'a Document> + 'a>),
    /// Documents produced by a rewriting stage; errors flow inline so a
    /// failing expression surfaces no matter where it occurs.
    Owned(Box<dyn Iterator<Item = Result<Document>> + 'a>),
}

impl<'a> DocStream<'a> {
    /// A stream borrowing from a slice.
    pub fn from_slice(docs: &'a [Document]) -> Self {
        DocStream::Borrowed(Box::new(docs.iter()))
    }

    /// A stream owning its documents.
    pub fn from_vec(docs: Vec<Document>) -> Self {
        DocStream::Owned(Box::new(docs.into_iter().map(Ok)))
    }
}

/// Runs the stages (a [`Pipeline::body`](super::Pipeline::body)) over
/// owned input. Entry point for callers that already hold materialized
/// documents (the router's merge step, equivalence tests).
pub fn execute_streaming(
    docs: Vec<Document>,
    stages: &[Stage],
    source: Option<&dyn LookupSource>,
) -> Result<Vec<Document>> {
    run_streaming(DocStream::from_vec(docs), stages, source)
}

/// Drives a [`DocStream`] through the stages and materializes the final
/// result. A `$out` is an error here: the only legal one is the trailing
/// stage [`Pipeline::body`](super::Pipeline::body) strips for the
/// database layer to materialize.
pub fn run_streaming<'a>(
    mut docs: DocStream<'a>,
    stages: &'a [Stage],
    source: Option<&'a dyn LookupSource>,
) -> Result<Vec<Document>> {
    let mut i = 0;
    while i < stages.len() {
        let stage = &stages[i];
        i += 1;
        docs = match stage {
            Stage::Match(_) | Stage::Project(_) | Stage::Unwind(_) => {
                apply_per_doc_stage(docs, stage)
            }
            Stage::Skip(n) => match docs {
                DocStream::Borrowed(it) => DocStream::Borrowed(Box::new(it.skip(*n))),
                DocStream::Owned(it) => DocStream::Owned(Box::new(it.skip(*n))),
            },
            Stage::Limit(n) => match docs {
                DocStream::Borrowed(it) => DocStream::Borrowed(Box::new(it.take(*n))),
                DocStream::Owned(it) => DocStream::Owned(Box::new(it.take(*n))),
            },
            Stage::Lookup { from, local_field, foreign_field, as_field } => {
                let Some(source) = source else {
                    return Err(Error::InvalidQuery(
                        "$lookup requires a database context (use Database::aggregate)".into(),
                    ));
                };
                // $lookup is a pipeline breaker here: the input is
                // materialized so the join can run once against a hash
                // table over *borrowed* foreign documents (held in place
                // by `with_collection_docs`) instead of cloning the
                // whole foreign collection per execution.
                let input: Vec<Document> = match docs {
                    DocStream::Borrowed(it) => it.cloned().collect(),
                    DocStream::Owned(it) => it.collect::<Result<_>>()?,
                };
                DocStream::from_vec(lookup_stage(
                    input,
                    source,
                    from,
                    local_field,
                    foreign_field,
                    as_field,
                ))
            }
            Stage::Sort(spec) => {
                // Fuse directly following $skip/$limit stages into a
                // window [start, end): only window survivors get cloned.
                let mut start = 0usize;
                let mut end = usize::MAX;
                while i < stages.len() {
                    match &stages[i] {
                        Stage::Skip(m) => start = start.saturating_add(*m),
                        Stage::Limit(n) => end = end.min(start.saturating_add(*n)),
                        _ => break,
                    }
                    i += 1;
                }
                sort_window(docs, spec, start, end)?
            }
            Stage::Group { id, fields } => {
                let mut gk = GroupKernel::new(id, fields);
                match docs {
                    DocStream::Borrowed(it) => {
                        for d in it {
                            gk.feed(d)?;
                        }
                    }
                    DocStream::Owned(it) => {
                        for r in it {
                            gk.feed(&r?)?;
                        }
                    }
                }
                DocStream::from_vec(gk.finish())
            }
            Stage::Count(name) => {
                let n = match docs {
                    DocStream::Borrowed(it) => it.count(),
                    DocStream::Owned(it) => {
                        let mut n = 0usize;
                        for r in it {
                            r?;
                            n += 1;
                        }
                        n
                    }
                };
                let mut d = Document::new();
                d.set(name.clone(), Value::Int64(n as i64));
                DocStream::from_vec(vec![d])
            }
            Stage::Out(_) => return Err(out_not_last()),
        };
    }
    match docs {
        DocStream::Borrowed(it) => Ok(it.cloned().collect()),
        DocStream::Owned(it) => it.collect(),
    }
}

/// Applies one *per-document* stage — `$match`, `$project`, `$unwind` —
/// as a fused stream adapter. These are the stages whose output for a
/// document depends on that document alone, which is exactly what makes
/// them partitionable: a split runs them where each part lives
/// ([`super::Split`]).
///
/// Panics on any other stage; callers route barrier stages themselves.
fn apply_per_doc_stage<'a>(docs: DocStream<'a>, stage: &'a Stage) -> DocStream<'a> {
    match stage {
        Stage::Match(filter) => {
            let c = compile(filter);
            match docs {
                DocStream::Borrowed(it) => {
                    DocStream::Borrowed(Box::new(it.filter(move |d| matches_compiled(&c, d))))
                }
                DocStream::Owned(it) => DocStream::Owned(Box::new(
                    it.filter(move |r| r.as_ref().map_or(true, |d| matches_compiled(&c, d))),
                )),
            }
        }
        Stage::Project(fields) => {
            let cp = CompiledProject::new(fields);
            match docs {
                DocStream::Borrowed(it) => {
                    DocStream::Owned(Box::new(it.map(move |d| cp.apply(d))))
                }
                DocStream::Owned(it) => {
                    DocStream::Owned(Box::new(it.map(move |r| r.and_then(|d| cp.apply(&d)))))
                }
            }
        }
        Stage::Unwind(path) => {
            let path = CompiledPath::new(path.strip_prefix('$').unwrap_or(path));
            match docs {
                DocStream::Borrowed(it) => DocStream::Owned(Box::new(
                    it.flat_map(move |d| unwind_parts_compiled(d, &path).into_iter().map(Ok)),
                )),
                DocStream::Owned(it) => {
                    DocStream::Owned(Box::new(it.flat_map(move |r| match r {
                        Ok(d) => unwind_parts_compiled(&d, &path).into_iter().map(Ok).collect(),
                        Err(e) => vec![Err(e)],
                    })))
                }
            }
        }
        other => unreachable!("{other:?} is not a per-document stage"),
    }
}

/// `$sort` with a fused `[start, end)` window: the spec is compiled
/// once, keys are extracted once per document as *borrowed*
/// [`doclite_bson::Resolved`]s, an index permutation is sorted stably by
/// `(key, input position)`, and only window survivors are cloned (or
/// moved, for an already-owned stream). Identical ordering to
/// [`super::sort_documents`].
fn sort_window<'a>(
    docs: DocStream<'a>,
    spec: &[(String, i32)],
    start: usize,
    end: usize,
) -> Result<DocStream<'a>> {
    let cs = CompiledSortSpec::new(spec);
    let out: Vec<Document> = match docs {
        DocStream::Borrowed(it) => {
            let docs: Vec<&Document> = it.collect();
            let window = sorted_window_indices(&cs, &docs, start, end);
            window.into_iter().map(|i| docs[i].clone()).collect()
        }
        DocStream::Owned(it) => {
            let docs: Vec<Document> = it.collect::<Result<_>>()?;
            let window = {
                let refs: Vec<&Document> = docs.iter().collect();
                sorted_window_indices(&cs, &refs, start, end)
            };
            // Move (not clone) the survivors out of the owned input.
            let mut slots: Vec<Option<Document>> = docs.into_iter().map(Some).collect();
            window
                .into_iter()
                .map(|i| slots[i].take().expect("window indices are unique"))
                .collect()
        }
    };
    Ok(DocStream::from_vec(out))
}

/// Sorts `docs` by the compiled spec (stable via index tiebreak) and
/// returns the input indices of the `[start, end)` window survivors in
/// output order.
fn sorted_window_indices(
    cs: &CompiledSortSpec,
    docs: &[&Document],
    start: usize,
    end: usize,
) -> Vec<usize> {
    let keys: Vec<_> = docs.iter().map(|d| cs.key_refs(d)).collect();
    let mut perm: Vec<usize> = (0..docs.len()).collect();
    perm.sort_unstable_by(|&a, &b| cs.compare(&keys[a], &keys[b]).then(a.cmp(&b)));
    // A $limit followed by a larger $skip leaves start > end; clamp
    // start second so the window is empty, not inverted.
    let hi = end.min(perm.len());
    let lo = start.min(hi);
    perm[lo..hi].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::agg::accum::Accumulator;
    use crate::agg::expr::Expr;
    use crate::agg::reference;
    use crate::agg::stage::{GroupId, Pipeline};
    use crate::query::filter::Filter;
    use doclite_bson::{array, doc};

    fn input() -> Vec<Document> {
        (0..40)
            .map(|i| {
                doc! {
                    "_id" => i as i64,
                    "grp" => (i % 4) as i64,
                    "v" => ((i * 7) % 11) as i64,
                    "tags" => array![(i % 3) as i64, "t"]
                }
            })
            .collect()
    }

    /// The streaming result, checked against the reference interpreter.
    fn checked(p: &Pipeline) -> Vec<Document> {
        let oracle = reference::run(input(), p.stages(), None).unwrap();
        let streaming = execute_streaming(input(), p.stages(), None).unwrap();
        assert_eq!(oracle, streaming, "{p:?}");
        streaming
    }

    #[test]
    fn match_project_limit_matches_reference() {
        let p = Pipeline::new()
            .match_stage(Filter::lt("v", 6i64))
            .project([("v", crate::agg::ProjectField::Include)])
            .skip(2)
            .limit(5);
        assert_eq!(checked(&p).len(), 5);
    }

    #[test]
    fn sort_window_fusion_matches_reference_sequence() {
        for (skip, limit) in [(0, 3), (2, 4), (5, 100), (0, 0)] {
            checked(&Pipeline::new().sort([("v", -1), ("_id", 1)]).skip(skip).limit(limit));
        }
        // skip/limit/skip chains compose the same window.
        checked(&Pipeline::new().sort([("v", 1)]).skip(1).limit(10).skip(2));
    }

    #[test]
    fn limit_then_larger_skip_yields_empty_window() {
        // Regression: $limit followed by a larger $skip inverts the
        // fused window (start > end); must yield [], not panic on an
        // inverted slice range.
        let p = Pipeline::new().sort([("v", 1)]).limit(3).skip(5);
        assert!(checked(&p).is_empty());
        // Same window over an Owned stream (a $project upstream of the
        // $sort forces the owned branch of sort_window).
        let p = Pipeline::new()
            .project([("v", crate::agg::ProjectField::Include)])
            .sort([("v", 1)])
            .limit(2)
            .skip(4)
            .limit(1);
        assert!(checked(&p).is_empty());
    }

    #[test]
    fn sort_is_stable_like_reference() {
        checked(&Pipeline::new().sort([("grp", 1)]));
    }

    #[test]
    fn group_and_count_match_reference() {
        checked(
            &Pipeline::new()
                .match_stage(Filter::gte("v", 3i64))
                .group(
                    GroupId::Expr(Expr::field("grp")),
                    [("n", Accumulator::count()), ("sum", Accumulator::sum_field("v"))],
                )
                .sort([("_id", 1)]),
        );
        checked(&Pipeline::new().match_stage(Filter::eq("grp", 2i64)).count("n"));
    }

    #[test]
    fn unwind_matches_reference() {
        checked(&Pipeline::new().unwind("$tags").match_stage(Filter::eq("tags", 1i64)));
    }

    #[test]
    fn out_is_an_error_wherever_an_executor_meets_it() {
        let err = execute_streaming(input(), Pipeline::new().limit(1).out("x").stages(), None);
        assert_eq!(
            err.unwrap_err().to_string(),
            "invalid query: $out can only be the final stage of a pipeline"
        );
    }
}
