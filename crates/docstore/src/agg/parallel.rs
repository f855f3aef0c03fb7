//! Morsel-driven parallel pipeline execution with two-phase
//! aggregation.
//!
//! The input document set is split into fixed-size contiguous ranges
//! (*morsels*). Workers from the shared pool ([`crate::pool`]) run the
//! pipeline's partitionable prefix over their morsels independently —
//! the same compiled per-document adapters the streaming executor uses
//! ([`super::stream::apply_per_doc_stage`]) feeding a morsel-local
//! terminal — and a second phase merges the per-morsel partial states
//! *in morsel order*:
//!
//! * `$group` → one [`GroupKernel`] per morsel, merged bucket-wise by
//!   canonical key bytes ([`GroupKernel::merge`]); in-order merging
//!   reproduces the serial first-appearance group order and first-seen
//!   `_id` representative.
//! * `$sort` (+ fused `$skip`/`$limit` window) → each morsel sorts
//!   locally and keeps only its top `end` documents; the survivors are
//!   concatenated in morsel order and stably re-sorted, which reproduces
//!   the serial tie order because concatenation order equals input
//!   order.
//! * `$count` → per-morsel counts sum.
//! * no terminal → per-morsel outputs concatenate.
//!
//! Anything after the partitionable prefix (a `$lookup` breaker, a
//! second `$group`, trailing window stages) runs serially on the merged
//! result via the streaming executor, and pipelines with no
//! partitionable prefix at all fall back to serial execution outright.
//!
//! **Error semantics** match serial execution exactly: each morsel
//! processes its documents sequentially, and the merge phase surfaces
//! the first error of the lowest-indexed erroring morsel — the same
//! "first error in document order" the streaming executor reports. One
//! subtlety: when the prefix is followed by a *bare* `$skip`/`$limit`
//! (no barrier in between), the serial executor's laziness means a
//! fallible `$project` may never evaluate past the limit. To keep
//! error-for-error equivalence the prefix is truncated to its leading
//! infallible stages (`$match`, `$unwind`) in that case, leaving the
//! fallible tail to the lazy serial epilogue.
//!
//! **Float caveat:** `$sum`/`$avg` over doubles merge partial f64 sums,
//! which can differ from the serial left-fold by ULP-level rounding
//! (f64 addition is not associative). Integer-valued accumulations are
//! exact in any split.

use super::kernel::{sort_documents_compiled, CompiledSortSpec, GroupKernel, LookupSource};
use super::stage::Stage;
use super::stream::{apply_per_doc_stage, run_streaming, DocStream};
use crate::error::Result;
use crate::pool;
use doclite_bson::{Document, Value};
use std::sync::OnceLock;

/// Default morsel size: 1024 documents is large enough that per-morsel
/// setup (compiling nothing — kernels compile once per morsel from the
/// shared stage slice — plus one group table) amortizes to noise, and
/// small enough that a selective `$match` still splits into plenty of
/// morsels for the pool to balance at the collection sizes the paper's
/// SF range produces.
const DEFAULT_MORSEL: usize = 1024;

/// The morsel size for `docs` input documents and `workers` workers:
/// each worker sees ~4 morsels (enough slack for load balancing without
/// per-morsel setup dominating small inputs), clamped to
/// `[256, 8 × default]`.
pub fn auto_morsel_size(docs: usize, workers: usize) -> usize {
    (docs / (workers.max(1) * 4)).clamp(256, DEFAULT_MORSEL * 8)
}

/// The pipeline's terminal for the partitionable prefix.
enum Terminal<'p> {
    /// Prefix output concatenates; the rest of the pipeline follows.
    None,
    Group { id: &'p super::stage::GroupId, fields: &'p [(String, super::accum::Accumulator)] },
    Count(&'p str),
    /// `$sort` with its fused `[start, end)` window.
    Sort { spec: &'p [(String, i32)], start: usize, end: usize },
}

/// One morsel's partial result.
enum MorselOut<'p> {
    Docs(Vec<Document>),
    Group(GroupKernel<'p>),
    Count(usize),
    /// Locally sorted, truncated to the window's `end` (the global
    /// `skip` cannot be applied locally).
    Sorted(Vec<Document>),
}

/// The partitioned execution plan: a per-document prefix, a terminal,
/// and the serial remainder.
struct Plan<'p> {
    per_doc: &'p [Stage],
    terminal: Terminal<'p>,
    rest: &'p [Stage],
}

/// True for stages whose per-document application cannot fail — safe to
/// evaluate eagerly even where the serial executor would have stopped
/// early at a downstream `$limit`.
fn infallible(stage: &Stage) -> bool {
    matches!(stage, Stage::Match(_) | Stage::Unwind(_))
}

/// Splits `stages` into the longest partitionable prefix (per-document
/// run plus at most one barrier terminal) and the serial remainder.
fn plan(stages: &[Stage]) -> Plan<'_> {
    let mut i = 0;
    while i < stages.len()
        && matches!(stages[i], Stage::Match(_) | Stage::Project(_) | Stage::Unwind(_))
    {
        i += 1;
    }
    let run = &stages[..i];
    match stages.get(i) {
        Some(Stage::Group { id, fields }) => Plan {
            per_doc: run,
            terminal: Terminal::Group { id, fields },
            rest: &stages[i + 1..],
        },
        Some(Stage::Count(name)) => {
            Plan { per_doc: run, terminal: Terminal::Count(name), rest: &stages[i + 1..] }
        }
        Some(Stage::Sort(spec)) => {
            // Fuse directly following $skip/$limit stages into a window,
            // mirroring the streaming executor.
            let mut start = 0usize;
            let mut end = usize::MAX;
            let mut j = i + 1;
            while j < stages.len() {
                match &stages[j] {
                    Stage::Skip(m) => start = start.saturating_add(*m),
                    Stage::Limit(n) => end = end.min(start.saturating_add(*n)),
                    _ => break,
                }
                j += 1;
            }
            Plan {
                per_doc: run,
                terminal: Terminal::Sort { spec, start, end },
                rest: &stages[j..],
            }
        }
        // A bare $skip/$limit consumes the prefix lazily in serial
        // execution; truncate the eager prefix to its infallible lead so
        // no error surfaces that laziness would have skipped.
        Some(Stage::Skip(_)) | Some(Stage::Limit(_)) => {
            let safe = run.iter().take_while(|s| infallible(s)).count();
            Plan { per_doc: &run[..safe], terminal: Terminal::None, rest: &stages[safe..] }
        }
        // $lookup / end of pipeline: no barrier to split on.
        _ => Plan { per_doc: run, terminal: Terminal::None, rest: &stages[i..] },
    }
}

/// Runs one morsel: the per-document prefix as fused borrowed-stream
/// adapters, feeding the terminal's morsel-local state. Documents are
/// processed sequentially within the morsel, so error order inside a
/// morsel is serial order.
fn run_morsel<'p>(
    morsel: &[&'p Document],
    per_doc: &'p [Stage],
    terminal: &Terminal<'p>,
) -> Result<MorselOut<'p>> {
    let mut docs = DocStream::Borrowed(Box::new(morsel.iter().copied()));
    for stage in per_doc {
        docs = apply_per_doc_stage(docs, stage);
    }
    match terminal {
        Terminal::None => Ok(MorselOut::Docs(match docs {
            DocStream::Borrowed(it) => it.cloned().collect(),
            DocStream::Owned(it) => it.collect::<Result<_>>()?,
        })),
        Terminal::Group { id, fields } => {
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
            Ok(MorselOut::Group(gk))
        }
        Terminal::Count(_) => {
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
            Ok(MorselOut::Count(n))
        }
        Terminal::Sort { spec, end, .. } => {
            let mut local: Vec<Document> = match docs {
                DocStream::Borrowed(it) => it.cloned().collect(),
                DocStream::Owned(it) => it.collect::<Result<_>>()?,
            };
            let cs = CompiledSortSpec::new(spec);
            sort_documents_compiled(&mut local, &cs);
            // Keep only the local top-`end`: a document outside its own
            // morsel's first `end` cannot be in the global first `end`.
            if *end < local.len() {
                local.truncate(*end);
            }
            Ok(MorselOut::Sorted(local))
        }
    }
}

/// Merges per-morsel partials in morsel order and runs the serial
/// remainder of the pipeline.
fn merge_and_finish(
    outs: Vec<MorselOut<'_>>,
    terminal: &Terminal<'_>,
    rest: &[Stage],
    source: Option<&dyn LookupSource>,
) -> Result<Vec<Document>> {
    let merged: Vec<Document> = match terminal {
        Terminal::None => {
            let mut all = Vec::new();
            for o in outs {
                match o {
                    MorselOut::Docs(d) => all.extend(d),
                    _ => unreachable!("terminal/output mismatch"),
                }
            }
            all
        }
        Terminal::Group { .. } => {
            let mut iter = outs.into_iter().map(|o| match o {
                MorselOut::Group(gk) => gk,
                _ => unreachable!("terminal/output mismatch"),
            });
            match iter.next() {
                None => Vec::new(),
                Some(mut acc) => {
                    for gk in iter {
                        acc.merge(gk);
                    }
                    acc.finish()
                }
            }
        }
        Terminal::Count(name) => {
            let n: usize = outs
                .into_iter()
                .map(|o| match o {
                    MorselOut::Count(n) => n,
                    _ => unreachable!("terminal/output mismatch"),
                })
                .sum();
            let mut d = Document::new();
            d.set((*name).to_string(), Value::Int64(n as i64));
            vec![d]
        }
        Terminal::Sort { spec, start, end } => {
            let mut all = Vec::new();
            for o in outs {
                match o {
                    MorselOut::Sorted(d) => all.extend(d),
                    _ => unreachable!("terminal/output mismatch"),
                }
            }
            // Concatenation order equals input order, so a second stable
            // sort reproduces the serial tie order.
            let cs = CompiledSortSpec::new(spec);
            sort_documents_compiled(&mut all, &cs);
            let hi = (*end).min(all.len());
            let lo = (*start).min(hi);
            all.drain(..lo);
            all.truncate(hi - lo);
            all
        }
    };
    run_streaming(DocStream::from_vec(merged), rest, source)
}

/// Executes the pipeline over `docs` with up to `workers` workers and
/// `morsel`-document tasks — a pure function of its arguments: no
/// driver calls it yet (benches and tests do, until the planner has a
/// cost rule for the exchange). Falls back to the streaming executor when
/// nothing partitions (no per-document prefix and no terminal barrier),
/// when the input is too small to split, or when `workers <= 1`.
///
/// Produces results — including error strings — identical to
/// [`run_streaming`], except for ULP-level float-sum rounding (see the
/// module docs).
pub fn run_parallel(
    docs: &[&Document],
    stages: &[Stage],
    source: Option<&dyn LookupSource>,
    workers: usize,
    morsel: usize,
) -> Result<Vec<Document>> {
    let p = plan(stages);
    let morsel = morsel.max(1);
    let serial = workers <= 1
        || docs.len() < 2 * morsel
        || (p.per_doc.is_empty() && matches!(p.terminal, Terminal::None));
    if serial {
        return run_streaming(DocStream::Borrowed(Box::new(docs.iter().copied())), stages, source);
    }

    let chunks: Vec<&[&Document]> = docs.chunks(morsel).collect();
    let slots: Vec<OnceLock<Result<MorselOut<'_>>>> =
        (0..chunks.len()).map(|_| OnceLock::new()).collect();
    pool::parallel_for(workers, chunks.len(), &|i| {
        let out = run_morsel(chunks[i], p.per_doc, &p.terminal);
        let _ = slots[i].set(out);
    });

    // Collect in morsel order; the first error seen is the serial
    // executor's first error in document order.
    let mut outs = Vec::with_capacity(chunks.len());
    for slot in slots {
        outs.push(slot.into_inner().expect("pool ran every morsel")?);
    }
    merge_and_finish(outs, &p.terminal, p.rest, source)
}

#[cfg(test)]
mod tests {
    //! Two shapes pinned at a size random pipelines do not reach;
    //! `tests/plan_vs_reference.rs` holds `run_parallel` equal to the
    //! reference interpreter for everything else.

    use super::*;
    use crate::agg::accum::Accumulator;
    use crate::agg::expr::Expr;
    use crate::agg::stage::{GroupId, Pipeline};
    use crate::agg::stream::execute_streaming;
    use crate::query::filter::Filter;
    use doclite_bson::{array, doc};

    fn execute_parallel_with(
        docs: &[Document],
        stages: &[Stage],
        workers: usize,
        morsel: usize,
    ) -> Result<Vec<Document>> {
        run_parallel(&docs.iter().collect::<Vec<_>>(), stages, None, workers, morsel)
    }

    #[test]
    fn bare_limit_after_fallible_project_keeps_lazy_error_semantics() {
        // The first 5 documents project cleanly; every later one would
        // error ($add over an array). Serial laziness stops after the
        // $limit's 5 outputs and succeeds — an eagerly parallel
        // $project would surface an error the serial executor never
        // produces. The plan must leave the fallible tail lazy.
        let docs: Vec<Document> = (0..200)
            .map(|i| {
                if i < 5 {
                    doc! {"_id" => i as i64, "xs" => 1i64}
                } else {
                    doc! {"_id" => i as i64, "xs" => array![1i64]}
                }
            })
            .collect();
        let stages = Pipeline::new()
            .match_stage(Filter::gte("_id", 0i64))
            .project([(
                "y",
                crate::agg::ProjectField::Compute(Expr::Add(vec![
                    Expr::field("xs"),
                    Expr::lit(1i64),
                ])),
            )])
            .limit(5);
        let serial = execute_streaming(docs.clone(), stages.stages(), None).unwrap();
        assert_eq!(serial.len(), 5);
        let par = execute_parallel_with(&docs, stages.stages(), 4, 8).unwrap();
        assert_eq!(serial, par);
    }

    #[test]
    fn errors_match_serial_including_position() {
        // Doc 57 is the first whose group-id expression fails.
        let docs: Vec<Document> = (0..300)
            .map(|i| {
                if i >= 57 && i % 10 == 7 {
                    doc! {"_id" => i as i64, "k" => array![1i64]}
                } else {
                    doc! {"_id" => i as i64, "k" => (i % 5) as i64}
                }
            })
            .collect();
        let stages = Pipeline::new().group(
            GroupId::Expr(Expr::Add(vec![Expr::field("k"), Expr::lit(1i64)])),
            [("n", Accumulator::count())],
        );
        let serial = execute_streaming(docs.clone(), stages.stages(), None).unwrap_err();
        for morsel in [4, 50] {
            let par =
                execute_parallel_with(&docs, stages.stages(), 8, morsel).unwrap_err();
            assert_eq!(serial.to_string(), par.to_string(), "morsel={morsel}");
        }
    }
}
