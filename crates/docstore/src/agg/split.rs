//! One pipeline split across the parts of its input: per-part work, a
//! partial per part, one merge.
//!
//! The sharded router runs a pipeline over several shards this way (one
//! part per leg, [`Split::part`] run by each shard's
//! `Collection::aggregate_with`), so a shard ships what MongoDB's
//! pipeline splitter would ship rather than every document its `$match`
//! kept. The split has three steps:
//!
//! 1. **The per-part prefix**: the longest run of per-document stages
//!    (`$match`, `$project`, `$unwind`). A document's output depends on
//!    that document alone, so it runs where the part lives.
//! 2. **A terminal partial** for the first barrier after it:
//!    * `$group` → a `GroupKernel` of running accumulator states. The
//!      part ends in a `$project` of the group key and the accumulator
//!      inputs, so a failing key or input surfaces at the same document
//!      as in the unsplit pipeline, interleaved with the prefix's own
//!      errors; the kernel is fed from those small documents;
//!    * `$count` → the part's own `{name: n}` document;
//!    * `$sort` with a finite fused `$skip`/`$limit` window → the part's
//!      top `end` documents, as its own `$sort` + `$limit end` (a
//!      document outside its part's first `end` cannot be in the global
//!      first `end`);
//!    * a bare `$skip`/`$limit` window → the part's first `end` documents,
//!      when the prefix cannot fail. A fallible `$project` before the
//!      window stays behind it: the unsplit pipeline evaluates it lazily,
//!      only for the documents the window pulls, and so must the split;
//!    * anything else (`$lookup`, or the end of the pipeline) → the
//!      prefix's documents.
//! 3. **The merge**, in part order: group kernels merge bucket-wise
//!    (`GroupKernel::merge`), counts add up, documents concatenate;
//!    then the stages after the terminal — for a window, the window
//!    itself again — stream over the merged result.
//!
//! Merging in part order is what makes the result the unsplit one when
//! the parts, concatenated, are the input in order: first-seen group
//! order and `_id` representative, `$first` / `$last` / `$push`, stable
//! sort ties and the first error all follow part order. Partial `f64`
//! sums reassociate, so `$sum` / `$avg` over doubles may differ from the
//! unsplit left fold in the last ULPs; integer sums are exact.

use super::accum::{spec_expr, Accumulator};
use super::expr::Expr;
use super::kernel::{GroupKernel, LookupSource};
use super::stage::{GroupId, Pipeline, ProjectField, Stage};
use super::stream::{run_streaming, DocStream};
use crate::error::Result;
use doclite_bson::{codec::encoded_size, Document, Value};

/// A pipeline body split into what every part runs, how a part's
/// output becomes its [`Partial`], and what runs over the merge.
pub struct Split<'p> {
    part: Pipeline,
    terminal: Terminal,
    rest: &'p [Stage],
}

/// How a part's output becomes its partial and how partials merge.
enum Terminal {
    /// Documents, concatenated in part order.
    Docs,
    /// One `{name: n}` document per part; the counts add up.
    Count(String),
    /// The part's documents are `{k, a0, a1, ..}`: the group key and one
    /// input per accumulator. These accumulators read `a0, a1, ..` and
    /// group by `k` — reads that cannot fail.
    Group(Vec<(String, Accumulator)>),
}

/// One part's contribution to a [`Split`]; `Split::merge` combines them.
pub struct Partial<'s>(Part<'s>);

enum Part<'s> {
    Docs(Vec<Document>),
    Group(GroupKernel<'s>),
}

/// The end of the fused `$skip`/`$limit` window at the head of `stages`
/// (`usize::MAX`: no `$limit`, nothing to truncate).
fn window_end(stages: &[Stage]) -> usize {
    let (mut start, mut end) = (0usize, usize::MAX);
    for stage in stages {
        match stage {
            Stage::Skip(n) => start = start.saturating_add(*n),
            Stage::Limit(n) => end = end.min(start.saturating_add(*n)),
            _ => break,
        }
    }
    end
}

fn pipeline(stages: &[Stage]) -> Pipeline {
    stages.iter().cloned().fold(Pipeline::new(), Pipeline::stage)
}

/// `acc` reading its input from the field `path`.
fn reading(acc: &Accumulator, path: String) -> Accumulator {
    let e = Expr::field(path);
    match acc {
        Accumulator::Sum(_) => Accumulator::Sum(e),
        Accumulator::Avg(_) => Accumulator::Avg(e),
        Accumulator::Min(_) => Accumulator::Min(e),
        Accumulator::Max(_) => Accumulator::Max(e),
        Accumulator::First(_) => Accumulator::First(e),
        Accumulator::Last(_) => Accumulator::Last(e),
        Accumulator::Push(_) => Accumulator::Push(e),
        Accumulator::AddToSet(_) => Accumulator::AddToSet(e),
    }
}

impl<'p> Split<'p> {
    /// No split: one part runs the whole body and its documents are the
    /// result.
    pub fn whole(body: &'p [Stage]) -> Self {
        Split { part: pipeline(body), terminal: Terminal::Docs, rest: &[] }
    }

    /// Splits a [`Pipeline::body`] at its first barrier (see the module
    /// docs).
    pub fn new(body: &'p [Stage]) -> Self {
        let run = body
            .iter()
            .take_while(|s| matches!(s, Stage::Match(_) | Stage::Project(_) | Stage::Unwind(_)))
            .count();
        let prefix = pipeline(&body[..run]);
        let docs = |part, rest| Split { part, terminal: Terminal::Docs, rest };
        match body.get(run) {
            Some(Stage::Group { id, fields }) => {
                let key = match id {
                    GroupId::Null => Expr::lit(Value::Null),
                    GroupId::Expr(e) => e.clone(),
                };
                let mut project = vec![
                    ("_id".to_string(), ProjectField::Exclude),
                    ("k".to_string(), ProjectField::Compute(key)),
                ];
                let mut reads = Vec::with_capacity(fields.len());
                for (i, (name, acc)) in fields.iter().enumerate() {
                    project.push((format!("a{i}"), ProjectField::Compute(spec_expr(acc).clone())));
                    reads.push((name.clone(), reading(acc, format!("a{i}"))));
                }
                Split {
                    part: prefix.project(project),
                    terminal: Terminal::Group(reads),
                    rest: &body[run + 1..],
                }
            }
            Some(Stage::Count(name)) => Split {
                part: prefix.count(name.clone()),
                terminal: Terminal::Count(name.clone()),
                rest: &body[run + 1..],
            },
            Some(Stage::Sort(spec)) => match window_end(&body[run + 1..]) {
                usize::MAX => docs(prefix, &body[run..]),
                end => docs(prefix.sort(spec.clone()).limit(end), &body[run..]),
            },
            Some(Stage::Skip(_) | Stage::Limit(_)) => {
                let lead = body[..run]
                    .iter()
                    .take_while(|s| matches!(s, Stage::Match(_) | Stage::Unwind(_)))
                    .count();
                match window_end(&body[run..]) {
                    end if lead == run && end != usize::MAX => {
                        docs(prefix.limit(end), &body[run..])
                    }
                    _ => docs(pipeline(&body[..lead]), &body[lead..]),
                }
            }
            _ => docs(prefix, &body[run..]),
        }
    }

    /// What every part runs (through `Collection::aggregate_with`).
    pub fn part(&self) -> &Pipeline {
        &self.part
    }

    /// The stages that run over the merged partials.
    pub fn rest(&self) -> &'p [Stage] {
        self.rest
    }

    /// One part's output — what [`Split::part`] returned — as its
    /// partial.
    pub fn partial(&self, docs: Vec<Document>) -> Result<Partial<'_>> {
        Ok(Partial(match &self.terminal {
            Terminal::Group(fields) => {
                let mut gk = GroupKernel::new(&GroupId::Expr(Expr::field("k")), fields);
                for d in &docs {
                    gk.feed(d)?;
                }
                Part::Group(gk)
            }
            Terminal::Docs | Terminal::Count(_) => Part::Docs(docs),
        }))
    }

    /// Merges the partials in part order, then runs the rest. A part
    /// with nothing to contribute (a missing collection) is left out.
    pub fn merge<'s>(
        &'s self,
        parts: impl IntoIterator<Item = Partial<'s>>,
        source: Option<&dyn LookupSource>,
    ) -> Result<Vec<Document>> {
        let mut docs: Vec<Document> = Vec::new();
        let mut group: Option<GroupKernel<'s>> = None;
        for Partial(part) in parts {
            match (part, &mut group) {
                (Part::Docs(d), _) => docs.extend(d),
                (Part::Group(gk), Some(acc)) => acc.merge(gk),
                (Part::Group(gk), None) => group = Some(gk),
            }
        }
        let merged = match &self.terminal {
            Terminal::Docs => docs,
            Terminal::Count(name) => {
                let n: i64 = docs.iter().filter_map(|d| d.get(name)?.as_i64()).sum();
                let mut d = Document::new();
                d.set(name.clone(), Value::Int64(n));
                vec![d]
            }
            Terminal::Group(_) => group.map_or_else(Vec::new, GroupKernel::finish),
        };
        if self.rest.is_empty() {
            return Ok(merged);
        }
        run_streaming(DocStream::from_vec(merged), self.rest, source)
    }
}

impl Partial<'_> {
    /// The bytes the part ships: its documents' encoded size, or, for a
    /// group, one document per bucket holding the key and each running
    /// state (`AccState::encoded_size`).
    pub fn encoded_size(&self) -> usize {
        match &self.0 {
            Part::Docs(docs) => docs.iter().map(encoded_size).sum(),
            Part::Group(gk) => gk.encoded_size(),
        }
    }
}
