//! Pipeline stage definitions and the [`Pipeline`] builder.

use super::accum::Accumulator;
use super::expr::Expr;
use crate::error::{Error, Result};
use crate::query::filter::Filter;

/// One field of a `$project` specification.
#[derive(Clone, Debug, PartialEq)]
pub enum ProjectField {
    /// `{path: 1}` — include the resolved value at this path.
    Include,
    /// `{path: 0}` — exclude (exclusion-mode projections, and `_id: 0`).
    Exclude,
    /// `{path: <expr>}` — computed field.
    Compute(Expr),
}

/// The `_id` of a `$group` stage.
#[derive(Clone, Debug, PartialEq)]
pub enum GroupId {
    /// `_id: null` — a single group over all input.
    Null,
    /// `_id: <expr>` — typically a field path or a document constructor.
    Expr(Expr),
}

/// A single aggregation pipeline stage. Table 4.2 of the thesis maps
/// these onto their SQL analogues (`$match` ↔ `WHERE`, `$group` ↔
/// `GROUP BY`, `$sort` ↔ `ORDER BY`, `$project` ↔ `SELECT`,
/// `$sum` ↔ `SUM/COUNT`, `$limit` ↔ `LIMIT`).
#[derive(Clone, Debug, PartialEq)]
pub enum Stage {
    /// `{$match: filter}`.
    Match(Filter),
    /// `{$project: {..}}`.
    Project(Vec<(String, ProjectField)>),
    /// `{$group: {_id: .., fields..}}`.
    Group {
        id: GroupId,
        fields: Vec<(String, Accumulator)>,
    },
    /// `{$sort: {path: ±1, ..}}`.
    Sort(Vec<(String, i32)>),
    /// `{$limit: n}`.
    Limit(usize),
    /// `{$skip: n}`.
    Skip(usize),
    /// `{$unwind: "$path"}`.
    Unwind(String),
    /// `{$lookup: {from, localField, foreignField, as}}` — left outer
    /// equality join: every input document gains an array field holding
    /// the matching documents of the `from` collection. (MongoDB 3.2's
    /// answer to the thesis's "MongoDB does not support joins"; provided
    /// here as the future-work extension of Section 5.2.)
    Lookup {
        from: String,
        local_field: String,
        foreign_field: String,
        as_field: String,
    },
    /// `{$count: "name"}`.
    Count(String),
    /// `{$out: "collection"}` — must be last; materializes results.
    Out(String),
}

/// An aggregation pipeline: an ordered list of stages with a fluent
/// builder mirroring the shell syntax used in Appendix B.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Pipeline {
    stages: Vec<Stage>,
}

impl Pipeline {
    /// An empty pipeline.
    pub fn new() -> Self {
        Self::default()
    }

    /// The stages in order.
    pub fn stages(&self) -> &[Stage] {
        &self.stages
    }

    /// Appends a raw stage.
    pub fn stage(mut self, stage: Stage) -> Self {
        self.stages.push(stage);
        self
    }

    /// Appends `$match`.
    pub fn match_stage(self, filter: Filter) -> Self {
        self.stage(Stage::Match(filter))
    }

    /// Appends `$project`.
    pub fn project<I, S>(self, fields: I) -> Self
    where
        I: IntoIterator<Item = (S, ProjectField)>,
        S: Into<String>,
    {
        self.stage(Stage::Project(
            fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        ))
    }

    /// Appends `$group`.
    pub fn group<I, S>(self, id: GroupId, fields: I) -> Self
    where
        I: IntoIterator<Item = (S, Accumulator)>,
        S: Into<String>,
    {
        self.stage(Stage::Group {
            id,
            fields: fields.into_iter().map(|(k, v)| (k.into(), v)).collect(),
        })
    }

    /// Appends `$sort` (`1` ascending, `-1` descending).
    pub fn sort<I, S>(self, spec: I) -> Self
    where
        I: IntoIterator<Item = (S, i32)>,
        S: Into<String>,
    {
        self.stage(Stage::Sort(
            spec.into_iter().map(|(k, o)| (k.into(), o)).collect(),
        ))
    }

    /// Appends `$limit`.
    pub fn limit(self, n: usize) -> Self {
        self.stage(Stage::Limit(n))
    }

    /// Appends `$skip`.
    pub fn skip(self, n: usize) -> Self {
        self.stage(Stage::Skip(n))
    }

    /// Appends `$unwind`.
    pub fn unwind(self, path: impl Into<String>) -> Self {
        self.stage(Stage::Unwind(path.into()))
    }

    /// Appends `$lookup`.
    pub fn lookup(
        self,
        from: impl Into<String>,
        local_field: impl Into<String>,
        foreign_field: impl Into<String>,
        as_field: impl Into<String>,
    ) -> Self {
        self.stage(Stage::Lookup {
            from: from.into(),
            local_field: local_field.into(),
            foreign_field: foreign_field.into(),
            as_field: as_field.into(),
        })
    }

    /// Appends `$count`.
    pub fn count(self, name: impl Into<String>) -> Self {
        self.stage(Stage::Count(name.into()))
    }

    /// Appends `$out`.
    pub fn out(self, collection: impl Into<String>) -> Self {
        self.stage(Stage::Out(collection.into()))
    }

    /// The stages an executor runs: all of them minus a trailing
    /// `$out`, which the database (or router) materializes from the
    /// returned documents. A `$out` anywhere else is an error — no
    /// executor can honour it, and running on as if it were absent
    /// would silently drop a write the caller asked for.
    pub fn body(&self) -> Result<&[Stage]> {
        let body = match self.stages.split_last() {
            Some((Stage::Out(_), body)) => body,
            _ => &self.stages,
        };
        if body.iter().any(|s| matches!(s, Stage::Out(_))) {
            return Err(out_not_last());
        }
        Ok(body)
    }

    /// The `$out` target, if the pipeline ends with one.
    pub fn out_target(&self) -> Option<&str> {
        match self.stages.last() {
            Some(Stage::Out(name)) => Some(name),
            _ => None,
        }
    }

    /// The leading run of `$match` stages — the part a scatter-gather
    /// router pushes down to shards, and the part the executor can serve
    /// with an index.
    pub fn leading_matches(&self) -> Vec<&Filter> {
        self.stages
            .iter()
            .take_while(|s| matches!(s, Stage::Match(_)))
            .map(|s| match s {
                Stage::Match(f) => f,
                _ => unreachable!(),
            })
            .collect()
    }
}

/// The error every executor reports for a `$out` it is asked to run:
/// [`Pipeline::body`] strips the only legal one before execution.
pub(crate) fn out_not_last() -> Error {
    Error::InvalidQuery("$out can only be the final stage of a pipeline".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_appends_in_order() {
        let p = Pipeline::new()
            .match_stage(Filter::eq("a", 1i64))
            .group(GroupId::Null, [("n", Accumulator::count())])
            .sort([("n", -1)])
            .limit(5)
            .out("result");
        assert_eq!(p.stages().len(), 5);
        assert_eq!(p.out_target(), Some("result"));
    }

    #[test]
    fn out_target_only_when_last() {
        let p = Pipeline::new().match_stage(Filter::True);
        assert_eq!(p.out_target(), None);
    }

    #[test]
    fn body_strips_a_trailing_out_and_rejects_any_other() {
        let p = Pipeline::new().limit(5).out("dst");
        assert_eq!(p.body().unwrap(), &[Stage::Limit(5)]);
        assert_eq!(Pipeline::new().limit(5).body().unwrap().len(), 1);
        assert!(Pipeline::new().body().unwrap().is_empty());
        for p in [Pipeline::new().out("dst").limit(5), Pipeline::new().out("a").out("b")] {
            assert_eq!(
                p.body().unwrap_err().to_string(),
                "invalid query: $out can only be the final stage of a pipeline"
            );
        }
    }

    #[test]
    fn leading_matches_stop_at_first_other_stage() {
        let p = Pipeline::new()
            .match_stage(Filter::eq("a", 1i64))
            .match_stage(Filter::eq("b", 2i64))
            .limit(1)
            .match_stage(Filter::eq("c", 3i64));
        assert_eq!(p.leading_matches().len(), 2);
    }
}
