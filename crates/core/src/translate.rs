//! Generic SQL → aggregation-pipeline translation for the denormalized
//! data model.
//!
//! The thesis's translation algorithms are "optimized for queries that
//! follow the select-from-where template" (Section 4.1.3); this module
//! is that translator made reusable: given a parsed [`SelectStmt`] and
//! the TPC-DS FK catalog, it
//!
//! 1. identifies the fact table and maps every dimension column onto its
//!    embedded path (`cd_gender` → `ss_cdemo_sk.cd_gender`);
//! 2. drops join predicates (they are structural after denormalization)
//!    and translates the remaining WHERE into a `$match`;
//! 3. translates aggregates into `$group` accumulators, `GROUP BY` into
//!    the group `_id`, and `ORDER BY` into `$sort`;
//! 4. folds `CAST('…' AS date) ± n DAYS` arithmetic into ISO-date string
//!    literals (comparable lexicographically);
//! 5. handles one level of derived table by translating the inner query
//!    and appending the outer stages.
//!
//! Query 7 and Query 21 translate fully mechanically
//! (`tests/sql_translation.rs`); the self-join forms of Queries 46/50 use
//! the Appendix B pipelines in [`crate::queries`], as the thesis's own
//! implementation did. The normalized-model plan is derived from the
//! pipeline ([`crate::normalize`]), so SQL → pipeline → Fig 4.8 plan is
//! mechanical end to end for Q7 and Q21.

use doclite_bson::Value;
use doclite_docstore::{
    Accumulator, CmpOp, Expr, Filter, GroupId, Pipeline, ProjectField,
};
use doclite_sql::{BinOp, FromItem, SelectItem, SelectStmt, SqlExpr};
use doclite_tpcds::dates::Date;
use doclite_tpcds::schema::{foreign_keys_of, table_def, TableId};
use std::collections::HashMap;
use std::fmt;

/// Translation failure.
#[derive(Debug, Clone, PartialEq)]
pub struct TranslateError(pub String);

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "translation error: {}", self.0)
    }
}

impl std::error::Error for TranslateError {}

pub(crate) type TResult<T> = Result<T, TranslateError>;

pub(crate) fn err<T>(msg: impl Into<String>) -> TResult<T> {
    Err(TranslateError(msg.into()))
}

/// The outcome: the denormalized source collection to aggregate and the
/// pipeline to run.
#[derive(Clone, Debug)]
pub struct Translation {
    pub source: String,
    pub pipeline: Pipeline,
}

/// Translates a parsed select-from-where statement against the
/// denormalized model.
pub fn translate_denormalized(stmt: &SelectStmt) -> TResult<Translation> {
    // Derived-table form: translate the inner query, then append the
    // outer stages over its output fields.
    if let [FromItem::Subquery { query, .. }] = stmt.from.as_slice() {
        let inner = translate_denormalized(query)?;
        let mut pipeline = inner.pipeline;
        let passthrough = ColumnMap::passthrough();
        if let Some(w) = &stmt.where_clause {
            pipeline = apply_outer_where(pipeline, w)?;
        }
        if !stmt.order_by.is_empty() {
            pipeline = pipeline.sort(order_spec(stmt, &passthrough)?);
        }
        return Ok(Translation { source: inner.source, pipeline });
    }

    let fact = find_fact(stmt)?;
    let map = ColumnMap::for_fact(fact, stmt)?;

    let mut pipeline = Pipeline::new();

    // WHERE → $match (join predicates removed).
    if let Some(w) = &stmt.where_clause {
        let filter = where_to_filter(w, &map)?;
        pipeline = pipeline.match_stage(filter);
    }

    // GROUP BY + aggregates → $group.
    if stmt.has_aggregates() {
        let group_id = match stmt.group_by.len() {
            0 => GroupId::Null,
            1 => GroupId::Expr(sql_value_expr(&stmt.group_by[0], &map)?),
            _ => {
                let fields: Vec<(String, Expr)> = stmt
                    .group_by
                    .iter()
                    .map(|g| {
                        let name = group_key_name(g)?;
                        Ok((name, sql_value_expr(g, &map)?))
                    })
                    .collect::<TResult<_>>()?;
                GroupId::Expr(Expr::Doc(fields))
            }
        };
        let mut accs: Vec<(String, Accumulator)> = Vec::new();
        let mut projection: Vec<(String, ProjectField)> = Vec::new();
        for (i, item) in stmt.items.iter().enumerate() {
            let SelectItem::Expr { expr, alias } = item else {
                return err("SELECT * with aggregates is not in the template");
            };
            let name = alias.clone().unwrap_or_else(|| default_name(expr, i));
            if expr.contains_aggregate() {
                accs.push((name.clone(), aggregate_to_accumulator(expr, &map)?));
                projection.push((name, ProjectField::Include));
            } else {
                // A bare column in an aggregate query must be a group key;
                // re-expose it from the group _id.
                let id_path = group_key_projection(expr, stmt)?;
                projection.push((name, ProjectField::Compute(Expr::field(id_path))));
            }
        }
        pipeline = pipeline.group(group_id, accs);
        if !stmt.order_by.is_empty() {
            pipeline = pipeline.sort(order_spec_grouped(stmt)?);
        }
        pipeline = pipeline.project(projection);
    } else {
        if !stmt.order_by.is_empty() {
            pipeline = pipeline.sort(order_spec(stmt, &map)?);
        }
    }

    Ok(Translation {
        source: crate::denormalize::denormalized_name(fact),
        pipeline,
    })
}

// ------------------------------------------------------------------

fn find_fact(stmt: &SelectStmt) -> TResult<TableId> {
    let mut fact = None;
    for f in &stmt.from {
        if let FromItem::Table { name, .. } = f {
            if let Some(t) = TableId::from_name(name) {
                if t.is_fact() {
                    if fact.is_some() {
                        return err("multiple fact tables need a hand translation");
                    }
                    fact = Some(t);
                }
            }
        }
    }
    fact.map_or_else(
        || err("no single fact table in FROM — self-join forms need a hand translation"),
        Ok,
    )
}

/// Maps column names to document paths in the denormalized fact.
struct ColumnMap {
    /// column → dotted path; empty map = identity (outer queries over a
    /// derived table address its output fields directly).
    paths: HashMap<String, String>,
    passthrough: bool,
}

impl ColumnMap {
    fn passthrough() -> Self {
        ColumnMap { paths: HashMap::new(), passthrough: true }
    }

    fn for_fact(fact: TableId, stmt: &SelectStmt) -> TResult<Self> {
        let mut paths = HashMap::new();
        for c in &table_def(fact).columns {
            paths.insert(c.name.to_owned(), c.name.to_owned());
        }
        for fk in foreign_keys_of(fact) {
            // A dimension used more than once (date_dim d1/d2) is
            // ambiguous for the mechanical mapping.
            let uses = stmt
                .from
                .iter()
                .filter(|f| matches!(f, FromItem::Table { name, .. } if name == fk.ref_table.name()))
                .count();
            if uses > 1 {
                return err(format!(
                    "dimension {} joined more than once needs a hand translation",
                    fk.ref_table.name()
                ));
            }
            for c in &table_def(fk.ref_table).columns {
                paths
                    .entry(c.name.to_owned())
                    .or_insert_with(|| format!("{}.{}", fk.column, c.name));
            }
        }
        Ok(ColumnMap { paths, passthrough: false })
    }

    fn path(&self, column: &str) -> TResult<String> {
        if self.passthrough {
            return Ok(column.to_owned());
        }
        self.paths
            .get(column)
            .cloned()
            .map_or_else(|| err(format!("unknown column {column}")), Ok)
    }
}

/// True if the predicate is `fk = pk` between the fact and a dimension —
/// structural after denormalization.
fn is_join_predicate(left: &SqlExpr, right: &SqlExpr) -> bool {
    let (SqlExpr::Column { name: l, .. }, SqlExpr::Column { name: r, .. }) = (left, right) else {
        return false;
    };
    let is_key = |c: &str| c.ends_with("_sk");
    is_key(l) && is_key(r)
}

fn where_to_filter(expr: &SqlExpr, map: &ColumnMap) -> TResult<Filter> {
    match expr {
        SqlExpr::Binary { op: BinOp::And, left, right } => Ok(Filter::and([
            where_to_filter(left, map)?,
            where_to_filter(right, map)?,
        ])),
        SqlExpr::Binary { op: BinOp::Or, left, right } => Ok(Filter::or([
            where_to_filter(left, map)?,
            where_to_filter(right, map)?,
        ])),
        SqlExpr::Not(inner) => Ok(Filter::not(where_to_filter(inner, map)?)),
        SqlExpr::Binary { op, left, right } if op.is_comparison() => {
            if is_join_predicate(left, right) {
                // Join predicate: embedding already enforces it; emit an
                // existence check on the embedded document instead, so
                // NULL foreign keys drop out exactly as an inner join
                // drops them.
                let SqlExpr::Column { name, .. } = left.as_ref() else { unreachable!() };
                let path = map.path(name)?;
                let head = path.split('.').next().expect("non-empty").to_owned();
                return Ok(Filter::exists(head));
            }
            let (path, value) = column_and_literal(left, right, map)?;
            let filter = match (op, value) {
                (BinOp::Eq, v) => Filter::eq(path, v),
                (BinOp::Neq, v) => Filter::ne(path, v),
                (BinOp::Lt, v) => Filter::lt(path, v),
                (BinOp::Lte, v) => Filter::lte(path, v),
                (BinOp::Gt, v) => Filter::gt(path, v),
                (BinOp::Gte, v) => Filter::gte(path, v),
                _ => unreachable!("comparison ops covered"),
            };
            Ok(filter)
        }
        SqlExpr::Between { expr, low, high } => {
            let path = column_path(expr, map)?;
            Ok(Filter::between(path, literal_value(low)?, literal_value(high)?))
        }
        SqlExpr::InList { expr, list } => {
            let path = column_path(expr, map)?;
            let values: Vec<Value> = list.iter().map(literal_value).collect::<TResult<_>>()?;
            Ok(Filter::In { path, values })
        }
        SqlExpr::IsNull { expr, negated } => {
            let path = column_path(expr, map)?;
            Ok(if *negated { Filter::exists(path) } else { Filter::eq(path, Value::Null) })
        }
        other => err(format!("unsupported WHERE form: {other:?}")),
    }
}

fn column_path(expr: &SqlExpr, map: &ColumnMap) -> TResult<String> {
    match expr {
        SqlExpr::Column { name, .. } => map.path(name),
        SqlExpr::Cast { expr, .. } => column_path(expr, map),
        other => err(format!("expected a column, got {other:?}")),
    }
}

fn column_and_literal(
    left: &SqlExpr,
    right: &SqlExpr,
    map: &ColumnMap,
) -> TResult<(String, Value)> {
    if let Ok(path) = column_path(left, map) {
        return Ok((path, literal_value(right)?));
    }
    let path = column_path(right, map)?;
    Ok((path, literal_value(left)?))
}

/// Folds literal expressions to values, evaluating date arithmetic:
/// `CAST('2002-05-29' AS date) - 30 days` → `"2002-04-29"`.
fn literal_value(expr: &SqlExpr) -> TResult<Value> {
    match expr {
        SqlExpr::Number(n) => {
            if n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
                Ok(Value::Int64(*n as i64))
            } else {
                Ok(Value::Double(*n))
            }
        }
        SqlExpr::String(s) => Ok(Value::from(s.as_str())),
        SqlExpr::Null => Ok(Value::Null),
        SqlExpr::Cast { expr, ty } if ty == "date" => {
            let inner = literal_value(expr)?;
            match inner {
                Value::String(s) => Date::parse(&s)
                    .map(|d| Value::String(d.to_iso()))
                    .map_or_else(|| err(format!("bad date literal {s}")), Ok),
                other => Ok(other),
            }
        }
        SqlExpr::Cast { expr, .. } => literal_value(expr),
        SqlExpr::Binary { op, left, right } => {
            let l = literal_value(left)?;
            let r = literal_value(right)?;
            // Date ± interval.
            if let (Value::String(date), SqlExpr::IntervalDays(_)) = (&l, right.as_ref()) {
                let days = match literal_value(right)? {
                    Value::Int64(n) => n,
                    Value::Double(d) => d as i64,
                    other => return err(format!("bad interval {other}")),
                };
                let d = Date::parse(date)
                    .map_or_else(|| err(format!("bad date {date}")), Ok)?;
                let shifted = match op {
                    BinOp::Add => d.plus_days(days),
                    BinOp::Sub => d.plus_days(-days),
                    _ => return err("only ± on dates"),
                };
                return Ok(Value::String(shifted.to_iso()));
            }
            // Numeric constant folding (1998+1, 2.0/3.0).
            let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
                return err(format!("non-constant expression {expr:?}"));
            };
            let n = match op {
                BinOp::Add => a + b,
                BinOp::Sub => a - b,
                BinOp::Mul => a * b,
                BinOp::Div => a / b,
                _ => return err("non-arithmetic operator in literal"),
            };
            if n.fract() == 0.0 {
                Ok(Value::Int64(n as i64))
            } else {
                Ok(Value::Double(n))
            }
        }
        SqlExpr::IntervalDays(inner) => literal_value(inner),
        other => err(format!("non-literal expression {other:?}")),
    }
}

/// Translates a scalar SQL expression into an aggregation [`Expr`].
fn sql_value_expr(expr: &SqlExpr, map: &ColumnMap) -> TResult<Expr> {
    match expr {
        SqlExpr::Column { name, .. } => Ok(Expr::field(map.path(name)?)),
        SqlExpr::Number(_) | SqlExpr::String(_) | SqlExpr::Null => {
            Ok(Expr::Literal(literal_value(expr)?))
        }
        SqlExpr::Cast { expr, .. } => sql_value_expr(expr, map),
        SqlExpr::Case { whens, else_expr } => {
            // Chain WHENs as nested $cond.
            let mut out = match else_expr {
                Some(e) => sql_value_expr(e, map)?,
                None => Expr::Literal(Value::Null),
            };
            for (cond, value) in whens.iter().rev() {
                out = Expr::cond(
                    sql_bool_expr(cond, map)?,
                    sql_value_expr(value, map)?,
                    out,
                );
            }
            Ok(out)
        }
        SqlExpr::Binary { op, left, right } => {
            if literal_value(expr).is_ok() {
                return Ok(Expr::Literal(literal_value(expr)?));
            }
            let l = sql_value_expr(left, map)?;
            let r = sql_value_expr(right, map)?;
            Ok(match op {
                BinOp::Add => Expr::Add(vec![l, r]),
                BinOp::Sub => Expr::subtract(l, r),
                BinOp::Mul => Expr::Multiply(vec![l, r]),
                BinOp::Div => Expr::divide(l, r),
                _ => return sql_bool_expr(expr, map),
            })
        }
        other => err(format!("unsupported value expression {other:?}")),
    }
}

fn sql_bool_expr(expr: &SqlExpr, map: &ColumnMap) -> TResult<Expr> {
    match expr {
        SqlExpr::Binary { op: BinOp::And, left, right } => Ok(Expr::And(vec![
            sql_bool_expr(left, map)?,
            sql_bool_expr(right, map)?,
        ])),
        SqlExpr::Binary { op: BinOp::Or, left, right } => Ok(Expr::Or(vec![
            sql_bool_expr(left, map)?,
            sql_bool_expr(right, map)?,
        ])),
        SqlExpr::Not(e) => Ok(Expr::Not(Box::new(sql_bool_expr(e, map)?))),
        SqlExpr::Binary { op, left, right } if op.is_comparison() => {
            let cmp = match op {
                BinOp::Eq => CmpOp::Eq,
                BinOp::Neq => CmpOp::Ne,
                BinOp::Lt => CmpOp::Lt,
                BinOp::Lte => CmpOp::Lte,
                BinOp::Gt => CmpOp::Gt,
                BinOp::Gte => CmpOp::Gte,
                _ => unreachable!(),
            };
            Ok(Expr::cmp(cmp, sql_value_expr(left, map)?, sql_value_expr(right, map)?))
        }
        other => err(format!("unsupported boolean expression {other:?}")),
    }
}

fn aggregate_to_accumulator(expr: &SqlExpr, map: &ColumnMap) -> TResult<Accumulator> {
    let SqlExpr::Func { name, args } = expr else {
        return err(format!("aggregate expressions must be bare calls, got {expr:?}"));
    };
    let arg = args
        .first()
        .map_or_else(|| err("aggregate needs an argument"), Ok)?;
    let inner = sql_value_expr(arg, map)?;
    Ok(match name.as_str() {
        "avg" => Accumulator::Avg(inner),
        "sum" => Accumulator::Sum(inner),
        "min" => Accumulator::Min(inner),
        "max" => Accumulator::Max(inner),
        "count" => Accumulator::Sum(Expr::lit(1i64)),
        other => return err(format!("unknown aggregate {other}")),
    })
}

fn default_name(expr: &SqlExpr, i: usize) -> String {
    match expr {
        SqlExpr::Column { name, .. } => name.clone(),
        _ => format!("expr{i}"),
    }
}

fn group_key_name(g: &SqlExpr) -> TResult<String> {
    match g {
        SqlExpr::Column { name, .. } => Ok(name.clone()),
        other => err(format!("GROUP BY expressions must be columns, got {other:?}")),
    }
}

/// A non-aggregate select item in an aggregate query is re-exposed from
/// the group `_id`.
fn group_key_projection(expr: &SqlExpr, stmt: &SelectStmt) -> TResult<String> {
    let SqlExpr::Column { name, .. } = expr else {
        return err(format!("non-aggregate select item must be a group key: {expr:?}"));
    };
    let in_group = stmt
        .group_by
        .iter()
        .any(|g| matches!(g, SqlExpr::Column { name: gname, .. } if gname == name));
    if !in_group {
        return err(format!("{name} is neither aggregated nor grouped"));
    }
    if stmt.group_by.len() == 1 {
        Ok("_id".to_owned())
    } else {
        Ok(format!("_id.{name}"))
    }
}

fn order_spec(stmt: &SelectStmt, map: &ColumnMap) -> TResult<Vec<(String, i32)>> {
    stmt.order_by
        .iter()
        .map(|o| {
            let path = column_path(&o.expr, map)?;
            Ok((path, if o.ascending { 1 } else { -1 }))
        })
        .collect()
}

/// ORDER BY after a `$group`: keys order by their `_id` component,
/// aggregate aliases by their output field.
fn order_spec_grouped(stmt: &SelectStmt) -> TResult<Vec<(String, i32)>> {
    stmt.order_by
        .iter()
        .map(|o| {
            let SqlExpr::Column { name, .. } = &o.expr else {
                return err("ORDER BY expressions must be columns");
            };
            let dir = if o.ascending { 1 } else { -1 };
            let is_alias = stmt.items.iter().any(|i| {
                matches!(i, SelectItem::Expr { alias: Some(a), .. } if a == name)
            });
            if is_alias {
                return Ok((name.clone(), dir));
            }
            if stmt.group_by.len() == 1 {
                Ok(("_id".to_owned(), dir))
            } else {
                Ok((format!("_id.{name}"), dir))
            }
        })
        .collect()
}

/// Outer WHERE over a derived table: translated against the inner
/// query's output fields (after its `$project`, aliases are field names).
fn apply_outer_where(pipeline: Pipeline, w: &SqlExpr) -> TResult<Pipeline> {
    let map = ColumnMap::passthrough();
    // The outer WHERE of Query 21 compares a computed CASE ratio; when it
    // is not a plain filter, splice the computation into the inner
    // query's final `$project` (its expressions evaluate against the
    // pre-projection document, where the aggregate aliases live), then
    // range-match and strip the bookkeeping field — the same
    // compute-then-match treatment Appendix B gives the ratio.
    match where_to_filter(w, &map) {
        Ok(filter) => Ok(pipeline.match_stage(filter)),
        Err(_) => {
            let (value_expr, lo, hi) = extract_between_case(w)?;
            let mut stages: Vec<doclite_docstore::Stage> = pipeline.stages().to_vec();
            match stages.last_mut() {
                Some(doclite_docstore::Stage::Project(fields)) => {
                    fields.push(("_keep".to_owned(), ProjectField::Compute(value_expr)));
                }
                _ => {
                    stages.push(doclite_docstore::Stage::Project(vec![(
                        "_keep".to_owned(),
                        ProjectField::Compute(value_expr),
                    )]));
                }
            }
            let mut out = Pipeline::new();
            for st in stages {
                out = out.stage(st);
            }
            Ok(out
                .match_stage(Filter::between("_keep", lo, hi))
                .project([("_keep", ProjectField::Exclude)]))
        }
    }
}

/// Matches the `(CASE …) BETWEEN lo AND hi` outer predicate shape.
fn extract_between_case(w: &SqlExpr) -> TResult<(Expr, Value, Value)> {
    let SqlExpr::Between { expr, low, high } = w else {
        return err(format!("unsupported outer WHERE: {w:?}"));
    };
    let map = ColumnMap::passthrough();
    Ok((
        sql_value_expr(expr, &map)?,
        literal_value(low)?,
        literal_value(high)?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_sql::parse;

    #[test]
    fn literal_folding_handles_dates_and_arithmetic() {
        let stmt = parse(
            "select * from store_sales where ss_sold_date_sk = 1 \
             and ss_quantity < 1998 + 2 and ss_list_price > 2.0 / 4.0",
        )
        .unwrap();
        let t = translate_denormalized(&stmt).unwrap();
        let doclite_docstore::Stage::Match(f) = &t.pipeline.stages()[0] else {
            panic!("expected $match")
        };
        let paths = f.referenced_paths();
        assert!(paths.contains(&"ss_quantity"));
        // 1998+2 folded to 2000
        let c = doclite_docstore::query::planner::conjunctive_constraints(f);
        assert_eq!(
            c["ss_quantity"].max.as_ref().map(|(v, _)| v.clone()),
            Some(Value::Int64(2000))
        );
        assert_eq!(
            c["ss_list_price"].min.as_ref().map(|(v, _)| v.clone()),
            Some(Value::Double(0.5))
        );
    }

    #[test]
    fn date_interval_arithmetic_folds_to_iso_strings() {
        let stmt = parse(
            "select * from inventory, date_dim where inv_date_sk = d_date_sk and \
             d_date between (cast('2002-05-29' as date) - 30 days) \
                        and (cast('2002-05-29' as date) + 30 days)",
        )
        .unwrap();
        let t = translate_denormalized(&stmt).unwrap();
        let doclite_docstore::Stage::Match(f) = &t.pipeline.stages()[0] else {
            panic!("expected $match")
        };
        let c = doclite_docstore::query::planner::conjunctive_constraints(f);
        let pc = &c["inv_date_sk.d_date"];
        assert_eq!(pc.min.as_ref().map(|(v, _)| v.clone()), Some(Value::from("2002-04-29")));
        assert_eq!(pc.max.as_ref().map(|(v, _)| v.clone()), Some(Value::from("2002-06-28")));
    }

    #[test]
    fn dimension_columns_map_to_embedded_paths() {
        let stmt = parse(
            "select avg(ss_quantity) a1 from store_sales, item, date_dim \
             where ss_item_sk = i_item_sk and ss_sold_date_sk = d_date_sk \
             and i_current_price > 5 and d_year = 2001",
        )
        .unwrap();
        let t = translate_denormalized(&stmt).unwrap();
        assert_eq!(t.source, "store_sales_dn");
        let doclite_docstore::Stage::Match(f) = &t.pipeline.stages()[0] else {
            panic!("expected $match")
        };
        let paths = f.referenced_paths();
        assert!(paths.contains(&"ss_item_sk.i_current_price"), "{paths:?}");
        assert!(paths.contains(&"ss_sold_date_sk.d_year"), "{paths:?}");
    }

    #[test]
    fn join_predicates_become_existence_checks() {
        let stmt = parse(
            "select avg(ss_quantity) a1 from store_sales, item where ss_item_sk = i_item_sk",
        )
        .unwrap();
        let t = translate_denormalized(&stmt).unwrap();
        let doclite_docstore::Stage::Match(f) = &t.pipeline.stages()[0] else {
            panic!("expected $match")
        };
        assert_eq!(*f, Filter::exists("ss_item_sk"));
    }

    #[test]
    fn non_fact_queries_are_rejected() {
        let stmt = parse("select * from date_dim where d_year = 2001").unwrap();
        let err = translate_denormalized(&stmt).unwrap_err();
        assert!(err.0.contains("hand translation"), "{err}");
    }

    #[test]
    fn duplicate_dimension_joins_are_rejected() {
        let stmt = parse(
            "select avg(ss_quantity) a from store_sales, date_dim d1, date_dim d2 \
             where ss_sold_date_sk = d1.d_date_sk",
        )
        .unwrap();
        let err = translate_denormalized(&stmt).unwrap_err();
        assert!(err.0.contains("joined more than once"), "{err}");
    }

    #[test]
    fn count_star_becomes_sum_one() {
        let stmt =
            parse("select count(*) n from store_sales group by ss_store_sk").unwrap();
        let t = translate_denormalized(&stmt).unwrap();
        let group = t
            .pipeline
            .stages()
            .iter()
            .find_map(|s| match s {
                doclite_docstore::Stage::Group { fields, .. } => Some(fields),
                _ => None,
            })
            .expect("group stage");
        assert!(matches!(
            &group[0].1,
            Accumulator::Sum(Expr::Literal(Value::Int64(1)))
        ));
    }

    #[test]
    fn ungrouped_bare_column_is_rejected() {
        let stmt = parse(
            "select ss_store_sk, avg(ss_quantity) a from store_sales group by ss_item_sk",
        )
        .unwrap();
        assert!(translate_denormalized(&stmt).is_err());
    }
}
