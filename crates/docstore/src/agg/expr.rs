//! Aggregation expressions: the `$`-prefixed value language used inside
//! `$project`, `$group` keys, and accumulator arguments.
//!
//! Covers everything Appendix B of the thesis uses: field paths,
//! literals, `$cond`, comparisons, `$and`/`$or`/`$not`, arithmetic
//! (`$add`, `$subtract`, `$multiply`, `$divide`), `$in`, `$ifNull`,
//! `$concat`, and document construction (for compound `$group` ids).

use crate::error::{Error, Result};
use doclite_bson::{Document, Value};
use std::cmp::Ordering;

/// Comparison operators for expressions (`$eq` … `$lte`, `$ne`).
pub use crate::query::filter::CmpOp;

/// An aggregation expression tree.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// A constant.
    Literal(Value),
    /// `"$a.b"` — dotted field path into the current document.
    Field(String),
    /// `{k1: e1, k2: e2}` — document constructor (compound group keys,
    /// computed sub-documents).
    Doc(Vec<(String, Expr)>),
    /// `{$cond: [if, then, else]}`.
    Cond {
        cond: Box<Expr>,
        then: Box<Expr>,
        otherwise: Box<Expr>,
    },
    /// `{$eq|$ne|$gt|$gte|$lt|$lte: [a, b]}` — canonical-order compare.
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    /// `{$and: [..]}` (short-circuits).
    And(Vec<Expr>),
    /// `{$or: [..]}` (short-circuits).
    Or(Vec<Expr>),
    /// `{$not: [e]}`.
    Not(Box<Expr>),
    /// `{$add: [..]}` — numeric sum; Null propagates.
    Add(Vec<Expr>),
    /// `{$subtract: [a, b]}`.
    Subtract(Box<Expr>, Box<Expr>),
    /// `{$multiply: [..]}`.
    Multiply(Vec<Expr>),
    /// `{$divide: [a, b]}` — division by zero yields Null (the SQL `CASE`
    /// guard the thesis's Query 21 uses maps onto this).
    Divide(Box<Expr>, Box<Expr>),
    /// `{$in: [needle, haystack]}`.
    In(Box<Expr>, Box<Expr>),
    /// `{$ifNull: [e, fallback]}`.
    IfNull(Box<Expr>, Box<Expr>),
    /// `{$concat: [..]}` — string concatenation; Null propagates.
    Concat(Vec<Expr>),
}

impl Expr {
    /// Shorthand for a field path expression.
    pub fn field(path: impl Into<String>) -> Self {
        Expr::Field(path.into())
    }

    /// Shorthand for a literal.
    pub fn lit(v: impl Into<Value>) -> Self {
        Expr::Literal(v.into())
    }

    /// Shorthand for `$cond`.
    pub fn cond(cond: Expr, then: Expr, otherwise: Expr) -> Self {
        Expr::Cond { cond: Box::new(cond), then: Box::new(then), otherwise: Box::new(otherwise) }
    }

    /// Shorthand for comparison.
    pub fn cmp(op: CmpOp, a: Expr, b: Expr) -> Self {
        Expr::Cmp(op, Box::new(a), Box::new(b))
    }

    /// Shorthand for `$subtract`.
    pub fn subtract(a: Expr, b: Expr) -> Self {
        Expr::Subtract(Box::new(a), Box::new(b))
    }

    /// Shorthand for `$divide`.
    pub fn divide(a: Expr, b: Expr) -> Self {
        Expr::Divide(Box::new(a), Box::new(b))
    }

    /// Appends the field paths the expression reads, in order of
    /// appearance.
    pub fn collect_paths<'a>(&'a self, out: &mut Vec<&'a str>) {
        match self {
            Expr::Literal(_) => {}
            Expr::Field(path) => out.push(path),
            Expr::Doc(fields) => fields.iter().for_each(|(_, e)| e.collect_paths(out)),
            Expr::Cond { cond, then, otherwise } => {
                [cond, then, otherwise].into_iter().for_each(|e| e.collect_paths(out))
            }
            Expr::Cmp(_, a, b)
            | Expr::Subtract(a, b)
            | Expr::Divide(a, b)
            | Expr::In(a, b)
            | Expr::IfNull(a, b) => [a, b].into_iter().for_each(|e| e.collect_paths(out)),
            Expr::Not(e) => e.collect_paths(out),
            Expr::And(es)
            | Expr::Or(es)
            | Expr::Add(es)
            | Expr::Multiply(es)
            | Expr::Concat(es) => es.iter().for_each(|e| e.collect_paths(out)),
        }
    }

    /// Evaluates against a document. Missing fields evaluate to `Null`.
    pub fn eval(&self, doc: &Document) -> Result<Value> {
        match self {
            Expr::Literal(v) => Ok(v.clone()),
            Expr::Field(path) => Ok(doc.get_path(path).unwrap_or(Value::Null)),
            Expr::Doc(fields) => {
                let out = fields
                    .iter()
                    .map(|(k, e)| Ok((k.clone(), e.eval(doc)?)))
                    .collect::<Result<Document>>()?;
                Ok(Value::Document(out))
            }
            Expr::Cond { cond, then, otherwise } => {
                if cond.eval(doc)?.is_truthy() {
                    then.eval(doc)
                } else {
                    otherwise.eval(doc)
                }
            }
            Expr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval(doc)?, b.eval(doc)?);
                let ord = va.canonical_cmp(&vb);
                Ok(Value::Bool(match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Gte => ord != Ordering::Less,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Lte => ord != Ordering::Greater,
                }))
            }
            Expr::And(es) => {
                for e in es {
                    if !e.eval(doc)?.is_truthy() {
                        return Ok(Value::Bool(false));
                    }
                }
                Ok(Value::Bool(true))
            }
            Expr::Or(es) => {
                for e in es {
                    if e.eval(doc)?.is_truthy() {
                        return Ok(Value::Bool(true));
                    }
                }
                Ok(Value::Bool(false))
            }
            Expr::Not(e) => Ok(Value::Bool(!e.eval(doc)?.is_truthy())),
            Expr::Add(es) => fold_numeric(es, doc, "$add", |a, b| a + b),
            Expr::Multiply(es) => fold_numeric(es, doc, "$multiply", |a, b| a * b),
            Expr::Subtract(a, b) => {
                let (va, vb) = (a.eval(doc)?, b.eval(doc)?);
                binary_numeric(&va, &vb, "$subtract", |x, y| x - y)
            }
            Expr::Divide(a, b) => {
                let (va, vb) = (a.eval(doc)?, b.eval(doc)?);
                if va.is_null() || vb.is_null() {
                    return Ok(Value::Null);
                }
                let x = numeric_operand(&va, "$divide")?;
                let y = numeric_operand(&vb, "$divide")?;
                if y == 0.0 {
                    Ok(Value::Null)
                } else {
                    Ok(Value::Double(x / y))
                }
            }
            Expr::In(needle, haystack) => {
                let n = needle.eval(doc)?;
                match haystack.eval(doc)? {
                    Value::Array(items) => {
                        Ok(Value::Bool(items.iter().any(|i| i.canonical_eq(&n))))
                    }
                    other => Err(Error::ExprError(format!(
                        "$in requires an array, got {}",
                        other.type_name()
                    ))),
                }
            }
            Expr::IfNull(e, fallback) => {
                let v = e.eval(doc)?;
                if v.is_null() {
                    fallback.eval(doc)
                } else {
                    Ok(v)
                }
            }
            Expr::Concat(es) => {
                let mut out = String::new();
                for e in es {
                    match e.eval(doc)? {
                        Value::Null => return Ok(Value::Null),
                        Value::String(s) => out.push_str(&s),
                        other => {
                            return Err(Error::ExprError(format!(
                                "$concat requires strings, got {}",
                                other.type_name()
                            )))
                        }
                    }
                }
                Ok(Value::String(out))
            }
        }
    }
}

pub(crate) fn numeric_operand(v: &Value, op: &str) -> Result<f64> {
    v.as_f64().ok_or_else(|| {
        Error::ExprError(format!("{op} requires numeric operands, got {}", v.type_name()))
    })
}

pub(crate) fn binary_numeric(
    a: &Value,
    b: &Value,
    op: &str,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    if a.is_null() || b.is_null() {
        return Ok(Value::Null);
    }
    let (x, y) = (numeric_operand(a, op)?, numeric_operand(b, op)?);
    Ok(make_numeric(f(x, y), both_integral(a, b)))
}

fn fold_numeric(
    es: &[Expr],
    doc: &Document,
    op: &str,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Value> {
    let mut acc: Option<f64> = None;
    let mut integral = true;
    for e in es {
        let v = e.eval(doc)?;
        if v.is_null() {
            return Ok(Value::Null);
        }
        integral &= is_integral(&v);
        let n = numeric_operand(&v, op)?;
        acc = Some(match acc {
            None => n,
            Some(a) => f(a, n),
        });
    }
    Ok(acc.map_or(Value::Null, |n| make_numeric(n, integral)))
}

pub(crate) fn is_integral(v: &Value) -> bool {
    matches!(v, Value::Int32(_) | Value::Int64(_))
}

fn both_integral(a: &Value, b: &Value) -> bool {
    is_integral(a) && is_integral(b)
}

pub(crate) fn make_numeric(n: f64, integral: bool) -> Value {
    if integral && n.fract() == 0.0 && n.abs() < i64::MAX as f64 {
        Value::Int64(n as i64)
    } else {
        Value::Double(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::{array, doc};

    fn d() -> Document {
        doc! {"a" => 10i64, "b" => 4i64, "s" => "x", "nested" => doc!{"k" => 2i64}, "xs" => array![1i64, 2i64]}
    }

    #[test]
    fn collect_paths_lists_every_field_read_in_order() {
        let e = Expr::Doc(vec![
            ("k".into(), Expr::field("a.b")),
            (
                "v".into(),
                Expr::cond(
                    Expr::cmp(CmpOp::Lt, Expr::field("c"), Expr::lit(1i64)),
                    Expr::Add(vec![Expr::field("d"), Expr::lit(2i64)]),
                    Expr::IfNull(Box::new(Expr::field("e")), Box::new(Expr::field("a.b"))),
                ),
            ),
        ]);
        let mut paths = Vec::new();
        e.collect_paths(&mut paths);
        assert_eq!(paths, ["a.b", "c", "d", "e", "a.b"]);
    }

    #[test]
    fn field_and_literal() {
        assert_eq!(Expr::field("a").eval(&d()).unwrap(), Value::Int64(10));
        assert_eq!(Expr::field("nested.k").eval(&d()).unwrap(), Value::Int64(2));
        assert_eq!(Expr::field("missing").eval(&d()).unwrap(), Value::Null);
        assert_eq!(Expr::lit(5i64).eval(&d()).unwrap(), Value::Int64(5));
    }

    #[test]
    fn arithmetic_preserves_integrality() {
        let e = Expr::subtract(Expr::field("a"), Expr::field("b"));
        assert_eq!(e.eval(&d()).unwrap(), Value::Int64(6));
        let e = Expr::Add(vec![Expr::field("a"), Expr::lit(0.5f64)]);
        assert_eq!(e.eval(&d()).unwrap(), Value::Double(10.5));
        let e = Expr::Multiply(vec![Expr::field("a"), Expr::field("b")]);
        assert_eq!(e.eval(&d()).unwrap(), Value::Int64(40));
    }

    #[test]
    fn divide_returns_double_and_null_on_zero() {
        let e = Expr::divide(Expr::field("a"), Expr::field("b"));
        assert_eq!(e.eval(&d()).unwrap(), Value::Double(2.5));
        let e = Expr::divide(Expr::field("a"), Expr::lit(0i64));
        assert_eq!(e.eval(&d()).unwrap(), Value::Null);
    }

    #[test]
    fn null_propagates_through_arithmetic() {
        let e = Expr::subtract(Expr::field("missing"), Expr::field("a"));
        assert_eq!(e.eval(&d()).unwrap(), Value::Null);
        let e = Expr::Add(vec![Expr::field("a"), Expr::field("missing")]);
        assert_eq!(e.eval(&d()).unwrap(), Value::Null);
    }

    #[test]
    fn arithmetic_on_strings_errors() {
        let e = Expr::Add(vec![Expr::field("s"), Expr::lit(1i64)]);
        assert!(e.eval(&d()).is_err());
    }

    #[test]
    fn cond_branches_on_truthiness() {
        let e = Expr::cond(
            Expr::cmp(CmpOp::Gt, Expr::field("a"), Expr::lit(5i64)),
            Expr::lit("big"),
            Expr::lit("small"),
        );
        assert_eq!(e.eval(&d()).unwrap(), Value::from("big"));
    }

    #[test]
    fn comparisons_cross_types_use_canonical_order() {
        // number < string in canonical order
        let e = Expr::cmp(CmpOp::Lt, Expr::field("a"), Expr::field("s"));
        assert_eq!(e.eval(&d()).unwrap(), Value::Bool(true));
        let e = Expr::cmp(CmpOp::Eq, Expr::lit(2i32), Expr::lit(2.0f64));
        assert_eq!(e.eval(&d()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn boolean_ops_short_circuit() {
        // Second operand would error, but $or short-circuits on true.
        let bad = Expr::Add(vec![Expr::field("s")]);
        let e = Expr::Or(vec![Expr::lit(true), bad.clone()]);
        assert_eq!(e.eval(&d()).unwrap(), Value::Bool(true));
        let e = Expr::And(vec![Expr::lit(false), bad]);
        assert_eq!(e.eval(&d()).unwrap(), Value::Bool(false));
        let e = Expr::Not(Box::new(Expr::lit(0i64)));
        assert_eq!(e.eval(&d()).unwrap(), Value::Bool(true));
    }

    #[test]
    fn in_and_ifnull_and_concat() {
        let e = Expr::In(Box::new(Expr::lit(2i64)), Box::new(Expr::field("xs")));
        assert_eq!(e.eval(&d()).unwrap(), Value::Bool(true));
        let e = Expr::IfNull(Box::new(Expr::field("missing")), Box::new(Expr::lit(7i64)));
        assert_eq!(e.eval(&d()).unwrap(), Value::Int64(7));
        let e = Expr::Concat(vec![Expr::field("s"), Expr::lit("y")]);
        assert_eq!(e.eval(&d()).unwrap(), Value::from("xy"));
        let e = Expr::Concat(vec![Expr::field("s"), Expr::field("missing")]);
        assert_eq!(e.eval(&d()).unwrap(), Value::Null);
    }

    #[test]
    fn doc_constructor_builds_compound_keys() {
        let e = Expr::Doc(vec![
            ("x".into(), Expr::field("a")),
            ("y".into(), Expr::field("s")),
        ]);
        let v = e.eval(&d()).unwrap();
        let Value::Document(out) = v else { panic!("expected document") };
        assert_eq!(out.get("x"), Some(&Value::Int64(10)));
        assert_eq!(out.get("y"), Some(&Value::from("x")));
    }
}
