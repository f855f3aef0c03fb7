//! The compile-once / evaluate-many execution kernel.
//!
//! PR 1's streaming executor removed *materialization* overhead (no more
//! whole-stage `Vec<Document>` copies); what remained was *interpretation*
//! overhead: every stage re-split its dotted paths per document, resolved
//! them into cloned `Value`s, and keyed `$group`/`$lookup` hash tables on
//! fully cloned [`OrdValue`](crate::ordvalue::OrdValue)s. This module
//! compiles the per-stage specifications once and evaluates them many
//! times by reference:
//!
//! * [`CompiledExpr`] mirrors [`Expr`] with every field path pre-split
//!   into a [`CompiledPath`]; [`CompiledExpr::eval_ref`] returns a
//!   [`Resolved`] that borrows scalars straight out of the document
//!   (only multikey array fan-out and computed values are owned);
//! * [`GroupKernel`] hashes group keys as canonical key *bytes* (the
//!   [`crate::keybytes`] encoding) into a reusable scratch buffer, so
//!   probing the group table costs zero allocations; the first-seen key
//!   `Value` is retained as the representative for `_id` output (the
//!   unified bytes deliberately cannot be decoded back to
//!   `Int32`-vs-`Double`);
//! * [`CompiledSortSpec`] extracts sort keys once per document as
//!   borrowed [`Resolved`]s (decorate–sort–undecorate) instead of
//!   cloning every key per *comparison*;
//! * [`CompiledProject`] pre-splits projection paths and pre-compiles
//!   computed expressions;
//! * [`lookup_stage`] builds the `$lookup` hash table over documents
//!   *borrowed* from the foreign collection (via
//!   [`LookupSource::with_collection_docs`]) keyed by canonical bytes,
//!   cloning only the rows that actually join.
//!
//! The interpreted forms ([`Expr::eval`], [`crate::query::matches`])
//! stay untouched: [`super::reference`] is built from them alone and is
//! what the equivalence proptests compare this module against.

use super::accum::{spec_expr, AccState, Accumulator};
use super::expr::{self, Expr};
use super::stage::{GroupId, ProjectField};
use crate::error::{Error, Result};
use crate::keybytes;
use doclite_bson::{CompiledPath, Document, Resolved, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

pub use crate::query::filter::CmpOp;

/// An [`Expr`] compiled for repeated evaluation: identical semantics
/// (including error messages), but field paths are pre-split and
/// [`eval_ref`](CompiledExpr::eval_ref) borrows literals and scalar
/// field values instead of cloning them.
#[derive(Clone, Debug)]
pub enum CompiledExpr {
    Literal(Value),
    Field(CompiledPath),
    Doc(Vec<(String, CompiledExpr)>),
    Cond {
        cond: Box<CompiledExpr>,
        then: Box<CompiledExpr>,
        otherwise: Box<CompiledExpr>,
    },
    Cmp(CmpOp, Box<CompiledExpr>, Box<CompiledExpr>),
    And(Vec<CompiledExpr>),
    Or(Vec<CompiledExpr>),
    Not(Box<CompiledExpr>),
    Add(Vec<CompiledExpr>),
    Subtract(Box<CompiledExpr>, Box<CompiledExpr>),
    Multiply(Vec<CompiledExpr>),
    Divide(Box<CompiledExpr>, Box<CompiledExpr>),
    In(Box<CompiledExpr>, Box<CompiledExpr>),
    IfNull(Box<CompiledExpr>, Box<CompiledExpr>),
    Concat(Vec<CompiledExpr>),
}

impl CompiledExpr {
    /// Compiles an expression tree (pre-splitting every `Field` path).
    pub fn new(e: &Expr) -> Self {
        let boxed = |e: &Expr| Box::new(CompiledExpr::new(e));
        let list = |es: &[Expr]| es.iter().map(CompiledExpr::new).collect();
        match e {
            Expr::Literal(v) => CompiledExpr::Literal(v.clone()),
            Expr::Field(path) => CompiledExpr::Field(CompiledPath::new(path)),
            Expr::Doc(fields) => CompiledExpr::Doc(
                fields.iter().map(|(k, e)| (k.clone(), CompiledExpr::new(e))).collect(),
            ),
            Expr::Cond { cond, then, otherwise } => CompiledExpr::Cond {
                cond: boxed(cond),
                then: boxed(then),
                otherwise: boxed(otherwise),
            },
            Expr::Cmp(op, a, b) => CompiledExpr::Cmp(*op, boxed(a), boxed(b)),
            Expr::And(es) => CompiledExpr::And(list(es)),
            Expr::Or(es) => CompiledExpr::Or(list(es)),
            Expr::Not(e) => CompiledExpr::Not(boxed(e)),
            Expr::Add(es) => CompiledExpr::Add(list(es)),
            Expr::Subtract(a, b) => CompiledExpr::Subtract(boxed(a), boxed(b)),
            Expr::Multiply(es) => CompiledExpr::Multiply(list(es)),
            Expr::Divide(a, b) => CompiledExpr::Divide(boxed(a), boxed(b)),
            Expr::In(n, h) => CompiledExpr::In(boxed(n), boxed(h)),
            Expr::IfNull(e, f) => CompiledExpr::IfNull(boxed(e), boxed(f)),
            Expr::Concat(es) => CompiledExpr::Concat(list(es)),
        }
    }

    /// Evaluates against a document, borrowing wherever possible:
    /// literals borrow from the compiled tree, field paths borrow from
    /// the document (owned only on multikey fan-out), and only computed
    /// results (`$add`, `$concat`, document constructors, …) are owned.
    /// Missing fields evaluate to `Null`, exactly like [`Expr::eval`].
    pub fn eval_ref<'a>(&'a self, doc: &'a Document) -> Result<Resolved<'a>> {
        match self {
            CompiledExpr::Literal(v) => Ok(Resolved::Borrowed(v)),
            // The closure is load-bearing: as a fn item `Resolved::null`
            // fixes the result lifetime to 'static, which E0521-rejects
            // unifying with the `doc` borrow. The closure lets the
            // 'static result coerce covariantly.
            #[allow(clippy::redundant_closure)]
            CompiledExpr::Field(path) => Ok(path.resolve(doc).unwrap_or_else(|| Resolved::null())),
            CompiledExpr::Doc(fields) => {
                let mut out = Document::with_capacity(fields.len());
                for (k, e) in fields {
                    out.set(k.clone(), e.eval_ref(doc)?.into_value());
                }
                Ok(Resolved::Owned(Value::Document(out)))
            }
            CompiledExpr::Cond { cond, then, otherwise } => {
                if cond.eval_ref(doc)?.as_value().is_truthy() {
                    then.eval_ref(doc)
                } else {
                    otherwise.eval_ref(doc)
                }
            }
            CompiledExpr::Cmp(op, a, b) => {
                let (va, vb) = (a.eval_ref(doc)?, b.eval_ref(doc)?);
                let ord = va.as_value().canonical_cmp(vb.as_value());
                Ok(Resolved::Owned(Value::Bool(match op {
                    CmpOp::Eq => ord == Ordering::Equal,
                    CmpOp::Ne => ord != Ordering::Equal,
                    CmpOp::Gt => ord == Ordering::Greater,
                    CmpOp::Gte => ord != Ordering::Less,
                    CmpOp::Lt => ord == Ordering::Less,
                    CmpOp::Lte => ord != Ordering::Greater,
                })))
            }
            CompiledExpr::And(es) => {
                for e in es {
                    if !e.eval_ref(doc)?.as_value().is_truthy() {
                        return Ok(Resolved::Owned(Value::Bool(false)));
                    }
                }
                Ok(Resolved::Owned(Value::Bool(true)))
            }
            CompiledExpr::Or(es) => {
                for e in es {
                    if e.eval_ref(doc)?.as_value().is_truthy() {
                        return Ok(Resolved::Owned(Value::Bool(true)));
                    }
                }
                Ok(Resolved::Owned(Value::Bool(false)))
            }
            CompiledExpr::Not(e) => {
                Ok(Resolved::Owned(Value::Bool(!e.eval_ref(doc)?.as_value().is_truthy())))
            }
            CompiledExpr::Add(es) => fold_numeric(es, doc, "$add", |a, b| a + b),
            CompiledExpr::Multiply(es) => fold_numeric(es, doc, "$multiply", |a, b| a * b),
            CompiledExpr::Subtract(a, b) => {
                let (va, vb) = (a.eval_ref(doc)?, b.eval_ref(doc)?);
                expr::binary_numeric(va.as_value(), vb.as_value(), "$subtract", |x, y| x - y)
                    .map(Resolved::Owned)
            }
            CompiledExpr::Divide(a, b) => {
                let (va, vb) = (a.eval_ref(doc)?, b.eval_ref(doc)?);
                let (va, vb) = (va.as_value(), vb.as_value());
                if va.is_null() || vb.is_null() {
                    return Ok(Resolved::Owned(Value::Null));
                }
                let x = expr::numeric_operand(va, "$divide")?;
                let y = expr::numeric_operand(vb, "$divide")?;
                Ok(Resolved::Owned(if y == 0.0 { Value::Null } else { Value::Double(x / y) }))
            }
            CompiledExpr::In(needle, haystack) => {
                let n = needle.eval_ref(doc)?;
                let h = haystack.eval_ref(doc)?;
                match h.as_value() {
                    Value::Array(items) => Ok(Resolved::Owned(Value::Bool(
                        items.iter().any(|i| i.canonical_eq(n.as_value())),
                    ))),
                    other => Err(Error::ExprError(format!(
                        "$in requires an array, got {}",
                        other.type_name()
                    ))),
                }
            }
            CompiledExpr::IfNull(e, fallback) => {
                let v = e.eval_ref(doc)?;
                if v.as_value().is_null() {
                    fallback.eval_ref(doc)
                } else {
                    Ok(v)
                }
            }
            CompiledExpr::Concat(es) => {
                let mut out = String::new();
                for e in es {
                    let v = e.eval_ref(doc)?;
                    match v.as_value() {
                        Value::Null => return Ok(Resolved::Owned(Value::Null)),
                        Value::String(s) => out.push_str(s),
                        other => {
                            return Err(Error::ExprError(format!(
                                "$concat requires strings, got {}",
                                other.type_name()
                            )))
                        }
                    }
                }
                Ok(Resolved::Owned(Value::String(out)))
            }
        }
    }

    /// Owned-result convenience over [`eval_ref`](Self::eval_ref).
    pub fn eval(&self, doc: &Document) -> Result<Value> {
        self.eval_ref(doc).map(Resolved::into_value)
    }
}

fn fold_numeric(
    es: &[CompiledExpr],
    doc: &Document,
    op: &str,
    f: impl Fn(f64, f64) -> f64,
) -> Result<Resolved<'static>> {
    let mut acc: Option<f64> = None;
    let mut integral = true;
    for e in es {
        let v = e.eval_ref(doc)?;
        let v = v.as_value();
        if v.is_null() {
            return Ok(Resolved::Owned(Value::Null));
        }
        integral &= expr::is_integral(v);
        let n = expr::numeric_operand(v, op)?;
        acc = Some(match acc {
            None => n,
            Some(a) => f(a, n),
        });
    }
    Ok(Resolved::Owned(acc.map_or(Value::Null, |n| expr::make_numeric(n, integral))))
}

/// Streaming `$group` state shared by every route through the driver:
/// the id expression and accumulator inputs are compiled once, and the
/// group table is keyed by canonical key bytes encoded into a reusable
/// scratch buffer — an existing group costs one table probe and zero
/// allocations per document. Output order is first appearance, with the
/// first-seen key `Value` as the `_id` representative (`{k: 1i32}` then
/// `{k: 1.0}` reports `_id: 1`).
pub(crate) struct GroupKernel<'p> {
    id: CompiledExpr,
    fields: &'p [(String, Accumulator)],
    accs: Vec<CompiledExpr>,
    order: Vec<Value>,
    slots: HashMap<Box<[u8]>, usize>,
    states: Vec<Vec<AccState>>,
    scratch: Vec<u8>,
}

impl<'p> GroupKernel<'p> {
    pub fn new(id: &GroupId, fields: &'p [(String, Accumulator)]) -> Self {
        let id = match id {
            GroupId::Null => CompiledExpr::Literal(Value::Null),
            GroupId::Expr(e) => CompiledExpr::new(e),
        };
        let accs = fields.iter().map(|(_, spec)| CompiledExpr::new(spec_expr(spec))).collect();
        Self {
            id,
            fields,
            accs,
            order: Vec::new(),
            slots: HashMap::new(),
            states: Vec::new(),
            scratch: Vec::new(),
        }
    }

    /// Folds one document into its group.
    pub fn feed(&mut self, doc: &Document) -> Result<()> {
        let key = self.id.eval_ref(doc)?;
        keybytes::encode_into(key.as_value(), &mut self.scratch);
        let slot = match self.slots.get(self.scratch.as_slice()) {
            Some(&s) => s,
            None => {
                let s = self.states.len();
                self.slots.insert(self.scratch.as_slice().into(), s);
                self.order.push(key.into_value());
                self.states
                    .push(self.fields.iter().map(|(_, a)| AccState::new(a)).collect());
                s
            }
        };
        let states = &mut self.states[slot];
        for (state, acc) in states.iter_mut().zip(&self.accs) {
            state.accumulate_resolved(acc.eval_ref(doc)?);
        }
        Ok(())
    }

    /// Locates (or creates) the bucket for an already-evaluated group
    /// key — the entry point for batch executors that compute keys
    /// outside [`feed`](Self::feed) (the columnar kernel reads them off
    /// column vectors). The key clones only when the bucket is new,
    /// preserving the first-seen representative semantics.
    pub fn bucket_for(&mut self, key: &Value) -> usize {
        keybytes::encode_into(key, &mut self.scratch);
        match self.slots.get(self.scratch.as_slice()) {
            Some(&s) => s,
            None => {
                let s = self.states.len();
                self.slots.insert(self.scratch.as_slice().into(), s);
                self.order.push(key.clone());
                self.states
                    .push(self.fields.iter().map(|(_, a)| AccState::new(a)).collect());
                s
            }
        }
    }

    /// One bucket's accumulator states, for direct batch accumulation.
    pub fn bucket_states(&mut self, slot: usize) -> &mut [AccState] {
        &mut self.states[slot]
    }

    /// Merges `other` — the kernel of the *later* morsel in document
    /// order — into `self`, bucket-wise by key bytes. A representative
    /// key `Value` re-encodes to exactly the byte key of its slot, so
    /// probing with `other`'s representatives finds `self`'s matching
    /// buckets; unseen keys append in `other`'s first-appearance order,
    /// reproducing the serial first-appearance order (and the serial
    /// first-seen `_id` representative) under in-order merging.
    pub fn merge(&mut self, other: Self) {
        for (key, states) in other.order.into_iter().zip(other.states) {
            keybytes::encode_into(&key, &mut self.scratch);
            match self.slots.get(self.scratch.as_slice()) {
                Some(&slot) => {
                    for (mine, theirs) in self.states[slot].iter_mut().zip(states) {
                        mine.merge(theirs);
                    }
                }
                None => {
                    let s = self.states.len();
                    self.slots.insert(self.scratch.as_slice().into(), s);
                    self.order.push(key);
                    self.states.push(states);
                }
            }
        }
    }

    /// Emits one output document per group, in first-appearance order.
    /// Empty input yields no documents (MongoDB's `$group` semantics,
    /// even with `_id: null`).
    pub fn finish(self) -> Vec<Document> {
        let mut out = Vec::with_capacity(self.order.len());
        for (key, states) in self.order.into_iter().zip(self.states) {
            let mut d = Document::with_capacity(self.fields.len() + 1);
            d.set("_id", key);
            for (state, (name, _)) in states.into_iter().zip(self.fields) {
                d.set(name.clone(), state.finish());
            }
            out.push(d);
        }
        out
    }
}

/// A `$sort` specification with pre-split key paths. Keys are extracted
/// once per document as borrowed [`Resolved`]s and compared under the
/// spec's directions — the decorate–sort–undecorate pattern both
/// executors and the shard-merge path share. Missing paths key as `Null`
/// (first ascending), matching MongoDB.
#[derive(Clone, Debug)]
pub struct CompiledSortSpec {
    keys: Vec<(CompiledPath, i32)>,
}

impl CompiledSortSpec {
    /// Compiles a `[(path, ±1), ..]` sort specification.
    pub fn new(spec: &[(String, i32)]) -> Self {
        Self { keys: spec.iter().map(|(p, dir)| (CompiledPath::new(p), *dir)).collect() }
    }

    /// The document's sort key, borrowing scalar components.
    #[allow(clippy::redundant_closure)] // closure, not fn item: see `CompiledExpr::eval_ref`
    pub fn key_refs<'a>(&self, doc: &'a Document) -> Vec<Resolved<'a>> {
        self.keys
            .iter()
            .map(|(p, _)| p.resolve(doc).unwrap_or_else(|| Resolved::null()))
            .collect()
    }

    /// Compares two keys produced by [`key_refs`](Self::key_refs).
    pub fn compare(&self, a: &[Resolved<'_>], b: &[Resolved<'_>]) -> Ordering {
        for ((va, vb), (_, dir)) in a.iter().zip(b).zip(&self.keys) {
            let mut ord = va.as_value().canonical_cmp(vb.as_value());
            if *dir < 0 {
                ord = ord.reverse();
            }
            if ord != Ordering::Equal {
                return ord;
            }
        }
        Ordering::Equal
    }

    /// Owned-key variant for consumers that must detach the key from the
    /// document (the router's k-way merge moves documents into a heap).
    /// One value clone per key component; still zero path splitting.
    pub fn key_owned(&self, doc: &Document) -> Vec<Value> {
        self.key_refs(doc).into_iter().map(Resolved::into_value).collect()
    }

    /// Compares two keys produced by [`key_owned`](Self::key_owned).
    pub fn compare_values(&self, a: &[Value], b: &[Value]) -> Ordering {
        for ((va, vb), (_, dir)) in a.iter().zip(b).zip(&self.keys) {
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
}

/// Stable multi-key sort under canonical order; missing paths sort as
/// `Null` (i.e. first ascending), matching MongoDB. Compiles the spec
/// and delegates to the decorate–sort–undecorate pass below.
pub fn sort_documents(docs: &mut [Document], spec: &[(String, i32)]) {
    sort_documents_compiled(docs, &CompiledSortSpec::new(spec));
}

/// Stable in-place sort of owned documents under a compiled spec: keys
/// are extracted once per document, an index permutation is sorted, and
/// the documents are permuted by `mem::take` — no per-comparison path
/// resolution, no document clones.
pub(crate) fn sort_documents_compiled(docs: &mut [Document], spec: &CompiledSortSpec) {
    let perm = {
        let keys: Vec<Vec<Resolved<'_>>> = docs.iter().map(|d| spec.key_refs(d)).collect();
        let mut perm: Vec<usize> = (0..docs.len()).collect();
        // Index tiebreak makes the unstable sort stable.
        perm.sort_unstable_by(|&a, &b| spec.compare(&keys[a], &keys[b]).then(a.cmp(&b)));
        perm
    };
    let mut taken: Vec<Document> = docs.iter_mut().map(std::mem::take).collect();
    for (dst, src) in perm.into_iter().enumerate() {
        docs[dst] = std::mem::take(&mut taken[src]);
    }
}

/// A `$project` specification compiled once per stage: inclusion mode
/// and `_id` handling are decided up front, included paths are
/// pre-split, and computed fields are pre-compiled. Write-side semantics
/// (`set_path` through the original path string) are unchanged.
pub(crate) struct CompiledProject<'p> {
    fields: &'p [(String, ProjectField)],
    compiled: Vec<CompiledProjectField>,
    inclusion: bool,
    id_excluded: bool,
}

enum CompiledProjectField {
    Include(CompiledPath),
    Exclude,
    Compute(CompiledExpr),
}

impl<'p> CompiledProject<'p> {
    pub fn new(fields: &'p [(String, ProjectField)]) -> Self {
        let inclusion = fields
            .iter()
            .any(|(k, f)| !matches!(f, ProjectField::Exclude) && k != "_id");
        let id_excluded = fields
            .iter()
            .any(|(k, f)| k == "_id" && matches!(f, ProjectField::Exclude));
        let compiled = fields
            .iter()
            .map(|(key, f)| match f {
                ProjectField::Exclude => CompiledProjectField::Exclude,
                ProjectField::Include => CompiledProjectField::Include(CompiledPath::new(key)),
                ProjectField::Compute(e) => CompiledProjectField::Compute(CompiledExpr::new(e)),
            })
            .collect();
        Self { fields, compiled, inclusion, id_excluded }
    }

    pub fn apply(&self, doc: &Document) -> Result<Document> {
        if self.inclusion {
            let mut out = Document::new();
            // _id is carried along unless explicitly excluded.
            if !self.id_excluded {
                if let Some(id) = doc.id() {
                    out.set("_id", id.clone());
                }
            }
            for ((key, _), field) in self.fields.iter().zip(&self.compiled) {
                match field {
                    CompiledProjectField::Exclude => {}
                    CompiledProjectField::Include(path) => {
                        if let Some(v) = path.resolve(doc) {
                            out.set_path(key, v.into_value());
                        }
                    }
                    CompiledProjectField::Compute(expr) => {
                        let v = expr.eval(doc)?;
                        out.set_path(key, v);
                    }
                }
            }
            Ok(out)
        } else {
            // Exclusion mode: copy everything except the listed paths.
            let mut out = doc.clone();
            for (key, _) in self.fields {
                remove_path(&mut out, key);
            }
            Ok(out)
        }
    }
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

/// One document's `$unwind` expansion under a pre-compiled path
/// (MongoDB 3.0 semantics: arrays expand per element, missing / null /
/// empty-array drop the document, a scalar passes through unchanged).
pub(crate) fn unwind_parts_compiled(doc: &Document, path: &CompiledPath) -> Vec<Document> {
    match path.resolve(doc).as_ref().map(Resolved::as_value) {
        Some(Value::Array(items)) => items
            .iter()
            .map(|item| {
                let mut clone = doc.clone();
                path.set(&mut clone, item.clone());
                clone
            })
            .collect(),
        Some(Value::Null) | None => Vec::new(),
        Some(_) => vec![doc.clone()],
    }
}

/// Size and index metadata for a `$lookup`'s foreign side, used by the
/// cost-based join-strategy choice in [`lookup_stage`].
#[derive(Clone, Copy, Debug, Default)]
pub struct LookupMeta {
    /// Live documents in the foreign collection.
    pub docs: usize,
    /// Whether an index with `foreign_field` as its leading field exists
    /// (enables the index-nested-loop strategy).
    pub has_index: bool,
}

/// Supplies foreign collections to `$lookup` stages. Implemented by
/// [`crate::database::Database`]; the sharded router resolves lookups
/// against its primary shard (MongoDB likewise requires the `from`
/// collection of a `$lookup` to be unsharded).
pub trait LookupSource {
    /// All documents of a collection, or `None` if it does not exist.
    fn collection_docs(&self, name: &str) -> Option<Vec<Document>>;

    /// Foreign-side size/index metadata for a `$lookup` against
    /// `name.field`, or `None` if the source cannot provide it (the
    /// kernel then always builds the full hash table).
    fn collection_lookup_meta(&self, _name: &str, _field: &str) -> Option<LookupMeta> {
        None
    }

    /// Index-nested-loop probe: the documents of `name` whose `field`
    /// resolves canonically equal to `key`, in slab (insertion-slot)
    /// order — the same per-bucket order the hash build produces.
    /// `None` when no leading index on `field` exists. Implementations
    /// must re-check the resolved value against `key` exactly, because
    /// multikey index entries over-approximate whole-value equality.
    fn indexed_foreign_docs(&self, _name: &str, _field: &str, _key: &Value) -> Option<Vec<Document>> {
        None
    }

    /// Runs `f` over the collection's documents *borrowed* in place —
    /// the execution kernel's `$lookup` path, which builds its join
    /// table without cloning the foreign collection. `f` must be
    /// invoked exactly once; a missing collection yields an empty
    /// iterator. The default forwards to [`Self::collection_docs`]
    /// (cloning) so existing implementors stay correct.
    fn with_collection_docs(
        &self,
        name: &str,
        f: &mut dyn for<'a> FnMut(&mut (dyn Iterator<Item = &'a Document> + 'a)),
    ) {
        let docs = self.collection_docs(name).unwrap_or_default();
        f(&mut docs.iter());
    }
}

/// Shared `$lookup` execution: the hash table is built over documents
/// *borrowed* from the foreign collection (no whole-collection clone),
/// keyed by canonical key bytes; only matched rows are cloned into the
/// `as` array. A missing local field joins as `Null` (null ↔ missing in
/// lookup equality, matching MongoDB); an array-valued local field
/// matches any element.
pub(crate) fn lookup_stage(
    docs: Vec<Document>,
    source: &dyn LookupSource,
    from: &str,
    local_field: &str,
    foreign_field: &str,
    as_field: &str,
) -> Vec<Document> {
    if use_indexed_lookup(&docs, source, from, local_field, foreign_field) {
        return lookup_indexed(docs, source, from, local_field, foreign_field, as_field);
    }
    let local_path = CompiledPath::new(local_field);
    let foreign_path = CompiledPath::new(foreign_field);
    let mut input = Some(docs);
    let mut out = Vec::new();
    source.with_collection_docs(from, &mut |foreign| {
        let mut by_key: HashMap<Box<[u8]>, Vec<&Document>> = HashMap::new();
        let mut scratch = Vec::new();
        for f in foreign {
            let key = foreign_path.resolve(f);
            keybytes::encode_into(resolved_or_null(&key), &mut scratch);
            match by_key.get_mut(scratch.as_slice()) {
                Some(bucket) => bucket.push(f),
                None => {
                    by_key.insert(scratch.as_slice().into(), vec![f]);
                }
            }
        }
        let docs = input.take().expect("with_collection_docs invokes its callback once");
        out.reserve(docs.len());
        for mut d in docs {
            let matched: Vec<Value> = {
                let local = local_path.resolve(&d);
                match resolved_or_null(&local) {
                    Value::Array(items) => items
                        .iter()
                        .flat_map(|item| {
                            keybytes::encode_into(item, &mut scratch);
                            by_key.get(scratch.as_slice()).into_iter().flatten()
                        })
                        .map(|m| Value::Document((*m).clone()))
                        .collect(),
                    v => {
                        keybytes::encode_into(v, &mut scratch);
                        by_key
                            .get(scratch.as_slice())
                            .into_iter()
                            .flatten()
                            .map(|m| Value::Document((*m).clone()))
                            .collect()
                    }
                }
            };
            d.set(as_field, Value::Array(matched));
            out.push(d);
        }
    });
    out
}

fn resolved_or_null<'a>(r: &'a Option<Resolved<'a>>) -> &'a Value {
    static NULL: Value = Value::Null;
    r.as_ref().map_or(&NULL, Resolved::as_value)
}

/// Cost-based `$lookup` strategy choice: when the probe side is small
/// relative to an indexed foreign side, index-nested-loop probes beat
/// paying the full hash build over the foreign collection. The probe
/// keys must not contain array-valued elements — multikey index entries
/// fan arrays out per element, so an array *key* is unreachable through
/// the index while the hash build would match it whole. Shared with
/// `Collection::explain_aggregate` so the report matches execution.
pub(crate) fn use_indexed_lookup(
    docs: &[Document],
    source: &dyn LookupSource,
    from: &str,
    local_field: &str,
    foreign_field: &str,
) -> bool {
    source.collection_lookup_meta(from, foreign_field).is_some_and(|meta| {
        meta.has_index
            && docs.len().saturating_mul(16) < meta.docs
            && inl_probe_keys_ok(docs, local_field)
    })
}

/// True if no probe key is itself an array (see [`lookup_stage`]):
/// scalar, document, and null/missing keys round-trip exactly through
/// the index, array keys do not.
fn inl_probe_keys_ok(docs: &[Document], local_field: &str) -> bool {
    let local_path = CompiledPath::new(local_field);
    docs.iter().all(|d| {
        let r = local_path.resolve(d);
        match resolved_or_null(&r) {
            Value::Array(items) => !items.iter().any(|i| matches!(i, Value::Array(_))),
            _ => true,
        }
    })
}

/// Index-nested-loop `$lookup`: per distinct probe key, fetch the
/// foreign matches through the index (slab order, exact re-check by the
/// source) and memoize them. Produces byte-identical results to the
/// hash build: same per-bucket document order, same duplicate handling,
/// same null ↔ missing semantics.
fn lookup_indexed(
    docs: Vec<Document>,
    source: &dyn LookupSource,
    from: &str,
    local_field: &str,
    foreign_field: &str,
    as_field: &str,
) -> Vec<Document> {
    let local_path = CompiledPath::new(local_field);
    let mut cache: HashMap<Box<[u8]>, Vec<Value>> = HashMap::new();
    let mut scratch = Vec::new();
    let mut probe = |key: &Value, cache: &mut HashMap<Box<[u8]>, Vec<Value>>| -> Vec<Value> {
        keybytes::encode_into(key, &mut scratch);
        if let Some(hit) = cache.get(scratch.as_slice()) {
            return hit.clone();
        }
        let matched: Vec<Value> = source
            .indexed_foreign_docs(from, foreign_field, key)
            .unwrap_or_default()
            .into_iter()
            .map(Value::Document)
            .collect();
        cache.insert(scratch.as_slice().into(), matched.clone());
        matched
    };
    let mut out = Vec::with_capacity(docs.len());
    for mut d in docs {
        let matched: Vec<Value> = {
            let local = local_path.resolve(&d);
            match resolved_or_null(&local) {
                Value::Array(items) => {
                    let mut m = Vec::new();
                    for item in items {
                        m.extend(probe(item, &mut cache));
                    }
                    m
                }
                v => probe(v, &mut cache),
            }
        };
        d.set(as_field, Value::Array(matched));
        out.push(d);
    }
    out
}
