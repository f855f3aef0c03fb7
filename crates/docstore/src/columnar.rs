//! The optional per-collection columnar sidecar, its scan kernel and the
//! covered aggregate.
//!
//! A [`ColumnSet`] maintains typed column vectors (i64 / f64 / bool /
//! dictionary-encoded string) plus presence/typed/exotic validity
//! bitmaps for a set of scalar paths, keyed by slab slot. Columns join
//! the set one path at a time, each built by one pass over the slab
//! ([`ColumnSet::add_columns`]) — declared eagerly, or lazily by the
//! collection once a path has been scanned twice — and the write path
//! keeps them incrementally consistent from then on (insert / update /
//! delete hooks in [`crate::collection`]).
//!
//! [`scan`] is the planner's `ColumnScan` access path: it evaluates a
//! whole filter over the columns chunk by chunk and yields the matching
//! slots in slot order, so an unindexed `find` / `count` / `update` /
//! `$match` touches only the documents it returns.
//!
//! [`plan`] / [`execute`] are the aggregation driver's *covered
//! terminal*: the same selection feeding a `$count`, or a `$group`
//! whose key and every accumulator input is a column or a literal,
//! accumulated straight from column cells — no document is fetched.
//!
//! Equivalence with the row path is the design invariant, not an
//! aspiration:
//!
//! * every per-cell decision mirrors [`crate::query::matcher`] exactly
//!   (null-vs-missing, `$in` null lists, same-family gating of ordered
//!   comparisons);
//! * any cell the column representation cannot hold losslessly —
//!   arrays, documents, ObjectIds, DateTimes, or a scalar of the wrong
//!   type for the column (no lossy numeric promotion) — is marked
//!   *exotic*, and any chunk whose relevant columns contain an exotic
//!   cell falls back to the row path ([`matches_compiled`] /
//!   [`GroupKernel::feed`]) for that chunk, with identical results;
//! * every covered expression is a field path or a literal, which
//!   cannot fail, so there is no error string to reproduce.
//!
//! Chunks of [`SCAN_CHUNK`] rows run serially in slot order and feed one
//! accumulator, so a covered aggregate is bit-identical to streaming the
//! same pipeline over a collection scan, float sums included.
//!
//! [`GroupKernel::feed`]: crate::agg::kernel::GroupKernel::feed

use crate::agg::accum::{spec_expr, Accumulator};
use crate::agg::kernel::GroupKernel;
use crate::agg::stage::{GroupId, Stage};
use crate::agg::Expr;
use crate::error::Result;
use crate::ordvalue::OrdValue;
use crate::query::filter::{CmpOp, Filter};
use crate::query::matcher::{compile_set, matches_compiled, set_contains, CompiledFilter};
use crate::storage::{DocId, Slab};
use doclite_bson::{CompiledPath, Document, Resolved, Value};
use std::cmp::Ordering;
use std::collections::HashMap;

/// Rows per evaluation chunk of [`scan`] and [`execute`]: a multiple of 64, so chunk
/// masks are whole words of the bitmaps, and small enough that a chunk's
/// column slices stay cache-resident across a conjunction's predicates.
pub const SCAN_CHUNK: usize = 4096;

/// Most distinct strings a string column's dictionary holds. Cells that
/// would add another are marked exotic instead, which bounds the
/// dictionary and sends only their chunks to the row path.
pub const DICT_CAP: usize = 4096;

/// A growable bitmap keyed by slot index.
#[derive(Clone, Debug, Default)]
struct Bitmap {
    words: Vec<u64>,
}

impl Bitmap {
    fn ensure(&mut self, bits: usize) {
        let words = bits.div_ceil(64);
        if self.words.len() < words {
            self.words.resize(words, 0);
        }
    }

    fn get(&self, i: usize) -> bool {
        self.words
            .get(i / 64)
            .is_some_and(|w| w & (1u64 << (i % 64)) != 0)
    }

    fn set(&mut self, i: usize) {
        self.ensure(i + 1);
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    fn clear(&mut self, i: usize) {
        if let Some(w) = self.words.get_mut(i / 64) {
            *w &= !(1u64 << (i % 64));
        }
    }

    /// The 64 bits starting at bit `i` (bits past the end read as 0).
    fn word_at(&self, i: usize) -> u64 {
        let word = |w: usize| self.words.get(w).copied().unwrap_or(0);
        let (w, shift) = (i / 64, i % 64);
        if shift == 0 {
            word(w)
        } else {
            word(w) >> shift | word(w + 1) << (64 - shift)
        }
    }

    fn bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// True if any bit in `[start, end)` is set — word-wise, so gating a
    /// chunk on "any exotic cell here?" costs O(chunk/64).
    fn any_in_range(&self, start: usize, end: usize) -> bool {
        if start >= end {
            return false;
        }
        let (fw, fb) = (start / 64, start % 64);
        let (lw, lb) = ((end - 1) / 64, (end - 1) % 64);
        let head = u64::MAX << fb;
        let tail = u64::MAX >> (63 - lb);
        let word = |i: usize| self.words.get(i).copied().unwrap_or(0);
        if fw == lw {
            return word(fw) & head & tail != 0;
        }
        if word(fw) & head != 0 || word(lw) & tail != 0 {
            return true;
        }
        (fw + 1..lw).any(|i| word(i) != 0)
    }
}

/// Column storage for one declared field. Which vector is live is
/// decided by the first typed scalar the column sees.
#[derive(Clone, Debug, Default)]
enum ColumnData {
    /// No typed scalar seen yet (cells so far are missing/null/exotic).
    #[default]
    Empty,
    /// `Int32`/`Int64` cells widened to `i64`; the `narrow` bitmap
    /// remembers which cells were `Int32` so reconstruction returns the
    /// exact original variant (group `_id` representatives and
    /// `$min`/`$first`-style accumulators compare output documents with
    /// derived `PartialEq`, which distinguishes `Int32(5)` from
    /// `Int64(5)`).
    I64 { vals: Vec<i64>, narrow: Bitmap },
    F64(Vec<f64>),
    Bool(Vec<bool>),
    /// Dictionary-encoded strings; `dict` holds `Value::String` so
    /// cells can be lent to accumulators without per-row clones.
    Str {
        ids: Vec<u32>,
        dict: Vec<Value>,
        map: HashMap<String, u32>,
    },
}

/// One cell as the batch kernel sees it, borrowed from the column.
#[derive(Clone, Copy, Debug)]
enum Cell<'a> {
    /// The path did not resolve in this document.
    Missing,
    /// The path resolved to an explicit null.
    Null,
    /// The value could not be stored losslessly; row fallback required.
    Exotic,
    Int(i64),
    F64(f64),
    Bool(bool),
    Str(&'a str),
}

#[derive(Clone, Debug, Default)]
struct Column {
    data: ColumnData,
    /// Path resolved (null cells included).
    present: Bitmap,
    /// Scalar of the column's type, stored in `data`.
    typed: Bitmap,
    /// Present but not representable: wrong scalar type for the column,
    /// array, document, ObjectId, DateTime.
    exotic: Bitmap,
    /// Slots tracked so far (the data vectors stay this long).
    len: usize,
}

impl Column {
    fn ensure(&mut self, n: usize) {
        if self.len >= n {
            return;
        }
        match &mut self.data {
            ColumnData::Empty => {}
            ColumnData::I64 { vals, .. } => vals.resize(n, 0),
            ColumnData::F64(vals) => vals.resize(n, 0.0),
            ColumnData::Bool(vals) => vals.resize(n, false),
            ColumnData::Str { ids, .. } => ids.resize(n, 0),
        }
        self.len = n;
    }

    fn set_cell(&mut self, slot: usize, v: Option<&Value>) {
        self.ensure(slot + 1);
        self.present.clear(slot);
        self.typed.clear(slot);
        self.exotic.clear(slot);
        if let ColumnData::I64 { narrow, .. } = &mut self.data {
            narrow.clear(slot);
        }
        let Some(v) = v else { return };
        self.present.set(slot);
        match v {
            Value::Null => {}
            Value::Int32(_) | Value::Int64(_) | Value::Double(_) | Value::Bool(_)
            | Value::String(_) => {
                if matches!(self.data, ColumnData::Empty) {
                    self.allocate_for(v);
                }
                if !self.store_typed(slot, v) {
                    self.exotic.set(slot);
                }
            }
            Value::Array(_) | Value::Document(_) | Value::ObjectId(_) | Value::DateTime(_) => {
                self.exotic.set(slot);
            }
        }
    }

    /// First typed scalar decides the column type; earlier slots keep
    /// their default payloads (their `typed` bits are unset, so the
    /// payloads are never read).
    fn allocate_for(&mut self, v: &Value) {
        self.data = match v {
            Value::Int32(_) | Value::Int64(_) => ColumnData::I64 {
                vals: vec![0; self.len],
                narrow: Bitmap::default(),
            },
            Value::Double(_) => ColumnData::F64(vec![0.0; self.len]),
            Value::Bool(_) => ColumnData::Bool(vec![false; self.len]),
            Value::String(_) => ColumnData::Str {
                ids: vec![0; self.len],
                dict: Vec::new(),
                map: HashMap::new(),
            },
            _ => unreachable!("allocate_for is called for typed scalars only"),
        };
    }

    /// Stores `v` if it is a scalar of the column's type; false means
    /// the caller must mark the cell exotic. Integers never promote to
    /// an `F64` column (and doubles never demote) — exactness over
    /// coverage.
    fn store_typed(&mut self, slot: usize, v: &Value) -> bool {
        match (&mut self.data, v) {
            (ColumnData::I64 { vals, narrow }, Value::Int32(n)) => {
                vals[slot] = i64::from(*n);
                narrow.set(slot);
            }
            (ColumnData::I64 { vals, .. }, Value::Int64(n)) => vals[slot] = *n,
            (ColumnData::F64(vals), Value::Double(n)) => vals[slot] = *n,
            (ColumnData::Bool(vals), Value::Bool(b)) => vals[slot] = *b,
            (ColumnData::Str { ids, dict, map }, Value::String(s)) => {
                let id = match map.get(s.as_str()) {
                    Some(&id) => id,
                    // A full dictionary admits no new string: the cell
                    // is exotic and its chunk takes the row path.
                    None if dict.len() >= DICT_CAP => return false,
                    None => {
                        let id = u32::try_from(dict.len()).expect("DICT_CAP fits in u32");
                        dict.push(Value::String(s.clone()));
                        map.insert(s.clone(), id);
                        id
                    }
                };
                ids[slot] = id;
            }
            _ => return false,
        }
        self.typed.set(slot);
        true
    }

    /// Chunks of [`SCAN_CHUNK`] rows among the first `rows` that hold an
    /// exotic cell (each makes a scan of that chunk fall back to rows).
    fn exotic_chunks(&self, rows: usize) -> usize {
        (0..rows)
            .step_by(SCAN_CHUNK)
            .filter(|&s| self.exotic.any_in_range(s, (s + SCAN_CHUNK).min(rows)))
            .count()
    }

    fn bytes(&self) -> usize {
        let (payload, narrow) = match &self.data {
            ColumnData::Empty => (0, 0),
            ColumnData::I64 { vals, narrow } => (vals.len() * 8, narrow.bytes()),
            ColumnData::F64(vals) => (vals.len() * 8, 0),
            ColumnData::Bool(vals) => (vals.len(), 0),
            // Each dictionary string is held twice: as the lendable
            // `Value` and as the lookup key.
            ColumnData::Str { ids, dict, map } => (
                ids.len() * 4
                    + dict.len() * std::mem::size_of::<Value>()
                    + map.keys().map(|k| 2 * k.len() + std::mem::size_of::<(String, u32)>()).sum::<usize>(),
                0,
            ),
        };
        payload + narrow + self.present.bytes() + self.typed.bytes() + self.exotic.bytes()
    }

    fn cell(&self, slot: usize) -> Cell<'_> {
        if !self.present.get(slot) {
            return Cell::Missing;
        }
        if self.exotic.get(slot) {
            return Cell::Exotic;
        }
        if !self.typed.get(slot) {
            return Cell::Null;
        }
        match &self.data {
            ColumnData::Empty => unreachable!("typed bit implies allocated data"),
            ColumnData::I64 { vals, .. } => Cell::Int(vals[slot]),
            ColumnData::F64(vals) => Cell::F64(vals[slot]),
            ColumnData::Bool(vals) => Cell::Bool(vals[slot]),
            ColumnData::Str { ids, dict, .. } => match &dict[ids[slot] as usize] {
                Value::String(s) => Cell::Str(s),
                _ => unreachable!("dictionary holds strings"),
            },
        }
    }

    /// The cell as the value `Expr::Field` would evaluate to: missing
    /// and null cells are `Null`, typed cells reconstruct their exact
    /// original variant. Never called on exotic cells (chunks with
    /// exotic cells take the row path).
    fn value_at(&self, slot: usize) -> Resolved<'_> {
        match self.cell(slot) {
            Cell::Missing | Cell::Null => Resolved::Owned(Value::Null),
            Cell::Exotic => unreachable!("exotic cells are row-fallback only"),
            Cell::Int(n) => {
                if let ColumnData::I64 { narrow, .. } = &self.data {
                    if narrow.get(slot) {
                        return Resolved::Owned(Value::Int32(n as i32));
                    }
                }
                Resolved::Owned(Value::Int64(n))
            }
            Cell::F64(n) => Resolved::Owned(Value::Double(n)),
            Cell::Bool(b) => Resolved::Owned(Value::Bool(b)),
            Cell::Str(_) => match &self.data {
                ColumnData::Str { ids, dict, .. } => Resolved::Borrowed(&dict[ids[slot] as usize]),
                _ => unreachable!("Str cell implies Str data"),
            },
        }
    }
}

/// Typed column vectors for some of a collection's scalar paths, keyed
/// by slab slot. Owned by the collection under its lock; the write path
/// calls [`set_row`](Self::set_row)/[`clear_row`](Self::clear_row) on
/// every slab mutation.
///
/// Memory bound: a column holds at most 8 bytes of payload and 4 bitmap
/// bits (`present`, `typed`, `exotic`, `narrow`) per slot, the set one
/// more bit per slot for `live`, and a string column's dictionary at
/// most [`DICT_CAP`] entries ([`bytes`](Self::bytes) reports the total).
#[derive(Default)]
pub struct ColumnSet {
    fields: Vec<(String, CompiledPath)>,
    cols: Vec<Column>,
    /// Live slots — dead slab slots must not read as documents with
    /// missing fields (a `$ne` would match them).
    live: Bitmap,
    rows: usize,
    /// Paths whose lazily built column was discarded as mostly exotic
    /// (array-valued or mixed-type); they are not built again.
    rejected: Vec<String>,
}

impl ColumnSet {
    /// A set with no columns yet over the slab's live slots.
    pub fn over(slab: &Slab) -> Self {
        let mut cs = ColumnSet::default();
        for (id, _) in slab.iter() {
            cs.live.set(id as usize);
            cs.rows = cs.rows.max(id as usize + 1);
        }
        cs
    }

    /// Adds a column for each of `paths` that has none, filling them in
    /// one pass over the slab; existing columns are not touched. With
    /// `keep_exotic` false (columns nobody declared), a column whose
    /// build leaves an exotic cell in more than half of its
    /// [`SCAN_CHUNK`]-row chunks is discarded — every scan would fall
    /// back to the row path anyway — and its path remembered so it is
    /// not built again.
    pub fn add_columns(&mut self, paths: &[&str], slab: &Slab, keep_exotic: bool) {
        let first_new = self.cols.len();
        for path in paths {
            if !self.has_column(path) {
                self.fields.push(((*path).to_owned(), CompiledPath::new(path)));
                self.cols.push(Column::default());
            }
        }
        for (id, doc) in slab.iter() {
            for ((_, path), col) in self.fields.iter().zip(&mut self.cols).skip(first_new) {
                let resolved = path.resolve(doc);
                col.set_cell(id as usize, resolved.as_ref().map(Resolved::as_value));
            }
        }
        if keep_exotic {
            return;
        }
        let chunks = self.rows.div_ceil(SCAN_CHUNK);
        for i in (first_new..self.cols.len()).rev() {
            if self.cols[i].exotic_chunks(self.rows) * 2 > chunks {
                self.cols.remove(i);
                self.rejected.push(self.fields.remove(i).0);
            }
        }
    }

    /// Writes one document's cells (insert, whole-document rollback).
    pub fn set_row(&mut self, slot: DocId, doc: &Document) {
        self.rows = self.rows.max(slot as usize + 1);
        self.live.set(slot as usize);
        self.set_cells(slot, doc, |_| true);
    }

    /// Rewrites a live row's cells in the columns whose path `touched`
    /// selects — all an in-place update can have changed.
    pub(crate) fn set_cells(&mut self, slot: DocId, doc: &Document, touched: impl Fn(&str) -> bool) {
        for ((field, path), col) in self.fields.iter().zip(&mut self.cols) {
            if touched(field) {
                let resolved = path.resolve(doc);
                col.set_cell(slot as usize, resolved.as_ref().map(Resolved::as_value));
            }
        }
    }

    /// Marks a slot dead (delete, or insert rollback).
    pub fn clear_row(&mut self, slot: DocId) {
        let slot = slot as usize;
        self.live.clear(slot);
        for col in &mut self.cols {
            if slot < col.len {
                col.set_cell(slot, None);
            }
        }
    }

    /// Number of slots tracked (dead slots included).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True if `path` has a column.
    pub fn has_column(&self, path: &str) -> bool {
        self.col_index(path).is_some()
    }

    /// True if `path`'s column was discarded as mostly exotic.
    pub fn is_rejected(&self, path: &str) -> bool {
        self.rejected.iter().any(|p| p == path)
    }

    /// Bytes held by the columns, their bitmaps and dictionaries.
    pub fn bytes(&self) -> usize {
        self.live.bytes() + self.cols.iter().map(Column::bytes).sum::<usize>()
    }

    fn col_index(&self, path: &str) -> Option<usize> {
        self.fields.iter().position(|(f, _)| f == path)
    }
}

/// A `$match` predicate compiled against the columns.
#[derive(Clone, Debug)]
enum ColPred {
    True,
    Cmp { col: usize, op: CmpOp, rhs: Value },
    In { col: usize, set: MemberSet },
    Nin { col: usize, set: MemberSet },
    Exists { col: usize, exists: bool },
    And(Vec<ColPred>),
    Or(Vec<ColPred>),
    Nor(Vec<ColPred>),
    Not(Box<ColPred>),
}

/// An `$in` / `$nin` value list, compiled once per query.
#[derive(Clone, Debug)]
struct MemberSet {
    /// Canonically sorted members, built exactly as the row matcher's.
    set: Box<[OrdValue]>,
    has_null: bool,
    /// The members as sorted, deduplicated `i64`s when every one is an
    /// `Int32` / `Int64`: an `I64` column then probes this slice instead
    /// of comparing `Value`s. Any other member mix leaves it `None`, so
    /// cross-type members (`{$in: [1.0]}` finds `Int32(1)`) keep the
    /// canonical comparison.
    ints: Option<Box<[i64]>>,
}

impl MemberSet {
    fn new(values: &[Value]) -> Self {
        let ints: Option<Vec<i64>> = values
            .iter()
            .map(|v| match v {
                Value::Int32(n) => Some(i64::from(*n)),
                Value::Int64(n) => Some(*n),
                _ => None,
            })
            .collect();
        MemberSet {
            set: compile_set(values),
            has_null: values.iter().any(Value::is_null),
            ints: ints.map(|mut ints| {
                ints.sort_unstable();
                ints.dedup();
                ints.into_boxed_slice()
            }),
        }
    }
}

/// Compiles a filter against the columns; `None` if any leaf references
/// a path without one.
fn compile_pred(f: &Filter, cs: &ColumnSet) -> Option<ColPred> {
    let all = |fs: &[Filter]| -> Option<Vec<ColPred>> {
        fs.iter().map(|f| compile_pred(f, cs)).collect()
    };
    Some(match f {
        Filter::True => ColPred::True,
        Filter::Cmp { path, op, value } => ColPred::Cmp {
            col: cs.col_index(path)?,
            op: *op,
            rhs: value.clone(),
        },
        Filter::In { path, values } => {
            ColPred::In { col: cs.col_index(path)?, set: MemberSet::new(values) }
        }
        Filter::Nin { path, values } => {
            ColPred::Nin { col: cs.col_index(path)?, set: MemberSet::new(values) }
        }
        Filter::Exists { path, exists } => {
            ColPred::Exists { col: cs.col_index(path)?, exists: *exists }
        }
        Filter::And(fs) => ColPred::And(all(fs)?),
        Filter::Or(fs) => ColPred::Or(all(fs)?),
        Filter::Nor(fs) => ColPred::Nor(all(fs)?),
        Filter::Not(f) => ColPred::Not(Box::new(compile_pred(f, cs)?)),
    })
}

fn pred_cols(p: &ColPred, out: &mut Vec<usize>) {
    match p {
        ColPred::True => {}
        ColPred::Cmp { col, .. }
        | ColPred::In { col, .. }
        | ColPred::Nin { col, .. }
        | ColPred::Exists { col, .. } => {
            if !out.contains(col) {
                out.push(*col);
            }
        }
        ColPred::And(ps) | ColPred::Or(ps) | ColPred::Nor(ps) => {
            for p in ps {
                pred_cols(p, out);
            }
        }
        ColPred::Not(p) => pred_cols(p, out),
    }
}

/// One filter to evaluate over a chunk: its column form, and the
/// compiled row form for fallback chunks.
struct MatchStep<'r> {
    col: ColPred,
    cols_used: Vec<usize>,
    row: &'r CompiledFilter,
}

impl<'r> MatchStep<'r> {
    /// `None` if a path the filter reads has no column.
    fn new(f: &Filter, cs: &ColumnSet, row: &'r CompiledFilter) -> Option<Self> {
        let col = compile_pred(f, cs)?;
        let mut cols_used = Vec::new();
        pred_cols(&col, &mut cols_used);
        Some(MatchStep { col, cols_used, row })
    }

    /// The live rows of the chunk `[start, end)` that satisfy the
    /// filter: evaluated over the columns, or per live document when a
    /// used column holds an exotic cell in range.
    fn select(&self, cs: &ColumnSet, slab: &Slab, start: usize, end: usize) -> Mask {
        let mut sel = live_mask(cs, start, end);
        if self.cols_used.iter().any(|&c| cs.cols[c].exotic.any_in_range(start, end)) {
            sel.retain(|i| {
                slab.get((start + i) as DocId).is_some_and(|d| matches_compiled(self.row, d))
            });
        } else {
            refine(&self.col, cs, start, &mut sel);
        }
        sel
    }
}

/// A `$group` accumulator input: a column, or a literal (`{$sum: 1}`).
enum GroupInput {
    Col(usize),
    Lit(Value),
}

enum ColTerminal<'p> {
    /// `{$count: name}` over the selection.
    Count(&'p str),
    /// Covered `$group`: key from a column (or `_id: null`), every
    /// accumulator input a column or literal.
    Group {
        id_col: Option<usize>,
        fields: &'p [(String, Accumulator)],
        inputs: Vec<GroupInput>,
        cols_used: Vec<usize>,
        spec: &'p GroupId,
    },
}

/// A covered aggregate: one selection over the columns and a terminal
/// that reads nothing but columns.
pub(crate) struct ColPlan<'p> {
    step: MatchStep<'p>,
    terminal: ColTerminal<'p>,
}

/// Plans `filter` (with `row`, the same filter compiled for documents)
/// followed by `terminal` as a covered aggregate. `None` unless every
/// path the filter reads has a column and `terminal` is a `$count` or a
/// `$group` whose key and accumulator inputs are columns or literals —
/// the caller then streams the pipeline over documents instead.
pub(crate) fn plan<'p>(
    filter: &Filter,
    row: &'p CompiledFilter,
    terminal: Option<&'p Stage>,
    cs: &ColumnSet,
) -> Option<ColPlan<'p>> {
    let terminal = match terminal? {
        Stage::Count(name) => ColTerminal::Count(name),
        Stage::Group { id, fields } => {
            let (id_col, inputs, cols_used) = group_coverage(id, fields, cs)?;
            ColTerminal::Group { id_col, fields, inputs, cols_used, spec: id }
        }
        _ => return None,
    };
    Some(ColPlan { step: MatchStep::new(filter, cs, row)?, terminal })
}

#[allow(clippy::type_complexity)]
fn group_coverage(
    id: &GroupId,
    fields: &[(String, Accumulator)],
    cs: &ColumnSet,
) -> Option<(Option<usize>, Vec<GroupInput>, Vec<usize>)> {
    let id_col = match id {
        GroupId::Null => None,
        GroupId::Expr(Expr::Field(path)) => Some(cs.col_index(path)?),
        GroupId::Expr(_) => return None,
    };
    let mut inputs = Vec::with_capacity(fields.len());
    for (_, acc) in fields {
        inputs.push(match spec_expr(acc) {
            Expr::Field(path) => GroupInput::Col(cs.col_index(path)?),
            Expr::Literal(v) => GroupInput::Lit(v.clone()),
            _ => return None,
        });
    }
    let mut cols_used: Vec<usize> = id_col.into_iter().collect();
    for input in &inputs {
        if let GroupInput::Col(c) = input {
            if !cols_used.contains(c) {
                cols_used.push(*c);
            }
        }
    }
    Some((id_col, inputs, cols_used))
}

/// A selection bitmask over one chunk's rows (`len` bits, bit `i` =
/// chunk-relative row `i`).
#[derive(Clone)]
struct Mask {
    words: Vec<u64>,
    len: usize,
}

impl Mask {
    fn zeros(len: usize) -> Self {
        Mask { words: vec![0; len.div_ceil(64)], len }
    }

    #[cfg(test)]
    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    fn or_assign(&mut self, other: &Mask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Clears every bit that is set in `other`.
    fn and_not_assign(&mut self, other: &Mask) {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Keeps the set bits `f` accepts; words with no bit set cost one
    /// comparison, so a predicate runs only where rows are still
    /// selected.
    fn retain(&mut self, mut f: impl FnMut(usize) -> bool) {
        for (wi, word) in self.words.iter_mut().enumerate() {
            let mut w = *word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                if !f(wi * 64 + b) {
                    *word &= !(1u64 << b);
                }
                w &= w - 1;
            }
        }
    }

    fn count_ones(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Fallible visit of the set bits in order: stops at the first
    /// error.
    fn try_for_each_one<E>(
        &self,
        mut f: impl FnMut(usize) -> std::result::Result<(), E>,
    ) -> std::result::Result<(), E> {
        for (wi, &word) in self.words.iter().enumerate() {
            let mut w = word;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                f(wi * 64 + b)?;
                w &= w - 1;
            }
        }
        Ok(())
    }

    fn for_each_one(&self, mut f: impl FnMut(usize)) {
        let _ = self.try_for_each_one(|i| -> std::result::Result<(), ()> {
            f(i);
            Ok(())
        });
    }
}

/// Live-slot mask for `[start, end)`, chunk-relative: the `live`
/// bitmap's words, shifted into place.
fn live_mask(cs: &ColumnSet, start: usize, end: usize) -> Mask {
    let mut m = Mask::zeros(end - start);
    for (k, w) in m.words.iter_mut().enumerate() {
        *w = cs.live.word_at(start + k * 64);
    }
    let tail = m.len % 64;
    if tail != 0 {
        if let Some(last) = m.words.last_mut() {
            *last &= u64::MAX >> (64 - tail);
        }
    }
    m
}

/// Whether an ordering satisfies a comparison operator.
fn ord_matches(op: CmpOp, ord: Ordering) -> bool {
    match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Gte => ord != Ordering::Less,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Lte => ord != Ordering::Greater,
    }
}

/// Narrows `sel` — the still-selected rows of the chunk starting at
/// slot `start` — to the rows satisfying `p`, evaluating `p` only where
/// a row is still selected; cell decisions mirror the matcher exactly
/// (see the leaf helpers). The caller has checked that no used column
/// holds an exotic cell in the chunk.
fn refine(p: &ColPred, cs: &ColumnSet, start: usize, sel: &mut Mask) {
    // The rows of `sel` satisfying any of `ps`, each disjunct evaluated
    // only over the rows no earlier one accepted.
    let any_of = |ps: &[ColPred], sel: &Mask| {
        let mut acc = Mask::zeros(sel.len);
        for p in ps {
            let mut m = sel.clone();
            m.and_not_assign(&acc);
            refine(p, cs, start, &mut m);
            acc.or_assign(&m);
        }
        acc
    };
    match p {
        ColPred::True => {}
        ColPred::Cmp { col, op, rhs } => refine_cmp(&cs.cols[*col], *op, rhs, start, sel),
        ColPred::In { col, set } => refine_in(&cs.cols[*col], set, true, start, sel),
        ColPred::Nin { col, set } => refine_in(&cs.cols[*col], set, false, start, sel),
        ColPred::Exists { col, exists } => {
            let c = &cs.cols[*col];
            sel.retain(|i| c.present.get(start + i) == *exists);
        }
        ColPred::And(ps) => {
            for p in ps {
                refine(p, cs, start, sel);
            }
        }
        ColPred::Or(ps) => *sel = any_of(ps, sel),
        ColPred::Nor(ps) => {
            let hit = any_of(ps, sel);
            sel.and_not_assign(&hit);
        }
        ColPred::Not(p) => {
            let mut hit = sel.clone();
            refine(p, cs, start, &mut hit);
            sel.and_not_assign(&hit);
        }
    }
}

/// `$eq`/`$ne`/ordered comparison over one column. An integer column
/// against an integer, and a double column against a non-NaN double,
/// compare the payload slices directly; every other pairing goes cell
/// by cell through [`cell_cmp_matches`].
fn refine_cmp(c: &Column, op: CmpOp, rhs: &Value, start: usize, sel: &mut Mask) {
    // In a chunk without exotic cells an untyped cell is missing or
    // null: against a non-null `rhs` only `$ne` matches it.
    let untyped = op == CmpOp::Ne;
    match (&c.data, rhs) {
        (ColumnData::I64 { vals, .. }, Value::Int32(_) | Value::Int64(_)) => {
            let r = rhs.as_i64().expect("integer rhs");
            sel.retain(|i| {
                let s = start + i;
                if c.typed.get(s) { ord_matches(op, vals[s].cmp(&r)) } else { untyped }
            });
        }
        (ColumnData::F64(vals), Value::Double(r)) if !r.is_nan() => {
            // The canonical order puts NaN below every other double.
            sel.retain(|i| {
                let s = start + i;
                if !c.typed.get(s) {
                    return untyped;
                }
                let ord = vals[s].partial_cmp(r).unwrap_or(Ordering::Less);
                ord_matches(op, ord)
            });
        }
        _ => sel.retain(|i| cell_cmp_matches(c.cell(start + i), op, rhs)),
    }
}

/// `$in` (`want` true) / `$nin` (`want` false) over one column. An
/// integer column probed by an all-integer list binary-searches the
/// pre-extracted `i64` slice after a min/max reject; everything else
/// goes cell by cell through [`cell_in_set`].
fn refine_in(c: &Column, set: &MemberSet, want: bool, start: usize, sel: &mut Mask) {
    match (&c.data, &set.ints) {
        (ColumnData::I64 { vals, .. }, Some(ints)) => {
            // An empty list has lo > hi, which rejects every value.
            let lo = ints.first().copied().unwrap_or(i64::MAX);
            let hi = ints.last().copied().unwrap_or(i64::MIN);
            // An all-integer list holds no null, so untyped (missing
            // or null) cells are never members.
            sel.retain(|i| {
                let s = start + i;
                let member = c.typed.get(s) && {
                    let v = vals[s];
                    lo <= v && v <= hi && ints.binary_search(&v).is_ok()
                };
                member == want
            });
        }
        _ => sel.retain(|i| cell_in_set(c.cell(start + i), &set.set, set.has_null) == want),
    }
}

/// Orders a typed cell against `rhs` under canonical semantics, gated
/// on the matcher's `same_family` rule: `None` for missing/null cells
/// and for cross-family pairs (which never order-match).
fn cell_family_cmp(cell: Cell<'_>, rhs: &Value) -> Option<Ordering> {
    match (cell, rhs) {
        (Cell::Int(v), Value::Int32(_) | Value::Int64(_) | Value::Double(_)) => {
            // Int32 cells widened to i64 compare identically: numeric
            // canonical comparison is value-exact across variants.
            Some(Value::Int64(v).canonical_cmp(rhs))
        }
        (Cell::F64(v), Value::Int32(_) | Value::Int64(_) | Value::Double(_)) => {
            Some(Value::Double(v).canonical_cmp(rhs))
        }
        (Cell::Bool(b), Value::Bool(r)) => Some(b.cmp(r)),
        (Cell::Str(s), Value::String(r)) => Some(s.cmp(r.as_str())),
        _ => None,
    }
}

/// `$eq`/`$ne`/ordered comparison on one cell, mirroring
/// `matches_compiled` on the equivalent document: missing and null
/// cells equality-match only a null rhs and never order-match.
fn cell_cmp_matches(cell: Cell<'_>, op: CmpOp, rhs: &Value) -> bool {
    match cell {
        Cell::Exotic => unreachable!("exotic chunks take the row path"),
        Cell::Missing | Cell::Null => match op {
            CmpOp::Eq => rhs.is_null(),
            CmpOp::Ne => !rhs.is_null(),
            _ => false,
        },
        // A cross-family pair is unequal and never order-matches.
        _ => match cell_family_cmp(cell, rhs) {
            Some(ord) => ord_matches(op, ord),
            None => op == CmpOp::Ne,
        },
    }
}

/// `$in` membership for one cell. Numeric and bool cells probe through
/// a stack temporary; string cells binary-search without allocating —
/// cross-family canonical comparison is rank-only, so a static empty
/// string stands in for "any string" against non-string set members.
fn cell_in_set(cell: Cell<'_>, set: &[OrdValue], has_null: bool) -> bool {
    static STR_PROBE: Value = Value::String(String::new());
    match cell {
        // {$in: [.., null]} matches explicit nulls and missing fields.
        Cell::Missing | Cell::Null => has_null,
        Cell::Exotic => unreachable!("exotic chunks take the row path"),
        Cell::Int(v) => set_contains(set, &Value::Int64(v)),
        Cell::F64(v) => set_contains(set, &Value::Double(v)),
        Cell::Bool(b) => set_contains(set, &Value::Bool(b)),
        Cell::Str(s) => set
            .binary_search_by(|ov| match ov.value() {
                Value::String(m) => m.as_str().cmp(s),
                other => other.canonical_cmp(&STR_PROBE),
            })
            .is_ok(),
    }
}

/// Visits, in slot order, the live slots whose document satisfies
/// `filter` until `visit` returns false — the `ColumnScan` access path.
/// The filter is evaluated over the columns [`SCAN_CHUNK`] rows at a
/// time (`row`, the same filter compiled for documents, serves chunks
/// that hold an exotic cell), so only `visit` ever needs a document.
/// Returns the number of live rows the filter was evaluated on.
pub(crate) fn scan(
    cs: &ColumnSet,
    slab: &Slab,
    filter: &Filter,
    row: &CompiledFilter,
    visit: &mut dyn FnMut(DocId) -> bool,
) -> usize {
    let step = MatchStep::new(filter, cs, row).expect("the planner scans covered filters only");
    let mut examined = 0;
    for (start, end) in chunks(cs.rows) {
        examined += live_mask(cs, start, end).count_ones();
        let sel = step.select(cs, slab, start, end);
        let more = sel.try_for_each_one(|i| if visit((start + i) as DocId) { Ok(()) } else { Err(()) });
        if more.is_err() {
            break;
        }
    }
    examined
}

/// The `[start, end)` slot ranges of the [`SCAN_CHUNK`]-row chunks.
fn chunks(rows: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..rows).step_by(SCAN_CHUNK).map(move |s| (s, (s + SCAN_CHUNK).min(rows)))
}

/// Executes a covered aggregate: chunk by chunk in slot order, the
/// selection, then the terminal over the selected rows' cells. Returns
/// the terminal's output documents.
pub(crate) fn execute(cs: &ColumnSet, slab: &Slab, plan: &ColPlan<'_>) -> Result<Vec<Document>> {
    Ok(match &plan.terminal {
        ColTerminal::Count(name) => {
            let n: usize = chunks(cs.rows)
                .map(|(start, end)| plan.step.select(cs, slab, start, end).count_ones())
                .sum();
            // $count emits its single document even over empty input,
            // exactly like the streaming executor.
            let mut d = Document::new();
            d.set((*name).to_owned(), Value::Int64(n as i64));
            vec![d]
        }
        ColTerminal::Group { id_col, fields, inputs, cols_used, spec } => {
            let mut gk = GroupKernel::new(spec, fields);
            for (start, end) in chunks(cs.rows) {
                let sel = plan.step.select(cs, slab, start, end);
                if cols_used.iter().any(|&c| cs.cols[c].exotic.any_in_range(start, end)) {
                    sel.try_for_each_one(|i| {
                        gk.feed(slab.get((start + i) as DocId).expect("selected slots are live"))
                    })?;
                    continue;
                }
                sel.for_each_one(|i| {
                    let slot = start + i;
                    let bucket = match id_col {
                        Some(c) => gk.bucket_for(cs.cols[*c].value_at(slot).as_value()),
                        None => gk.bucket_for(&Value::Null),
                    };
                    for (input, st) in inputs.iter().zip(gk.bucket_states(bucket)) {
                        match input {
                            GroupInput::Col(c) => st.accumulate_resolved(cs.cols[*c].value_at(slot)),
                            GroupInput::Lit(v) => st.accumulate_resolved(Resolved::Borrowed(v)),
                        }
                    }
                });
            }
            gk.finish()
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::matcher::compile;
    use doclite_bson::doc;

    fn slab_of(docs: Vec<Document>) -> Slab {
        let mut s = Slab::new();
        for d in docs {
            s.insert(d);
        }
        s
    }

    fn cs_over(slab: &Slab, fields: &[&str]) -> ColumnSet {
        let mut cs = ColumnSet::over(slab);
        cs.add_columns(fields, slab, true);
        cs
    }

    /// Runs `$match(filter)` → `terminal` as a covered aggregate,
    /// panicking if it is not one.
    fn run(slab: &Slab, cs: &ColumnSet, filter: &Filter, terminal: &Stage) -> Vec<Document> {
        let row = compile(filter);
        let plan = plan(filter, &row, Some(terminal), cs).expect("covered");
        execute(cs, slab, &plan).expect("covered plans are infallible")
    }

    /// What streaming `$match(filter)` → `terminal` over the slab's
    /// documents returns.
    fn streamed(slab: &Slab, filter: &Filter, terminal: &Stage) -> Vec<Document> {
        let docs = slab.iter().map(|(_, d)| d.clone()).collect();
        let body = [Stage::Match(filter.clone()), terminal.clone()];
        crate::agg::execute_streaming(docs, &body, None).unwrap()
    }

    #[test]
    fn bitmap_any_in_range_hits_word_boundaries() {
        let mut b = Bitmap::default();
        b.set(63);
        b.set(130);
        assert!(b.any_in_range(0, 64));
        assert!(!b.any_in_range(0, 63));
        assert!(b.any_in_range(63, 64));
        assert!(!b.any_in_range(64, 130));
        assert!(b.any_in_range(64, 131));
        assert!(b.any_in_range(0, 1000));
        assert!(!b.any_in_range(131, 1000));
        assert!(!b.any_in_range(10, 10));
    }

    #[test]
    fn cells_classify_and_reconstruct_exact_variants() {
        let mut c = Column::default();
        c.set_cell(0, Some(&Value::Int32(5)));
        c.set_cell(1, Some(&Value::Int64(5)));
        c.set_cell(2, Some(&Value::Null));
        c.set_cell(3, None);
        c.set_cell(4, Some(&Value::Double(1.5))); // wrong type for I64 column
        c.set_cell(5, Some(&Value::Array(vec![Value::Int64(1)])));
        assert_eq!(c.value_at(0).as_value(), &Value::Int32(5));
        assert_eq!(c.value_at(1).as_value(), &Value::Int64(5));
        assert_eq!(c.value_at(2).as_value(), &Value::Null);
        assert_eq!(c.value_at(3).as_value(), &Value::Null);
        assert!(matches!(c.cell(4), Cell::Exotic));
        assert!(matches!(c.cell(5), Cell::Exotic));
        // Overwriting an exotic cell with a typed scalar re-types it.
        c.set_cell(4, Some(&Value::Int64(9)));
        assert_eq!(c.value_at(4).as_value(), &Value::Int64(9));
    }

    #[test]
    fn exotic_first_column_types_on_later_scalar() {
        let mut c = Column::default();
        c.set_cell(0, Some(&Value::DateTime(5)));
        assert!(matches!(c.cell(0), Cell::Exotic));
        c.set_cell(1, Some(&Value::from("x")));
        assert!(matches!(c.cell(1), Cell::Str("x")));
        assert!(matches!(c.cell(0), Cell::Exotic));
    }

    #[test]
    fn string_dictionary_interns() {
        let mut c = Column::default();
        for (i, s) in ["a", "b", "a", "a", "b"].iter().enumerate() {
            c.set_cell(i, Some(&Value::from(*s)));
        }
        match &c.data {
            ColumnData::Str { dict, .. } => assert_eq!(dict.len(), 2),
            other => panic!("expected Str column, got {other:?}"),
        }
        assert!(matches!(c.cell(3), Cell::Str("a")));
        assert!(matches!(c.cell(4), Cell::Str("b")));
    }

    #[test]
    fn incremental_maintenance_matches_rebuild() {
        let mut slab = Slab::new();
        let mut cs = cs_over(&slab, &["a", "b"]);
        let id0 = slab.insert(doc! {"a" => 1i64, "b" => "x"});
        cs.set_row(id0, slab.get(id0).unwrap());
        let id1 = slab.insert(doc! {"a" => 2i64});
        cs.set_row(id1, slab.get(id1).unwrap());
        // Update: replace slot 0's document wholesale.
        slab.replace(id0, doc! {"a" => 7i64, "b" => "y"});
        cs.set_row(id0, slab.get(id0).unwrap());
        // Delete slot 1, then insert a new doc (free-list reuses it).
        slab.remove(id1);
        cs.clear_row(id1);
        let id2 = slab.insert(doc! {"b" => Value::Null});
        assert_eq!(id2, id1, "free list reuses the slot");
        cs.set_row(id2, slab.get(id2).unwrap());

        let rebuilt = cs_over(&slab, &["a", "b"]);
        for slot in 0..cs.rows() {
            assert_eq!(cs.live.get(slot), rebuilt.live.get(slot), "live bit, slot {slot}");
            for col in 0..2 {
                assert_eq!(
                    format!("{:?}", cs.cols[col].cell(slot)),
                    format!("{:?}", rebuilt.cols[col].cell(slot)),
                    "col {col} slot {slot}"
                );
            }
        }
    }

    #[test]
    fn dead_slots_never_match() {
        let mut slab = Slab::new();
        let a = slab.insert(doc! {"k" => 1i64});
        slab.insert(doc! {"k" => 2i64});
        let mut cs = cs_over(&slab, &["k"]);
        slab.remove(a);
        cs.clear_row(a);
        // $ne matches missing fields — but not dead slots.
        let f = Filter::ne("k", 99i64);
        assert_eq!(scan_slots(&cs, &slab, &f).0, vec![1]);
        assert_eq!(run(&slab, &cs, &f, &Stage::Count("n".into())), vec![doc! {"n" => 1i64}]);
    }

    #[test]
    fn masks_agree_with_matcher_on_mixed_cells() {
        let docs = vec![
            doc! {"k" => 1i64, "s" => "a"},
            doc! {"k" => Value::Null},
            doc! {"s" => "b"},
            doc! {"k" => 2.5f64, "s" => "a"},
            doc! {"k" => i64::MAX, "s" => "c"},
            doc! {"k" => i64::MAX - 1},
            doc! {"k" => true},
            doc! {"k" => Value::Int32(1)},
        ];
        let slab = slab_of(docs.clone());
        let cs = cs_over(&slab, &["k", "s"]);
        let filters = [
            Filter::eq("k", 1i64),
            Filter::eq("k", Value::Null),
            Filter::ne("k", 1.0f64),
            Filter::gt("k", 1i64),
            Filter::lte("k", i64::MAX - 1),
            Filter::gte("k", "a"),
            Filter::eq("s", "a"),
            Filter::lt("s", "b"),
            Filter::is_in("k", [Value::Null, Value::Int64(2)]),
            Filter::is_in("s", ["a", "c"]),
            Filter::not_in("k", [1i64, i64::MAX]),
            Filter::exists("s"),
            Filter::not_exists("k"),
            Filter::or([Filter::eq("k", 1i64), Filter::eq("s", "b")]),
            Filter::Nor(vec![Filter::eq("k", 1i64), Filter::exists("s")]),
            Filter::not(Filter::gt("k", 0i64)),
        ];
        for f in &filters {
            // refine's precondition is "no exotic cell in range for any
            // used column" (MatchStep::refine row-falls-back
            // otherwise), so probe one-row ranges and skip the exotic
            // ones — exactly the gate applied per chunk.
            let pred = compile_pred(f, &cs).expect("declared paths only");
            let mut used = Vec::new();
            pred_cols(&pred, &mut used);
            let compiled = compile(f);
            for (i, d) in docs.iter().enumerate() {
                if used.iter().any(|&c| cs.cols[c].exotic.get(i)) {
                    continue; // this chunk would take the row path
                }
                let mut mask = live_mask(&cs, i, i + 1);
                refine(&pred, &cs, i, &mut mask);
                assert_eq!(
                    mask.get(0),
                    matches_compiled(&compiled, d),
                    "filter {f:?} doc {i}: {d:?}"
                );
            }
        }
    }

    #[test]
    fn group_terminal_matches_row_kernel() {
        let slab = slab_of((0..100).map(|i| doc! {"g" => i % 3, "v" => f64::from(i) * 0.5}).collect());
        let cs = cs_over(&slab, &["g", "v"]);
        let f = Filter::gte("v", 10.0f64);
        let group = Stage::Group {
            id: GroupId::Expr(Expr::field("g")),
            fields: vec![
                ("n".into(), Accumulator::count()),
                ("avg".into(), Accumulator::avg_field("v")),
                ("lo".into(), Accumulator::Min(Expr::field("v"))),
                ("hi".into(), Accumulator::Max(Expr::field("v"))),
            ],
        };
        assert_eq!(run(&slab, &cs, &f, &group), streamed(&slab, &f, &group));
    }

    #[test]
    fn exotic_chunks_keep_the_filter_and_feed_documents() {
        // Two chunks: the first all typed cells, the second with array
        // and mixed-type cells in the filtered and the grouped columns.
        let mut docs: Vec<Document> =
            (0..SCAN_CHUNK as i64).map(|i| doc! {"g" => i % 4, "v" => i % 10}).collect();
        docs.extend([
            doc! {"g" => 1i64, "v" => Value::Array(vec![Value::Int64(5), Value::Int64(1)])},
            doc! {"g" => Value::Array(vec![Value::Int64(2)]), "v" => 3i64},
            doc! {"g" => 2i64, "v" => 4.5f64},
            doc! {"g" => 2i64},
            doc! {"g" => 3i64, "v" => 9i64},
        ]);
        let slab = slab_of(docs);
        let cs = cs_over(&slab, &["g", "v"]);
        let f = Filter::lt("v", 5i64);
        let group = Stage::Group {
            id: GroupId::Expr(Expr::field("g")),
            fields: vec![
                ("s".into(), Accumulator::sum_field("v")),
                ("last".into(), Accumulator::Last(Expr::field("v"))),
            ],
        };
        assert_eq!(run(&slab, &cs, &f, &group), streamed(&slab, &f, &group));
        let count = Stage::Count("n".into());
        assert_eq!(run(&slab, &cs, &f, &count), streamed(&slab, &f, &count));
    }

    #[test]
    fn count_terminal_counts_and_emits_on_empty() {
        let slab = slab_of(vec![doc! {"k" => 1i64}, doc! {"k" => 2i64}, doc! {"k" => 3i64}]);
        let cs = cs_over(&slab, &["k"]);
        let count = Stage::Count("n".into());
        assert_eq!(run(&slab, &cs, &Filter::gt("k", 1i64), &count), vec![doc! {"n" => 2i64}]);
        // Zero matches still emit the count document.
        assert_eq!(run(&slab, &cs, &Filter::gt("k", 99i64), &count), vec![doc! {"n" => 0i64}]);
    }

    /// All slots `scan` selects for `f`, with the rows it examined.
    fn scan_slots(cs: &ColumnSet, slab: &Slab, f: &Filter) -> (Vec<DocId>, usize) {
        let mut slots = Vec::new();
        let examined = scan(cs, slab, f, &compile(f), &mut |id| {
            slots.push(id);
            true
        });
        (slots, examined)
    }

    #[test]
    fn live_mask_copies_words_at_any_offset() {
        let mut slab = Slab::new();
        for i in 0..300i64 {
            slab.insert(doc! {"k" => i});
        }
        let mut cs = cs_over(&slab, &["k"]);
        for dead in [0u64, 63, 64, 65, 127, 200, 299] {
            slab.remove(dead);
            cs.clear_row(dead);
        }
        for (start, end) in [(0, 300), (0, 64), (1, 66), (63, 129), (64, 128), (100, 300), (299, 300)] {
            let m = live_mask(&cs, start, end);
            assert_eq!(m.len, end - start);
            for i in 0..end - start {
                assert_eq!(m.get(i), cs.live.get(start + i), "range {start}..{end} bit {i}");
            }
            // Bits past `len` stay clear: and_not_assign relies on it.
            assert_eq!(m.count_ones(), (start..end).filter(|&s| cs.live.get(s)).count());
        }
    }

    #[test]
    fn integer_in_fast_path_keeps_cross_type_members() {
        let docs = vec![
            doc! {"k" => Value::Int32(1)},
            doc! {"k" => 2i64},
            doc! {"k" => Value::Null},
            doc! {"other" => 1i64},
            doc! {"k" => i64::MAX},
            doc! {"k" => 7i64},
        ];
        let slab = slab_of(docs.clone());
        let cs = cs_over(&slab, &["k"]);
        let filters = [
            // All-integer lists take the i64 slice (min/max reject
            // included: 7 and i64::MAX lie outside [1, 2]).
            Filter::is_in("k", [Value::Int32(2), Value::Int64(1)]),
            Filter::not_in("k", [1i64, 2i64]),
            Filter::is_in("k", Vec::<Value>::new()),
            Filter::not_in("k", Vec::<Value>::new()),
            Filter::is_in("k", [i64::MAX, i64::MIN]),
            // A double or null member keeps the canonical comparison, so
            // 1.0 still finds Int32(1) and null finds missing and null.
            Filter::is_in("k", [Value::Double(1.0), Value::Int64(7)]),
            Filter::is_in("k", [Value::Null, Value::Int64(2)]),
            Filter::not_in("k", [Value::Double(2.0), Value::Null]),
        ];
        for f in &filters {
            let expected: Vec<DocId> = docs
                .iter()
                .enumerate()
                .filter(|(_, d)| crate::query::matcher::matches(f, d))
                .map(|(i, _)| i as DocId)
                .collect();
            assert_eq!(scan_slots(&cs, &slab, f).0, expected, "{f:?}");
        }
        let all_ints = MemberSet::new(&[Value::Int32(2), Value::Int64(1), Value::Int64(2)]);
        assert_eq!(all_ints.ints.as_deref(), Some(&[1i64, 2][..]));
        assert!(MemberSet::new(&[Value::Int64(1), Value::Double(1.0)]).ints.is_none());
        assert!(MemberSet::new(&[Value::Int64(1), Value::Null]).ints.is_none());
    }

    #[test]
    fn typed_comparisons_agree_with_the_matcher() {
        let docs = vec![
            doc! {"i" => 5i64, "f" => 0.5f64},
            doc! {"i" => Value::Int32(-3), "f" => f64::NAN},
            doc! {"i" => Value::Null, "f" => -0.0f64},
            doc! {"f" => 0.0f64},
            doc! {"i" => i64::MIN, "f" => f64::INFINITY},
        ];
        let slab = slab_of(docs.clone());
        let cs = cs_over(&slab, &["i", "f"]);
        let ops = [CmpOp::Eq, CmpOp::Ne, CmpOp::Gt, CmpOp::Gte, CmpOp::Lt, CmpOp::Lte];
        let rhs = [
            ("i", Value::Int64(5)),
            ("i", Value::Int32(-3)),
            ("i", Value::Double(5.0)),
            ("f", Value::Double(0.0)),
            ("f", Value::Double(f64::NAN)),
            ("f", Value::Int64(0)),
        ];
        for (path, value) in &rhs {
            for op in ops {
                let f = Filter::Cmp { path: (*path).into(), op, value: value.clone() };
                let expected: Vec<DocId> = docs
                    .iter()
                    .enumerate()
                    .filter(|(_, d)| crate::query::matcher::matches(&f, d))
                    .map(|(i, _)| i as DocId)
                    .collect();
                assert_eq!(scan_slots(&cs, &slab, &f).0, expected, "{f:?}");
            }
        }
    }

    #[test]
    fn scan_yields_live_matches_in_slot_order_and_stops_on_request() {
        let n = SCAN_CHUNK as i64 * 2 + 100;
        let mut slab = Slab::new();
        for i in 0..n {
            slab.insert(doc! {"k" => i % 10});
        }
        let mut cs = cs_over(&slab, &["k"]);
        for dead in [3u64, 13, SCAN_CHUNK as u64 + 3] {
            slab.remove(dead);
            cs.clear_row(dead);
        }
        let f = Filter::eq("k", 3i64);
        let (slots, examined) = scan_slots(&cs, &slab, &f);
        let expected: Vec<DocId> =
            slab.iter().filter(|(_, d)| d.get("k") == Some(&Value::Int64(3))).map(|(id, _)| id).collect();
        assert_eq!(slots, expected);
        assert_eq!(examined, slab.len(), "every live row is evaluated, no dead one");
        // Stopping after the first match evaluates one chunk only.
        let mut first = None;
        let examined = scan(&cs, &slab, &f, &compile(&f), &mut |id| {
            first = Some(id);
            false
        });
        assert_eq!(first, Some(23));
        assert_eq!(examined, SCAN_CHUNK - 2);
        // A chunk with an exotic cell takes the row path, same answer.
        slab.replace(40, doc! {"k" => Value::Array(vec![Value::Int64(3)])});
        cs.set_row(40, slab.get(40).unwrap());
        let (slots, _) = scan_slots(&cs, &slab, &f);
        assert!(slots.contains(&40), "array-any match found through the row fallback");
        assert_eq!(slots.len(), expected.len() + 1);
    }

    #[test]
    fn dictionary_stops_growing_at_its_cap() {
        let mut slab = Slab::new();
        for i in 0..DICT_CAP + 50 {
            slab.insert(doc! {"s" => format!("v{i}")});
        }
        let cs = cs_over(&slab, &["s"]);
        match &cs.cols[0].data {
            ColumnData::Str { dict, map, .. } => {
                assert_eq!(dict.len(), DICT_CAP);
                assert_eq!(map.len(), DICT_CAP);
            }
            other => panic!("expected Str column, got {other:?}"),
        }
        assert!(matches!(cs.cols[0].cell(DICT_CAP - 1), Cell::Str(_)));
        assert!(matches!(cs.cols[0].cell(DICT_CAP), Cell::Exotic));
        // Cells past the cap are still found, through the row fallback.
        let f = Filter::eq("s", format!("v{}", DICT_CAP + 7));
        assert_eq!(scan_slots(&cs, &slab, &f).0, vec![(DICT_CAP + 7) as DocId]);
    }

    #[test]
    fn undeclared_columns_that_are_mostly_exotic_are_discarded() {
        let mut slab = Slab::new();
        for i in 0..(SCAN_CHUNK as i64 * 3) {
            // `arr` is exotic everywhere; `mixed` in one chunk of three.
            let mixed = if i == 5 { Value::from("x") } else { Value::Int64(i) };
            slab.insert(doc! {"arr" => Value::Array(vec![Value::Int64(i)]), "mixed" => mixed, "k" => i});
        }
        let mut cs = ColumnSet::over(&slab);
        cs.add_columns(&["arr", "mixed", "k"], &slab, false);
        assert!(!cs.has_column("arr") && cs.is_rejected("arr"));
        assert!(cs.has_column("mixed") && cs.has_column("k"));
        assert!(!cs.is_rejected("mixed"));
        // The survivors still line up with their paths.
        let f = Filter::and([Filter::eq("k", 9i64), Filter::eq("mixed", 9i64)]);
        assert_eq!(scan_slots(&cs, &slab, &f).0, vec![9]);
        // A declared column is kept whatever it holds.
        cs.add_columns(&["arr"], &slab, true);
        assert!(cs.has_column("arr"));
        // Memory bound: 8 B + 4 bits per slot and column, 1 bit per slot.
        let slots = slab.len();
        assert!(cs.bytes() <= 3 * (slots * 8 + slots / 2 + 32) + slots / 8 + 8, "{}", cs.bytes());
    }

    #[test]
    fn only_a_covered_filter_feeding_a_covered_terminal_is_planned() {
        let slab = slab_of(vec![doc! {"k" => 1i64}]);
        let cs = cs_over(&slab, &["k"]);
        let covered = |f: &Filter, t: Option<&Stage>| plan(f, &compile(f), t, &cs).is_some();
        let on_k = Filter::gt("k", 0i64);
        let count = Stage::Count("n".into());
        let group = |id: Expr, input: Expr| Stage::Group {
            id: GroupId::Expr(id),
            fields: vec![("n".into(), Accumulator::count()), ("s".into(), Accumulator::Sum(input))],
        };
        assert!(covered(&on_k, Some(&count)));
        assert!(covered(&Filter::True, Some(&count)), "no path to cover");
        assert!(covered(&on_k, Some(&group(Expr::field("k"), Expr::field("k")))));
        // A filter path, a group key or an accumulator input without a
        // column, a computed key, or any other next stage: row path.
        assert!(!covered(&Filter::eq("other", 1i64), Some(&count)));
        assert!(!covered(&on_k, Some(&group(Expr::field("other"), Expr::field("k")))));
        assert!(!covered(&on_k, Some(&group(Expr::field("k"), Expr::field("other")))));
        let computed = Expr::Add(vec![Expr::field("k"), Expr::lit(1i64)]);
        assert!(!covered(&on_k, Some(&group(computed.clone(), Expr::field("k")))));
        assert!(!covered(&on_k, Some(&group(Expr::field("k"), computed))));
        assert!(!covered(&on_k, Some(&Stage::Sort(vec![("k".into(), 1)]))));
        assert!(!covered(&on_k, None));
    }
}
