//! Model-based property test: a [`Collection`] with secondary indexes
//! must behave observationally like a naive `Vec<Document>` model under
//! arbitrary interleavings of inserts, updates, deletes, and finds —
//! regardless of which indexes exist (indexes may change plans, never
//! results).

use doclite_bson::{Document, Value};
use doclite_docstore::query::matcher::matches;
use doclite_docstore::update::apply_update;
use doclite_docstore::{Collection, Filter, IndexDef, UpdateSpec};
use proptest::prelude::*;

/// One step of the random workload.
#[derive(Clone, Debug)]
enum Op {
    /// `t` is an array whose elements often repeat (`[2, 2]`) or span
    /// several keys of one probe (`[1, 2]`): under a multikey index one
    /// document then sits in several posting-list entries.
    Insert { id: i64, a: i64, b: String, t: Vec<i64> },
    UpdateSetA { filter_b: String, new_a: i64, multi: bool },
    SetT { filter_b: String, t: Vec<i64> },
    IncA { filter_a: i64 },
    Delete { filter_a: i64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..200i64, 0..10i64, "[xyz]", arb_tags())
            .prop_map(|(id, a, b, t)| Op::Insert { id, a, b, t }),
        ("[xyz]", 0..10i64, any::<bool>())
            .prop_map(|(filter_b, new_a, multi)| Op::UpdateSetA { filter_b, new_a, multi }),
        ("[xyz]", arb_tags()).prop_map(|(filter_b, t)| Op::SetT { filter_b, t }),
        (0..10i64).prop_map(|filter_a| Op::IncA { filter_a }),
        (0..10i64).prop_map(|filter_a| Op::Delete { filter_a }),
    ]
}

fn arb_tags() -> impl Strategy<Value = Vec<i64>> {
    prop::collection::vec(0..3i64, 0..4)
}

fn tags(t: &[i64]) -> Value {
    Value::Array(t.iter().copied().map(Value::Int64).collect())
}

/// The naive model: a vector of documents, every operation a full scan.
#[derive(Default)]
struct Model {
    docs: Vec<Document>,
}

impl Model {
    fn insert(&mut self, doc: Document) -> bool {
        let id = doc.get("_id").expect("id set");
        if self.docs.iter().any(|d| d.get("_id") == Some(id)) {
            return false; // duplicate
        }
        self.docs.push(doc);
        true
    }

    fn update(&mut self, filter: &Filter, spec: &UpdateSpec, multi: bool) -> usize {
        let mut modified = 0;
        for d in self.docs.iter_mut() {
            if matches(filter, d) {
                if apply_update(d, spec).expect("model update") {
                    modified += 1;
                }
                if !multi {
                    break;
                }
            }
        }
        modified
    }

    fn delete(&mut self, filter: &Filter) -> usize {
        let before = self.docs.len();
        self.docs.retain(|d| !matches(filter, d));
        before - self.docs.len()
    }

    fn find(&self, filter: &Filter) -> Vec<Document> {
        self.docs.iter().filter(|d| matches(filter, d)).cloned().collect()
    }
}

fn doc_for(id: i64, a: i64, b: &str, t: &[i64]) -> Document {
    let mut d = Document::new();
    d.set("_id", Value::Int64(id));
    d.set("a", Value::Int64(a));
    d.set("b", Value::from(b));
    d.set("t", tags(t));
    d
}

fn sorted_by_id(mut docs: Vec<Document>) -> Vec<Document> {
    docs.sort_by(|x, y| {
        x.get("_id")
            .expect("_id")
            .canonical_cmp(y.get("_id").expect("_id"))
    });
    docs
}

fn run_workload(ops: &[Op], index_a: bool, index_b: bool, index_t: bool) {
    let coll = Collection::new("sut");
    if index_t {
        coll.create_index(IndexDef::single("t")).expect("index t");
    }
    if index_a {
        coll.create_index(IndexDef::single("a")).expect("index a");
    }
    if index_b {
        coll.create_index(IndexDef::compound(["b", "a"])).expect("index b,a");
    }
    let mut model = Model::default();

    for op in ops {
        match op {
            Op::Insert { id, a, b, t } => {
                let doc = doc_for(*id, *a, b, t);
                let sut = coll.insert_one(doc.clone()).is_ok();
                let expected = model.insert(doc);
                assert_eq!(sut, expected, "insert divergence at {op:?}");
            }
            Op::UpdateSetA { filter_b, new_a, multi } => {
                let filter = Filter::eq("b", filter_b.as_str());
                let spec = UpdateSpec::set("a", *new_a);
                let sut = coll.update(&filter, &spec, false, *multi).expect("update");
                if *multi {
                    let expected = model.update(&filter, &spec, *multi);
                    assert_eq!(sut.modified, expected, "update divergence at {op:?}");
                } else {
                    // A single-document update's victim is unspecified
                    // (the engine picks in index-key order, the model in
                    // insertion order — MongoDB likewise leaves it open).
                    // Check only that *some* match was found iff the
                    // model finds one, then adopt the engine's state.
                    let model_would_match = !model.find(&filter).is_empty();
                    assert_eq!(sut.matched > 0, model_would_match, "match divergence at {op:?}");
                    model.docs = coll.all_docs();
                }
            }
            Op::SetT { filter_b, t } => {
                let filter = Filter::eq("b", filter_b.as_str());
                let spec = UpdateSpec::set("t", tags(t));
                let sut = coll.update(&filter, &spec, false, true).expect("update");
                assert_eq!(sut.modified, model.update(&filter, &spec, true), "at {op:?}");
            }
            Op::IncA { filter_a } => {
                let filter = Filter::eq("a", *filter_a);
                let spec = UpdateSpec::Ops(vec![doclite_docstore::UpdateOp::Inc(
                    "a".into(),
                    1.0,
                )]);
                let sut = coll.update(&filter, &spec, false, true).expect("inc");
                let expected = model.update(&filter, &spec, true);
                assert_eq!(sut.modified, expected, "inc divergence at {op:?}");
            }
            Op::Delete { filter_a } => {
                let filter = Filter::eq("a", *filter_a);
                let sut = coll.delete_many(&filter);
                let expected = model.delete(&filter);
                assert_eq!(sut, expected, "delete divergence at {op:?}");
            }
        }
        // After every op, the observable state matches on several probes.
        for probe in [
            Filter::True,
            Filter::eq("a", 3i64),
            Filter::gt("a", 5i64),
            Filter::eq("b", "y"),
            Filter::and([Filter::eq("b", "x"), Filter::lte("a", 7i64)]),
            // Point, several-point and range lookups over the array
            // field: each matching document comes back once, however
            // many of its elements the lookup hits.
            Filter::eq("t", 2i64),
            Filter::is_in("t", [1i64, 2]),
            Filter::gte("t", 1i64),
            // An `$in` that repeats a value, exactly or across numeric
            // types: still one point lookup per distinct value.
            Filter::is_in("a", [Value::Int64(2), Value::Int64(2), Value::Double(2.0)]),
        ] {
            let sut = sorted_by_id(coll.find(&probe));
            let expected = sorted_by_id(model.find(&probe));
            assert_eq!(sut, expected, "find divergence on {probe:?} after {op:?}");
            assert_eq!(coll.count(&probe), expected.len(), "count {probe:?} after {op:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn collection_matches_naive_model(ops in prop::collection::vec(arb_op(), 1..40)) {
        // Same workload under three index configurations: results must be
        // identical (plans differ, answers don't).
        run_workload(&ops, false, false, false);
        run_workload(&ops, true, false, false);
        run_workload(&ops, true, true, true);
    }
}

/// An index-served `find` / `count` returns a document once, not once
/// per element of a multikey array the lookup reaches.
#[test]
fn a_multikey_index_returns_each_document_once() {
    let ops = [
        Op::Insert { id: 1, a: 0, b: "x".into(), t: vec![2, 2] },
        Op::Insert { id: 2, a: 0, b: "y".into(), t: vec![1, 2] },
        Op::Insert { id: 3, a: 0, b: "z".into(), t: vec![0] },
        // An update moves a document onto repeated keys too.
        Op::SetT { filter_b: "z".into(), t: vec![1, 1, 2] },
    ];
    run_workload(&ops, false, false, true);
    run_workload(&ops, true, true, true);
}

/// `{a: {$in: [2, 2]}}` over an index of scalars plans one lookup per
/// distinct value, so a matching document comes back once.
#[test]
fn an_in_list_that_repeats_a_value_returns_each_document_once() {
    let ops = [
        Op::Insert { id: 1, a: 2, b: "x".into(), t: vec![] },
        Op::Insert { id: 2, a: 3, b: "y".into(), t: vec![] },
    ];
    run_workload(&ops, true, false, false);
    run_workload(&ops, true, true, true);
}

/// A unique index may be multikey: `{u: [1, 2]}` matches both `{u: 1}`
/// and `{u: 2}`, so a conjunction pinning `u` to no common value still
/// finds it, counts it, updates it and deletes it.
#[test]
fn a_unique_multikey_index_pinned_to_no_common_value_still_matches() {
    let coll = Collection::new("sut");
    coll.create_index(IndexDef::single("u").unique()).expect("index u");
    let mut model = Model::default();
    for (id, u) in [(1, tags(&[1, 2])), (2, Value::Int64(5)), (3, tags(&[3, 4]))] {
        let mut d = Document::new();
        d.set("_id", Value::Int64(id));
        d.set("u", u);
        coll.insert_one(d.clone()).expect("distinct keys");
        assert!(model.insert(d));
    }
    for probe in [
        Filter::and([Filter::eq("u", 1i64), Filter::eq("u", 2i64)]),
        Filter::and([Filter::is_in("u", [1i64]), Filter::is_in("u", [2i64])]),
    ] {
        let expected = sorted_by_id(model.find(&probe));
        assert_eq!(expected.len(), 1, "the model matches {{u: [1, 2]}} on {probe:?}");
        assert_eq!(sorted_by_id(coll.find(&probe)), expected, "find {probe:?}");
        assert_eq!(coll.count(&probe), 1, "count {probe:?}");
    }
    let probe = Filter::and([Filter::eq("u", 1i64), Filter::eq("u", 2i64)]);
    let spec = UpdateSpec::set("seen", true);
    let sut = coll.update(&probe, &spec, false, true).expect("update");
    assert_eq!(sut.modified, model.update(&probe, &spec, true));
    assert_eq!(coll.delete_many(&probe), model.delete(&probe));
    assert_eq!(sorted_by_id(coll.all_docs()), sorted_by_id(model.docs));
}

// ----- column scans against a slot-ordered model -----------------------
//
// The same idea on a collection big enough to earn columns. No index
// serves a path the operations filter on: every read and write is a
// collection scan until a path has been scanned twice, a column scan
// afterwards — or, for the statements of an `update_batch` that pin `k`,
// the batch's join — and all three visit documents in slot order. So
// unlike the workload above, *order* is checked too: `find` order, the
// page an unsorted `limit` returns, and which document a `multi: false`
// update picks. The model therefore mirrors the slab's slot reuse (last
// freed, first reused) instead of appending. The one secondary index is
// unique, on `u` (the `_id` again): an update that would duplicate a `u`
// is refused, in the model as in the engine, with everything before it
// kept.

/// Documents loaded before the random operations start, a handful short
/// of the size at which the collection starts building columns, so the
/// columns appear partway through a sequence.
const FILLERS: usize = 4096;

#[derive(Default)]
struct SlotModel {
    slots: Vec<Option<Document>>,
    free: Vec<usize>,
}

impl SlotModel {
    fn insert(&mut self, doc: Document) {
        match self.free.pop() {
            Some(slot) => self.slots[slot] = Some(doc),
            None => self.slots.push(Some(doc)),
        }
    }

    fn live(&self) -> impl Iterator<Item = &Document> {
        self.slots.iter().flatten()
    }

    fn find(&self, filter: &Filter) -> Vec<Document> {
        self.live().filter(|d| matches(filter, d)).cloned().collect()
    }

    /// `(matched, modified)`, or the first error — which, as in the
    /// engine, leaves the documents before it modified and the one it
    /// arose on untouched.
    fn update(
        &mut self,
        filter: &Filter,
        spec: &UpdateSpec,
        multi: bool,
    ) -> Result<(usize, usize), String> {
        let (mut matched, mut modified) = (0, 0);
        for slot in 0..self.slots.len() {
            let Some(d) = self.slots[slot].as_ref().filter(|d| matches(filter, d)) else { continue };
            matched += 1;
            let mut updated = d.clone();
            if apply_update(&mut updated, spec).map_err(|e| e.to_string())? {
                let u = updated.get("u").expect("every document has u");
                let taken = |(other, d): (usize, &Option<Document>)| {
                    other != slot && d.as_ref().is_some_and(|d| d.get("u") == Some(u))
                };
                if self.slots.iter().enumerate().any(taken) {
                    return Err(format!("duplicate _id: {}", Document::new().with("u", u.clone())));
                }
                self.slots[slot] = Some(updated);
                modified += 1;
            }
            if !multi {
                break;
            }
        }
        Ok((matched, modified))
    }

    fn delete(&mut self, filter: &Filter) -> usize {
        let mut removed = 0;
        for (slot, cell) in self.slots.iter_mut().enumerate() {
            if cell.as_ref().is_some_and(|d| matches(filter, d)) {
                *cell = None;
                self.free.push(slot);
                removed += 1;
            }
        }
        removed
    }
}

/// Values an operation writes into `a` / `b`. `clean` keeps `a` integral
/// and `b` a string (so their columns stay typed and the kernel, not the
/// row fallback, evaluates the chunk the operations land in); otherwise
/// every family shows up, exotic ones included.
fn arb_value(clean: bool, strings: bool) -> BoxedStrategy<Value> {
    let typed = if strings {
        "[xyz]".prop_map(Value::String).boxed()
    } else {
        prop_oneof![(0..10i32).prop_map(Value::Int32), (0..10i64).prop_map(Value::Int64)].boxed()
    };
    if clean {
        return prop_oneof![6 => typed, 1 => Just(Value::Null)].boxed();
    }
    prop_oneof![
        4 => typed,
        1 => Just(Value::Null),
        1 => (0..20i64).prop_map(|n| Value::Double(n as f64 * 0.5)),
        1 => "[xyz]".prop_map(Value::String),
        1 => prop::collection::vec((0..10i64).prop_map(Value::Int64), 0..3).prop_map(Value::Array),
        1 => (0..10i64).prop_map(|n| {
            let mut d = Document::new();
            d.set("n", Value::Int64(n));
            Value::Document(d)
        }),
    ]
    .boxed()
}

#[derive(Clone, Debug)]
enum ColOp {
    /// `a` / `b` absent when `None`.
    Insert { k: i64, a: Option<Value>, b: Option<Value> },
    SetA { k: i64, value: Value, multi: bool },
    IncA { k: i64, multi: bool },
    Delete { k: i64 },
    /// One ordered `update_batch`: `(k, change, multi)` per statement,
    /// each selecting `{k: k}`.
    UpdateBatch { statements: Vec<(i64, Change, bool)> },
}

/// What one statement of a batch writes.
#[derive(Clone, Debug)]
enum Change {
    SetA(Value),
    /// Rewrites the path the batch is joined on: later statements must
    /// find the document under its new `k` only.
    MoveK(i64),
    /// Collides with a filler's `u`, or (10 000 and up) with nothing
    /// until another document took the same value.
    SetU(i64),
}

fn arb_change(clean: bool) -> BoxedStrategy<Change> {
    prop_oneof![
        3 => arb_value(clean, false).prop_map(Change::SetA),
        3 => (0..6i64).prop_map(Change::MoveK),
        1 => prop_oneof![0..4000i64, 10_000..10_003i64].prop_map(Change::SetU),
    ]
    .boxed()
}

fn arb_col_op(clean: bool) -> BoxedStrategy<ColOp> {
    let opt = |s: BoxedStrategy<Value>| prop_oneof![1 => Just(None), 5 => s.prop_map(Some)];
    prop_oneof![
        2 => prop::collection::vec((0..6i64, arb_change(clean), any::<bool>()), 1..6)
            .prop_map(|statements| ColOp::UpdateBatch { statements }),
        5 => (0..6i64, opt(arb_value(clean, false)), opt(arb_value(clean, true)))
            .prop_map(|(k, a, b)| ColOp::Insert { k, a, b }),
        2 => (0..6i64, arb_value(clean, false), any::<bool>())
            .prop_map(|(k, value, multi)| ColOp::SetA { k, value, multi }),
        2 => (0..6i64, any::<bool>()).prop_map(|(k, multi)| ColOp::IncA { k, multi }),
        1 => (0..6i64).prop_map(|k| ColOp::Delete { k }),
    ]
    .boxed()
}

fn by_id_desc(mut docs: Vec<Document>) -> Vec<Document> {
    docs.sort_by(|x, y| y.get("_id").expect("_id").canonical_cmp(x.get("_id").expect("_id")));
    docs
}

fn run_column_workload(ops: &[ColOp], short_by: usize) {
    use doclite_docstore::{project_paths, BulkUpdate, FindOptions, UpdateOp};

    let coll = Collection::new("sut");
    coll.create_index(IndexDef::single("u").unique()).expect("index u");
    let mut model = SlotModel::default();
    let mut next_id = 0i64;
    let mut insert = |coll: &Collection, model: &mut SlotModel, mut doc: Document| {
        doc.set("_id", Value::Int64(next_id));
        doc.set("u", Value::Int64(next_id));
        next_id += 1;
        coll.insert_one(doc.clone()).expect("fresh _id");
        model.insert(doc);
    };
    // Fillers no operation targets (k ≥ 100) but every probe scans.
    for i in 0..(FILLERS - short_by) as i64 {
        let mut d = Document::new();
        d.set("k", Value::Int64(100 + i % 7));
        d.set("a", Value::Int64(i % 10));
        d.set("b", Value::from(["x", "y", "z"][(i % 3) as usize]));
        insert(&coll, &mut model, d);
    }

    let probes = [
        Filter::eq("a", 3i64),
        Filter::is_in("a", [Value::Int32(1), Value::Double(2.0), Value::Null]),
        Filter::and([Filter::eq("b", "x"), Filter::lte("a", 7i64), Filter::lt("k", 100i64)]),
        Filter::Nor(vec![Filter::gt("a", 1i64), Filter::exists("b")]),
        Filter::not_in("k", (100..107i64).collect::<Vec<_>>()),
    ];
    let window = FindOptions::new().with_skip(1).with_limit(3);
    let sorted = FindOptions::new().sort_by("_id", -1).with_skip(2).with_limit(4).include("a");
    let mut full_size = false;

    for op in ops {
        match op {
            ColOp::Insert { k, a, b } => {
                let mut d = Document::new();
                d.set("k", Value::Int64(*k));
                if let Some(a) = a {
                    d.set("a", a.clone());
                }
                if let Some(b) = b {
                    d.set("b", b.clone());
                }
                insert(&coll, &mut model, d);
            }
            ColOp::SetA { k, value, multi } => {
                let (filter, spec) = (Filter::eq("k", *k), UpdateSpec::set("a", value.clone()));
                let sut = coll.update(&filter, &spec, false, *multi).expect("$set cannot fail");
                let expected = model.update(&filter, &spec, *multi).expect("$set cannot fail");
                assert_eq!((sut.matched, sut.modified), expected, "set divergence at {op:?}");
            }
            ColOp::IncA { k, multi } => {
                // Matches numbers only — and arrays holding one, on
                // which `$inc` fails partway: same error, same documents
                // modified before it.
                let filter = Filter::and([Filter::eq("k", *k), Filter::lte("a", 8i64)]);
                let spec = UpdateSpec::Ops(vec![UpdateOp::Inc("a".into(), 1.0)]);
                let sut = coll
                    .update(&filter, &spec, false, *multi)
                    .map(|r| (r.matched, r.modified))
                    .map_err(|e| e.to_string());
                assert_eq!(sut, model.update(&filter, &spec, *multi), "inc divergence at {op:?}");
            }
            ColOp::Delete { k } => {
                let filter = Filter::eq("k", *k);
                assert_eq!(coll.delete_many(&filter), model.delete(&filter), "delete at {op:?}");
            }
            ColOp::UpdateBatch { statements } => {
                let ops: Vec<BulkUpdate> = statements
                    .iter()
                    .map(|(k, change, multi)| BulkUpdate {
                        filter: Filter::eq("k", *k),
                        spec: match change {
                            Change::SetA(value) => UpdateSpec::set("a", value.clone()),
                            Change::MoveK(to) => UpdateSpec::set("k", *to),
                            Change::SetU(u) => UpdateSpec::set("u", *u),
                        },
                        multi: *multi,
                    })
                    .collect();
                let sut = coll
                    .update_batch(&ops)
                    .map(|r| (r.matched, r.modified))
                    .map_err(|e| e.to_string());
                let expected = ops.iter().try_fold((0, 0), |(matched, modified), op| {
                    let (m, n) = model.update(&op.filter, &op.spec, op.multi)?;
                    Ok((matched + m, modified + n))
                });
                assert_eq!(sut, expected, "batch divergence at {op:?}");
            }
        }
        assert_eq!(
            coll.find(&Filter::eq("u", 10_000i64)),
            model.find(&Filter::eq("u", 10_000i64)),
            "unique index lookup after {op:?}"
        );
        for probe in &probes {
            let expected = model.find(probe);
            assert_eq!(coll.find(probe), expected, "find {probe:?} after {op:?}");
            assert_eq!(coll.count(probe), expected.len(), "count {probe:?} after {op:?}");
            let page: Vec<Document> = expected.iter().skip(1).take(3).cloned().collect();
            assert_eq!(coll.find_with(probe, &window), page, "window {probe:?} after {op:?}");
            assert_eq!(coll.find_one(probe), expected.first().cloned(), "first of {probe:?}");
        }
        let probe = &probes[2];
        let page: Vec<Document> = by_id_desc(model.find(probe))
            .iter()
            .skip(2)
            .take(4)
            .map(|d| project_paths(d, &["a".to_owned()]))
            .collect();
        assert_eq!(coll.find_with(probe, &sorted), page, "sorted page after {op:?}");
        // Each probe was scanned at least twice above: at full size
        // that has built `k`'s column (always integers; `a` and `b` may
        // have been discarded as exotic), and it stays for good.
        if model.live().count() >= FILLERS {
            full_size = true;
        }
        if full_size {
            assert_eq!(coll.explain(&Filter::eq("k", 3i64)).plan, "COLSCAN { k }", "after {op:?}");
        }
    }
    assert_eq!(coll.all_docs(), model.live().cloned().collect::<Vec<_>>(), "final content");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// `clean` sequences keep the scanned columns typed where the
    /// operations land (kernel chunks see every update); the others mix
    /// in every value family (row-fallback chunks, discarded columns).
    #[test]
    fn column_scans_match_the_slot_ordered_model(
        ops in prop_oneof![
            prop::collection::vec(arb_col_op(true), 4..18),
            prop::collection::vec(arb_col_op(false), 4..18),
        ],
        short_by in 0..5usize,
    ) {
        run_column_workload(&ops, short_by);
    }
}
