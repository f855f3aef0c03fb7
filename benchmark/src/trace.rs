//! Spans recorded from outside the engine: a [`TracedStore`] wraps the
//! `doclite_core::Store` a workload runs against and records one span per
//! call, parented to the query span the workload opened around it. Spans
//! stay in memory and are written out once, when the workload ends.

use doclite_bson::Document;
use doclite_core::Store;
use doclite_docstore::{Filter, FindOptions, IndexDef, Pipeline, Result, UpdateResult, UpdateSpec};
use doclite_stress::report::escape_json;
use std::fmt::Write as _;
use std::sync::Mutex;
use std::time::Instant;

/// The `Store` entry points a span can stand for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StoreOp {
    Insert,
    Find,
    Count,
    Update,
    Aggregate,
    CreateIndex,
    DropCollection,
    Size,
}

/// The steps of the Fig 4.8 algorithm a `Store` call belongs to.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// `find_with` on a dimension with a real predicate (step i).
    DimFilter,
    /// `find` on a fact collection: the `$in` semi-join probe (step ii).
    SemiJoin,
    /// drop + `insert_many` + `create_index` on an intermediate collection.
    IntermWrite,
    /// `find(dim, True)`: fetching the documents to embed (step iii).
    EmbedFetch,
    /// The `EmbedDocuments` updates on the intermediate collection.
    EmbedUpdate,
    /// The final pipeline (step iv), or a whole denormalized query.
    FinalAgg,
    /// Anything else; counts as the caller's own time.
    Other,
}

impl Phase {
    /// The six reported phases, in algorithm order.
    pub const REPORTED: [Phase; 6] = [
        Phase::DimFilter,
        Phase::SemiJoin,
        Phase::IntermWrite,
        Phase::EmbedFetch,
        Phase::EmbedUpdate,
        Phase::FinalAgg,
    ];

    /// Metric-name stem, as in `q46.embed_update_ms`.
    pub fn label(self) -> &'static str {
        match self {
            Phase::DimFilter => "dim_filter",
            Phase::SemiJoin => "semi_join",
            Phase::IntermWrite => "interm_write",
            Phase::EmbedFetch => "embed_fetch",
            Phase::EmbedUpdate => "embed_update",
            Phase::FinalAgg => "final_agg",
            Phase::Other => "other",
        }
    }
}

const FACTS: [&str; 3] = ["store_sales", "store_returns", "inventory"];

/// Maps one `Store` call to its Fig 4.8 phase. `filter_is_true` is only
/// meaningful for `Find`.
pub fn classify(op: StoreOp, collection: &str, filter_is_true: bool) -> Phase {
    let intermediate = collection.ends_with("_intermediate");
    match op {
        StoreOp::Aggregate => Phase::FinalAgg,
        StoreOp::Update if intermediate => Phase::EmbedUpdate,
        StoreOp::Insert | StoreOp::CreateIndex | StoreOp::DropCollection if intermediate => {
            Phase::IntermWrite
        }
        StoreOp::Find if FACTS.contains(&collection) => Phase::SemiJoin,
        StoreOp::Find if intermediate => Phase::Other,
        StoreOp::Find if filter_is_true => Phase::EmbedFetch,
        StoreOp::Find => Phase::DimFilter,
        _ => Phase::Other,
    }
}

/// One recorded interval. Times are nanoseconds since the tracer's epoch.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u32,
    /// The span that caused this one; `None` for a query span.
    pub parent: Option<u32>,
    /// Spans of one request share this: `workload/iteration/query`.
    pub request: String,
    pub name: String,
    /// The `Store` entry point; `None` for a query span.
    pub op: Option<StoreOp>,
    pub phase: Phase,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rows_in: u64,
    pub rows_out: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span's duration minus the part of it its children cover. Children
/// may nest or touch; overlapping cover is counted once, and cover
/// outside the parent's interval is ignored.
pub fn self_time_ns(parent: &Span, children: &[&Span]) -> u64 {
    let mut cover: Vec<(u64, u64)> = children
        .iter()
        .map(|c| (c.start_ns.max(parent.start_ns), c.end_ns.min(parent.end_ns)))
        .filter(|(s, e)| e > s)
        .collect();
    cover.sort_unstable();
    let mut covered = 0;
    let mut reach = parent.start_ns;
    for (s, e) in cover {
        if e > reach {
            covered += e - s.max(reach);
            reach = e;
        }
    }
    parent.duration_ns() - covered
}

struct State {
    spans: Vec<Span>,
    /// The open query span: `(id, request)`.
    current: Option<(u32, String)>,
    /// Fact-probe filters kept by a capturing store, with their collection.
    captured: Vec<(String, Filter)>,
}

/// Collects spans. One query span is open at a time (the matrix
/// workloads have one client), and every store call made while it is
/// open becomes its child.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State {
                spans: Vec::new(),
                current: None,
                captured: Vec::new(),
            }),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().expect("a tracer user panicked")
    }

    /// Runs `f` inside a new query span and returns what it returns.
    pub fn query<T>(&self, request: String, name: &str, f: impl FnOnce() -> T) -> T {
        let start_ns = self.now_ns();
        let id = {
            let mut st = self.state();
            let id = st.spans.len() as u32;
            // Reserve the slot so children get larger ids than their parent.
            st.spans.push(Span {
                id,
                parent: None,
                request: request.clone(),
                name: name.to_owned(),
                op: None,
                phase: Phase::Other,
                start_ns,
                end_ns: start_ns,
                rows_in: 0,
                rows_out: 0,
            });
            st.current = Some((id, request));
            id
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut st = self.state();
        st.spans[id as usize].end_ns = end_ns;
        st.current = None;
        out
    }

    fn record(
        &self,
        op: StoreOp,
        collection: &str,
        phase: Phase,
        start_ns: u64,
        rows_in: u64,
        rows_out: u64,
    ) {
        let end_ns = self.now_ns();
        let mut st = self.state();
        let id = st.spans.len() as u32;
        let (parent, request) = match &st.current {
            Some((p, r)) => (Some(*p), r.clone()),
            None => (None, String::new()),
        };
        st.spans.push(Span {
            id,
            parent,
            request,
            name: format!("{op:?}:{collection}"),
            op: Some(op),
            phase,
            start_ns,
            end_ns,
            rows_in,
            rows_out,
        });
    }

    /// The fact-probe filters captured since the last call, in call order.
    pub fn take_captured(&self) -> Vec<(String, Filter)> {
        std::mem::take(&mut self.state().captured)
    }

    /// All spans recorded so far, in id order.
    pub fn spans(&self) -> Vec<Span> {
        self.state().spans.clone()
    }

    /// The trace as one JSON document (see the README for the layout).
    pub fn to_json(&self, header: &str) -> String {
        let st = self.state();
        let mut out = String::with_capacity(64 + st.spans.len() * 160);
        let _ = write!(out, "{{\"header\": {header}, \"spans\": [");
        for (i, s) in st.spans.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {}, \"parent\": {parent}, \"request\": \"{}\", \"name\": \"{}\", \
                 \"phase\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"rows_in\": {}, \
                 \"rows_out\": {}}}",
                s.id,
                escape_json(&s.request),
                escape_json(&s.name),
                s.phase.label(),
                s.start_ns,
                s.end_ns,
                s.rows_in,
                s.rows_out
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A `Store` that forwards every call and records a span around it.
pub struct TracedStore<'a> {
    inner: &'a dyn Store,
    tracer: &'a Tracer,
    capture: bool,
}

impl<'a> TracedStore<'a> {
    pub fn new(inner: &'a dyn Store, tracer: &'a Tracer) -> Self {
        TracedStore {
            inner,
            tracer,
            capture: false,
        }
    }

    /// Also keeps a copy of every fact-probe filter, for `explain` and
    /// replay afterwards. Copying costs time inside the query span, so
    /// a capturing pass is never a timed one.
    pub fn capturing(inner: &'a dyn Store, tracer: &'a Tracer) -> Self {
        TracedStore {
            inner,
            tracer,
            capture: true,
        }
    }

    fn span<T>(
        &self,
        op: StoreOp,
        collection: &str,
        filter_is_true: bool,
        rows_in: u64,
        call: impl FnOnce() -> T,
        rows_out: impl FnOnce(&T) -> u64,
    ) -> T {
        let start_ns = self.tracer.now_ns();
        let out = call();
        let phase = classify(op, collection, filter_is_true);
        self.tracer
            .record(op, collection, phase, start_ns, rows_in, rows_out(&out));
        out
    }
}

fn ok_count<T>(r: &Result<T>, n: impl FnOnce(&T) -> u64) -> u64 {
    r.as_ref().map(n).unwrap_or(0)
}

impl Store for TracedStore<'_> {
    fn insert_one(&self, collection: &str, doc: Document) -> Result<()> {
        self.span(
            StoreOp::Insert,
            collection,
            false,
            1,
            || self.inner.insert_one(collection, doc),
            |r| ok_count(r, |_| 1),
        )
    }

    fn insert_many(&self, collection: &str, docs: Vec<Document>) -> Result<usize> {
        let n = docs.len() as u64;
        self.span(
            StoreOp::Insert,
            collection,
            false,
            n,
            || self.inner.insert_many(collection, docs),
            |r| ok_count(r, |n| *n as u64),
        )
    }

    fn find_with(&self, collection: &str, filter: &Filter, opts: &FindOptions) -> Vec<Document> {
        if self.capture && classify(StoreOp::Find, collection, false) == Phase::SemiJoin {
            self.tracer
                .state()
                .captured
                .push((collection.to_owned(), filter.clone()));
        }
        self.span(
            StoreOp::Find,
            collection,
            matches!(filter, Filter::True),
            0,
            || self.inner.find_with(collection, filter, opts),
            |docs| docs.len() as u64,
        )
    }

    fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.span(
            StoreOp::Count,
            collection,
            false,
            0,
            || self.inner.count(collection, filter),
            |n| *n as u64,
        )
    }

    fn update(
        &self,
        collection: &str,
        filter: &Filter,
        spec: &UpdateSpec,
        upsert: bool,
        multi: bool,
    ) -> Result<UpdateResult> {
        self.span(
            StoreOp::Update,
            collection,
            false,
            0,
            || self.inner.update(collection, filter, spec, upsert, multi),
            |r| ok_count(r, |u| u.modified as u64),
        )
    }

    fn aggregate(&self, collection: &str, pipeline: &Pipeline) -> Result<Vec<Document>> {
        self.span(
            StoreOp::Aggregate,
            collection,
            false,
            0,
            || self.inner.aggregate(collection, pipeline),
            |r| ok_count(r, |docs| docs.len() as u64),
        )
    }

    fn create_index(&self, collection: &str, def: IndexDef) -> Result<()> {
        self.span(
            StoreOp::CreateIndex,
            collection,
            false,
            0,
            || self.inner.create_index(collection, def),
            |_| 0,
        )
    }

    fn drop_collection(&self, collection: &str) -> bool {
        self.span(
            StoreOp::DropCollection,
            collection,
            false,
            0,
            || self.inner.drop_collection(collection),
            |_| 0,
        )
    }

    fn collection_len(&self, collection: &str) -> usize {
        self.span(
            StoreOp::Size,
            collection,
            false,
            0,
            || self.inner.collection_len(collection),
            |n| *n as u64,
        )
    }

    fn collection_data_size(&self, collection: &str) -> usize {
        self.span(
            StoreOp::Size,
            collection,
            false,
            0,
            || self.inner.collection_data_size(collection),
            |n| *n as u64,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;
    use doclite_docstore::Database;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: "t/0/q".into(),
            name: "s".into(),
            op: None,
            phase: Phase::Other,
            start_ns,
            end_ns,
            rows_in: 0,
            rows_out: 0,
        }
    }

    #[test]
    fn self_time_with_adjacent_nested_and_overlapping_children() {
        let parent = span(0, None, 100, 200);
        let a = span(1, Some(0), 110, 130);
        let touching = span(2, Some(0), 130, 150);
        assert_eq!(self_time_ns(&parent, &[&a, &touching]), 60);
        // A grandchild recorded inside `a` covers nothing new.
        let nested = span(3, Some(1), 115, 125);
        assert_eq!(self_time_ns(&parent, &[&a, &touching, &nested]), 60);
        // Overlap is counted once; cover outside the parent is ignored.
        let overlapping = span(4, Some(0), 140, 170);
        let outside = span(5, Some(0), 190, 260);
        assert_eq!(
            self_time_ns(&parent, &[&overlapping, &a, &touching, &outside]),
            30
        );
        assert_eq!(self_time_ns(&parent, &[]), 100);
    }

    #[test]
    fn every_store_call_of_the_fig_4_8_algorithm_has_a_phase() {
        use Phase::*;
        use StoreOp::*;
        let cases = [
            (Find, "date_dim", false, DimFilter),
            (Find, "item", true, EmbedFetch),
            (Find, "store_sales", false, SemiJoin),
            (Find, "store_returns", false, SemiJoin),
            (Find, "inventory", false, SemiJoin),
            (DropCollection, "query7_intermediate", false, IntermWrite),
            (Insert, "query46_intermediate", false, IntermWrite),
            (CreateIndex, "query21_intermediate", false, IntermWrite),
            (Update, "query50_intermediate", false, EmbedUpdate),
            (Aggregate, "query7_intermediate", false, FinalAgg),
            (Aggregate, "store_sales_dn", false, FinalAgg),
            (Update, "store_sales", false, Other),
            (Insert, "store_sales", false, Other),
            (Count, "store_sales", false, Other),
            (Size, "item", false, Other),
            (Find, "query7_intermediate", true, Other),
        ];
        for (op, coll, is_true, want) in cases {
            assert_eq!(classify(op, coll, is_true), want, "{op:?} on {coll}");
        }
    }

    #[test]
    fn traced_store_passes_calls_through_and_parents_them() {
        let fill = |s: &dyn Store| {
            s.insert_many(
                "dim",
                (0..10i64).map(|i| doc! {"pk" => i, "g" => i % 2}).collect(),
            )
            .unwrap();
            s.create_index("dim", IndexDef::single("pk")).unwrap();
            s.update(
                "dim",
                &Filter::eq("g", 1i64),
                &UpdateSpec::set("hit", true),
                false,
                true,
            )
            .unwrap();
            let mut found = s.find("dim", &Filter::eq("hit", true));
            for d in &mut found {
                d.remove("_id");
            }
            (
                found,
                s.count("dim", &Filter::True),
                s.collection_len("dim"),
            )
        };
        let bare = Database::new("bare");
        let wrapped = Database::new("wrapped");
        let tracer = Tracer::new();
        let traced = TracedStore::new(&wrapped, &tracer);
        let expected = fill(&bare);
        let got = tracer.query("t/0/q".into(), "q", || fill(&traced));
        assert_eq!(got, expected);
        assert_eq!(bare.data_size(), wrapped.data_size());

        let spans = tracer.spans();
        let query = &spans[0];
        assert_eq!((query.parent, query.name.as_str()), (None, "q"));
        let children: Vec<&Span> = spans[1..].iter().collect();
        assert_eq!(children.len(), 6);
        for c in &children {
            assert_eq!(c.parent, Some(query.id));
            assert_eq!(c.request, "t/0/q");
            assert!(query.start_ns <= c.start_ns && c.end_ns <= query.end_ns);
        }
        assert_eq!(children[0].rows_in, 10);
        assert_eq!(children[2].rows_out, 5, "the update modified the odd half");
        assert_eq!(children[3].rows_out, 5, "the find returned them");
        let own = self_time_ns(query, &children);
        let child_sum: u64 = children.iter().map(|c| c.duration_ns()).sum();
        assert_eq!(own + child_sum, query.duration_ns());
        // A call outside any query span has no parent.
        traced.count("dim", &Filter::True);
        assert_eq!(tracer.spans().last().unwrap().parent, None);
    }
}
