//! Dotted field-path parsing and resolution.
//!
//! The thesis's denormalized queries navigate embedded documents with
//! dotted paths (`"ss_cdemo_sk.cd_gender"`, Appendix B); the match
//! language and aggregation expressions both resolve paths through this
//! module so their semantics stay aligned.
//!
//! Resolution is built around [`Resolved`], a borrow-or-own result: a
//! path that lands on a value stored in the document borrows it, and
//! only multikey fan-out (a non-numeric segment applied to an array)
//! materializes a fresh array. [`CompiledPath`] pre-splits the dotted
//! string and pre-parses numeric segments so repeated evaluation — the
//! compile-once/evaluate-many execution kernel — does no per-document
//! string work at all. All three entry points ([`resolve_path`],
//! [`FieldPath::resolve`], [`CompiledPath::resolve`]) share one generic
//! resolver core, so their semantics cannot drift.

use crate::{Document, Value};

/// A value resolved from a document: borrowed straight out of the
/// document wherever possible, owned only when multikey fan-out had to
/// build a fresh array of matches.
#[derive(Debug)]
pub enum Resolved<'a> {
    /// The path landed on a value stored in the document.
    Borrowed(&'a Value),
    /// Multikey fan-out collected matches into a new array.
    Owned(Value),
}

impl<'a> Resolved<'a> {
    /// Borrows the resolved value regardless of ownership.
    pub fn as_value(&self) -> &Value {
        match self {
            Resolved::Borrowed(v) => v,
            Resolved::Owned(v) => v,
        }
    }

    /// Unwraps into an owned value, cloning only if borrowed.
    pub fn into_value(self) -> Value {
        match self {
            Resolved::Borrowed(v) => v.clone(),
            Resolved::Owned(v) => v,
        }
    }

    /// A borrowed `Null` with no tie to any document — the conventional
    /// stand-in for a missing field in sort keys and expressions.
    pub fn null() -> Resolved<'static> {
        static NULL: Value = Value::Null;
        Resolved::Borrowed(&NULL)
    }
}

/// One path segment in any representation the resolver accepts.
trait PathSegment {
    fn name(&self) -> &str;
    fn array_index(&self) -> Option<usize>;
}

impl PathSegment for &str {
    fn name(&self) -> &str {
        self
    }
    fn array_index(&self) -> Option<usize> {
        self.parse().ok()
    }
}

impl PathSegment for String {
    fn name(&self) -> &str {
        self
    }
    fn array_index(&self) -> Option<usize> {
        self.parse().ok()
    }
}

/// A pre-split segment with its numeric array index pre-parsed, so the
/// hot path neither splits strings nor parses integers per document.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Segment {
    name: Box<str>,
    index: Option<usize>,
}

impl PathSegment for Segment {
    fn name(&self) -> &str {
        &self.name
    }
    fn array_index(&self) -> Option<usize> {
        self.index
    }
}

/// A dotted path compiled once for repeated borrowed resolution.
///
/// An invalid path (empty, or containing an empty segment like `"a..b"`)
/// compiles to a path that never resolves — the same behaviour
/// [`resolve_path`] gives such strings at evaluation time — so filter
/// and expression compilation stays infallible.
#[derive(Clone, Debug)]
pub struct CompiledPath {
    /// `None` marks an invalid path; a valid path has ≥ 1 segment.
    segments: Option<Box<[Segment]>>,
}

impl CompiledPath {
    /// Compiles a dotted path. Never fails; invalid paths simply never
    /// resolve (and never write).
    pub fn new(path: &str) -> Self {
        if path.is_empty() {
            return Self { segments: None };
        }
        let segments: Vec<Segment> = path
            .split('.')
            .map(|s| Segment { name: s.into(), index: s.parse().ok() })
            .collect();
        if segments.iter().any(|s| s.name.is_empty()) {
            return Self { segments: None };
        }
        Self { segments: Some(segments.into_boxed_slice()) }
    }

    /// True if the path parsed into usable segments.
    pub fn is_valid(&self) -> bool {
        self.segments.is_some()
    }

    /// Resolves against a document without cloning scalars; see
    /// [`resolve_path`] for the navigation rules.
    pub fn resolve<'a>(&self, doc: &'a Document) -> Option<Resolved<'a>> {
        resolve_segments_ref(doc, self.segments.as_deref()?)
    }

    /// Sets a value at this path, creating intermediate embedded
    /// documents as needed — the compiled counterpart of
    /// [`Document::set_path`], with identical semantics: every segment
    /// is treated as a field name, and the write fails (returns `false`)
    /// if an intermediate component exists but is not a document.
    pub fn set(&self, doc: &mut Document, value: Value) -> bool {
        let Some(segments) = self.segments.as_deref() else {
            return false;
        };
        let (last, init) = segments.split_last().expect("compiled paths are non-empty");
        let mut cur = doc;
        for seg in init {
            match cur.child_mut(&seg.name) {
                Some(inner) => cur = inner,
                None => return false,
            }
        }
        cur.set(last.name.as_ref(), value);
        true
    }
}

/// A parsed dotted field path.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct FieldPath {
    segments: Vec<String>,
}

impl FieldPath {
    /// Parses a dotted path. Empty segments are rejected.
    pub fn parse(path: &str) -> Option<Self> {
        if path.is_empty() {
            return None;
        }
        let segments: Vec<String> = path.split('.').map(str::to_owned).collect();
        if segments.iter().any(String::is_empty) {
            return None;
        }
        Some(Self { segments })
    }

    /// The path segments.
    pub fn segments(&self) -> &[String] {
        &self.segments
    }

    /// The leading segment (the top-level field name).
    pub fn head(&self) -> &str {
        &self.segments[0]
    }

    /// Renders back to dotted form.
    pub fn dotted(&self) -> String {
        self.segments.join(".")
    }

    /// Resolves the path against a document.
    pub fn resolve(&self, doc: &Document) -> Option<Value> {
        resolve_segments_ref(doc, &self.segments).map(Resolved::into_value)
    }
}

impl std::fmt::Display for FieldPath {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.dotted())
    }
}

/// Resolves a dotted path against a document.
///
/// Rules (matching MongoDB's navigation semantics used by the thesis):
///
/// * a segment descends into an embedded document by field name;
/// * a numeric segment indexes into an array (`"items.0.price"`);
/// * a non-numeric segment applied to an array maps over the elements and
///   collects the matches into an array (multikey fan-out); if no element
///   matches, resolution fails;
/// * resolution of a missing field yields `None` (distinct from an
///   explicit `Null` value).
pub fn resolve_path(doc: &Document, path: &str) -> Option<Value> {
    resolve_path_ref(doc, path).map(Resolved::into_value)
}

/// Borrowed-form [`resolve_path`]: scalars and embedded values come back
/// as references into the document; only multikey fan-out allocates.
pub fn resolve_path_ref<'a>(doc: &'a Document, path: &str) -> Option<Resolved<'a>> {
    let segments: Vec<&str> = path.split('.').collect();
    if segments.iter().any(|s| s.is_empty()) {
        return None;
    }
    resolve_segments_ref(doc, &segments)
}

fn resolve_segments_ref<'a, S: PathSegment>(
    doc: &'a Document,
    segments: &[S],
) -> Option<Resolved<'a>> {
    let (first, rest) = segments.split_first()?;
    let v = doc.get(first.name())?;
    if rest.is_empty() {
        return Some(Resolved::Borrowed(v));
    }
    descend_ref(v, rest)
}

fn descend_ref<'a, S: PathSegment>(v: &'a Value, rest: &[S]) -> Option<Resolved<'a>> {
    match v {
        Value::Document(d) => resolve_segments_ref(d, rest),
        Value::Array(items) => {
            let (seg, tail) = rest.split_first()?;
            if let Some(idx) = seg.array_index() {
                let elem = items.get(idx)?;
                if tail.is_empty() {
                    return Some(Resolved::Borrowed(elem));
                }
                return descend_ref(elem, tail);
            }
            // Multikey fan-out: apply the remaining path to each element.
            let collected: Vec<Value> = items
                .iter()
                .filter_map(|e| match e {
                    Value::Document(d) => {
                        resolve_segments_ref(d, rest).map(Resolved::into_value)
                    }
                    _ => None,
                })
                .collect();
            if collected.is_empty() {
                None
            } else {
                Some(Resolved::Owned(Value::Array(collected)))
            }
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{array, doc};

    #[test]
    fn parse_rejects_empty_and_dotted_holes() {
        assert!(FieldPath::parse("").is_none());
        assert!(FieldPath::parse("a..b").is_none());
        assert!(FieldPath::parse(".a").is_none());
        assert_eq!(FieldPath::parse("a.b").unwrap().segments().len(), 2);
    }

    #[test]
    fn resolves_scalar_and_nested() {
        let d = doc! {"a" => doc!{"b" => 3i64}};
        assert_eq!(resolve_path(&d, "a.b"), Some(Value::Int64(3)));
        assert_eq!(resolve_path(&d, "a"), Some(d.get("a").unwrap().clone()));
        assert_eq!(resolve_path(&d, "a.c"), None);
    }

    #[test]
    fn numeric_segment_indexes_arrays() {
        let d = doc! {"xs" => array![10i64, 20i64, 30i64]};
        assert_eq!(resolve_path(&d, "xs.1"), Some(Value::Int64(20)));
        assert_eq!(resolve_path(&d, "xs.9"), None);
    }

    #[test]
    fn multikey_fanout_collects_matches() {
        let d = doc! {
            "books" => Value::Array(vec![
                Value::Document(doc!{"pages" => 216i64}),
                Value::Document(doc!{"pages" => 418i64}),
                Value::Int64(7), // non-document elements are skipped
            ])
        };
        assert_eq!(
            resolve_path(&d, "books.pages"),
            Some(array![216i64, 418i64])
        );
    }

    #[test]
    fn fanout_with_no_matches_fails() {
        let d = doc! {"books" => array![1i64, 2i64]};
        assert_eq!(resolve_path(&d, "books.pages"), None);
    }

    #[test]
    fn deep_mixed_navigation() {
        let d = doc! {
            "a" => Value::Array(vec![Value::Document(
                doc!{"b" => Value::Array(vec![Value::Document(doc!{"c" => 1i64})])},
            )])
        };
        assert_eq!(resolve_path(&d, "a.0.b.0.c"), Some(Value::Int64(1)));
    }

    #[test]
    fn display_roundtrip() {
        let p = FieldPath::parse("x.y.z").unwrap();
        assert_eq!(p.to_string(), "x.y.z");
        assert_eq!(p.head(), "x");
    }

    #[test]
    fn resolve_ref_borrows_scalars_and_owns_fanout() {
        let d = doc! {
            "a" => doc!{"b" => 3i64},
            "books" => Value::Array(vec![
                Value::Document(doc!{"pages" => 216i64}),
                Value::Document(doc!{"pages" => 418i64}),
            ])
        };
        assert!(matches!(
            resolve_path_ref(&d, "a.b"),
            Some(Resolved::Borrowed(Value::Int64(3)))
        ));
        assert!(matches!(
            resolve_path_ref(&d, "books.pages"),
            Some(Resolved::Owned(Value::Array(_)))
        ));
        assert!(resolve_path_ref(&d, "a..b").is_none());
        assert!(resolve_path_ref(&d, "").is_none());
    }

    #[test]
    fn compiled_path_matches_string_resolution() {
        let d = doc! {
            "a" => doc!{"b" => 3i64},
            "xs" => array![10i64, 20i64],
            "books" => Value::Array(vec![
                Value::Document(doc!{"pages" => 216i64}),
                Value::Int64(9),
            ])
        };
        for path in ["a", "a.b", "a.c", "xs.1", "xs.9", "books.pages", "missing", "a..b", ""] {
            let compiled = CompiledPath::new(path);
            assert_eq!(
                compiled.resolve(&d).map(Resolved::into_value),
                resolve_path(&d, path),
                "path {path:?}"
            );
        }
    }

    #[test]
    fn compiled_set_matches_set_path() {
        for (path, value) in [
            ("a.b.c", Value::Int32(7)),
            ("top", Value::Int64(1)),
            ("xs.0", Value::Int64(9)), // fails through the array, like set_path
        ] {
            let mut via_string = doc! {"xs" => array![1i64], "top" => 0i64};
            let mut via_compiled = via_string.clone();
            let a = via_string.set_path(path, value.clone());
            let b = CompiledPath::new(path).set(&mut via_compiled, value);
            assert_eq!(a, b, "path {path:?}");
            assert_eq!(via_string, via_compiled, "path {path:?}");
        }
        assert!(!CompiledPath::new("").set(&mut Document::new(), Value::Null));
    }

    #[test]
    fn resolved_null_is_null() {
        assert!(Resolved::null().as_value().is_null());
        assert_eq!(Resolved::null().into_value(), Value::Null);
    }
}
