//! # doclite-bson
//!
//! The value model underpinning the document store: a BSON-like dynamic
//! type system with ordered documents, a canonical cross-type sort order,
//! dotted-path navigation, and a binary codec whose size accounting backs
//! the engine's 16 MB document limit and the sharding layer's chunk-size
//! bookkeeping.
//!
//! The paper stores TPC-DS rows as JSON-ish documents in MongoDB; this
//! crate reproduces the pieces of BSON the thesis relies on:
//!
//! * documents are *ordered* key/value maps (`Document`);
//! * every stored document carries a unique 12-byte [`ObjectId`] under
//!   `_id` unless the application supplies its own;
//! * values compare under a canonical type order so B-tree indexes can mix
//!   types in one keyspace ([`Value::canonical_cmp`]);
//! * dotted paths (`"ss_sold_date_sk.d_year"`) navigate embedded documents
//!   and arrays ([`Document::get_path`]).

pub mod codec;
pub mod document;
pub mod json;
pub mod oid;
pub mod path;
pub mod value;

pub use codec::{decode_document, encode_document, CodecError};
pub use document::Document;
pub use oid::ObjectId;
pub use path::{resolve_path_ref, CompiledPath, FieldPath, Resolved};
pub use value::{NumericKey, Value};

/// Maximum encoded size of a single document, mirroring MongoDB's 16 MB
/// cap that drives the thesis's embedded-vs-referenced modeling decision
/// (Section 2.1.1).
pub const MAX_DOCUMENT_SIZE: usize = 16 * 1024 * 1024;

/// Convenience macro for building a [`Document`] literal.
///
/// ```
/// use doclite_bson::{doc, Value};
/// let d = doc! { "a" => 1i64, "b" => "text", "c" => doc!{ "inner" => true } };
/// assert_eq!(d.get("b"), Some(&Value::from("text")));
/// ```
#[macro_export]
macro_rules! doc {
    () => { $crate::Document::new() };
    ( $( $k:expr => $v:expr ),+ $(,)? ) => {
        <$crate::Document as ::std::iter::FromIterator<_>>::from_iter([
            $( (
                ::std::convert::Into::<::std::string::String>::into($k),
                $crate::Value::from($v),
            ) ),+
        ])
    };
}

/// Convenience macro for building an array [`Value`] literal.
///
/// ```
/// use doclite_bson::{array, Value};
/// let a = array![1i64, 2i64, 3i64];
/// assert!(matches!(a, Value::Array(ref v) if v.len() == 3));
/// ```
#[macro_export]
macro_rules! array {
    () => { $crate::Value::Array(Vec::new()) };
    ( $( $v:expr ),+ $(,)? ) => {
        $crate::Value::Array(vec![ $( $crate::Value::from($v) ),+ ])
    };
}
