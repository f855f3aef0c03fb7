//! Binary document codec (BSON wire layout).
//!
//! The engine needs faithful *size accounting* more than it needs wire
//! compatibility: the 16 MB document cap (Section 2.1.1), the 64 MB chunk
//! threshold (Section 2.1.3.3), and the paper's query-selectivity metric
//! (Table 4.4, megabytes of result data) are all defined over encoded
//! document size. The layout below follows the BSON spec for the types we
//! support, so sizes match what MongoDB 3.0 would report.
//!
//! Layout: `document ::= int32(total_len) element* 0x00`;
//! `element ::= type_byte cstring(name) payload`. Arrays are encoded as
//! documents keyed `"0"`, `"1"`, … exactly as BSON does.

use crate::{Document, ObjectId, Value};
use std::fmt;

const T_DOUBLE: u8 = 0x01;
const T_STRING: u8 = 0x02;
const T_DOCUMENT: u8 = 0x03;
const T_ARRAY: u8 = 0x04;
const T_OBJECTID: u8 = 0x07;
const T_BOOL: u8 = 0x08;
const T_DATETIME: u8 = 0x09;
const T_NULL: u8 = 0x0A;
const T_INT32: u8 = 0x10;
const T_INT64: u8 = 0x12;

/// Errors surfaced while decoding a binary document.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the declared length.
    Truncated,
    /// A declared length field was inconsistent with the data.
    BadLength,
    /// An unknown element type byte was encountered.
    UnknownType(u8),
    /// A string payload was not valid UTF-8.
    InvalidUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "document truncated"),
            CodecError::BadLength => write!(f, "inconsistent length field"),
            CodecError::UnknownType(t) => write!(f, "unknown element type 0x{t:02x}"),
            CodecError::InvalidUtf8 => write!(f, "string payload is not valid UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Encodes a document into its binary representation.
pub fn encode_document(doc: &Document) -> Vec<u8> {
    let mut buf = Vec::with_capacity(encoded_size(doc));
    encode_document_into(&mut buf, doc);
    buf
}

/// Appends a document's binary representation to `buf` — the bytes
/// [`encode_document`] returns, written where the caller wants them (the
/// WAL encodes a whole group commit into one buffer this way).
pub fn encode_document_into(buf: &mut Vec<u8>, doc: &Document) {
    let mut w = DocWriter::new(buf);
    for (k, v) in doc.iter() {
        w.value(k, v);
    }
    w.finish();
}

/// Writes one document element by element into a caller's buffer, from
/// borrowed parts: what lets an envelope such as the WAL's
/// `{"op", "c", "d"}` be encoded around a document without first
/// assembling (and cloning into) a `Document` of its own. The bytes are
/// the ones [`encode_document`] gives for a document with the same
/// elements in the same order. [`DocWriter::finish`] closes the document;
/// one that is dropped unfinished leaves its bytes unterminated.
pub struct DocWriter<'a> {
    buf: &'a mut Vec<u8>,
    start: usize,
}

impl<'a> DocWriter<'a> {
    /// Opens a document at the end of `buf`.
    pub fn new(buf: &'a mut Vec<u8>) -> Self {
        let start = buf.len();
        buf.extend_from_slice(&[0u8; 4]); // length back-patched by `finish`
        DocWriter { buf, start }
    }

    fn key(&mut self, type_byte: u8, key: &[u8]) {
        self.buf.push(type_byte);
        self.buf.extend_from_slice(key);
        self.buf.push(0);
    }

    /// Appends `key: v`.
    pub fn value(&mut self, key: &str, v: &Value) {
        self.key(type_byte(v), key.as_bytes());
        write_payload(self.buf, v);
    }

    /// Appends `key: s` as a string element.
    pub fn str(&mut self, key: &str, s: &str) {
        self.key(T_STRING, key.as_bytes());
        write_str(self.buf, s);
    }

    /// Appends `key: doc` as an embedded document.
    pub fn document(&mut self, key: &str, doc: &Document) {
        self.key(T_DOCUMENT, key.as_bytes());
        encode_document_into(self.buf, doc);
    }

    /// Appends `key: [items…]` as an array.
    pub fn array<'v>(&mut self, key: &str, items: impl IntoIterator<Item = &'v Value>) {
        self.key(T_ARRAY, key.as_bytes());
        write_array(self.buf, items);
    }

    /// Terminates the document and patches its length in.
    pub fn finish(self) {
        self.buf.push(0);
        let len = (self.buf.len() - self.start) as u32;
        self.buf[self.start..self.start + 4].copy_from_slice(&len.to_le_bytes());
    }
}

/// The encoded size of a document in bytes, computed without allocating.
///
/// This is the measure behind the 16 MB document cap, chunk sizes, and the
/// selectivity numbers of Table 4.4.
pub fn encoded_size(doc: &Document) -> usize {
    // 4-byte length prefix + elements + trailing 0x00.
    4 + doc
        .iter()
        .map(|(k, v)| 1 + k.len() + 1 + value_payload_size(v))
        .sum::<usize>()
        + 1
}

/// The encoded payload size of a single value (excluding the element
/// type byte and key), computed without allocating. Lets callers that
/// pack values into size-bounded containers (e.g. the WAL's chunked
/// delete frames) budget precisely.
pub fn encoded_value_size(v: &Value) -> usize {
    value_payload_size(v)
}

fn value_payload_size(v: &Value) -> usize {
    match v {
        Value::Null => 0,
        Value::Bool(_) => 1,
        Value::Int32(_) => 4,
        Value::Double(_) | Value::Int64(_) | Value::DateTime(_) => 8,
        Value::ObjectId(_) => 12,
        Value::String(s) => 4 + s.len() + 1,
        Value::Document(d) => encoded_size(d),
        Value::Array(items) => array_encoded_size(items),
    }
}

fn array_encoded_size(items: &[Value]) -> usize {
    let mut n = 4 + 1; // length prefix + terminator
    let mut idx_buf = itoa_buffer();
    for (i, v) in items.iter().enumerate() {
        let key_len = write_itoa(&mut idx_buf, i);
        n += 1 + key_len + 1 + value_payload_size(v);
    }
    n
}

fn itoa_buffer() -> [u8; 20] {
    [0u8; 20]
}

/// Formats `i` into `buf`, returning the digit count (no allocation).
fn write_itoa(buf: &mut [u8; 20], mut i: usize) -> usize {
    if i == 0 {
        buf[0] = b'0';
        return 1;
    }
    let mut digits = 0;
    let mut tmp = [0u8; 20];
    while i > 0 {
        tmp[digits] = b'0' + (i % 10) as u8;
        i /= 10;
        digits += 1;
    }
    for d in 0..digits {
        buf[d] = tmp[digits - 1 - d];
    }
    digits
}

/// An array is a document keyed by decimal positions.
fn write_array<'v>(buf: &mut Vec<u8>, items: impl IntoIterator<Item = &'v Value>) {
    let mut w = DocWriter::new(buf);
    let mut idx_buf = itoa_buffer();
    for (i, item) in items.into_iter().enumerate() {
        let digits = write_itoa(&mut idx_buf, i);
        w.key(type_byte(item), &idx_buf[..digits]);
        write_payload(w.buf, item);
    }
    w.finish();
}

fn write_str(buf: &mut Vec<u8>, s: &str) {
    buf.extend_from_slice(&((s.len() + 1) as u32).to_le_bytes());
    buf.extend_from_slice(s.as_bytes());
    buf.push(0);
}

fn type_byte(v: &Value) -> u8 {
    match v {
        Value::Double(_) => T_DOUBLE,
        Value::String(_) => T_STRING,
        Value::Document(_) => T_DOCUMENT,
        Value::Array(_) => T_ARRAY,
        Value::ObjectId(_) => T_OBJECTID,
        Value::Bool(_) => T_BOOL,
        Value::DateTime(_) => T_DATETIME,
        Value::Null => T_NULL,
        Value::Int32(_) => T_INT32,
        Value::Int64(_) => T_INT64,
    }
}

fn write_payload(buf: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => {}
        Value::Bool(b) => buf.push(u8::from(*b)),
        Value::Int32(i) => buf.extend_from_slice(&i.to_le_bytes()),
        Value::Int64(i) => buf.extend_from_slice(&i.to_le_bytes()),
        Value::Double(d) => buf.extend_from_slice(&d.to_le_bytes()),
        Value::DateTime(ms) => buf.extend_from_slice(&ms.to_le_bytes()),
        Value::ObjectId(oid) => buf.extend_from_slice(oid.bytes()),
        Value::String(s) => write_str(buf, s),
        Value::Document(d) => encode_document_into(buf, d),
        Value::Array(items) => write_array(buf, items),
    }
}

/// Decodes a binary document produced by [`encode_document`].
pub fn decode_document(bytes: &[u8]) -> Result<Document, CodecError> {
    let mut r = Reader { bytes, pos: 0 };
    let doc = r.read_document()?;
    Ok(doc)
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.pos + n > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let s = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn read_u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    fn read_i32(&mut self) -> Result<i32, CodecError> {
        let b = self.take(4)?;
        Ok(i32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn read_i64(&mut self) -> Result<i64, CodecError> {
        let b = self.take(8)?;
        Ok(i64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn read_f64(&mut self) -> Result<f64, CodecError> {
        let b = self.take(8)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8 bytes")))
    }

    fn read_cstring(&mut self) -> Result<String, CodecError> {
        let start = self.pos;
        while self.pos < self.bytes.len() && self.bytes[self.pos] != 0 {
            self.pos += 1;
        }
        if self.pos >= self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| CodecError::InvalidUtf8)?
            .to_owned();
        self.pos += 1; // consume NUL
        Ok(s)
    }

    fn read_document(&mut self) -> Result<Document, CodecError> {
        let start = self.pos;
        let declared = self.read_i32()?;
        if declared < 5 {
            return Err(CodecError::BadLength);
        }
        let end = start + declared as usize;
        if end > self.bytes.len() {
            return Err(CodecError::Truncated);
        }
        let mut doc = Document::new();
        loop {
            let t = self.read_u8()?;
            if t == 0 {
                break;
            }
            let key = self.read_cstring()?;
            let v = self.read_value(t)?;
            doc.set(key, v);
        }
        if self.pos != end {
            return Err(CodecError::BadLength);
        }
        Ok(doc)
    }

    fn read_value(&mut self, t: u8) -> Result<Value, CodecError> {
        Ok(match t {
            T_NULL => Value::Null,
            T_BOOL => Value::Bool(self.read_u8()? != 0),
            T_INT32 => Value::Int32(self.read_i32()?),
            T_INT64 => Value::Int64(self.read_i64()?),
            T_DOUBLE => Value::Double(self.read_f64()?),
            T_DATETIME => Value::DateTime(self.read_i64()?),
            T_OBJECTID => {
                let b = self.take(12)?;
                Value::ObjectId(ObjectId::from_bytes(b.try_into().expect("12 bytes")))
            }
            T_STRING => {
                let len = self.read_i32()?;
                if len < 1 {
                    return Err(CodecError::BadLength);
                }
                let raw = self.take(len as usize)?;
                let (body, nul) = raw.split_at(raw.len() - 1);
                if nul != [0] {
                    return Err(CodecError::BadLength);
                }
                Value::String(
                    std::str::from_utf8(body)
                        .map_err(|_| CodecError::InvalidUtf8)?
                        .to_owned(),
                )
            }
            T_DOCUMENT => Value::Document(self.read_document()?),
            T_ARRAY => {
                let d = self.read_document()?;
                Value::Array(d.into_iter().map(|(_, v)| v).collect())
            }
            other => return Err(CodecError::UnknownType(other)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{array, doc};

    fn sample() -> Document {
        doc! {
            "_id" => ObjectId::from_parts(1, 2, 3),
            "name" => "Earl Garrison",
            "age" => 36i32,
            "balance" => 1024.5f64,
            "visits" => 99i64,
            "active" => true,
            "deleted" => Value::Null,
            "joined" => Value::DateTime(1_430_000_000_000),
            "tags" => array!["a", "b"],
            "address" => doc!{"city" => "Midway", "zip" => 45220i32},
        }
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        let bytes = encode_document(&d);
        assert_eq!(decode_document(&bytes).unwrap(), d);
    }

    #[test]
    fn encoded_size_matches_encoding() {
        let d = sample();
        assert_eq!(encoded_size(&d), encode_document(&d).len());
    }

    #[test]
    fn empty_document_is_five_bytes() {
        let d = Document::new();
        assert_eq!(encoded_size(&d), 5);
        assert_eq!(encode_document(&d), vec![5, 0, 0, 0, 0]);
    }

    #[test]
    fn array_keys_are_decimal_indices() {
        // An array of 11 elements exercises multi-digit index keys.
        let items: Vec<Value> = (0..11).map(Value::Int32).collect();
        let d = doc! {"xs" => Value::Array(items)};
        let bytes = encode_document(&d);
        assert_eq!(encoded_size(&d), bytes.len());
        assert_eq!(decode_document(&bytes).unwrap(), d);
    }

    #[test]
    fn doc_writer_writes_what_encode_document_would() {
        let inner = sample();
        let ids = [Value::Int64(7), Value::from("x"), array![1i32, array![]]];
        let assembled = doc! {
            "op" => "insert",
            "d" => inner.clone(),
            "ids" => Value::Array(ids.to_vec()),
            "n" => Value::Null,
        };
        // Appended after bytes already in the buffer, which stay put.
        let mut buf = b"head".to_vec();
        let mut w = DocWriter::new(&mut buf);
        w.str("op", "insert");
        w.document("d", &inner);
        w.array("ids", &ids);
        w.value("n", &Value::Null);
        w.finish();
        assert_eq!(&buf[..4], b"head");
        assert_eq!(&buf[4..], encode_document(&assembled).as_slice());

        let mut buf = encode_document(&inner);
        encode_document_into(&mut buf, &Document::new());
        assert_eq!(buf[encoded_size(&inner)..], [5, 0, 0, 0, 0]);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = encode_document(&sample());
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert!(decode_document(&bytes[..cut]).is_err(), "cut={cut}");
        }
    }

    #[test]
    fn bad_length_detected() {
        let mut bytes = encode_document(&doc! {"a" => 1i32});
        bytes[0] = bytes[0].wrapping_add(1);
        assert!(decode_document(&bytes).is_err());
    }

    #[test]
    fn unknown_type_detected() {
        // document with one element whose type byte is bogus
        let mut bytes = vec![0, 0, 0, 0, 0x7F, b'a', 0, 0];
        let len = bytes.len() as u32;
        bytes[0..4].copy_from_slice(&len.to_le_bytes());
        assert_eq!(decode_document(&bytes), Err(CodecError::UnknownType(0x7F)));
    }

    #[test]
    fn itoa_helper() {
        let mut buf = super::itoa_buffer();
        assert_eq!(super::write_itoa(&mut buf, 0), 1);
        assert_eq!(&buf[..1], b"0");
        assert_eq!(super::write_itoa(&mut buf, 12345), 5);
        assert_eq!(&buf[..5], b"12345");
    }
}
