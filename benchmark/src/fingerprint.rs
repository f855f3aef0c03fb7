//! Result fingerprints: one CRC32 per result set, insensitive to document
//! order, to engine-assigned `_id`s and to floating-point summation order.
//! The normalization is the one `tests/common::assert_results_equivalent`
//! applies: drop `_id`, round doubles to 6 decimals, compare as a multiset.

use doclite_bson::json::to_json;
use doclite_bson::{Document, Value};
use doclite_docstore::Crc32;

fn rounded(doc: &Document) -> Document {
    let mut out = Document::with_capacity(doc.len());
    for (k, v) in doc.iter() {
        if k != "_id" {
            out.set(k.clone(), round_value(v));
        }
    }
    out
}

fn round_value(v: &Value) -> Value {
    match v {
        Value::Double(d) => Value::Double((d * 1e6).round() / 1e6),
        Value::Document(d) => Value::Document(rounded(d)),
        Value::Array(items) => Value::Array(items.iter().map(round_value).collect()),
        other => other.clone(),
    }
}

/// CRC32 of the sorted canonical JSON of the normalized documents.
pub fn fingerprint(docs: &[Document]) -> u32 {
    let mut lines: Vec<String> = docs.iter().map(|d| to_json(&rounded(d))).collect();
    lines.sort_unstable();
    let mut crc = Crc32::new();
    for line in &lines {
        crc.update(line.as_bytes());
        crc.update(b"\n");
    }
    crc.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;

    #[test]
    fn insensitive_to_document_order_and_ids() {
        let a = vec![
            doc! {"_id" => 1i64, "k" => "x", "v" => 1.5},
            doc! {"_id" => 2i64, "k" => "y", "v" => 2.5},
        ];
        let b = vec![
            doc! {"_id" => 9i64, "k" => "y", "v" => 2.5},
            doc! {"_id" => 8i64, "k" => "x", "v" => 1.5},
        ];
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn insensitive_to_float_summation_order() {
        let xs = [0.1, 0.2, 0.3, 1e-9, 7.7];
        let forward: f64 = xs.iter().sum();
        let backward: f64 = xs.iter().rev().sum();
        assert_ne!(
            forward.to_bits(),
            backward.to_bits(),
            "the sums must differ in the last bits"
        );
        let a = vec![doc! {"sum" => forward, "nested" => doc! {"_id" => 1i64, "s" => forward}}];
        let b = vec![doc! {"sum" => backward, "nested" => doc! {"_id" => 2i64, "s" => backward}}];
        assert_eq!(fingerprint(&a), fingerprint(&b));
    }

    #[test]
    fn sensitive_to_values_and_multiplicity() {
        let one = vec![doc! {"k" => 1i64}];
        let two = vec![doc! {"k" => 1i64}, doc! {"k" => 1i64}];
        let other = vec![doc! {"k" => 2i64}];
        assert_ne!(fingerprint(&one), fingerprint(&two));
        assert_ne!(fingerprint(&one), fingerprint(&other));
        assert_ne!(fingerprint(&one), fingerprint(&[]));
    }
}
