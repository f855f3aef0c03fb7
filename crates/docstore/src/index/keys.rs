//! Index key extraction, including multikey array expansion.

use super::IndexDef;
use crate::error::{Error, Result};
use crate::keybytes::Key;
use doclite_bson::{CompiledPath, Document, Resolved, Value};

/// Extracts the index keys a document contributes under a definition.
///
/// * A missing field indexes as `Null` (MongoDB behaviour — this is what
///   lets `$exists:false`-style scans and sparse data coexist in one
///   B-tree).
/// * If exactly one indexed field resolves to an array, the document
///   contributes one key per element (the *multikey* case of thesis
///   Section 2.1.2 item iv). Two array fields in one compound key are
///   rejected, as in MongoDB.
pub fn extract_keys(doc: &Document, def: &IndexDef) -> Result<Vec<Key>> {
    let resolved: Vec<Value> = def
        .fields
        .iter()
        .map(|(f, _)| doc.get_path(f).unwrap_or(Value::Null))
        .collect();

    let array_positions: Vec<usize> = resolved
        .iter()
        .enumerate()
        .filter(|(_, v)| matches!(v, Value::Array(_)))
        .map(|(i, _)| i)
        .collect();

    match array_positions.len() {
        0 => Ok(vec![Key::from_values(&resolved)]),
        1 => {
            let pos = array_positions[0];
            let Value::Array(items) = &resolved[pos] else {
                unreachable!("position found above")
            };
            let with = |item: &Value| {
                Key::from_values(
                    resolved.iter().enumerate().map(|(i, v)| if i == pos { item } else { v }),
                )
            };
            if items.is_empty() {
                // An empty array indexes as Null, like MongoDB.
                return Ok(vec![with(&Value::Null)]);
            }
            Ok(items.iter().map(with).collect())
        }
        _ => Err(Error::InvalidIndex(format!(
            "cannot index parallel arrays in compound index {}",
            def.name
        ))),
    }
}

/// Visits the keys a document contributes to a single-field index on
/// `path` — exactly [`extract_keys`]'s values for such a definition
/// (missing field and empty array as `Null`, an array once per element)
/// — borrowed from the document, so a scalar cell allocates nothing.
/// The bulk-update join routes by these, which is what makes its
/// candidates the ones an index on the path would return.
pub(crate) fn for_each_single_key(doc: &Document, path: &CompiledPath, mut visit: impl FnMut(&Value)) {
    let resolved = path.resolve(doc);
    match resolved.as_ref().map(Resolved::as_value) {
        None => visit(&Value::Null),
        Some(Value::Array(items)) if items.is_empty() => visit(&Value::Null),
        Some(Value::Array(items)) => items.iter().for_each(visit),
        Some(v) => visit(v),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::IndexDef;
    use doclite_bson::{array, doc};

    #[test]
    fn scalar_key() {
        let def = IndexDef::compound(["a", "b"]);
        let keys = extract_keys(&doc! {"a" => 1i64, "b" => "x"}, &def).unwrap();
        assert_eq!(keys, [Key::from_values(&[Value::Int64(1), Value::from("x")])]);
    }

    #[test]
    fn missing_field_indexes_as_null() {
        let def = IndexDef::compound(["a", "b"]);
        let keys = extract_keys(&doc! {"a" => 1i64}, &def).unwrap();
        assert_eq!(keys, [Key::from_values(&[Value::Int64(1), Value::Null])]);
    }

    #[test]
    fn multikey_expansion() {
        let def = IndexDef::compound(["a", "tags"]);
        let keys = extract_keys(&doc! {"a" => 1i64, "tags" => array!["x", "y"]}, &def).unwrap();
        assert_eq!(
            keys,
            [
                Key::from_values(&[Value::Int64(1), Value::from("x")]),
                Key::from_values(&[Value::Int64(1), Value::from("y")]),
            ]
        );
    }

    #[test]
    fn empty_array_indexes_as_null() {
        let def = IndexDef::single("tags");
        let keys = extract_keys(&doc! {"tags" => Value::Array(vec![])}, &def).unwrap();
        assert_eq!(keys, [Key::of(&Value::Null)]);
    }

    #[test]
    fn parallel_arrays_rejected() {
        let def = IndexDef::compound(["a", "b"]);
        let d = doc! {"a" => array![1i64], "b" => array![2i64]};
        assert!(extract_keys(&d, &def).is_err());
    }

    #[test]
    fn single_keys_are_the_single_field_index_keys() {
        let docs = [
            doc! {"a" => 1i64},
            doc! {"b" => 1i64},
            doc! {"a" => Value::Null},
            doc! {"a" => Value::Array(vec![])},
            doc! {"a" => array![1i64, "x", Value::Null]},
            doc! {"a" => array![array![1i64], 2i64]},
            doc! {"a" => doc! {"b" => 2i64}},
            doc! {"a" => array![doc! {"b" => 1i64}, doc! {"c" => 2i64}, doc! {"b" => array![3i64]}]},
        ];
        for path in ["a", "a.b", "a.0"] {
            let def = IndexDef::hashed(path);
            let compiled = CompiledPath::new(path);
            for d in &docs {
                let mut got = Vec::new();
                for_each_single_key(d, &compiled, |v| got.push(Key::of(v)));
                let expected = extract_keys(d, &def).unwrap();
                assert_eq!(got, expected, "{path} over {d:?}");
            }
        }
    }

    #[test]
    fn dotted_path_keys() {
        let def = IndexDef::single("addr.city");
        let keys =
            extract_keys(&doc! {"addr" => doc!{"city" => "Midway"}}, &def).unwrap();
        assert_eq!(keys, [Key::of(&Value::from("Midway"))]);
    }
}
