//! Shard keys: the indexed field(s) that determine data placement
//! (thesis Section 2.1.3.3).

use doclite_bson::{Document, Value};
use doclite_docstore::index::hashed::hash_key;
use doclite_docstore::update::apply_update;
use doclite_docstore::{Error, IndexDef, Key, Result, UpdateSpec};

/// How shard-key values map onto the chunk keyspace.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Partitioning {
    /// Range-based: documents with nearby shard-key values live in the
    /// same chunk (good for range queries; risks jumbo chunks on skew).
    Range,
    /// Hash-based: chunks cover ranges of the 64-bit hash of the key, so
    /// nearby values scatter (even distribution; no efficient ranges).
    Hashed,
}

/// A shard key: one or more fields plus the partitioning strategy.
/// Hashed keys are single-field, as in MongoDB.
#[derive(Clone, Debug, PartialEq)]
pub struct ShardKey {
    fields: Vec<String>,
    partitioning: Partitioning,
}

impl ShardKey {
    /// A range-partitioned key over the given fields.
    pub fn range<I, S>(fields: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let fields: Vec<String> = fields.into_iter().map(Into::into).collect();
        assert!(!fields.is_empty(), "shard key needs at least one field");
        ShardKey { fields, partitioning: Partitioning::Range }
    }

    /// A hash-partitioned key over a single field.
    pub fn hashed(field: impl Into<String>) -> Self {
        ShardKey { fields: vec![field.into()], partitioning: Partitioning::Hashed }
    }

    /// The key fields.
    pub fn fields(&self) -> &[String] {
        &self.fields
    }

    /// The partitioning strategy.
    pub fn partitioning(&self) -> Partitioning {
        self.partitioning
    }

    /// Extracts the *chunk keyspace* key for a document: the raw field
    /// values for range partitioning, or the 64-bit hash (stored as
    /// `Int64`, exactly like MongoDB's hashed shard keys) for hashed.
    /// Missing fields key as `Null`. A field holding an array is refused,
    /// as MongoDB refuses it: the shard-key index holds one entry per
    /// element, so no single chunk could own the document.
    pub fn extract(&self, doc: &Document) -> Result<Key> {
        let values = self
            .fields
            .iter()
            .map(|f| match doc.get_path(f) {
                Some(Value::Array(_)) => Err(Error::InvalidQuery(format!(
                    "shard key field '{f}' holds an array; shard key values cannot be arrays"
                ))),
                v => Ok(v.unwrap_or(Value::Null)),
            })
            .collect::<Result<Vec<Value>>>()?;
        Ok(self.keyspace_value(&values))
    }

    /// Refuses an update that can write an array into a key field, as
    /// [`ShardKey::extract`] refuses a document holding one. A
    /// replacement is checked as the document it is. Operators that touch
    /// a key field are applied to an empty document: no stored key field
    /// is an array, so an operator that makes one an array does so there
    /// too (`$push` always does). One that fails there fails on every
    /// document, and the shard reports it.
    pub fn check_update(&self, spec: &UpdateSpec) -> Result<()> {
        match spec {
            UpdateSpec::Replace(body) => self.extract(body).map(drop),
            UpdateSpec::Ops(_) if self.fields.iter().any(|f| spec.touches(f)) => {
                let mut written = Document::new();
                match apply_update(&mut written, spec) {
                    Ok(_) => self.extract(&written).map(drop),
                    Err(_) => Ok(()),
                }
            }
            UpdateSpec::Ops(_) => Ok(()),
        }
    }

    /// The index every shard holds on the key — MongoDB requires it, and
    /// splits and migrations read chunks off it: a compound ascending
    /// B-tree over the fields for range partitioning, a hashed index for
    /// hashed.
    pub fn index_def(&self) -> IndexDef {
        match self.partitioning {
            Partitioning::Range => IndexDef::compound(self.fields.iter().map(String::as_str)),
            Partitioning::Hashed => IndexDef::hashed(self.fields[0].clone()),
        }
    }

    /// Maps a raw shard-key *value* (not a document) into the chunk
    /// keyspace — used for query targeting.
    pub fn keyspace_value(&self, values: &[Value]) -> Key {
        match self.partitioning {
            Partitioning::Range => Key::from_values(values),
            Partitioning::Hashed => hashed_key(Key::of(&values[0]).as_bytes()),
        }
    }

    /// True if range queries on the key can be targeted (range
    /// partitioning only — hashed scatters ranges across chunks).
    pub fn supports_range_targeting(&self) -> bool {
        self.partitioning == Partitioning::Range
    }
}

/// The chunk keyspace key of a hashed shard-key value encoded as
/// `bytes` (its [`Key`], as the hashed index holds it): the `Int64` of
/// [`hash_key`].
pub(crate) fn hashed_key(bytes: &[u8]) -> Key {
    Key::of(&Value::Int64(hash_key(bytes) as i64))
}

#[cfg(test)]
mod tests {
    use super::*;
    use doclite_bson::doc;

    #[test]
    fn range_key_extracts_raw_values() {
        let k = ShardKey::range(["a", "b"]);
        let key = k.extract(&doc! {"a" => 1i64, "b" => "x"}).unwrap();
        assert_eq!(key, Key::from_values(&[Value::Int64(1), Value::from("x")]));
    }

    #[test]
    fn missing_fields_key_as_null() {
        let k = ShardKey::range(["a"]);
        let key = k.extract(&doc! {"b" => 1i64}).unwrap();
        assert_eq!(key, Key::of(&Value::Null));
    }

    #[test]
    fn array_values_are_refused_whatever_the_partitioning() {
        use doclite_bson::array;
        for k in [ShardKey::range(["a", "b"]), ShardKey::hashed("b")] {
            let err = k.extract(&doc! {"a" => 1i64, "b" => array![1i64, 2i64]}).unwrap_err();
            assert!(matches!(&err, Error::InvalidQuery(m) if m.contains("array")), "{k:?}: {err}");
        }
        let nested = doc! {"b" => array![doc! {"c" => 1i64}]};
        assert!(ShardKey::range(["b.c"]).extract(&nested).is_err());
    }

    #[test]
    fn updates_that_write_an_array_into_a_key_field_are_refused() {
        use doclite_bson::array;
        let k = ShardKey::range(["a", "b.c"]);
        for spec in [
            UpdateSpec::set("a", array![1i64]),
            UpdateSpec::set("b", doc! {"c" => array![1i64]}),
            UpdateSpec::set("b", array![doc! {"c" => 1i64}]),
            UpdateSpec::set("x", 1i64).and_push("b.c", 2i64),
            UpdateSpec::Replace(doc! {"a" => array![1i64], "b" => doc! {"c" => 1i64}}),
        ] {
            assert!(
                matches!(k.check_update(&spec), Err(Error::InvalidQuery(m)) if m.contains("array")),
                "{spec:?}"
            );
        }
        for spec in [
            UpdateSpec::set("a", 2i64).and_set("b.c", "x"),
            UpdateSpec::set("t", array![1i64]).and_push("u", 1i64),
            UpdateSpec::set("a", 1i64).and_inc("a", 1.0),
            UpdateSpec::Replace(doc! {"a" => 1i64, "t" => array![1i64]}),
        ] {
            assert_eq!(k.check_update(&spec), Ok(()), "{spec:?}");
        }
    }

    #[test]
    fn index_defs_are_the_conventional_shard_key_indexes() {
        assert_eq!(ShardKey::range(["a", "b"]).index_def(), IndexDef::compound(["a", "b"]));
        assert_eq!(ShardKey::hashed("a").index_def().name, "a_hashed");
    }

    #[test]
    fn hashed_key_is_int64_hash() {
        let k = ShardKey::hashed("a");
        let key = k.extract(&doc! {"a" => 42i64}).unwrap();
        let hash = hash_key(Key::of(&Value::Int64(42)).as_bytes()) as i64;
        assert_eq!(key, Key::of(&Value::Int64(hash)));
        // deterministic
        assert_eq!(key, k.extract(&doc! {"a" => 42i64}).unwrap());
        // equal raw values of different numeric types hash identically
        assert_eq!(key, k.extract(&doc! {"a" => 42.0f64}).unwrap());
    }

    #[test]
    fn hashed_scatters_nearby_values() {
        let k = ShardKey::hashed("a");
        let hash = |v: i64| hash_key(Key::of(&Value::Int64(v)).as_bytes());
        assert_eq!(k.extract(&doc! {"a" => 1i64}).unwrap(), Key::of(&Value::Int64(hash(1) as i64)));
        assert!(hash(1).abs_diff(hash(2)) > 1 << 32);
    }

    #[test]
    #[should_panic(expected = "at least one field")]
    fn empty_key_panics() {
        let _ = ShardKey::range(Vec::<String>::new());
    }
}
