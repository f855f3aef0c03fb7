//! Property-based tests over the core data structures and invariants.

use doclite::bson::{codec, Document, Value};
use doclite::docstore::query::matcher::{compile, matches, matches_compiled};
use doclite::docstore::{CompoundKey, Filter, OrdValue};
use doclite::sharding::{ConfigServer, ShardKey};
use proptest::prelude::*;

// ----- generators -------------------------------------------------------

fn arb_scalar() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i32>().prop_map(Value::Int32),
        any::<i64>().prop_map(Value::Int64),
        // Finite doubles only: NaN breaks Eq-based roundtrip comparison,
        // and the engine's canonical order handles NaN separately.
        prop::num::f64::NORMAL.prop_map(Value::Double),
        "[a-zA-Z0-9 _-]{0,12}".prop_map(Value::String),
        any::<i64>().prop_map(Value::DateTime),
    ]
}

fn arb_value() -> impl Strategy<Value = Value> {
    arb_scalar().prop_recursive(3, 24, 6, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            prop::collection::vec(("[a-z]{1,6}", inner), 0..4).prop_map(|fields| {
                let mut d = Document::new();
                for (k, v) in fields {
                    d.set(k, v);
                }
                Value::Document(d)
            }),
        ]
    })
}

fn arb_document() -> impl Strategy<Value = Document> {
    prop::collection::vec(("[a-z]{1,8}", arb_value()), 0..8).prop_map(|fields| {
        let mut d = Document::new();
        for (k, v) in fields {
            d.set(k, v);
        }
        d
    })
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        Just(Filter::True),
        ("[ab]", arb_scalar()).prop_map(|(p, v)| Filter::eq(p, v)),
        ("[ab]", arb_scalar()).prop_map(|(p, v)| Filter::ne(p, v)),
        ("[ab]", arb_scalar()).prop_map(|(p, v)| Filter::gt(p, v)),
        ("[ab]", arb_scalar()).prop_map(|(p, v)| Filter::lte(p, v)),
        ("[ab]", prop::collection::vec(arb_scalar(), 0..6))
            .prop_map(|(p, vs)| Filter::In { path: p, values: vs }),
        ("[ab]", prop::collection::vec(arb_scalar(), 0..6))
            .prop_map(|(p, vs)| Filter::Nin { path: p, values: vs }),
        ("[ab]", any::<bool>()).prop_map(|(p, e)| Filter::Exists { path: p, exists: e }),
    ];
    leaf.prop_recursive(3, 16, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::And),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
            prop::collection::vec(inner.clone(), 1..3).prop_map(Filter::Nor),
            inner.prop_map(|f| Filter::Not(Box::new(f))),
        ]
    })
}

// ----- properties -------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn codec_roundtrips_any_document(doc in arb_document()) {
        let bytes = codec::encode_document(&doc);
        prop_assert_eq!(bytes.len(), codec::encoded_size(&doc));
        let back = codec::decode_document(&bytes).unwrap();
        prop_assert_eq!(back, doc);
    }

    #[test]
    fn compiled_matcher_agrees_with_interpreter(
        filter in arb_filter(),
        doc in arb_document(),
    ) {
        let compiled = compile(&filter);
        prop_assert_eq!(matches(&filter, &doc), matches_compiled(&compiled, &doc));
    }

    #[test]
    fn canonical_order_is_total_and_antisymmetric(a in arb_value(), b in arb_value()) {
        use std::cmp::Ordering;
        let ab = a.canonical_cmp(&b);
        let ba = b.canonical_cmp(&a);
        prop_assert_eq!(ab, ba.reverse());
        if ab == Ordering::Equal {
            // equal values must hash identically (group/index keys)
            use std::collections::hash_map::DefaultHasher;
            use std::hash::{Hash, Hasher};
            let mut ha = DefaultHasher::new();
            let mut hb = DefaultHasher::new();
            OrdValue(a.clone()).hash(&mut ha);
            OrdValue(b.clone()).hash(&mut hb);
            prop_assert_eq!(ha.finish(), hb.finish());
        }
    }

    #[test]
    fn canonical_order_is_transitive(
        a in arb_scalar(),
        b in arb_scalar(),
        c in arb_scalar(),
    ) {
        use std::cmp::Ordering::*;
        let mut vals = [a, b, c];
        vals.sort_by(|x, y| x.canonical_cmp(y));
        prop_assert_ne!(vals[0].canonical_cmp(&vals[1]), Greater);
        prop_assert_ne!(vals[1].canonical_cmp(&vals[2]), Greater);
        prop_assert_ne!(vals[0].canonical_cmp(&vals[2]), Greater);
    }

    #[test]
    fn chunk_map_invariants_survive_random_splits_and_moves(
        splits in prop::collection::vec((any::<i64>(), 0usize..8), 0..12),
    ) {
        let cfg = ConfigServer::new();
        cfg.shard_collection("c", ShardKey::range(["k"]), 0);
        for (key, chunk_hint) in splits {
            let meta = cfg.meta("c").unwrap();
            let idx = chunk_hint % meta.chunks.len();
            let k = CompoundKey::from_values(vec![Value::Int64(key)]);
            cfg.split_chunk("c", idx, k, 0.5);
            let meta = cfg.meta("c").unwrap();
            cfg.move_chunk("c", idx % meta.chunks.len(), (key as usize) % 3);
            let meta = cfg.meta("c").unwrap();
            prop_assert!(meta.check_invariants().is_ok());
            // Every key routes to exactly one chunk that contains it.
            for probe in [i64::MIN, -1, 0, 1, key, i64::MAX] {
                let pk = CompoundKey::from_values(vec![Value::Int64(probe)]);
                let ci = meta.chunk_for(&pk);
                prop_assert!(meta.chunks[ci].contains(&pk));
            }
        }
    }

    #[test]
    fn sort_then_filter_equals_filter_then_sort(
        docs in prop::collection::vec(arb_document(), 0..20),
        filter in arb_filter(),
    ) {
        use doclite::docstore::agg::sort_documents;
        let spec = vec![("a".to_owned(), 1), ("b".to_owned(), -1)];

        let mut sorted_first: Vec<Document> = docs.clone();
        sort_documents(&mut sorted_first, &spec);
        let a: Vec<Document> = sorted_first
            .into_iter()
            .filter(|d| matches(&filter, d))
            .collect();

        let mut b: Vec<Document> = docs.into_iter().filter(|d| matches(&filter, d)).collect();
        sort_documents(&mut b, &spec);

        // Both orders agree on the multiset; and on sort keys position by
        // position (stability can differ only among tied keys).
        prop_assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b.iter()) {
            prop_assert_eq!(
                x.get_path("a").unwrap_or(Value::Null).canonical_cmp(&y.get_path("a").unwrap_or(Value::Null)),
                std::cmp::Ordering::Equal
            );
        }
    }

    #[test]
    fn hashed_shard_key_routes_deterministically(keys in prop::collection::vec(any::<i64>(), 1..50)) {
        let sk = ShardKey::hashed("k");
        for k in keys {
            let mut d = Document::new();
            d.set("k", Value::Int64(k));
            prop_assert_eq!(sk.extract(&d), sk.extract(&d));
        }
    }
}
