//! The name server's table.
//!
//! [`Directory`] is one ordered map from name to its [`NameRecord`],
//! kept encoded, and one generation counter. The name-server process
//! owns it outright: other contexts reach it only by message, so nothing
//! here locks. Every successful write takes the next generation, so
//! generations are unique, increase by one per write and never skip.
//! Each write encodes the record once; every lookup until the next write
//! answers with those bytes, so a lookup copies no metadata.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;

use bytes::Bytes;
use simnet::Endpoint;
use wire::Value;

use crate::record::NameRecord;

/// A name table owned by one name-server process.
///
/// All operations take `&self` (the map sits in a `RefCell`), so a
/// caller holding a shared reference can still populate one.
#[derive(Debug, Default)]
pub struct Directory {
    /// Each bound name's record as [`NameRecord::encode`] encodes it.
    names: RefCell<BTreeMap<String, Bytes>>,
    last_gen: Cell<u64>,
}

/// Decodes a record this directory encoded.
fn decode(encoded: &Bytes) -> NameRecord {
    wire::decode_bytes(encoded)
        .and_then(NameRecord::from_value)
        .expect("the directory encoded this record")
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    fn bump(&self) -> u64 {
        let gen = self.last_gen.get() + 1;
        self.last_gen.set(gen);
        gen
    }

    /// Binds `name` to `ep` (replacing any existing binding) and
    /// returns the new generation.
    pub fn register(&self, name: &str, ep: Endpoint, meta: Value) -> u64 {
        let generation = self.bump();
        let record = NameRecord {
            endpoint: ep,
            meta,
            generation,
        };
        self.names
            .borrow_mut()
            .insert(name.to_string(), record.encode());
        generation
    }

    /// Rebinds an existing `name` to `ep`, returning the new generation,
    /// or `None` (using up no generation) when the name is not bound. A
    /// `Value::Null` meta keeps the existing meta.
    pub fn update(&self, name: &str, ep: Endpoint, meta: Value) -> Option<u64> {
        let mut names = self.names.borrow_mut();
        let encoded = names.get_mut(name)?;
        let mut rec = decode(encoded);
        rec.endpoint = ep;
        if meta != Value::Null {
            rec.meta = meta;
        }
        rec.generation = self.bump();
        *encoded = rec.encode();
        Some(rec.generation)
    }

    /// Removes the binding for `name`; `false` when it was not bound.
    pub fn unregister(&self, name: &str) -> bool {
        self.names.borrow_mut().remove(name).is_some()
    }

    /// The current record for `name`, if bound.
    pub fn lookup(&self, name: &str) -> Option<NameRecord> {
        self.names.borrow().get(name).map(decode)
    }

    /// The current record for `name` as [`NameRecord::encode`] encodes
    /// it, if bound: the bytes made at its last write, shared.
    pub fn lookup_encoded(&self, name: &str) -> Option<Bytes> {
        self.names.borrow().get(name).cloned()
    }

    /// All bound names, sorted.
    pub fn list(&self) -> Vec<String> {
        self.names.borrow().keys().cloned().collect()
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.names.borrow().len()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.names.borrow().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, PortId};

    fn ep(n: u32, p: u32) -> Endpoint {
        Endpoint::new(NodeId(n), PortId(p))
    }

    #[test]
    fn register_lookup_roundtrip() {
        let dir = Directory::new();
        let gen = dir.register("kv", ep(1, 2), Value::Null);
        assert_eq!(gen, 1);
        let rec = dir.lookup("kv").expect("bound");
        assert_eq!(rec.endpoint, ep(1, 2));
        assert_eq!(rec.generation, 1);
        assert!(dir.lookup("missing").is_none());
    }

    #[test]
    fn generations_are_unique_across_stripes() {
        let dir = Directory::new();
        let gens: Vec<u64> = (0..100)
            .map(|i| dir.register(&format!("svc-{i}"), ep(i, 1), Value::Null))
            .collect();
        assert_eq!(gens, (1..=100).collect::<Vec<u64>>());
        assert_eq!(dir.len(), 100);
    }

    #[test]
    fn update_requires_existing_binding() {
        let dir = Directory::new();
        assert!(dir.update("kv", ep(1, 2), Value::Null).is_none());
        assert_eq!(dir.register("kv", ep(1, 2), Value::Null), 1);
        let gen = dir.update("kv", ep(3, 4), Value::Null).expect("bound");
        assert_eq!(gen, 2, "a failed update uses up no generation");
        assert_eq!(dir.lookup("kv").unwrap().endpoint, ep(3, 4));
    }

    #[test]
    fn unregister_then_lookup_misses() {
        let dir = Directory::new();
        dir.register("kv", ep(1, 2), Value::Null);
        assert!(dir.unregister("kv"));
        assert!(!dir.unregister("kv"));
        assert!(dir.lookup("kv").is_none());
        assert!(dir.is_empty());
    }

    #[test]
    fn list_is_sorted_across_stripes() {
        let dir = Directory::new();
        for n in ["zeta", "alpha", "mid", "beta"] {
            dir.register(n, ep(0, 1), Value::Null);
        }
        assert_eq!(dir.list(), vec!["alpha", "beta", "mid", "zeta"]);
    }
}
