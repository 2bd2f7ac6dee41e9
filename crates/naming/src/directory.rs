//! The shared, read-optimized name directory.
//!
//! A single-process name server keeps its table as process-local state,
//! which is fine until a million clients poll `bind_async` against it:
//! every NotFound-backoff retry then funnels through one exclusive
//! table. [`Directory`] is the read-optimized alternative: the table is
//! striped into shards keyed by name hash, each behind its own
//! `RwLock`, so lookups (by far the dominant operation) take a shared
//! read lock on one stripe and never contend with lookups of other
//! names — or even of other readers of the same name. Writes take the
//! write lock of just their stripe.
//!
//! One `Arc<Directory>` can back any number of name-server replicas
//! ([`crate::spawn_name_cluster`]); generations stay globally unique
//! and monotonic across replicas via one shared atomic.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;

use simnet::Endpoint;
use wire::Value;

use crate::record::NameRecord;

/// Stripe count (a power of two).
const STRIPES: usize = 16;

/// FNV-1a hash of a name, for stripe selection.
fn name_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in name.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A striped name table safe to share across server replicas.
///
/// All operations take `&self`; reads lock one stripe shared, writes
/// lock one stripe exclusive. Generation numbers come from a single
/// atomic, so they are unique and monotonic directory-wide no matter
/// which replica served the write.
#[derive(Debug, Default)]
pub struct Directory {
    stripes: [RwLock<BTreeMap<String, NameRecord>>; STRIPES],
    next_gen: AtomicU64,
}

impl Directory {
    /// An empty directory.
    pub fn new() -> Directory {
        Directory::default()
    }

    fn stripe(&self, name: &str) -> &RwLock<BTreeMap<String, NameRecord>> {
        &self.stripes[(name_hash(name) as usize) & (STRIPES - 1)]
    }

    fn bump(&self) -> u64 {
        self.next_gen.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Binds `name` to `ep` (replacing any existing binding) and
    /// returns the new generation.
    pub fn register(&self, name: &str, ep: Endpoint, meta: Value) -> u64 {
        let gen = self.bump();
        let mut map = self.stripe(name).write().unwrap_or_else(|e| e.into_inner());
        map.insert(
            name.to_string(),
            NameRecord {
                endpoint: ep,
                meta,
                generation: gen,
            },
        );
        gen
    }

    /// Rebinds an existing `name` to `ep`, returning the new generation,
    /// or `None` when the name is not bound. A `Value::Null` meta keeps
    /// the existing meta.
    pub fn update(&self, name: &str, ep: Endpoint, meta: Value) -> Option<u64> {
        let gen = self.bump();
        let mut map = self.stripe(name).write().unwrap_or_else(|e| e.into_inner());
        let rec = map.get_mut(name)?;
        rec.endpoint = ep;
        if meta != Value::Null {
            rec.meta = meta;
        }
        rec.generation = gen;
        Some(gen)
    }

    /// Removes the binding for `name`; `false` when it was not bound.
    pub fn unregister(&self, name: &str) -> bool {
        let mut map = self.stripe(name).write().unwrap_or_else(|e| e.into_inner());
        map.remove(name).is_some()
    }

    /// The current record for `name`, if bound. This is the hot path:
    /// one shared read lock on one stripe.
    pub fn lookup(&self, name: &str) -> Option<NameRecord> {
        let map = self.stripe(name).read().unwrap_or_else(|e| e.into_inner());
        map.get(name).cloned()
    }

    /// All bound names, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut names: Vec<String> = Vec::new();
        for stripe in self.stripes.iter() {
            let map = stripe.read().unwrap_or_else(|e| e.into_inner());
            names.extend(map.keys().cloned());
        }
        names.sort_unstable();
        names
    }

    /// Number of bound names.
    pub fn len(&self) -> usize {
        self.stripes
            .iter()
            .map(|s| s.read().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// True when nothing is bound.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
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
        let mut gens = Vec::new();
        for i in 0..100 {
            gens.push(dir.register(&format!("svc-{i}"), ep(i, 1), Value::Null));
        }
        let mut sorted = gens.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 100, "generations must be unique");
        assert_eq!(dir.len(), 100);
    }

    #[test]
    fn update_requires_existing_binding() {
        let dir = Directory::new();
        assert!(dir.update("kv", ep(1, 2), Value::Null).is_none());
        dir.register("kv", ep(1, 2), Value::Null);
        let gen = dir.update("kv", ep(3, 4), Value::Null).expect("bound");
        assert!(gen > 1);
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
