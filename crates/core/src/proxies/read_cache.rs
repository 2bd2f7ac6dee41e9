//! The read-result store behind every caching tier.
//!
//! [`CachingProxy`](super::CachingProxy) keeps one in the client context;
//! a region's edge cache keeps one in front of its origin. Both follow
//! the same rules: results are filed under the operation's *tag* (see
//! [`crate::OpDesc::tag`]), an invalidation drops a whole tag (and every
//! whole-object read), a lease expires entries on lookup, and capacity
//! evicts first-in first-out. What differs is only how a miss is filled —
//! a blocking call in the proxy, an outstanding-miss table at the edge.

use std::collections::{HashMap, HashSet, VecDeque};

use simnet::{Ctx, SimTime};
use wire::Value;

use crate::proxy::protocol;
use crate::spec::CachingParams;

#[derive(Debug, Clone)]
struct CacheEntry {
    value: Value,
    expires: Option<SimTime>,
}

/// Cached read results, coherent by tag.
#[derive(Debug)]
pub struct ReadCache {
    params: CachingParams,
    /// tag → (request key → entry).
    map: HashMap<String, HashMap<Vec<u8>, CacheEntry>>,
    /// Insertion order for capacity eviction (FIFO). May hold stale
    /// pairs for entries removed by invalidation or lease expiry;
    /// [`ReadCache::compact_order`] bounds the slack.
    order: VecDeque<(String, Vec<u8>)>,
    len: usize,
}

impl ReadCache {
    /// An empty store with the given coherence mode and capacity.
    pub fn new(params: CachingParams) -> ReadCache {
        ReadCache {
            params,
            map: HashMap::new(),
            order: VecDeque::new(),
            len: 0,
        }
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the store holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Length of the internal eviction queue (test hook: must stay
    /// O(capacity + live entries), see [`ReadCache::compact_order`]).
    #[doc(hidden)]
    pub fn order_len(&self) -> usize {
        self.order.len()
    }

    /// Replaces the parameters. Existing entries keep their old expiry.
    pub(crate) fn set_params(&mut self, params: CachingParams) {
        self.params = params;
    }

    /// The key a read is cached under within its tag: the operation and
    /// its exact arguments.
    pub fn key(op: &str, args: &Value) -> Vec<u8> {
        Self::with_key(op, args, <[u8]>::to_vec)
    }

    /// Runs `f` with the key of `op` and `args`, encoded in this thread's
    /// pooled encoder: no allocation.
    fn with_key<R>(op: &str, args: &Value, f: impl FnOnce(&[u8]) -> R) -> R {
        rpc::with_encoder(|e| {
            f(e.encode_borrowed(|w| {
                w.begin_record(2);
                w.key("op");
                w.str(op);
                w.key("a");
                w.value(args);
            }))
        })
    }

    /// [`ReadCache::lookup`] of the read of `op` with `args` filed under
    /// `tag`; on a miss, the key to [`ReadCache::insert`] its result
    /// under. A hit allocates no key.
    pub fn lookup_read(
        &mut self,
        tag: &str,
        op: &str,
        args: &Value,
        now: SimTime,
    ) -> Result<Value, Vec<u8>> {
        Self::with_key(op, args, |key| {
            self.lookup(tag, key, now).ok_or_else(|| key.to_vec())
        })
    }

    /// Drops every entry.
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
        self.len = 0;
    }

    /// Drops all entries under one tag (`"*"` clears everything: a
    /// whole-object write invalidates every read).
    pub fn invalidate_tag(&mut self, tag: &str) {
        if tag == "*" {
            self.clear();
            return;
        }
        if let Some(entries) = self.map.remove(tag) {
            self.len -= entries.len();
        }
        // Whole-object reads observe every key, so any write staleness
        // also invalidates the "*" tag.
        if let Some(entries) = self.map.remove("*") {
            self.len -= entries.len();
        }
        self.compact_order();
    }

    /// Applies an `inv [svc, tag]` notification and returns the tag it
    /// dropped; `None` (nothing touched) for any other one-way, or one
    /// that does not decode.
    pub fn on_invalidate<'a>(&mut self, oneway: &'a rpc::Oneway) -> Option<&'a str> {
        let Ok((_, Some(tag))) = protocol::notice(oneway) else {
            return None;
        };
        self.invalidate_tag(tag);
        Some(tag)
    }

    /// Rebuilds the eviction queue once its stale slack (pairs whose
    /// entry was removed by invalidation or lease expiry, plus
    /// duplicates from expire-then-reinsert) exceeds the live entry
    /// count plus capacity. Keeps the *last* occurrence of each live
    /// pair so re-inserted entries age from their newest insert, and
    /// guarantees `order.len() <= 2 * (capacity + len)` at all times.
    fn compact_order(&mut self) {
        if self.order.len() <= self.params.capacity + self.len {
            return;
        }
        let mut seen: HashSet<(String, Vec<u8>)> = HashSet::with_capacity(self.len);
        let mut kept: Vec<(String, Vec<u8>)> = Vec::with_capacity(self.len);
        while let Some((t, k)) = self.order.pop_back() {
            let live = self
                .map
                .get(&t)
                .is_some_and(|entries| entries.contains_key(&k));
            if live && seen.insert((t.clone(), k.clone())) {
                kept.push((t, k));
            }
        }
        kept.reverse();
        self.order = kept.into();
        debug_assert_eq!(self.order.len(), self.len);
    }

    /// The cached result of the read filed under `(tag, key)`, unless its
    /// lease ran out (which removes it).
    pub fn lookup(&mut self, tag: &str, key: &[u8], now: SimTime) -> Option<Value> {
        let entries = self.map.get_mut(tag)?;
        let entry = entries.get(key)?;
        if let Some(expires) = entry.expires {
            if expires <= now {
                entries.remove(key);
                if entries.is_empty() {
                    self.map.remove(tag);
                }
                self.len -= 1;
                self.compact_order();
                return None;
            }
        }
        Some(entry.value.clone())
    }

    /// Files a read result, evicting the oldest entries at capacity.
    pub fn insert(&mut self, tag: String, key: Vec<u8>, value: Value, now: SimTime) {
        while self.len >= self.params.capacity {
            // FIFO eviction: pop until we actually remove a live entry
            // (entries may already be gone via invalidation).
            match self.order.pop_front() {
                Some((t, k)) => {
                    if let Some(entries) = self.map.get_mut(&t) {
                        if entries.remove(&k).is_some() {
                            self.len -= 1;
                            if entries.is_empty() {
                                self.map.remove(&t);
                            }
                        }
                    }
                }
                None => break,
            }
        }
        let expires = self.params.coherence.lease().map(|d| now + d);
        let fresh = self
            .map
            .entry(tag.clone())
            .or_default()
            .insert(key.clone(), CacheEntry { value, expires })
            .is_none();
        if fresh {
            self.len += 1;
            self.order.push_back((tag, key));
            self.compact_order();
        }
    }
}

/// Records one cache lookup for `service` in the flight recorder
/// (`cache_hit@svc` / `cache_miss@svc`) and the causal trace.
pub fn note_lookup(ctx: &Ctx, service: &str, op: &str, hit: bool) {
    if ctx.obs().timeseries_enabled() {
        let series = if hit { "cache_hit" } else { "cache_miss" };
        ctx.obs()
            .ts_add(ctx.now().as_nanos(), &format!("{series}@{service}"), 1);
    }
    ctx.trace(ctx.current_span(), || {
        let (service, op) = (service.to_owned(), op.to_owned());
        if hit {
            obs::NetEventKind::ProxyCacheHit { service, op }
        } else {
            obs::NetEventKind::ProxyCacheMiss { service, op }
        }
    });
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use proptest::prelude::*;

    use super::*;
    use crate::spec::Coherence;

    fn cache(capacity: usize, coherence: Coherence) -> ReadCache {
        ReadCache::new(CachingParams {
            coherence,
            capacity,
        })
    }

    fn live_entries(c: &ReadCache) -> usize {
        c.map.values().map(HashMap::len).sum()
    }

    /// Regression: before the fix, every expire-then-reinsert cycle and
    /// every tag invalidation left stale pairs in the eviction queue, so
    /// `order` grew without bound while the cache stayed tiny.
    #[test]
    fn order_queue_stays_bounded_under_expiry_and_invalidation() {
        let lease = Duration::from_millis(1);
        let mut c = cache(8, Coherence::Lease(lease));
        let mut now = SimTime::ZERO;
        for round in 0..1000u64 {
            let key = ReadCache::key("get", &Value::U64(round % 4));
            c.insert("t".into(), key.clone(), Value::U64(round), now);
            // Jump past the lease so the next lookup expires the entry.
            now = now + lease + Duration::from_millis(1);
            assert_eq!(c.lookup("t", &key, now), None, "entry must have expired");
            if round % 7 == 0 {
                c.invalidate_tag("t");
            }
            assert!(
                c.order_len() <= c.params.capacity + c.len(),
                "round {round}: order queue leaked to {} (capacity {} + live {})",
                c.order_len(),
                c.params.capacity,
                c.len()
            );
        }
    }

    /// Regression: removing the last expired entry of a tag used to
    /// leave an empty per-tag HashMap behind forever.
    #[test]
    fn expiry_removes_empty_tag_maps() {
        let lease = Duration::from_millis(1);
        let mut c = cache(8, Coherence::Lease(lease));
        for i in 0..50u64 {
            let key = ReadCache::key("get", &Value::U64(i));
            c.insert(format!("tag{i}"), key.clone(), Value::U64(i), SimTime::ZERO);
            let later = SimTime::ZERO + lease + Duration::from_millis(1);
            assert_eq!(c.lookup(&format!("tag{i}"), &key, later), None);
        }
        assert!(c.is_empty());
        assert!(c.map.is_empty(), "{} empty tag maps leaked", c.map.len());
    }

    #[derive(Debug, Clone)]
    enum CacheOp {
        Insert(u8, u8),
        Lookup(u8),
        InvalidateTag(u8),
        InvalidateAll,
        Advance(u8),
        Clear,
    }

    fn arb_ops() -> impl Strategy<Value = Vec<CacheOp>> {
        proptest::collection::vec(
            prop_oneof![
                (any::<u8>(), any::<u8>()).prop_map(|(t, k)| CacheOp::Insert(t % 5, k % 16)),
                any::<u8>().prop_map(|k| CacheOp::Lookup(k % 16)),
                any::<u8>().prop_map(|t| CacheOp::InvalidateTag(t % 5)),
                Just(CacheOp::InvalidateAll),
                any::<u8>().prop_map(CacheOp::Advance),
                Just(CacheOp::Clear),
            ],
            1..200,
        )
    }

    proptest! {
        /// Under any interleaving of inserts, invalidations, expiries
        /// and clears: `len()` equals the number of live entries, the
        /// capacity is respected, and the eviction queue stays
        /// O(capacity + live entries).
        #[test]
        fn bookkeeping_invariants_hold(ops in arb_ops(), capacity in 1usize..12) {
            let lease = Duration::from_millis(2);
            let mut c = cache(capacity, Coherence::Lease(lease));
            let mut now = SimTime::ZERO;
            for op in ops {
                match op {
                    CacheOp::Insert(t, k) => {
                        let key = ReadCache::key("get", &Value::U64(k as u64));
                        c.insert(format!("t{t}"), key, Value::U64(k as u64), now);
                    }
                    CacheOp::Lookup(k) => {
                        // Sweep every tag so expiry can fire anywhere.
                        let key = ReadCache::key("get", &Value::U64(k as u64));
                        for t in 0..5 {
                            let _ = c.lookup(&format!("t{t}"), &key, now);
                        }
                    }
                    CacheOp::InvalidateTag(t) => c.invalidate_tag(&format!("t{t}")),
                    CacheOp::InvalidateAll => c.invalidate_tag("*"),
                    CacheOp::Advance(ms) => now += Duration::from_millis(ms as u64 % 5),
                    CacheOp::Clear => c.clear(),
                }
                prop_assert_eq!(
                    c.len(),
                    live_entries(&c),
                    "len counter diverged from live entries"
                );
                prop_assert!(c.len() <= c.params.capacity);
                prop_assert!(
                    c.order_len() <= c.params.capacity + c.len(),
                    "order queue unbounded: {} > {} + {}",
                    c.order_len(), c.params.capacity, c.len()
                );
            }
        }
    }
}
