//! `proxy_cache`: the paper's subject — smart proxies that cache.
//!
//! Sixteen thread-backed clients bind (blocking `SessionCore::bind` and
//! `invoke`) one `KvStore` published with `ProxySpec::Caching`,
//! invalidation coherence, 256 entries. Each runs 90 % gets, Zipf(1.2)
//! over 1024 keys — four times the cache, so eviction is on the path —
//! and 10 % puts, uniform over the keys it owns: key *k* is written only
//! by client *k mod 16*. The store starts out holding version 0 of every
//! key. About three quarters of the gets hit.
//!
//! (Writes that follow read popularity, one writer per key, cap the hit
//! ratio near 0.36 whatever the cache size: a popular key is then
//! rewritten by its owner faster than any one reader comes back to it.
//! And a 1024-entry cache is never full within a run this short. Hence
//! uniform writes and the smaller cache.)
//!
//! A hit is served inside the client's context: no message, no scheduler
//! event. So `core` proxies and `services` do most of the work here and
//! `simnet` and `wire` little. Puts beside the gets make every write fan
//! an invalidation out to the 15 other proxies, so a hit path made faster
//! at the cost of coherence work shows up.

use std::time::Instant;

use crate::rng::{Rng, Zipf};
use crate::sut::{self, CachingParams, Coherence, NodeId, ProxySpec, Value};

use super::{merge_into, take, timed_run, Outcome, SharedTally, Tally};

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub clients: u32,
    pub ops_per_client: u32,
    pub keys: u32,
    pub capacity: usize,
    pub put_share: f64,
    pub zipf_s: f64,
    pub value_len: usize,
}

pub fn sizes(smoke: bool) -> Sizes {
    Sizes {
        clients: 16,
        ops_per_client: if smoke { 400 } else { 3_000 },
        keys: 1024,
        capacity: 256,
        put_share: 0.10,
        zipf_s: 1.2,
        value_len: 64,
    }
}

const JITTER: f64 = 0.05;
const SERVICE: &str = "kv";

fn key_name(k: u32) -> String {
    format!("k{k:04}")
}

/// A `len`-byte value that carries its key and version: `k0012#v000003#`
/// followed by filler derived from both.
fn value_of(k: u32, version: u32, len: usize) -> String {
    let mut s = format!("k{k:04}#v{version:06}#");
    let mut x = u64::from(k) << 32 | u64::from(version);
    while s.len() < len {
        x = x.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(17) ^ 0x5851_f42d;
        s.push_str(&format!("{x:016x}"));
    }
    s.truncate(len);
    s
}

/// The `(key, version)` a value claims, if it is one of ours in full.
fn parse_value(v: &Value, len: usize) -> Option<(u32, u32)> {
    let s = v.as_str()?;
    let k: u32 = s.get(1..5)?.parse().ok()?;
    let version: u32 = s.get(7..13)?.parse().ok()?;
    (s == value_of(k, version, len)).then_some((k, version))
}

/// One scripted invocation with its argument record ready to send.
#[derive(Debug, Clone)]
enum Op {
    Get {
        key: u32,
        args: Value,
    },
    /// Writes `version` of `key`.
    Put {
        key: u32,
        version: u32,
        args: Value,
    },
}

/// One client's whole script, made before the clock starts.
fn script(sizes: &Sizes, zipf: &Zipf, seed: u64, client: u32) -> Vec<Op> {
    let mut rng = Rng::new(seed, u64::from(client));
    let mut written = vec![0u32; sizes.keys as usize];
    (0..sizes.ops_per_client)
        .map(|_| {
            let k = zipf.sample(&mut rng) as u32;
            if rng.next_f64() < sizes.put_share {
                // Any key this client owns (k mod clients == client), all
                // equally likely: popularity governs reads only.
                let own = u64::from(sizes.keys / sizes.clients);
                let key = rng.range(0, own - 1) as u32 * sizes.clients + client;
                written[key as usize] += 1;
                let version = written[key as usize];
                let args = Value::record([
                    ("key", Value::str(key_name(key))),
                    ("value", Value::str(value_of(key, version, sizes.value_len))),
                ]);
                Op::Put { key, version, args }
            } else {
                let args = Value::record([("key", Value::str(key_name(k)))]);
                Op::Get { key: k, args }
            }
        })
        .collect()
}

pub fn run(sizes: &Sizes, seed: u64, started: Instant) -> Outcome {
    let sizes = *sizes;
    let mut sim = sut::new_sim(sut::lan(JITTER), seed, 1, 1);
    let ns = sut::spawn_name_server(&sim, NodeId(0));
    let spec = ProxySpec::Caching(CachingParams {
        coherence: Coherence::Invalidate,
        capacity: sizes.capacity,
    });
    let initial = (0..sizes.keys)
        .map(|k| (key_name(k), Value::str(value_of(k, 0, sizes.value_len))))
        .collect();
    sut::spawn_kv_prefilled(&sim, SERVICE, spec, NodeId(1), ns, initial);

    let zipf = Zipf::new(sizes.keys as usize, sizes.zipf_s);
    let shared = SharedTally::default();
    let mut gets = 0u64;
    for c in 0..sizes.clients {
        let ops = script(&sizes, &zipf, seed, c);
        gets += ops.iter().filter(|op| matches!(op, Op::Get { .. })).count() as u64;
        let shared = shared.clone();
        sut::spawn(&sim, format!("client{c}"), NodeId(2 + c), move |ctx| {
            let mut local = Tally::default();
            let mut core = sut::session(ns);
            let kv = match sut::bind(&mut core, ctx, SERVICE) {
                Ok(h) => h,
                Err(e) => {
                    local.error(format!("client {c}: bind failed: {e}"));
                    merge_into(&shared, local);
                    return;
                }
            };
            // Highest version seen per key; for owned keys, the version
            // this client last wrote.
            let mut seen = vec![0u32; sizes.keys as usize];
            let mut written = vec![0u32; sizes.keys as usize];
            for (i, op) in ops.into_iter().enumerate() {
                let req = u64::from(c) << 32 | i as u64;
                local.attempted += 1;
                let t0 = sut::now_ns(ctx);
                let (read, result) = match op {
                    Op::Get { key, args } => {
                        (Some(key), sut::invoke(&mut core, ctx, kv, "get", args, req))
                    }
                    Op::Put { key, version, args } => {
                        written[key as usize] = version;
                        (None, sut::invoke(&mut core, ctx, kv, "put", args, req))
                    }
                };
                let v = match result {
                    Ok(v) => v,
                    Err(e) => {
                        local.failed += 1;
                        local.error(format!("client {c}: op {i} failed: {e}"));
                        continue;
                    }
                };
                local.ok += 1;
                local.latencies_ns.push(sut::now_ns(ctx) - t0);
                let Some(k) = read else { continue };
                let slot = k as usize;
                match parse_value(&v, sizes.value_len) {
                    Some((vk, version)) if vk == k => {
                        if version < seen[slot] {
                            local.error(format!(
                                "client {c}: key {k} went back from v{} to v{version}",
                                seen[slot]
                            ));
                        }
                        if k % sizes.clients == c && version != written[slot] {
                            local.error(format!(
                                "client {c}: read v{version} of its own key {k}, last wrote v{}",
                                written[slot]
                            ));
                        }
                        seen[slot] = version;
                    }
                    _ => local.error(format!("client {c}: get {k} returned {v:?}")),
                }
            }
            sut::shutdown(&mut core, ctx);
            local.clients_done = 1;
            merge_into(&shared, local);
        });
    }

    let timed = timed_run(&mut sim, started);

    let mut tally = take(&shared);
    let done = tally.clients_done;
    tally.check(done == u64::from(sizes.clients), || {
        format!("{done} of {} clients completed", sizes.clients)
    });
    // Only a get can hit, so the ratio is over gets.
    let hits: u64 = timed.obs.proxies.values().map(|p| p.local_hits).sum();
    let counts = vec![("core.cache_hit_ratio", hits as f64 / gets as f64)];
    Outcome {
        timed,
        tally,
        clients: u64::from(sizes.clients),
        counts,
        sizes: format!("{sizes:?}"),
    }
}

pub fn sample_messages(seed: u64) -> Vec<Value> {
    let sizes = sizes(false);
    let zipf = Zipf::new(sizes.keys as usize, sizes.zipf_s);
    let me = sut::client_endpoint(NodeId(2));
    let mut out = Vec::new();
    for op in script(&sizes, &zipf, seed, 0).into_iter().take(64) {
        match op {
            Op::Get { key, args } => {
                out.push(sut::request_value(me, "get", args));
                out.push(sut::reply_value(Value::str(value_of(
                    key,
                    1,
                    sizes.value_len,
                ))));
            }
            Op::Put { args, .. } => {
                out.push(sut::request_value(me, "put", args));
                out.push(sut::reply_value(Value::Null));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_round_trip_and_reject_tampering() {
        let v = value_of(12, 345, 64);
        assert_eq!(v.len(), 64);
        assert_eq!(parse_value(&Value::str(v.clone()), 64), Some((12, 345)));
        let mut bad = v.into_bytes();
        bad[40] ^= 1;
        let bad = String::from_utf8(bad).unwrap();
        assert_eq!(parse_value(&Value::str(bad), 64), None);
        assert_eq!(parse_value(&Value::Null, 64), None);
    }

    #[test]
    fn puts_only_touch_owned_keys() {
        let s = sizes(true);
        let zipf = Zipf::new(s.keys as usize, s.zipf_s);
        for c in [0, 7, 15] {
            for op in script(&s, &zipf, 3, c) {
                if let Op::Put { key, .. } = op {
                    assert_eq!(key % s.clients, c);
                    assert!(key < s.keys);
                }
            }
        }
    }
}
