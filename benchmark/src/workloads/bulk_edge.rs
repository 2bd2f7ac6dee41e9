//! `bulk_edge`: by-reference payloads over a WAN through edge caches.
//!
//! Three regions of six thread-backed clients read a catalog of 96 assets
//! of 8–64 KiB under Zipf(1.1) popularity, with 2 ms of simulated think
//! time between gets. The catalog `KvStore` is published as
//! `ProxySpec::Bulk { inner: Stub, threshold 4 KiB, chunk 16 KiB, depth 8 }`:
//! payloads live in an origin `BlobStore`, the catalog holds fixed-size
//! references, and each client resolves them through its region's edge
//! cache (`spawn_edge_cache`, routed with `Binder::set_bulk_route`). An
//! edge holds 128 chunks, under half of the catalog's. Meanwhile the
//! publisher re-puts one asset every second of simulated time (a get
//! takes about 0.3 s, so roughly one asset changes per 25 gets).
//!
//! Bytes, not events, dominate: chunking, CRC over tens of KiB, edge
//! lookup, blob store. Origin writes beside the reads exercise the
//! invalidation hierarchy, and because misses stay well above 1 % of gets
//! `sim_call_p99_us` here *is* the cold-miss tail.
//!
//! Region latencies are one-way 20/35/50 ms between the origin and
//! regions 1/2/3 (40/70/100 ms round trip), 1 ms inside a region.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::rng::{Rng, Zipf};
use crate::sut::{self, BulkParams, NodeId, ProxySpec, Simulation, Value};

use super::{merge_into, take, timed_run, Outcome, SharedTally, Tally};

#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    pub regions: u32,
    pub clients_per_region: u32,
    pub assets: u32,
    pub gets_per_client: u32,
    pub zipf_s: f64,
    pub payload_min: usize,
    pub payload_max: usize,
    /// Edge cache capacity in chunks.
    pub edge_capacity: usize,
    pub chunk: usize,
    pub think_ms: u64,
    pub republish_ms: u64,
}

pub fn sizes(smoke: bool) -> Sizes {
    Sizes {
        regions: 3,
        clients_per_region: 6,
        assets: if smoke { 32 } else { 96 },
        gets_per_client: if smoke { 60 } else { 120 },
        zipf_s: 1.1,
        payload_min: 8 * 1024,
        payload_max: 64 * 1024,
        edge_capacity: if smoke { 48 } else { 128 },
        chunk: 16 * 1024,
        think_ms: 2,
        republish_ms: 1_000,
    }
}

impl Sizes {
    fn clients(&self) -> u32 {
        self.regions * self.clients_per_region
    }
}

const NODE_NS: u32 = 0;
const NODE_CATALOG: u32 = 1;
const NODE_BLOB: u32 = 2;
const NODE_PUBLISHER: u32 = 3;
const FIRST_EDGE: u32 = 4;
const CATALOG: &str = "catalog";
const STORE: &str = "blob";
const MANIFEST: &str = "__manifest";

/// 0 = origin, 1.. = client regions.
fn region_of(sizes: &Sizes, node: u32) -> u32 {
    if node < FIRST_EDGE {
        0
    } else if node < FIRST_EDGE + sizes.regions {
        node - FIRST_EDGE + 1
    } else {
        (node - FIRST_EDGE - sizes.regions) / sizes.clients_per_region + 1
    }
}

fn region_latency(a: u32, b: u32) -> Duration {
    let (lo, hi) = (a.min(b), a.max(b));
    if lo == hi {
        Duration::from_millis(1)
    } else if lo == 0 {
        Duration::from_millis(20 + 15 * u64::from(hi - 1))
    } else {
        Duration::from_millis(25 + 10 * u64::from(lo + hi))
    }
}

fn apply_latency_matrix(sim: &Simulation, sizes: &Sizes) {
    let nodes = FIRST_EDGE + sizes.regions + sizes.clients();
    for a in 0..nodes {
        for b in (a + 1)..nodes {
            let d = region_latency(region_of(sizes, a), region_of(sizes, b));
            sut::set_link_latency(sim, NodeId(a), NodeId(b), d);
        }
    }
}

const HEADER: usize = 16;
const STEP: u64 = 0x9e37_79b9_7f4a_7c15;

/// Length of asset `asset` (also its popularity rank). Ranks walk the
/// size range in a fixed low-discrepancy pattern and the seed moves each
/// length by at most 1 KiB: under Zipf a handful of assets carry most of
/// the traffic, and were their sizes drawn independently per seed the
/// bytes moved per get would swing by tens of percent from seed to seed.
fn asset_len(sizes: &Sizes, seed: u64, asset: u32) -> usize {
    const GOLDEN: f64 = 0.618_033_988_749_894_9;
    let span = (sizes.payload_max - sizes.payload_min - 1024) as f64;
    let walk = (0.5 + f64::from(asset + 1) * GOLDEN).fract();
    let nudge = Rng::new(seed, 1 << 40 | u64::from(asset)).range(0, 1024) as usize;
    sizes.payload_min + (span * walk) as usize + nudge
}

fn word_base(seed: u64, asset: u32, version: u32) -> u64 {
    Rng::new(seed, u64::from(asset) << 32 | u64::from(version)).next_u64()
}

/// The bytes of `(asset, version)`: a 16-byte header naming both and the
/// length, then a word sequence only that pair produces.
fn payload(seed: u64, asset: u32, version: u32, len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(len + 8);
    out.extend_from_slice(&asset.to_le_bytes());
    out.extend_from_slice(&version.to_le_bytes());
    out.extend_from_slice(&(len as u64).to_le_bytes());
    let mut w = word_base(seed, asset, version);
    while out.len() < len {
        out.extend_from_slice(&w.to_le_bytes());
        w = w.wrapping_add(STEP);
    }
    out.truncate(len);
    out
}

/// Regenerates the payload a get returned from the `(asset, version)` it
/// carries and compares every byte; returns the version on a match.
fn verify(bytes: &[u8], seed: u64, asset: u32, want_len: usize) -> Option<u32> {
    if bytes.len() != want_len || bytes.len() < HEADER {
        return None;
    }
    let got_asset = u32::from_le_bytes(bytes[0..4].try_into().ok()?);
    let version = u32::from_le_bytes(bytes[4..8].try_into().ok()?);
    let len = u64::from_le_bytes(bytes[8..16].try_into().ok()?);
    if got_asset != asset || len != want_len as u64 {
        return None;
    }
    let mut w = word_base(seed, asset, version);
    let mut words = bytes[HEADER..].chunks_exact(8);
    for chunk in &mut words {
        if chunk != w.to_le_bytes() {
            return None;
        }
        w = w.wrapping_add(STEP);
    }
    let rest = words.remainder();
    (rest == &w.to_le_bytes()[..rest.len()]).then_some(version)
}

fn asset_key(asset: u32) -> String {
    format!("asset-{asset}")
}

fn put_args(seed: u64, asset: u32, version: u32, len: usize) -> Value {
    Value::record([
        ("key", Value::str(asset_key(asset))),
        ("value", Value::blob(payload(seed, asset, version, len))),
    ])
}

fn get_args(key: &str) -> Value {
    Value::record([("key", Value::str(key))])
}

/// Binds `service`, retrying while it has not registered yet.
fn bind_patiently(
    core: &mut sut::SessionCore,
    ctx: &mut sut::Ctx,
    service: &str,
) -> Option<sut::ProxyHandle> {
    for _ in 0..400 {
        if let Ok(h) = sut::bind(core, ctx, service) {
            return Some(h);
        }
        if !sut::sleep(ctx, Duration::from_millis(5)) {
            return None;
        }
    }
    None
}

#[allow(clippy::too_many_lines)] // one run is one story: topology, services, publisher, clients
pub fn run(sizes: &Sizes, seed: u64, started: Instant) -> Outcome {
    let sizes = *sizes;
    let mut sim = sut::new_sim(sut::wan(), seed, 1, 1);
    apply_latency_matrix(&sim, &sizes);
    let ns = sut::spawn_name_server(&sim, NodeId(NODE_NS));
    let spec = ProxySpec::Bulk {
        inner: Box::new(ProxySpec::Stub),
        params: BulkParams {
            store: STORE.to_owned(),
            threshold: 4096,
            chunk: sizes.chunk,
            depth: 8,
        },
    };
    sut::spawn_kv(&sim, CATALOG, spec, NodeId(NODE_CATALOG), ns);
    sut::spawn_blob_store(&sim, STORE, NodeId(NODE_BLOB), ns);
    for r in 0..sizes.regions {
        sut::spawn_edge_cache(
            &sim,
            NodeId(FIRST_EDGE + r),
            ns,
            format!("edge{r}"),
            STORE,
            sizes.edge_capacity,
        );
    }
    let lens: Arc<Vec<usize>> = Arc::new(
        (0..sizes.assets)
            .map(|a| asset_len(&sizes, seed, a))
            .collect(),
    );

    let shared = SharedTally::default();
    let readers_done = Arc::new(AtomicU64::new(0));
    // Inputs are made here, before the clock starts: the first version of
    // every asset and each reader's list of gets.
    let initial: Vec<Value> = (0..sizes.assets)
        .map(|a| put_args(seed, a, 1, lens[a as usize]))
        .collect();
    let zipf = Zipf::new(sizes.assets as usize, sizes.zipf_s);

    // The publisher fills the catalog, announces it over the network, then
    // keeps re-putting assets until every reader has finished.
    {
        let (shared, lens, readers_done) = (shared.clone(), lens.clone(), readers_done.clone());
        let zipf = zipf.clone();
        let body = move |ctx: &mut sut::Ctx| {
            let mut local = Tally::default();
            let mut core = sut::session(ns);
            let Some(catalog) = bind_patiently(&mut core, ctx, CATALOG) else {
                local.error("publisher could not bind the catalog".to_owned());
                return merge_into(&shared, local);
            };
            let mut versions = vec![1u32; sizes.assets as usize];
            let mut put = |core: &mut sut::SessionCore, ctx: &mut sut::Ctx, args: Value| {
                if let Err(e) = sut::invoke(core, ctx, catalog, "put", args, 0) {
                    local.error(format!("publisher put failed: {e}"));
                }
            };
            for args in initial {
                put(&mut core, ctx, args);
            }
            let ready = Value::record([
                ("key", Value::str(MANIFEST)),
                ("value", Value::str("ready")),
            ]);
            put(&mut core, ctx, ready);
            let mut rng = Rng::new(seed, 1 << 41);
            while readers_done.load(Ordering::Relaxed) < u64::from(sizes.clients()) {
                if !sut::sleep(ctx, Duration::from_millis(sizes.republish_ms)) {
                    break;
                }
                // Popular assets change most often, as they would.
                let a = zipf.sample(&mut rng) as u32;
                versions[a as usize] += 1;
                let args = put_args(seed, a, versions[a as usize], lens[a as usize]);
                put(&mut core, ctx, args);
            }
            merge_into(&shared, local);
        };
        sut::spawn(&sim, "publisher".to_owned(), NodeId(NODE_PUBLISHER), body);
    }

    for r in 0..sizes.regions {
        for c in 0..sizes.clients_per_region {
            let id = r * sizes.clients_per_region + c;
            let node = NodeId(FIRST_EDGE + sizes.regions + id);
            let (shared, lens, readers_done) = (shared.clone(), lens.clone(), readers_done.clone());
            let mut rng = Rng::new(seed, u64::from(id));
            let gets: Vec<(u32, Value)> = (0..sizes.gets_per_client)
                .map(|_| {
                    let asset = zipf.sample(&mut rng) as u32;
                    (asset, get_args(&asset_key(asset)))
                })
                .collect();
            let reader = Reader {
                id,
                ns,
                route: format!("edge{r}"),
                seed,
                think: Duration::from_millis(sizes.think_ms),
                lens,
                gets,
            };
            sut::spawn(&sim, format!("r{r}c{c}"), node, move |ctx| {
                let mut local = Tally::default();
                reader.run(ctx, &mut local);
                readers_done.fetch_add(1, Ordering::Relaxed);
                merge_into(&shared, local);
            });
        }
    }

    let timed = timed_run(&mut sim, started);

    let mut tally = take(&shared);
    let done = tally.clients_done;
    tally.check(done == u64::from(sizes.clients()), || {
        format!("{done} of {} readers completed", sizes.clients())
    });
    Outcome {
        timed,
        tally,
        clients: u64::from(sizes.clients()),
        counts: Vec::new(),
        sizes: format!("{sizes:?}"),
    }
}

/// One reading client: its inputs, made before the clock started.
struct Reader {
    id: u32,
    ns: sut::Endpoint,
    /// The edge cache of the reader's region.
    route: String,
    seed: u64,
    think: Duration,
    /// Length of every asset.
    lens: Arc<Vec<usize>>,
    /// The assets to get, in order, with their argument records.
    gets: Vec<(u32, Value)>,
}

impl Reader {
    fn run(self, ctx: &mut sut::Ctx, local: &mut Tally) {
        let Reader {
            id,
            ns,
            route,
            seed,
            think,
            lens,
            gets,
        } = self;
        let mut core = sut::session_routed(ns, route);
        let Some(catalog) = bind_patiently(&mut core, ctx, CATALOG) else {
            return local.error(format!("reader {id} could not bind the catalog"));
        };
        // Wait, over the network, for the catalog to fill.
        let mut patience = 4000;
        loop {
            let v = sut::invoke(&mut core, ctx, catalog, "get", get_args(MANIFEST), 0);
            if matches!(&v, Ok(v) if v.as_str() == Some("ready")) {
                break;
            }
            patience -= 1;
            if patience == 0 || !sut::sleep(ctx, Duration::from_millis(10)) {
                return local.error(format!("reader {id}: the manifest never appeared"));
            }
        }
        let mut seen = vec![0u32; lens.len()];
        for (i, (asset, args)) in gets.into_iter().enumerate() {
            let req = u64::from(id) << 32 | i as u64;
            local.attempted += 1;
            let t0 = sut::now_ns(ctx);
            match sut::invoke(&mut core, ctx, catalog, "get", args, req) {
                Ok(v) => {
                    local.ok += 1;
                    local.latencies_ns.push(sut::now_ns(ctx) - t0);
                    let slot = asset as usize;
                    match v.as_blob().and_then(|b| verify(b, seed, asset, lens[slot])) {
                        Some(version) => {
                            if version < seen[slot] {
                                local.error(format!(
                                    "reader {id}: asset {asset} went back from v{} to v{version}",
                                    seen[slot]
                                ));
                            }
                            seen[slot] = version;
                        }
                        None => local.error(format!(
                            "reader {id}: asset {asset} came back with the wrong bytes"
                        )),
                    }
                }
                Err(e) => {
                    local.failed += 1;
                    local.error(format!("reader {id}: get {asset} failed: {e}"));
                }
            }
            if !sut::sleep(ctx, think) {
                return;
            }
        }
        local.clients_done = 1;
    }
}

pub fn sample_messages(seed: u64) -> Vec<Value> {
    let sizes = sizes(false);
    let me = sut::client_endpoint(NodeId(FIRST_EDGE + sizes.regions));
    let mut out = Vec::new();
    for asset in 0..8 {
        let len = asset_len(&sizes, seed, asset);
        let bytes = payload(seed, asset, 1, len);
        out.push(sut::request_value(me, "get", get_args(&asset_key(asset))));
        // The chunk protocol a resolve speaks: `{key, seq}` -> `{data}`.
        for (seq, chunk) in bytes.chunks(sizes.chunk).enumerate() {
            let args = Value::record([
                ("key", Value::str(format!("s/n3:65536/{asset}"))),
                ("seq", Value::U64(seq as u64)),
            ]);
            out.push(sut::request_value(me, "get_chunk", args));
            let data = Value::record([("data", Value::blob(chunk.to_vec()))]);
            out.push(sut::reply_value(data));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn payloads_verify_and_reject_any_flipped_byte() {
        for len in [HEADER, HEADER + 1, 8 * 1024, 8 * 1024 + 5] {
            let p = payload(9, 3, 7, len);
            assert_eq!(p.len(), len);
            assert_eq!(verify(&p, 9, 3, len), Some(7));
            assert_eq!(verify(&p, 9, 4, len), None, "wrong asset");
            if len > HEADER {
                assert_eq!(verify(&p, 8, 3, len), None, "wrong seed");
            }
            for at in [0, 5, len - 1] {
                let mut bad = p.clone();
                bad[at] ^= 0x40;
                assert_ne!(verify(&bad, 9, 3, len), Some(7), "flip at {at}");
            }
        }
    }

    #[test]
    fn regions_follow_the_node_layout() {
        let s = sizes(false);
        assert_eq!(region_of(&s, NODE_BLOB), 0);
        assert_eq!(region_of(&s, FIRST_EDGE + 2), 3);
        assert_eq!(region_of(&s, FIRST_EDGE + s.regions), 1);
        assert_eq!(region_of(&s, FIRST_EDGE + s.regions + 17), 3);
        assert_eq!(region_latency(0, 3), Duration::from_millis(50));
        assert_eq!(region_latency(2, 2), Duration::from_millis(1));
    }
}
