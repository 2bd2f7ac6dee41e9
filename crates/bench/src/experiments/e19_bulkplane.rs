//! E19 — Out-of-band bulk data plane: pass-by-reference proxies and
//! hierarchical edge caches under Zipf traffic.
//!
//! The proxy principle says the interface a client sees and the
//! transport the service uses are independent decisions. This experiment
//! puts the claim under a bulk-payload workload: a media catalog whose
//! values are tens of kilobytes each, read from three WAN regions under
//! Zipf popularity with a flash-crowd phase.
//!
//! * **Inline leg** — the catalog is a plain stub service. Every get
//!   drags the full payload across the WAN through the catalog node, on
//!   the RPC path.
//! * **Bulk leg** — the catalog publishes `ProxySpec::Bulk`: large
//!   values spill into a chunked blob store and the catalog holds a
//!   fixed-size `Value::Ref`. Clients resolve references through their
//!   *region's* edge cache (a `CachingProxy` over the origin store with
//!   invalidation coherence), so payload bytes leave the origin once per
//!   region and the catalog's RPC path carries only handles.
//!
//! Measured: RPC-path bytes through the catalog node (inline vs bulk —
//! the headline ≥5x reduction), per-region p50/p99 fetch latency in the
//! Zipf and flash phases (gated: a bulk get is a catalog round trip plus
//! at worst one origin round trip behind the non-blocking edge, so its
//! Zipf p99 must stay within 3x of inline in every region),
//! retransmissions per calling process (gated: the network loses
//! nothing, so only paths still learning their round trip may
//! retransmit — a cost that must not grow with the run),
//! edge-cache hit ratios (from the flight
//! recorder and the per-edge proxy stats), and a content checksum that
//! must be *identical* between legs — by-reference is a transport
//! optimization, never a semantic one. The bulk leg runs at 1 and 4
//! scheduler threads and must be byte-identical across them (summary
//! counters, causal trace JSONL, `RunReport` JSON), re-checked by
//! `ci.sh` with `cmp` on the exported `e19-t1`/`e19-t4` traces.
//!
//! Every gate above is on simulated time, bytes or counts; the one
//! wall-clock column is host-dependent and only printed (`benchmark/`'s
//! `bulk_edge` workload measures this shape's speed).
//!
//! `PROXIDE_SMOKE=1` shrinks the workload.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use proxy_core::{BulkParams, ProxySpec, ServiceBuilder, Session, SessionCore};
use services::blob::{spawn_edge_cache, BlobStore};
use services::kv::KvStore;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{capture_trace, check, obs_report, pick, ExperimentOutput, Table, TraceArtifact};

const SEED: u64 = 1900;

/// The thread counts the bulk leg is swept over (byte-identity gate).
const THREADS: [usize; 2] = [1, 4];

/// Retransmission budget on E19's loss-free network, per process that
/// makes calls (readers and edges). Zero is not attainable with a 10 ms
/// policy floor under 40-100 ms round trips: the first exchange on each
/// of a process's paths (name server, catalog, edge, origin) has no
/// estimate yet and retransmits two or three times before its reply
/// arrives. That is a fixed cost per process, whatever the run length;
/// what the budget catches is a path that never learns — fixed timers
/// cost 188 per process on the full workload.
const MAX_RETRIES_PER_PROCESS: f64 = 24.0;

/// One workload configuration.
#[derive(Debug, Clone, Copy)]
struct Config {
    /// Client regions (each gets an edge cache and its own latency row).
    regions: usize,
    clients_per_region: usize,
    /// Catalog size.
    assets: usize,
    /// Zipf-sampled reads per client.
    rounds: u32,
    /// Flash-crowd reads per client (everyone hammers one asset).
    flash_rounds: u32,
    /// Zipf exponent ×1000.
    zipf_s_x1000: u64,
    payload_min: usize,
    payload_max: usize,
    /// Edge cache capacity (chunk entries).
    edge_capacity: usize,
    /// Scheduler domains (fixed across legs; threads are swept).
    domains: usize,
}

impl Config {
    fn full() -> Config {
        Config {
            regions: 3,
            clients_per_region: 6,
            assets: 24,
            rounds: 30,
            flash_rounds: 10,
            zipf_s_x1000: 1100,
            payload_min: 8 * 1024,
            payload_max: 64 * 1024,
            edge_capacity: 256,
            domains: 8,
        }
    }

    fn smoke() -> Config {
        Config {
            regions: 3,
            clients_per_region: 2,
            assets: 8,
            rounds: 6,
            flash_rounds: 4,
            zipf_s_x1000: 1100,
            payload_min: 4 * 1024,
            payload_max: 24 * 1024,
            edge_capacity: 64,
            domains: 8,
        }
    }

    fn clients(&self) -> usize {
        self.regions * self.clients_per_region
    }

    fn gets_per_client(&self) -> u32 {
        self.rounds + self.flash_rounds
    }
}

// -- topology ----------------------------------------------------------

/// Fixed origin nodes; regions start after them.
const NODE_NS: u32 = 0;
const NODE_CATALOG: u32 = 1;
const NODE_BLOB: u32 = 2;
const NODE_PUBLISHER: u32 = 3;
const FIRST_EDGE: u32 = 4;

fn edge_node(cfg: Config, r: usize) -> NodeId {
    let _ = cfg;
    NodeId(FIRST_EDGE + r as u32)
}

fn client_node(cfg: Config, r: usize, c: usize) -> NodeId {
    NodeId(FIRST_EDGE + cfg.regions as u32 + (r * cfg.clients_per_region + c) as u32)
}

fn node_count(cfg: Config) -> u32 {
    FIRST_EDGE + cfg.regions as u32 + cfg.clients() as u32
}

/// Which latency region a node belongs to: 0 = origin, 1.. = client
/// regions.
fn region_of(cfg: Config, n: u32) -> usize {
    if n < FIRST_EDGE {
        return 0;
    }
    if n < FIRST_EDGE + cfg.regions as u32 {
        return (n - FIRST_EDGE) as usize + 1;
    }
    (n - FIRST_EDGE - cfg.regions as u32) as usize / cfg.clients_per_region + 1
}

/// One-way latency between two latency regions: 1ms inside a region,
/// widening WAN hops between the origin and each region and between
/// regions.
fn region_latency(a: usize, b: usize) -> Duration {
    if a == b {
        return Duration::from_millis(1);
    }
    let (lo, hi) = if a < b { (a, b) } else { (b, a) };
    if lo == 0 {
        // Origin to region r: 20ms, 35ms, 50ms, ...
        Duration::from_millis(20 + 15 * (hi as u64 - 1))
    } else {
        // Region to region (name-service chatter only).
        Duration::from_millis(25 + 10 * (lo as u64 + hi as u64))
    }
}

fn apply_latency_matrix(sim: &Simulation, cfg: Config) {
    let n = node_count(cfg);
    let mut net = sim.net();
    for a in 0..n {
        for b in (a + 1)..n {
            net.set_link_latency(
                NodeId(a),
                NodeId(b),
                region_latency(region_of(cfg, a), region_of(cfg, b)),
            );
        }
    }
}

// -- deterministic workload material -----------------------------------

/// xorshift64* — the per-client RNG. Seeded from the run seed and the
/// client id, so every leg and every thread count samples identically.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn next_f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Cumulative Zipf distribution over `n` assets with exponent `s`.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cum = Vec::with_capacity(n);
        let mut total = 0.0;
        for i in 0..n {
            total += 1.0 / ((i + 1) as f64).powf(s);
            cum.push(total);
        }
        for c in &mut cum {
            *c /= total;
        }
        Zipf(cum)
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// Deterministic per-asset payload: the length is seeded by the asset
/// id, the bytes by a rolling pattern — both legs must serve exactly
/// these bytes end-to-end.
fn asset_len(cfg: Config, asset: usize) -> usize {
    let span = cfg.payload_max - cfg.payload_min;
    let mut h = Rng::new(SEED ^ (asset as u64).wrapping_mul(0x517c_c1b7_2722_0a95));
    cfg.payload_min + (h.next() as usize % span.max(1))
}

fn asset_payload(cfg: Config, asset: usize) -> Vec<u8> {
    let len = asset_len(cfg, asset);
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(asset as u8))
        .collect()
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_bytes(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

// -- one leg -----------------------------------------------------------

/// Latencies of one region, split by phase (nanoseconds, unsorted).
#[derive(Default)]
struct RegionLat {
    zipf: Vec<u64>,
    flash: Vec<u64>,
}

struct Leg {
    label: String,
    wall: Duration,
    /// XOR over per-call FNV digests of (client, round, asset, bytes):
    /// order-independent, content- and position-sensitive.
    checksum: u64,
    completed: u64,
    ok_gets: u64,
    /// Wire bytes on links touching the catalog node — the RPC path.
    catalog_bytes: u64,
    /// Wire bytes on links touching the origin blob node.
    origin_blob_bytes: u64,
    bytes: u64,
    lat: Vec<RegionLat>,
    /// Retransmissions sent, and the processes (readers, edges) that
    /// could have sent them.
    retries: u64,
    callers: u64,
    /// Per-edge `(owner, local_hits, remote_calls)`.
    edges: Vec<(String, u64, u64)>,
    /// Flight-recorder counters over the origin store's chunk ops.
    ts_cache_hit: u64,
    ts_cache_miss: u64,
    bulk_resolves: u64,
    summary: String,
    trace_jsonl: String,
    report_json: String,
    trace: TraceArtifact,
    obs: crate::ObsReport,
}

impl Leg {
    fn retries_per_process(&self) -> f64 {
        self.retries as f64 / self.callers as f64
    }
    fn edge_hit_ratio(&self) -> f64 {
        let (h, m) = self
            .edges
            .iter()
            .fold((0u64, 0u64), |(h, m), e| (h + e.1, m + e.2));
        if h + m == 0 {
            0.0
        } else {
            h as f64 / (h + m) as f64
        }
    }
}

fn pct(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len()) - 1;
    sorted[idx]
}

/// Parses `link_bytes@nA->nB` into `(A, B)`.
fn parse_link(series: &str) -> Option<(u32, u32)> {
    let rest = series.strip_prefix("link_bytes@n")?;
    let (a, b) = rest.split_once("->n")?;
    Some((a.parse().ok()?, b.parse().ok()?))
}

#[allow(clippy::too_many_lines)] // one leg is one story: topology, services, clients, harvest
fn run_leg(cfg: Config, bulk: bool, threads: usize) -> Leg {
    let label = if bulk {
        format!("bulk-t{threads}")
    } else {
        format!("inline-t{threads}")
    };
    let mut sim = Simulation::new(NetworkConfig::wan(), SEED)
        .with_domains(cfg.domains)
        .with_threads(threads);
    apply_latency_matrix(&sim, cfg);
    sim.enable_trace(1 << 16);
    sim.obs().enable_timeseries(50_000_000, 4096);

    let ns = naming::spawn_name_server(&sim, NodeId(NODE_NS));

    let params = BulkParams {
        store: "blob".into(),
        threshold: 4096,
        chunk: 16 * 1024,
        depth: 8,
    };
    let spec = if bulk {
        ProxySpec::Bulk {
            inner: Box::new(ProxySpec::Stub),
            params: params.clone(),
        }
    } else {
        ProxySpec::Stub
    };
    ServiceBuilder::new("catalog")
        .spec(spec)
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(NODE_CATALOG), ns);
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(NODE_BLOB), ns);
    if bulk {
        for r in 0..cfg.regions {
            spawn_edge_cache(
                &sim,
                edge_node(cfg, r),
                ns,
                format!("edge{r}"),
                "blob",
                cfg.edge_capacity,
            );
        }
    }

    // The publisher fills the catalog, then writes the manifest key the
    // readers poll for. All coordination rides the simulated network so
    // thread count cannot reorder anything observable.
    sim.spawn("publisher", NodeId(NODE_PUBLISHER), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let mut patience = 200;
        let catalog = loop {
            match s.bind("catalog") {
                Ok(h) => break h,
                Err(_) => {
                    patience -= 1;
                    assert!(patience > 0, "publisher could not bind the catalog");
                    if s.ctx().sleep(Duration::from_millis(5)).is_err() {
                        return;
                    }
                }
            }
        };
        for a in 0..cfg.assets {
            s.invoke(
                catalog,
                "put",
                Value::record([
                    ("key", Value::str(format!("asset-{a}"))),
                    ("value", Value::blob(asset_payload(cfg, a))),
                ]),
            )
            .expect("publish must succeed");
        }
        s.invoke(
            catalog,
            "put",
            Value::record([
                ("key", Value::str("__manifest")),
                ("value", Value::str("ready")),
            ]),
        )
        .expect("manifest must publish");
    });

    let checksum = Arc::new(AtomicU64::new(0));
    let completed = Arc::new(AtomicU64::new(0));
    let ok_gets = Arc::new(AtomicU64::new(0));
    let lat: Vec<Arc<Mutex<RegionLat>>> = (0..cfg.regions)
        .map(|_| Arc::new(Mutex::new(RegionLat::default())))
        .collect();

    for r in 0..cfg.regions {
        for c in 0..cfg.clients_per_region {
            let id = r * cfg.clients_per_region + c;
            let route = bulk.then(|| format!("edge{r}"));
            let checksum = Arc::clone(&checksum);
            let completed = Arc::clone(&completed);
            let ok_gets = Arc::clone(&ok_gets);
            let lat = Arc::clone(&lat[r]);
            sim.spawn(format!("r{r}c{c}"), client_node(cfg, r, c), move |ctx| {
                let mut rt = SessionCore::new(ns);
                rt.binder_mut().set_bulk_route(route);
                let mut s = Session::new(&mut rt, ctx);
                let mut patience = 400;
                let catalog = loop {
                    match s.bind("catalog") {
                        Ok(h) => break h,
                        Err(_) => {
                            patience -= 1;
                            assert!(patience > 0, "client {id} could not bind");
                            if s.ctx().sleep(Duration::from_millis(5)).is_err() {
                                return;
                            }
                        }
                    }
                };
                // Wait (over the network) for the catalog to fill.
                let mut patience = 4000;
                loop {
                    let v = s.invoke(
                        catalog,
                        "get",
                        Value::record([("key", Value::str("__manifest"))]),
                    );
                    if matches!(&v, Ok(v) if v.as_str() == Some("ready")) {
                        break;
                    }
                    patience -= 1;
                    assert!(patience > 0, "client {id}: manifest never appeared");
                    if s.ctx().sleep(Duration::from_millis(10)).is_err() {
                        return;
                    }
                }
                let zipf = Zipf::new(cfg.assets, cfg.zipf_s_x1000 as f64 / 1000.0);
                let mut rng = Rng::new(SEED ^ ((id as u64) << 17));
                let mut sum = 0u64;
                let mut ok = 0u64;
                for round in 0..cfg.gets_per_client() {
                    let flash = round >= cfg.rounds;
                    // Flash crowd: everyone piles on the *least* popular
                    // asset — cold at every edge when the crowd arrives.
                    let asset = if flash {
                        cfg.assets - 1
                    } else {
                        zipf.sample(&mut rng)
                    };
                    let t0 = ctx_now(&mut s);
                    let mut patience = 40;
                    let v = loop {
                        match s.invoke(
                            catalog,
                            "get",
                            Value::record([("key", Value::str(format!("asset-{asset}")))]),
                        ) {
                            Ok(v) => break v,
                            Err(e) => {
                                patience -= 1;
                                assert!(patience > 0, "client {id} get failed for good: {e}");
                                if s.ctx().sleep(Duration::from_millis(10)).is_err() {
                                    return;
                                }
                            }
                        }
                    };
                    let dt = ctx_now(&mut s) - t0;
                    let bytes = v.as_blob().expect("catalog serves blobs");
                    let mut h = FNV_OFFSET;
                    h = fnv_bytes(h, &(id as u64).to_le_bytes());
                    h = fnv_bytes(h, &u64::from(round).to_le_bytes());
                    h = fnv_bytes(h, &(asset as u64).to_le_bytes());
                    h = fnv_bytes(h, bytes);
                    sum ^= h;
                    ok += 1;
                    {
                        let mut l = lat.lock().unwrap();
                        if flash {
                            l.flash.push(dt);
                        } else {
                            l.zipf.push(dt);
                        }
                    }
                    if s.ctx().sleep(Duration::from_millis(2)).is_err() {
                        return;
                    }
                }
                checksum.fetch_xor(sum, Ordering::Relaxed);
                ok_gets.fetch_add(ok, Ordering::Relaxed);
                completed.fetch_add(1, Ordering::Relaxed);
            });
        }
    }

    let t0 = Instant::now();
    let run = sim.run();
    let wall = t0.elapsed();

    let report = sim.obs_report();
    let ts = report.timeseries.as_ref().expect("recorder was on");
    let mut catalog_bytes = 0u64;
    let mut origin_blob_bytes = 0u64;
    for name in ts.series_names() {
        if let Some((a, b)) = parse_link(&name) {
            let total = ts.counter_total(&name);
            if a == NODE_CATALOG || b == NODE_CATALOG {
                catalog_bytes += total;
            }
            if a == NODE_BLOB || b == NODE_BLOB {
                origin_blob_bytes += total;
            }
        }
    }
    let edges: Vec<(String, u64, u64)> = report
        .proxies
        .iter()
        .filter(|(k, _)| k.starts_with("blob@edge-"))
        .map(|(k, s)| (k.clone(), s.local_hits, s.remote_calls))
        .collect();
    let bulk_resolves: u64 = report.proxies.values().map(|s| s.bulk_resolves).sum();

    let trace = capture_trace(format!("t{threads}"), &sim);
    let trace_jsonl = obs::to_jsonl(&trace.trace);
    let obs_rep = obs_report(format!("e19-{label}"), &sim);
    let report_json = obs_rep.json.clone();
    let summary = format!(
        "end={} sent={} delivered={} events={} spawned={} finished={} alive={}",
        run.end_time.as_nanos(),
        run.metrics.msgs_sent,
        run.metrics.msgs_delivered,
        run.metrics.events_dispatched,
        run.metrics.processes_spawned,
        run.finished,
        run.alive
    );
    Leg {
        label,
        wall,
        checksum: checksum.load(Ordering::Relaxed),
        completed: completed.load(Ordering::Relaxed),
        ok_gets: ok_gets.load(Ordering::Relaxed),
        catalog_bytes,
        origin_blob_bytes,
        bytes: run.metrics.bytes_sent,
        retries: report.rpc.client.retries,
        callers: (cfg.clients() + if bulk { cfg.regions } else { 0 }) as u64,
        lat: lat
            .iter()
            .map(|l| {
                let mut l = l.lock().unwrap();
                l.zipf.sort_unstable();
                l.flash.sort_unstable();
                RegionLat {
                    zipf: std::mem::take(&mut l.zipf),
                    flash: std::mem::take(&mut l.flash),
                }
            })
            .collect(),
        edges,
        ts_cache_hit: ts.counter_total("cache_hit@blob"),
        ts_cache_miss: ts.counter_total("cache_miss@blob"),
        bulk_resolves,
        summary,
        trace_jsonl,
        report_json,
        trace,
        obs: obs_rep,
    }
}

/// The session's current virtual time, in nanoseconds.
fn ctx_now(s: &mut Session<'_>) -> u64 {
    s.ctx().now().as_nanos()
}

/// Runs E19 and returns its tables and shape checks.
#[allow(clippy::too_many_lines)] // three legs, four tables, eleven checks
pub fn run() -> ExperimentOutput {
    let (cfg, mode) = pick(Config::full(), Config::smoke());

    let inline = run_leg(cfg, false, 1);
    let bulk_legs: Vec<Leg> = THREADS.iter().map(|&t| run_leg(cfg, true, t)).collect();
    let bulk = &bulk_legs[0];
    let bulk4 = bulk_legs.last().expect("sweep is non-empty");

    let reduction = inline.catalog_bytes as f64 / (bulk.catalog_bytes.max(1)) as f64;
    let identical_results = inline.checksum == bulk.checksum && inline.checksum != 0;

    let mut divergences = Vec::new();
    if bulk4.summary != bulk.summary {
        divergences.push("summary counters".to_owned());
    }
    if bulk4.trace_jsonl != bulk.trace_jsonl {
        divergences.push("causal trace".to_owned());
    }
    if bulk4.report_json != bulk.report_json {
        divergences.push("RunReport JSON".to_owned());
    }
    if bulk4.checksum != bulk.checksum {
        divergences.push("content checksum".to_owned());
    }
    let deterministic = divergences.is_empty();

    let total_gets = cfg.clients() as u64 * u64::from(cfg.gets_per_client());

    let mut bytes_table = Table::new(
        format!(
            "RPC-path bytes ({mode}) — {} regions x {} clients, {} assets, \
             {} zipf + {} flash rounds",
            cfg.regions, cfg.clients_per_region, cfg.assets, cfg.rounds, cfg.flash_rounds
        ),
        &[
            "leg",
            "catalog bytes",
            "origin-blob bytes",
            "total bytes",
            "wall ms (host)",
        ],
    );
    for l in std::iter::once(&inline).chain(bulk_legs.iter()) {
        bytes_table.add_row(vec![
            l.label.clone(),
            l.catalog_bytes.to_string(),
            l.origin_blob_bytes.to_string(),
            l.bytes.to_string(),
            format!("{:.2}", l.wall.as_secs_f64() * 1e3),
        ]);
    }

    let mut lat_table = Table::new(
        "per-region fetch latency (ms) — inline vs bulk (t1)",
        &[
            "region",
            "phase",
            "inline p50",
            "bulk p50",
            "inline p99",
            "bulk p99",
        ],
    );
    for r in 0..cfg.regions {
        for phase in ["zipf", "flash"] {
            let sel = |l: &RegionLat| {
                if phase == "zipf" {
                    l.zipf.clone()
                } else {
                    l.flash.clone()
                }
            };
            let il = sel(&inline.lat[r]);
            let bl = sel(&bulk.lat[r]);
            lat_table.add_row(vec![
                format!("r{r}"),
                phase.to_owned(),
                format!("{:.2}", pct(&il, 0.50) as f64 / 1e6),
                format!("{:.2}", pct(&bl, 0.50) as f64 / 1e6),
                format!("{:.2}", pct(&il, 0.99) as f64 / 1e6),
                format!("{:.2}", pct(&bl, 0.99) as f64 / 1e6),
            ]);
        }
    }

    let mut edge_table = Table::new(
        "edge-cache hierarchy (bulk t1) — per-edge hits vs origin fetches",
        &["edge", "local hits", "origin calls", "hit ratio"],
    );
    for (owner, hits, remote) in &bulk.edges {
        edge_table.add_row(vec![
            owner.clone(),
            hits.to_string(),
            remote.to_string(),
            format!("{:.3}", *hits as f64 / (*hits + *remote).max(1) as f64),
        ]);
    }
    edge_table.add_row(vec![
        "flight-recorder".into(),
        bulk.ts_cache_hit.to_string(),
        bulk.ts_cache_miss.to_string(),
        format!(
            "{:.3}",
            bulk.ts_cache_hit as f64 / (bulk.ts_cache_hit + bulk.ts_cache_miss).max(1) as f64
        ),
    ]);

    // The tail gate: a cold bulk get is the catalog round trip inline
    // also pays, plus the edge's name lookup (first get only) and one
    // origin round trip for the chunks — three round trips at worst.
    let p99_over_inline: Vec<f64> = (0..cfg.regions)
        .map(|r| pct(&bulk.lat[r].zipf, 0.99) as f64 / pct(&inline.lat[r].zipf, 0.99).max(1) as f64)
        .collect();
    let p99_over_inline_max = p99_over_inline.iter().copied().fold(0.0, f64::max);

    // Flash-phase medians: every bulk get still pays the catalog WAN
    // round-trip for the (fixed-size) reference, so the median cannot
    // *beat* inline — the claim is parity: moving the payload off the
    // RPC path costs nothing at the median, because once the crowd's
    // first fetch warms each region's edge the resolve is region-local.
    let flash_p50_parity = (0..cfg.regions).all(|r| {
        pct(&bulk.lat[r].flash, 0.50) as f64 <= pct(&inline.lat[r].flash, 0.50) as f64 * 1.25
    });

    let checks = vec![
        check(
            "by-reference results are identical to inline marshalling",
            identical_results,
            format!(
                "content checksum inline={:016x} bulk={:016x}",
                inline.checksum, bulk.checksum
            ),
        ),
        check(
            ">=5x reduction in RPC-path bytes through the catalog node",
            reduction >= 5.0,
            format!(
                "inline {} B vs bulk {} B — {reduction:.1}x",
                inline.catalog_bytes, bulk.catalog_bytes
            ),
        ),
        check(
            "bulk leg byte-identical across scheduler threads (1 vs 4)",
            deterministic,
            if deterministic {
                "summary + causal trace + RunReport JSON + checksum identical".to_owned()
            } else {
                format!("diverged: {}", divergences.join(", "))
            },
        ),
        check(
            "every client completed every get in every leg",
            std::iter::once(&inline)
                .chain(bulk_legs.iter())
                .all(|l| l.completed == cfg.clients() as u64 && l.ok_gets == total_gets),
            format!(
                "completed/gets per leg: {:?} (want {}/{total_gets})",
                std::iter::once(&inline)
                    .chain(bulk_legs.iter())
                    .map(|l| (l.completed, l.ok_gets))
                    .collect::<Vec<_>>(),
                cfg.clients()
            ),
        ),
        check(
            "edge hierarchy absorbs repeat fetches (hit ratio >= 0.5)",
            bulk.edge_hit_ratio() >= 0.5,
            format!(
                "{:.3} across {} edges ({} payload resolves)",
                bulk.edge_hit_ratio(),
                bulk.edges.len(),
                bulk.bulk_resolves
            ),
        ),
        check(
            "flash crowd served from the edge: bulk flash p50 within 1.25x of inline per region",
            flash_p50_parity,
            (0..cfg.regions)
                .map(|r| {
                    format!(
                        "r{r} {:.1}->{:.1}ms",
                        pct(&inline.lat[r].flash, 0.50) as f64 / 1e6,
                        pct(&bulk.lat[r].flash, 0.50) as f64 / 1e6
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
        ),
        check(
            "cold-miss tail bounded: bulk Zipf p99 within 3x of inline in every region",
            p99_over_inline_max <= 3.0,
            (0..cfg.regions)
                .map(|r| {
                    format!(
                        "r{r} {:.1}->{:.1}ms ({:.2}x)",
                        pct(&inline.lat[r].zipf, 0.99) as f64 / 1e6,
                        pct(&bulk.lat[r].zipf, 0.99) as f64 / 1e6,
                        p99_over_inline[r]
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
        ),
        check(
            "loss-free network: only paths still learning their round trip retransmit \
             (<= 24 retries per calling process in every leg)",
            std::iter::once(&inline)
                .chain(bulk_legs.iter())
                .all(|l| l.retries_per_process() <= MAX_RETRIES_PER_PROCESS),
            std::iter::once(&inline)
                .chain(bulk_legs.iter())
                .map(|l| {
                    format!(
                        "{} {}/{} ({:.1})",
                        l.label,
                        l.retries,
                        l.callers,
                        l.retries_per_process()
                    )
                })
                .collect::<Vec<_>>()
                .join(", "),
        ),
        check(
            "payload crosses the WAN per-region, not per-client: bulk origin bytes < inline/2",
            bulk.origin_blob_bytes * 2 < inline.catalog_bytes,
            format!(
                "bulk origin-blob {} B vs inline catalog {} B",
                bulk.origin_blob_bytes, inline.catalog_bytes
            ),
        ),
        check(
            "every region has an active edge with origin traffic",
            bulk.edges.len() == cfg.regions && bulk.edges.iter().all(|e| e.2 > 0),
            format!("{} edges: {:?}", bulk.edges.len(), bulk.edges),
        ),
    ];

    let mut traces = Vec::new();
    let mut reports = Vec::new();
    for l in bulk_legs {
        traces.push(l.trace);
        reports.push(l.obs);
    }

    ExperimentOutput {
        id: "E19",
        title: "Out-of-band bulk data plane (pass-by-reference proxies, hierarchical edge caches)",
        tables: vec![bytes_table, lat_table, edge_table],
        checks,
        reports,
        traces,
    }
}
