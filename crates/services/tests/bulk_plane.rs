//! End-to-end tests of the out-of-band bulk data plane: pass-by-reference
//! proxies over the blob store, the two-level edge-cache hierarchy (its
//! coherence, and the non-blocking miss path: no head-of-line blocking,
//! single-flight fills), and chunked reassembly under network chaos.

#![recursion_limit = "256"]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use naming::spawn_name_server;
use parking_lot::Mutex;
use proptest::prelude::*;
use proxy_core::bulk::{ops, BlobClient};
use proxy_core::{
    protocol, BulkParams, CachingParams, Coherence, InterfaceDesc, ProxySpec, ServiceBuilder,
    ServiceObject, SessionCore,
};
use services::blob::{spawn_edge_cache, BlobStore};
use services::kv::KvStore;
use simnet::{Ctx, NetworkConfig, NodeId, SimTime, Simulation};
use wire::Value;

fn payload(len: usize, seed: u8) -> Vec<u8> {
    (0..len)
        .map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed))
        .collect()
}

/// A bulk-enabled stub proxy spills a large put argument out-of-band and
/// resolves the reference on get — the client sees plain blobs on both
/// ends while the KV service only ever holds a fixed-size handle.
#[test]
fn stub_proxy_spills_and_resolves_through_blob_store() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Bulk {
            inner: Box::new(ProxySpec::Stub),
            params: BulkParams::default(),
        })
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(2), ns);
    sim.spawn_async("client", NodeId(3), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let kv = rt.attach(cx, "kv").await.unwrap();
        let data = payload(256 * 1024, 3);
        rt.call(
            cx,
            kv,
            "put",
            Value::record([
                ("key", Value::str("asset")),
                ("value", Value::blob(data.clone())),
            ]),
        )
        .await
        .unwrap();
        let got = rt
            .call(cx, kv, "get", Value::record([("key", Value::str("asset"))]))
            .await
            .unwrap();
        assert_eq!(got.as_blob().map(|b| b.as_ref()), Some(&data[..]));
        let stats = rt.stats(kv);
        assert_eq!(stats.bulk_spills, 1, "large put must spill");
        assert_eq!(stats.bulk_resolves, 1, "get must resolve the ref");
        // Small values stay inline: no extra spill.
        rt.call(
            cx,
            kv,
            "put",
            Value::record([("key", Value::str("tiny")), ("value", Value::blob(vec![1]))]),
        )
        .await
        .unwrap();
        assert_eq!(rt.stats(kv).bulk_spills, 1);
    });
    sim.run();
}

/// A bulk-enabled caching proxy resolves a reference once; the repeat
/// read is a pure local hit serving the already-resolved bytes.
#[test]
fn caching_proxy_caches_resolved_bulk_values() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 8);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Bulk {
            inner: Box::new(ProxySpec::Caching(CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 64,
            })),
            params: BulkParams::default(),
        })
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(2), ns);
    sim.spawn_async("client", NodeId(3), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let kv = rt.attach(cx, "kv").await.unwrap();
        let data = payload(64 * 1024, 9);
        rt.call(
            cx,
            kv,
            "put",
            Value::record([
                ("key", Value::str("a")),
                ("value", Value::blob(data.clone())),
            ]),
        )
        .await
        .unwrap();
        for _ in 0..3 {
            let got = rt
                .call(cx, kv, "get", Value::record([("key", Value::str("a"))]))
                .await
                .unwrap();
            assert_eq!(got.as_blob().map(|b| b.as_ref()), Some(&data[..]));
        }
        let stats = rt.stats(kv);
        assert_eq!(stats.bulk_resolves, 1, "only the miss fetches out-of-band");
        assert_eq!(stats.local_hits, 2, "repeat reads are local");
    });
    sim.run();
}

/// Satellite 4: two-level hierarchy invalidation. A write at the origin
/// must never let the edge serve the stale blob once the invalidation is
/// delivered — the reader observes the writer's bytes through the edge.
/// The chaos leg (duplicates + reordering, which delay but never drop
/// delivery) asserts the same read-your-writes property, and adds a
/// racer that keeps version-1 fills in flight at the edge while the
/// write's invalidations land: a fill the invalidation overtook must not
/// be what the edge serves afterwards.
fn hierarchy_invalidation(net: NetworkConfig, seed: u64, racer: bool) {
    let mut sim = Simulation::new(net, seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    spawn_edge_cache(&sim, NodeId(2), ns, "edge1", "blob", 64);
    let refs: Arc<Mutex<Vec<wire::BlobRef>>> = Arc::new(Mutex::new(Vec::new()));
    // Set once the reader has warmed the edge with version 1; the writer
    // holds version 2 until then, so the phases never race.
    let warmed = Arc::new(Mutex::new(false));
    let writer_refs = Arc::clone(&refs);
    let writer_warmed = Arc::clone(&warmed);
    sim.spawn("writer", NodeId(3), move |ctx| {
        let mut client = BlobClient::new("blob", ns, 4096, 4);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        ctx.sleep(Duration::from_millis(50)).unwrap();
        let data = Bytes::from(payload(40_000, 1));
        let r1 = ctx
            .block_on(|cx| client.put(cx, "asset", &data, &mut strays))
            .unwrap();
        writer_refs.lock().push(r1);
        let mut patience = 3000;
        while !*writer_warmed.lock() {
            patience -= 1;
            assert!(patience > 0, "reader never warmed the edge");
            ctx.sleep(Duration::from_millis(10)).unwrap();
        }
        let data = Bytes::from(payload(52_000, 2));
        let r2 = ctx
            .block_on(|cx| client.put(cx, "asset", &data, &mut strays))
            .unwrap();
        writer_refs.lock().push(r2);
    });
    if racer {
        let racer_refs = Arc::clone(&refs);
        sim.spawn("racer", NodeId(5), move |ctx| {
            let mut edge = BlobClient::new("edge1", ns, 4096, 4);
            let mut strays: Vec<rpc::Oneway> = Vec::new();
            let mut since_write = 0;
            // Until well after the second version is out; fetches that
            // straddle the write fail verification, which is the point.
            while since_write < 60 {
                let (first, written) = {
                    let refs = racer_refs.lock();
                    (refs.first().cloned(), refs.len() > 1)
                };
                if let Some(r1) = first {
                    let _ = ctx.block_on(|cx| edge.get(cx, &r1, &mut strays));
                }
                since_write += u32::from(written);
                if ctx.sleep(Duration::from_millis(2)).is_err() {
                    return;
                }
            }
        });
    }
    let reader_refs = Arc::clone(&refs);
    sim.spawn("reader", NodeId(4), move |ctx| {
        let wait_for_ref = |ctx: &mut simnet::Ctx, n: usize| {
            let mut patience = 3000;
            loop {
                if let Some(r) = reader_refs.lock().get(n) {
                    break r.clone();
                }
                patience -= 1;
                assert!(patience > 0, "writer never published ref {n}");
                ctx.sleep(Duration::from_millis(10)).unwrap();
            }
        };
        let mut edge = BlobClient::new("edge1", ns, 4096, 4);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        // Warm the edge with the first version.
        let r1 = wait_for_ref(ctx, 0);
        let v1 = ctx.block_on(|cx| edge.get(cx, &r1, &mut strays)).unwrap();
        assert_eq!(v1.as_ref(), &payload(40_000, 1)[..]);
        // Cached repeat read, still version 1 (no write happened yet).
        let again = ctx.block_on(|cx| edge.get(cx, &r1, &mut strays)).unwrap();
        assert_eq!(again, v1);
        *warmed.lock() = true;
        // After the origin write + invalidation delivery, the edge must
        // serve version 2 — CRC verification in `get` would reject any
        // stale chunk it tried to serve.
        let r2 = wait_for_ref(ctx, 1);
        ctx.sleep(Duration::from_millis(if racer { 400 } else { 100 }))
            .unwrap();
        let v2 = ctx.block_on(|cx| edge.get(cx, &r2, &mut strays)).unwrap();
        assert_eq!(v2.as_ref(), &payload(52_000, 2)[..]);
    });
    sim.run();
}

#[test]
fn edge_cache_honours_origin_invalidation() {
    hierarchy_invalidation(NetworkConfig::wan(), 21, false);
}

#[test]
fn edge_cache_honours_origin_invalidation_under_chaos() {
    hierarchy_invalidation(
        NetworkConfig::wan()
            .with_duplicate(0.10)
            .with_reorder_window(Duration::from_millis(2)),
        22,
        true,
    );
}

/// A blob store that counts the chunk reads it executes.
struct CountingStore {
    inner: Box<dyn ServiceObject>,
    chunk_reads: Arc<AtomicU64>,
}

impl ServiceObject for CountingStore {
    fn interface(&self) -> InterfaceDesc {
        self.inner.interface()
    }

    fn dispatch(
        &mut self,
        ctx: &mut Ctx,
        op: &str,
        args: &Value,
    ) -> Result<Value, rpc::RemoteError> {
        if op == ops::GET_CHUNK {
            self.chunk_reads.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.dispatch(ctx, op, args)
    }
}

const ORIGIN: NodeId = NodeId(1);
const EDGE: NodeId = NodeId(2);
const CHUNK: usize = 4096;
/// Chunks in each blob of [`edge_over_a_far_origin`].
const CHUNKS: u64 = 10;

/// A LAN whose origin store sits 50 ms (one way) from the edge `edge1`.
/// The origin counts its chunk reads and holds `keys` from time zero
/// (40 kB each: [`CHUNKS`] chunks of 4 KiB). Returns the simulation, the
/// name server, the chunk-read counter and a reference per key.
fn edge_over_a_far_origin(
    seed: u64,
    keys: &[&str],
) -> (
    Simulation,
    simnet::Endpoint,
    Arc<AtomicU64>,
    Vec<wire::BlobRef>,
) {
    let sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.net()
        .set_link_latency(ORIGIN, EDGE, Duration::from_millis(50));
    let ns = spawn_name_server(&sim, NodeId(0));
    let mut refs = Vec::new();
    let mut stored = Vec::new();
    for (i, key) in keys.iter().enumerate() {
        let data = payload(40_000, i as u8);
        let crc = wire::crc32(&data);
        refs.push(wire::BlobRef {
            store: "blob".into(),
            key: (*key).into(),
            len: data.len() as u64,
            crc,
        });
        stored.push((
            (*key).to_owned(),
            Value::record([
                ("len", Value::U64(data.len() as u64)),
                ("crc", Value::U64(u64::from(crc))),
                (
                    "chunks",
                    Value::list(data.chunks(CHUNK).map(|c| Value::blob(c.to_vec()))),
                ),
            ]),
        ));
    }
    let snapshot = Value::record(stored);
    let chunk_reads = Arc::new(AtomicU64::new(0));
    let counter = Arc::clone(&chunk_reads);
    ServiceBuilder::new("blob")
        .object(move || {
            Box::new(CountingStore {
                inner: BlobStore::from_snapshot(&snapshot).expect("well-formed snapshot"),
                chunk_reads: Arc::clone(&counter),
            })
        })
        .spawn(&sim, ORIGIN, ns);
    spawn_edge_cache(&sim, EDGE, ns, "edge1", "blob", 64);
    (sim, ns, chunk_reads, refs)
}

/// Sleeps until the absolute simulated instant `at`.
fn sleep_until(ctx: &mut Ctx, at: SimTime) {
    ctx.sleep(at.saturating_since(ctx.now())).unwrap();
}

/// Fetches `r` through the edge, retrying while the edge is still
/// registering, and returns when the fetch started and ended.
fn fetch_via_edge(
    ctx: &mut Ctx,
    edge: &mut BlobClient,
    r: &wire::BlobRef,
    want: &[u8],
) -> (SimTime, SimTime) {
    let mut strays: Vec<rpc::Oneway> = Vec::new();
    let mut patience = 200;
    loop {
        let started = ctx.now();
        match ctx.block_on(|cx| edge.get(cx, r, &mut strays)) {
            Ok(bytes) => {
                assert_eq!(bytes.as_ref(), want);
                return (started, ctx.now());
            }
            Err(e) => {
                patience -= 1;
                assert!(patience > 0, "fetch through the edge failed for good: {e}");
                ctx.sleep(Duration::from_millis(5)).unwrap();
            }
        }
    }
}

/// (a) No head-of-line blocking: while one client's cold miss waits on
/// the 100 ms origin round trip, another client's hit on the same edge
/// completes in a few local round trips.
#[test]
fn edge_hit_is_not_queued_behind_an_outstanding_miss() {
    let (mut sim, ns, _, refs) = edge_over_a_far_origin(31, &["cold", "warm"]);
    let go = SimTime::ZERO + Duration::from_secs(2);
    let spans = Arc::new(Mutex::new(Vec::new()));
    let (cold, warm) = (refs[0].clone(), refs[1].clone());
    let out = Arc::clone(&spans);
    sim.spawn("misser", NodeId(3), move |ctx| {
        let mut edge = BlobClient::new("edge1", ns, CHUNK, 4);
        sleep_until(ctx, go);
        let span = fetch_via_edge(ctx, &mut edge, &cold, &payload(40_000, 0));
        out.lock().push(("miss", span));
    });
    let out = Arc::clone(&spans);
    sim.spawn("hitter", NodeId(4), move |ctx| {
        let mut edge = BlobClient::new("edge1", ns, CHUNK, 4);
        // Warm the edge well before the miss starts.
        fetch_via_edge(ctx, &mut edge, &warm, &payload(40_000, 1));
        sleep_until(ctx, go + Duration::from_millis(5));
        let span = fetch_via_edge(ctx, &mut edge, &warm, &payload(40_000, 1));
        out.lock().push(("hit", span));
    });
    sim.run();
    let spans = spans.lock();
    let of = |name| spans.iter().find(|(n, _)| *n == name).expect("both ran").1;
    let (miss, hit) = (of("miss"), of("hit"));
    assert!(
        miss.1 - miss.0 >= Duration::from_millis(100),
        "the miss did not cross to the origin: {:?}",
        miss.1 - miss.0
    );
    assert!(
        miss.0 < hit.0 && hit.1 < miss.1,
        "the hit ({hit:?}) must fall inside the miss ({miss:?})"
    );
    assert!(
        hit.1 - hit.0 < Duration::from_millis(10),
        "hit waited behind the miss: {:?}",
        hit.1 - hit.0
    );
}

/// (b) Single-flight: five clients cold-missing one blob at the same
/// instant cost the origin one read per chunk, every lookup is counted
/// exactly once at the edge, and every deferred dispatch span closes.
#[test]
fn concurrent_cold_misses_share_one_origin_fetch_per_chunk() {
    const CLIENTS: u64 = 5;
    let (mut sim, ns, chunk_reads, refs) = edge_over_a_far_origin(32, &["asset"]);
    let go = SimTime::ZERO + Duration::from_secs(1);
    for c in 0..CLIENTS {
        let r = refs[0].clone();
        sim.spawn(format!("c{c}"), NodeId(3 + c as u32), move |ctx| {
            let mut edge = BlobClient::new("edge1", ns, CHUNK, 4);
            sleep_until(ctx, go);
            let (started, ended) = fetch_via_edge(ctx, &mut edge, &r, &payload(40_000, 0));
            assert_eq!(started, go, "client {c} needed a retry");
            assert!(ended - started >= Duration::from_millis(100));
            // Once more, now from the edge's cache.
            let (started, ended) = fetch_via_edge(ctx, &mut edge, &r, &payload(40_000, 0));
            assert!(ended - started < Duration::from_millis(10));
        });
    }
    sim.run();
    assert_eq!(
        chunk_reads.load(Ordering::SeqCst),
        CHUNKS,
        "one origin read per chunk, however many clients missed"
    );
    let report = sim.obs_report();
    let edge = report.proxies["blob@edge-edge1"];
    assert_eq!(
        edge.remote_calls,
        CLIENTS * CHUNKS,
        "every cold lookup waited"
    );
    assert_eq!(edge.local_hits, CLIENTS * CHUNKS, "every repeat lookup hit");
    assert_eq!(edge.invocations, edge.local_hits + edge.remote_calls);
    assert_eq!(report.spans.started, report.spans.completed);
    assert_eq!(report.spans.open, 0);
    assert_eq!(report.rpc.client.timeouts, 0);
}

/// (c) An invalidation that overtakes a fill: the origin (a stand-in
/// that invalidates the key *while* answering its first read) gets its
/// stale answer delivered to the reader that asked, but the edge must
/// not keep it — the next read goes back to the origin, and only that
/// answer is cached.
#[test]
fn fill_overtaken_by_its_invalidation_is_delivered_but_not_cached() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 33);
    let ns = spawn_name_server(&sim, NodeId(0));
    let reads = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&reads);
    sim.spawn("origin", ORIGIN, move |ctx| {
        let (me, mut nsc) = (ctx.endpoint(), naming::NameClient::new(ns));
        (ctx.block_on(|cx| nsc.register(cx, "blob", me, Value::Null))).unwrap();
        let mut subscriber = None;
        rpc::RpcServer::new().serve(
            ctx,
            |ctx, req| match req.op.as_str() {
                "_subscribe" => {
                    subscriber = Some(rpc::endpoint_from_value(&req.args).unwrap());
                    Ok(Value::Null)
                }
                ops::GET_CHUNK => {
                    let n = r2.fetch_add(1, Ordering::SeqCst) + 1;
                    if n == 1 {
                        // Sent before the reply below, and smaller: it
                        // reaches the edge first.
                        rpc::send_oneway(
                            ctx,
                            subscriber.expect("edge subscribed"),
                            "blob",
                            protocol::MSG_INVALIDATE,
                            &protocol::invalidation("blob", "k"),
                        );
                    }
                    Ok(Value::record([("data", Value::blob(vec![n as u8; 64]))]))
                }
                other => panic!("unexpected op {other}"),
            },
            |_, _| {},
        );
    });
    spawn_edge_cache(&sim, EDGE, ns, "edge1", "blob", 8);
    sim.spawn("reader", NodeId(3), move |ctx| {
        let mut nsc = naming::NameClient::new(ns);
        let edge = loop {
            match ctx.block_on(|cx| nsc.lookup(cx, "edge1", None)) {
                Ok(rec) => break rec.endpoint,
                Err(_) => ctx.sleep(Duration::from_millis(5)).unwrap(),
            }
        };
        let mut client = rpc::Channel::new("", edge, rpc::ChannelConfig::with_depth(1));
        let mut read = |ctx: &mut Ctx| {
            let args = Value::record([("key", Value::str("k")), ("seq", Value::U64(0))]);
            let op = ops::GET_CHUNK;
            let rep = (ctx.block_on(|cx| client.call(cx, "", op, args, None))).unwrap();
            rep.get_blob("data").unwrap()[0]
        };
        assert_eq!(read(ctx), 1, "the reader that asked gets the answer");
        assert_eq!(read(ctx), 2, "the overtaken fill must not be cached");
        assert_eq!(read(ctx), 2, "the fill that raced nothing is");
    });
    sim.run();
    assert_eq!(reads.load(Ordering::SeqCst), 2);
}

/// (d) The origin tells an edge about a republish only if that edge
/// fetched the asset since it was last written: ten `put_chunk`s of a
/// new version cost one datagram to the edge that holds the old one
/// (the first breaks the callback, the other nine find no sharer) and
/// none to the edge that only ever served something else.
#[test]
fn republish_invalidates_only_the_edges_that_fetched_the_asset() {
    let (mut sim, ns, _, refs) = edge_over_a_far_origin(34, &["a", "b"]);
    spawn_edge_cache(&sim, NodeId(3), ns, "edge2", "blob", 64);
    let (a, b) = (refs[0].clone(), refs[1].clone());
    sim.spawn("near-edge1", NodeId(4), move |ctx| {
        let mut edge = BlobClient::new("edge1", ns, CHUNK, 4);
        fetch_via_edge(ctx, &mut edge, &a, &payload(40_000, 0));
        // Version 2 is out and its invalidation delivered by then.
        sleep_until(ctx, SimTime::ZERO + Duration::from_secs(3));
        let v2 = payload(40_000, 9);
        let a2 = wire::BlobRef {
            crc: wire::crc32(&v2),
            ..a.clone()
        };
        fetch_via_edge(ctx, &mut edge, &a2, &v2);
    });
    sim.spawn("near-edge2", NodeId(5), move |ctx| {
        let mut edge = BlobClient::new("edge2", ns, CHUNK, 4);
        fetch_via_edge(ctx, &mut edge, &b, &payload(40_000, 1));
    });
    sim.spawn("publisher", NodeId(6), move |ctx| {
        sleep_until(ctx, SimTime::ZERO + Duration::from_secs(2));
        let mut origin = BlobClient::new("blob", ns, CHUNK, 4);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        let data = Bytes::from(payload(40_000, 9));
        ctx.block_on(|cx| origin.put(cx, "a", &data, &mut strays))
            .unwrap();
    });
    sim.run();
    let report = sim.obs_report();
    let origin = report.servers["blob"];
    assert_eq!((origin.writes, origin.invalidations_sent), (CHUNKS, 1));
    assert_eq!(report.proxies["blob@edge-edge1"].invalidations_rx, 1);
    assert_eq!(report.proxies["blob@edge-edge2"].invalidations_rx, 0);
}

/// Datagrams from `src` to `dst` sent in `[from, to]`, in a drained trace.
fn datagrams(
    trace: &[simnet::TraceRecord],
    src: simnet::Endpoint,
    dst: simnet::Endpoint,
    (from, to): (SimTime, SimTime),
) -> usize {
    let (src, dst) = (obs::Loc::from(src), obs::Loc::from(dst));
    trace
        .iter()
        .filter(|r| (from..=to).contains(&r.at))
        .filter(|r| {
            matches!(&r.event, simnet::TraceEvent::Net(obs::NetEventKind::Sent { src: s, dst: d, .. })
                if *s == src && *d == dst)
        })
        .count()
}

/// A transfer's chunk calls travel batched, `depth` to a datagram, and
/// whatever the server answers on the spot comes back in one: on a
/// loss-free LAN a four-chunk put is one datagram each way, and so is a
/// warm get through an edge that holds every chunk. A cold get is one
/// datagram on each hop each way too: the edge asks the origin for its
/// four misses in one, the origin answers them in one, and the edge
/// answers the fills that landed together in one.
#[test]
fn a_transfer_of_depth_chunks_is_one_datagram_each_way() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 35);
    sim.enable_trace(1 << 16);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, ORIGIN, ns);
    let edge = spawn_edge_cache(&sim, EDGE, ns, "edge1", "blob", 64);
    let phases = Arc::new(Mutex::new(Vec::new()));
    let out = Arc::clone(&phases);
    let client = sim.spawn("client", NodeId(3), move |ctx| {
        let data = Bytes::from(payload(4 * CHUNK, 5));
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        let mut origin = BlobClient::new("blob", ns, CHUNK, 4);
        let mut near = BlobClient::new("edge1", ns, CHUNK, 4);
        // Each phase starts once the last one's traffic has landed.
        let mut windows = Vec::new();
        ctx.sleep(Duration::from_millis(50)).unwrap();
        let started = ctx.now();
        let r = ctx
            .block_on(|cx| origin.put(cx, "k", &data, &mut strays))
            .unwrap();
        windows.push((started, ctx.now()));
        for _cold_then_warm in 0..2 {
            ctx.sleep(Duration::from_millis(50)).unwrap();
            let started = ctx.now();
            assert_eq!(
                ctx.block_on(|cx| near.get(cx, &r, &mut strays)).unwrap(),
                data
            );
            windows.push((started, ctx.now()));
        }
        *out.lock() = windows;
    });
    sim.run();
    let trace = sim.take_trace();
    assert!(trace.is_complete(), "the trace ring kept every record");
    let &[put, cold, warm] = phases.lock().as_slice() else {
        panic!("the client did not finish");
    };
    assert_eq!(datagrams(&trace, client, store, put), 1, "put request");
    assert_eq!(datagrams(&trace, store, client, put), 1, "put reply");
    assert_eq!(datagrams(&trace, client, edge, cold), 1, "cold get request");
    assert_eq!(datagrams(&trace, edge, store, cold), 1, "cold fill request");
    assert_eq!(datagrams(&trace, store, edge, cold), 1, "cold fill reply");
    assert_eq!(datagrams(&trace, edge, client, cold), 1, "cold get reply");
    assert_eq!(datagrams(&trace, client, edge, warm), 1, "warm get request");
    assert_eq!(datagrams(&trace, edge, client, warm), 1, "warm get reply");
}

/// Satellite 3 (reassembly half; `Value::Ref` codec round-trips live in
/// the wire crate's proptests): chunked put/get reassembles the exact
/// payload under loss, reordering, and duplicate delivery. Duplicated
/// chunk retransmits must be absorbed by the server's dedup window, and
/// CRC verification must accept the reassembled bytes.
fn reassembly_case(len: usize, seed: u64, loss: f64, dup: f64) -> bool {
    let net = NetworkConfig::lan()
        .with_loss(loss)
        .with_duplicate(dup)
        .with_reorder_window(Duration::from_micros(800));
    let mut sim = Simulation::new(net, seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    let ok = Arc::new(Mutex::new(false));
    let done = Arc::clone(&ok);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut client = BlobClient::new("blob", ns, 16 * 1024, 6);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        ctx.sleep(Duration::from_millis(20)).unwrap();
        let data = Bytes::from(payload(len, seed as u8));
        let r = ctx
            .block_on(|cx| client.put(cx, "k", &data, &mut strays))
            .unwrap();
        assert_eq!(r.len, len as u64);
        let back = ctx.block_on(|cx| client.get(cx, &r, &mut strays)).unwrap();
        assert_eq!(back, data);
        *done.lock() = true;
    });
    sim.run();
    let completed = *ok.lock();
    completed
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn chunked_reassembly_survives_chaos(
        len in 0usize..150_000,
        seed in 0u64..1000,
        loss in 0.0f64..0.08,
        dup in 0.0f64..0.08,
    ) {
        prop_assert!(
            reassembly_case(len, seed, loss, dup),
            "client did not complete"
        );
    }
}

/// The reassembly case through an edge cache: a writer puts the payload
/// at the origin, then `readers` clients get it through `edge1` at the
/// same instant once it is published, twice (a cold get and a warm
/// one). Under loss, duplication and reordering the edge's batched
/// origin calls and its coalesced fills must still give every reader
/// the exact payload, CRC checked, and answer each waiting call once:
/// every deferred dispatch span closes, and none twice.
fn edge_reassembly_case(len: usize, seed: u64, loss: f64, dup: f64, readers: u32) -> bool {
    let net = NetworkConfig::lan()
        .with_loss(loss)
        .with_duplicate(dup)
        .with_reorder_window(Duration::from_micros(800));
    let mut sim = Simulation::new(net, seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, ORIGIN, ns);
    spawn_edge_cache(&sim, EDGE, ns, "edge1", "blob", 64);
    let data = Bytes::from(payload(len, seed as u8));
    let published = Arc::new(Mutex::new(None));
    let (out, bytes) = (Arc::clone(&published), data.clone());
    sim.spawn("writer", NodeId(3), move |ctx| {
        let mut origin = BlobClient::new("blob", ns, CHUNK, 6);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        ctx.sleep(Duration::from_millis(20)).unwrap();
        *out.lock() = Some(
            ctx.block_on(|cx| origin.put(cx, "k", &bytes, &mut strays))
                .unwrap(),
        );
    });
    let done = Arc::new(AtomicU64::new(0));
    let go = SimTime::ZERO + Duration::from_secs(1);
    for c in 0..readers {
        let (published, want, done) = (Arc::clone(&published), data.clone(), Arc::clone(&done));
        sim.spawn(format!("reader{c}"), NodeId(4 + c), move |ctx| {
            let mut edge = BlobClient::new("edge1", ns, CHUNK, 6);
            sleep_until(ctx, go);
            let r = loop {
                match published.lock().clone() {
                    Some(r) => break r,
                    None => ctx.sleep(Duration::from_millis(5)).unwrap(),
                }
            };
            for _cold_then_warm in 0..2 {
                fetch_via_edge(ctx, &mut edge, &r, &want);
            }
            done.fetch_add(1, Ordering::SeqCst);
        });
    }
    sim.run();
    let report = sim.obs_report();
    let edge = report.proxies["blob@edge-edge1"];
    assert_eq!(edge.invocations, edge.local_hits + edge.remote_calls);
    assert_eq!(report.spans.started, report.spans.completed);
    assert_eq!(report.spans.open, 0);
    done.load(Ordering::SeqCst) == u64::from(readers)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]
    #[test]
    fn chunked_reassembly_through_the_edge_survives_chaos(
        len in 0usize..60_000,
        seed in 0u64..1000,
        loss in 0.0f64..0.08,
        dup in 0.0f64..0.08,
        readers in 1u32..4,
    ) {
        prop_assert!(
            edge_reassembly_case(len, seed, loss, dup, readers),
            "a reader did not complete"
        );
    }
}

/// A failed transfer releases every chunk call it made: afterwards the
/// client's process awaits nothing, so no server keeps replies for it on
/// that transfer's account, and the next transfer succeeds.
#[test]
fn a_failed_transfer_leaves_no_call_awaited() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 17);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("blob")
        .object(|| Box::new(BlobStore::new()))
        .spawn(&sim, NodeId(1), ns);
    let done = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&done);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut client = BlobClient::new("blob", ns, 4096, 4);
        let mut strays: Vec<rpc::Oneway> = Vec::new();
        let missing = wire::BlobRef {
            store: "blob".into(),
            key: "never-put".into(),
            len: 40_000,
            crc: 0,
        };
        assert!(ctx
            .block_on(|cx| client.get(cx, &missing, &mut strays))
            .is_err());
        assert_eq!(ctx.lowest_awaited(), None, "a failed transfer pins lo");
        let data = Bytes::from(payload(40_000, 9));
        let r = ctx
            .block_on(|cx| client.put(cx, "asset", &data, &mut strays))
            .unwrap();
        assert_eq!(
            ctx.block_on(|cx| client.get(cx, &r, &mut strays)).unwrap(),
            data
        );
        assert_eq!(ctx.lowest_awaited(), None);
        d2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}
