//! Exact per-call costs: one row per workload shape of `benchmark/`,
//! plus an object invoked in its caller's own context. `fleet_sharded`
//! has no row: with one event heap it runs `fleet_stub`'s simulation.
//!
//! The paper's claim is that encapsulation must not tax invocation. A
//! timing cannot hold the stack to that: it has host noise, so a small
//! regression hides in it. These counts have none. Every shape runs on
//! one thread with fixed seeds, where a counting global allocator and the
//! profiler's call counts see all of its work. So every cell below is
//! exact, and any change to what a call costs fails here outright.
//!
//! Columns, each per call: datagrams sent, wire bytes sent, scheduler
//! events, frames encoded (`rpc;encode` profiler scopes), datagrams
//! decoded (`rpc;decode`), spans opened, heap allocations and bytes
//! allocated, counted over `Simulation::run` alone (spawning is setup).
//! One column is not per call: `peak_live_bytes` is the run's high-water
//! mark of bytes allocated and not yet freed, above what was live when
//! it started (a `realloc` counts by how much it grew or shrank).
//! A call is one operation of the shape's workload: a fleet client's put
//! or get, a pipelined put, a file read or write (seeding writes
//! included), a bulk-plane get, a local put.
//!
//! Each shape runs twice after a warm-up run and must count the same
//! both times. A change that moves a number pastes the new table, which
//! a failure prints in full, and says why. The debug and the release
//! build count the same.
//!
//! The allocation columns are this platform's and this toolchain's: a
//! blocking process body runs on a stack of its own on the simulation's
//! thread on x86-64 Linux, and on a thread of its own (whose allocations
//! go uncounted) elsewhere; and the standard library's collections decide
//! when they grow.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use bench::experiments::{e19_bulkplane, e2_cache_sweep};
use bench::fleet;
use bytes::{BufMut, BytesMut};
use proxy_core::{CachingParams, Coherence, ProxySpec, SessionCore};
use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RpcServer};
use services::kv::KvStore;
use simnet::{Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

/// What every call of one shape costs. Each cost column is a total over
/// the run divided by `calls`: the quotient is exact, and two totals
/// give two quotients.
#[derive(Debug, PartialEq)]
struct Row {
    shape: &'static str,
    calls: u64,
    datagrams: f64,
    wire_bytes: f64,
    events: f64,
    frames: f64,
    decodes: f64,
    spans: f64,
    allocs: f64,
    alloc_bytes: f64,
    peak_live_bytes: u64,
}

#[rustfmt::skip]
const EXPECTED: &[Row] = &[
    Row { shape: "fleet_stub", calls: 256, datagrams: 3.0625, wire_bytes: 175.8125, events: 3.59765625, frames: 3.0625, decodes: 3.0625, spans: 3.03125, allocs: 21.19140625, alloc_bytes: 2696.12890625, peak_live_bytes: 195050 },
    Row { shape: "pipeline_blob", calls: 256, datagrams: 0.5, wire_bytes: 4182.00390625, events: 0.51953125, frames: 1.5, decodes: 0.5, spans: 2.0, allocs: 7.18359375, alloc_bytes: 5437.0078125, peak_live_bytes: 375433 },
    Row { shape: "proxy_cache", calls: 310, datagrams: 0.43870967741935485, wire_bytes: 73.61935483870968, events: 0.6580645161290323, frames: 0.43870967741935485, decodes: 0.43870967741935485, spans: 1.2193548387096773, allocs: 5.82258064516129, alloc_bytes: 877.4548387096775, peak_live_bytes: 81564 },
    Row { shape: "bulk_edge", calls: 60, datagrams: 9.15, wire_bytes: 29285.3, events: 12.116666666666667, frames: 9.4, decodes: 9.15, spans: 8.583333333333334, allocs: 238.66666666666666, alloc_bytes: 91198.13333333333, peak_live_bytes: 952934 },
    Row { shape: "local", calls: 100, datagrams: 0.0, wire_bytes: 0.0, events: 0.01, frames: 0.0, decodes: 0.0, spans: 1.0, allocs: 2.21, alloc_bytes: 714.57, peak_live_bytes: 52162 },
];

// -- counting -----------------------------------------------------------

/// Counts this thread's allocations, the bytes they asked for, and the
/// bytes live (allocated minus freed) with their high-water mark, so
/// tests running on other threads do not disturb the count.
struct Counting;

/// One thread's allocation counters.
#[derive(Clone, Copy)]
struct Tally {
    allocs: u64,
    bytes: u64,
    /// Allocated minus freed on this thread: signed, because a block
    /// allocated elsewhere may be freed here.
    live: i64,
    peak: i64,
}

thread_local! {
    static ALLOCS: Cell<Tally> = const {
        Cell::new(Tally { allocs: 0, bytes: 0, live: 0, peak: 0 })
    };
}

/// Records one allocation of `bytes` that changes the live bytes by
/// `delta` (`None` for a free, which is no allocation).
fn count(bytes: Option<usize>, delta: i64) {
    // `try_with`: the allocator also runs while a thread's locals are
    // being torn down.
    let _ = ALLOCS.try_with(|c| {
        let mut t = c.get();
        if let Some(bytes) = bytes {
            t.allocs += 1;
            t.bytes += bytes as u64;
        }
        t.live += delta;
        t.peak = t.peak.max(t.live);
        c.set(t);
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counter is
// a const-initialised thread-local `Cell` that never allocates itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(Some(layout.size()), layout.size() as i64);
        // SAFETY: the caller's contract for `alloc`, passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        count(None, -(layout.size() as i64));
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(Some(new_size), new_size as i64 - layout.size() as i64);
        // SAFETY: the caller's contract for `realloc`, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Totals over one run of a shape.
#[derive(Debug, PartialEq, Eq)]
struct Totals {
    datagrams: u64,
    wire_bytes: u64,
    events: u64,
    frames: u64,
    decodes: u64,
    spans: u64,
    allocs: u64,
    alloc_bytes: u64,
    peak_live_bytes: u64,
}

/// Calls of the profiler frame `leaf`, wherever it was opened.
fn scope_calls(prof: &obs::ProfileReport, leaf: &str) -> u64 {
    prof.frames
        .iter()
        .filter(|(path, _)| path.ends_with(leaf))
        .map(|(_, f)| f.calls)
        .sum()
}

/// Runs a spawned simulation on this thread and totals what it cost.
fn run_counted(mut sim: Simulation) -> Totals {
    sim.obs().enable_profile(256);
    // The high-water mark starts over at what is live now.
    let before = ALLOCS.with(|c| {
        let mut t = c.get();
        t.peak = t.live;
        c.set(t);
        t
    });
    let run = sim.run();
    let after = ALLOCS.with(Cell::get);
    let report = sim.obs_report();
    let prof = report.profile.as_ref().expect("profiler is on");
    assert_eq!(prof.frames_evicted, 0, "the profile table saw every scope");
    Totals {
        datagrams: run.metrics.msgs_sent,
        wire_bytes: run.metrics.bytes_sent,
        events: run.metrics.events_dispatched,
        frames: scope_calls(prof, "rpc;encode"),
        decodes: scope_calls(prof, "rpc;decode"),
        spans: report.spans.started,
        allocs: after.allocs - before.allocs,
        alloc_bytes: after.bytes - before.bytes,
        peak_live_bytes: (after.peak - before.live) as u64,
    }
}

// -- the shapes ---------------------------------------------------------

/// A shape: its name, the calls it makes, and how to build it.
struct Shape {
    name: &'static str,
    calls: u64,
    spawn: fn() -> Simulation,
}

/// The fleet the `fleet_stub` row runs: poll-driven stub clients
/// alternating put and get over eight KV shards.
const FLEET: fleet::Shape = fleet::Shape {
    clients: 64,
    calls_per_client: 4,
    shards: 8,
    nodes: 16,
};

fn fleet() -> Simulation {
    let sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    fleet::spawn(&sim, FLEET, ns, 1);
    sim
}

/// Closed-loop pipelined puts straight over `rpc`: each client keeps a
/// window of calls open on a batching channel to one counting server.
#[derive(Clone, Copy)]
struct Pipeline {
    clients: u32,
    calls_per_client: u64,
    depth: usize,
    batch: usize,
    payload: usize,
}

const PIPELINE: Pipeline = Pipeline {
    clients: 4,
    calls_per_client: 64,
    depth: 16,
    batch: 4,
    payload: 4096,
};

fn pipeline() -> Simulation {
    let cfg = PIPELINE;
    let sim = Simulation::new(NetworkConfig::lan(), 1400);
    let execs = Arc::new(AtomicU64::new(0));
    let server = sim.spawn_at("hotsvc", NodeId(0), PortId(1), move |ctx| {
        RpcServer::new().serve(
            ctx,
            |_, req| match req.op.as_str() {
                "put" => Ok(Value::U64(execs.fetch_add(1, Ordering::Relaxed) + 1)),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    });
    for c in 0..cfg.clients {
        sim.spawn("client", NodeId(1 + c), move |ctx| {
            let chan_cfg = ChannelConfig::with_depth(cfg.depth).batched(cfg.batch);
            let mut ch = Channel::new("hotsvc", server, chan_cfg);
            // Built in the block it is sent in: one allocation, no copy.
            let mut payload = BytesMut::with_capacity(cfg.payload);
            for _ in 0..cfg.payload {
                payload.put_u8(0xA5);
            }
            let args = Value::record([
                ("key", Value::str(format!("client-{c}/key"))),
                ("value", Value::blob(payload.freeze())),
            ]);
            // Keep `depth` calls in flight, issuing a new one as each
            // completes.
            let mut window = VecDeque::new();
            let mut issued = 0u64;
            while issued < cfg.calls_per_client || !window.is_empty() {
                while issued < cfg.calls_per_client && window.len() < cfg.depth {
                    window.push_back(ch.begin_call(ctx, "put", args.clone()));
                    issued += 1;
                }
                if let Some(h) = window.pop_front() {
                    ch.wait(ctx, h)
                        .expect("a loss-free LAN completes every call");
                }
            }
        });
    }
    sim
}

/// E2's caching proxy (invalidation coherence) at 90 % reads.
fn proxy_cache() -> Simulation {
    let spec = ProxySpec::Caching(CachingParams {
        coherence: Coherence::Invalidate,
        capacity: 1024,
    });
    e2_cache_sweep::spawn(spec, 90, 10).0
}

/// E19's bulk leg at its CI size.
fn bulk_edge() -> Simulation {
    e19_bulkplane::spawn_leg(e19_bulkplane::Config::smoke(), true).0
}

const LOCAL_CALLS: u64 = 100;

/// A KV object hosted in its caller's context and invoked there: no
/// datagram, no frame, only the proxy's own work.
fn local() -> Simulation {
    let sim = Simulation::new(NetworkConfig::lan(), 0);
    let ns = Endpoint::new(NodeId(0), PortId(1));
    sim.spawn("host", NodeId(0), move |ctx| {
        let mut core = SessionCore::new(ns);
        let kv = core.host_local("kv", Box::new(KvStore::new()));
        let args = Value::record([("key", Value::str("k")), ("value", Value::str("v"))]);
        for _ in 0..LOCAL_CALLS {
            core.invoke(ctx, kv, "put", args.clone())
                .expect("a local put succeeds");
        }
    });
    sim
}

fn shapes() -> [Shape; 5] {
    let bulk = e19_bulkplane::Config::smoke();
    [
        Shape {
            name: "fleet_stub",
            calls: FLEET.total_calls(),
            spawn: fleet,
        },
        Shape {
            name: "pipeline_blob",
            calls: u64::from(PIPELINE.clients) * PIPELINE.calls_per_client,
            spawn: pipeline,
        },
        Shape {
            name: "proxy_cache",
            calls: e2_cache_sweep::BLOCKS + e2_cache_sweep::OPS,
            spawn: proxy_cache,
        },
        Shape {
            name: "bulk_edge",
            calls: bulk.clients() as u64 * u64::from(bulk.gets_per_client()),
            spawn: bulk_edge,
        },
        Shape {
            name: "local",
            calls: LOCAL_CALLS,
            spawn: local,
        },
    ]
}

// -- the table ----------------------------------------------------------

fn row(shape: &Shape, t: Totals) -> Row {
    let per = |n: u64| n as f64 / shape.calls as f64;
    Row {
        shape: shape.name,
        calls: shape.calls,
        datagrams: per(t.datagrams),
        wire_bytes: per(t.wire_bytes),
        events: per(t.events),
        frames: per(t.frames),
        decodes: per(t.decodes),
        spans: per(t.spans),
        allocs: per(t.allocs),
        alloc_bytes: per(t.alloc_bytes),
        peak_live_bytes: t.peak_live_bytes,
    }
}

/// The table as the Rust literal `EXPECTED` is written in: a `Row`'s
/// `Debug` form is its constructor.
fn paste_ready(rows: &[Row]) -> String {
    let mut s = String::from("const EXPECTED: &[Row] = &[\n");
    for r in rows {
        let _ = writeln!(s, "    {r:?},");
    }
    s.push_str("];\n");
    s
}

#[test]
fn every_shape_costs_exactly_its_budget() {
    let mut actual = Vec::new();
    for shape in shapes() {
        // A warm-up run first, so that state this thread builds once
        // (the pooled encoder's buffer, the profiler's frame stack) is
        // not billed to the shape.
        run_counted((shape.spawn)());
        let first = run_counted((shape.spawn)());
        let second = run_counted((shape.spawn)());
        assert_eq!(
            first, second,
            "{}: two runs of the same shape counted differently",
            shape.name
        );
        actual.push(row(&shape, first));
    }
    let local = actual.last().expect("the local row");
    assert_eq!(
        (local.datagrams, local.frames, local.decodes),
        (0.0, 0.0, 0.0),
        "a local invocation never touches the network"
    );
    if actual != EXPECTED {
        let mut diff = String::new();
        for (i, a) in actual.iter().enumerate() {
            match EXPECTED.get(i) {
                Some(e) if e == a => {}
                Some(e) => {
                    let _ = writeln!(diff, "  expected {e:?}\n  actual   {a:?}");
                }
                None => {
                    let _ = writeln!(diff, "  unexpected {a:?}");
                }
            }
        }
        panic!(
            "per-call costs moved:\n{diff}\nthe whole table as measured:\n\n{}",
            paste_ready(&actual)
        );
    }
}
