//! The observability registry at the full simulation level: span
//! retirement conserves every report aggregate exactly while bounding
//! the resident span table; a run whose caching clients sit on six
//! nodes — reads filing sharers, writes pushing invalidations to them —
//! is byte-identical when the same seed runs twice, with the slow-call
//! watchdog armed or not; and however that run is observed, it sends
//! the same datagrams at the same instants.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use obs::{SpanId, SpanKind};
use proxy_core::{
    BindFuture, CachingParams, CallFuture, Coherence, InterfaceDesc, OpDesc, ProxySpec,
    ServiceBuilder, ServiceObject, SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{NetworkConfig, NodeId, Poll, ProcCx, Process, Simulation};
use wire::Value;

const CLIENTS: u32 = 6;
const CALLS: u32 = 3;

/// A counter service: `add {n}` returns the running total.
struct Adder(u64);

impl ServiceObject for Adder {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new("adder", [OpDesc::write_whole("add")])
    }

    fn dispatch(
        &mut self,
        _ctx: &mut simnet::Ctx,
        op: &str,
        args: &Value,
    ) -> Result<Value, RemoteError> {
        match op {
            "add" => {
                let n = args
                    .get_u64("n")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.0 += n;
                Ok(Value::U64(self.0))
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

struct Client {
    core: SessionCore,
    state: State,
    calls_done: u32,
    ok: Arc<AtomicU64>,
}

enum State {
    Start,
    Binding(BindFuture),
    Calling(proxy_core::AsyncHandle, CallFuture),
}

impl Process for Client {
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        loop {
            match self.state {
                State::Start => {
                    let f = self.core.bind_async(cx, "adder");
                    self.state = State::Binding(f);
                }
                State::Binding(f) => match self.core.poll_bind(cx, f) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(h) => {
                        let h = h.expect("bind succeeds");
                        let f = self.core.invoke_async(
                            cx,
                            h,
                            "add",
                            Value::record([("n", Value::U64(1))]),
                        );
                        self.state = State::Calling(h, f);
                    }
                },
                State::Calling(h, f) => match self.core.poll_call(cx, f) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(r) => {
                        r.expect("call succeeds");
                        self.ok.fetch_add(1, Ordering::Relaxed);
                        self.calls_done += 1;
                        if self.calls_done == CALLS {
                            return Poll::Ready(());
                        }
                        let f = self.core.invoke_async(
                            cx,
                            h,
                            "add",
                            Value::record([("n", Value::U64(1))]),
                        );
                        self.state = State::Calling(h, f);
                    }
                },
            }
        }
    }
}

/// FNV-1a over a string, for compact trace fingerprints.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One full run; returns `(report JSON, trace hash, calls ok)`.
fn run(seed: u64, retire: Option<u64>) -> (String, u64, u64) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    if let Some(keep_every) = retire {
        sim.obs().enable_retirement(keep_every);
    }
    sim.enable_trace(100_000);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("adder")
        .spec(ProxySpec::Stub)
        .object(|| Box::new(Adder(0)))
        .spawn(&sim, NodeId(1), ns);
    let ok = Arc::new(AtomicU64::new(0));
    for i in 0..CLIENTS {
        sim.spawn_poll(
            format!("client-{i}"),
            NodeId(10 + i),
            Client {
                core: SessionCore::new(ns),
                state: State::Start,
                calls_done: 0,
                ok: Arc::clone(&ok),
            },
        );
    }
    sim.run();
    let json = sim.obs_report().to_json();
    let trace = sim.causal_trace();
    let trace_hash = fnv(&obs::to_jsonl(&trace));
    (json, trace_hash, ok.load(Ordering::Relaxed))
}

#[test]
fn retirement_conserves_aggregates_and_bounds_residency() {
    let (plain, _, ok_a) = run(77, None);
    let (retired, _, ok_b) = run(77, Some(0));
    assert_eq!(ok_a, ok_b);
    let a = obs::json::parse(&plain).expect("parses");
    let b = obs::json::parse(&retired).expect("parses");
    // Everything the report aggregates is conserved exactly under
    // retirement: span totals, per-op latency percentiles, RPC and
    // network counters.
    for section in ["spans", "ops", "rpc", "net", "proxies", "servers"] {
        assert_eq!(
            a.get(section),
            b.get(section),
            "retirement changed the `{section}` section"
        );
    }
    // And the retiring run's table is bounded by what is still open
    // (everything closed was evicted; keep_every = 0 samples none).
    let obs_b = b.get("obs").expect("obs section");
    let allocated = a.get("spans").unwrap().u64_field("started").unwrap()
        + a.get("spans").unwrap().u64_field("oneways").unwrap();
    let resident = obs_b.u64_field("spans_resident").unwrap();
    let retired_count = obs_b.u64_field("spans_retired").unwrap();
    assert_eq!(retired_count + resident, allocated);
    assert!(
        retired_count > 0,
        "workload must actually retire spans to prove anything"
    );
    let open = a.get("spans").unwrap().u64_field("open").unwrap();
    assert_eq!(resident, open, "resident == open spans when keeping none");
}

/// Eight numbered cells: `get {key}`, `put {key, n}`, and `sum`, a
/// whole-object read every write must invalidate.
struct Cells([u64; 8]);

impl ServiceObject for Cells {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "cells",
            [
                OpDesc::read("get", "key"),
                OpDesc::write("put", "key"),
                OpDesc::read_whole("sum"),
            ],
        )
    }

    fn dispatch(
        &mut self,
        _ctx: &mut simnet::Ctx,
        op: &str,
        args: &Value,
    ) -> Result<Value, RemoteError> {
        let bad = |e: wire::WireError| RemoteError::new(ErrorCode::BadArgs, e.to_string());
        match op {
            "get" => Ok(Value::U64(
                self.0[args.get_u64("key").map_err(bad)? as usize % 8],
            )),
            "put" => {
                self.0[args.get_u64("key").map_err(bad)? as usize % 8] =
                    args.get_u64("n").map_err(bad)?;
                Ok(Value::Null)
            }
            "sum" => Ok(Value::U64(self.0.iter().sum())),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

/// Six blocking caching clients (nodes 10..16, the service on node 1),
/// each reading every cell and `sum` and writing the cells it owns,
/// under jitter. With `extra_span` each call opens one more span first.
fn spawn_caching(sim: &Simulation, extra_span: bool) {
    let ns = naming::spawn_name_server(sim, NodeId(0));
    ServiceBuilder::new("cells")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 4,
        }))
        .object(|| Box::new(Cells([0; 8])))
        .spawn(sim, NodeId(1), ns);
    for c in 0..CLIENTS {
        sim.spawn(format!("client-{c}"), NodeId(10 + c), move |ctx| {
            let mut core = SessionCore::new(ns);
            let cells = core.bind(ctx, "cells").expect("bind succeeds");
            for i in 0..40u32 {
                let key = u64::from((i * 7 + c) % 8);
                let (op, args) = match i % 5 {
                    // Only its own cells: key ≡ c (mod CLIENTS).
                    0 if key as u32 % CLIENTS == c => (
                        "put",
                        Value::record([("key", Value::U64(key)), ("n", Value::U64(i.into()))]),
                    ),
                    4 => ("sum", Value::Null),
                    _ => ("get", Value::record([("key", Value::U64(key))])),
                };
                let now = ctx.now().as_nanos();
                let extra = match extra_span {
                    true => ctx
                        .obs()
                        .open_span(SpanKind::Invoke, SpanId::NONE, "extra", op, now),
                    false => SpanId::NONE,
                };
                core.invoke(ctx, cells, op, args).expect("call succeeds");
                ctx.obs().close_span(extra, ctx.now().as_nanos(), true);
            }
            core.shutdown(ctx);
        });
    }
}

/// The caching workload with the slow-call watchdog armed at
/// `watchdog`. Returns `(summary, trace hash, report JSON)`.
fn run_caching(seed: u64, watchdog: Option<obs::WatchdogConfig>) -> (String, u64, String) {
    let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.3), seed);
    sim.enable_trace(1 << 16);
    if let Some(cfg) = watchdog {
        sim.obs().enable_watchdog(cfg);
    }
    spawn_caching(&sim, false);
    let report = sim.run();
    let json = sim.obs_report().to_json();
    let summary = format!(
        "end={} sent={} delivered={} events={} inversions={} finished={} inv={}",
        report.end_time.as_nanos(),
        report.metrics.msgs_sent,
        report.metrics.msgs_delivered,
        report.metrics.events_dispatched,
        report.metrics.sched_time_inversions,
        report.finished,
        sim.obs_report().servers["cells"].invalidations_sent,
    );
    (summary, fnv(&obs::to_jsonl(&sim.causal_trace())), json)
}

/// How a run of the caching workload is observed.
#[derive(Debug, Clone, Copy)]
enum Observer {
    Plane,
    PlaneOff,
    WatchdogRetiring,
    Profiler,
    ExtraSpans,
}

/// What a run did in simulation: messages, bytes and end time, then
/// every network event of its trace with its instant and without its
/// span.
fn observed(seed: u64, observer: Observer) -> ((u64, u64, u64), Vec<String>) {
    let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.3), seed);
    sim.enable_trace(1 << 16);
    match observer {
        Observer::PlaneOff => sim.obs().set_enabled(false),
        Observer::WatchdogRetiring => {
            sim.obs().enable_watchdog(obs::WatchdogConfig {
                multiplier: 1.05,
                min_samples: 4,
                slo_ns: None,
                max_exemplars: 64,
            });
            sim.obs().enable_retirement(0);
        }
        Observer::Profiler => sim.obs().enable_profile(256),
        Observer::Plane | Observer::ExtraSpans => {}
    }
    spawn_caching(&sim, matches!(observer, Observer::ExtraSpans));
    let report = sim.run();
    let net = sim
        .causal_trace()
        .events
        .into_iter()
        .filter_map(|e| match e {
            obs::CausalEvent::Net(n) => Some(format!("{} {:?}", n.at_ns, n.kind)),
            obs::CausalEvent::Span(_) => None,
        })
        .collect();
    let m = &report.metrics;
    ((m.msgs_sent, m.bytes_sent, report.end_time.as_nanos()), net)
}

/// Span ids travel in every envelope in a slot of one width, so neither
/// switching the plane off nor opening more spans (whose ids then run
/// higher) moves a datagram's size, nor with it any delivery instant.
#[test]
fn observation_moves_nothing_simulated() {
    let (base, base_net) = observed(5, Observer::Plane);
    assert!(
        base_net.len() > 1_000,
        "too little traffic to prove anything"
    );
    for observer in [
        Observer::PlaneOff,
        Observer::WatchdogRetiring,
        Observer::Profiler,
        Observer::ExtraSpans,
    ] {
        let (run, net) = observed(5, observer);
        assert_eq!(run, base, "{observer:?}: (messages, bytes, end time) moved");
        if let Some(at) =
            (0..net.len().max(base_net.len())).find(|&i| net.get(i) != base_net.get(i))
        {
            panic!(
                "{observer:?}: network event {at} moved: {:?} instead of {:?}",
                net.get(at),
                base_net.get(at)
            );
        }
    }
}

#[test]
fn caching_clients_across_domains_are_thread_invariant() {
    let base = run_caching(91, None);
    assert!(base.0.contains("inversions=0"), "{}", base.0);
    assert!(
        !base.0.ends_with("inv=0"),
        "no invalidation was sent, nothing proved: {}",
        base.0
    );
    assert_eq!(run_caching(91, None), base, "diverged between two runs");
}

/// The watchdog judges each call against the history of the calls
/// before it, so which calls it pins, their thresholds and their order
/// repeat when the same seed runs twice.
#[test]
fn watchdog_exemplars_are_thread_invariant() {
    let cfg = obs::WatchdogConfig {
        multiplier: 1.05,
        min_samples: 4,
        slo_ns: None,
        max_exemplars: 64,
    };
    let mut pinned = 0;
    for seed in 0..20 {
        let base = run_caching(seed, Some(cfg));
        assert_eq!(
            run_caching(seed, Some(cfg)),
            base,
            "seed {seed} diverged between two runs"
        );
        let report = obs::json::parse(&base.2).expect("report parses");
        pinned += report
            .get("exemplars")
            .and_then(obs::json::Json::as_arr)
            .map_or(0, |a| a.len());
    }
    assert!(pinned > 0, "no exemplar pinned, nothing proved");
}
