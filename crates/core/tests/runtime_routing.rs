//! Tests of the session core's notification routing: one-way traffic
//! for proxy A arriving while proxy B is mid-call must reach A, never
//! be lost, and never corrupt B's call.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    protocol, BulkParams, CachingParams, Coherence, InterfaceDesc, OpDesc, ProxySpec,
    ServiceBuilder, ServiceObject, SessionCore,
};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::{Value, WireError};

/// KV whose reads can be made artificially slow, to hold a call open
/// while other traffic arrives.
struct SlowKv {
    map: BTreeMap<String, String>,
    read_delay: Duration,
}

impl ServiceObject for SlowKv {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "slow-kv",
            [OpDesc::read("get", "key"), OpDesc::write("put", "key")],
        )
    }
    fn service_time(&self, op: &str, _args: &Value) -> Duration {
        match op {
            "get" => self.read_delay,
            _ => Duration::ZERO,
        }
    }
    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        let key = args
            .get_str("key")
            .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
        match op {
            "get" => Ok(self
                .map
                .get(key)
                .map(|v| Value::str(v.clone()))
                .unwrap_or(Value::Null)),
            "put" => {
                let v = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.map.insert(key.to_owned(), v.to_owned());
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

#[test]
fn invalidation_for_proxy_a_arriving_during_call_to_b_is_routed() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 10);
    let ns = spawn_name_server(&sim, NodeId(0));
    let caching = ProxySpec::Caching(CachingParams {
        coherence: Coherence::Invalidate,
        capacity: 64,
    });
    // Service A: fast kv, invalidation-coherent caching.
    ServiceBuilder::new("svc-a")
        .spec(caching.clone())
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::ZERO,
            })
        })
        .spawn(&sim, NodeId(1), ns);
    // Service B: reads take 30ms, holding the observer's call open.
    ServiceBuilder::new("svc-b")
        .spec(caching)
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::from_millis(30),
            })
        })
        .spawn(&sim, NodeId(2), ns);

    let observed = Arc::new(AtomicU64::new(0));
    let o2 = Arc::clone(&observed);
    sim.spawn("observer", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        let b = rt.bind(ctx, "svc-b").unwrap();
        // Prime A's cache.
        rt.invoke(ctx, a, "put", kv("x", "old")).unwrap();
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("old")
        );
        // Long call to B (its RetryPolicy default timeout is 10ms, so
        // raise nothing: the call itself just takes 30ms of server time
        // — the stub retransmits and dedup suppresses; the reply
        // eventually arrives). During that window, the writer updates
        // A's key and the invalidation lands in OUR mailbox while we
        // wait on B. The core must hand it to proxy A.
        let _ = rt.invoke(ctx, b, "get", key("anything")).unwrap();
        // No sleeps: immediately read A again. If the invalidation was
        // lost, the stale cached "old" comes back.
        let v = rt.invoke(ctx, a, "get", key("x")).unwrap();
        assert_eq!(v, Value::str("new"), "invalidation was lost in transit");
        assert!(rt.stats(a).invalidations_rx >= 1);
        o2.store(1, Ordering::SeqCst);
    });
    sim.spawn("writer", NodeId(4), move |ctx| {
        // Fire while the observer is blocked on B (B's read takes 30ms
        // and starts ~6ms in; write at 15ms lands inside the window).
        ctx.sleep(Duration::from_millis(15)).unwrap();
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "new")).unwrap();
    });
    sim.run();
    assert_eq!(observed.load(Ordering::SeqCst), 1);
}

#[test]
fn pump_routes_notifications_while_idle() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 11);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("svc-a")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::ZERO,
            })
        })
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("observer", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let a = rt.attach(cx, "svc-a").await.unwrap();
        rt.call(cx, a, "put", kv("x", "old")).await.unwrap();
        rt.call(cx, a, "get", key("x")).await.unwrap(); // cached
                                                        // Go idle; a writer invalidates; tend (not call) processes it.
        cx.sleep(Duration::from_millis(30)).await.unwrap();
        rt.tend(cx).await;
        assert_eq!(rt.stats(a).invalidations_rx, 1, "pump did not route");
        assert_eq!(
            rt.call(cx, a, "get", key("x")).await.unwrap(),
            Value::str("new")
        );
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(10)).unwrap();
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "new")).unwrap();
    });
    sim.run();
}

/// Strays dropped over a run in which a client on a duplicating link
/// makes one call, goes idle while the reply's duplicate and a one-way
/// for a service it never bound arrive, and then (if `pump`) pumps.
fn strays_dropped_around_a_pump(pump: bool) -> u64 {
    let mut sim = Simulation::new(NetworkConfig::lan().with_duplicate(1.0), 12);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("svc-a")
        .spec(ProxySpec::Stub)
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::ZERO,
            })
        })
        .spawn(&sim, NodeId(1), ns);
    let client = sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let a = rt.attach(cx, "svc-a").await.unwrap();
        rt.call(cx, a, "put", kv("x", "1")).await.unwrap();
        cx.sleep(Duration::from_millis(30)).await.unwrap();
        if pump {
            rt.tend(cx).await;
        }
    });
    sim.spawn("notifier", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(20)).unwrap();
        let inv = protocol::invalidation("unbound", "*");
        rpc::send_oneway(ctx, client, "unbound", protocol::MSG_INVALIDATE, &inv);
    });
    sim.run();
    sim.obs_report().rpc.client.strays_dropped
}

#[test]
fn pump_counts_the_late_duplicates_and_unroutable_one_ways_it_drops() {
    let dropped = strays_dropped_around_a_pump(true) - strays_dropped_around_a_pump(false);
    // At least the put's duplicated reply, and both copies of the one-way
    // addressed to a service the client never bound.
    assert!(dropped >= 3, "the pump dropped {dropped} datagrams unseen");
}

/// An `inv` whose body does not decode (the keyed form, a missing tag, a
/// tag that is not a string) is dropped and counted as a stray, and the
/// read it names stays cached: the client's next read is a local hit.
#[test]
fn an_inv_that_does_not_decode_is_dropped_and_counted_never_applied() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    let caching = ProxySpec::Caching(CachingParams {
        coherence: Coherence::Invalidate,
        capacity: 64,
    });
    let kv_store = || Box::new(services::kv::KvStore::new()) as Box<dyn ServiceObject>;
    (ServiceBuilder::new("kv").spec(caching).object(kv_store)).spawn(&sim, NodeId(1), ns);
    let seen = Arc::new(std::sync::Mutex::new(None));
    let out = Arc::clone(&seen);
    let client = sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let a = rt.attach(cx, "kv").await.unwrap();
        rt.call(cx, a, "put", kv("x", "1")).await.unwrap();
        rt.call(cx, a, "get", key("x")).await.unwrap();
        cx.sleep(Duration::from_millis(30)).await.unwrap();
        rt.tend(cx).await;
        let before = rt.stats(a);
        let got = rt.call(cx, a, "get", key("x")).await.unwrap();
        let after = rt.stats(a);
        *out.lock().unwrap() = Some((got, after.local_hits - before.local_hits, after));
    });
    sim.spawn("notifier", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(20)).unwrap();
        let s = Value::str;
        let malformed = [
            Value::record([("svc", s("kv")), ("tag", s("x"))]),
            Value::list([s("kv")]),
            Value::list([s("kv"), Value::U64(7)]),
        ];
        for body in &malformed {
            rpc::send_oneway(ctx, client, "kv", protocol::MSG_INVALIDATE, body);
        }
    });
    sim.run();
    let (got, hits, stats) = seen.lock().unwrap().take().expect("the client finished");
    assert_eq!((got, hits), (Value::str("1"), 1), "the read stayed cached");
    assert_eq!(stats.invalidations_rx, 0, "no malformed inv was applied");
    assert_eq!(sim.obs_report().rpc.client.strays_dropped, 3);
}

/// What a client's second read of `k` at `a` returns, and the
/// invalidations its proxy took, when `k` is overwritten while the client
/// binds `b` between its two reads: its link to the name server is 20 ms
/// each way, so the bind's lookup waits 40 ms, and the write's
/// invalidation arrives in the middle of that wait. The client is a
/// blocking body, or (with `async_body`) an `async` one on the engine.
fn second_read_after_a_bind(async_body: bool) -> (Value, u64) {
    const WRITE_AT: Duration = Duration::from_millis(70);
    let mut sim = Simulation::new(NetworkConfig::lan(), 16);
    sim.net()
        .set_link_latency(NodeId(2), NodeId(0), Duration::from_millis(20));
    let ns = spawn_name_server(&sim, NodeId(0));
    let caching = ProxySpec::Caching(CachingParams {
        coherence: Coherence::Invalidate,
        capacity: 64,
    });
    let kv_store = || Box::new(services::kv::KvStore::new()) as Box<dyn ServiceObject>;
    (ServiceBuilder::new("a").spec(caching).object(kv_store)).spawn(&sim, NodeId(1), ns);
    (ServiceBuilder::new("b")
        .spec(ProxySpec::Stub)
        .object(kv_store))
    .spawn(&sim, NodeId(3), ns);
    let seen = Arc::new(std::sync::Mutex::new(None));
    let out = Arc::clone(&seen);
    // The bind of `b` must straddle the write for the test to mean
    // anything.
    let check_straddles = |before: simnet::SimTime, after: simnet::SimTime| {
        let write = simnet::SimTime::ZERO + WRITE_AT;
        assert!(before < write && write < after, "{before:?}..{after:?}");
    };
    if async_body {
        sim.spawn_async("client", NodeId(2), move |cx| async move {
            let mut core = SessionCore::new(ns);
            let a = core.attach(cx, "a").await.unwrap();
            assert_eq!(
                core.call(cx, a, "get", key("k")).await,
                Ok(Value::str("v1"))
            );
            let before = cx.with(|cx| cx.now());
            core.attach(cx, "b").await.unwrap();
            check_straddles(before, cx.with(|cx| cx.now()));
            let again = core.call(cx, a, "get", key("k")).await.unwrap();
            *out.lock().unwrap() = Some((again, core.stats(a).invalidations_rx));
        });
    } else {
        sim.spawn("client", NodeId(2), move |ctx| {
            let mut core = SessionCore::new(ns);
            let a = core.bind(ctx, "a").unwrap();
            assert_eq!(core.invoke(ctx, a, "get", key("k")), Ok(Value::str("v1")));
            let before = ctx.now();
            core.bind(ctx, "b").unwrap();
            check_straddles(before, ctx.now());
            let again = core.invoke(ctx, a, "get", key("k")).unwrap();
            *out.lock().unwrap() = Some((again, core.stats(a).invalidations_rx));
        });
    }
    sim.spawn("writer", NodeId(4), move |ctx| {
        let mut core = SessionCore::new(ns);
        let a = core.bind(ctx, "a").unwrap();
        core.invoke(ctx, a, "put", kv("k", "v1")).unwrap();
        ctx.sleep(WRITE_AT.saturating_sub(ctx.now().saturating_since(simnet::SimTime::ZERO)))
            .unwrap();
        core.invoke(ctx, a, "put", kv("k", "v2")).unwrap();
    });
    sim.run();
    let seen = seen.lock().unwrap().take();
    seen.expect("the client finished")
}

#[test]
fn an_invalidation_that_arrives_while_a_blocking_client_binds_is_routed() {
    assert_eq!(second_read_after_a_bind(false), (Value::str("v2"), 1));
}

#[test]
fn an_invalidation_that_arrives_while_an_async_client_attaches_is_routed() {
    assert_eq!(second_read_after_a_bind(true), (Value::str("v2"), 1));
}

#[test]
fn a_bulk_spec_around_an_unsupported_inner_is_refused_and_the_core_stays_usable() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 15);
    let ns = spawn_name_server(&sim, NodeId(0));
    let fast_kv = || {
        Box::new(SlowKv {
            map: BTreeMap::new(),
            read_delay: Duration::ZERO,
        }) as Box<dyn ServiceObject>
    };
    ServiceBuilder::new("svc-bulk")
        .spec(ProxySpec::Bulk {
            inner: Box::new(ProxySpec::Migratory { threshold: 3 }),
            params: BulkParams::default(),
        })
        .object(fast_kv)
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("svc-stub")
        .spec(ProxySpec::Stub)
        .object(fast_kv)
        .spawn(&sim, NodeId(2), ns);
    sim.spawn("client", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let refused = rt.bind(ctx, "svc-bulk").unwrap_err();
        assert!(
            matches!(
                refused,
                RpcError::Wire(WireError::WrongKind {
                    actual: "migratory",
                    ..
                })
            ),
            "{refused:?}"
        );
        let stub = rt.bind(ctx, "svc-stub").unwrap();
        rt.invoke(ctx, stub, "put", kv("x", "1")).unwrap();
        assert_eq!(
            rt.invoke(ctx, stub, "get", key("x")).unwrap(),
            Value::str("1")
        );
    });
    sim.run();
}

// ---------------------------------------------------------------------
// Races the sharer directory leaves to the client. Sending an
// invalidation makes the service forget the reader, so one that is
// applied *before* the reply it stales is cached would leave a stale
// entry nothing ever corrects. Each test moves one reader's link to the
// service (4 ms one way against the LAN's 0.5 ms) under a fixed
// timeline to force the ordering.
// ---------------------------------------------------------------------

const SERVICE: NodeId = NodeId(1);
const READER: NodeId = NodeId(2);

/// The name server, `svc-a` with invalidation-coherent caching, and the
/// reader's slow link.
fn slow_reader_setup(seed: u64) -> (Simulation, simnet::Endpoint) {
    let sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.net()
        .set_link_latency(SERVICE, READER, Duration::from_millis(4));
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("svc-a")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| {
            Box::new(SlowKv {
                map: BTreeMap::new(),
                read_delay: Duration::ZERO,
            })
        })
        .spawn(&sim, SERVICE, ns);
    (sim, ns)
}

/// Sleeps until `ms` milliseconds of simulated time.
fn at(ctx: &mut Ctx, ms: u64) {
    let due = simnet::SimTime::ZERO + Duration::from_millis(ms);
    ctx.sleep(due.saturating_since(ctx.now())).unwrap();
}

fn invalidations_sent(sim: &Simulation) -> u64 {
    sim.obs_report().servers["svc-a"].invalidations_sent
}

#[test]
fn an_invalidation_that_overtakes_its_reply_is_applied_after_the_fill() {
    let (mut sim, ns) = slow_reader_setup(12);
    sim.spawn("reader", READER, move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        // Sent at 100, served at 104 (the service files us under "x"),
        // answered at 108. The write's invalidation arrives at ~105.6.
        at(ctx, 100);
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("old"),
            "the read was served before the write"
        );
        assert_eq!(rt.stats(a).invalidations_rx, 1, "held back, then applied");
        // The service has forgotten us: only the order above keeps this
        // from being a hit on "old" for ever.
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("new")
        );
        assert_eq!(rt.stats(a).local_hits, 0);
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "old")).unwrap();
        at(ctx, 105);
        ctx.net()
            .set_link_latency(SERVICE, READER, Duration::from_micros(100));
        rt.invoke(ctx, a, "put", kv("x", "new")).unwrap();
    });
    sim.run();
    assert_eq!(invalidations_sent(&sim), 1);
}

#[test]
fn a_replayed_pre_write_reply_does_not_outlive_its_invalidation() {
    let (mut sim, ns) = slow_reader_setup(13);
    sim.spawn("reader", READER, move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        // Sent at 100 and served at 104, but the reply is lost. The
        // write at ~105.5 invalidates us (arrives ~109.5, mid-call); our
        // retransmission is then answered from the duplicate window with
        // the reply computed *before* the write.
        at(ctx, 100);
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("old")
        );
        assert_eq!(rt.stats(a).invalidations_rx, 1);
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("new"),
            "the replayed reply stayed cached"
        );
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "old")).unwrap();
        // The request is already on the wire; the reply will not be.
        at(ctx, 101);
        ctx.net().partition(SERVICE, READER);
        at(ctx, 105);
        ctx.net().heal(SERVICE, READER);
        rt.invoke(ctx, a, "put", kv("x", "new")).unwrap();
    });
    sim.run();
    let report = sim.obs_report();
    assert_eq!(report.servers["svc-a"].invalidations_sent, 1);
    assert!(
        report.rpc.server.duplicates_suppressed >= 1,
        "the read was not answered by replay"
    );
}

#[test]
fn a_stale_invalidation_after_a_re_read_costs_one_miss_and_no_coherence() {
    let (mut sim, ns) = slow_reader_setup(14);
    sim.spawn("reader", READER, move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        at(ctx, 20);
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("v1")
        );
        // v2's invalidation left at ~40.5 on the 20 ms link (due ~60.5).
        // On the now-fast link we overwrite and re-read first.
        at(ctx, 42);
        rt.invoke(ctx, a, "put", kv("x", "v3")).unwrap();
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("v3")
        );
        // The stale invalidation lands on the fresh entry: a miss we did
        // not need, nothing worse — and the service still has us filed.
        at(ctx, 70);
        let misses = rt.stats(a).remote_calls;
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("v3")
        );
        assert_eq!(rt.stats(a).remote_calls, misses + 1, "spurious miss");
        at(ctx, 90);
        assert_eq!(
            rt.invoke(ctx, a, "get", key("x")).unwrap(),
            Value::str("v4")
        );
        assert_eq!(rt.stats(a).invalidations_rx, 2);
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "svc-a").unwrap();
        rt.invoke(ctx, a, "put", kv("x", "v1")).unwrap();
        at(ctx, 39);
        ctx.net()
            .set_link_latency(SERVICE, READER, Duration::from_millis(20));
        at(ctx, 40);
        rt.invoke(ctx, a, "put", kv("x", "v2")).unwrap();
        at(ctx, 41);
        ctx.net()
            .set_link_latency(SERVICE, READER, Duration::from_micros(500));
        at(ctx, 80);
        rt.invoke(ctx, a, "put", kv("x", "v4")).unwrap();
    });
    sim.run();
    assert_eq!(invalidations_sent(&sim), 2, "v2 and v4; v3 was our own");
}

fn kv(k: &str, v: &str) -> Value {
    Value::record([("key", Value::str(k)), ("value", Value::str(v))])
}

fn key(k: &str) -> Value {
    Value::record([("key", Value::str(k))])
}
