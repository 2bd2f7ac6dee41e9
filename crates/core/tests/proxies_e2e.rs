//! End-to-end tests of the proxy zoo: every strategy exercised over the
//! simulated network, through the real binding protocol.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    AdaptiveParams, CachingParams, Coherence, FactoryRegistry, InterfaceDesc, OpDesc, ProxySpec,
    ServiceBuilder, ServiceObject, SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

/// A key-value object used by most tests.
#[derive(Debug, Default)]
struct Kv {
    map: BTreeMap<String, String>,
    /// Counts real dispatches, shared with the test for assertions.
    dispatches: Option<Arc<AtomicU64>>,
}

impl Kv {
    fn iface() -> InterfaceDesc {
        InterfaceDesc::new(
            "kv",
            [
                OpDesc::read("get", "key"),
                OpDesc::write("put", "key"),
                OpDesc::read_whole("len"),
                OpDesc::write_whole("clear"),
            ],
        )
    }

    fn with_counter(c: Arc<AtomicU64>) -> Kv {
        Kv {
            map: BTreeMap::new(),
            dispatches: Some(c),
        }
    }

    fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let mut kv = Kv::default();
        if let Some(fields) = v.as_record() {
            for (k, val) in fields {
                if let Some(s) = val.as_str() {
                    kv.map.insert(k.to_string_owned(), s.to_owned());
                }
            }
        }
        Ok(Box::new(kv))
    }
}

impl ServiceObject for Kv {
    fn interface(&self) -> InterfaceDesc {
        Kv::iface()
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        if let Some(c) = &self.dispatches {
            c.fetch_add(1, Ordering::SeqCst);
        }
        match op {
            "get" => {
                let key = args
                    .get_str("key")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                Ok(self
                    .map
                    .get(key)
                    .map(|v| Value::str(v.clone()))
                    .unwrap_or(Value::Null))
            }
            "put" => {
                let key = args
                    .get_str("key")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                let value = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.map.insert(key.to_owned(), value.to_owned());
                Ok(Value::Null)
            }
            "len" => Ok(Value::U64(self.map.len() as u64)),
            "clear" => {
                self.map.clear();
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(
            self.map
                .iter()
                .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
        ))
    }
}

fn get_args(key: &str) -> Value {
    Value::record([("key", Value::str(key))])
}

fn put_args(key: &str, value: &str) -> Value {
    Value::record([("key", Value::str(key)), ("value", Value::str(value))])
}

#[test]
fn stub_proxy_forwards_everything() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..5 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        let s = rt.stats(kv);
        assert_eq!(s.invocations, 6);
        assert_eq!(s.remote_calls, 6, "stub never answers locally");
        assert_eq!(s.local_hits, 0);
    });
    sim.run();
}

#[test]
fn caching_proxy_hits_after_first_read() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    let dispatches = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&dispatches);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(move || Box::new(Kv::with_counter(d)))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..10 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        let s = rt.stats(kv);
        assert_eq!(s.local_hits, 9, "all but the first read are cache hits");
        assert_eq!(s.remote_calls, 2, "one put + one fill");
    });
    sim.run();
    assert_eq!(dispatches.load(Ordering::SeqCst), 2);
}

#[test]
fn caching_proxy_reads_own_writes() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams::default()))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("1")
        );
        // The write must drop the cached read so this sees the new value.
        rt.invoke(ctx, kv, "put", put_args("a", "2")).unwrap();
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("2"),
            "stale cached value returned after own write"
        );
    });
    sim.run();
}

#[test]
fn invalidations_propagate_between_clients() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    let reader_saw = Arc::new(AtomicU64::new(0));
    let rs = Arc::clone(&reader_saw);
    // Reader caches "a", then waits; writer updates "a"; reader must see
    // the new value after the invalidation arrives.
    sim.spawn("reader", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "old")).unwrap();
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("old")
        );
        // Wait long enough for the writer (starts at 20ms) to write and
        // the invalidation to arrive.
        ctx.sleep(Duration::from_millis(50)).unwrap();
        let v = rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        assert_eq!(v, Value::str("new"), "stale read after invalidation");
        let s = rt.stats(kv);
        assert!(s.invalidations_rx >= 1, "invalidation was not processed");
        rs.store(1, Ordering::SeqCst);
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(20)).unwrap();
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "new")).unwrap();
    });
    sim.run();
    assert_eq!(reader_saw.load(Ordering::SeqCst), 1);
}

#[test]
fn lease_coherence_expires_entries() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    let dispatches = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&dispatches);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Lease(Duration::from_millis(5)),
            capacity: 64,
        }))
        .object(move || Box::new(Kv::with_counter(d)))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        // Fill, then hit within the lease.
        rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        assert_eq!(rt.stats(kv).local_hits, 1);
        // After the lease expires the next read must refetch.
        ctx.sleep(Duration::from_millis(6)).unwrap();
        rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        assert_eq!(rt.stats(kv).local_hits, 1, "expired entry served");
        assert_eq!(rt.stats(kv).remote_calls, 3);
    });
    sim.run();
}

#[test]
fn cache_capacity_is_bounded() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 6);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 4,
        }))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        for i in 0..16 {
            let k = format!("k{i}");
            rt.invoke(ctx, kv, "put", put_args(&k, "v")).unwrap();
            rt.invoke(ctx, kv, "get", get_args(&k)).unwrap();
        }
        // Only the 4 most recent entries can be hits.
        let mut hits = 0;
        for i in 0..16 {
            let before = rt.stats(kv).local_hits;
            rt.invoke(ctx, kv, "get", get_args(&format!("k{i}")))
                .unwrap();
            if rt.stats(kv).local_hits > before {
                hits += 1;
            }
        }
        assert!(hits <= 4, "cache held more than its capacity: {hits}");
    });
    sim.run();
}

#[test]
fn migratory_proxy_localizes_after_threshold() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = FactoryRegistry::new().register("kv", Kv::from_snapshot);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Migratory { threshold: 5 })
        .factories(factories.clone())
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..20 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        let s = rt.stats(kv);
        assert_eq!(s.migrations, 1, "object should have been checked out");
        assert!(
            s.local_hits >= 15,
            "post-migration calls must be local: {s:?}"
        );
        // State written before migration survived the move.
        assert_eq!(
            rt.invoke(ctx, kv, "len", Value::Null).unwrap(),
            Value::U64(1)
        );
    });
    sim.run();
}

#[test]
fn migratory_object_recalled_for_second_client() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 8);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = FactoryRegistry::new().register("kv", Kv::from_snapshot);
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Migratory { threshold: 2 })
        .factories(factories.clone())
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    let b_done = Arc::new(AtomicU64::new(0));
    let bd = Arc::clone(&b_done);

    let fa = factories.clone();
    sim.spawn("client-a", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(fa);
        let kv = rt.bind(ctx, "kv").unwrap();
        // Trigger migration to A.
        rt.invoke(ctx, kv, "put", put_args("a", "from-a")).unwrap();
        for _ in 0..5 {
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        }
        assert_eq!(rt.stats(kv).migrations, 1);
        // Keep invoking slowly; the recall arrives during this window and
        // must be honoured (checkin) so client B can proceed. Once B has
        // the object checked out, our own calls may bounce Unavailable —
        // that is the protocol working, so retry.
        for _ in 0..40 {
            ctx.sleep(Duration::from_millis(2)).unwrap();
            match rt.invoke(ctx, kv, "get", get_args("a")) {
                Ok(v) => assert_eq!(v, Value::str("from-a")),
                Err(rpc::RpcError::Remote(ref e)) if e.code == ErrorCode::Unavailable => {}
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert!(rt.stats(kv).checkins >= 1, "recall was never honoured");
    });
    let fb = factories;
    sim.spawn("client-b", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(30)).unwrap();
        let mut rt = SessionCore::new(ns).with_factories(fb);
        let kv = rt.bind(ctx, "kv").unwrap();
        // The object is checked out to A; our calls bounce with
        // Unavailable until A checks in. Retry with backoff.
        let mut value = None;
        for _ in 0..100 {
            match rt.invoke(ctx, kv, "get", get_args("a")) {
                Ok(v) => {
                    value = Some(v);
                    break;
                }
                Err(rpc::RpcError::Remote(ref e)) if e.code == ErrorCode::Unavailable => {
                    ctx.sleep(Duration::from_millis(3)).unwrap();
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
        }
        assert_eq!(value, Some(Value::str("from-a")), "state lost in transfer");
        bd.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(b_done.load(Ordering::SeqCst), 1);
}

#[test]
fn adaptive_proxy_switches_with_workload() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 9);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Adaptive(AdaptiveParams {
            window: 20,
            enable_at: 0.8,
            disable_at: 0.4,
            caching: CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 64,
            },
        }))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();

        // Phase 1: read-heavy — caching should engage and produce hits.
        for _ in 0..60 {
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        }
        let after_reads = rt.stats(kv);
        assert!(after_reads.strategy_switches >= 1, "never enabled caching");
        assert!(after_reads.local_hits > 20, "caching produced no hits");

        // Phase 2: write-heavy — caching should disengage.
        for i in 0..60 {
            rt.invoke(ctx, kv, "put", put_args("a", &format!("v{i}")))
                .unwrap();
        }
        let after_writes = rt.stats(kv);
        assert!(
            after_writes.strategy_switches >= 2,
            "never disabled caching: {after_writes:?}"
        );
        // Correctness throughout: final read sees last write.
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("v59")
        );
    });
    sim.run();
}

#[test]
fn service_switches_spec_without_client_change() {
    // The encapsulation claim: the same client code works when the
    // service changes its published proxy from stub to caching.
    fn client_workload(rt: &mut SessionCore, ctx: &mut Ctx) -> u64 {
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        for _ in 0..20 {
            assert_eq!(
                rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
                Value::str("1")
            );
        }
        rt.stats(kv).remote_calls
    }

    let mut remote_calls = Vec::new();
    for (seed, spec) in [
        (10u64, ProxySpec::Stub),
        (
            11,
            ProxySpec::Caching(CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 64,
            }),
        ),
    ] {
        let mut sim = Simulation::new(NetworkConfig::lan(), seed);
        let ns = spawn_name_server(&sim, NodeId(0));
        ServiceBuilder::new("kv")
            .spec(spec)
            .object(|| Box::new(Kv::default()))
            .spawn(&sim, NodeId(1), ns);
        let calls = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&calls);
        sim.spawn("client", NodeId(2), move |ctx| {
            let mut rt = SessionCore::new(ns);
            c.store(client_workload(&mut rt, ctx), Ordering::SeqCst);
        });
        sim.run();
        remote_calls.push(calls.load(Ordering::SeqCst));
    }
    assert_eq!(remote_calls[0], 21, "stub: every call remote");
    assert_eq!(remote_calls[1], 2, "caching: put + one fill");
}

#[test]
fn custom_proxy_kind_via_factory() {
    use proxy_core::{Proxy, ProxyFuture, ProxyStats};

    /// A trivial custom proxy that counts invocations and forwards via a
    /// nested stub.
    struct CountingProxy {
        inner: proxy_core::proxies::StubProxy,
        count: Arc<AtomicU64>,
    }
    impl Proxy for CountingProxy {
        fn service(&self) -> &str {
            self.inner.service()
        }
        fn invoke<'a>(
            &'a mut self,
            cx: simnet::AsyncCx,
            op: &'a str,
            args: Value,
            strays: &'a mut Vec<rpc::Oneway>,
        ) -> ProxyFuture<'a, Result<Value, rpc::RpcError>> {
            self.count.fetch_add(1, Ordering::SeqCst);
            self.inner.invoke(cx, op, args, strays)
        }
        fn stats(&self) -> ProxyStats {
            self.inner.stats()
        }
    }

    let mut sim = Simulation::new(NetworkConfig::lan(), 12);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Custom {
            kind: "counting".into(),
            params: Value::Null,
        })
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    let count = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&count);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let c2 = Arc::clone(&c);
        rt.binder_mut()
            .register_proxy("counting", move |_cx, bc, _strays| {
                let proxy: Box<dyn Proxy> = Box::new(CountingProxy {
                    inner: proxy_core::proxies::StubProxy::new(
                        bc.service,
                        bc.record.endpoint,
                        bc.ns,
                        bc.iface.clone(),
                    ),
                    count: Arc::clone(&c2),
                });
                Box::pin(std::future::ready(Ok(proxy)))
            });
        let kv = rt.bind(ctx, "kv").unwrap();
        for _ in 0..7 {
            rt.invoke(ctx, kv, "len", Value::Null).unwrap();
        }
    });
    sim.run();
    assert_eq!(count.load(Ordering::SeqCst), 7);
}

#[test]
fn unknown_custom_kind_fails_bind() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 13);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Custom {
            kind: "alien".into(),
            params: Value::Null,
        })
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let err = rt.bind(ctx, "kv").unwrap_err();
        match err {
            rpc::RpcError::Remote(e) => assert_eq!(e.code, ErrorCode::Unavailable),
            other => panic!("unexpected error {other:?}"),
        }
    });
    sim.run();
}

// ---------------------------------------------------------------------
// The sharer directory: a write is pushed to the proxies that read what
// it staled, and to nobody else. Each test runs its clients on one
// absolute timeline (`at`), far enough apart that LAN round trips
// (~1 ms) never overlap a later step.
// ---------------------------------------------------------------------

/// A `kv` service whose clients cache with pure invalidation coherence.
fn spawn_invalidating_kv(sim: &Simulation, ns: simnet::Endpoint) {
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| Box::new(Kv::default()))
        .spawn(sim, NodeId(1), ns);
}

/// Sleeps until `ms` milliseconds of simulated time.
fn at(ctx: &mut Ctx, ms: u64) {
    let due = simnet::SimTime::ZERO + Duration::from_millis(ms);
    ctx.sleep(due.saturating_since(ctx.now())).unwrap();
}

fn server_stats(sim: &Simulation) -> proxy_core::ServerStats {
    sim.obs_report().servers["kv"]
}

#[test]
fn a_write_is_pushed_to_the_readers_of_its_key_and_to_nobody_else() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 40);
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_invalidating_kv(&sim, ns);
    sim.spawn("writer", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 5);
        rt.invoke(ctx, kv, "put", put_args("a", "old")).unwrap();
        rt.invoke(ctx, kv, "put", put_args("b", "x")).unwrap();
        at(ctx, 20);
        rt.invoke(ctx, kv, "put", put_args("a", "new1")).unwrap();
        // Nobody re-read "a" in between: this one tells no one.
        at(ctx, 25);
        rt.invoke(ctx, kv, "put", put_args("a", "new2")).unwrap();
    });
    sim.spawn("reader", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 10);
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("old")
        );
        at(ctx, 40);
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("new2")
        );
        assert_eq!(rt.stats(kv).invalidations_rx, 1, "exactly one, for new1");
    });
    sim.spawn("bystander", NodeId(4), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 10);
        rt.invoke(ctx, kv, "get", get_args("b")).unwrap();
        at(ctx, 40);
        // It subscribed like everyone else but never read "a": not one
        // datagram reached it, and its entry is still good.
        assert!(ctx.try_recv().unwrap().is_none(), "mailbox not empty");
        rt.invoke(ctx, kv, "get", get_args("b")).unwrap();
        let s = rt.stats(kv);
        assert_eq!((s.invalidations_rx, s.local_hits), (0, 1));
    });
    sim.run();
    let s = server_stats(&sim);
    assert_eq!((s.writes, s.invalidations_sent), (4, 1));
}

#[test]
fn whole_object_readers_hear_every_write_and_whole_object_writes_reach_every_sharer() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 41);
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_invalidating_kv(&sim, ns);
    sim.spawn("writer", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 5);
        rt.invoke(ctx, kv, "put", put_args("a", "1")).unwrap();
        rt.invoke(ctx, kv, "put", put_args("b", "2")).unwrap();
        // A keyed write nobody cached: only the `len` reader is stale.
        at(ctx, 20);
        rt.invoke(ctx, kv, "put", put_args("b", "3")).unwrap();
        at(ctx, 40);
        rt.invoke(ctx, kv, "clear", Value::Null).unwrap();
    });
    sim.spawn("counter", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 10);
        assert_eq!(
            rt.invoke(ctx, kv, "len", Value::Null).unwrap(),
            Value::U64(2)
        );
        at(ctx, 30);
        assert_eq!(
            rt.invoke(ctx, kv, "len", Value::Null).unwrap(),
            Value::U64(2)
        );
        let s = rt.stats(kv);
        assert_eq!((s.invalidations_rx, s.local_hits), (1, 0), "refetched");
        at(ctx, 50);
        assert_eq!(
            rt.invoke(ctx, kv, "len", Value::Null).unwrap(),
            Value::U64(0)
        );
        assert_eq!(rt.stats(kv).invalidations_rx, 2);
    });
    sim.spawn("keyed", NodeId(4), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 10);
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::str("1")
        );
        at(ctx, 30);
        ctx.block_on(|cx| rt.tend(cx));
        assert_eq!(rt.stats(kv).invalidations_rx, 0, "b is not its key");
        at(ctx, 50);
        assert_eq!(
            rt.invoke(ctx, kv, "get", get_args("a")).unwrap(),
            Value::Null
        );
        assert_eq!(rt.stats(kv).invalidations_rx, 1, "clear reached it");
    });
    sim.spawn("idle", NodeId(5), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let _kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 50);
        assert!(ctx.try_recv().unwrap().is_none(), "a sharer of nothing");
    });
    sim.run();
    // put b → counter; clear → counter and keyed.
    assert_eq!(server_stats(&sim).invalidations_sent, 3);
}

#[test]
fn unsubscribing_purges_the_reader_from_the_directory() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 42);
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_invalidating_kv(&sim, ns);
    sim.spawn("reader", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        rt.invoke(ctx, kv, "get", get_args("a")).unwrap();
        ctx.block_on(|cx| rt.detach(cx, kv));
        at(ctx, 40);
        assert!(ctx.try_recv().unwrap().is_none());
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        at(ctx, 20);
        rt.invoke(ctx, kv, "put", put_args("a", "new")).unwrap();
    });
    sim.run();
    assert_eq!(server_stats(&sim).invalidations_sent, 0);
}

#[test]
fn a_descriptor_with_an_unknown_op_kind_fails_the_bind() {
    // `put`'s flags carry a bit no kind has. Read as a read, a caching
    // proxy would cache what `put` returns and nothing would invalidate
    // it.
    let iface = Value::list([
        Value::str("kv"),
        Value::list([Value::list([
            Value::str("put"),
            Value::U64(1 | 4),
            Value::str("key"),
        ])]),
    ]);
    let spec = ProxySpec::Caching(CachingParams::default());
    let meta = Value::list([spec.to_value(), iface]);
    let refused = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&refused);
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn("client", NodeId(2), move |ctx| {
        let here = ctx.endpoint();
        let mut nc = naming::NameClient::new(ns);
        (ctx.block_on(|cx| nc.register(cx, "kv", here, meta))).unwrap();
        let mut rt = SessionCore::new(ns);
        match rt.bind(ctx, "kv") {
            Err(rpc::RpcError::Wire(_)) => r.store(1, Ordering::SeqCst),
            other => panic!("bound a descriptor with an unknown op kind: {other:?}"),
        }
    });
    sim.run();
    assert_eq!(refused.load(Ordering::SeqCst), 1);
}
