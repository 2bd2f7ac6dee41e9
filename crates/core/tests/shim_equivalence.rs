//! Shim equivalence: the blocking bridge the benchmark keeps, an `async`
//! body on `SessionCore`'s engine and the non-blocking ticket surface are
//! faces of one engine, so a workload expressed each way must look
//! identical to the service.
//!
//! Twin runs with the same seed — one blocking client using
//! `SessionCore::{bind,invoke}`, and one `async` body using
//! `SessionCore::{attach,call}` for every proxy spec, or one poll-driven
//! `Process` using `bind_async`/`invoke_async` for a stub — must produce
//! the same per-call results, the same server-side dispatch counts, and
//! the same number of client RPC calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use proxy_core::{
    AdaptiveParams, AsyncHandle, BindFuture, BulkParams, CachingParams, CallFuture, Coherence,
    FactoryRegistry, InterfaceDesc, OpDesc, ProxySpec, ProxyStats, ServiceBuilder, ServiceObject,
    SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{NetworkConfig, NodeId, Poll, ProcCx, Process, Simulation};
use wire::Value;

const CALLS: u32 = 10;

/// A counter service: `add {n}` returns the running total and `total`
/// reads it; `stash {v}` keeps a value and `fetch` reads it back.
#[derive(Default)]
struct Adder(u64, Value);

impl Adder {
    fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let total = v
            .as_u64()
            .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "snapshot"))?;
        Ok(Box::new(Adder(total, Value::Null)))
    }
}

impl ServiceObject for Adder {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "adder",
            [
                OpDesc::write_whole("add"),
                OpDesc::read_whole("total"),
                OpDesc::write_whole("stash"),
                OpDesc::read_whole("fetch"),
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
            "add" => {
                self.0 += args.get_u64("n").map_err(bad)?;
                Ok(Value::U64(self.0))
            }
            "total" => Ok(Value::U64(self.0)),
            "stash" => {
                self.1 = args.get("v").cloned().unwrap_or(Value::Null);
                Ok(Value::Null)
            }
            "fetch" => Ok(self.1.clone()),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::U64(self.0))
    }
}

/// What one run looks like from the outside: every call's result, the
/// service's dispatch count, and the client-side RPC call count.
#[derive(Debug, PartialEq)]
struct RunShape {
    results: Vec<Value>,
    dispatched: u64,
    client_calls: u64,
}

fn shape(sim: &Simulation, results: Vec<Value>) -> RunShape {
    let report = sim.obs_report();
    RunShape {
        results,
        dispatched: report.servers.get("adder").map_or(0, |s| s.dispatched),
        client_calls: report.rpc.client.calls,
    }
}

fn blocking_run(seed: u64) -> RunShape {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("adder")
        .spec(ProxySpec::Stub)
        .object(|| Box::<Adder>::default())
        .spawn(&sim, NodeId(1), ns);
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&results);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let h = rt.bind(ctx, "adder").unwrap();
        for i in 0..CALLS {
            let args = Value::record([("n", Value::U64(u64::from(i) + 1))]);
            let v = rt.invoke(ctx, h, "add", args).unwrap();
            r2.lock().unwrap().push(v);
        }
    });
    sim.run();
    let results = std::mem::take(&mut *results.lock().unwrap());
    shape(&sim, results)
}

/// The poll-driven twin of the blocking client above.
struct PollClient {
    core: SessionCore,
    state: State,
    done: u32,
    results: Arc<Mutex<Vec<Value>>>,
}

enum State {
    Start,
    Binding(BindFuture),
    Calling(AsyncHandle, CallFuture),
}

impl Process for PollClient {
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
                        let h = h.unwrap();
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
                        let v = r.unwrap();
                        self.results.lock().unwrap().push(v);
                        self.done += 1;
                        if self.done == CALLS {
                            return Poll::Ready(());
                        }
                        let f = self.core.invoke_async(
                            cx,
                            h,
                            "add",
                            Value::record([("n", Value::U64(u64::from(self.done) + 1))]),
                        );
                        self.state = State::Calling(h, f);
                    }
                },
            }
        }
    }
}

fn polled_run(seed: u64) -> RunShape {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("adder")
        .spec(ProxySpec::Stub)
        .object(|| Box::<Adder>::default())
        .spawn(&sim, NodeId(1), ns);
    let results = Arc::new(Mutex::new(Vec::new()));
    sim.spawn_poll(
        "client",
        NodeId(2),
        PollClient {
            core: SessionCore::new(ns),
            state: State::Start,
            done: 0,
            results: Arc::clone(&results),
        },
    );
    sim.run();
    let results = std::mem::take(&mut *results.lock().unwrap());
    shape(&sim, results)
}

#[test]
fn blocking_session_and_poll_driven_twin_agree() {
    let blocking = blocking_run(7);
    let polled = polled_run(7);
    // Both surfaces drive the same workload: same running totals, the
    // service executed the same number of calls, the client issued the
    // same number of RPCs (1 lookup + CALLS invokes).
    assert_eq!(blocking, polled);
    assert_eq!(
        blocking.results,
        (1..=u64::from(CALLS))
            .scan(0, |acc, i| {
                *acc += i;
                Some(Value::U64(*acc))
            })
            .collect::<Vec<_>>()
    );
    assert_eq!(blocking.dispatched, u64::from(CALLS));
}

#[test]
fn async_surface_refuses_smart_proxy_specs() {
    // The non-blocking surface implements stub-grade bindings only; a
    // service that chose a caching proxy must be reported, not silently
    // downgraded to stub semantics.
    let mut sim = Simulation::new(NetworkConfig::lan(), 11);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("cached")
        .spec(ProxySpec::Caching(proxy_core::CachingParams::default()))
        .object(|| Box::<Adder>::default())
        .spawn(&sim, NodeId(1), ns);
    let refused = Arc::new(AtomicU64::new(0));
    let r2 = Arc::clone(&refused);
    let mut core = SessionCore::new(ns);
    let mut bind = None;
    sim.spawn_poll("client", NodeId(2), move |cx: &mut ProcCx| {
        let f = *bind.get_or_insert_with(|| core.bind_async(cx, "cached"));
        match core.poll_bind(cx, f) {
            Poll::Pending => Poll::Pending,
            Poll::Ready(Ok(_)) => panic!("caching spec must not bind through the async surface"),
            Poll::Ready(Err(e)) => {
                assert!(
                    e.to_string().contains("stub-grade"),
                    "unexpected error: {e}"
                );
                r2.fetch_add(1, Ordering::Relaxed);
                Poll::Ready(())
            }
        }
    });
    sim.run();
    assert_eq!(refused.load(Ordering::Relaxed), 1);
}

// ---------------------------------------------------------------------
// Every proxy spec, the blocking bridge against an `async` body.
// ---------------------------------------------------------------------

/// How the service under test is published.
#[derive(Debug, Clone)]
enum Published {
    /// One server with this spec.
    Spec(ProxySpec),
    /// A primary/backup group (`ProxySpec::Replicated`).
    Replicated,
}

/// The workload: each call's op and arguments. Adds interleaved with
/// repeated reads (hits for a cache, local calls once migrated), and for
/// a bulk spec a blob big enough to spill, read back twice.
fn workload(bulk: bool) -> Vec<(&'static str, Value)> {
    let mut calls = Vec::new();
    for i in 0..u64::from(CALLS) {
        calls.push(("add", Value::record([("n", Value::U64(i + 1))])));
        calls.push(("total", Value::Null));
        calls.push(("total", Value::Null));
    }
    if bulk {
        let blob = Value::blob((0..10_000u32).map(|i| i as u8).collect::<Vec<_>>());
        calls.push(("stash", Value::record([("v", blob)])));
        calls.push(("fetch", Value::Null));
        calls.push(("fetch", Value::Null));
    }
    calls
}

fn factories() -> FactoryRegistry {
    FactoryRegistry::new().register("adder", Adder::from_snapshot)
}

/// Publishes the service (and a blob store for a bulk spec), then runs
/// the workload in a client spawned by `client`, which gets the name
/// server, the workload and where to put the results.
fn twin_run(
    published: &Published,
    client: impl FnOnce(&Simulation, simnet::Endpoint, Vec<(&'static str, Value)>, Results),
) -> (RunShape, ProxyStats) {
    let mut sim = Simulation::new(NetworkConfig::lan(), 21);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    let bulk = matches!(published, Published::Spec(ProxySpec::Bulk { .. }));
    match published {
        Published::Spec(spec) => {
            ServiceBuilder::new("adder")
                .spec(spec.clone())
                .object(|| Box::<Adder>::default())
                .factories(factories())
                .spawn(&sim, NodeId(1), ns);
        }
        Published::Replicated => {
            let config = replication::ReplicaGroupConfig {
                service: "adder".into(),
                nodes: vec![NodeId(1), NodeId(3), NodeId(4)],
                propagation: replication::Propagation::Sync,
                read_target: proxy_core::ReadTarget::Nearest,
            };
            replication::spawn_replica_group(&sim, ns, config, || Box::<Adder>::default());
        }
    }
    if bulk {
        ServiceBuilder::new("blob")
            .object(|| Box::new(services::blob::BlobStore::new()))
            .spawn(&sim, NodeId(5), ns);
    }
    let results = Arc::new(Mutex::new(Vec::new()));
    client(&sim, ns, workload(bulk), Arc::clone(&results));
    sim.run();
    let results = std::mem::take(&mut *results.lock().unwrap());
    assert_eq!(results.len(), workload(bulk).len(), "every call answered");
    let proxy = sim.obs_report().proxies["adder@client"];
    (shape(&sim, results), proxy)
}

type Results = Arc<Mutex<Vec<Value>>>;

/// The client's session core: object factories, and the replica proxy.
fn core(ns: simnet::Endpoint) -> SessionCore {
    let mut core = SessionCore::new(ns).with_factories(factories());
    replication::register_replica_proxy(core.binder_mut());
    core
}

fn blocking_leg(published: &Published) -> (RunShape, ProxyStats) {
    twin_run(published, |sim, ns, calls, results| {
        sim.spawn("client", NodeId(2), move |ctx| {
            let mut rt = core(ns);
            let h = rt.bind(ctx, "adder").unwrap();
            for (op, args) in calls {
                let v = rt.invoke(ctx, h, op, args).unwrap();
                results.lock().unwrap().push(v);
            }
            rt.shutdown(ctx);
        });
    })
}

fn async_leg(published: &Published) -> (RunShape, ProxyStats) {
    twin_run(published, |sim, ns, calls, results| {
        sim.spawn_async("client", NodeId(2), move |cx| async move {
            let mut rt = core(ns);
            let h = rt.attach(cx, "adder").await.unwrap();
            for (op, args) in calls {
                let v = rt.call(cx, h, op, args).await.unwrap();
                results.lock().unwrap().push(v);
            }
            rt.close(cx).await;
        });
    })
}

#[test]
fn blocking_session_and_async_body_agree_for_every_spec() {
    let lease = Duration::from_millis(20);
    let caching = |coherence| {
        ProxySpec::Caching(CachingParams {
            coherence,
            capacity: 64,
        })
    };
    let bulk = |inner: ProxySpec| ProxySpec::Bulk {
        inner: Box::new(inner),
        params: BulkParams::default(),
    };
    let published = [
        Published::Spec(ProxySpec::Stub),
        Published::Spec(caching(Coherence::Lease(lease))),
        Published::Spec(caching(Coherence::Invalidate)),
        Published::Spec(caching(Coherence::LeaseAndInvalidate(lease))),
        Published::Spec(ProxySpec::Migratory { threshold: 3 }),
        Published::Spec(ProxySpec::Adaptive(AdaptiveParams {
            window: 6,
            enable_at: 0.6,
            disable_at: 0.2,
            caching: CachingParams::default(),
        })),
        Published::Replicated,
        Published::Spec(bulk(ProxySpec::Stub)),
        Published::Spec(bulk(caching(Coherence::Invalidate))),
    ];
    for p in &published {
        let (blocking, stats) = blocking_leg(p);
        assert_eq!(blocking.results[1], Value::U64(1), "{p:?}");
        assert_eq!((blocking, stats), async_leg(p), "{p:?}");
        // Each spec did what it is for, so the legs agree on real work.
        let worked = match p {
            Published::Spec(ProxySpec::Stub) | Published::Replicated => {
                stats.remote_calls == stats.invocations
            }
            Published::Spec(ProxySpec::Caching(_)) => stats.local_hits > 0,
            Published::Spec(ProxySpec::Migratory { .. }) => stats.migrations == 1,
            Published::Spec(ProxySpec::Adaptive(_)) => stats.strategy_switches > 0,
            Published::Spec(_) => stats.bulk_spills == 1 && stats.bulk_resolves > 0,
        };
        assert!(worked, "{p:?}: {stats:?}");
    }
}
