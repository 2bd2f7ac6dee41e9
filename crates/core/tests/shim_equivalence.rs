//! Shim equivalence: the blocking `Session` surface and the
//! non-blocking `SessionCore` surface are two faces of one engine, so a
//! workload expressed both ways must look identical to the service.
//!
//! Twin runs with the same seed — one blocking client using
//! `Session::{bind,invoke}`, one poll-driven `Process` using
//! `bind_async`/`invoke_async` — must produce the same per-call
//! results, the same server-side dispatch counts, and the same number
//! of client RPC calls.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use proxy_core::{
    AsyncHandle, BindFuture, CallFuture, InterfaceDesc, OpDesc, ProxySpec, ServiceBuilder,
    ServiceObject, Session, SessionCore,
};
use rpc::{ErrorCode, RemoteError};
use simnet::{NetworkConfig, NodeId, Poll, ProcCx, Process, Simulation};
use wire::Value;

const CALLS: u32 = 10;

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

/// What one run looks like from the outside: every call's result, the
/// service's dispatch count, and the client-side RPC call count.
#[derive(Debug, PartialEq)]
struct RunShape {
    results: Vec<u64>,
    dispatched: u64,
    client_calls: u64,
}

fn shape(sim: &Simulation, results: Vec<u64>) -> RunShape {
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
        .object(|| Box::new(Adder(0)))
        .spawn(&sim, NodeId(1), ns);
    let results = Arc::new(Mutex::new(Vec::new()));
    let r2 = Arc::clone(&results);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut session = Session::new(&mut rt, ctx);
        let h = session.bind("adder").unwrap();
        for i in 0..CALLS {
            let v = session
                .invoke(
                    h,
                    "add",
                    Value::record([("n", Value::U64(u64::from(i) + 1))]),
                )
                .unwrap();
            r2.lock().unwrap().push(v.as_u64().unwrap());
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
    results: Arc<Mutex<Vec<u64>>>,
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
                        self.results.lock().unwrap().push(v.as_u64().unwrap());
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
        .object(|| Box::new(Adder(0)))
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
                Some(*acc)
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
        .object(|| Box::new(Adder(0)))
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
