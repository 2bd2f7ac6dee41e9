//! The server context as a poll-driven machine: registration, FIFO
//! service time, at-most-once across a service time, and restart — each
//! at the simulated instants a sleeping server thread produced. Each
//! test says what it does at the parent commit, where the context was a
//! `sim.spawn` thread and an object modelled its time by sleeping inside
//! `dispatch`.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use naming::{spawn_name_server, NameClient, NAME_SERVER_PORT};
use obs::{Loc, NetEventKind};
use proxy_core::{
    CheckpointPolicy, FactoryRegistry, InterfaceDesc, OpDesc, ServiceBuilder, ServiceObject,
    SessionCore, StableStore,
};
use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RpcError};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, SimTime, Simulation, TraceEvent};
use wire::Value;

/// A channel to `to` for one plain call at a time.
fn channel(to: Endpoint) -> Channel {
    Channel::new("", to, ChannelConfig::with_depth(1))
}

/// One plain call of `op` on `ch`, the body blocked until it settles.
fn call(ch: &mut Channel, ctx: &mut Ctx, op: &str) -> Result<Value, RpcError> {
    ctx.block_on(|cx| ch.call(cx, "", op, Value::Null, None))
}

const MS: Duration = Duration::from_millis(1);

/// A LAN whose round trip is exactly 1 ms whatever a datagram weighs.
fn flat_lan() -> NetworkConfig {
    NetworkConfig {
        per_byte: Duration::ZERO,
        ..NetworkConfig::lan()
    }
}

/// `work` occupies the server for `time` and counts its executions;
/// `get` reads the count for free.
struct Work {
    time: Duration,
    runs: u64,
}

impl Work {
    fn boxed(time: Duration, runs: u64) -> Box<dyn ServiceObject> {
        Box::new(Work { time, runs })
    }
}

impl ServiceObject for Work {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "work",
            [OpDesc::write_whole("work"), OpDesc::read_whole("get")],
        )
    }

    fn service_time(&self, op: &str, _args: &Value) -> Duration {
        match op {
            "work" => self.time,
            _ => Duration::ZERO,
        }
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, _args: &Value) -> Result<Value, RemoteError> {
        match op {
            "work" => {
                self.runs += 1;
                Ok(Value::U64(self.runs))
            }
            "get" => Ok(Value::U64(self.runs)),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::U64(self.runs))
    }
}

/// Sleeps until the absolute instant `at` (services have registered,
/// every caller starts together).
fn sleep_until(ctx: &mut Ctx, at: SimTime) {
    ctx.sleep(at.saturating_since(ctx.now())).unwrap();
}

/// A handler runs inside its context's poll, where nothing may block: a
/// handler that tries to sleep panics in the service's own process, and
/// `run` reports that process by name. On a blocking body's stack the
/// sleep would simply have slept.
#[test]
fn a_builder_service_dispatches_inside_a_poll_driven_process() {
    struct Probe;
    impl ServiceObject for Probe {
        fn interface(&self) -> InterfaceDesc {
            InterfaceDesc::new("probe", [OpDesc::read_whole("get")])
        }
        fn dispatch(&mut self, ctx: &mut Ctx, _: &str, _: &Value) -> Result<Value, RemoteError> {
            let _ = ctx.sleep(MS);
            Ok(Value::Null)
        }
    }

    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("probe")
        .object(|| Box::new(Probe))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let probe = rt.attach(cx, "probe").await.unwrap();
        let _ = rt.call(cx, probe, "get", Value::Null).await;
    });
    let err = catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must panic");
    let msg = err.downcast_ref::<String>().expect("a string payload");
    assert!(msg.contains("- svc-probe: "), "unexpected report: {msg}");
}

/// At the parent: does not compile (`service_time` is new); the same
/// object sleeping 2 ms inside `dispatch` on the server's thread
/// answered at these instants.
#[test]
fn service_time_makes_the_context_a_fifo_server() {
    let mut sim = Simulation::new(flat_lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    let svc = ServiceBuilder::new("work")
        .object(|| Work::boxed(2 * MS, 0))
        .spawn(&sim, NodeId(1), ns);
    let start = SimTime::from_millis(20);
    let done = Arc::new(Mutex::new(Vec::new()));
    for node in 2..5 {
        let done = Arc::clone(&done);
        sim.spawn(format!("caller-{node}"), NodeId(node), move |ctx| {
            sleep_until(ctx, start);
            let nth = call(&mut channel(svc), ctx, "work").unwrap();
            let took = ctx.now().saturating_since(start);
            done.lock().unwrap().push((nth.as_u64().unwrap(), took));
        });
    }
    sim.run();
    let mut done = done.lock().unwrap().clone();
    done.sort();
    // One round trip plus every service time queued ahead, own included.
    assert_eq!(done, [(1, 3 * MS), (2, 5 * MS), (3, 7 * MS)]);
}

/// At the parent: does not compile (`service_time`); the sleeping thread
/// left the retransmission in its mailbox just the same and reported the
/// same counts and span.
#[test]
fn a_retransmission_during_a_long_service_time_is_answered_from_the_reply_cache() {
    let mut sim = Simulation::new(flat_lan(), 3);
    sim.enable_trace(1 << 12);
    let ns = spawn_name_server(&sim, NodeId(0));
    let svc = ServiceBuilder::new("work")
        .object(|| Work::boxed(15 * MS, 0))
        .spawn(&sim, NodeId(1), ns);
    let start = SimTime::from_millis(20);
    let checked = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&checked);
    sim.spawn("caller", NodeId(2), move |ctx| {
        sleep_until(ctx, start);
        // The default policy's 10 ms floor retransmits at +10 ms, while
        // the call is still in service.
        let mut client = channel(svc);
        assert_eq!(call(&mut client, ctx, "work").unwrap(), Value::U64(1));
        assert_eq!(ctx.now().saturating_since(start), 16 * MS);
        assert_eq!(client.stats.retries, 1);
        // The duplicate's answer is on its way; the handler ran once.
        ctx.sleep(5 * MS).unwrap();
        assert_eq!(call(&mut client, ctx, "get").unwrap(), Value::U64(1));
        c.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(checked.load(Ordering::SeqCst), 1);
    let served = sim.obs_report().rpc.server;
    assert_eq!(served.duplicates_suppressed, 1);
    assert_eq!(served.duplicates_dropped, 0);
    let spans: Vec<u64> = sim
        .take_trace()
        .iter()
        .filter_map(|r| match &r.event {
            TraceEvent::Net(NetEventKind::ServerExecute { op, dur_ns, .. }) if op == "work" => {
                Some(*dur_ns)
            }
            _ => None,
        })
        .collect();
    assert_eq!(spans, [15_000_000], "one dispatch span, open for 15 ms");
}

/// At the parent: passes — the blocking `NameClient::register` made the
/// same transmissions at the same instants.
#[test]
fn registration_retransmits_through_loss_and_gives_up_on_a_dead_name_server() {
    // Under 30 % loss the registration gets through on a retransmission.
    let mut sim = Simulation::new(NetworkConfig::lan().with_loss(0.3), 5);
    sim.enable_trace(1 << 12);
    let ns = spawn_name_server(&sim, NodeId(0));
    let svc = ServiceBuilder::new("work")
        .object(|| Work::boxed(Duration::ZERO, 0))
        .spawn(&sim, NodeId(1), ns);
    sim.run_until(SimTime::from_millis(200));
    let retransmissions = sim
        .take_trace()
        .iter()
        .filter(|r| {
            matches!(r.event, TraceEvent::Net(NetEventKind::Retransmit { src, .. }) if src == Loc::from(svc))
        })
        .count();
    assert!(
        retransmissions >= 1,
        "the seed must lose a transmission to prove anything"
    );
    sim.net().set_loss(0.0);
    let found = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&found);
    sim.spawn_async("resolver", NodeId(2), move |cx| async move {
        let rec = NameClient::new(ns).lookup(cx, "work", None).await.unwrap();
        assert_eq!((rec.endpoint, rec.generation), (svc, 1));
        f.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(found.load(Ordering::SeqCst), 1);

    // Nobody listens at the name server's endpoint: the default policy
    // (10 ms floor, 4 attempts, doubling) gives up after 10+20+40+80 ms
    // and the process panics, naming its service.
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let nobody = Endpoint::new(NodeId(0), NAME_SERVER_PORT);
    ServiceBuilder::new("orphan")
        .object(|| Work::boxed(Duration::ZERO, 0))
        .spawn(&sim, NodeId(1), nobody);
    let panic = catch_unwind(AssertUnwindSafe(|| sim.run())).unwrap_err();
    let msg = panic.downcast_ref::<String>().expect("a formatted panic");
    assert!(
        msg.contains("svc-orphan: service `orphan` failed to register"),
        "{msg}"
    );
    assert_eq!(sim.now(), SimTime::from_millis(150));
}

fn work_factories() -> FactoryRegistry {
    FactoryRegistry::new().register("work", |snapshot| {
        Ok(Work::boxed(
            Duration::ZERO,
            snapshot.as_u64().unwrap_or_default(),
        ))
    })
}

fn recoverable(store: &StableStore) -> ServiceBuilder {
    ServiceBuilder::new("work")
        .factories(work_factories())
        .recovered(CheckpointPolicy::every(store.clone(), 1))
        .object(|| Work::boxed(Duration::ZERO, 0))
}

/// Kills an idle service and restarts it from its checkpoint through the
/// builder, from inside the client process. Returns the report and the
/// trace.
fn crash_and_recover() -> (String, String) {
    let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.2), 6);
    sim.enable_trace(1 << 14);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    let first = recoverable(&store).spawn(&sim, NodeId(1), ns);
    let checked = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&checked);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let work = rt.bind(ctx, "work").unwrap();
        for _ in 0..3 {
            rt.invoke(ctx, work, "work", Value::Null).unwrap();
        }
        assert!(ctx.kill(first));
        match rt.invoke(ctx, work, "get", Value::Null) {
            Err(RpcError::Timeout { .. }) => {}
            other => panic!("expected an outage, got {other:?}"),
        }
        let reborn = recoverable(&store).spawn_from(ctx, NodeId(1), ns);
        ctx.sleep(10 * MS).unwrap();
        // Same handle: the stub re-resolves once and finds the state the
        // checkpoint kept.
        assert_eq!(
            rt.invoke(ctx, work, "get", Value::Null).unwrap(),
            Value::U64(3)
        );
        assert_eq!(rt.stats(work).rebinds, 1);
        let mut nc = NameClient::new(ns);
        let rec = (ctx.block_on(|cx| nc.lookup(cx, "work", None))).unwrap();
        assert_eq!((rec.endpoint, rec.generation), (reborn, 2));
        c.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(checked.load(Ordering::SeqCst), 1);
    (
        sim.obs_report().to_json(),
        obs::to_jsonl(&sim.causal_trace()),
    )
}

/// At the parent: passes — the registration was a polled client
/// call with a matcher of its own, which dropped and counted the same
/// request.
#[test]
fn a_request_that_finds_the_service_still_registering_is_dropped_counted_and_retransmitted() {
    let mut sim = Simulation::new(flat_lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    let first = recoverable(&store).spawn(&sim, NodeId(1), ns);
    let checked = Arc::new(AtomicU64::new(0));
    let c = Arc::clone(&checked);
    sim.spawn("client", NodeId(2), move |ctx| {
        ctx.sleep(20 * MS).unwrap();
        let mut client = channel(first);
        for n in 1..=3 {
            assert_eq!(call(&mut client, ctx, "work").unwrap(), Value::U64(n));
        }
        assert!(ctx.kill(first));
        // The client knows the new endpoint before the name server does:
        // its request arrives half a millisecond into the registration's
        // one-millisecond round trip. The registering service has nobody
        // to hand it to; the retransmission 10 ms later is served.
        let reborn = recoverable(&store).spawn_from(ctx, NodeId(1), ns);
        let sent = ctx.now();
        let mut client = channel(reborn);
        assert_eq!(call(&mut client, ctx, "work").unwrap(), Value::U64(4));
        assert_eq!(ctx.now().saturating_since(sent), 11 * MS);
        assert_eq!(client.stats.retries, 1);
        assert_eq!(call(&mut client, ctx, "get").unwrap(), Value::U64(4));
        c.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(checked.load(Ordering::SeqCst), 1);
    let rpc = sim.obs_report().rpc;
    assert_eq!(rpc.client.strays_dropped, 1, "the registering service's");
    assert_eq!(rpc.client.retries, 1, "the client's");
    // Two registrations, four `work`s, one `get`: nothing ran twice.
    assert_eq!(rpc.server.executed, 7);
    assert_eq!(rpc.server.duplicates_suppressed, 0);
}

/// At the parent: does not compile (`spawn_from`); its hand-rolled
/// restart thread re-registered at the same instant. Two runs of the
/// seed give the same report and trace.
#[test]
fn a_killed_service_restarts_recovered_and_identically_at_any_thread_count() {
    let one = crash_and_recover();
    assert!(one == crash_and_recover(), "diverged between two runs");
}
