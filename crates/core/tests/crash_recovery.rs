//! At-most-once across a crash: a call whose reply was lost must not run
//! again on the incarnation that recovers from the checkpoint it wrote.
//!
//! A counter service checkpoints every `every` writes. A client makes
//! `incr` calls, each tagged with its number, and then reads the counter
//! and the tags it applied. The `lose`-th execution cuts the link to the
//! client before its reply leaves, so the client keeps retransmitting
//! into the partition. 20 ms later a controller kills that incarnation, heals the
//! link and restarts the service from its checkpoint. The client's call
//! times out, its stub looks the name up again, finds the new
//! incarnation and re-sends the call under the id it was first sent
//! under.
//!
//! If the checkpoint holds the lost call's effect, it holds its reply
//! too, and the recovered incarnation answers the call from its restored
//! window without running it. If the crash fell between the execution
//! and its checkpoint, the effect was lost with the reply, the restored
//! window does not know the call, and it runs once more. Either way the
//! state that survives holds each call it knows once.
//!
//! A call answered `Moved` is re-sent the same way: under its first id,
//! to the new home.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::proxies::Remote;
use proxy_core::{
    CheckpointPolicy, FactoryRegistry, InterfaceDesc, OpDesc, ServiceBuilder, ServiceObject,
    SessionCore, StableStore,
};
use rpc::{endpoint_to_value, ErrorCode, Packet, RemoteError, RpcError, RpcServer};
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

const SERVER: NodeId = NodeId(1);
const CLIENT: NodeId = NodeId(2);
const CALLS: u64 = 4;

/// How one service is set up: its checkpoint interval, which execution
/// loses its reply, and what its incarnations share.
#[derive(Debug, Clone)]
struct Setup {
    every: u64,
    lose: u64,
    store: StableStore,
    /// `incr` executions over every incarnation.
    runs: Arc<AtomicU64>,
    ns: Endpoint,
}

/// A counter that keeps the tag of every `incr` it applied, and cuts its
/// node off from the client's at the `lose`-th execution, having a
/// controller crash and restart it 20 ms later.
#[derive(Debug)]
struct Counter {
    applied: Vec<u64>,
    setup: Setup,
}

impl ServiceObject for Counter {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "counter",
            [
                OpDesc::write_whole("incr"),
                OpDesc::read_whole("get"),
                OpDesc::read_whole("applied"),
            ],
        )
    }

    fn dispatch(&mut self, ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "incr" => {
                let tag = (args.get_u64("call"))
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.applied.push(tag);
                if self.setup.runs.fetch_add(1, Ordering::SeqCst) + 1 == self.setup.lose {
                    ctx.net().partition(SERVER, CLIENT);
                    let (me, setup) = (ctx.endpoint(), self.setup.clone());
                    ctx.spawn_async("controller", NodeId(3), move |cx| async move {
                        cx.sleep(Duration::from_millis(20)).await.unwrap();
                        cx.with(|ctx| {
                            assert!(ctx.kill(me));
                            ctx.net().heal(SERVER, CLIENT);
                            counter_service(&setup).spawn_from(ctx, SERVER, setup.ns);
                        });
                    });
                }
                Ok(Value::U64(self.applied.len() as u64))
            }
            "get" => Ok(Value::U64(self.applied.len() as u64)),
            "applied" => self.snapshot(),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::list(self.applied.iter().map(|&t| Value::U64(t))))
    }
}

fn counter_service(setup: &Setup) -> ServiceBuilder {
    let (fresh, restored) = (setup.clone(), setup.clone());
    let factories = FactoryRegistry::new().register("counter", move |v: &Value| {
        let applied = (v.as_list().into_iter().flatten())
            .map(|t| t.as_u64())
            .collect::<Option<_>>()
            .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "counter snapshot"))?;
        let setup = restored.clone();
        Ok(Box::new(Counter { applied, setup }) as Box<dyn ServiceObject>)
    });
    ServiceBuilder::new("counter")
        .factories(factories)
        .recovered(CheckpointPolicy::every(setup.store.clone(), setup.every))
        .object(move || {
            Box::new(Counter {
                applied: Vec::new(),
                setup: fresh,
            })
        })
}

/// What one crash and recovery leaves.
#[derive(Debug)]
struct Crash {
    /// What each `incr` returned, in call order.
    incrs: Vec<Result<Value, RpcError>>,
    /// What the final `get` read.
    get: Result<Value, RpcError>,
    /// The tags the final `applied` read.
    applied: Result<Value, RpcError>,
    runs: u64,
    store: StableStore,
}

/// `calls` tagged `incr`s, then `get` and `applied`, against a service
/// that checkpoints every `every` writes and loses the `lose`-th reply.
fn crash(every: u64, lose: u64, calls: u64) -> Crash {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    let setup = Setup {
        every,
        lose,
        store: StableStore::new(),
        runs: Arc::new(AtomicU64::new(0)),
        ns,
    };
    counter_service(&setup).spawn(&sim, SERVER, ns);

    let seen = Arc::new(Mutex::new(None));
    let s = Arc::clone(&seen);
    sim.spawn_async("client", CLIENT, move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let counter = rt.attach(cx, "counter").await.unwrap();
        let mut incrs = Vec::new();
        for call in 1..=calls {
            let args = Value::record([("call", Value::U64(call))]);
            incrs.push(rt.call(cx, counter, "incr", args).await);
        }
        // The proxy stays bound to the recovered incarnation.
        let get = rt.call(cx, counter, "get", Value::Null).await;
        let applied = rt.call(cx, counter, "applied", Value::Null).await;
        *s.lock().unwrap() = Some((incrs, get, applied));
    });
    sim.run();
    let (incrs, get, applied) = seen.lock().unwrap().take().expect("the client finished");
    Crash {
        incrs,
        get,
        applied,
        runs: setup.runs.load(Ordering::SeqCst),
        store: setup.store,
    }
}

fn tags(tags: impl IntoIterator<Item = u64>) -> Value {
    Value::list(tags.into_iter().map(Value::U64))
}

#[test]
fn every_call_runs_once_in_the_state_that_survives_whatever_reply_a_crash_loses() {
    for every in 1..=3 {
        for lose in 1..=CALLS {
            let Crash {
                incrs,
                get,
                applied,
                runs,
                ..
            } = crash(every, lose, CALLS);
            let case = format!("checkpoint every {every}, reply {lose} lost");
            // The checkpoint before the crash holds the calls up to
            // `kept`; those between it and the lost one were answered, and
            // their effects died with the incarnation. The lost call is
            // re-sent and answered: from the restored window if the
            // checkpoint holds it, by its one execution there if not.
            let kept = lose - lose % every;
            let survivors: Vec<u64> = (1..=kept).chain(lose.max(kept + 1)..=CALLS).collect();
            assert_eq!(applied, Ok(tags(survivors.iter().copied())), "{case}");
            let rerun = u64::from(kept < lose);
            assert_eq!(runs, CALLS + rerun, "{case}: executions");
            for (call, got) in (1..=CALLS).zip(&incrs) {
                assert!(got.is_ok(), "{case}: incr {call} answered {got:?}");
            }
            // From the lost call on, each answer is where the call stands
            // in the surviving state, and the last agrees with `get`.
            for call in lose..=CALLS {
                let at = survivors.iter().position(|&t| t == call).unwrap() as u64 + 1;
                assert_eq!(incrs[call as usize - 1], Ok(Value::U64(at)), "{case}");
            }
            let last = Ok(Value::U64(survivors.len() as u64));
            assert_eq!((incrs.last(), &get), (Some(&last), &last), "{case}");
        }
    }
}

#[test]
fn a_lost_reply_is_not_executed_again_by_the_recovered_incarnation() {
    let Crash {
        incrs,
        get,
        runs,
        store,
        ..
    } = crash(1, 1, 1);
    assert_eq!(runs, 1, "incr executed more than once");
    assert_eq!(incrs, [Ok(Value::U64(1))]);
    assert_eq!(get, Ok(Value::U64(1)));
    let checkpoint = store.load(SERVER, "counter").expect("a checkpoint");
    let object = &checkpoint.as_list().expect("[object, windows]")[0];
    assert_eq!(object, &tags([1]));
}

#[test]
fn a_kill_between_execution_and_checkpoint_loses_the_effect_with_its_reply() {
    let Crash {
        incrs,
        get,
        applied,
        runs,
        ..
    } = crash(2, 1, 1);
    assert_eq!(runs, 2, "the lost execution, and one more");
    assert_eq!(incrs, [Ok(Value::U64(1))]);
    assert_eq!(get, Ok(Value::U64(1)));
    assert_eq!(applied, Ok(tags([1])));
}

/// Spawns a home at `node` that notes the `(id, lo)` of each request it
/// receives in `seen`, and answers it with `answer`.
fn home(
    sim: &Simulation,
    node: NodeId,
    seen: &Arc<Mutex<Vec<(u64, u64)>>>,
    answer: impl Fn() -> Result<Value, RemoteError> + Send + 'static,
) -> Endpoint {
    let seen = Arc::clone(seen);
    sim.spawn_async_at("home", node, PortId(1), move |cx| async move {
        let mut srv = RpcServer::new();
        while let Ok(msg) = cx.recv().await {
            if let Ok(Packet::Request(req, lo)) = Packet::from_frame(&msg.payload) {
                seen.lock().unwrap().push((req.call_id, lo));
            }
            cx.with(|ctx| srv.handle(ctx, &msg, |_, _| answer()));
        }
    })
}

#[test]
fn a_call_answered_moved_runs_at_the_new_home_under_its_first_id() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (at_old, at_new) = (Arc::default(), Arc::default());
    let new_home = home(&sim, NodeId(2), &at_new, || Ok(Value::U64(1)));
    let old_home = home(&sim, NodeId(1), &at_old, move || {
        let to = endpoint_to_value(new_home);
        Err(RemoteError::with_data(ErrorCode::Moved, "moved", to))
    });
    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    sim.spawn_async("client", NodeId(3), move |cx| async move {
        let iface = InterfaceDesc::new("counter", [OpDesc::write_whole("incr")]);
        let mut remote = Remote::new("counter", old_home, old_home, iface);
        let got = remote.call(cx, "incr", Value::Null, &mut Vec::new()).await;
        assert_eq!(got, Ok(Value::U64(1)));
        assert_eq!(remote.server(), new_home);
        d.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);
    let (at_old, at_new) = (at_old.lock().unwrap(), at_new.lock().unwrap());
    let [(id, lo)] = at_old[..] else {
        panic!("the old home saw {at_old:?}");
    };
    assert!(lo <= id, "lo {lo} passed id {id}");
    assert!(!at_new.is_empty());
    for &(new_id, new_lo) in at_new.iter() {
        assert_eq!(new_id, id, "re-sent under another id");
        assert!(new_lo <= id, "lo {new_lo} passed id {id}");
    }
}
