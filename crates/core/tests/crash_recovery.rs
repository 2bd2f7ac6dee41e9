//! At-most-once across a crash: a call whose reply was lost must not run
//! again on the incarnation that recovers from the checkpoint it wrote.
//!
//! A counter service checkpoints every write. Its first `incr` cuts the
//! link to the client before the reply leaves, so the client keeps
//! retransmitting into the partition. At 20 ms a controller kills that
//! incarnation, heals the link and restarts the service from its
//! checkpoint (`n = 1`, the increment already applied). The client's
//! call times out, its stub looks the name up again and finds the new
//! incarnation. Re-issuing `incr` there would be a new call the new
//! incarnation cannot tell from the first, and it would answer `2`.
//!
//! The same crash with a checkpoint every second write lands between the
//! execution and its checkpoint: the recovered incarnation starts cold,
//! having lost the increment and its reply together. Whatever the client
//! is told must then agree with what the service reads.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    CheckpointPolicy, FactoryRegistry, InterfaceDesc, OpDesc, ServiceBuilder, ServiceObject,
    SessionCore, StableStore,
};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

const SERVER: NodeId = NodeId(1);
const CLIENT: NodeId = NodeId(2);

/// A counter that counts its executions of `incr` across incarnations,
/// and partitions its node from the client's during the first.
#[derive(Debug)]
struct Counter {
    n: u64,
    runs: Arc<AtomicU64>,
}

impl ServiceObject for Counter {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "counter",
            [OpDesc::write_whole("incr"), OpDesc::read_whole("get")],
        )
    }

    fn dispatch(&mut self, ctx: &mut Ctx, op: &str, _args: &Value) -> Result<Value, RemoteError> {
        match op {
            "incr" => {
                self.n += 1;
                if self.runs.fetch_add(1, Ordering::SeqCst) == 0 {
                    ctx.net().partition(SERVER, CLIENT);
                }
                Ok(Value::U64(self.n))
            }
            "get" => Ok(Value::U64(self.n)),
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::U64(self.n))
    }
}

fn counter_service(store: &StableStore, every: u64, runs: &Arc<AtomicU64>) -> ServiceBuilder {
    let (fresh, restored) = (Arc::clone(runs), Arc::clone(runs));
    let factories = FactoryRegistry::new().register("counter", move |v: &Value| {
        let n = v
            .as_u64()
            .ok_or_else(|| RemoteError::new(ErrorCode::BadArgs, "counter snapshot"))?;
        let runs = Arc::clone(&restored);
        Ok(Box::new(Counter { n, runs }) as Box<dyn ServiceObject>)
    });
    ServiceBuilder::new("counter")
        .factories(factories)
        .recovered(CheckpointPolicy::every(store.clone(), every))
        .object(move || Box::new(Counter { n: 0, runs: fresh }))
}

/// What one crash and recovery leaves, for a service checkpointing every
/// `every` writes.
struct Crash {
    incr: Result<Value, RpcError>,
    get: Result<Value, RpcError>,
    runs: u64,
    store: StableStore,
}

fn crash(every: u64) -> Crash {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    let runs = Arc::new(AtomicU64::new(0));
    let first = counter_service(&store, every, &runs).spawn(&sim, SERVER, ns);

    let (st, r) = (store.clone(), Arc::clone(&runs));
    sim.spawn("controller", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(20)).unwrap();
        assert!(ctx.kill(first));
        ctx.net().heal(SERVER, CLIENT);
        counter_service(&st, every, &r).spawn_from(ctx, SERVER, ns);
    });

    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    sim.spawn("client", CLIENT, move |ctx| {
        let mut rt = SessionCore::new(ns);
        let counter = rt.bind(ctx, "counter").unwrap();
        let incr = rt.invoke(ctx, counter, "incr", Value::Null);
        // The proxy stays bound to the recovered incarnation.
        let get = rt.invoke(ctx, counter, "get", Value::Null);
        s.lock().unwrap().extend([incr, get]);
    });
    sim.run();
    let mut seen = std::mem::take(&mut *seen.lock().unwrap()).into_iter();
    Crash {
        incr: seen.next().expect("incr answered"),
        get: seen.next().expect("get answered"),
        runs: runs.load(Ordering::SeqCst),
        store,
    }
}

#[test]
fn a_lost_reply_is_not_executed_again_by_the_recovered_incarnation() {
    let Crash {
        incr,
        get,
        runs,
        store,
    } = crash(1);
    assert_eq!(runs, 1, "incr executed more than once");
    assert!(
        matches!(incr, Ok(Value::U64(1)) | Err(RpcError::Timeout { .. })),
        "incr answered {incr:?}"
    );
    assert_eq!(get, Ok(Value::U64(1)));
    assert_eq!(store.load(SERVER, "counter"), Some(Value::U64(1)));
}

#[test]
fn a_kill_between_execution_and_checkpoint_loses_the_effect_with_its_reply() {
    let Crash { incr, get, .. } = crash(2);
    match incr {
        Ok(Value::U64(1)) => assert_eq!(get, Ok(Value::U64(1)), "incr said 1"),
        Err(RpcError::Timeout { .. }) => assert_eq!(get, Ok(Value::U64(0)), "incr timed out"),
        other => panic!("incr answered {other:?}"),
    }
}
