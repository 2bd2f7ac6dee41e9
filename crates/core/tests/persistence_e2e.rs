//! Crash/recovery tests: checkpointing to stable storage, restart from
//! the last checkpoint, and transparent client recovery through the
//! binding protocol.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    CheckpointPolicy, FactoryRegistry, InterfaceDesc, OpDesc, ServiceBuilder, ServiceObject,
    SessionCore, StableStore,
};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

#[derive(Debug, Default)]
struct Kv(BTreeMap<String, String>);

impl Kv {
    fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let mut kv = Kv::default();
        if let Some(fields) = v.as_record() {
            for (k, val) in fields {
                if let Some(s) = val.as_str() {
                    kv.0.insert(k.to_string_owned(), s.to_owned());
                }
            }
        }
        Ok(Box::new(kv))
    }
}

impl ServiceObject for Kv {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "pkv",
            [OpDesc::read("get", "key"), OpDesc::write("put", "key")],
        )
    }
    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        let key = args
            .get_str("key")
            .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
        match op {
            "get" => Ok(self
                .0
                .get(key)
                .map(|v| Value::str(v.clone()))
                .unwrap_or(Value::Null)),
            "put" => {
                let v = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.0.insert(key.to_owned(), v.to_owned());
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
        ))
    }
}

fn factories() -> FactoryRegistry {
    FactoryRegistry::new().register("pkv", Kv::from_snapshot)
}

fn put(rt: &mut SessionCore, ctx: &mut Ctx, h: proxy_core::ProxyHandle, k: &str, v: &str) {
    rt.invoke(
        ctx,
        h,
        "put",
        Value::record([("key", Value::str(k)), ("value", Value::str(v))]),
    )
    .unwrap();
}

fn get(
    rt: &mut SessionCore,
    ctx: &mut Ctx,
    h: proxy_core::ProxyHandle,
    k: &str,
) -> Result<Value, RpcError> {
    rt.invoke(ctx, h, "get", Value::record([("key", Value::str(k))]))
}

#[test]
fn checkpoints_are_written_on_schedule() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    let s2 = store.clone();
    ServiceBuilder::new("kv")
        .factories(factories())
        .recovered(CheckpointPolicy::every(store.clone(), 3))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        // 2 writes: below the interval, no checkpoint yet.
        put(&mut rt, ctx, kv, "a", "1");
        put(&mut rt, ctx, kv, "b", "2");
        assert!(s2.load(NodeId(1), "kv").is_none());
        // Third write crosses the interval.
        put(&mut rt, ctx, kv, "c", "3");
        let snap = s2.load(NodeId(1), "kv").expect("checkpoint missing");
        assert_eq!(snap.get("c").and_then(Value::as_str), Some("3"));
    });
    sim.run();
}

#[test]
fn crash_restart_recovers_last_checkpoint_and_clients_rebind() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();

    let old_incarnation = ServiceBuilder::new("kv")
        .factories(factories())
        .recovered(CheckpointPolicy::every(store.clone(), 2))
        .object(|| Box::new(Kv::default()))
        .spawn(&sim, NodeId(1), ns);

    let verified = Arc::new(AtomicU64::new(0));
    let v2 = Arc::clone(&verified);
    let store2 = store.clone();
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        put(&mut rt, ctx, kv, "a", "1");
        put(&mut rt, ctx, kv, "b", "2"); // checkpoint happens here
        put(&mut rt, ctx, kv, "c", "3"); // NOT yet checkpointed

        // ── Crash: the service process dies (volatile state gone). ──
        assert!(ctx.kill(old_incarnation));
        match get(&mut rt, ctx, kv, "a") {
            Err(RpcError::Timeout { .. }) => {}
            other => panic!("expected timeout during outage, got {other:?}"),
        }

        // ── Recovery: a fresh incarnation restarts on the same node
        //    from the last checkpoint and re-registers. ─────────────
        ServiceBuilder::new("kv")
            .factories(factories())
            .recovered(CheckpointPolicy::every(store2.clone(), 2))
            .object(|| Box::new(Kv::default()))
            .spawn_from(ctx, NodeId(1), ns);
        ctx.sleep(Duration::from_millis(10)).unwrap();

        // The stub proxy re-resolves through naming after its timeout:
        // same proxy handle, new incarnation.
        assert_eq!(get(&mut rt, ctx, kv, "a").unwrap(), Value::str("1"));
        assert_eq!(get(&mut rt, ctx, kv, "b").unwrap(), Value::str("2"));
        // Classic checkpoint semantics: the uncheckpointed write is gone.
        assert_eq!(get(&mut rt, ctx, kv, "c").unwrap(), Value::Null);
        assert!(rt.stats(kv).rebinds >= 1, "proxy should have re-resolved");
        v2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(verified.load(Ordering::SeqCst), 1);
}

#[test]
fn recovery_with_empty_store_starts_fresh() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    ServiceBuilder::new("kv")
        .factories(factories())
        .recovered(CheckpointPolicy::every(store, 5))
        .object(|| {
            let mut kv = Kv::default();
            kv.0.insert("seeded".into(), "yes".into());
            Box::new(kv)
        })
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        assert_eq!(get(&mut rt, ctx, kv, "seeded").unwrap(), Value::str("yes"));
    });
    sim.run();
}

#[test]
fn checkpoints_are_per_node() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    // Two services with the same name-prefix on different nodes must not
    // clobber each other's checkpoints.
    for (node, svc) in [(1u32, "kv-a"), (2, "kv-b")] {
        ServiceBuilder::new(svc)
            .factories(factories())
            .recovered(CheckpointPolicy::every(store.clone(), 1))
            .object(|| Box::new(Kv::default()))
            .spawn(&sim, NodeId(node), ns);
    }
    let s2 = store.clone();
    sim.spawn("client", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let a = rt.bind(ctx, "kv-a").unwrap();
        let b = rt.bind(ctx, "kv-b").unwrap();
        put(&mut rt, ctx, a, "x", "from-a");
        put(&mut rt, ctx, b, "x", "from-b");
        let snap_a = s2.load(NodeId(1), "kv-a").unwrap();
        let snap_b = s2.load(NodeId(2), "kv-b").unwrap();
        assert_eq!(snap_a.get("x").and_then(Value::as_str), Some("from-a"));
        assert_eq!(snap_b.get("x").and_then(Value::as_str), Some("from-b"));
    });
    sim.run();
}
