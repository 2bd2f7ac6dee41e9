//! End-to-end replication tests: read placement, consistency guarantees,
//! and sync-vs-async propagation behaviour.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{InterfaceDesc, OpDesc, ReadTarget, ServiceObject};
use replication::{client_runtime, spawn_replica_group, Propagation, ReplicaGroupConfig};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

/// A versioned register (one cell) — the minimal replicated object.
struct Register(u64);

impl ServiceObject for Register {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "register",
            [OpDesc::read_whole("read"), OpDesc::write_whole("write")],
        )
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        match op {
            "read" => Ok(Value::U64(self.0)),
            "write" => {
                self.0 = args
                    .get_u64("v")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
}

fn group(service: &str, nodes: &[u32], propagation: Propagation) -> ReplicaGroupConfig {
    ReplicaGroupConfig {
        service: service.into(),
        nodes: nodes.iter().map(|&n| NodeId(n)).collect(),
        propagation,
        read_target: ReadTarget::Nearest,
    }
}

#[test]
fn write_then_read_sync() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_replica_group(
        &sim,
        ns,
        group("reg", &[1, 2, 3], Propagation::Sync),
        || Box::new(Register(0)),
    );
    sim.spawn("client", NodeId(4), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();
        for i in 1..=20u64 {
            rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(i))]))
                .unwrap();
            assert_eq!(
                rt.invoke(ctx, reg, "read", Value::Null).unwrap(),
                Value::U64(i)
            );
        }
    });
    sim.run();
}

#[test]
fn nearest_replica_serves_reads() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    // Make node 3 (second backup) much closer to the client's node 5.
    {
        let mut net = sim.net();
        net.set_link_latency(NodeId(5), NodeId(1), Duration::from_millis(5));
        net.set_link_latency(NodeId(5), NodeId(2), Duration::from_millis(3));
        net.set_link_latency(NodeId(5), NodeId(3), Duration::from_micros(100));
    }
    let replicas = spawn_replica_group(
        &sim,
        ns,
        group("reg", &[1, 2, 3], Propagation::Sync),
        || Box::new(Register(7)),
    );
    let near = replicas[2]; // replica on node 3
    sim.spawn("client", NodeId(5), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();
        // Pure reads: all should go to the nearest replica.
        let t0 = ctx.now();
        for _ in 0..10 {
            assert_eq!(
                rt.invoke(ctx, reg, "read", Value::Null).unwrap(),
                Value::U64(7)
            );
        }
        let elapsed = ctx.now() - t0;
        // 10 reads at ~200us RTT (nearest) ≪ 10 reads at 6-10ms RTT.
        assert!(
            elapsed < Duration::from_millis(5),
            "reads were not served nearby: {elapsed:?}"
        );
        let _ = near; // (endpoint identity checked indirectly via latency)
    });
    sim.run();
}

#[test]
fn read_your_writes_under_async_propagation() {
    // Async propagation: backups lag. The version floor must route reads
    // to the primary until the nearest replica catches up.
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    // Client sits next to a backup; primary is far.
    {
        let mut net = sim.net();
        net.set_link_latency(NodeId(4), NodeId(1), Duration::from_millis(10));
        net.set_link_latency(NodeId(4), NodeId(2), Duration::from_micros(100));
        // Propagation from primary (1) to backup (2) is slow:
        net.set_link_latency(NodeId(1), NodeId(2), Duration::from_millis(20));
    }
    spawn_replica_group(&sim, ns, group("reg", &[1, 2], Propagation::Async), || {
        Box::new(Register(0))
    });
    let fallbacks = Arc::new(AtomicU64::new(0));
    sim.spawn("client", NodeId(4), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();
        for i in 1..=10u64 {
            rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(i))]))
                .unwrap();
            // Immediately read: the nearby backup has almost surely not
            // seen the update yet, so the proxy must fall back to the
            // primary rather than return a stale value.
            assert_eq!(
                rt.invoke(ctx, reg, "read", Value::Null).unwrap(),
                Value::U64(i),
                "stale read violated read-your-writes"
            );
        }
        fallbacks.store(1, Ordering::SeqCst);
    });
    sim.run();
}

#[test]
fn backups_converge_after_async_writes() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_replica_group(
        &sim,
        ns,
        group("reg", &[1, 2, 3], Propagation::Async),
        || Box::new(Register(0)),
    );
    sim.spawn("writer", NodeId(4), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();
        for i in 1..=50u64 {
            rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(i))]))
                .unwrap();
        }
        // Give propagation time to drain, then check convergence through
        // a fresh binding that reads from a (nearest) replica.
        ctx.sleep(Duration::from_millis(50)).unwrap();
        let mut rt2 = client_runtime(ns);
        let reg2 = rt2.bind(ctx, "reg").unwrap();
        assert_eq!(
            rt2.invoke(ctx, reg2, "read", Value::Null).unwrap(),
            Value::U64(50)
        );
    });
    sim.run();
}

#[test]
fn writes_to_backup_redirect_to_primary() {
    // Force the read target to a backup, then check NotPrimary handling
    // by writing through a proxy whose "primary" record is stale.
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    let replicas = spawn_replica_group(&sim, ns, group("reg", &[1, 2], Propagation::Sync), || {
        Box::new(Register(0))
    });
    let backup = replicas[1];
    sim.spawn("client", NodeId(3), move |ctx| {
        // Hand-build a raw RPC to the backup to verify the NotPrimary
        // error surface (a real proxy would never do this).
        let mut raw = rpc::Channel::new("", backup, rpc::ChannelConfig::with_depth(1));
        let args = Value::record([("v", Value::U64(1))]);
        let err = (ctx.block_on(|cx| raw.call(cx, "", "write", args, None))).unwrap_err();
        match err {
            rpc::RpcError::Remote(e) => assert_eq!(e.code, ErrorCode::NotPrimary),
            other => panic!("expected NotPrimary, got {other:?}"),
        }
    });
    sim.run();
}

#[test]
fn sync_propagation_keeps_replicas_current() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 6);
    let ns = spawn_name_server(&sim, NodeId(0));
    let replicas = spawn_replica_group(
        &sim,
        ns,
        group("reg", &[1, 2, 3], Propagation::Sync),
        || Box::new(Register(0)),
    );
    sim.spawn("client", NodeId(4), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();
        rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(42))]))
            .unwrap();
        // Read every replica directly: sync mode means none may lag.
        for &r in &replicas {
            let mut raw = rpc::Channel::new("", r, rpc::ChannelConfig::with_depth(1));
            let reply = (ctx.block_on(|cx| raw.call(cx, "", "read", Value::Null, None))).unwrap();
            assert_eq!(reply, Value::list([Value::U64(42), Value::U64(1)]));
        }
    });
    sim.run();
}

#[test]
fn readers_observe_monotonic_values_under_async_replication() {
    // One writer increments the register; several readers on different
    // nodes read through nearest replicas. Because the register's value
    // only ever increases and the proxy enforces a version floor,
    // each reader's observed sequence must be non-decreasing.
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_replica_group(
        &sim,
        ns,
        group("reg", &[1, 2, 3], Propagation::Async),
        || Box::new(Register(0)),
    );
    sim.spawn("writer", NodeId(4), move |ctx| {
        let mut rt = client_runtime(ns);
        let reg = rt.bind(ctx, "reg").unwrap();
        for i in 1..=40u64 {
            rt.invoke(ctx, reg, "write", Value::record([("v", Value::U64(i))]))
                .unwrap();
            ctx.sleep(Duration::from_millis(1)).unwrap();
        }
    });
    for c in 0..3u32 {
        sim.spawn(format!("reader{c}"), NodeId(5 + c), move |ctx| {
            let mut rt = client_runtime(ns);
            let reg = rt.bind(ctx, "reg").unwrap();
            let mut last = 0u64;
            for _ in 0..40 {
                let v = rt
                    .invoke(ctx, reg, "read", Value::Null)
                    .unwrap()
                    .as_u64()
                    .unwrap();
                assert!(
                    v >= last,
                    "non-monotonic read: saw {v} after {last} (reader {c})"
                );
                last = v;
                ctx.sleep(Duration::from_millis(1)).unwrap();
            }
        });
    }
    sim.run();
}

/// The primary's `_fetch` takes the first version a backup lacks, a
/// `u64`: the keyed form and another kind are refused with `BadArgs`,
/// and a well-formed fetch is answered with the logged updates, each
/// `[ver, op, args]`.
#[test]
fn a_fetch_that_does_not_decode_is_refused() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    let replicas = spawn_replica_group(&sim, ns, group("reg", &[1, 2], Propagation::Sync), || {
        Box::new(Register(0))
    });
    sim.spawn_async("client", NodeId(4), move |cx| async move {
        let mut rt = client_runtime(ns);
        let reg = rt.attach(cx, "reg").await.unwrap();
        let args = Value::record([("v", Value::U64(5))]);
        rt.call(cx, reg, "write", args.clone()).await.unwrap();
        let mut raw = rpc::Channel::new("", replicas[0], rpc::ChannelConfig::with_depth(1));
        let refused = [
            Value::record([("from", Value::U64(1))]),
            Value::str("1"),
            Value::Null,
        ];
        for from in refused {
            let e = raw.call(cx, "", "_fetch", from, None).await;
            assert!(
                matches!(e, Err(rpc::RpcError::Remote(ref e)) if e.code == ErrorCode::BadArgs),
                "{e:?}"
            );
        }
        let log = raw.call(cx, "", "_fetch", Value::U64(1), None).await;
        let update = Value::list([Value::U64(1), Value::str("write"), args]);
        assert_eq!(log.unwrap(), Value::list([update]));
    });
    sim.run();
}
