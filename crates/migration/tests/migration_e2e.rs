//! End-to-end migration tests: transparency, forwarding chains, path
//! compression modes, and naming updates.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use migration::{request_migration, spawn_migratable, ForwardMode, MigratableConfig};
use naming::spawn_name_server;
use proxy_core::{FactoryRegistry, InterfaceDesc, OpDesc, ServiceObject, SessionCore};
use rpc::{ErrorCode, RemoteError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

/// A counter object whose state must survive every migration.
struct Counter(u64);

impl ServiceObject for Counter {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "counter",
            [OpDesc::read_whole("get"), OpDesc::write_whole("inc")],
        )
    }

    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, _args: &Value) -> Result<Value, RemoteError> {
        match op {
            "get" => Ok(Value::U64(self.0)),
            "inc" => {
                self.0 += 1;
                Ok(Value::U64(self.0))
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }

    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::U64(self.0))
    }
}

fn counter_factory() -> FactoryRegistry {
    FactoryRegistry::new().register("counter", |v| {
        Ok(Box::new(Counter(v.as_u64().unwrap_or(0))))
    })
}

#[test]
fn migration_is_transparent_and_preserves_state() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr"),
        counter_factory(),
        || Box::new(Counter(0)),
    );
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        for _ in 0..5 {
            rt.call(cx, ctr, "inc", Value::Null).await.unwrap();
        }
        let new_ep = request_migration(cx, home, NodeId(3)).await.unwrap();
        assert_eq!(new_ep.node, NodeId(3));
        // Same proxy keeps working; count survived the move.
        assert_eq!(
            rt.call(cx, ctr, "get", Value::Null).await.unwrap(),
            Value::U64(5)
        );
        assert_eq!(
            rt.call(cx, ctr, "inc", Value::Null).await.unwrap(),
            Value::U64(6)
        );
        assert_eq!(rt.stats(ctr).rebinds, 1, "one redirect expected");
    });
    sim.run();
}

/// Builds a chain of `hops` migrations and returns (first-call rebinds,
/// second-call rebinds) observed by a fresh client that bound before any
/// migration.
fn chain_rebinds(mode: ForwardMode, hops: u32, seed: u64) -> (u64, u64) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr").with_forward_mode(mode),
        counter_factory(),
        || Box::new(Counter(7)),
    );
    let out = Arc::new(AtomicU64::new(0));
    let out2 = Arc::clone(&out);
    sim.spawn_async("client", NodeId(100), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        // Bind is warm: one call before any migration.
        assert_eq!(
            rt.call(cx, ctr, "get", Value::Null).await.unwrap(),
            Value::U64(7)
        );

        // Build the chain: node 1 -> 2 -> 3 -> ...
        let mut host = home;
        for i in 0..hops {
            host = request_migration(cx, host, NodeId(2 + i)).await.unwrap();
        }

        let before = rt.stats(ctr).rebinds;
        assert_eq!(
            rt.call(cx, ctr, "get", Value::Null).await.unwrap(),
            Value::U64(7)
        );
        let first = rt.stats(ctr).rebinds - before;
        assert_eq!(
            rt.call(cx, ctr, "get", Value::Null).await.unwrap(),
            Value::U64(7)
        );
        let second = rt.stats(ctr).rebinds - before - first;
        out2.store(first * 1000 + second, Ordering::SeqCst);
    });
    sim.run();
    let packed = out.load(Ordering::SeqCst);
    (packed / 1000, packed % 1000)
}

#[test]
fn next_hop_chain_costs_one_redirect_per_hop_then_none() {
    for hops in [1u32, 3, 6] {
        let (first, second) = chain_rebinds(ForwardMode::NextHop, hops, 42 + hops as u64);
        assert_eq!(
            first, hops as u64,
            "first call after {hops} migrations should pay {hops} redirects"
        );
        assert_eq!(second, 0, "path compression failed: second call redirected");
    }
}

#[test]
fn resolving_forwarder_collapses_chain_to_one_redirect() {
    for hops in [1u32, 3, 6] {
        let (first, second) = chain_rebinds(ForwardMode::Resolve, hops, 80 + hops as u64);
        assert_eq!(
            first, 1,
            "resolving forwarder should redirect straight to the home ({hops} hops)"
        );
        assert_eq!(second, 0);
    }
}

#[test]
fn naming_updates_let_fresh_clients_bind_directly() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr").with_naming_updates(),
        counter_factory(),
        || Box::new(Counter(1)),
    );
    sim.spawn_async("admin", NodeId(2), move |cx| async move {
        // Move twice with naming updates.
        let h2 = request_migration(cx, home, NodeId(3)).await.unwrap();
        let _h3 = request_migration(cx, h2, NodeId(4)).await.unwrap();
        // A fresh client binds *after* the moves: naming points at the
        // current home, so no redirects at all.
        let mut rt = SessionCore::new(ns);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        assert_eq!(
            rt.call(cx, ctr, "get", Value::Null).await.unwrap(),
            Value::U64(1)
        );
        assert_eq!(
            rt.stats(ctr).rebinds,
            0,
            "fresh bind should hit the home directly"
        );
    });
    sim.run();
}

#[test]
fn migrating_twice_to_same_chain_is_consistent_under_writes() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 6);
    let ns = spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr"),
        counter_factory(),
        || Box::new(Counter(0)),
    );
    sim.spawn_async("client", NodeId(9), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        let mut expected = 0u64;
        let mut host = home;
        for round in 0..4u32 {
            for _ in 0..3 {
                expected += 1;
                assert_eq!(
                    rt.call(cx, ctr, "inc", Value::Null).await.unwrap(),
                    Value::U64(expected),
                    "count drifted after {round} migrations"
                );
            }
            host = request_migration(cx, host, NodeId(2 + round))
                .await
                .unwrap();
        }
        assert_eq!(
            rt.call(cx, ctr, "get", Value::Null).await.unwrap(),
            Value::U64(expected)
        );
    });
    sim.run();
}

#[test]
fn locate_returns_current_home() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr").with_forward_mode(ForwardMode::Resolve),
        counter_factory(),
        || Box::new(Counter(0)),
    );
    sim.spawn_async("admin", NodeId(2), move |cx| async move {
        let h2 = request_migration(cx, home, NodeId(3)).await.unwrap();
        let h3 = request_migration(cx, h2, NodeId(4)).await.unwrap();
        // Ask the original (now twice-stale) host where the object is.
        let mut c = rpc::Channel::new("", home, rpc::ChannelConfig::with_depth(1));
        let op = migration::OP_LOCATE;
        let v = c.call(cx, "", op, Value::Null, None).await.unwrap();
        let located = rpc::endpoint_from_value(&v).unwrap();
        assert_eq!(located, h3, "resolve-mode forwarder should know the home");
    });
    sim.run();
}

/// `_migrate` takes the target node itself: the keyed form, another
/// kind, a list and a node above `u32::MAX` are refused with `BadArgs`,
/// and the object stays home.
#[test]
fn a_migrate_order_that_does_not_decode_is_refused() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr"),
        counter_factory(),
        || Box::new(Counter(0)),
    );
    sim.spawn_async("admin", NodeId(2), move |cx| async move {
        let mut c = rpc::Channel::new("", home, rpc::ChannelConfig::with_depth(1));
        let refused = [
            Value::record([("node", Value::U64(3))]),
            Value::str("3"),
            Value::list([Value::U64(3)]),
            Value::U64(1 << 32),
        ];
        for args in refused {
            let e = c.call(cx, "", migration::OP_MIGRATE, args, None).await;
            assert!(
                matches!(e, Err(rpc::RpcError::Remote(ref e)) if e.code == ErrorCode::BadArgs),
                "{e:?}"
            );
        }
        let op = migration::OP_LOCATE;
        let v = c.call(cx, "", op, Value::Null, None).await.unwrap();
        assert_eq!(rpc::endpoint_from_value(&v).unwrap(), home, "still home");
    });
    sim.run();
}
