//! End-to-end name service tests over the simulated network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use naming::{is_not_found, spawn_name_server, NameClient};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

#[test]
fn register_lookup_across_nodes() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    let svc = sim.spawn_at(
        "svc",
        NodeId(1),
        PortId(5),
        |ctx| {
            while ctx.recv().is_ok() {}
        },
    );
    let checked = Arc::new(AtomicU64::new(0));
    let c2 = Arc::clone(&checked);
    sim.spawn("registrar", NodeId(1), move |ctx| {
        let mut nc = NameClient::new(ns);
        let gen = nc
            .register(
                ctx,
                "svc",
                svc,
                Value::record([("proxy", Value::str("stub"))]),
            )
            .unwrap();
        assert_eq!(gen, 1);
        c2.store(1, Ordering::SeqCst);
    });
    sim.run_until(simnet::SimTime::from_millis(100));
    let found = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&found);
    sim.spawn("resolver", NodeId(2), move |ctx| {
        let mut nc = NameClient::new(ns);
        let rec = nc.lookup(ctx, "svc").unwrap();
        assert_eq!(rec.endpoint, svc);
        assert_eq!(rec.meta.get_str("proxy").unwrap(), "stub");
        f2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(checked.load(Ordering::SeqCst), 1);
    assert_eq!(found.load(Ordering::SeqCst), 1);
}

#[test]
fn resolve_uses_cache_until_forgotten() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut nc = NameClient::new(ns);
        nc.register(ctx, "x", ctx.endpoint(), Value::Null).unwrap();
        let _ = nc.lookup(ctx, "x").unwrap(); // populates cache
        for _ in 0..5 {
            let _ = nc.resolve(ctx, "x").unwrap();
        }
        assert_eq!(nc.cache_hits, 5);
        assert_eq!(nc.cache_misses, 0);
        nc.forget("x");
        let _ = nc.resolve(ctx, "x").unwrap();
        assert_eq!(nc.cache_misses, 1);
    });
    sim.run();
}

#[test]
fn stale_binding_detected_via_generation() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn("mover", NodeId(1), move |ctx| {
        let mut nc = NameClient::new(ns);
        let old_ep = ctx.endpoint();
        nc.register(ctx, "svc", old_ep, Value::Null).unwrap();
        let rec1 = nc.lookup(ctx, "svc").unwrap();

        // Service migrates: a second registrar updates the binding.
        let new_ep = simnet::Endpoint::new(NodeId(2), PortId(9));
        let gen2 = nc.update(ctx, "svc", new_ep, Value::Null).unwrap();
        assert!(gen2 > rec1.generation);

        let rec2 = nc.lookup(ctx, "svc").unwrap();
        assert_eq!(rec2.endpoint, new_ep);
        assert!(rec2.generation > rec1.generation);
    });
    sim.run();
}

#[test]
fn not_found_helper() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut nc = NameClient::new(ns);
        let err = nc.lookup(ctx, "ghost").unwrap_err();
        assert!(is_not_found(&err));
    });
    sim.run();
}

#[test]
fn list_reflects_registrations() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut nc = NameClient::new(ns);
        for name in ["b", "a", "c"] {
            nc.register(ctx, name, ctx.endpoint(), Value::Null).unwrap();
        }
        nc.unregister(ctx, "b").unwrap();
        let names = nc.list(ctx).unwrap();
        assert_eq!(names, vec!["a".to_string(), "c".to_string()]);
    });
    sim.run();
}

#[test]
fn survives_lossy_network() {
    let mut sim = Simulation::new(NetworkConfig::lan().with_loss(0.15), 6);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut nc = NameClient::new(ns);
        nc.register(ctx, "svc", ctx.endpoint(), Value::Null)
            .unwrap();
        for _ in 0..20 {
            let rec = nc.lookup(ctx, "svc").unwrap();
            assert_eq!(rec.endpoint, ctx.endpoint());
        }
    });
    sim.run();
}

/// Four replicas over one shared directory, one per scheduler domain. A
/// client registers through replica 0 and, the instant that is
/// acknowledged, looks the name up through replicas 3, 2 and 1: each
/// finds it on the first try, because there is nothing to propagate
/// between replicas. Returns the report and the trace.
fn run_cluster(threads: usize) -> (String, String) {
    use naming::spawn_name_cluster;

    let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.2), 7)
        .with_domains(4)
        .with_threads(threads);
    sim.enable_trace(1 << 12);
    let nodes: Vec<NodeId> = (0..4).map(NodeId).collect();
    let replicas = spawn_name_cluster(&sim, &nodes);
    let found = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&found);
    sim.spawn("client", NodeId(5), move |ctx| {
        let gen = NameClient::new(replicas[0])
            .register(ctx, "svc", ctx.endpoint(), Value::Null)
            .unwrap();
        for &replica in replicas[1..].iter().rev() {
            let rec = NameClient::new(replica).lookup(ctx, "svc").unwrap();
            assert_eq!((rec.endpoint, rec.generation), (ctx.endpoint(), gen));
            f.fetch_add(1, Ordering::SeqCst);
        }
    });
    let report = sim.run();
    assert_eq!(found.load(Ordering::SeqCst), 3);
    // Four calls, one request and one reply each: nothing was retried.
    assert_eq!(report.metrics.msgs_sent, 8);
    (
        sim.obs_report().to_json(),
        format!("{:?}", sim.take_trace()),
    )
}

#[test]
fn a_registration_is_visible_through_every_replica_at_any_thread_count() {
    let one = run_cluster(1);
    assert!(one == run_cluster(4), "diverged at 4 threads");
}
