//! End-to-end name service tests over the simulated network.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

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
    sim.spawn_async("registrar", NodeId(1), move |cx| async move {
        let mut nc = NameClient::new(ns);
        let meta = Value::record([("proxy", Value::str("stub"))]);
        let gen = nc.register(cx, "svc", svc, meta).await.unwrap();
        assert_eq!(gen, 1);
        c2.store(1, Ordering::SeqCst);
    });
    sim.run_until(simnet::SimTime::from_millis(100));
    let found = Arc::new(AtomicU64::new(0));
    let f2 = Arc::clone(&found);
    sim.spawn_async("resolver", NodeId(2), move |cx| async move {
        let mut nc = NameClient::new(ns);
        let rec = nc.lookup(cx, "svc", None).await.unwrap();
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
    sim.spawn_async("client", NodeId(1), move |cx| async move {
        let me = cx.with(|cx| cx.endpoint());
        let mut nc = NameClient::new(ns);
        nc.register(cx, "x", me, Value::Null).await.unwrap();
        let _ = nc.lookup(cx, "x", None).await.unwrap(); // populates cache
        for _ in 0..5 {
            let _ = nc.resolve(cx, "x", None).await.unwrap();
        }
        assert_eq!(nc.cache_hits, 5);
        assert_eq!(nc.cache_misses, 0);
        nc.forget("x");
        let _ = nc.resolve(cx, "x", None).await.unwrap();
        assert_eq!(nc.cache_misses, 1);
    });
    sim.run();
}

#[test]
fn stale_binding_detected_via_generation() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn_async("mover", NodeId(1), move |cx| async move {
        let me = cx.with(|cx| cx.endpoint());
        let mut nc = NameClient::new(ns);
        let old_ep = me;
        nc.register(cx, "svc", old_ep, Value::Null).await.unwrap();
        let rec1 = nc.lookup(cx, "svc", None).await.unwrap();

        // Service migrates: a second registrar updates the binding.
        let new_ep = simnet::Endpoint::new(NodeId(2), PortId(9));
        let gen2 = nc.update(cx, "svc", new_ep, Value::Null).await.unwrap();
        assert!(gen2 > rec1.generation);

        let rec2 = nc.lookup(cx, "svc", None).await.unwrap();
        assert_eq!(rec2.endpoint, new_ep);
        assert!(rec2.generation > rec1.generation);
    });
    sim.run();
}

#[test]
fn not_found_helper() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn_async("client", NodeId(1), move |cx| async move {
        let mut nc = NameClient::new(ns);
        let err = nc.lookup(cx, "ghost", None).await.unwrap_err();
        assert!(is_not_found(&err));
    });
    sim.run();
}

#[test]
fn list_reflects_registrations() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn_async("client", NodeId(1), move |cx| async move {
        let me = cx.with(|cx| cx.endpoint());
        let mut nc = NameClient::new(ns);
        for name in ["b", "a", "c"] {
            nc.register(cx, name, me, Value::Null).await.unwrap();
        }
        nc.unregister(cx, "b").await.unwrap();
        let names = nc.list(cx).await.unwrap();
        assert_eq!(names, vec!["a".to_string(), "c".to_string()]);
    });
    sim.run();
}

#[test]
fn survives_lossy_network() {
    let mut sim = Simulation::new(NetworkConfig::lan().with_loss(0.15), 6);
    let ns = spawn_name_server(&sim, NodeId(0));
    sim.spawn_async("client", NodeId(1), move |cx| async move {
        let me = cx.with(|cx| cx.endpoint());
        let mut nc = NameClient::new(ns);
        nc.register(cx, "svc", me, Value::Null).await.unwrap();
        for _ in 0..20 {
            let rec = nc.lookup(cx, "svc", None).await.unwrap();
            assert_eq!(rec.endpoint, me);
        }
    });
    sim.run();
}

/// One name server on node 0 and eight registrars on nodes 1–8, all
/// registering at t = 0; then one
/// client lists the names and looks each one up. Returns every name it
/// saw with its generation.
fn concurrent_registrations() -> Vec<(String, u64)> {
    let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.2), 7);
    let ns = spawn_name_server(&sim, NodeId(0));
    for i in 0..8u32 {
        sim.spawn_async(
            format!("registrar-{i}"),
            NodeId(1 + i),
            move |cx| async move {
                let me = cx.with(|cx| cx.endpoint());
                NameClient::new(ns)
                    .register(cx, &format!("svc-{i}"), me, Value::Null)
                    .await
                    .unwrap();
            },
        );
    }
    sim.run_until(simnet::SimTime::from_millis(100));
    let seen = Arc::new(Mutex::new(Vec::new()));
    let s = Arc::clone(&seen);
    sim.spawn_async("client", NodeId(9), move |cx| async move {
        let mut nc = NameClient::new(ns);
        for name in nc.list(cx).await.unwrap() {
            let gen = nc.lookup(cx, &name, None).await.unwrap().generation;
            s.lock().unwrap().push((name, gen));
        }
    });
    sim.run();
    let seen = seen.lock().unwrap().clone();
    seen
}

#[test]
fn concurrent_registrations_take_the_same_generations_at_any_thread_count() {
    // The order the registrations reached the server in, as this seed's
    // jitter delivered them: one generation each, none skipped.
    let expected: Vec<(String, u64)> = [
        ("svc-0", 3),
        ("svc-1", 8),
        ("svc-2", 4),
        ("svc-3", 6),
        ("svc-4", 1),
        ("svc-5", 5),
        ("svc-6", 7),
        ("svc-7", 2),
    ]
    .into_iter()
    .map(|(name, gen)| (name.to_owned(), gen))
    .collect();
    for run in 1..=2 {
        assert_eq!(concurrent_registrations(), expected, "run {run}");
    }
}
