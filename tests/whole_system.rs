//! Whole-system integration tests: several services with different
//! proxy strategies coexisting in one simulated distributed system,
//! exercised through the public `proxide` API.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use proxide::prelude::*;
use proxide::replication::register_replica_proxy;
use proxide::services::counter::{Counter, CounterClient};
use proxide::services::directory::{Directory, DirectoryClient};
use proxide::services::file::{BlockFile, FileClient};
use proxide::services::kv::{KvClient, KvStore};
use proxide::services::queue::{PrintQueue, QueueClient};

/// One client process bound to five services, each with a different
/// service-chosen strategy, all through the same runtime.
#[test]
fn five_services_five_strategies_one_client() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 100);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = proxide::services::all_factories();

    ServiceBuilder::new("kv")
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("files")
        // Pure invalidation coherence: entries live until written, so the
        // second read pass below hits even though it happens tens of
        // simulated milliseconds later.
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 1024,
        }))
        .object(|| Box::new(BlockFile::new()))
        .spawn(&sim, NodeId(2), ns);
    ServiceBuilder::new("counter")
        .spec(ProxySpec::Migratory { threshold: 5 })
        .factories(factories.clone())
        .object(|| Box::new(Counter::new()))
        .spawn(&sim, NodeId(3), ns);
    ServiceBuilder::new("queue")
        .spec(ProxySpec::Adaptive(AdaptiveParams::default()))
        .object(|| Box::new(PrintQueue::new()))
        .spawn(&sim, NodeId(4), ns);
    spawn_replica_group(
        &sim,
        ns,
        ReplicaGroupConfig {
            service: "dir".into(),
            nodes: vec![NodeId(5), NodeId(6)],
            propagation: Propagation::Sync,
            read_target: ReadTarget::Nearest,
        },
        || Box::new(Directory::new()),
    );

    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    sim.spawn("client", NodeId(9), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        register_replica_proxy(rt.binder_mut());
        let mut s = Session::new(&mut rt, ctx);

        let kv = KvClient::bind(&mut s, "kv").unwrap();
        let fs = FileClient::bind(&mut s, "files").unwrap();
        let ctr = CounterClient::bind(&mut s, "counter").unwrap();
        let q = QueueClient::bind(&mut s, "queue").unwrap();
        let dir = DirectoryClient::bind(&mut s, "dir").unwrap();

        // Interleave operations across all five.
        for i in 0..20u64 {
            kv.put(&mut s, &format!("k{i}"), "v").unwrap();
            fs.write(&mut s, "f", i, vec![i as u8]).unwrap();
            ctr.inc(&mut s).unwrap();
            q.submit(&mut s, &format!("job{i}")).unwrap();
            dir.insert(&mut s, &format!("/p{i}"), "x").unwrap();
        }
        for pass in 0..2 {
            for i in 0..20u64 {
                assert_eq!(
                    kv.get(&mut s, &format!("k{i}")).unwrap().as_deref(),
                    Some("v")
                );
                assert_eq!(
                    fs.read(&mut s, "f", i).unwrap().as_deref(),
                    Some(&[i as u8][..])
                );
                assert!(dir.lookup(&mut s, &format!("/p{i}")).unwrap().is_some());
            }
            let _ = pass;
        }
        assert_eq!(ctr.get(&mut s).unwrap(), 20);
        assert_eq!(q.len(&mut s).unwrap(), 20);
        let job = q.take(&mut s).unwrap().unwrap();
        assert_eq!(job.doc, "job0");

        // The migratory counter should have localized.
        assert_eq!(s.stats(ctr.handle()).migrations, 1);
        // The caching file proxy fills on the first read pass and hits
        // on the whole second pass.
        assert!(s.stats(fs.handle()).local_hits >= 20);

        d.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

/// The same workload gives byte-identical metrics across runs with the
/// same seed — the determinism the whole experiment suite relies on.
#[test]
fn whole_system_is_deterministic() {
    fn run(seed: u64) -> (u64, u64, u64) {
        let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.2).with_loss(0.05), seed);
        let ns = spawn_name_server(&sim, NodeId(0));
        ServiceBuilder::new("kv")
            .spec(ProxySpec::Caching(CachingParams::default()))
            .object(|| Box::new(KvStore::new()))
            .spawn(&sim, NodeId(1), ns);
        for c in 0..3u32 {
            sim.spawn(format!("c{c}"), NodeId(2 + c), move |ctx| {
                let mut rt = SessionCore::new(ns);
                let mut s = Session::new(&mut rt, ctx);
                let kv = KvClient::bind(&mut s, "kv").unwrap();
                for i in 0..30u64 {
                    let key = format!("k{}", i % 7);
                    if i % 3 == 0 {
                        let _ = kv.put(&mut s, &key, "x");
                    } else {
                        let _ = kv.get(&mut s, &key);
                    }
                }
            });
        }
        let r = sim.run();
        (
            r.end_time.as_nanos(),
            r.metrics.msgs_sent,
            r.metrics.msgs_dropped,
        )
    }
    assert_eq!(run(1234), run(1234));
    assert_ne!(run(1234), run(1235));
}

/// Services keep their contracts under a hostile network: loss,
/// duplication and jitter simultaneously.
#[test]
fn queue_is_exactly_once_under_hostile_network() {
    let cfg = NetworkConfig::lan()
        .with_loss(0.15)
        .with_duplicate(0.15)
        .with_jitter(0.3);
    let mut sim = Simulation::new(cfg, 200);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("printq")
        .object(|| Box::new(PrintQueue::new()))
        .spawn(&sim, NodeId(1), ns);
    let submitted = Arc::new(AtomicU64::new(0));
    let s2 = Arc::clone(&submitted);
    sim.spawn("submitter", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let q = QueueClient::bind(&mut s, "printq").unwrap();
        let mut ok = 0u64;
        for i in 0..60 {
            match q.submit(&mut s, &format!("doc{i}")) {
                Ok(_) => ok += 1,
                Err(RpcError::Timeout { .. }) => {} // may have executed; counted below
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        s2.store(ok, Ordering::SeqCst);
        // Drain: the queue length must be between the acknowledged count
        // (every acked submit executed exactly once) and 60.
        let len = q.len(&mut s).unwrap();
        assert!(len >= ok, "acked submissions missing: {len} < {ok}");
        assert!(len <= 60, "duplicate executions inflated the queue: {len}");
    });
    sim.run();
    assert!(submitted.load(Ordering::SeqCst) > 0);
}

/// A migratable service and a caching service interact: migration of one
/// object does not disturb the other service's coherence.
#[test]
fn migration_and_caching_coexist() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 300);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = proxide::services::all_factories();

    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr").with_naming_updates(),
        factories.clone(),
        || Box::new(Counter::new()),
    );
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 128,
        }))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(2), ns);

    sim.spawn("client", NodeId(3), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        let mut s = Session::new(&mut rt, ctx);
        let ctr = CounterClient::bind(&mut s, "ctr").unwrap();
        let kv = KvClient::bind(&mut s, "kv").unwrap();

        kv.put(&mut s, "a", "1").unwrap();
        assert_eq!(kv.get(&mut s, "a").unwrap().as_deref(), Some("1"));
        ctr.inc(&mut s).unwrap();

        // Move the counter to another node mid-session.
        request_migration(s.ctx(), home, NodeId(4)).unwrap();

        // Both services still work; cached kv entry still valid.
        assert_eq!(ctr.inc(&mut s).unwrap(), 2);
        assert_eq!(kv.get(&mut s, "a").unwrap().as_deref(), Some("1"));
        let kv_stats = s.stats(kv.handle());
        assert_eq!(kv_stats.local_hits, 1, "cache disturbed by migration");
    });
    sim.run();
}

/// Node crash: calls time out, and after the node comes back (state
/// intact in this model), the same proxies keep working.
#[test]
fn crash_and_recovery_through_same_proxy() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 400);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let kv = KvClient::bind(&mut s, "kv").unwrap();
        kv.put(&mut s, "x", "1").unwrap();

        s.ctx().net().take_down(NodeId(1));
        match kv.get(&mut s, "x") {
            Err(RpcError::Timeout { .. }) => {}
            other => panic!("expected timeout while down, got {other:?}"),
        }

        s.ctx().net().bring_up(NodeId(1));
        assert_eq!(kv.get(&mut s, "x").unwrap().as_deref(), Some("1"));
    });
    sim.run();
}
