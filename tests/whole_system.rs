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
    sim.spawn_async("client", NodeId(9), move |cx| async move {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        register_replica_proxy(rt.binder_mut());

        let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();
        let fs = FileClient::bind(&mut rt, cx, "files").await.unwrap();
        let ctr = CounterClient::bind(&mut rt, cx, "counter").await.unwrap();
        let q = QueueClient::bind(&mut rt, cx, "queue").await.unwrap();
        let dir = DirectoryClient::bind(&mut rt, cx, "dir").await.unwrap();

        // Interleave operations across all five.
        for i in 0..20u64 {
            kv.put(&mut rt, cx, &format!("k{i}"), "v").await.unwrap();
            fs.write(&mut rt, cx, "f", i, vec![i as u8]).await.unwrap();
            ctr.inc(&mut rt, cx).await.unwrap();
            q.submit(&mut rt, cx, &format!("job{i}")).await.unwrap();
            dir.insert(&mut rt, cx, &format!("/p{i}"), "x")
                .await
                .unwrap();
        }
        for pass in 0..2 {
            for i in 0..20u64 {
                assert_eq!(
                    kv.get(&mut rt, cx, &format!("k{i}"))
                        .await
                        .unwrap()
                        .as_deref(),
                    Some("v")
                );
                assert_eq!(
                    fs.read(&mut rt, cx, "f", i).await.unwrap().as_deref(),
                    Some(&[i as u8][..])
                );
                assert!(dir
                    .lookup(&mut rt, cx, &format!("/p{i}"))
                    .await
                    .unwrap()
                    .is_some());
            }
            let _ = pass;
        }
        assert_eq!(ctr.get(&mut rt, cx).await.unwrap(), 20);
        assert_eq!(q.len(&mut rt, cx).await.unwrap(), 20);
        let job = q.take(&mut rt, cx).await.unwrap().unwrap();
        assert_eq!(job.doc, "job0");

        // The migratory counter should have localized.
        assert_eq!(rt.stats(ctr.handle()).migrations, 1);
        // The caching file proxy fills on the first read pass and hits
        // on the whole second pass.
        assert!(rt.stats(fs.handle()).local_hits >= 20);

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
            sim.spawn_async(format!("c{c}"), NodeId(2 + c), move |cx| async move {
                let mut rt = SessionCore::new(ns);
                let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();
                for i in 0..30u64 {
                    let key = format!("k{}", i % 7);
                    if i % 3 == 0 {
                        let _ = kv.put(&mut rt, cx, &key, "x").await;
                    } else {
                        let _ = kv.get(&mut rt, cx, &key).await;
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
    sim.spawn_async("submitter", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let q = QueueClient::bind(&mut rt, cx, "printq").await.unwrap();
        let mut ok = 0u64;
        for i in 0..60 {
            match q.submit(&mut rt, cx, &format!("doc{i}")).await {
                Ok(_) => ok += 1,
                Err(RpcError::Timeout { .. }) => {} // may have executed; counted below
                Err(e) => panic!("unexpected: {e}"),
            }
        }
        s2.store(ok, Ordering::SeqCst);
        // Drain: the queue length must be between the acknowledged count
        // (every acked submit executed exactly once) and 60.
        let len = q.len(&mut rt, cx).await.unwrap();
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

    sim.spawn_async("client", NodeId(3), move |cx| async move {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        let ctr = CounterClient::bind(&mut rt, cx, "ctr").await.unwrap();
        let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();

        kv.put(&mut rt, cx, "a", "1").await.unwrap();
        assert_eq!(
            kv.get(&mut rt, cx, "a").await.unwrap().as_deref(),
            Some("1")
        );
        ctr.inc(&mut rt, cx).await.unwrap();

        // Move the counter to another node mid-session.
        request_migration(cx, home, NodeId(4)).await.unwrap();

        // Both services still work; cached kv entry still valid.
        assert_eq!(ctr.inc(&mut rt, cx).await.unwrap(), 2);
        assert_eq!(
            kv.get(&mut rt, cx, "a").await.unwrap().as_deref(),
            Some("1")
        );
        let kv_stats = rt.stats(kv.handle());
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
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();
        kv.put(&mut rt, cx, "x", "1").await.unwrap();

        cx.with(|cx| cx.net().take_down(NodeId(1)));
        match kv.get(&mut rt, cx, "x").await {
            Err(RpcError::Timeout { .. }) => {}
            other => panic!("expected timeout while down, got {other:?}"),
        }

        cx.with(|cx| cx.net().bring_up(NodeId(1)));
        assert_eq!(
            kv.get(&mut rt, cx, "x").await.unwrap().as_deref(),
            Some("1")
        );
    });
    sim.run();
}

/// Every emitter of a causal-trace event still emits. One traced run
/// crosses a caching proxy (a miss, then a hit), a migratory proxy, a
/// forwarder left behind by a migration, a batched and pipelined channel
/// over a lossy link, and a node that is down; each of the eleven event
/// kinds must show up, attributed to a span wherever its emitter has
/// one. A batch serves many calls at once and carries none.
#[test]
fn every_trace_event_kind_is_emitted() {
    use proxide::rpc::{Channel, ChannelConfig};

    let mut sim = Simulation::new(NetworkConfig::lan(), 500);
    sim.enable_trace(1 << 16);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = proxide::services::all_factories();
    ServiceBuilder::new("files")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 16,
        }))
        .object(|| Box::new(BlockFile::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("counter")
        .spec(ProxySpec::Migratory { threshold: 2 })
        .factories(factories.clone())
        .object(|| Box::new(Counter::new()))
        .spawn(&sim, NodeId(2), ns);
    let home = spawn_migratable(
        &sim,
        NodeId(3),
        ns,
        MigratableConfig::new("ctr"),
        factories.clone(),
        || Box::new(Counter::new()),
    );
    let pipe = sim.spawn_at("pipesvc", NodeId(4), PortId(1), |ctx| {
        RpcServer::new().serve(ctx, |_, req| Ok(req.args.clone()), |_, _| {});
    });

    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    sim.spawn_async("client", NodeId(9), move |cx| async move {
        let mut rt = SessionCore::new(ns).with_factories(factories);

        let fs = FileClient::bind(&mut rt, cx, "files").await.unwrap();
        fs.write(&mut rt, cx, "f", 0, vec![1]).await.unwrap();
        for _ in 0..2 {
            assert_eq!(
                fs.read(&mut rt, cx, "f", 0).await.unwrap().as_deref(),
                Some(&[1][..])
            );
        }

        let ctr = CounterClient::bind(&mut rt, cx, "counter").await.unwrap();
        for _ in 0..4 {
            ctr.inc(&mut rt, cx).await.unwrap();
        }
        assert_eq!(rt.stats(ctr.handle()).migrations, 1);

        // Bound before the move, so the next call lands on the forwarder.
        let moved = CounterClient::bind(&mut rt, cx, "ctr").await.unwrap();
        request_migration(cx, home, NodeId(5)).await.unwrap();
        assert_eq!(moved.inc(&mut rt, cx).await.unwrap(), 1);

        cx.with(|cx| cx.net().set_loss(0.3));
        let mut ch = Channel::new("pipesvc", pipe, ChannelConfig::with_depth(8).batched(4));
        let handles: Vec<_> = cx.with(|cx| {
            (0..32u64)
                .map(|i| ch.begin_call(cx, "echo", Value::U64(i)))
                .collect()
        });
        for h in handles {
            let _ = ch.wait_async(cx, Some(h), None).await;
            let _ = ch.try_take(h);
        }
        assert!(ch.stats.retries > 0, "nothing was lost");
        // A batch is on no one call's timeline: lose some calls of a
        // session's own, which go one to a datagram.
        for i in 0..8 {
            let _ = fs.write(&mut rt, cx, "f", 1, vec![i]).await;
        }
        cx.with(|cx| cx.net().set_loss(0.0));

        cx.with(|cx| cx.net().take_down(NodeId(1)));
        assert!(fs.write(&mut rt, cx, "f", 0, vec![2]).await.is_err());
        cx.with(|cx| cx.net().bring_up(NodeId(1)));
        d.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);

    let trace = sim.causal_trace();
    assert!(trace.is_complete());
    let mut seen = std::collections::BTreeMap::<&str, bool>::new();
    for e in trace.net_events() {
        *seen.entry(e.kind.tag()).or_default() |= e.span.is_some();
    }
    let spanned = |tag| seen.get(tag) == Some(&true);
    for tag in [
        "sent",
        "delivered",
        "dropped",
        "blackholed",
        "retransmit",
        "server_execute",
        "cache_hit",
        "cache_miss",
        "forwarded",
        "migrated",
    ] {
        assert!(spanned(tag), "no {tag} event with a span: {seen:?}");
    }
    assert_eq!(seen.get("batched"), Some(&false), "{seen:?}");
}
