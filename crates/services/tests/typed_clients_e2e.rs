//! End-to-end tests of every typed client wrapper over the network —
//! the interfaces a stub compiler would emit, exercised exactly as an
//! application would.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{CachingParams, Coherence, ProxySpec, ServiceBuilder, SessionCore};
use services::counter::{Counter, CounterClient};
use services::directory::{Directory, DirectoryClient};
use services::file::{BlockFile, FileClient};
use services::kv::{KvClient, KvStore};
use services::queue::{PrintQueue, QueueClient};
use simnet::{NetworkConfig, NodeId, Simulation};

#[test]
fn kv_client_full_surface() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();
        assert!(kv.is_empty(&mut rt, cx).await.unwrap());
        assert_eq!(kv.put(&mut rt, cx, "a", "1").await.unwrap(), None);
        assert_eq!(
            kv.put(&mut rt, cx, "a", "2").await.unwrap(),
            Some("1".into())
        );
        assert_eq!(kv.get(&mut rt, cx, "a").await.unwrap(), Some("2".into()));
        assert_eq!(kv.get(&mut rt, cx, "zzz").await.unwrap(), None);
        assert_eq!(kv.len(&mut rt, cx).await.unwrap(), 1);
        assert!(kv.del(&mut rt, cx, "a").await.unwrap());
        assert!(!kv.del(&mut rt, cx, "a").await.unwrap());
        assert!(kv.is_empty(&mut rt, cx).await.unwrap());
    });
    sim.run();
}

#[test]
fn file_client_full_surface() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("fs")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| Box::new(BlockFile::new()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let fs = FileClient::bind(&mut rt, cx, "fs").await.unwrap();
        assert_eq!(fs.read(&mut rt, cx, "doc", 0).await.unwrap(), None);
        fs.write(&mut rt, cx, "doc", 0, vec![1, 2, 3])
            .await
            .unwrap();
        assert_eq!(
            fs.read(&mut rt, cx, "doc", 0).await.unwrap().as_deref(),
            Some(&[1u8, 2, 3][..])
        );
        // Cached second read.
        fs.read(&mut rt, cx, "doc", 0).await.unwrap();
        assert_eq!(rt.stats(fs.handle()).local_hits, 1);
        assert_eq!(fs.blocks(&mut rt, cx).await.unwrap(), 1);
        // Oversized block surfaces the remote validation error.
        let err = fs
            .write(
                &mut rt,
                cx,
                "doc",
                1,
                vec![0u8; services::file::BLOCK_SIZE + 1],
            )
            .await
            .unwrap_err();
        assert!(matches!(err, rpc::RpcError::Remote(ref e) if e.code == rpc::ErrorCode::BadArgs));
    });
    sim.run();
}

/// The poll-driven server charges a block access its disk time exactly
/// as the thread that slept inside `dispatch` did: the arithmetic
/// `file.rs`'s `disk_time_is_charged` checks locally, end to end.
#[test]
fn a_disk_read_takes_exactly_its_disk_time_longer() {
    let disk = Duration::from_millis(2);
    let mut sim = Simulation::new(NetworkConfig::lan(), 8);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("ram")
        .object(|| Box::new(BlockFile::new()))
        .spawn(&sim, NodeId(1), ns);
    ServiceBuilder::new("disk")
        .object(move || Box::new(BlockFile::new().with_disk_time(disk)))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let now = || cx.with(|cx| cx.now());
        let mut rt = SessionCore::new(ns);
        let mut took = Vec::new();
        for service in ["disk", "ram"] {
            let fs = FileClient::bind(&mut rt, cx, service).await.unwrap();
            let t0 = now();
            assert_eq!(fs.read(&mut rt, cx, "doc", 0).await.unwrap(), None);
            took.push(now() - t0);
        }
        assert_eq!(took[0], took[1] + disk);
    });
    sim.run();
}

#[test]
fn counter_client_full_surface() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("ctr")
        .object(|| Box::new(Counter::starting_at(10)))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let ctr = CounterClient::bind(&mut rt, cx, "ctr").await.unwrap();
        assert_eq!(ctr.get(&mut rt, cx).await.unwrap(), 10);
        assert_eq!(ctr.inc(&mut rt, cx).await.unwrap(), 11);
        assert_eq!(ctr.add(&mut rt, cx, 9).await.unwrap(), 20);
    });
    sim.run();
}

#[test]
fn queue_client_full_surface() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("q")
        .object(|| Box::new(PrintQueue::new()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let q = QueueClient::bind(&mut rt, cx, "q").await.unwrap();
        assert_eq!(q.take(&mut rt, cx).await.unwrap(), None);
        let id1 = q.submit(&mut rt, cx, "first").await.unwrap();
        let id2 = q.submit(&mut rt, cx, "second").await.unwrap();
        assert!(id2 > id1);
        assert_eq!(q.len(&mut rt, cx).await.unwrap(), 2);
        let job = q.take(&mut rt, cx).await.unwrap().unwrap();
        assert_eq!((job.id, job.doc.as_str()), (id1, "first"));
    });
    sim.run();
}

#[test]
fn directory_client_full_surface() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("dir")
        .object(|| Box::new(Directory::new()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let dir = DirectoryClient::bind(&mut rt, cx, "dir").await.unwrap();
        assert_eq!(dir.lookup(&mut rt, cx, "/a").await.unwrap(), None);
        assert_eq!(dir.insert(&mut rt, cx, "/a", "one").await.unwrap(), 1);
        assert_eq!(dir.insert(&mut rt, cx, "/a", "two").await.unwrap(), 2);
        assert_eq!(dir.insert(&mut rt, cx, "/b/c", "x").await.unwrap(), 1);
        let e = dir.lookup(&mut rt, cx, "/a").await.unwrap().unwrap();
        assert_eq!((e.value.as_str(), e.revision), ("two", 2));
        assert_eq!(dir.list(&mut rt, cx, "/b").await.unwrap(), vec!["/b/c"]);
        assert!(dir.remove(&mut rt, cx, "/a").await.unwrap());
        assert!(!dir.remove(&mut rt, cx, "/a").await.unwrap());
    });
    sim.run();
}

/// Unbinding must actually stop invalidation traffic: after `unbind`,
/// a writer elsewhere no longer costs the server a push to us.
#[test]
fn unbind_cancels_invalidation_subscription() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 6);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    sim.spawn_async("subscriber", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();
        kv.put(&mut rt, cx, "a", "1").await.unwrap();
        kv.get(&mut rt, cx, "a").await.unwrap(); // now subscribed & cached
        rt.detach(cx, kv.handle()).await;
        // Stay alive while the writer writes; if we were still
        // subscribed, an invalidation would arrive in our mailbox.
        cx.sleep(Duration::from_millis(40)).await.unwrap();
        let stray = cx.with(|cx| cx.try_recv()).unwrap();
        assert!(stray.is_none(), "received traffic after unbind: {stray:?}");
    });
    sim.spawn_async("writer", NodeId(3), move |cx| async move {
        cx.sleep(Duration::from_millis(15)).await.unwrap();
        let mut rt = SessionCore::new(ns);
        let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();
        kv.put(&mut rt, cx, "a", "2").await.unwrap();
    });
    sim.run();
}

/// A typed client runs in an `async` body past its first cache hit: a
/// thousand bodies, all alive at once, each bind a `KvClient` to one
/// caching store and put, get and get their own key — the put and the
/// first get go to the store, the second get is a hit.
#[test]
fn a_thousand_async_clients_share_one_caching_store() {
    const CLIENTS: u64 = 1_000;
    let mut sim = Simulation::new(NetworkConfig::lan(), 9);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    let as_scripted = Arc::new(AtomicU64::new(0));
    for c in 0..CLIENTS {
        let done = Arc::clone(&as_scripted);
        sim.spawn_async(
            format!("c{c}"),
            NodeId(2 + c as u32 % 8),
            move |cx| async move {
                let mut rt = SessionCore::new(ns);
                let kv = KvClient::bind(&mut rt, cx, "kv").await.unwrap();
                let (key, value) = (format!("k{c}"), format!("v{c}"));
                assert_eq!(kv.put(&mut rt, cx, &key, &value).await.unwrap(), None);
                for _ in 0..2 {
                    assert_eq!(
                        kv.get(&mut rt, cx, &key).await.unwrap(),
                        Some(value.clone())
                    );
                }
                let stats = rt.stats(kv.handle());
                if (stats.invocations, stats.remote_calls, stats.local_hits) == (3, 2, 1) {
                    done.fetch_add(1, Ordering::Relaxed);
                }
            },
        );
    }
    let report = sim.run();
    // Every client ran its script to the end; the name server and the
    // store are all that is left.
    assert_eq!(as_scripted.load(Ordering::Relaxed), CLIENTS);
    assert_eq!(report.alive, 2);
    assert!(report.metrics.processes_peak >= CLIENTS);
    let hits: u64 = sim
        .obs_report()
        .proxies
        .values()
        .map(|p| p.local_hits)
        .sum();
    assert_eq!(hits, CLIENTS);
}
