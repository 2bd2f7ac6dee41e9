//! End-to-end tests of every typed client wrapper over the network —
//! the interfaces a stub compiler would emit, exercised exactly as an
//! application would.

use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{CachingParams, Coherence, ProxySpec, ServiceBuilder, Session, SessionCore};
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
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let kv = KvClient::bind(&mut s, "kv").unwrap();
        assert!(kv.is_empty(&mut s).unwrap());
        assert_eq!(kv.put(&mut s, "a", "1").unwrap(), None);
        assert_eq!(kv.put(&mut s, "a", "2").unwrap(), Some("1".into()));
        assert_eq!(kv.get(&mut s, "a").unwrap(), Some("2".into()));
        assert_eq!(kv.get(&mut s, "zzz").unwrap(), None);
        assert_eq!(kv.len(&mut s).unwrap(), 1);
        assert!(kv.del(&mut s, "a").unwrap());
        assert!(!kv.del(&mut s, "a").unwrap());
        assert!(kv.is_empty(&mut s).unwrap());
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
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let fs = FileClient::bind(&mut s, "fs").unwrap();
        assert_eq!(fs.read(&mut s, "doc", 0).unwrap(), None);
        fs.write(&mut s, "doc", 0, vec![1, 2, 3]).unwrap();
        assert_eq!(
            fs.read(&mut s, "doc", 0).unwrap().as_deref(),
            Some(&[1u8, 2, 3][..])
        );
        // Cached second read.
        fs.read(&mut s, "doc", 0).unwrap();
        assert_eq!(s.stats(fs.handle()).local_hits, 1);
        assert_eq!(fs.blocks(&mut s).unwrap(), 1);
        // Oversized block surfaces the remote validation error.
        let err = fs
            .write(&mut s, "doc", 1, vec![0u8; services::file::BLOCK_SIZE + 1])
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
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let mut read_takes = |service: &str| {
            let fs = FileClient::bind(&mut s, service).unwrap();
            let t0 = s.ctx().now();
            assert_eq!(fs.read(&mut s, "doc", 0).unwrap(), None);
            s.ctx().now() - t0
        };
        assert_eq!(read_takes("disk"), read_takes("ram") + disk);
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
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let ctr = CounterClient::bind(&mut s, "ctr").unwrap();
        assert_eq!(ctr.get(&mut s).unwrap(), 10);
        assert_eq!(ctr.inc(&mut s).unwrap(), 11);
        assert_eq!(ctr.add(&mut s, 9).unwrap(), 20);
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
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let q = QueueClient::bind(&mut s, "q").unwrap();
        assert_eq!(q.take(&mut s).unwrap(), None);
        let id1 = q.submit(&mut s, "first").unwrap();
        let id2 = q.submit(&mut s, "second").unwrap();
        assert!(id2 > id1);
        assert_eq!(q.len(&mut s).unwrap(), 2);
        let job = q.take(&mut s).unwrap().unwrap();
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
    sim.spawn("client", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let dir = DirectoryClient::bind(&mut s, "dir").unwrap();
        assert_eq!(dir.lookup(&mut s, "/a").unwrap(), None);
        assert_eq!(dir.insert(&mut s, "/a", "one").unwrap(), 1);
        assert_eq!(dir.insert(&mut s, "/a", "two").unwrap(), 2);
        assert_eq!(dir.insert(&mut s, "/b/c", "x").unwrap(), 1);
        let e = dir.lookup(&mut s, "/a").unwrap().unwrap();
        assert_eq!((e.value.as_str(), e.revision), ("two", 2));
        assert_eq!(dir.list(&mut s, "/b").unwrap(), vec!["/b/c"]);
        assert!(dir.remove(&mut s, "/a").unwrap());
        assert!(!dir.remove(&mut s, "/a").unwrap());
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
    sim.spawn("subscriber", NodeId(2), move |ctx| {
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let kv = KvClient::bind(&mut s, "kv").unwrap();
        kv.put(&mut s, "a", "1").unwrap();
        kv.get(&mut s, "a").unwrap(); // now subscribed & cached
        s.unbind(kv.handle());
        // Stay alive while the writer writes; if we were still
        // subscribed, an invalidation would arrive in our mailbox.
        s.ctx().sleep(Duration::from_millis(40)).unwrap();
        let stray = s.ctx().try_recv().unwrap();
        assert!(stray.is_none(), "received traffic after unbind: {stray:?}");
    });
    sim.spawn("writer", NodeId(3), move |ctx| {
        ctx.sleep(Duration::from_millis(15)).unwrap();
        let mut rt = SessionCore::new(ns);
        let mut s = Session::new(&mut rt, ctx);
        let kv = KvClient::bind(&mut s, "kv").unwrap();
        kv.put(&mut s, "a", "2").unwrap();
    });
    sim.run();
}
