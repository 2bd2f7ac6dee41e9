//! End-to-end coherence tests for the DSM protocol.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use dsm::{spawn_dsm_manager, DsmClient, Mode, PageId};
use simnet::{NetworkConfig, NodeId, Simulation};

const PAGE: usize = 64;

#[test]
fn write_then_remote_read_sees_latest_bytes() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
    let done = Arc::new(AtomicU64::new(0));
    let d2 = Arc::clone(&done);
    sim.spawn_async("writer", NodeId(1), move |cx| async move {
        let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
        mem.write(cx, PageId(0), 0, b"v1").await.unwrap();
        cx.sleep(Duration::from_millis(20)).await.unwrap();
        // Reader has demoted us to a shared mapping by now.
        assert_eq!(mem.mapping(PageId(0)), Some(Mode::Read));
    });
    sim.spawn_async("reader", NodeId(2), move |cx| async move {
        cx.sleep(Duration::from_millis(5)).await.unwrap();
        let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
        let v = mem.read(cx, PageId(0), 0, 2).await.unwrap();
        assert_eq!(&v, b"v1", "reader must see the writer's bytes");
        d2.store(1, Ordering::SeqCst);
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

#[test]
fn exclusive_writes_are_free_after_the_fault() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 2);
    let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
    sim.spawn_async("writer", NodeId(1), move |cx| async move {
        let now = || cx.with(|cx| cx.now());
        let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
        mem.write(cx, PageId(7), 0, b"x").await.unwrap(); // fault
        let t0 = now();
        for i in 0..100usize {
            mem.write(cx, PageId(7), i % PAGE, b"y").await.unwrap();
        }
        assert_eq!(now(), t0, "mapped writes must cost zero simulated time");
        assert_eq!(mem.stats.write_faults, 1);
        assert_eq!(mem.stats.write_hits, 100);
    });
    let report = sim.run();
    // One fault round-trip plus nothing else page-related.
    assert!(report.metrics.msgs_sent <= 4, "unexpected protocol traffic");
}

#[test]
fn writer_invalidates_all_readers() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 3);
    let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
    let stale_reads = Arc::new(AtomicU64::new(0));
    // Two readers map the page, then a writer updates it; both readers
    // must observe the new value on their next read (their copies were
    // shot down synchronously before the write was granted).
    for r in 0..2u32 {
        let stale = Arc::clone(&stale_reads);
        sim.spawn_async(format!("reader{r}"), NodeId(2 + r), move |cx| async move {
            let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
            let v = mem.read(cx, PageId(0), 0, 1).await.unwrap();
            assert_eq!(v[0], 0, "page starts zeroed");
            // Wait past the writer's update.
            cx.sleep(Duration::from_millis(50)).await.unwrap();
            let v = mem.read(cx, PageId(0), 0, 1).await.unwrap();
            if v[0] != 9 {
                stale.fetch_add(1, Ordering::SeqCst);
            }
            // This read must have faulted (our copy was invalidated).
            assert_eq!(mem.stats.read_faults, 2, "stale mapping survived");
        });
    }
    sim.spawn_async("writer", NodeId(5), move |cx| async move {
        cx.sleep(Duration::from_millis(20)).await.unwrap();
        let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
        mem.write(cx, PageId(0), 0, &[9]).await.unwrap();
    });
    sim.run();
    assert_eq!(stale_reads.load(Ordering::SeqCst), 0, "stale data observed");
}

#[test]
fn ping_pong_ownership_transfers_preserve_data() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 4);
    let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
    // Two writers alternately increment a counter byte in the same page.
    // Every increment must be preserved across ownership transfers.
    let final_a = Arc::new(AtomicU64::new(0));
    for w in 0..2u32 {
        let fa = Arc::clone(&final_a);
        sim.spawn_async(format!("writer{w}"), NodeId(1 + w), move |cx| async move {
            let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
            for round in 0..10u64 {
                // Loose alternation via sleeps keyed by writer index.
                cx.sleep(Duration::from_millis(2 + w as u64)).await.unwrap();
                let cur = mem.read(cx, PageId(0), 0, 1).await.unwrap()[0];
                mem.write(cx, PageId(0), 0, &[cur + 1]).await.unwrap();
                let _ = round;
            }
            cx.sleep(Duration::from_millis(80)).await.unwrap();
            let v = mem.read(cx, PageId(0), 0, 1).await.unwrap()[0];
            fa.store(v as u64, Ordering::SeqCst);
        });
    }
    sim.run();
    // NOTE: read-then-write is not atomic across contexts, so increments
    // *can* race (both read N, both write N+1). What the protocol does
    // guarantee is that the final value is between 10 (total serialization
    // of lost updates) and 20 (no lost updates) and both writers converge
    // on the same final byte.
    let v = final_a.load(Ordering::SeqCst);
    assert!((10..=20).contains(&v), "impossible final counter {v}");
}

#[test]
fn reads_scale_without_traffic_once_shared() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 5);
    let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
    sim.spawn_async("reader", NodeId(1), move |cx| async move {
        let now = || cx.with(|cx| cx.now());
        let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
        mem.read(cx, PageId(3), 0, 8).await.unwrap(); // fault
        let t0 = now();
        for _ in 0..500 {
            mem.read(cx, PageId(3), 0, 8).await.unwrap();
        }
        assert_eq!(now(), t0, "mapped reads must be free");
        assert_eq!(mem.stats.read_hits, 500);
    });
    sim.run();
}

#[test]
fn out_of_bounds_access_is_rejected_locally() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 6);
    let manager = spawn_dsm_manager(&sim, NodeId(0), PAGE);
    sim.spawn_async("client", NodeId(1), move |cx| async move {
        let mut mem = cx.with(|cx| DsmClient::attach(cx, manager));
        mem.write(cx, PageId(0), 0, b"ok").await.unwrap();
        let err = mem.write(cx, PageId(0), PAGE - 1, b"xy").await.unwrap_err();
        assert!(matches!(err, dsm::DsmError::OutOfBounds { .. }));
        let err = mem.read(cx, PageId(0), 0, PAGE + 1).await.unwrap_err();
        assert!(matches!(err, dsm::DsmError::OutOfBounds { .. }));
    });
    sim.run();
}
