//! Integration tests for the poll-driven process runtime: wake-after-
//! block, lost-wakeup freedom, determinism, timer staleness, teardown
//! and the process-table gauges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use parking_lot::Mutex;
use simnet::{NetworkConfig, NodeId, Poll, PortId, ProcCx, SimTime, Simulation};

#[test]
fn timer_wake_after_park() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let times = Arc::new(Mutex::new(Vec::new()));
    let t = Arc::clone(&times);
    sim.spawn_poll("ticker", NodeId(0), move |cx: &mut ProcCx| {
        t.lock().push(cx.now().as_millis());
        if t.lock().len() == 3 {
            return Poll::Ready(());
        }
        cx.wake_at(cx.now() + Duration::from_millis(10));
        Poll::Pending
    });
    let report = sim.run();
    assert_eq!(*times.lock(), vec![0, 10, 20]);
    assert_eq!(report.finished, 1);
    assert_eq!(report.end_time, SimTime::from_millis(20));
}

#[test]
fn delivery_wakes_parked_process() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let got = Arc::new(AtomicU64::new(0));
    let g = Arc::clone(&got);
    let rx = sim.spawn_poll("rx", NodeId(0), move |cx: &mut ProcCx| {
        match cx.try_recv().unwrap() {
            Some(m) => {
                g.store(m.payload.len() as u64, Ordering::SeqCst);
                Poll::Ready(())
            }
            // Park with no timer: only a delivery can wake us.
            None => Poll::Pending,
        }
    });
    sim.spawn("tx", NodeId(1), move |ctx| {
        ctx.sleep(Duration::from_millis(5)).unwrap();
        ctx.send(rx, Bytes::from_static(b"wake"));
    });
    let report = sim.run();
    assert_eq!(got.load(Ordering::SeqCst), 4);
    assert_eq!(report.finished, 2);
}

#[test]
fn no_lost_wakeups_on_racing_completions() {
    // Two messages delivered at the same instant: the first poll may
    // drain both or only one, but every delivery schedules a poll, so
    // none can be missed even though the process parks in between.
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let seen = Arc::new(AtomicU64::new(0));
    let polls = Arc::new(AtomicU64::new(0));
    let (s, p) = (Arc::clone(&seen), Arc::clone(&polls));
    let rx = sim.spawn_poll("rx", NodeId(0), move |cx: &mut ProcCx| {
        p.fetch_add(1, Ordering::SeqCst);
        // Deliberately consume at most ONE message per poll, parking
        // with the second still queued — the pending delivery event
        // must poll us again rather than leaving us parked forever.
        if cx.try_recv().unwrap().is_some() && s.fetch_add(1, Ordering::SeqCst) + 1 == 2 {
            return Poll::Ready(());
        }
        Poll::Pending
    });
    // Same node, same payload size, no jitter: both messages land at
    // the same virtual instant.
    sim.spawn("tx", NodeId(1), move |ctx| {
        ctx.send(rx, Bytes::from_static(b"a"));
        ctx.send(rx, Bytes::from_static(b"b"));
    });
    let report = sim.run();
    assert_eq!(seen.load(Ordering::SeqCst), 2);
    assert_eq!(report.finished, 2);
    assert!(polls.load(Ordering::SeqCst) >= 2);
}

#[test]
fn deterministic_ready_order_under_fixed_seed() {
    // N polled clients hammer one polled echo server through a lossy,
    // jittery network; the full interleaving must reproduce bit-for-bit
    // for the same seed and differ for another.
    fn run_once(seed: u64) -> (u64, u64, Vec<u32>) {
        let order = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.3).with_loss(0.05), seed);
        let server = sim.spawn_async_at("server", NodeId(0), PortId(1), |cx| async move {
            while let Ok(m) = cx.recv().await {
                cx.with(|cx| cx.send(m.src, m.payload));
            }
        });
        for i in 0..8u32 {
            let o = Arc::clone(&order);
            let mut sent = 0u32;
            let mut got = 0u32;
            sim.spawn_poll(
                format!("client{i}"),
                NodeId(1 + i),
                move |cx: &mut ProcCx| {
                    o.lock().push(i);
                    while cx.try_recv().unwrap().is_some() {
                        got += 1;
                        if got == 5 {
                            return Poll::Ready(());
                        }
                    }
                    if sent < 20 {
                        sent += 1;
                        cx.send(server, Bytes::from_static(b"req"));
                        cx.wake_at(cx.now() + Duration::from_millis(2));
                    }
                    Poll::Pending
                },
            );
        }
        let r = sim.run_until(SimTime::from_millis(500));
        let polled_order = order.lock().clone();
        (
            r.metrics.msgs_delivered,
            r.metrics.msgs_dropped,
            polled_order,
        )
    }
    let a = run_once(42);
    let b = run_once(42);
    let c = run_once(43);
    assert_eq!(a, b, "same seed must reproduce the exact poll order");
    assert_ne!(a.2, c.2, "different seed should perturb the poll order");
}

#[test]
fn stale_timer_does_not_fire_after_repark() {
    // Park with a long timer, get woken by a message and re-park with no
    // timer: the original timer is stale (older generation) and must not
    // poll the process again.
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let polls_after_msg = Arc::new(AtomicU64::new(0));
    let p = Arc::clone(&polls_after_msg);
    let mut got_msg = false;
    let rx = sim.spawn_poll("rx", NodeId(0), move |cx: &mut ProcCx| {
        if got_msg {
            // Only shutdown's final poll may land here.
            p.fetch_add(1, Ordering::SeqCst);
            assert!(cx.is_stopped(), "stale timer polled a re-parked process");
            return Poll::Ready(());
        }
        if cx.try_recv().unwrap().is_some() {
            got_msg = true;
            return Poll::Pending; // re-park, no timer
        }
        cx.wake_at(cx.now() + Duration::from_millis(50));
        Poll::Pending
    });
    sim.spawn("tx", NodeId(1), move |ctx| {
        ctx.send(rx, Bytes::from_static(b"hi"));
    });
    let report = sim.run();
    // The stale 50ms timer fired as an event but was discarded; the
    // process saw exactly one poll after its message (the shutdown one).
    assert_eq!(polls_after_msg.load(Ordering::SeqCst), 1);
    // The report snapshots before shutdown: rx was still parked then.
    assert_eq!(report.finished, 1);
    assert_eq!(report.alive, 1);
}

#[test]
fn yield_now_reschedules_after_current_instant() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let hops = Arc::new(AtomicU64::new(0));
    let h = Arc::clone(&hops);
    sim.spawn_poll("yielder", NodeId(0), move |cx: &mut ProcCx| {
        if h.fetch_add(1, Ordering::SeqCst) + 1 == 5 {
            return Poll::Ready(());
        }
        assert_eq!(cx.now(), SimTime::ZERO, "yield must not advance time");
        cx.wake_at(cx.now());
        Poll::Pending
    });
    let report = sim.run();
    assert_eq!(hops.load(Ordering::SeqCst), 5);
    assert_eq!(report.end_time, SimTime::ZERO);
}

#[test]
#[should_panic(expected = "blocking Ctx operation")]
fn blocking_recv_panics_in_poll_mode() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    sim.spawn_poll("bad", NodeId(0), |cx: &mut ProcCx| {
        let _ = cx.ctx().recv();
        Poll::Ready(())
    });
    sim.run();
}

#[test]
#[should_panic(expected = "machine exploded")]
fn polled_panic_propagates() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    sim.spawn_poll("bad", NodeId(0), |_cx: &mut ProcCx| -> Poll<()> {
        panic!("machine exploded")
    });
    sim.run();
}

#[test]
fn kill_drops_parked_machine_and_unbinds() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let served = Arc::new(AtomicU64::new(0));
    let s = Arc::clone(&served);
    let victim = sim.spawn_poll("victim", NodeId(0), move |cx: &mut ProcCx| {
        while cx.try_recv().unwrap().is_some() {
            s.fetch_add(1, Ordering::SeqCst);
        }
        Poll::Pending
    });
    sim.spawn("assassin", NodeId(1), move |ctx| {
        ctx.send(victim, Bytes::from_static(b"one"));
        ctx.sleep(Duration::from_millis(2)).unwrap();
        assert!(ctx.kill(victim), "victim should be alive");
        assert!(!ctx.kill(victim), "second kill is a no-op");
        ctx.send(victim, Bytes::from_static(b"two"));
    });
    let report = sim.run();
    assert_eq!(served.load(Ordering::SeqCst), 1);
    assert_eq!(report.metrics.msgs_blackholed, 1);
}

#[test]
fn polled_process_can_spawn_children() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let done = Arc::new(AtomicU64::new(0));
    let d = Arc::clone(&done);
    let mut spawned = false;
    sim.spawn_poll("parent", NodeId(0), move |cx: &mut ProcCx| {
        if !spawned {
            spawned = true;
            let d2 = Arc::clone(&d);
            // A polled parent can spawn a child mid-poll.
            let child = cx.spawn_async("child", NodeId(1), move |ccx| async move {
                if ccx.recv().await.is_ok() {
                    d2.fetch_add(1, Ordering::SeqCst);
                }
            });
            cx.send(child, Bytes::from_static(b"work"));
            return Poll::Pending;
        }
        Poll::Ready(())
    });
    sim.run();
    assert_eq!(done.load(Ordering::SeqCst), 1);
}

#[test]
fn process_gauges_track_spawn_and_peak() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    for i in 0..10u32 {
        sim.spawn_poll(format!("p{i}"), NodeId(0), |_cx: &mut ProcCx| {
            Poll::Ready(())
        });
    }
    sim.spawn("t", NodeId(1), |ctx| {
        ctx.sleep(Duration::from_millis(1)).unwrap();
    });
    let report = sim.run();
    assert_eq!(report.metrics.processes_spawned, 11);
    // All 11 were spawned before any ran, so the peak saw all of them.
    assert_eq!(report.metrics.processes_peak, 11);
    assert_eq!(report.finished, 11);
}

#[test]
fn shutdown_gives_parked_machine_a_final_stopped_poll() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 0);
    let farewell = Arc::new(AtomicU64::new(0));
    let f = Arc::clone(&farewell);
    sim.spawn_poll("server", NodeId(0), move |cx: &mut ProcCx| {
        if cx.is_stopped() {
            f.fetch_add(1, Ordering::SeqCst);
            return Poll::Ready(());
        }
        Poll::Pending
    });
    let report = sim.run();
    assert_eq!(farewell.load(Ordering::SeqCst), 1);
    assert_eq!(report.end_time, SimTime::ZERO);
}

#[test]
fn threaded_and_polled_interoperate() {
    // A classic threaded echo server serving a poll-driven client: the
    // two runtimes share one network, one clock and one event order.
    let mut sim = Simulation::new(NetworkConfig::lan(), 7);
    let echo = sim.spawn_at("echo", NodeId(0), PortId(7), |ctx| {
        while let Ok(m) = ctx.recv() {
            ctx.send(m.src, m.payload);
        }
    });
    let replies = Arc::new(AtomicU64::new(0));
    let r = Arc::clone(&replies);
    let mut sent = false;
    sim.spawn_poll("client", NodeId(1), move |cx: &mut ProcCx| {
        if !sent {
            sent = true;
            cx.send(echo, Bytes::from_static(b"ping"));
            return Poll::Pending;
        }
        match cx.try_recv().unwrap() {
            Some(m) => {
                assert_eq!(&m.payload[..], b"ping");
                r.fetch_add(1, Ordering::SeqCst);
                Poll::Ready(())
            }
            None => Poll::Pending,
        }
    });
    let report = sim.run();
    assert_eq!(replies.load(Ordering::SeqCst), 1);
    assert_eq!(report.metrics.msgs_delivered, 2);
}
