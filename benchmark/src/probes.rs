//! Probes: the benchmark calls a layer's public functions directly and
//! times them. Each probe runs long enough (about 0.1–0.3 s) for the
//! clock's resolution not to matter, in a child process pinned like any
//! other run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::sut::{self, NodeId, Poll, ProcCx, Value};
use crate::workloads;

const PING_PONGS: u64 = 60_000;

/// Two poll-driven processes bounce one raw datagram back and forth
/// through `Simulation::run`: wall time per scheduler event with nothing
/// above `simnet` on the path — the scheduler's floor.
fn bare_poll_ns_per_event() -> f64 {
    let mut sim = sut::new_sim(sut::lan(0.0), 1, 1, 1);
    let echo = sut::spawn_poll(&sim, "echo".to_owned(), NodeId(0), |cx: &mut ProcCx| {
        while let Some(m) = sut::try_recv(cx) {
            sut::echo(cx, &m);
        }
        Poll::Pending
    });
    let mut left = PING_PONGS;
    let mut started = false;
    sut::spawn_poll(
        &sim,
        "ping".to_owned(),
        NodeId(1),
        move |cx: &mut ProcCx| {
            if !started {
                started = true;
                sut::send_value(cx, echo, &Value::Null);
            }
            while let Some(m) = sut::try_recv(cx) {
                left -= 1;
                if left == 0 {
                    return Poll::Ready(());
                }
                sut::echo(cx, &m);
            }
            Poll::Pending
        },
    );
    ns_per_event(&mut sim)
}

/// The same exchange between two thread-backed processes (`spawn`,
/// `Ctx::recv`, `Ctx::send`): every event is also a thread hand-off.
fn bare_thread_ns_per_event() -> f64 {
    let mut sim = sut::new_sim(sut::lan(0.0), 1, 1, 1);
    let echo = sut::spawn(&sim, "echo".to_owned(), NodeId(0), |ctx| {
        while let Some(m) = sut::recv(ctx) {
            sut::echo(ctx, &m);
        }
    });
    let bounced = Arc::new(AtomicU64::new(0));
    let count = bounced.clone();
    sut::spawn(&sim, "ping".to_owned(), NodeId(1), move |ctx| {
        sut::send_value(ctx, echo, &Value::Null);
        for _ in 1..PING_PONGS {
            let Some(m) = sut::recv(ctx) else { return };
            sut::echo(ctx, &m);
            count.fetch_add(1, Ordering::Relaxed);
        }
    });
    let ns = ns_per_event(&mut sim);
    assert_eq!(bounced.load(Ordering::Relaxed), PING_PONGS - 1);
    ns
}

fn ns_per_event(sim: &mut sut::Simulation) -> f64 {
    let t0 = Instant::now();
    let report = sut::run(sim);
    let wall = t0.elapsed();
    assert!(
        report.metrics.events_dispatched >= 2 * PING_PONGS,
        "the ping-pong did not run to its end"
    );
    wall.as_nanos() as f64 / report.metrics.events_dispatched as f64
}

/// Nanoseconds per call of `f`, repeated in batches until `budget` has
/// passed.
fn time_loop<R>(budget: Duration, batch: u32, mut f: impl FnMut() -> R) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < budget {
        for _ in 0..batch {
            black_box(f());
        }
        calls += u64::from(batch);
    }
    t0.elapsed().as_nanos() as f64 / calls as f64
}

fn directory_lookup_ns(names: usize) -> f64 {
    let dir = sut::directory_with(names, sut::client_endpoint(NodeId(1)));
    let keys: Vec<String> = (0..names).map(|i| format!("svc{i}")).collect();
    let mut i = 0usize;
    time_loop(Duration::from_millis(100), 1024, || {
        // A stride coprime to both table sizes visits every name.
        i = (i + 7) % keys.len();
        let found = sut::directory_lookup(&dir, black_box(&keys[i]));
        assert!(found);
        found
    })
}

/// Every probe, for the named workload (only the `wire` message probes
/// depend on it: they run on messages shaped like the workload's own).
pub fn run_all(workload: &str, seed: u64) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    let mut put = |name: &str, v: f64| {
        out.insert(name.to_owned(), v);
    };
    put("simnet.bare_poll_ns_per_event", bare_poll_ns_per_event());
    put(
        "simnet.bare_thread_ns_per_event",
        bare_thread_ns_per_event(),
    );

    let messages = workloads::sample_messages(workload, seed);
    // One calibration pass sizes the timed passes to about 0.1 s a side.
    let pass = sut::wire_probe(&messages, 1);
    let per_pass_ns = (pass.frame_ns_per_msg + pass.unframe_ns_per_msg) * messages.len() as f64;
    let iters = (2e8 / per_pass_ns.max(1.0)).ceil().clamp(3.0, 1e6) as usize;
    let wire = sut::wire_probe(&messages, iters);
    put("wire.frame_ns_per_msg", wire.frame_ns_per_msg);
    put("wire.unframe_ns_per_msg", wire.unframe_ns_per_msg);

    let small = [0xA5u8; 64];
    put(
        "wire.crc_ns_64b",
        time_loop(Duration::from_millis(50), 4096, || {
            sut::crc32(black_box(&small))
        }),
    );
    let big: Vec<u8> = (0..64 * 1024).map(|i| (i * 31) as u8).collect();
    let ns_64k = time_loop(Duration::from_millis(100), 16, || {
        sut::crc32(black_box(&big))
    });
    put(
        "wire.crc_gib_per_s_64k",
        big.len() as f64 / ns_64k * 1e9 / (1u64 << 30) as f64,
    );

    put("naming.directory_lookup_ns_8", directory_lookup_ns(8));
    put(
        "naming.directory_lookup_ns_10k",
        directory_lookup_ns(10_000),
    );
    out
}
