//! What a blocking process body may rely on, whatever runs it.
//!
//! `Simulation::spawn` bodies are straight-line blocking code; how the
//! scheduler suspends one — a stack of its own on x86-64 Linux, an OS
//! thread elsewhere — is invisible to the simulation. These tests pin
//! the behaviour both implementations owe a body: its captures and
//! locals are dropped exactly once however it ends, a kill or a
//! shutdown reaches it wherever it is blocked, it has a real stack under
//! it, thousands can be parked at once, and nothing observable depends
//! on which OS thread carried it.
//!
//! At the parent of the change that added this file (a thread per
//! process, everywhere) all of these pass but
//! `undelivered_cross_domain_spawn_is_dropped_unrun`, which there raced
//! a detached thread that dropped the body a moment after the
//! simulation was gone; the thread hand-off kept for other targets now
//! joins, and passes all ten. Two are what sharing a thread adds, and
//! fail on a coroutine hand-off without the matching care:
//! `open_scope_stays_with_its_process` (the profiler's open frames must
//! travel with the body) and, at more than one thread,
//! `blocking_bodies_in_every_domain_are_thread_invariant` (shutdown must
//! resume a body on the thread that started it).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use simnet::{Ctx, Endpoint, NetworkConfig, NodeId, PortId, SimTime, Simulation, Stopped};

/// Counts its own drops.
struct Guard(Arc<AtomicUsize>);

impl Drop for Guard {
    fn drop(&mut self) {
        self.0.fetch_add(1, Ordering::SeqCst);
    }
}

fn counter() -> Arc<AtomicUsize> {
    Arc::new(AtomicUsize::new(0))
}

#[test]
fn never_started_body_is_dropped_unrun_by_drop() {
    let ran = Arc::new(AtomicBool::new(false));
    let drops = counter();
    let sim = Simulation::new(NetworkConfig::lan(), 1);
    let (r, g) = (Arc::clone(&ran), Guard(Arc::clone(&drops)));
    sim.spawn("never", NodeId(0), move |_ctx| {
        let _g = g;
        r.store(true, Ordering::SeqCst);
    });
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(sim);
    assert!(!ran.load(Ordering::SeqCst), "body ran during teardown");
    assert_eq!(drops.load(Ordering::SeqCst), 1, "captures dropped once");
}

/// A `Kill` can never overtake the victim's first `Wake` (the spawn
/// enqueues the wake first, at the same instant), so a process killed
/// in the instant it was spawned still starts: it runs to its first
/// blocking call, which returns `Stopped`.
#[test]
fn killed_in_its_spawn_instant_stops_at_its_first_block() {
    let drops = counter();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (d, s) = (Arc::clone(&drops), Arc::clone(&seen));
    sim.spawn("parent", NodeId(0), move |ctx| {
        let g = Guard(d);
        let child = ctx.spawn("child", NodeId(0), move |cctx| {
            let _g = g;
            s.lock().unwrap().push(cctx.recv().map(|_| ()));
        });
        assert!(ctx.kill(child));
    });
    let report = sim.run();
    assert_eq!(*seen.lock().unwrap(), vec![Err(Stopped)]);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert_eq!(report.finished, 2);
}

/// A cross-domain spawn is an event (or an outbox entry) until its
/// target domain reaches it; a simulation dropped first drops the body
/// unrun, wherever it was parked.
#[test]
fn undelivered_cross_domain_spawn_is_dropped_unrun() {
    let ran = Arc::new(AtomicUsize::new(0));
    let drops = counter();
    let mut sim = Simulation::new(NetworkConfig::lan(), 1).with_domains(2);
    let (r, d) = (Arc::clone(&ran), Arc::clone(&drops));
    sim.spawn("spawner", NodeId(0), move |ctx| {
        let foreign = |ctx: &Ctx, r: Arc<AtomicUsize>, g: Guard| {
            ctx.spawn("foreign", NodeId(1), move |_| {
                let _g = g;
                r.fetch_add(1, Ordering::SeqCst);
            });
        };
        // Lands in domain 1's heap one lookahead from now: beyond the
        // pause below.
        foreign(ctx, Arc::clone(&r), Guard(Arc::clone(&d)));
        assert_eq!(ctx.recv().map(|_| ()), Err(Stopped));
        // Spawned during shutdown: still in domain 0's outbox when the
        // simulation goes.
        foreign(ctx, r, Guard(d));
    });
    sim.run_until(SimTime::ZERO);
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(sim);
    assert_eq!(ran.load(Ordering::SeqCst), 0, "a foreign body ran");
    assert_eq!(drops.load(Ordering::SeqCst), 2, "each capture dropped once");
}

#[test]
fn kill_reaches_a_body_wherever_it_blocks_and_frees_its_port() {
    type Block = fn(&mut Ctx) -> Result<(), Stopped>;
    let blocks: [(&str, Block); 3] = [
        ("recv", |ctx| ctx.recv().map(|_| ())),
        ("sleep", |ctx| ctx.sleep(Duration::from_secs(3600))),
        ("recv_deadline", |ctx| {
            ctx.recv_deadline(SimTime::from_millis(3_600_000))
                .map(|_| ())
        }),
    ];
    let drops: Vec<_> = blocks.iter().map(|_| counter()).collect();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let rebound = counter();
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let mut victims: Vec<Endpoint> = Vec::new();
    for (i, (name, block)) in blocks.into_iter().enumerate() {
        let (g, s) = (Guard(Arc::clone(&drops[i])), Arc::clone(&seen));
        let port = PortId(10 + i as u32);
        victims.push(sim.spawn_at(name, NodeId(1), port, move |ctx| {
            let _g = g;
            let r = block(ctx);
            s.lock().unwrap().push((name, r));
        }));
    }
    let r = Arc::clone(&rebound);
    sim.spawn("killer", NodeId(0), move |ctx| {
        ctx.sleep(Duration::from_millis(1)).unwrap();
        for v in &victims {
            assert!(ctx.kill(*v));
            assert!(!ctx.kill(*v), "a dead process cannot be killed again");
        }
        // The victims' teardown runs at this instant, after this body
        // next blocks; their ports are free already.
        for v in victims {
            let r = Arc::clone(&r);
            let again = ctx.spawn_at("again", v.node, v.port, move |cctx| {
                let m = cctx.recv().unwrap();
                assert_eq!(&m.payload[..], b"hello again");
                r.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(again, v);
            ctx.send(again, Bytes::from_static(b"hello again"));
        }
    });
    let report = sim.run();
    assert_eq!(
        *seen.lock().unwrap(),
        vec![
            ("recv", Err(Stopped)),
            ("sleep", Err(Stopped)),
            ("recv_deadline", Err(Stopped))
        ]
    );
    for d in &drops {
        assert_eq!(d.load(Ordering::SeqCst), 1, "locals dropped exactly once");
    }
    assert_eq!(rebound.load(Ordering::SeqCst), 3);
    assert_eq!(report.finished, 7);
}

#[test]
fn a_panic_is_reported_by_name_and_the_suspended_are_torn_down() {
    let drops = counter();
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    for i in 0..3u32 {
        let g = Guard(Arc::clone(&drops));
        sim.spawn(format!("waiter{i}"), NodeId(i), move |ctx| {
            let _g = g;
            assert_eq!(ctx.recv().map(|_| ()), Err(Stopped));
        });
    }
    sim.spawn("culprit", NodeId(9), |ctx| {
        ctx.sleep(Duration::from_millis(1)).unwrap();
        panic!("the culprit's message");
    });
    let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("string panic payload")
        .as_str();
    assert!(
        msg.contains("culprit: the culprit's message"),
        "unexpected report: {msg}"
    );
    // The waiters are still suspended mid-`recv`: `run` panicked before
    // its shutdown. Dropping the simulation stops them.
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(sim);
    assert_eq!(drops.load(Ordering::SeqCst), 3);
}

#[test]
fn five_thousand_parked_bodies_all_finish() {
    const N: usize = 5000;
    let woke = counter();
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    for i in 0..N {
        let w = Arc::clone(&woke);
        sim.spawn(format!("p{i}"), NodeId(i as u32 % 16), move |ctx| {
            ctx.sleep(Duration::from_millis(1)).unwrap();
            w.fetch_add(1, Ordering::Relaxed);
        });
    }
    // Every body has started and is parked in its sleep.
    let mid = sim.run_until(SimTime::from_micros(500));
    assert_eq!((mid.finished, mid.alive), (0, N));
    assert_eq!(woke.load(Ordering::Relaxed), 0);
    let report = sim.run();
    assert_eq!(report.finished, N);
    assert_eq!(woke.load(Ordering::Relaxed), N);
}

/// Descends until `bytes` of stack lie between `top` and the current
/// frame; returns the depth reached.
#[inline(never)]
fn descend(top: usize, bytes: usize, depth: usize) -> usize {
    let pad = std::hint::black_box([depth as u8; 512]);
    let here = std::ptr::from_ref(&pad) as usize;
    if top.saturating_sub(here) >= bytes {
        return depth;
    }
    let reached = descend(top, bytes, depth + 1);
    // Not a tail call: `pad` is still live after the recursion returns.
    std::hint::black_box(&pad);
    reached
}

#[test]
fn a_body_has_a_megabyte_of_stack_under_it() {
    let depth = counter();
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let d = Arc::clone(&depth);
    sim.spawn("deep", NodeId(0), move |ctx| {
        let top = 0u8;
        let reached = descend(std::ptr::from_ref(&top) as usize, 1 << 20, 0);
        d.store(reached, Ordering::SeqCst);
        // The stack is still good for blocking after the excursion.
        ctx.sleep(Duration::from_millis(1)).unwrap();
    });
    let report = sim.run();
    assert_eq!(report.finished, 1);
    let reached = depth.load(Ordering::SeqCst);
    assert!(
        (100..=2048).contains(&reached),
        "1 MiB took {reached} frames"
    );
}

/// A frame with a name of its own in any build profile.
#[inline(never)]
fn capture_backtrace_in_body() -> String {
    std::hint::black_box(std::backtrace::Backtrace::force_capture().to_string())
}

#[test]
fn a_backtrace_taken_in_a_body_terminates() {
    let text = Arc::new(Mutex::new(String::new()));
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let t = Arc::clone(&text);
    sim.spawn("tracer", NodeId(0), move |ctx| {
        // From a suspended-and-resumed frame, not just a fresh stack.
        ctx.sleep(Duration::from_millis(1)).unwrap();
        *t.lock().unwrap() = capture_backtrace_in_body();
    });
    sim.run();
    let text = text.lock().unwrap();
    // The walk found its way out of the body and stopped at the outermost
    // frame of the body's stack: the scheduler that resumed the body is
    // on another stack and must not appear.
    assert!(
        text.contains("capture_backtrace_in_body"),
        "backtrace lacks the body's frame:\n{text}"
    );
    assert!(
        !text.contains("Simulation::run") && text.lines().count() < 200,
        "backtrace walked into the scheduler:\n{text}"
    );
}

/// Blocking bodies in each of four domains, cross-domain traffic, a
/// mid-run pause, and eight bodies (two per domain) still blocked in
/// `recv` when the run ends. Returns every byte an observer can read:
/// the run summary, the `RunReport` JSON, the scheduler's timeline
/// (lifecycle records included) and the causal trace as JSONL.
fn four_domain_run(threads: usize) -> [String; 4] {
    let cfg = NetworkConfig::lan().with_jitter(0.2).with_loss(0.05);
    let mut sim = Simulation::new(cfg, 22)
        .with_domains(4)
        .with_threads(threads);
    sim.enable_trace(1 << 16);
    let servers: Vec<Endpoint> = (0..4u32)
        .map(|n| {
            sim.spawn_at(format!("echo{n}"), NodeId(n), PortId(1), |ctx| {
                while let Ok(m) = ctx.recv() {
                    ctx.send(m.src, m.payload);
                }
            })
        })
        .collect();
    for c in 0..8u32 {
        // Node 4 + c is in domain c % 4; its server is in the next one.
        let server = servers[(c as usize + 1) % 4];
        sim.spawn(format!("client{c}"), NodeId(4 + c), move |ctx| {
            for i in 0..6u8 {
                let span = ctx.obs().open_span(
                    obs::SpanKind::Invoke,
                    obs::SpanId::NONE,
                    "echo",
                    "call",
                    ctx.now().as_nanos(),
                );
                let prev = ctx.set_current_span(span);
                ctx.send(server, Bytes::copy_from_slice(&[c as u8, i]));
                let got = ctx.recv_timeout(Duration::from_millis(2));
                ctx.set_current_span(prev);
                ctx.obs()
                    .close_span(span, ctx.now().as_nanos(), got.is_ok());
                if got.is_err() {
                    return;
                }
            }
            if c < 4 {
                // Outlives the run, one in each domain.
                let _ = ctx.recv();
            }
        });
    }
    let mid = sim.run_until(SimTime::from_millis(3));
    assert_eq!(mid.alive, 12, "paused with every body suspended");
    let report = sim.run();
    assert_eq!((report.finished, report.alive), (4, 8));

    let dump = sim.take_trace();
    assert!(dump.is_complete());
    let timeline: String = dump.iter().map(|r| format!("{r}\n")).collect();
    let mut sink = obs::TraceSink::new();
    for e in dump.iter().filter_map(|r| r.to_net_event()) {
        sink.push_net(e);
    }
    sim.obs().for_each_span(|span| sink.push_span(span.clone()));
    [
        format!("{report:?}"),
        sim.obs_report().to_json(),
        timeline,
        obs::to_jsonl(&sink.build()),
    ]
}

/// How a body is carried must not show: one thread or four, the same
/// bytes. At four threads every body was started by a pool worker, so
/// this is also the run in which a shutdown that resumed them from the
/// driving thread would be caught by the hand-off's owner check.
#[test]
fn blocking_bodies_in_every_domain_are_thread_invariant() {
    let one = four_domain_run(1);
    let shutdown_tail = one[2].lines().rev().take(8).collect::<Vec<_>>();
    assert!(
        shutdown_tail.iter().all(|l| l.contains("finish proc")),
        "the timeline should end with the eight survivors' teardown: {shutdown_tail:?}"
    );
    assert_eq!(four_domain_run(4), one);
    assert_eq!(four_domain_run(2), one);
}

/// A profiler scope held open across a blocking call belongs to the
/// process that opened it, not to the thread: another process folding
/// frames meanwhile is not its child.
#[test]
fn open_scope_stays_with_its_process() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    sim.obs().enable_profile(64);
    sim.spawn("a", NodeId(0), |ctx| {
        let _x = obs::scope("x");
        ctx.sleep(Duration::from_millis(2)).unwrap();
        let _z = obs::scope("z");
    });
    sim.spawn("b", NodeId(0), |ctx| {
        ctx.sleep(Duration::from_millis(1)).unwrap();
        let _y = obs::scope("y");
    });
    sim.run();
    let frames = sim.obs().profile_report().expect("profiler armed").frames;
    let calls = |path: &str| frames.get(path).map(|f| f.calls);
    assert_eq!(calls("y"), Some(1), "frames: {frames:?}");
    assert_eq!(calls("x;y"), None, "b's frame was parented to a's scope");
    assert_eq!(calls("x"), Some(1));
    assert_eq!(calls("x;z"), Some(1), "a's scope lost its own child");
}
