//! What a blocking process body may rely on, whatever runs it.
//!
//! `Simulation::spawn` bodies are straight-line blocking code; how the
//! scheduler suspends one — a stack of its own on x86-64 Linux, an OS
//! thread elsewhere — is invisible to the simulation. These tests pin
//! the behaviour both implementations owe a body: its captures and
//! locals are dropped exactly once however it ends, a kill or a
//! shutdown reaches it wherever it is blocked, it has a real stack under
//! it, thousands can be parked at once, and the same seed gives the
//! same bytes. The kill and the shutdown run again
//! with the same bodies written `async` (`Simulation::spawn_async`),
//! which must leave the same timeline and count the same events.
//!
//! The thread hand-off kept for other targets joins a body's thread
//! before it lets go, so a body dropped unrun is gone when the
//! simulation is (`undelivered_cross_domain_spawn_is_dropped_unrun`).
//! One test is what sharing a thread adds, and fails on a coroutine
//! hand-off without the matching care:
//! `open_scope_stays_with_its_process` (the profiler's open frames must
//! travel with the body).

use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use bytes::Bytes;
use simnet::{Ctx, Endpoint, Message, NetworkConfig, NodeId, PortId, SimTime, Simulation, Stopped};

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

/// A blocking receive that gives up `d` from now: `Ok(None)` if nothing
/// came.
fn recv_within(ctx: &mut Ctx, d: Duration) -> Result<Option<Message>, Stopped> {
    let deadline = ctx.now() + d;
    ctx.block_on(|cx| cx.recv_deadline(deadline))
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
/// in the instant it was spawned, before it ran, still starts: it runs
/// to its first blocking call, which returns `Stopped`.
#[test]
fn killed_in_its_spawn_instant_stops_at_its_first_block() {
    let drops = counter();
    let seen = Arc::new(Mutex::new(Vec::new()));
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (g, s) = (Guard(Arc::clone(&drops)), Arc::clone(&seen));
    let child = Endpoint::new(NodeId(0), PortId(5));
    sim.spawn("parent", NodeId(0), move |ctx| {
        assert!(ctx.kill(child));
    });
    sim.spawn_at("child", child.node, child.port, move |ctx| {
        let _g = g;
        s.lock().unwrap().push(ctx.recv().map(|_| ()));
    });
    let report = sim.run();
    assert_eq!(*seen.lock().unwrap(), vec![Err(Stopped)]);
    assert_eq!(drops.load(Ordering::SeqCst), 1);
    assert_eq!(report.finished, 2);
}

/// A body spawned onto another node after the last run, beside a body
/// suspended in `recv`, never gets its first wake: the shutdown drops it
/// unrun, and its captures go with the simulation.
#[test]
fn undelivered_cross_domain_spawn_is_dropped_unrun() {
    let ran = Arc::new(AtomicUsize::new(0));
    let drops = counter();
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let (r, g) = (Arc::clone(&ran), Guard(Arc::clone(&drops)));
    sim.spawn("waiter", NodeId(0), move |ctx| {
        assert_eq!(ctx.recv().map(|_| ()), Err(Stopped));
    });
    sim.run_until(SimTime::ZERO);
    sim.spawn("foreign", NodeId(1), move |_| {
        let _g = g;
        r.fetch_add(1, Ordering::SeqCst);
    });
    assert_eq!(drops.load(Ordering::SeqCst), 0);
    drop(sim);
    assert_eq!(ran.load(Ordering::SeqCst), 0, "a foreign body ran");
    assert_eq!(drops.load(Ordering::SeqCst), 1, "the capture dropped once");
}

/// Where a victim parks.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Park {
    Recv,
    Sleep,
    RecvDeadline,
}

/// How a victim is written: straight-line blocking code, or `async`.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Written {
    Blocking,
    Async,
}

type Seen = Arc<Mutex<Vec<(Park, Result<(), Stopped>)>>>;

/// Spawns a victim at `port` of node 1 that parks in `park` and notes
/// what the park returned; `g` goes with it.
fn victim(sim: &Simulation, written: Written, park: Park, port: PortId, g: Guard, seen: Seen) {
    const FAR: Duration = Duration::from_secs(3600);
    let name = format!("{park:?}");
    match written {
        Written::Blocking => sim.spawn_at(name, NodeId(1), port, move |ctx| {
            let _g = g;
            let r = match park {
                Park::Recv => ctx.recv().map(|_| ()),
                Park::Sleep => ctx.sleep(FAR),
                Park::RecvDeadline => recv_within(ctx, FAR).map(|_| ()),
            };
            seen.lock().unwrap().push((park, r));
        }),
        Written::Async => sim.spawn_async_at(name, NodeId(1), port, move |cx| async move {
            let _g = g;
            let r = match park {
                Park::Recv => cx.recv().await.map(|_| ()),
                Park::Sleep => cx.sleep(FAR).await,
                Park::RecvDeadline => cx.recv_deadline(SimTime::ZERO + FAR).await.map(|_| ()),
            };
            seen.lock().unwrap().push((park, r));
        }),
    };
}

/// What stopping three parked victims leaves: what each saw, how often
/// each was dropped, how many rebound their ports, the processes
/// finished, the events dispatched and the scheduler's timeline.
#[derive(Debug, PartialEq)]
struct Stopping {
    seen: Vec<(Park, Result<(), Stopped>)>,
    drops: Vec<usize>,
    rebound: usize,
    finished: usize,
    events: u64,
    timeline: String,
}

/// Parks a victim in each of `recv`, `sleep` and `recv_deadline`, then
/// stops them: a killer kills each at 1 ms, a new process is bound to
/// each port between two runs, and the killer greets them at 2 ms
/// (`kill`); or the simulation is dropped at 1 ms (a shutdown).
fn stop_parked(written: Written, kill: bool) -> Stopping {
    let parks = [Park::Recv, Park::Sleep, Park::RecvDeadline];
    let drops: Vec<_> = parks.iter().map(|_| counter()).collect();
    let seen = Seen::default();
    let rebound = counter();
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    sim.enable_trace(1024);
    let mut victims: Vec<Endpoint> = Vec::new();
    for (i, park) in parks.into_iter().enumerate() {
        let port = PortId(10 + i as u32);
        let g = Guard(Arc::clone(&drops[i]));
        victim(&sim, written, park, port, g, Arc::clone(&seen));
        victims.push(Endpoint::new(NodeId(1), port));
    }
    if kill {
        let victims = victims.clone();
        sim.spawn("killer", NodeId(0), move |ctx| {
            ctx.sleep(Duration::from_millis(1)).unwrap();
            for v in &victims {
                assert!(ctx.kill(*v));
                assert!(!ctx.kill(*v), "a dead process cannot be killed again");
            }
            ctx.sleep(Duration::from_millis(1)).unwrap();
            for v in victims {
                ctx.send(v, Bytes::from_static(b"hello again"));
            }
        });
    }
    let mut report = sim.run_until(SimTime::from_millis(1));
    if kill {
        // The victims are torn down; their ports are free again.
        for v in victims {
            let r = Arc::clone(&rebound);
            let again = sim.spawn_async_at("again", v.node, v.port, move |cx| async move {
                let m = cx.recv().await.unwrap();
                assert_eq!(&m.payload[..], b"hello again");
                r.fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(again, v);
        }
        report = sim.run();
    }
    let timeline = format!("{:?}", sim.take_trace().records);
    drop(sim);
    let seen = std::mem::take(&mut *seen.lock().unwrap());
    Stopping {
        seen,
        drops: drops.iter().map(|d| d.load(Ordering::SeqCst)).collect(),
        rebound: rebound.load(Ordering::SeqCst),
        finished: report.finished,
        events: report.metrics.events_dispatched,
        timeline,
    }
}

#[test]
fn kill_reaches_a_body_wherever_it_blocks_and_frees_its_port() {
    let blocking = stop_parked(Written::Blocking, true);
    let stopped = |park| (park, Err(Stopped));
    assert_eq!(
        blocking.seen,
        [Park::Recv, Park::Sleep, Park::RecvDeadline].map(stopped)
    );
    assert_eq!(blocking.drops, [1, 1, 1], "locals dropped exactly once");
    assert_eq!(blocking.rebound, 3);
    assert_eq!(blocking.finished, 7);
    // An `async` body is dropped where it parked, unresumed: it sees
    // nothing, and the run is the blocking one, event for event.
    let killed = stop_parked(Written::Async, true);
    assert_eq!(killed.seen, []);
    assert_eq!(
        Stopping {
            seen: blocking.seen.clone(),
            ..killed
        },
        blocking
    );
}

#[test]
fn shutdown_reaches_a_body_wherever_it_blocks() {
    let stopped = |park| (park, Err(Stopped));
    let blocking = stop_parked(Written::Blocking, false);
    assert_eq!(
        blocking.seen,
        [Park::Recv, Park::Sleep, Park::RecvDeadline].map(stopped)
    );
    assert_eq!(blocking.drops, [1, 1, 1], "locals dropped exactly once");
    assert_eq!(stop_parked(Written::Async, false), blocking);
}

/// The kill above, with a victim that panics on its way out of
/// `Stopped`: the panic is the victim's, and `run` reports it by name.
#[test]
fn a_killed_body_that_panics_as_it_unwinds_is_reported_by_name() {
    let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    let victim = sim.spawn("victim", NodeId(1), |ctx| {
        assert_eq!(ctx.recv().map(|_| ()), Err(Stopped));
        panic!("the victim's last words");
    });
    sim.spawn("killer", NodeId(0), move |ctx| {
        ctx.sleep(Duration::from_millis(1)).unwrap();
        assert!(ctx.kill(victim));
    });
    let err = panic::catch_unwind(AssertUnwindSafe(|| sim.run())).expect_err("run must panic");
    let msg = err
        .downcast_ref::<String>()
        .expect("string panic payload")
        .as_str();
    assert!(
        msg.contains("victim: the victim's last words"),
        "unexpected report: {msg}"
    );
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

/// Blocking bodies on twelve nodes, traffic between them, a mid-run
/// pause, and eight bodies still blocked in `recv` when the run ends. Returns every byte an observer can read:
/// the run summary, the `RunReport` JSON, the scheduler's timeline
/// (lifecycle records included) and the causal trace as JSONL.
fn paused_run() -> [String; 4] {
    let cfg = NetworkConfig::lan().with_jitter(0.2).with_loss(0.05);
    let mut sim = Simulation::new(cfg, 22);
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
                let got = recv_within(ctx, Duration::from_millis(2));
                ctx.set_current_span(prev);
                ctx.obs()
                    .close_span(span, ctx.now().as_nanos(), got.is_ok());
                if got.is_err() {
                    return;
                }
            }
            if c < 4 {
                // Outlives the run.
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
    let timeline: String = dump.iter().map(|r| format!("{r:?}\n")).collect();
    let mut sink = obs::TraceSink::new();
    for e in dump
        .into_iter()
        .filter_map(simnet::TraceRecord::into_net_event)
    {
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

/// Bodies suspended across a pause and at shutdown give the same bytes
/// when the same seed runs twice.
#[test]
fn blocking_bodies_in_every_domain_are_thread_invariant() {
    let one = paused_run();
    let shutdown_tail = one[2].lines().rev().take(8).collect::<Vec<_>>();
    assert!(
        shutdown_tail.iter().all(|l| l.contains("Finished")),
        "the timeline should end with the eight survivors' teardown: {shutdown_tail:?}"
    );
    assert_eq!(paused_run(), one);
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
