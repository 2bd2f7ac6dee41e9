//! Determinism of the scheduler, proved at the property level: for a
//! fixed seed, the `RunReport` JSON, the event trace, and every
//! observable byte of the run are identical from one run to the next —
//! the `(time, seq)` order of the one event heap decides every ordering
//! question, and nothing a run leaves behind on its thread reaches the
//! next one.
//!
//! The workloads cover lossy/jittery links (RNG draws in event order),
//! request/reply traffic between nodes, link-latency overrides, an
//! in-flight `ctx.spawn` onto another node, a mid-run `ctx.kill`, a
//! `run_until` pause and resume, and shutdown with processes still
//! parked (deterministic teardown).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use simnet::{NetworkConfig, NodeId, PortId, SimTime, Simulation};

/// A random topology + traffic description. Everything observable must
/// be a function of this struct alone.
#[derive(Debug, Clone)]
struct Workload {
    seed: u64,
    /// Echo servers (one per node, nodes 0..servers).
    servers: u8,
    /// Clients (nodes 100..100+clients), each doing `calls` echo RTTs.
    clients: u8,
    calls: u8,
    loss: f64,
    jitter: f64,
    /// Per-link latency overrides `(a, b, micros)`.
    overrides: Vec<(u32, u32, u64)>,
    /// Whether a driver on another node kills one server mid-run and
    /// spawns a late child on a node of its own.
    disruptor: bool,
    /// Pause point for a `run_until` + resume split, in microseconds;
    /// 0 means run to completion in one call.
    pause_us: u64,
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        (any::<u64>(), 1u8..4, 1u8..6, 1u8..5),
        (
            0.0f64..0.3,
            0.0f64..0.5,
            proptest::collection::vec((0u32..6, 0u32..6, 20u64..500), 0..4),
            any::<bool>(),
            prop_oneof![Just(0u64), 200u64..3000],
        ),
    )
        .prop_map(
            |((seed, servers, clients, calls), (loss, jitter, overrides, disruptor, pause_us))| {
                Workload {
                    seed,
                    servers,
                    clients,
                    calls,
                    loss,
                    jitter,
                    overrides,
                    disruptor,
                    pause_us,
                }
            },
        )
}

/// One full run. Returns every byte an outside observer can see: the
/// summary counters, the full event trace, the `RunReport` JSON, and
/// the number of echoes completed.
fn run(w: &Workload) -> (String, String, String, u64) {
    run_built(w, Simulation::new)
}

/// [`run`] on the simulation `build` makes from the workload's network
/// and seed.
fn run_built(
    w: &Workload,
    build: impl FnOnce(NetworkConfig, u64) -> Simulation,
) -> (String, String, String, u64) {
    let cfg = NetworkConfig::lan().with_loss(w.loss).with_jitter(w.jitter);
    let mut sim = build(cfg, w.seed);
    sim.enable_trace(1 << 16);
    {
        let mut net = sim.net();
        for &(a, b, us) in &w.overrides {
            net.set_link_latency(NodeId(a), NodeId(b), Duration::from_micros(us));
        }
    }

    let mut servers = Vec::new();
    for n in 0..w.servers {
        servers.push(
            sim.spawn_at(format!("server{n}"), NodeId(n as u32), PortId(1), |ctx| {
                while let Ok(m) = ctx.recv() {
                    ctx.send(m.src, m.payload);
                }
            }),
        );
    }

    let echoes = Arc::new(AtomicU64::new(0));
    for c in 0..w.clients {
        let server = servers[(c as usize) % servers.len()];
        let calls = w.calls;
        let done = Arc::clone(&echoes);
        sim.spawn_async(
            format!("client{c}"),
            NodeId(100 + c as u32),
            move |cx| async move {
                for i in 0..calls {
                    let deadline = cx.with(|cx| {
                        cx.send(server, Bytes::copy_from_slice(&[c, i]));
                        cx.now() + Duration::from_millis(2)
                    });
                    match cx.recv_deadline(deadline).await {
                        Ok(Some(_)) => {
                            done.fetch_add(1, Ordering::Relaxed);
                        }
                        // Lost to the lossy link — move on.
                        Ok(None) => {}
                        Err(_) => return,
                    }
                }
            },
        );
    }

    if w.disruptor {
        let victim = servers[0];
        sim.spawn("disruptor", NodeId(50), move |ctx| {
            ctx.sleep(Duration::from_micros(700)).unwrap();
            ctx.kill(victim);
            let child = ctx.spawn_async("late-child", NodeId(51), |cx| async move {
                let deadline = cx.with(|cx| cx.now()) + Duration::from_millis(1);
                let _ = cx.recv_deadline(deadline).await;
            });
            ctx.send(child, Bytes::from_static(b"wake"));
        });
    }

    let report = if w.pause_us > 0 {
        // Pause mid-flight, observe, resume: the clock and the pending
        // events must survive re-entry identically.
        let _mid = sim.run_until(SimTime::from_micros(w.pause_us));
        sim.run()
    } else {
        sim.run()
    };

    let trace: String = sim
        .take_trace()
        .iter()
        .map(|r| format!("{r:?}\n"))
        .collect();
    let json = sim.obs_report().to_json();
    let summary = format!(
        "end={} sent={} delivered={} dropped={} blackholed={} events={} \
         spawned={} peak={} inversions={} finished={} alive={}",
        report.end_time.as_nanos(),
        report.metrics.msgs_sent,
        report.metrics.msgs_delivered,
        report.metrics.msgs_dropped,
        report.metrics.msgs_blackholed,
        report.metrics.events_dispatched,
        report.metrics.processes_spawned,
        report.metrics.processes_peak,
        report.metrics.sched_time_inversions,
        report.finished,
        report.alive
    );
    (summary, trace, json, echoes.load(Ordering::Relaxed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline invariant: same workload run twice → identical
    /// summary counters, identical trace bytes, identical report JSON,
    /// identical application-level outcome. And no run may ever count a
    /// time inversion — no event is scheduled before the instant that
    /// schedules it.
    #[test]
    fn report_and_trace_invariant_across_thread_counts(w in arb_workload()) {
        let base = run(&w);
        prop_assert!(
            base.0.contains("inversions=0"),
            "run counted a time inversion: {}", base.0
        );
        let again = run(&w);
        prop_assert_eq!(&again.0, &base.0, "summary differs between two runs");
        prop_assert_eq!(&again.1, &base.1, "trace differs between two runs");
        prop_assert_eq!(&again.2, &base.2, "report JSON differs between two runs");
        prop_assert_eq!(again.3, base.3, "echo count differs between two runs");
    }

    /// A run of another workload in between changes nothing either: the
    /// thread-local state a simulation sets on the thread that drives it
    /// (the profiler) does not carry into the next.
    #[test]
    fn parallel_runs_are_repeatable(w in arb_workload(), other in arb_workload()) {
        let a = run(&w);
        run(&other);
        let b = run(&w);
        prop_assert_eq!(a, b);
    }
}

/// Kill/shutdown mid-run, pinned (non-random) so the kill + spawn +
/// paused-resume combination is exercised on every test run, not only
/// when proptest happens to draw it.
fn disrupted() -> Workload {
    Workload {
        seed: 0xD15_7077,
        servers: 3,
        clients: 4,
        calls: 4,
        loss: 0.1,
        jitter: 0.3,
        overrides: vec![(0, 50, 40), (1, 2, 60)],
        disruptor: true,
        pause_us: 900,
    }
}

#[test]
fn disrupted_paused_run_is_thread_invariant() {
    let w = disrupted();
    assert_eq!(run(&w), run(&w), "disrupted run diverged between two runs");
}

/// `Simulation::with_domains` is a no-op: the disrupted workload (lossy
/// links, a spawn onto another node, a kill, a pause and resume) built
/// with eight domains leaves the same report JSON and trace, byte for
/// byte, as built without.
#[test]
fn with_domains_changes_no_byte() {
    let w = disrupted();
    let plain = run(&w);
    let eight = run_built(&w, |cfg, seed| Simulation::new(cfg, seed).with_domains(8));
    assert_eq!(eight.2, plain.2, "report JSON differs");
    assert_eq!(eight.1, plain.1, "trace differs");
    assert_eq!(eight, plain);
}
