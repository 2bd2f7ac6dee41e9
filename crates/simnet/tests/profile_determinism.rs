//! Run-to-run determinism of the continuous profiler, and its
//! zero-perturbation contract, proved at the property level.
//!
//! The profiler's *shape* — which frame paths exist and how many times
//! each folded — is a pure function of the simulated execution: the
//! driver folds its `sched;run` frame once per `run_until` call, and
//! instrumented library scopes fire once per simulated operation. So `canonical_frames()` (paths +
//! calls, `wall_ns` excluded) must be byte-identical when the same
//! seed runs twice. Wall time is host noise and is deliberately
//! outside the canonical form — these tests never look at it.
//!
//! The second contract is purity: turning the profiler on must not
//! move a single simulated event. A profiled run's summary counters
//! and trace bytes must equal the unprofiled run's, byte for byte.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use bytes::Bytes;
use proptest::prelude::*;
use simnet::{NetworkConfig, NodeId, PortId, Simulation};

/// A random topology + traffic description. The profile's canonical
/// frames must be a function of this struct alone.
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
}

fn arb_workload() -> impl Strategy<Value = Workload> {
    (
        any::<u64>(),
        1u8..4,
        1u8..6,
        1u8..5,
        0.0f64..0.3,
        0.0f64..0.5,
    )
        .prop_map(|(seed, servers, clients, calls, loss, jitter)| Workload {
            seed,
            servers,
            clients,
            calls,
            loss,
            jitter,
        })
}

/// FNV-1a over a string, for compact trace fingerprints.
fn fnv(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in s.as_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One full run. Returns the profile's canonical frames (empty string
/// when the profiler is off), the summary counters, a trace
/// fingerprint, and the echo count.
fn run(w: &Workload, profiled: bool) -> (String, String, u64, u64) {
    let cfg = NetworkConfig::lan().with_loss(w.loss).with_jitter(w.jitter);
    let mut sim = Simulation::new(cfg, w.seed);
    sim.enable_trace(1 << 16);
    if profiled {
        sim.obs().enable_profile(1 << 12);
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

    let report = sim.run();
    let canon = sim
        .obs()
        .profile_report()
        .map(|p| p.canonical_frames())
        .unwrap_or_default();
    let trace: String = sim
        .take_trace()
        .iter()
        .map(|r| format!("{r:?}\n"))
        .collect();
    let summary = format!(
        "end={} sent={} delivered={} dropped={} events={} spawned={} finished={} alive={}",
        report.end_time.as_nanos(),
        report.metrics.msgs_sent,
        report.metrics.msgs_delivered,
        report.metrics.msgs_dropped,
        report.metrics.events_dispatched,
        report.metrics.processes_spawned,
        report.finished,
        report.alive
    );
    (canon, summary, fnv(&trace), echoes.load(Ordering::Relaxed))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline invariant: same workload run twice → identical
    /// canonical frames (paths + call counts), alongside the identical
    /// summary/trace the scheduler already guarantees.
    #[test]
    fn canonical_frames_invariant_across_thread_counts(w in arb_workload()) {
        let base = run(&w, true);
        prop_assert!(!base.0.is_empty(), "profiled run produced no frames");
        let again = run(&w, true);
        prop_assert_eq!(&again.0, &base.0, "canonical frames differ between two runs");
        prop_assert_eq!(&again.1, &base.1, "summary differs between two runs");
        prop_assert_eq!(again.2, base.2, "trace differs between two runs");
        prop_assert_eq!(again.3, base.3, "echo count differs between two runs");
    }

    /// Purity: the profiler observes the simulation without moving it.
    /// Summary counters, trace bytes and application outcome must be
    /// byte-identical with the profiler on and off.
    #[test]
    fn profiling_does_not_perturb_the_run(w in arb_workload()) {
        let off = run(&w, false);
        let on = run(&w, true);
        prop_assert!(off.0.is_empty(), "unprofiled run leaked a profile");
        prop_assert!(!on.0.is_empty(), "profiled run produced no frames");
        prop_assert_eq!(&on.1, &off.1, "summary perturbed by profiling");
        prop_assert_eq!(on.2, off.2, "trace perturbed by profiling");
        prop_assert_eq!(on.3, off.3, "echo count perturbed by profiling");
    }
}
