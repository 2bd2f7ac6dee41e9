//! E18 — Sharded scheduler determinism: one workload over 8 domains,
//! run twice, byte-identical between the two runs.
//!
//! The sharded scheduler partitions nodes into domains, each with its
//! own clock and event heap, and advances them in barrier rounds under
//! conservative lookahead; a deterministic `(time, src_domain, seq)`
//! merge decides every cross-domain ordering question. The thread
//! driving the simulation runs the domains one after another, and the
//! order it picks shows nowhere. This experiment puts the claim on the
//! record: the same seed run twice must produce byte-identical summary
//! counters, causal-trace JSONL and `RunReport` JSON. Not hash-equal:
//! byte-equal, checked here and re-checked by `ci.sh` against the
//! parent commit's exported trace.
//!
//! The table also prints events/s per run, host-dependent and reported,
//! not judged.
//!
//! The workload is E16-shaped — the poll-driven KV fleet of
//! [`crate::fleet`] — but spread over 8 scheduler domains so every
//! request/reply crosses a domain boundary through the outbox merge.
//! The first run's causal trace is exported (as `e18-t1`) for
//! `tracectl check` + `cmp`.
//!
//! `PROXIDE_SMOKE=1` shrinks the fleet to 1k clients.

use simnet::{NetworkConfig, NodeId, Simulation};

use crate::fleet::{self, Shape};
use crate::{
    capture_trace, check, obs_report, pick, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

/// Scheduler domains. Part of the workload — it shapes event order.
pub(super) const DOMAINS: usize = 8;

pub(super) const FULL: Shape = Shape {
    clients: 20_000,
    calls_per_client: 4,
    shards: 8,
    nodes: 32,
};

pub(super) const SMOKE: Shape = Shape {
    clients: 1_000,
    calls_per_client: 4,
    shards: 4,
    nodes: 16,
};

/// One run of the workload: the measured numbers plus every byte an
/// outside observer can compare between runs.
struct Leg {
    run: fleet::Run,
    /// Determinism fingerprint material: summary counters, the causal
    /// trace JSONL, and the `RunReport` JSON (in `obs`).
    summary: String,
    trace_jsonl: String,
    trace: TraceArtifact,
    obs: ObsReport,
}

fn run_leg(cfg: Shape, seed: u64) -> Leg {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed).with_domains(DOMAINS);
    sim.enable_trace(1 << 16);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    let run = fleet::spawn(&sim, cfg, ns, 1).run(&mut sim);

    let trace = capture_trace("t1", &sim);
    Leg {
        summary: run.summary(),
        run,
        trace_jsonl: obs::to_jsonl(&trace.trace),
        trace,
        obs: obs_report("e18-t1", &sim),
    }
}

/// Runs E18 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (cfg, mode) = pick(FULL, SMOKE);

    let first = run_leg(cfg, 1800);
    let again = run_leg(cfg, 1800);

    // Byte-identity between the two runs, on all three surfaces an
    // observer has.
    let mut divergences = Vec::new();
    if again.summary != first.summary {
        divergences.push("summary counters");
    }
    if again.trace_jsonl != first.trace_jsonl {
        divergences.push("causal trace");
    }
    if again.obs.report.to_json() != first.obs.report.to_json() {
        divergences.push("RunReport JSON");
    }
    let deterministic = divergences.is_empty();
    let legs = [&first, &again];
    let total_inversions: u64 = legs
        .iter()
        .map(|l| l.run.report.metrics.sched_time_inversions)
        .sum();

    let mut table = Table::new(
        format!(
            "run twice ({mode}) — {} clients x {} calls, {} domains on {} nodes",
            cfg.clients, cfg.calls_per_client, DOMAINS, cfg.nodes
        ),
        &[
            "run",
            "wall ms (host)",
            "sim ms",
            "ok",
            "events",
            "events/s (host)",
        ],
    );
    for (i, l) in legs.iter().enumerate() {
        table.add_row(vec![
            (i + 1).to_string(),
            format!("{:.2}", l.run.wall.as_secs_f64() * 1e3),
            format!("{:.2}", l.run.sim_ms()),
            l.run.ok.to_string(),
            l.run.events().to_string(),
            format!("{:.0}", l.run.events_per_sec()),
        ]);
    }

    let total = cfg.total_calls();
    let checks = vec![
        check(
            "the second run is byte-identical to the first",
            deterministic,
            if deterministic {
                "summary + causal trace + RunReport JSON identical".to_string()
            } else {
                format!("diverged: {}", divergences.join(", "))
            },
        ),
        check(
            "no run counted a scheduler time inversion",
            total_inversions == 0,
            format!("{total_inversions} inversions across {} runs", legs.len()),
        ),
        check(
            "every client ran to completion in every run",
            legs.iter().all(|l| l.run.completed == cfg.clients as u64),
            format!(
                "completed per run: {:?} (want {} each)",
                legs.iter().map(|l| l.run.completed).collect::<Vec<_>>(),
                cfg.clients
            ),
        ),
        check(
            "every call succeeded on the clean network",
            legs.iter().all(|l| l.run.ok == total),
            format!(
                "ok per run: {:?} (want {total} each)",
                legs.iter().map(|l| l.run.ok).collect::<Vec<_>>()
            ),
        ),
    ];

    ExperimentOutput {
        id: "E18",
        title: "Sharded scheduler determinism (per-domain event queues, deterministic merge)",
        tables: vec![table],
        checks,
        reports: vec![first.obs],
        traces: vec![first.trace],
    }
}
