//! E18 — Multi-core scheduler determinism: one workload, swept over
//! worker threads, byte-identical between every pair of legs.
//!
//! The sharded scheduler partitions nodes into domains, each with its
//! own clock and event heap, and advances them in parallel under
//! conservative lookahead; a deterministic `(time, src_domain, seq)`
//! merge decides every cross-domain ordering question before any
//! thread gets to race. This experiment puts the claim on the record:
//! the same seed at 1, 2 and 4 worker threads must produce
//! byte-identical summary counters, causal-trace JSONL and `RunReport`
//! JSON. Not hash-equal: byte-equal, checked here and re-checked by
//! `ci.sh` with `cmp` on the exported trace artifacts.
//!
//! The table also prints events/s per leg and the speedup over the
//! 1-thread leg. Both are host-dependent and reported, not judged:
//! whether threads pay at all is measured by `benchmark/`'s
//! `fleet_sharded` workload (`simnet.t2_over_t1`) and decided by the
//! ROADMAP's Parallelism item.
//!
//! The workload is E16-shaped — the poll-driven KV fleet of
//! [`crate::fleet`] — but spread over 8 scheduler domains so every
//! request/reply crosses a domain boundary through the outbox merge.
//! The 1-thread and 4-thread causal traces are exported for
//! `tracectl check` + `cmp`.
//!
//! `PROXIDE_SMOKE=1` shrinks the fleet to 1k clients.

use simnet::{NetworkConfig, NodeId, Simulation};

use crate::fleet::{self, Shape};
use crate::{
    capture_trace, check, obs_report, pick, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

/// The thread counts every leg of the sweep runs at.
const THREADS: [usize; 3] = [1, 2, 4];

/// Scheduler domains. Part of the workload — it shapes event order —
/// while the thread count is swept and must not shape anything but
/// wall-clock time.
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

/// One leg of the thread sweep: the measured numbers plus every byte
/// an outside observer can compare between legs.
struct Leg {
    threads: usize,
    run: fleet::Run,
    /// Determinism fingerprint material: summary counters, the causal
    /// trace JSONL, and the `RunReport` JSON (in `obs`).
    summary: String,
    trace_jsonl: String,
    trace: TraceArtifact,
    obs: ObsReport,
}

impl Leg {
    fn identical_to(&self, base: &Leg) -> bool {
        self.summary == base.summary
            && self.trace_jsonl == base.trace_jsonl
            && self.obs.report.to_json() == base.obs.report.to_json()
    }
}

fn run_leg(cfg: Shape, seed: u64, threads: usize) -> Leg {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed)
        .with_domains(DOMAINS)
        .with_threads(threads);
    sim.enable_trace(1 << 16);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    let run = fleet::spawn(&sim, cfg, ns, 1).run(&mut sim);

    let trace = capture_trace(format!("t{threads}"), &sim);
    Leg {
        threads,
        summary: run.summary(),
        run,
        trace_jsonl: obs::to_jsonl(&trace.trace),
        trace,
        obs: obs_report(format!("e18-t{threads}"), &sim),
    }
}

/// Runs E18 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (cfg, mode) = pick(FULL, SMOKE);

    let legs: Vec<Leg> = THREADS.iter().map(|&t| run_leg(cfg, 1800, t)).collect();
    let base = &legs[0];

    // Byte-identity between every leg and the 1-thread baseline, on all
    // three surfaces an observer has.
    let mut divergences = Vec::new();
    for l in &legs[1..] {
        if l.summary != base.summary {
            divergences.push(format!("t{}: summary counters", l.threads));
        }
        if l.trace_jsonl != base.trace_jsonl {
            divergences.push(format!("t{}: causal trace", l.threads));
        }
        if l.obs.report.to_json() != base.obs.report.to_json() {
            divergences.push(format!("t{}: RunReport JSON", l.threads));
        }
    }
    let deterministic = divergences.is_empty();
    let total_inversions: u64 = legs
        .iter()
        .map(|l| l.run.report.metrics.sched_time_inversions)
        .sum();

    let mut table = Table::new(
        format!(
            "thread sweep ({mode}) — {} clients x {} calls, {} domains on {} nodes",
            cfg.clients, cfg.calls_per_client, DOMAINS, cfg.nodes
        ),
        &[
            "threads",
            "wall ms (host)",
            "sim ms",
            "ok",
            "events",
            "events/s (host)",
            "speedup (host)",
            "identical",
        ],
    );
    for l in &legs {
        table.add_row(vec![
            l.threads.to_string(),
            format!("{:.2}", l.run.wall.as_secs_f64() * 1e3),
            format!("{:.2}", l.run.sim_ms()),
            l.run.ok.to_string(),
            l.run.events().to_string(),
            format!("{:.0}", l.run.events_per_sec()),
            format!("{:.2}x", l.run.events_per_sec() / base.run.events_per_sec()),
            if l.identical_to(base) { "yes" } else { "NO" }.into(),
        ]);
    }

    let total = cfg.total_calls();
    let checks = vec![
        check(
            "every leg is byte-identical to the 1-thread run",
            deterministic,
            if deterministic {
                format!(
                    "summary + causal trace + RunReport JSON identical across threads {THREADS:?}"
                )
            } else {
                format!("diverged: {}", divergences.join(", "))
            },
        ),
        check(
            "no leg counted a scheduler time inversion",
            total_inversions == 0,
            format!("{total_inversions} inversions across {} legs", legs.len()),
        ),
        check(
            "every client ran to completion in every leg",
            legs.iter().all(|l| l.run.completed == cfg.clients as u64),
            format!(
                "completed per leg: {:?} (want {} each)",
                legs.iter().map(|l| l.run.completed).collect::<Vec<_>>(),
                cfg.clients
            ),
        ),
        check(
            "every call succeeded on the clean network",
            legs.iter().all(|l| l.run.ok == total),
            format!(
                "ok per leg: {:?} (want {total} each)",
                legs.iter().map(|l| l.run.ok).collect::<Vec<_>>()
            ),
        ),
    ];

    let mut traces = Vec::new();
    let mut reports = Vec::new();
    for l in legs {
        if l.threads == 1 || l.threads == 4 {
            traces.push(l.trace);
            reports.push(l.obs);
        }
    }

    ExperimentOutput {
        id: "E18",
        title: "Multi-core scheduler determinism (per-domain event queues, deterministic merge)",
        tables: vec![table],
        checks,
        reports,
        traces,
    }
}
