//! E17 — The million-span observability plane: full instrumentation
//! left on at 1M-client scale, measured against itself.
//!
//! E16 proved a million poll-driven clients fit in the process table;
//! this experiment proves the *instrumentation* survives the same
//! scale. The workload is E16's sharded-KV fleet ([`crate::fleet`])
//! pushed to 1M clients, run twice with the same seed:
//!
//! * **obs-on** — the sharded registry with span retirement armed
//!   (closed spans fold into per-`(service, op)` aggregates and leave
//!   the table, every nth kept as a sampled exemplar) and
//!   self-measurement recording the nanoseconds spent inside obs calls.
//! * **obs-off** — the registry master switch off: `open_span` returns
//!   `SpanId::NONE`, every recording call is a no-op. The floor.
//!
//! The delta between the legs *is* the cost of observability. Both legs
//! run in one process on one host, so their wall-clock *ratio* is judged
//! (< 2x); the magnitudes are host-dependent and only printed.
//!
//! Name lookups go through a replicated name-server cluster
//! ([`naming::spawn_name_cluster`]): the striped shared directory keeps
//! 1M concurrent `bind_async` NotFound-backoff polls from serializing
//! on one server process.
//!
//! `PROXIDE_SMOKE=1` shrinks the fleet to 20k clients.

use simnet::{NetworkConfig, NodeId, Simulation};

use crate::fleet::{self, Shape};
use crate::{check, obs_report, pick, ExperimentOutput, ObsReport, Table};

/// Keep every nth retired span resident as a sampled exemplar.
const KEEP_EVERY: u64 = 10_000;

/// One workload configuration.
#[derive(Debug, Clone, Copy)]
struct Config {
    fleet: Shape,
    ns_replicas: u32,
}

const FULL: Config = Config {
    fleet: Shape {
        clients: 1_000_000,
        calls_per_client: 2,
        shards: 16,
        nodes: 64,
    },
    ns_replicas: 4,
};

const SMOKE: Config = Config {
    fleet: Shape {
        clients: 20_000,
        calls_per_client: 2,
        shards: 8,
        nodes: 16,
    },
    ns_replicas: 2,
};

/// One measured leg (obs-on or obs-off).
struct Leg {
    run: fleet::Run,
    /// The obs plane's own gauges at run end.
    plane: obs::ObsPlaneReport,
    /// Spans allocated over the run (`started + oneways`), for the
    /// retirement conservation check. 0 on the obs-off leg.
    spans_allocated: u64,
    /// Invoke/dispatch spans still open at run end. 0 on the obs-off
    /// leg.
    spans_open: u64,
    /// Writer lanes of the registry (one per scheduler domain).
    lanes: u64,
}

fn run_once(cfg: Config, seed: u64, obs_on: bool) -> (Leg, Option<ObsReport>) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    if obs_on {
        sim.obs().enable_retirement(KEEP_EVERY);
        sim.obs().enable_self_measure();
    } else {
        sim.obs().set_enabled(false);
    }
    let ns_nodes: Vec<NodeId> = (0..cfg.ns_replicas).map(NodeId).collect();
    let cluster = naming::spawn_name_cluster(&sim, &ns_nodes);
    let run = fleet::spawn(&sim, cfg.fleet, &cluster, cfg.ns_replicas).run(&mut sim);
    let run_report = sim.obs_report();
    let leg = Leg {
        run,
        plane: run_report.obs,
        spans_allocated: run_report.spans.started + run_report.spans.oneways,
        spans_open: run_report.spans.open,
        lanes: sim.domains() as u64,
    };
    let obs = obs_on.then(|| obs_report("e17 (obs-on)", &sim));
    (leg, obs)
}

/// Runs E17 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (cfg, mode) = pick(FULL, SMOKE);
    let shape = cfg.fleet;
    // Same seed both legs: the simulation is deterministic, so the two
    // runs do identical work — the wall-clock delta is pure obs cost.
    let (off, _) = run_once(cfg, 1700, false);
    let (on, obs) = run_once(cfg, 1700, true);

    let mut table = Table::new(
        format!(
            "obs plane at scale ({mode}) — {} clients x {} calls, {} KV shards, {} ns replicas",
            shape.clients, shape.calls_per_client, shape.shards, cfg.ns_replicas
        ),
        &[
            "leg",
            "wall ms (host)",
            "ok",
            "events/s (host)",
            "spans alloc",
            "retired",
            "resident peak",
            "table peak MB",
            "obs self ms",
        ],
    );
    for (label, rep) in [("obs-on", &on), ("obs-off", &off)] {
        table.add_row(vec![
            label.to_string(),
            format!("{:.2}", rep.run.wall.as_secs_f64() * 1e3),
            rep.run.ok.to_string(),
            format!("{:.0}", rep.run.events_per_sec()),
            rep.spans_allocated.to_string(),
            rep.plane.spans_retired.to_string(),
            rep.plane.spans_resident_peak.to_string(),
            format!("{:.2}", rep.plane.span_table_bytes_peak as f64 / 1e6),
            format!("{:.2}", rep.plane.self_ns as f64 / 1e6),
        ]);
    }

    let total = shape.total_calls();
    let (on_m, off_m) = (&on.run.report.metrics, &off.run.report.metrics);
    let overhead_pct = (on.run.wall.as_secs_f64() / off.run.wall.as_secs_f64() - 1.0) * 100.0;
    let retired_frac = on.plane.spans_retired as f64 / on.spans_allocated.max(1) as f64;
    // Spans retire in about the order they opened, so each lane holds
    // its resident spans plus two partial pages (see
    // `obs::SPAN_PAGE_BYTES`).
    let table_bound =
        on.plane.spans_resident_peak * obs::SPAN_SLOT_BYTES + 2 * on.lanes * obs::SPAN_PAGE_BYTES;
    let checks = vec![
        check(
            "every client completed on both legs",
            on.run.completed == shape.clients as u64 && off.run.completed == shape.clients as u64,
            format!(
                "obs-on {} / obs-off {} of {} clients",
                on.run.completed, off.run.completed, shape.clients
            ),
        ),
        check(
            "every call succeeded on both legs",
            on.run.ok == total && off.run.ok == total,
            format!(
                "obs-on {} / obs-off {} of {total} calls ok",
                on.run.ok, off.run.ok
            ),
        ),
        check(
            "obs-off leg allocated no spans at all",
            off.spans_allocated == 0 && off.plane.span_table_bytes_peak == 0,
            format!(
                "{} spans, {} table bytes on the off leg",
                off.spans_allocated, off.plane.span_table_bytes_peak
            ),
        ),
        // Bytes and hence exact simulated timing are allowed to differ:
        // span ids travel in the wire header, the off leg's id 0
        // varint-encodes shorter, and transmission delay follows size.
        check(
            "the two legs did identical simulated work",
            on_m.msgs_sent == off_m.msgs_sent && on_m.bytes_sent >= off_m.bytes_sent,
            format!(
                "msgs {} vs {} (bytes {} vs {}: span ids on the wire)",
                on_m.msgs_sent, off_m.msgs_sent, on_m.bytes_sent, off_m.bytes_sent
            ),
        ),
        check(
            "retirement conserves spans: retired + resident == allocated",
            on.plane.spans_retired + on.plane.spans_resident == on.spans_allocated,
            format!(
                "{} retired + {} resident == {} allocated",
                on.plane.spans_retired, on.plane.spans_resident, on.spans_allocated
            ),
        ),
        check(
            "span table ends O(open + sampled), not O(total calls)",
            retired_frac > 0.99
                && on.plane.spans_resident == on.spans_open + on.plane.spans_sampled,
            format!(
                "{:.2}% retired; {} resident at end = {} open + {} sampled (of {} allocated)",
                retired_frac * 100.0,
                on.plane.spans_resident,
                on.spans_open,
                on.plane.spans_sampled,
                on.spans_allocated
            ),
        ),
        check(
            "the slab returns memory: table peak within resident peak plus two pages per lane",
            on.plane.span_table_bytes_peak <= table_bound,
            format!(
                "{} B peak <= {} resident x {} B + 2 x {} lane(s) x {} B = {table_bound} B",
                on.plane.span_table_bytes_peak,
                on.plane.spans_resident_peak,
                obs::SPAN_SLOT_BYTES,
                on.lanes,
                obs::SPAN_PAGE_BYTES
            ),
        ),
        check(
            "self-measurement recorded the plane's own cost",
            on.plane.self_calls > 0 && on.plane.self_ns > 0,
            format!(
                "{} obs calls, {:.2} ms inside the plane ({:.0} ns/call)",
                on.plane.self_calls,
                on.plane.self_ns as f64 / 1e6,
                on.plane.self_ns as f64 / on.plane.self_calls.max(1) as f64
            ),
        ),
        check(
            "full observability costs less than 2x the dark run",
            overhead_pct.is_finite() && overhead_pct < 100.0,
            format!(
                "obs-on {:.2}s vs obs-off {:.2}s wall ({overhead_pct:+.1}%)",
                on.run.wall.as_secs_f64(),
                off.run.wall.as_secs_f64()
            ),
        ),
    ];

    ExperimentOutput {
        id: "E17",
        title: "Million-span observability plane (sharded registry, retirement, self-measured overhead)",
        tables: vec![table],
        checks,
        reports: obs.into_iter().collect(),
        traces: Vec::new(),
    }
}
