//! E16 — Million-process scale: `async` clients against sharded KV
//! services.
//!
//! A blocking process (a `sim.spawn` body: a coroutine on x86-64
//! Linux, a thread elsewhere) keeps a stack of its own and pins every
//! page of it that it has touched for as long as it is parked, which a
//! million parked clients cannot afford. This experiment exercises the
//! stackless kind: the `async` fleet of [`crate::fleet`], where a parked
//! client costs one registry entry holding its future and what that
//! future's channels, tickets, mailbox and spans hold on the heap — no
//! stack, no thread (see [`fleet::STATE_BYTES`]).
//!
//! The workload: `clients` `async` clients spread over `nodes`
//! simulated nodes, each binding to one of `shards` stub-grade KV
//! services through the name server, then running `calls_per_client`
//! alternating put/get calls. All clients are alive *simultaneously* —
//! the process-table high-water mark (`processes_peak`) must cover
//! every one of them, which is the point: the same shape with threads
//! would need ~8 GiB of stacks at the full 100k-client scale, while
//! here the whole fleet's futures take `clients × fleet::STATE_BYTES`
//! bytes (the "rss proxy" column). That is the inline part only: the
//! heap a parked client holds comes on top, 3 690 B per client at the
//! budgets fleet's high-water mark (`tests/alloc_attribution.rs`), and
//! `benchmark/`'s `fleet_stub` reports the whole as
//! `simnet.rss_kb_per_client`.
//!
//! Wall-clock columns are host-dependent; `benchmark/`'s `fleet_stub`
//! workload is where this shape's speed is measured.
//!
//! `PROXIDE_SMOKE=1` shrinks the fleet to ~2k clients.

use simnet::{NetworkConfig, NodeId, Simulation};

use crate::fleet::{self, Shape, STATE_BYTES};
use crate::{check, obs_report, per_sec, pick, ExperimentOutput, ObsReport, Table};

const FULL: Shape = Shape {
    clients: 100_000,
    calls_per_client: 4,
    shards: 8,
    nodes: 32,
};

const SMOKE: Shape = Shape {
    clients: 2_000,
    calls_per_client: 4,
    shards: 4,
    nodes: 8,
};

fn run_once(cfg: Shape, seed: u64) -> (fleet::Run, ObsReport) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = naming::spawn_name_server(&sim, NodeId(0));
    let rep = fleet::spawn(&sim, cfg, ns, 1).run(&mut sim);
    (rep, obs_report("e16", &sim))
}

/// Runs E16 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (cfg, mode) = pick(FULL, SMOKE);
    let (rep, obs) = run_once(cfg, 1600);
    let metrics = &rep.report.metrics;
    let procs_peak = metrics.processes_peak;
    let rss_proxy = procs_peak * STATE_BYTES as u64;

    let mut table = Table::new(
        format!(
            "poll-driven fleet ({mode}) — {} clients x {} calls over {} shards on {} nodes",
            cfg.clients, cfg.calls_per_client, cfg.shards, cfg.nodes
        ),
        &[
            "clients",
            "wall ms (host)",
            "sim ms",
            "ok",
            "events",
            "events/s (host)",
            "peak procs",
            "state B",
            "rss proxy MB",
        ],
    );
    table.add_row(vec![
        cfg.clients.to_string(),
        format!("{:.2}", rep.wall.as_secs_f64() * 1e3),
        format!("{:.2}", rep.sim_ms()),
        rep.ok.to_string(),
        rep.events().to_string(),
        format!("{:.0}", rep.events_per_sec()),
        procs_peak.to_string(),
        STATE_BYTES.to_string(),
        format!("{:.2}", rss_proxy as f64 / 1e6),
    ]);

    let total = cfg.total_calls();
    // Thread stacks default to 8 MiB of address space on Linux; even the
    // committed-page floor is ~8-16 KiB each. The whole point of the
    // poll runtime is that a parked client costs 2-3 orders of magnitude
    // less than that.
    let bytes_per_client = rss_proxy as f64 / cfg.clients as f64;
    let checks = vec![
        check(
            "every client ran to completion",
            rep.completed == cfg.clients as u64,
            format!("{} of {} clients completed", rep.completed, cfg.clients),
        ),
        check(
            "every call succeeded on the clean network",
            rep.ok == total,
            format!("{} of {total} calls ok", rep.ok),
        ),
        check(
            "the whole fleet was concurrently parked",
            procs_peak >= cfg.clients as u64,
            format!(
                "processes_peak {procs_peak} >= {} clients (plus {} services + ns)",
                cfg.clients, cfg.shards
            ),
        ),
        check(
            "process table stays bounded: well under a thread stack per client",
            bytes_per_client < 4096.0,
            format!(
                "{bytes_per_client:.0} B/client ({procs_peak} peak procs x {STATE_BYTES} B state = {:.2} MB total)",
                rss_proxy as f64 / 1e6
            ),
        ),
        check(
            "host sustains a sane event rate",
            rep.events_per_sec() > 1_000.0 && rep.events_per_sec().is_finite(),
            format!(
                "{:.0} events/s, {:.0} msgs/s, {:.2} MB/s over {:.2}s wall",
                rep.events_per_sec(),
                per_sec(metrics.msgs_sent, rep.wall),
                per_sec(metrics.bytes_sent, rep.wall) / 1e6,
                rep.wall.as_secs_f64()
            ),
        ),
    ];

    ExperimentOutput {
        id: "E16",
        title: "Million-process scale (poll-driven clients, non-blocking session API)",
        tables: vec![table],
        checks,
        reports: vec![obs],
        traces: Vec::new(),
    }
}
