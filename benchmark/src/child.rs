//! One measurement in one process.
//!
//! The runner starts a fresh child for every round so that each begins
//! with a cold allocator and its own peak-memory counter. The child pins
//! itself to one CPU, runs one workload once, derives every metric it can
//! from what it saw, and prints them as one line of JSON:
//!
//! * `host` — read from the host's clock or counters; the runner takes
//!   the median over rounds;
//! * `exact` — simulated results and exact counts; the runner requires
//!   them to be identical in every round of a seed;
//! * `timed` — from the benchmark's spans and the program's profiler
//!   (traced rounds only).

use std::collections::BTreeMap;
use std::time::Instant;

use crate::jsonw::{array, num, num_map, object, quote};
use crate::trace::{NameStat, Span};
use crate::workloads::{self, Outcome};
use crate::{host, probes, stats, sut, trace};

#[derive(Debug, Clone)]
pub struct ChildArgs {
    pub workload: String,
    pub seed: u64,
    pub smoke: bool,
    pub traced: bool,
    /// Scheduler threads (`fleet_sharded` only); more than one leaves the
    /// process unpinned.
    pub threads: usize,
    pub mode: Mode,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Run the workload.
    Round,
    /// Build an empty simulation and report peak memory: the baseline
    /// that `simnet.rss_kb_per_client` subtracts.
    Empty,
    /// Run the probes.
    Probes,
}

impl Mode {
    const ALL: [(Mode, &'static str); 3] = [
        (Mode::Round, "round"),
        (Mode::Empty, "empty"),
        (Mode::Probes, "probes"),
    ];

    /// The word the runner passes on the child's command line.
    pub fn label(self) -> &'static str {
        Mode::ALL.iter().find(|m| m.0 == self).map_or("", |m| m.1)
    }

    pub fn parse(word: &str) -> Option<Mode> {
        Mode::ALL.iter().find(|m| m.1 == word).map(|m| m.0)
    }
}

/// How many raw spans a traced round prints beside the per-name totals.
const SPAN_SAMPLE: usize = 400;

/// Metric name → value; a value that cannot be computed is left out.
#[derive(Default)]
struct Values(BTreeMap<String, f64>);

impl Values {
    fn put(&mut self, name: &str, v: Option<f64>) {
        if let Some(v) = v {
            self.0.insert(name.to_owned(), v);
        }
    }

    fn set(&mut self, name: &str, v: f64) {
        self.0.insert(name.to_owned(), v);
    }
}

fn ratio(a: u64, b: u64) -> Option<f64> {
    (b != 0).then(|| a as f64 / b as f64)
}

pub fn run(args: &ChildArgs, started: Instant) -> i32 {
    let pinned = if args.threads > 1 {
        None
    } else {
        host::pin_to_one_cpu()
    };
    let line = match args.mode {
        Mode::Empty => {
            let mut sim = sut::new_sim(sut::lan(0.0), args.seed, 1, 1);
            sut::run(&mut sim);
            let mut h = Values::default();
            h.put("peak_rss_kb", host::peak_rss_kb().map(|kb| kb as f64));
            object([("host", num_map(&h.0))])
        }
        Mode::Probes => {
            let timed = probes::run_all(&args.workload, args.seed);
            object([("timed", num_map(&timed))])
        }
        Mode::Round => {
            if args.traced {
                trace::enable();
            }
            let Some(outcome) =
                workloads::run(&args.workload, args.smoke, args.seed, args.threads, started)
            else {
                eprintln!("proxbench: unknown workload `{}`", args.workload);
                return 2;
            };
            round_line(args, pinned.is_some(), &outcome)
        }
    };
    println!("{line}");
    0
}

fn round_line(args: &ChildArgs, pinned: bool, o: &Outcome) -> String {
    let mut errors = o.tally.errors.clone();
    if o.tally.errors_dropped > 0 {
        errors.push(format!("... and {} more", o.tally.errors_dropped));
    }
    let mut exact = Values::default();
    latency_metrics(o, &mut exact, &mut errors);
    exact_counts(o, &mut exact);
    let (timed, trace_members) = if args.traced {
        let threads = trace::collect();
        let folded = trace::fold(&threads);
        (
            timed_metrics(o, &threads, &folded),
            trace_members(o, &threads, &folded),
        )
    } else {
        (Values::default(), Vec::new())
    };
    let mut line = vec![
        ("workload", quote(&args.workload)),
        ("seed", num(args.seed as f64)),
        ("traced", args.traced.to_string()),
        ("threads", num(args.threads as f64)),
        ("sizes", quote(&o.sizes)),
        ("clients", num(o.clients as f64)),
        ("attempted", num(o.tally.attempted as f64)),
        ("ok", num(o.tally.ok as f64)),
        ("failed", num(o.tally.failed as f64)),
        ("errors", array(errors.iter().map(|e| quote(e)))),
        ("host", num_map(&host_metrics(o, pinned).0)),
        ("exact", num_map(&exact.0)),
        ("timed", num_map(&timed.0)),
    ];
    line.extend(trace_members);
    object(line)
}

/// What the host's clock and counters say about this round.
fn host_metrics(o: &Outcome, pinned: bool) -> Values {
    let mut h = Values::default();
    let run_s = o.timed.run_wall.as_secs_f64();
    h.set("setup_s", o.timed.setup.as_secs_f64());
    h.set("run_s", run_s);
    h.set("calls_per_s", o.tally.ok as f64 / run_s);
    if let Some(kb) = host::peak_rss_kb() {
        h.set("peak_rss_kb", kb as f64);
        h.set("peak_rss_mb", kb as f64 / 1024.0);
    }
    h.put(
        "simnet.ctx_switches_per_event",
        host::voluntary_ctx_switches()
            .and_then(|cs| ratio(cs, o.timed.sim.metrics.events_dispatched)),
    );
    h.set("bench.pinned", f64::from(u8::from(pinned)));
    h
}

/// Simulated latency of the invocations that returned `Ok`.
fn latency_metrics(o: &Outcome, exact: &mut Values, errors: &mut Vec<String>) {
    let mut lat = o.tally.latencies_ns.clone();
    lat.sort_unstable();
    if lat.is_empty() {
        errors.push("no invocation returned Ok".to_owned());
        return;
    }
    let total: u128 = lat.iter().map(|&v| u128::from(v)).sum();
    exact.set("sim_call_mean_us", total as f64 / lat.len() as f64 / 1e3);
    exact.set(
        "sim_call_p99_us",
        stats::percentile(&lat, 0.99) as f64 / 1e3,
    );
    exact.set(
        "bench.sim_call_p50_us",
        stats::percentile(&lat, 0.5) as f64 / 1e3,
    );
    exact.set("bench.sim_call_samples", lat.len() as f64);
    // p99 may be quoted only with at least ten samples beyond it.
    if stats::highest_supported_tail(lat.len()).is_none_or(|p| p < 0.99) {
        errors.push(format!(
            "{} latency samples leave fewer than ten beyond p99",
            lat.len()
        ));
    }
}

/// Exact counts from the program's public reports, layer by layer.
fn exact_counts(o: &Outcome, exact: &mut Values) {
    let ok = o.tally.ok;
    let net = &o.timed.sim.metrics;
    let rep = &o.timed.obs;
    let rpc = &rep.rpc;
    exact.put("msgs_per_call", ratio(net.msgs_sent, ok));
    exact.put("wire_bytes_per_call", ratio(net.bytes_sent, ok));
    exact.put(
        "bench.failed_share",
        ratio(o.tally.failed, o.tally.attempted),
    );

    exact.put("simnet.events_per_call", ratio(net.events_dispatched, ok));
    exact.set("simnet.procs_peak", net.processes_peak as f64);
    exact.set("simnet.time_inversions", net.sched_time_inversions as f64);

    exact.put("wire.bytes_per_msg", ratio(net.bytes_sent, net.msgs_sent));
    exact.set("wire.undecodable", rpc.server.undecodable as f64);

    exact.put(
        "rpc.retransmits_per_kcall",
        ratio(rpc.client.retries * 1000, rpc.client.calls),
    );
    exact.set(
        "rpc.dups_suppressed",
        (rpc.server.duplicates_suppressed + rpc.server.duplicates_dropped) as f64,
    );
    exact.set("rpc.stale_replies", rpc.client.stale_replies as f64);
    exact.set("rpc.timeouts", rpc.client.timeouts as f64);

    let lookups = rep.ops.get("name-server/lookup").map_or(0, |op| op.count);
    exact.put("naming.lookups_per_call", ratio(lookups, ok));

    let (writes, invalidations) = rep
        .servers
        .values()
        .fold((0, 0), |(w, i), s| (w + s.writes, i + s.invalidations_sent));
    exact.put("core.invalidations_per_write", ratio(invalidations, writes));
    // An edge cache publishes its upstream proxy as `<store>@edge-<name>`.
    let (edge, client): (Vec<_>, Vec<_>) = rep
        .proxies
        .iter()
        .partition(|(owner, _)| owner.contains("@edge-"));
    if !client.is_empty() {
        let sum = |f: fn(&obs::ProxyStats) -> u64| client.iter().map(|(_, p)| f(p)).sum::<u64>();
        exact.set("core.bulk_spills", sum(|p| p.bulk_spills) as f64);
        exact.set("core.bulk_resolves", sum(|p| p.bulk_resolves) as f64);
    }
    let edge_hits: u64 = edge.iter().map(|(_, p)| p.local_hits).sum();
    let edge_lookups: u64 = edge
        .iter()
        .map(|(_, p)| p.local_hits + p.remote_calls)
        .sum();
    exact.put("services.edge_hit_ratio", ratio(edge_hits, edge_lookups));
    if edge_lookups > 0 {
        exact.put("services.chunks_per_get", ratio(edge_lookups, ok));
    }

    exact.put("obs.spans_per_call", ratio(rep.spans.started, ok));
    exact.set(
        "obs.span_table_mb_peak",
        rep.obs.span_table_bytes_peak as f64 / 1e6,
    );
    let discarded: u64 = rep.proxies.values().map(|p| p.datagrams_discarded).sum();
    let losses = rep.trace_evicted
        + rep.profile.as_ref().map_or(0, |p| p.frames_evicted)
        + discarded
        + rep.spans.replies.late
        + rep.spans.replies.unknown_span;
    exact.set("obs.losses", losses as f64);

    for (name, v) in &o.counts {
        exact.set(name, *v);
    }
}

/// What the benchmark's spans and the program's profiler timed.
fn timed_metrics(
    o: &Outcome,
    threads: &[Vec<Span>],
    folded: &BTreeMap<&'static str, NameStat>,
) -> Values {
    let mut t = Values::default();
    let run_ns = o.timed.run_wall.as_nanos() as f64;
    let stat = |name: &str| folded.get(name).copied().unwrap_or_default();
    let mean_self = |name: &str| ratio(stat(name).self_ns, stat(name).count);

    t.put(
        "simnet.ns_per_event",
        ratio(run_ns as u64, o.timed.sim.metrics.events_dispatched),
    );
    t.put(
        "simnet.spawn_us_per_proc",
        mean_self("simnet.spawn").map(|ns| ns / 1e3),
    );
    t.put("rpc.begin_call_ns", mean_self("rpc.begin_call"));
    t.put(
        "core.bind_ns",
        ratio(
            stat("core.bind_async").total_ns + stat("core.poll_bind").total_ns,
            stat("core.bind_async").count,
        ),
    );
    t.put("core.invoke_async_ns", mean_self("core.invoke_async"));
    t.put(
        "core.poll_call_ns",
        ratio(
            stat("core.poll_call").total_ns,
            stat("core.invoke_async").count,
        ),
    );
    t.put("core.hit_ns", mean_self("core.hit"));
    t.put("services.dispatch_ns", mean_self("services.dispatch"));

    // A layer's share of the run: self time of its non-blocking spans (the
    // only spans outside `Simulation::run` are `simnet.spawn` and blocking
    // binds, so no window is needed here).
    for layer in ["rpc", "core", "services"] {
        let ns: u64 = folded
            .iter()
            .filter(|(name, s)| !s.blocking && name.split('.').next() == Some(layer))
            .map(|(_, s)| s.self_ns)
            .sum();
        t.set(&format!("{layer}.span_share"), ns as f64 / run_ns);
    }
    let (from, to) = o.timed.run_window;
    let attributed = trace::attributed_ns(threads, from, to);
    t.set("bench.unattributed_share", 1.0 - attributed as f64 / run_ns);

    if let Some(p) = &o.timed.obs.profile {
        let wall = |frame: &str| p.frames.get(frame).map(|f| f.wall_ns as f64);
        if let Some(round) = wall("sched;round").filter(|&w| w > 0.0) {
            for phase in ["pick", "exec", "merge"] {
                t.put(
                    &format!("simnet.sched_{phase}_share"),
                    wall(&format!("sched;round;{phase}")).map(|w| w / round),
                );
            }
        }
        // Per-domain busy and stall frames carry a `@dN` suffix.
        let sum = |prefix: &str| -> f64 {
            p.frames
                .iter()
                .filter(|(k, _)| k.starts_with(prefix))
                .map(|(_, f)| f.wall_ns as f64)
                .sum()
        };
        let (busy, stall) = (sum("sched;round;exec;busy"), sum("sched;round;exec;stall"));
        if busy + stall > 0.0 {
            t.set("simnet.sched_stall_share", stall / (busy + stall));
        }
        t.set("obs.profiler_self_share", p.self_ns as f64 / run_ns);
    }
    t
}

/// The members of the trace file this round contributes: span totals by
/// name, the first spans of the busiest thread verbatim, and the program
/// profiler's frames.
fn trace_members(
    o: &Outcome,
    threads: &[Vec<Span>],
    folded: &BTreeMap<&'static str, NameStat>,
) -> Vec<(&'static str, String)> {
    let spans = object(folded.iter().map(|(name, s)| {
        (
            name,
            object([
                ("count", num(s.count as f64)),
                ("total_ns", num(s.total_ns as f64)),
                ("self_ns", num(s.self_ns as f64)),
                ("blocking", s.blocking.to_string()),
            ]),
        )
    }));
    let busiest = threads.iter().max_by_key(|t| t.len());
    let sample = array(busiest.into_iter().flatten().take(SPAN_SAMPLE).map(|s| {
        array([
            quote(s.name),
            num(s.start_ns as f64),
            num(s.end_ns as f64),
            num(f64::from(s.parent)),
            num(s.req as f64),
            s.blocking.to_string(),
        ])
    }));
    let frames = o.timed.obs.profile.as_ref().map_or("{}".to_owned(), |p| {
        object(p.frames.iter().map(|(path, f)| {
            (
                path,
                object([
                    ("calls", num(f.calls as f64)),
                    ("wall_ns", num(f.wall_ns as f64)),
                ]),
            )
        }))
    });
    vec![
        ("spans", spans),
        ("span_sample", sample),
        ("frames", frames),
    ]
}
