//! E13 — Pipelined and batched RPC: throughput vs depth, messages vs
//! batch size, and at-most-once under chaos.
//!
//! The synchronous stub pays one RTT per call. The [`rpc::Channel`]
//! encapsulates a different channel protocol behind the same call
//! interface — up to `pipeline_depth` calls in flight, replies matched
//! by id, and staged requests coalesced into shared datagrams — which is
//! exactly the paper's point that the proxy (and the channel object
//! beneath it) may pick its protocol freely as long as the interface
//! contract survives. We sweep the depth, sweep the batch size, and then
//! turn the network hostile to confirm the at-most-once guarantee
//! survives out-of-order completion and whole-batch duplication. A last
//! leg keeps a window open under light loss: a pipelined channel sees a
//! lost datagram overtaken by later ones, so it repairs the loss a round
//! trip after that evidence instead of waiting out the policy's floor.
//!
//! Expected shape: throughput scales near-linearly with depth until the
//! server saturates; batching divides messages/op by nearly the batch
//! size; over-executions stay at zero under 30% loss + 30% duplication;
//! at 2% loss the p99 call latency stays within a few round trips.
//! The honest negative: batching *raises* per-call latency — a call's
//! reply waits for its batch-mates — so it buys message economy, not
//! speed.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RetryPolicy, RpcError, RpcServer};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

const CALLS: u64 = 256;
/// Per-op service time: gives the pipeline a server-side bottleneck so
/// the depth sweep shows saturation, not just RTT-hiding.
const SERVICE_US: u64 = 50;

#[derive(Debug, Clone, Copy)]
struct Point {
    ok: u64,
    elapsed_us: f64,
    ops_per_sec: f64,
    mean_latency_us: f64,
    msgs: u64,
    msgs_per_op: f64,
    batches: u64,
}

fn spawn_service(sim: &Simulation, execs: &Arc<AtomicU64>) -> simnet::Endpoint {
    let e2 = Arc::clone(execs);
    sim.spawn_at("pipesvc", NodeId(0), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(
            ctx,
            |ctx, req| match req.op.as_str() {
                "work" => {
                    let _ = ctx.sleep(Duration::from_micros(SERVICE_US));
                    Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1))
                }
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    })
}

fn measure(
    depth: usize,
    max_batch: usize,
    calls: u64,
    seed: u64,
    trace: bool,
) -> (Point, Simulation) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    if trace {
        sim.enable_trace(1 << 16);
    }
    let execs = Arc::new(AtomicU64::new(0));
    let server = spawn_service(&sim, &execs);
    let (w, r) = slot::<(u64, f64, u64)>();
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(depth).batched(max_batch);
        let mut ch = Channel::new("pipesvc", server, cfg);
        let t0 = ctx.now();
        let handles: Vec<_> = (0..calls)
            .map(|_| ch.begin_call(ctx, "work", Value::Null))
            .collect();
        let mut ok = 0u64;
        for h in handles {
            if ch.wait(ctx, h).is_ok() {
                ok += 1;
            }
        }
        let elapsed = (ctx.now() - t0).as_secs_f64() * 1e6;
        *w.lock().unwrap() = Some((ok, elapsed, ch.stats.batches_sent));
    });
    let report = sim.run();
    let (ok, elapsed_us, batches) = take(r);
    // Per-call latency comes from the channel's own invoke spans
    // (begin→reply, including window queueing), via the obs registry.
    let mean_latency_us = sim
        .obs_report()
        .ops
        .get("pipesvc/work")
        .map(|l| l.mean_ns as f64 / 1000.0)
        .unwrap_or(0.0);
    (
        Point {
            ok,
            elapsed_us,
            ops_per_sec: ok as f64 / (elapsed_us / 1e6),
            mean_latency_us,
            msgs: report.metrics.msgs_sent,
            msgs_per_op: report.metrics.msgs_sent as f64 / calls as f64,
            batches,
        },
        sim,
    )
}

fn chaos_leg(seed: u64) -> (u64, u64, u64, u64) {
    let cfg = NetworkConfig::lan().with_loss(0.30).with_duplicate(0.30);
    let mut sim = Simulation::new(cfg, seed);
    let execs = Arc::new(AtomicU64::new(0));
    let server = spawn_service(&sim, &execs);
    let (w, r) = slot::<(u64, u64)>();
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(8)
            .batched(4)
            .with_policy(RetryPolicy::exponential(Duration::from_millis(4), 10));
        let mut ch = Channel::new("pipesvc", server, cfg);
        let handles: Vec<_> = (0..CALLS)
            .map(|_| ch.begin_call(ctx, "work", Value::Null))
            .collect();
        let mut ok = 0u64;
        for h in handles {
            match ch.wait(ctx, h) {
                Ok(_) => ok += 1,
                Err(RpcError::Timeout { .. }) => {}
                Err(_) => return,
            }
        }
        *w.lock().unwrap() = Some((ok, ch.stats.timeouts));
    });
    sim.run();
    let (ok, timeouts) = take(r);
    let e = execs.load(Ordering::SeqCst);
    (ok, timeouts, e, e.saturating_sub(ok + timeouts))
}

/// What a windowed client saw: calls that returned, median and p99
/// latency from `begin_call` to the in-order `wait` returning, calls
/// retransmitted, how long a retransmitted call spent waiting for its
/// timers on average (the `retransmit` component of its critical path;
/// a call whose *reply* batch was lost shows none, because a batch is on
/// no one call's timeline), datagrams per call.
#[derive(Debug, Clone, Copy)]
struct WindowPoint {
    ok: u64,
    p50_us: f64,
    p99_us: f64,
    retries: u64,
    retx_wait_us: f64,
    msgs_per_op: f64,
}

const WINDOW_CALLS: u64 = 4000;

/// One client keeping 16 calls open, 4 to a datagram, redeeming them in
/// order and issuing the next as each returns (the closed loop of the
/// repo benchmark's `pipeline_blob`), on a LAN that drops `loss` of its
/// datagrams.
fn window_leg(loss: f64, seed: u64) -> WindowPoint {
    let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.05).with_loss(loss), seed);
    sim.enable_trace(1 << 17);
    let execs = Arc::new(AtomicU64::new(0));
    let server = spawn_service(&sim, &execs);
    let (w, r) = slot::<(Vec<u64>, u64)>();
    sim.spawn("client", NodeId(1), move |ctx| {
        let cfg = ChannelConfig::with_depth(16)
            .batched(4)
            .with_policy(RetryPolicy::exponential(Duration::from_millis(10), 8));
        let mut ch = Channel::new("pipesvc", server, cfg);
        let mut open = std::collections::VecDeque::new();
        let mut latencies = Vec::new();
        let mut issued = 0;
        while issued < WINDOW_CALLS || !open.is_empty() {
            while issued < WINDOW_CALLS && open.len() < 16 {
                open.push_back((ch.begin_call(ctx, "work", Value::Null), ctx.now()));
                issued += 1;
            }
            while let Some(&(h, begun)) = open.front() {
                if ch.wait(ctx, h).is_ok() {
                    latencies.push((ctx.now() - begun).as_nanos() as u64);
                }
                open.pop_front();
                if !open.front().is_some_and(|&(next, _)| ch.is_settled(next)) {
                    break;
                }
            }
        }
        *w.lock().unwrap() = Some((latencies, ch.stats.retries));
    });
    let report = sim.run();
    let (mut latencies, retries) = take(r);
    latencies.sort_unstable();
    // Nearest rank.
    let rank = |q: f64| {
        let at = (q * latencies.len() as f64).ceil() as usize;
        latencies.get(at.saturating_sub(1)).copied().unwrap_or(0) as f64 / 1000.0
    };
    let waits: Vec<u64> = obs::critical_paths(&sim.causal_trace())
        .iter()
        .filter(|p| p.retransmissions > 0)
        .map(|p| p.retransmit_ns)
        .collect();
    WindowPoint {
        ok: latencies.len() as u64,
        p50_us: rank(0.50),
        p99_us: rank(0.99),
        retries,
        retx_wait_us: waits.iter().sum::<u64>() as f64 / waits.len().max(1) as f64 / 1000.0,
        msgs_per_op: report.metrics.msgs_sent as f64 / WINDOW_CALLS as f64,
    }
}

/// Runs E13 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    // ---- depth sweep (no batching) ----
    let depths = [1usize, 2, 4, 8, 16, 32];
    let mut depth_table = Table::new(
        format!("pipeline depth sweep — {CALLS} calls, {SERVICE_US}us service time, LAN"),
        &["depth", "ok", "elapsed ms", "ops/s", "msgs"],
    );
    let mut depth_pts = Vec::new();
    let mut reports: Vec<ObsReport> = Vec::new();
    let mut traces: Vec<TraceArtifact> = Vec::new();
    for (i, &d) in depths.iter().enumerate() {
        let trace = d == 8;
        let (p, sim) = measure(d, 1, CALLS, 130 + i as u64, trace);
        if trace {
            reports.push(obs_report(format!("depth={d}"), &sim));
            traces.push(capture_trace(format!("depth-{d}"), &sim));
        }
        depth_table.add_row(vec![
            d.to_string(),
            p.ok.to_string(),
            format!("{:.2}", p.elapsed_us / 1000.0),
            format!("{:.0}", p.ops_per_sec),
            p.msgs.to_string(),
        ]);
        depth_pts.push(p);
    }

    // ---- batch sweep (depth 32 fixed) ----
    let batches = [1usize, 2, 4, 8];
    let mut batch_table = Table::new(
        format!("batch size sweep — depth 32, {CALLS} calls"),
        &["batch", "msgs", "msgs/op", "batch frames", "mean call us"],
    );
    let mut batch_pts = Vec::new();
    let mut batch_lat = Vec::new();
    for (i, &b) in batches.iter().enumerate() {
        let (p, _) = measure(32, b, CALLS, 140 + i as u64, false);
        // The latency probe uses one pipeline window's worth of calls so
        // per-call latency is not dominated by window queueing: the cost
        // of waiting for batch-mates stands out.
        let (probe, _) = measure(8, b, 8, 240 + i as u64, false);
        batch_table.add_row(vec![
            b.to_string(),
            p.msgs.to_string(),
            format!("{:.2}", p.msgs_per_op),
            p.batches.to_string(),
            format!("{:.0}", probe.mean_latency_us),
        ]);
        batch_pts.push(p);
        batch_lat.push(probe.mean_latency_us);
    }

    // ---- chaos leg ----
    let (ok, timeouts, execs, over) = chaos_leg(150);
    let mut chaos_table = Table::new(
        "at-most-once under chaos — depth 8, batch 4, 30% loss + 30% duplication".to_string(),
        &["ok", "timeout", "server execs", "OVER-EXEC"],
    );
    chaos_table.add_row(vec![
        ok.to_string(),
        timeouts.to_string(),
        execs.to_string(),
        over.to_string(),
    ]);

    // ---- loss repaired from evidence ----
    let clean = window_leg(0.0, 160);
    let lossy = window_leg(0.02, 160);
    let mut window_table = Table::new(
        format!("open window under loss — depth 16, batch 4, {WINDOW_CALLS} calls, 10ms floor"),
        &[
            "loss",
            "ok",
            "p50 us",
            "p99 us",
            "retransmitted",
            "retx wait us",
            "msgs/op",
        ],
    );
    for (loss, p) in [("0%", &clean), ("2%", &lossy)] {
        window_table.add_row(vec![
            loss.to_string(),
            p.ok.to_string(),
            format!("{:.0}", p.p50_us),
            format!("{:.0}", p.p99_us),
            p.retries.to_string(),
            format!("{:.0}", p.retx_wait_us),
            format!("{:.2}", p.msgs_per_op),
        ]);
    }

    let d1 = &depth_pts[0];
    let d8 = &depth_pts[3];
    let checks = vec![
        check(
            "depth 8 achieves >=4x the throughput of depth 1",
            d8.ops_per_sec >= d1.ops_per_sec * 4.0,
            format!(
                "{:.0} ops/s at depth 8 vs {:.0} at depth 1 ({:.1}x)",
                d8.ops_per_sec,
                d1.ops_per_sec,
                d8.ops_per_sec / d1.ops_per_sec
            ),
        ),
        check(
            "throughput never degrades as depth grows",
            depth_pts
                .windows(2)
                .all(|w| w[1].ops_per_sec >= w[0].ops_per_sec * 0.95),
            format!(
                "ops/s by depth: {:?}",
                depth_pts
                    .iter()
                    .map(|p| p.ops_per_sec.round())
                    .collect::<Vec<_>>()
            ),
        ),
        check(
            "every pipelined call completes on the clean network",
            depth_pts.iter().all(|p| p.ok == CALLS),
            format!(
                "ok by depth: {:?}",
                depth_pts.iter().map(|p| p.ok).collect::<Vec<_>>()
            ),
        ),
        check(
            "batch 8 reduces messages/op by >=2x vs unbatched",
            batch_pts[0].msgs_per_op >= batch_pts[3].msgs_per_op * 2.0,
            format!(
                "{:.2} msgs/op unbatched vs {:.2} at batch 8 ({:.1}x)",
                batch_pts[0].msgs_per_op,
                batch_pts[3].msgs_per_op,
                batch_pts[0].msgs_per_op / batch_pts[3].msgs_per_op
            ),
        ),
        check(
            "honest negative: batching raises per-call latency (replies wait for batch-mates)",
            batch_lat[3] > batch_lat[0],
            format!(
                "mean call latency {:.0}us at batch 8 vs {:.0}us unbatched",
                batch_lat[3], batch_lat[0]
            ),
        ),
        check(
            "zero over-executions at 30% loss + 30% duplication with pipelining + batching",
            over == 0 && ok + timeouts == CALLS,
            format!("{execs} execs for {ok} ok + {timeouts} timeouts (over = {over})"),
        ),
        check(
            "2% loss is repaired from evidence: p99 call latency <= 6x the clean round trip",
            lossy.ok == WINDOW_CALLS
                && clean.retries == 0
                && lossy.retries > 0
                && lossy.p99_us <= clean.p50_us * 6.0,
            format!(
                "p99 {:.0}us at 2% loss vs {:.0}us clean round trip ({:.1}x; the 10ms floor alone is {:.1}x), {} calls retransmitted",
                lossy.p99_us,
                clean.p50_us,
                lossy.p99_us / clean.p50_us,
                10_000.0 / clean.p50_us,
                lossy.retries
            ),
        ),
    ];

    ExperimentOutput {
        id: "E13",
        title: "Pipelined + batched RPC channel (multi-outstanding calls)",
        tables: vec![depth_table, batch_table, chaos_table, window_table],
        checks,
        reports,
        traces,
    }
}
