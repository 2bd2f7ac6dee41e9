//! E14 — Closed-loop pipelined hot path: the full stack under a
//! windowed, batched workload, checked for shape.
//!
//! It drives a pipelined, batched RPC workload (several clients
//! hammering one server with blob-carrying puts) through every layer at
//! once — codec, framing + CRC, channel batching, at-most-once server,
//! scheduler — and asserts that every call completes, that repetitions
//! dispatch the same events, and that batching beats 2 msgs/call.
//!
//! The table also prints how fast the *host* chewed through it
//! (events/s, msgs/s, MB/s). Those columns are host-dependent and judged
//! by nothing beyond "positive and finite". The hot-path macro-benchmark
//! is `benchmark/`'s `pipeline_blob` (this workload's shape, under loss)
//! and `fleet_stub` workloads, which pin, interleave and have
//! statistics: a hot-path optimisation counts if `bash benchmark/run.sh`
//! moves.
//!
//! `PROXIDE_SMOKE=1` shrinks the workload (fewer clients/calls, one
//! repetition).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use rpc::{Channel, ChannelConfig, ErrorCode, RemoteError, RpcServer};
use simnet::{NetworkConfig, NodeId, PortId, Simulation};
use wire::Value;

use crate::{check, per_sec, pick, slot, take, ExperimentOutput, Table};

/// One workload configuration.
#[derive(Debug, Clone, Copy)]
struct Config {
    clients: usize,
    calls_per_client: u64,
    depth: usize,
    batch: usize,
    payload: usize,
    reps: usize,
}

impl Config {
    fn full() -> Config {
        Config {
            clients: 4,
            calls_per_client: 512,
            depth: 16,
            batch: 4,
            payload: 256,
            reps: 3,
        }
    }

    fn smoke() -> Config {
        Config {
            clients: 2,
            calls_per_client: 64,
            depth: 8,
            batch: 4,
            payload: 128,
            reps: 1,
        }
    }

    fn total_calls(&self) -> u64 {
        self.clients as u64 * self.calls_per_client
    }
}

/// One measured repetition.
#[derive(Debug, Clone, Copy)]
struct Rep {
    wall: Duration,
    sim_us: f64,
    ok: u64,
    events: u64,
    msgs: u64,
    bytes: u64,
}

impl Rep {
    fn events_per_sec(&self) -> f64 {
        per_sec(self.events, self.wall)
    }
    fn msgs_per_sec(&self) -> f64 {
        per_sec(self.msgs, self.wall)
    }
    fn bytes_per_sec(&self) -> f64 {
        per_sec(self.bytes, self.wall)
    }
}

fn run_once(cfg: Config, seed: u64) -> Rep {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let execs = Arc::new(AtomicU64::new(0));
    let e2 = Arc::clone(&execs);
    let server = sim.spawn_at("hotsvc", NodeId(0), PortId(1), move |ctx| {
        let mut srv = RpcServer::new();
        srv.serve(
            ctx,
            |_, req| match req.op.as_str() {
                "put" => Ok(Value::U64(e2.fetch_add(1, Ordering::SeqCst) + 1)),
                other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
            },
            |_, _| {},
        );
    });
    let mut slots = Vec::new();
    for c in 0..cfg.clients {
        let (w, r) = slot::<u64>();
        slots.push(r);
        sim.spawn("client", NodeId(1 + c as u32), move |ctx| {
            let chan_cfg = ChannelConfig::with_depth(cfg.depth).batched(cfg.batch);
            let mut ch = Channel::new("hotsvc", server, chan_cfg);
            let args = Value::record([
                ("key", Value::str(format!("client-{c}/key"))),
                ("value", Value::blob(vec![0xA5u8; cfg.payload])),
            ]);
            let mut ok = 0u64;
            // Closed loop: keep `depth` calls in flight, issue a new one
            // as each completes.
            let mut handles = std::collections::VecDeque::new();
            let mut issued = 0u64;
            while issued < cfg.calls_per_client || !handles.is_empty() {
                while issued < cfg.calls_per_client && handles.len() < cfg.depth {
                    handles.push_back(ch.begin_call(ctx, "put", args.clone()));
                    issued += 1;
                }
                if let Some(h) = handles.pop_front() {
                    if ch.wait(ctx, h).is_ok() {
                        ok += 1;
                    }
                }
            }
            *w.lock().unwrap() = Some(ok);
        });
    }
    let t0 = Instant::now();
    let report = sim.run();
    let wall = t0.elapsed();
    let ok: u64 = slots.into_iter().map(take).sum();
    Rep {
        wall,
        sim_us: report.end_time.as_nanos() as f64 / 1000.0,
        ok,
        events: report.metrics.events_dispatched,
        msgs: report.metrics.msgs_sent,
        bytes: report.metrics.bytes_sent,
    }
}

/// Runs E14 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (cfg, mode) = pick(Config::full(), Config::smoke());
    let mut reps = Vec::with_capacity(cfg.reps);
    for i in 0..cfg.reps {
        reps.push(run_once(cfg, 1400 + i as u64));
    }
    // The minimum wall is the least noise-polluted observation of the
    // same deterministic workload.
    let best = *reps
        .iter()
        .min_by(|a, b| a.wall.cmp(&b.wall))
        .expect("at least one rep");

    let mut table = Table::new(
        format!(
            "closed-loop pipelined workload ({mode}) — {} clients x {} calls, depth {}, batch {}, {}B payload",
            cfg.clients, cfg.calls_per_client, cfg.depth, cfg.batch, cfg.payload
        ),
        &[
            "rep",
            "wall ms (host)",
            "sim ms",
            "ok",
            "events",
            "msgs",
            "events/s (host)",
            "msgs/s (host)",
            "MB/s (host)",
        ],
    );
    let labelled = reps
        .iter()
        .enumerate()
        .map(|(i, r)| ((i + 1).to_string(), r))
        .chain(std::iter::once(("best".to_owned(), &best)));
    for (label, r) in labelled {
        table.add_row(vec![
            label,
            format!("{:.2}", r.wall.as_secs_f64() * 1e3),
            format!("{:.2}", r.sim_us / 1e3),
            r.ok.to_string(),
            r.events.to_string(),
            r.msgs.to_string(),
            format!("{:.0}", r.events_per_sec()),
            format!("{:.0}", r.msgs_per_sec()),
            format!("{:.2}", r.bytes_per_sec() / 1e6),
        ]);
    }

    let total = cfg.total_calls();
    // Unbatched request/reply costs 2 datagrams per call; batching must
    // beat that even counting retransmissions and batch framing.
    let msgs_per_op = best.msgs as f64 / total as f64;
    let checks = vec![
        check(
            "every call completes on the clean network",
            reps.iter().all(|r| r.ok == total),
            format!(
                "ok by rep: {:?} (want {total})",
                reps.iter().map(|r| r.ok).collect::<Vec<_>>()
            ),
        ),
        check(
            "determinism: every rep dispatches the same event count",
            reps.windows(2).all(|w| w[0].events == w[1].events),
            format!(
                "events by rep: {:?}",
                reps.iter().map(|r| r.events).collect::<Vec<_>>()
            ),
        ),
        check(
            "batching beats 2 msgs/call",
            msgs_per_op < 2.0,
            format!("{msgs_per_op:.2} msgs/call over {} msgs", best.msgs),
        ),
        check(
            "host sustains a sane event rate",
            best.events_per_sec() > 1_000.0 && best.events_per_sec().is_finite(),
            format!(
                "{:.0} events/s, {:.0} msgs/s, {:.2} MB/s of payload",
                best.events_per_sec(),
                best.msgs_per_sec(),
                best.bytes_per_sec() / 1e6
            ),
        ),
    ];

    ExperimentOutput {
        id: "E14",
        title: "Closed-loop pipelined hot path (completion, determinism, batching; host rates reported, not judged)",
        tables: vec![table],
        checks,
        reports: Vec::new(),
        traces: Vec::new(),
    }
}
