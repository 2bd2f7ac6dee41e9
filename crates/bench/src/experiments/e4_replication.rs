//! E4 — Replica-reading proxies scale reads.
//!
//! A directory service with a 200µs per-op compute cost is replicated
//! across 1..5 nodes. Six clients, each placed near one replica
//! (100µs link) and far from the rest (5ms links), hammer it with reads.
//!
//! Expected shape: with one replica every client pays the far RTT *and*
//! queues behind everyone else at the single server; adding replicas
//! both shortens the path (nearest-read placement) and divides the
//! service load, so mean latency falls and aggregate throughput scales.
//! The sync-vs-async ablation shows the write-latency price of keeping
//! backups always-current.

use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::ReadTarget;
use replication::{client_runtime, spawn_replica_group, Propagation, ReplicaGroupConfig};
use services::directory::Directory;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

const CLIENTS: u32 = 6;
const READS_PER_CLIENT: u64 = 100;
const SERVICE_TIME: Duration = Duration::from_micros(200);

#[derive(Debug, Clone, Copy)]
struct Point {
    mean_read_us: f64,
    throughput_kops: f64,
}

/// Client node ids start at 100; replica nodes at 1.
fn measure_reads(replicas: u32, seed: u64) -> (Point, ObsReport, TraceArtifact) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.enable_trace(1 << 18);
    {
        let mut net = sim.net();
        for c in 0..CLIENTS {
            let client = NodeId(100 + c);
            for r in 0..replicas {
                let replica = NodeId(1 + r);
                let near = c % replicas == r;
                net.set_link_latency(
                    client,
                    replica,
                    if near {
                        Duration::from_micros(100)
                    } else {
                        Duration::from_millis(5)
                    },
                );
            }
        }
    }
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_replica_group(
        &sim,
        ns,
        ReplicaGroupConfig {
            service: "dir".into(),
            nodes: (0..replicas).map(|r| NodeId(1 + r)).collect(),
            propagation: Propagation::Sync,
            read_target: ReadTarget::Nearest,
        },
        || Box::new(Directory::new().with_service_time(SERVICE_TIME)),
    );

    let mut slots = Vec::new();
    for c in 0..CLIENTS {
        let (w, r) = slot::<(f64, f64)>(); // (elapsed_us, ops)
        slots.push(r);
        sim.spawn_async(
            format!("client{c}"),
            NodeId(100 + c),
            move |cx| async move {
                let mut rt = client_runtime(ns);
                let dir = rt.attach(cx, "dir").await.unwrap();
                // Seed one entry so lookups return data (only client 0).
                if c == 0 {
                    let args =
                        Value::record([("path", Value::str("/x")), ("value", Value::str("v"))]);
                    rt.call(cx, dir, "insert", args).await.unwrap();
                }
                let t0 = cx.with(|cx| cx.now());
                for _ in 0..READS_PER_CLIENT {
                    let args = Value::record([("path", Value::str("/x"))]);
                    rt.call(cx, dir, "lookup", args).await.unwrap();
                }
                let elapsed = (cx.with(|cx| cx.now()) - t0).as_secs_f64() * 1e6;
                *w.lock().unwrap() = Some((elapsed, READS_PER_CLIENT as f64));
            },
        );
    }
    sim.run();
    let mut total_ops = 0.0;
    let mut max_elapsed = 0.0f64;
    let mut sum_elapsed = 0.0;
    for s in slots {
        let (elapsed, ops) = take(s);
        total_ops += ops;
        sum_elapsed += elapsed;
        max_elapsed = max_elapsed.max(elapsed);
    }
    (
        Point {
            mean_read_us: sum_elapsed / total_ops,
            // Aggregate rate over the slowest client's window, in kops/s.
            throughput_kops: total_ops / max_elapsed * 1e3,
        },
        obs_report(format!("{replicas}-replicas"), &sim),
        capture_trace(format!("reads-{replicas}"), &sim),
    )
}

/// Mean write latency for one client against a 3-replica group.
fn measure_writes(propagation: Propagation, seed: u64) -> (f64, TraceArtifact) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.enable_trace(1 << 16);
    let ns = spawn_name_server(&sim, NodeId(0));
    spawn_replica_group(
        &sim,
        ns,
        ReplicaGroupConfig {
            service: "dir".into(),
            nodes: vec![NodeId(1), NodeId(2), NodeId(3)],
            propagation,
            read_target: ReadTarget::Primary,
        },
        || Box::new(Directory::new()),
    );
    let (w, r) = slot::<f64>();
    sim.spawn_async("writer", NodeId(9), move |cx| async move {
        let mut rt = client_runtime(ns);
        let dir = rt.attach(cx, "dir").await.unwrap();
        let t0 = cx.with(|cx| cx.now());
        for i in 0..50u64 {
            let args = Value::record([
                ("path", Value::str(format!("/p{i}"))),
                ("value", Value::str("v")),
            ]);
            rt.call(cx, dir, "insert", args).await.unwrap();
        }
        *w.lock().unwrap() = Some((cx.with(|cx| cx.now()) - t0).as_secs_f64() * 1e6 / 50.0);
    });
    sim.run();
    let label = format!("writes-{propagation:?}").to_lowercase();
    (take(r), capture_trace(label, &sim))
}

/// Runs E4 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let sweep = [1u32, 2, 3, 5];
    let mut table = Table::new(
        format!(
            "read scaling — {CLIENTS} clients x {READS_PER_CLIENT} lookups, 200us service time, near=100us far=5ms"
        ),
        &["replicas", "mean read us", "aggregate kops/s"],
    );
    let mut pts = Vec::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for (i, &n) in sweep.iter().enumerate() {
        let (p, obs, trace) = measure_reads(n, 40 + i as u64);
        if n == 3 {
            reports.push(obs);
            traces.push(trace);
        }
        table.add_row(vec![
            n.to_string(),
            format!("{:.0}", p.mean_read_us),
            format!("{:.2}", p.throughput_kops),
        ]);
        pts.push(p);
    }

    let (sync_us, sync_trace) = measure_writes(Propagation::Sync, 50);
    let (async_us, async_trace) = measure_writes(Propagation::Async, 51);
    traces.push(sync_trace);
    traces.push(async_trace);
    let mut wtable = Table::new(
        "write latency ablation — 3 replicas, primary reads".to_string(),
        &["propagation", "mean write us"],
    );
    wtable.add_row(vec![
        "sync (gated on backups)".into(),
        format!("{sync_us:.0}"),
    ]);
    wtable.add_row(vec![
        "async (fire-and-forget)".into(),
        format!("{async_us:.0}"),
    ]);

    let checks = vec![
        check(
            "read latency falls as replicas are added",
            pts.last().unwrap().mean_read_us < pts[0].mean_read_us * 0.5,
            format!(
                "1 replica {:.0}us -> {} replicas {:.0}us",
                pts[0].mean_read_us,
                sweep.last().unwrap(),
                pts.last().unwrap().mean_read_us
            ),
        ),
        check(
            "aggregate throughput scales with replicas (>=2x from 1 to 3)",
            pts[2].throughput_kops > pts[0].throughput_kops * 2.0,
            format!(
                "1 replica {:.2} kops/s -> 3 replicas {:.2} kops/s",
                pts[0].throughput_kops, pts[2].throughput_kops
            ),
        ),
        check(
            "throughput is monotonic in replica count",
            // 10% tolerance: six clients cannot map evenly onto five
            // replicas, so the last point carries placement imbalance.
            pts.windows(2)
                .all(|w| w[1].throughput_kops >= w[0].throughput_kops * 0.90),
            "non-decreasing across the sweep (10% tolerance)".to_string(),
        ),
        check(
            "async propagation makes writes cheaper than sync",
            async_us < sync_us * 0.7,
            format!("sync {sync_us:.0}us vs async {async_us:.0}us"),
        ),
    ];

    ExperimentOutput {
        id: "E4",
        title: "Replica-reading proxies: read scaling and propagation ablation",
        tables: vec![table, wtable],
        checks,
        reports,
        traces,
    }
}
