//! E2 — Caching proxy vs stub across the read/write mix.
//!
//! The file-cache claim: a service whose reads dominate should hand its
//! clients caching proxies. We sweep the read ratio from 0% to 100% and
//! compare a stub against caching proxies under both coherence modes
//! (the lease-vs-invalidation ablation from `DESIGN.md` §4).
//!
//! Expected shape: at the write-heavy end the strategies tie (writes are
//! write-through everywhere); as reads dominate, the caching proxies'
//! per-op cost collapses toward the local-hit cost while the stub stays
//! flat at one RTT per op.

use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{CachingParams, Coherence, ProxySpec, ServiceBuilder, SessionCore};
use services::file::{block_addr, BlockFile};
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, us_per_op_f, ExperimentOutput, ObsReport, Slot,
    Table, TraceArtifact,
};

/// Operations the client makes per point, after seeding the blocks.
pub const OPS: u64 = 300;
/// Blocks the operations cycle over.
pub const BLOCKS: u64 = 10;

/// What the client measured over its [`OPS`] operations.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    per_op_us: f64,
    remote: u64,
    hits: u64,
}

/// Builds one sweep point, ready to run: a name server, the `fs` block
/// file published with `spec`, and a client that seeds every block and
/// then makes [`OPS`] operations, `read_pct` % of them reads. The client
/// fills the slot when it is done.
pub fn spawn(spec: ProxySpec, read_pct: u64, seed: u64) -> (Simulation, Slot<Point>) {
    let sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("fs")
        .spec(spec)
        .object(|| Box::new(BlockFile::new().with_disk_time(Duration::from_micros(50))))
        .spawn(&sim, NodeId(1), ns);
    let (w, r) = slot::<Point>();
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let fs = rt.attach(cx, "fs").await.unwrap();
        // Seed every block (unmeasured).
        for b in 0..BLOCKS {
            let args = Value::record([
                ("addr", Value::str(block_addr("data", b))),
                ("data", Value::blob(vec![0u8; 256])),
            ]);
            rt.call(cx, fs, "write", args).await.unwrap();
        }
        let base = rt.stats(fs);
        let t0 = cx.with(|cx| cx.now());
        for i in 0..OPS {
            let is_read = cx.with(|cx| cx.with_rng(|r| rand::Rng::gen_range(r, 0..100))) < read_pct;
            let addr = block_addr("data", i % BLOCKS);
            let (op, args) = if is_read {
                ("read", Value::record([("addr", Value::str(addr))]))
            } else {
                let data = Value::blob(vec![1u8; 256]);
                (
                    "write",
                    Value::record([("addr", Value::str(addr)), ("data", data)]),
                )
            };
            rt.call(cx, fs, op, args).await.unwrap();
        }
        let s = rt.stats(fs);
        *w.lock().unwrap() = Some(Point {
            per_op_us: us_per_op_f(cx.with(|cx| cx.now()) - t0, OPS),
            remote: s.remote_calls - base.remote_calls,
            hits: s.local_hits - base.local_hits,
        });
    });
    (sim, r)
}

fn measure(
    label: &str,
    spec: ProxySpec,
    read_pct: u64,
    seed: u64,
) -> (Point, ObsReport, TraceArtifact) {
    let (mut sim, r) = spawn(spec, read_pct, seed);
    sim.enable_trace(1 << 16);
    sim.run();
    (
        take(r),
        obs_report(format!("{label}@{read_pct}%reads"), &sim),
        capture_trace(format!("{label}-{read_pct}"), &sim),
    )
}

/// Runs E2 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let ratios = [0u64, 20, 40, 60, 80, 90, 95, 100];
    let mut table = Table::new(
        format!("per-op cost (us, simulated) vs read ratio — {OPS} ops over {BLOCKS} blocks, 50us disk, LAN"),
        &["reads %", "stub us/op", "cache(inv) us/op", "cache(lease 20ms) us/op", "inv hits", "lease hits"],
    );

    let mut stub_pts = Vec::new();
    let mut inv_pts = Vec::new();
    let mut lease_pts = Vec::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for (i, &pct) in ratios.iter().enumerate() {
        let seed = 10 + i as u64;
        let (stub, stub_obs, _) = measure("stub", ProxySpec::Stub, pct, seed);
        let (inv, inv_obs, inv_trace) = measure(
            "cache-inv",
            ProxySpec::Caching(CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 1024,
            }),
            pct,
            seed,
        );
        let (lease, _, lease_trace) = measure(
            "cache-lease",
            ProxySpec::Caching(CachingParams {
                coherence: Coherence::Lease(Duration::from_millis(20)),
                capacity: 1024,
            }),
            pct,
            seed,
        );
        // Keep one representative report pair (the 90%-reads point), and
        // the caching proxy's traces there.
        if pct == 90 {
            reports.push(stub_obs);
            reports.push(inv_obs);
            traces.push(inv_trace);
            traces.push(lease_trace);
        }
        table.add_row(vec![
            pct.to_string(),
            format!("{:.1}", stub.per_op_us),
            format!("{:.1}", inv.per_op_us),
            format!("{:.1}", lease.per_op_us),
            inv.hits.to_string(),
            lease.hits.to_string(),
        ]);
        stub_pts.push(stub);
        inv_pts.push(inv);
        lease_pts.push(lease);
    }

    let first = 0;
    let last = ratios.len() - 1;
    let checks = vec![
        check(
            "all-writes: caching ties with stub (no benefit, no penalty)",
            (inv_pts[first].per_op_us - stub_pts[first].per_op_us).abs()
                / stub_pts[first].per_op_us
                < 0.10,
            format!(
                "at 0% reads: stub {:.1}us, caching {:.1}us",
                stub_pts[first].per_op_us, inv_pts[first].per_op_us
            ),
        ),
        check(
            "all-reads: invalidation-coherent cache ≥5x cheaper than stub",
            inv_pts[last].per_op_us * 5.0 < stub_pts[last].per_op_us,
            format!(
                "at 100% reads: stub {:.1}us, caching {:.1}us",
                stub_pts[last].per_op_us, inv_pts[last].per_op_us
            ),
        ),
        check(
            "stub is flat across the sweep (every op pays the RTT)",
            {
                let min = stub_pts
                    .iter()
                    .map(|p| p.per_op_us)
                    .fold(f64::MAX, f64::min);
                let max = stub_pts.iter().map(|p| p.per_op_us).fold(0.0, f64::max);
                (max - min) / max < 0.15
            },
            "stub cost varies <15% over the sweep".to_string(),
        ),
        check(
            "caching cost decreases monotonically as reads grow",
            inv_pts
                .windows(2)
                .all(|w| w[1].per_op_us <= w[0].per_op_us * 1.05),
            "per-op cost non-increasing (5% tolerance)".to_string(),
        ),
        check(
            "leases trade hits for staleness bounds (fewer hits than invalidation)",
            lease_pts[last].hits > 0 && lease_pts[last].hits <= inv_pts[last].hits,
            format!(
                "at 100% reads: lease hits {}, invalidation hits {}",
                lease_pts[last].hits, inv_pts[last].hits
            ),
        ),
        check(
            "remote traffic shrinks with read ratio under caching",
            inv_pts[last].remote < inv_pts[first].remote,
            format!(
                "remote calls: {} (0% reads) -> {} (100% reads)",
                inv_pts[first].remote, inv_pts[last].remote
            ),
        ),
    ];

    ExperimentOutput {
        id: "E2",
        title: "Caching proxy vs stub across the read/write mix (+ coherence ablation)",
        tables: vec![table],
        checks,
        reports,
        traces,
    }
}
