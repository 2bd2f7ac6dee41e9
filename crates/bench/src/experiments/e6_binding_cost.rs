//! E6 — Binding is paid once.
//!
//! The binding protocol (name lookup + proxy installation, possibly a
//! subscription round-trip) happens before the first call. We measure
//! bind-plus-N-calls for growing N.
//!
//! Expected shape: amortized per-call cost converges to the steady
//! per-call cost as N grows; at N=1 the binding overhead dominates.

use naming::spawn_name_server;
use proxy_core::{CachingParams, Coherence, ProxySpec, ServiceBuilder, SessionCore};
use services::kv::KvStore;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{check, obs_report, slot, take, ExperimentOutput, ObsReport, Table};

#[derive(Debug, Clone, Copy)]
struct Point {
    amortized_us: f64,
    bind_us: f64,
    steady_us: f64,
}

fn measure(n: u64, seed: u64) -> (Point, ObsReport) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    // A subscribing spec so binding includes a real protocol round-trip.
    ServiceBuilder::new("kv")
        .spec(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 64,
        }))
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    let (w, r) = slot::<Point>();
    sim.spawn("client", NodeId(2), move |ctx| {
        // Let the service register first so bind latency measures the
        // protocol, not the retry loop.
        ctx.sleep(std::time::Duration::from_millis(5)).unwrap();
        let t_bind = ctx.now();
        let mut rt = SessionCore::new(ns);
        let kv = rt.bind(ctx, "kv").unwrap();
        let bind_us = (ctx.now() - t_bind).as_secs_f64() * 1e6;
        let t0 = ctx.now();
        for i in 0..n {
            // Distinct keys: every call goes remote (no cache hits), so
            // the steady cost is the honest per-call price.
            rt.invoke(
                ctx,
                kv,
                "put",
                Value::record([
                    ("key", Value::str(format!("k{i}"))),
                    ("value", Value::str("v")),
                ]),
            )
            .unwrap();
        }
        let elapsed = ctx.now() - t0;
        let total = (ctx.now() - t_bind).as_secs_f64() * 1e6;
        *w.lock().unwrap() = Some(Point {
            amortized_us: total / n as f64,
            bind_us,
            steady_us: elapsed.as_secs_f64() * 1e6 / n as f64,
        });
    });
    sim.run();
    (take(r), obs_report(format!("bind+{n}-calls"), &sim))
}

/// Runs E6 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let sweep = [1u64, 2, 5, 10, 20, 50, 100];
    let mut table = Table::new(
        "amortized cost of (bind + N calls) — caching spec (bind includes subscribe)".to_string(),
        &["N", "bind us", "steady us/call", "amortized us/call"],
    );
    let mut pts = Vec::new();
    let mut reports = Vec::new();
    for (i, &n) in sweep.iter().enumerate() {
        let (p, obs) = measure(n, 70 + i as u64);
        if n == 100 {
            reports.push(obs);
        }
        table.add_row(vec![
            n.to_string(),
            format!("{:.0}", p.bind_us),
            format!("{:.0}", p.steady_us),
            format!("{:.0}", p.amortized_us),
        ]);
        pts.push(p);
    }
    let first = pts[0];
    let last = *pts.last().unwrap();
    let checks = vec![
        check(
            "binding overhead dominates a single call",
            first.amortized_us > first.steady_us * 2.0,
            format!(
                "N=1: amortized {:.0}us vs steady {:.0}us",
                first.amortized_us, first.steady_us
            ),
        ),
        check(
            "amortized cost converges to the steady cost by N=100",
            last.amortized_us < last.steady_us * 1.2,
            format!(
                "N=100: amortized {:.0}us vs steady {:.0}us",
                last.amortized_us, last.steady_us
            ),
        ),
        check(
            "amortized cost decreases monotonically in N",
            pts.windows(2)
                .all(|w| w[1].amortized_us <= w[0].amortized_us),
            "strictly non-increasing across the sweep".to_string(),
        ),
        check(
            "bind cost itself is a constant (independent of N)",
            {
                let min = pts.iter().map(|p| p.bind_us).fold(f64::MAX, f64::min);
                let max = pts.iter().map(|p| p.bind_us).fold(0.0, f64::max);
                (max - min) / max < 0.05
            },
            "bind latency varies <5% across runs".to_string(),
        ),
    ];

    ExperimentOutput {
        id: "E6",
        title: "Binding cost amortization",
        tables: vec![table],
        checks,
        reports,
        traces: vec![],
    }
}
