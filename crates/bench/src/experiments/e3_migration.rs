//! E3 — Migration amortization.
//!
//! The migratory proxy pays one checkout (an extra RTT carrying the
//! object state) to turn every later invocation into a local call. We
//! sweep the number of accesses a client makes and compare total elapsed
//! time against a stub.
//!
//! Expected shape: below the threshold nothing migrates and the two are
//! identical; past it the migratory curve flattens (local calls are
//! free) while the stub grows linearly, with the crossover shortly after
//! the threshold.

use naming::spawn_name_server;
use proxy_core::{ProxySpec, ServiceBuilder, SessionCore};
use services::counter::Counter;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

const THRESHOLD: u64 = 10;

#[derive(Debug, Clone, Copy)]
struct Point {
    total_us: f64,
    migrations: u64,
}

fn measure(migratory: bool, n: u64, seed: u64) -> (Point, ObsReport, TraceArtifact) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.enable_trace(1 << 16);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = services::all_factories();
    let mut builder = ServiceBuilder::new("ctr").object(|| Box::new(Counter::new()));
    if migratory {
        builder = builder
            .spec(ProxySpec::Migratory {
                threshold: THRESHOLD,
            })
            .factories(factories.clone());
    }
    builder.spawn(&sim, NodeId(1), ns);
    let (w, r) = slot::<Point>();
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns).with_factories(factories);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        let t0 = cx.with(|cx| cx.now());
        for _ in 0..n {
            rt.call(cx, ctr, "inc", Value::Null).await.unwrap();
        }
        *w.lock().unwrap() = Some(Point {
            total_us: (cx.with(|cx| cx.now()) - t0).as_secs_f64() * 1e6,
            migrations: rt.stats(ctr).migrations,
        });
    });
    sim.run();
    let label = if migratory { "migratory" } else { "stub" };
    (
        take(r),
        obs_report(format!("{label}@N={n}"), &sim),
        capture_trace(format!("{label}-n{n}"), &sim),
    )
}

/// Runs E3 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let sweep = [1u64, 2, 5, 10, 20, 50, 100, 200];
    let mut table = Table::new(
        format!(
            "total time for N increments (us, simulated) — migration threshold {THRESHOLD}, LAN"
        ),
        &["N", "stub total", "migratory total", "migrated?", "winner"],
    );
    let mut stub_pts = Vec::new();
    let mut mig_pts = Vec::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    let mut crossover: Option<u64> = None;
    for (i, &n) in sweep.iter().enumerate() {
        let seed = 30 + i as u64;
        let (stub, stub_obs, _) = measure(false, n, seed);
        let (mig, mig_obs, mig_trace) = measure(true, n, seed);
        if n == 200 {
            reports.push(stub_obs);
            reports.push(mig_obs);
            traces.push(mig_trace);
        }
        let winner = if mig.total_us < stub.total_us * 0.95 {
            "migratory"
        } else if stub.total_us < mig.total_us * 0.95 {
            "stub"
        } else {
            "tie"
        };
        if winner == "migratory" && crossover.is_none() {
            crossover = Some(n);
        }
        table.add_row(vec![
            n.to_string(),
            format!("{:.0}", stub.total_us),
            format!("{:.0}", mig.total_us),
            if mig.migrations > 0 { "yes" } else { "no" }.into(),
            winner.into(),
        ]);
        stub_pts.push(stub);
        mig_pts.push(mig);
    }

    let below = sweep.iter().position(|&n| n == 5).unwrap();
    let top = sweep.len() - 1;
    let checks = vec![
        check(
            "below the threshold the strategies are identical",
            (mig_pts[below].total_us - stub_pts[below].total_us).abs() / stub_pts[below].total_us
                < 0.05
                && mig_pts[below].migrations == 0,
            format!(
                "N=5: stub {:.0}us vs migratory {:.0}us",
                stub_pts[below].total_us, mig_pts[below].total_us
            ),
        ),
        check(
            "the object migrates once past the threshold",
            mig_pts[top].migrations == 1,
            format!("N=200: {} migration(s)", mig_pts[top].migrations),
        ),
        check(
            "at N=200 migration wins by >=4x",
            mig_pts[top].total_us * 4.0 < stub_pts[top].total_us,
            format!(
                "stub {:.0}us vs migratory {:.0}us",
                stub_pts[top].total_us, mig_pts[top].total_us
            ),
        ),
        check(
            "crossover appears shortly after the threshold",
            matches!(crossover, Some(n) if n <= THRESHOLD * 2),
            format!("first migratory win at N={crossover:?} (threshold {THRESHOLD})"),
        ),
    ];

    ExperimentOutput {
        id: "E3",
        title: "Migration amortization (stub vs migratory proxy, access-count sweep)",
        tables: vec![table],
        checks,
        reports,
        traces,
    }
}
