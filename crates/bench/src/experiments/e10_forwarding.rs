//! E10 — Forwarding chains and path compression.
//!
//! An object migrates k times without updating the name service, leaving
//! a chain of forwarders. A client that bound before any move makes its
//! next call: with next-hop forwarders it follows the whole chain (one
//! redirect per hop); with resolving forwarders the first stale host
//! walks the chain server-side and redirects straight to the home. In
//! both modes the proxy caches the discovered home, so the second call
//! pays a single hop.

use migration::{request_migration, spawn_migratable, ForwardMode, MigratableConfig};
use naming::spawn_name_server;
use proxy_core::SessionCore;
use services::counter::Counter;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

#[derive(Debug, Clone, Copy)]
struct Point {
    first_call_us: f64,
    first_redirects: u64,
    second_call_us: f64,
    second_redirects: u64,
    /// First call of a *later* client that binds the (stale) name after
    /// the chain exists — where server-side resolution pays off.
    fresh_first_us: f64,
    fresh_redirects: u64,
}

fn measure(mode: ForwardMode, hops: u32, seed: u64) -> (Point, ObsReport, TraceArtifact) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.enable_trace(1 << 16);
    let ns = spawn_name_server(&sim, NodeId(0));
    let home = spawn_migratable(
        &sim,
        NodeId(1),
        ns,
        MigratableConfig::new("ctr").with_forward_mode(mode),
        services::all_factories(),
        || Box::new(Counter::new()),
    );
    let (w, r) = slot::<Point>();
    sim.spawn_async("client", NodeId(50), move |cx| async move {
        let now = || cx.with(|cx| cx.now());
        let mut rt = SessionCore::new(ns);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        rt.call(cx, ctr, "get", Value::Null).await.unwrap(); // warm bind

        let mut host = home;
        for i in 0..hops {
            host = request_migration(cx, host, NodeId(2 + i)).await.unwrap();
        }

        let s0 = rt.stats(ctr);
        let t0 = now();
        rt.call(cx, ctr, "get", Value::Null).await.unwrap();
        let first_call_us = (now() - t0).as_secs_f64() * 1e6;
        let s1 = rt.stats(ctr);
        let t1 = now();
        rt.call(cx, ctr, "get", Value::Null).await.unwrap();
        let second_call_us = (now() - t1).as_secs_f64() * 1e6;
        let s2 = rt.stats(ctr);
        *w.lock().unwrap() = Some(Point {
            first_call_us,
            first_redirects: s1.rebinds - s0.rebinds,
            second_call_us,
            second_redirects: s2.rebinds - s1.rebinds,
            fresh_first_us: 0.0,
            fresh_redirects: 0,
        });
    });
    // A later client binds the stale name after everything above settled
    // (resolve-mode forwarders have cached the chain walk by then).
    let (fw, fr) = slot::<(f64, u64)>();
    sim.spawn_async("fresh-client", NodeId(51), move |cx| async move {
        let now = || cx.with(|cx| cx.now());
        cx.sleep(std::time::Duration::from_millis(200))
            .await
            .unwrap();
        let mut rt = SessionCore::new(ns);
        let ctr = rt.attach(cx, "ctr").await.unwrap();
        let t0 = now();
        rt.call(cx, ctr, "get", Value::Null).await.unwrap();
        *fw.lock().unwrap() = Some(((now() - t0).as_secs_f64() * 1e6, rt.stats(ctr).rebinds));
    });
    sim.run();
    let mut p = take(r);
    let (fresh_us, fresh_redirects) = take(fr);
    p.fresh_first_us = fresh_us;
    p.fresh_redirects = fresh_redirects;
    let label = format!("{mode:?}-k{hops}").to_lowercase();
    (
        p,
        obs_report(format!("{mode:?}@k={hops}"), &sim),
        capture_trace(label, &sim),
    )
}

/// Runs E10 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let sweep = [0u32, 1, 2, 4, 8];
    let mut table = Table::new(
        "cost of the first call after k migrations (no naming updates) — LAN, 500us one-way"
            .to_string(),
        &[
            "k",
            "mode",
            "1st call us",
            "1st redirects",
            "2nd call us",
            "2nd redirects",
            "later-client 1st us",
            "its redirects",
        ],
    );
    let mut nexthop = Vec::new();
    let mut resolve = Vec::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for (i, &k) in sweep.iter().enumerate() {
        let (nh, nh_obs, nh_trace) = measure(ForwardMode::NextHop, k, 110 + i as u64);
        let (rs, rs_obs, rs_trace) = measure(ForwardMode::Resolve, k, 120 + i as u64);
        if k == 8 {
            reports.push(nh_obs);
            reports.push(rs_obs);
            traces.push(nh_trace);
            traces.push(rs_trace);
        }
        for (mode, p) in [("next-hop", &nh), ("resolve", &rs)] {
            table.add_row(vec![
                k.to_string(),
                mode.into(),
                format!("{:.0}", p.first_call_us),
                p.first_redirects.to_string(),
                format!("{:.0}", p.second_call_us),
                p.second_redirects.to_string(),
                format!("{:.0}", p.fresh_first_us),
                p.fresh_redirects.to_string(),
            ]);
        }
        nexthop.push((k, nh));
        resolve.push((k, rs));
    }

    let checks = vec![
        check(
            "next-hop: first call pays exactly one redirect per hop",
            nexthop.iter().all(|(k, p)| p.first_redirects == *k as u64),
            format!(
                "redirects: {:?}",
                nexthop.iter().map(|(k, p)| (*k, p.first_redirects)).collect::<Vec<_>>()
            ),
        ),
        check(
            "resolve: first call pays at most one redirect regardless of k",
            resolve.iter().all(|(k, p)| p.first_redirects <= 1 || *k == 0),
            format!(
                "redirects: {:?}",
                resolve.iter().map(|(k, p)| (*k, p.first_redirects)).collect::<Vec<_>>()
            ),
        ),
        check(
            "path compression: the second call never redirects",
            nexthop.iter().chain(resolve.iter()).all(|(_, p)| p.second_redirects == 0),
            "0 redirects on every second call".to_string(),
        ),
        check(
            "next-hop first-call latency grows with k; second-call stays flat",
            {
                let growing = nexthop.windows(2).all(|w| w[1].1.first_call_us > w[0].1.first_call_us);
                let flat = nexthop
                    .iter()
                    .all(|(_, p)| (p.second_call_us - nexthop[0].1.second_call_us).abs() < 100.0);
                growing && flat
            },
            format!(
                "first-call us: {:?}",
                nexthop.iter().map(|(k, p)| (*k, p.first_call_us as u64)).collect::<Vec<_>>()
            ),
        ),
        check(
            "eager (resolve) compression amortizes: later clients' first calls beat next-hop on long chains",
            {
                // The first traverser pays the chain walk either way; the
                // win is for every client after it.
                let nh = nexthop.last().unwrap().1;
                let rs = resolve.last().unwrap().1;
                rs.fresh_first_us < nh.fresh_first_us && rs.fresh_redirects <= 1
            },
            format!(
                "later client at k=8: resolve {:.0}us/{} redirects vs next-hop {:.0}us/{} redirects",
                resolve.last().unwrap().1.fresh_first_us,
                resolve.last().unwrap().1.fresh_redirects,
                nexthop.last().unwrap().1.fresh_first_us,
                nexthop.last().unwrap().1.fresh_redirects
            ),
        ),
    ];

    ExperimentOutput {
        id: "E10",
        title: "Forwarding chains after migration (+ compression-mode ablation)",
        tables: vec![table],
        checks,
        reports,
        traces,
    }
}
