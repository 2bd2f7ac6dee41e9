//! E9 — Adaptive proxies track the workload.
//!
//! A phase-shifting workload (read-heavy → write-heavy → read-heavy)
//! runs against the same service under three specs: stub, always-caching
//! and adaptive — with several clients, so invalidation traffic matters.
//!
//! Expected shape: the adaptive proxy approaches the caching proxy's
//! latency in the read phases (it turns caching on), and in the write
//! phase unsubscribes, so it is sent no invalidations at all — beating
//! the stub overall while sending fewer messages than always-caching.
//! The margin on messages is small by construction: the service pushes
//! a write only to the proxies that read the key since its last write,
//! so always-caching no longer pays a per-write broadcast either (and
//! sends fewer messages than the stub).

use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    AdaptiveParams, CachingParams, Coherence, ProxySpec, ServiceBuilder, SessionCore,
};
use services::kv::KvStore;
use simnet::{AsyncCx, NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

const CLIENTS: u32 = 4;
const PHASE_OPS: u64 = 150;
const KEYS: u64 = 8;

#[derive(Debug, Clone, Copy)]
struct Point {
    total_ms: f64,
    msgs: u64,
    switches: u64,
}

fn phase_read_pct(phase: usize) -> u64 {
    match phase {
        0 => 95,
        1 => 10,
        _ => 95,
    }
}

async fn run_workload(rt: &mut SessionCore, cx: AsyncCx, handle: proxy_core::ProxyHandle) {
    for phase in 0..3 {
        let read_pct = phase_read_pct(phase);
        for i in 0..PHASE_OPS {
            let is_read = cx.with(|cx| cx.with_rng(|r| rand::Rng::gen_range(r, 0..100))) < read_pct;
            let key = Value::str(format!("k{}", i % KEYS));
            let (op, args) = if is_read {
                ("get", Value::record([("key", key)]))
            } else {
                (
                    "put",
                    Value::record([("key", key), ("value", Value::str("v"))]),
                )
            };
            rt.call(cx, handle, op, args).await.unwrap();
        }
    }
}

fn measure(label: &str, spec: ProxySpec, seed: u64) -> (Point, ObsReport, TraceArtifact) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    sim.enable_trace(1 << 16);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("kv")
        .spec(spec)
        .object(|| Box::new(KvStore::new()))
        .spawn(&sim, NodeId(1), ns);
    let mut slots = Vec::new();
    for c in 0..CLIENTS {
        let (w, r) = slot::<(f64, u64)>();
        slots.push(r);
        sim.spawn_async(format!("client{c}"), NodeId(2 + c), move |cx| async move {
            // Stagger starts slightly so clients interleave.
            cx.sleep(Duration::from_micros(200 * c as u64))
                .await
                .unwrap();
            let mut rt = SessionCore::new(ns);
            let kv = rt.attach(cx, "kv").await.unwrap();
            let t0 = cx.with(|cx| cx.now());
            run_workload(&mut rt, cx, kv).await;
            let stats = rt.stats(kv);
            *w.lock().unwrap() = Some((
                (cx.with(|cx| cx.now()) - t0).as_secs_f64() * 1e3,
                stats.strategy_switches,
            ));
        });
    }
    let report = sim.run();
    let mut total = 0.0f64;
    let mut switches = 0;
    for s in slots {
        let (ms, sw) = take(s);
        total = total.max(ms);
        switches += sw;
    }
    (
        Point {
            total_ms: total,
            msgs: report.metrics.msgs_sent,
            switches,
        },
        obs_report(label, &sim),
        capture_trace(label, &sim),
    )
}

/// Runs E9 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (stub, stub_obs, _) = measure("stub", ProxySpec::Stub, 100);
    let (caching, caching_obs, caching_trace) = measure(
        "always-caching",
        ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 256,
        }),
        100,
    );
    let (adaptive, adaptive_obs, adaptive_trace) = measure(
        "adaptive",
        ProxySpec::Adaptive(AdaptiveParams {
            window: 40,
            enable_at: 0.8,
            disable_at: 0.4,
            caching: CachingParams {
                coherence: Coherence::Invalidate,
                capacity: 256,
            },
        }),
        100,
    );

    let mut table = Table::new(
        format!(
            "phase-shifting workload — {CLIENTS} clients x 3 phases x {PHASE_OPS} ops (95%/10%/95% reads)"
        ),
        &["strategy", "makespan ms", "total msgs", "switches"],
    );
    for (name, p) in [
        ("stub", &stub),
        ("always-caching", &caching),
        ("adaptive", &adaptive),
    ] {
        table.add_row(vec![
            name.into(),
            format!("{:.1}", p.total_ms),
            p.msgs.to_string(),
            p.switches.to_string(),
        ]);
    }

    let checks = vec![
        check(
            "adaptive beats the stub overall",
            adaptive.total_ms < stub.total_ms * 0.8,
            format!(
                "adaptive {:.1}ms vs stub {:.1}ms",
                adaptive.total_ms, stub.total_ms
            ),
        ),
        check(
            "adaptive stays within 25% of always-caching latency",
            adaptive.total_ms < caching.total_ms * 1.25,
            format!(
                "adaptive {:.1}ms vs caching {:.1}ms",
                adaptive.total_ms, caching.total_ms
            ),
        ),
        check(
            "adaptive sends fewer messages than always-caching (its write phase is sent no invalidations)",
            adaptive.msgs < caching.msgs,
            format!(
                "adaptive {} msgs vs caching {} msgs",
                adaptive.msgs, caching.msgs
            ),
        ),
        check(
            "every adaptive client switched strategy at least twice (on and off)",
            adaptive.switches >= (CLIENTS as u64) * 2,
            format!("{} switches across {} clients", adaptive.switches, CLIENTS),
        ),
    ];

    ExperimentOutput {
        id: "E9",
        title: "Adaptive proxies under a phase-shifting workload",
        tables: vec![table],
        checks,
        reports: vec![stub_obs, caching_obs, adaptive_obs],
        traces: vec![caching_trace, adaptive_trace],
    }
}
