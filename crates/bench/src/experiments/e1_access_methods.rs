//! E1 — Access-method comparison.
//!
//! The paper's core comparison (summarized by the stubs/proxies table in
//! later surveys): the same key-value workload executed through
//!
//! * direct message passing (no binding, no retry machinery),
//! * an RPC stub (the degenerate proxy),
//! * a caching proxy, and
//! * a migratory proxy.
//!
//! Expected shape: stub ≈ direct (the proxy abstraction costs nothing);
//! the caching proxy wins on re-reads; the migratory proxy wins once the
//! object moves in.

use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{CachingParams, Coherence, ProxySpec, ServiceBuilder, SessionCore};
use rpc::{Channel, ChannelConfig, RetryPolicy};
use services::kv::KvStore;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{check, obs_report, slot, take, us_per_op_f, ExperimentOutput, ObsReport, Table};

const OPS: u64 = 200;
const KEYS: u64 = 20;
const READ_RATIO: f64 = 0.9;

#[derive(Debug, Clone, Copy)]
struct Row {
    per_op_us: f64,
    remote_calls: u64,
    local_hits: u64,
    msgs: u64,
}

fn key_for(i: u64) -> String {
    format!("k{}", i % KEYS)
}

fn measure(label: &str, spec: Option<ProxySpec>, seed: u64) -> (Row, ObsReport) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    let factories = services::all_factories();

    // Direct mode still needs a listening service; clients skip the
    // binding protocol and hit the endpoint raw.
    let mut builder = ServiceBuilder::new("kv").object(|| Box::new(KvStore::new()));
    if let Some(s) = &spec {
        builder = builder.spec(s.clone());
        if matches!(s, ProxySpec::Migratory { .. }) {
            builder = builder.factories(factories.clone());
        }
    }
    let server = builder.spawn(&sim, NodeId(1), ns);

    let (w, r) = slot::<Row>();
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let now = || cx.with(|cx| cx.now());
        // The measured workload: a seeded mix of reads and writes.
        let is_read = || cx.with(|cx| cx.with_rng(|r| rand::Rng::gen_bool(r, READ_RATIO)));
        // Seed the keys (unmeasured).
        let mut seed_rpc = Channel::new("", server, ChannelConfig::with_depth(1));
        for k in 0..KEYS {
            let args = Value::record([
                ("key", Value::str(key_for(k))),
                ("value", Value::str("seed")),
            ]);
            seed_rpc.call(cx, "", "put", args, None).await.unwrap();
        }

        let (t0, mut row) = match &spec {
            None => {
                // Direct message passing: one-shot request/response
                // without retries, dedup windows or binding.
                let policy = RetryPolicy::no_retry(Duration::from_secs(1));
                let cfg = ChannelConfig::with_depth(1).with_policy(policy);
                let mut raw = Channel::new("", server, cfg);
                let t0 = now();
                for i in 0..OPS {
                    let (op, args) = op_args(is_read(), &key_for(i));
                    raw.call(cx, "", op, args, None).await.unwrap();
                }
                let row = Row {
                    per_op_us: 0.0,
                    remote_calls: raw.stats.calls,
                    local_hits: 0,
                    msgs: 0,
                };
                (t0, row)
            }
            Some(_) => {
                let mut rt = SessionCore::new(ns).with_factories(services::all_factories());
                let kv = rt.attach(cx, "kv").await.unwrap();
                let t0 = now();
                for i in 0..OPS {
                    let (op, args) = op_args(is_read(), &key_for(i));
                    rt.call(cx, kv, op, args).await.unwrap();
                }
                let s = rt.stats(kv);
                let row = Row {
                    per_op_us: 0.0,
                    remote_calls: s.remote_calls,
                    local_hits: s.local_hits,
                    msgs: 0,
                };
                (t0, row)
            }
        };
        row.per_op_us = us_per_op_f(now() - t0, OPS);
        *w.lock().unwrap() = Some(row);
    });
    let report = sim.run();
    let mut row = take(r);
    row.msgs = report.metrics.msgs_sent;
    (row, obs_report(label, &sim))
}

fn op_args(is_read: bool, key: &str) -> (&'static str, Value) {
    if is_read {
        ("get", Value::record([("key", Value::str(key))]))
    } else {
        (
            "put",
            Value::record([("key", Value::str(key)), ("value", Value::str("v"))]),
        )
    }
}

/// Runs E1 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (direct, direct_obs) = measure("direct", None, 1);
    let (stub, stub_obs) = measure("stub", Some(ProxySpec::Stub), 1);
    let (caching, caching_obs) = measure(
        "caching",
        Some(ProxySpec::Caching(CachingParams {
            coherence: Coherence::Invalidate,
            capacity: 1024,
        })),
        1,
    );
    let (migratory, migratory_obs) =
        measure("migratory", Some(ProxySpec::Migratory { threshold: 10 }), 1);

    let mut t = Table::new(
        format!(
            "mean invocation cost, {OPS} ops, {:.0}% reads over {KEYS} keys (LAN: 500us one-way)",
            READ_RATIO * 100.0
        ),
        &[
            "access method",
            "us/op",
            "remote calls",
            "local",
            "total msgs",
        ],
    );
    for (name, row) in [
        ("direct messages", &direct),
        ("RPC stub proxy", &stub),
        ("caching proxy", &caching),
        ("migratory proxy", &migratory),
    ] {
        t.add_row(vec![
            name.into(),
            format!("{:.1}", row.per_op_us),
            row.remote_calls.to_string(),
            row.local_hits.to_string(),
            row.msgs.to_string(),
        ]);
    }

    let checks = vec![
        check(
            "stub ≈ direct (proxy indirection is free on the wire)",
            (stub.per_op_us - direct.per_op_us).abs() / direct.per_op_us < 0.05,
            format!(
                "stub {:.1}us vs direct {:.1}us",
                stub.per_op_us, direct.per_op_us
            ),
        ),
        check(
            "caching proxy beats stub on a read-heavy mix",
            caching.per_op_us < stub.per_op_us * 0.5,
            format!(
                "caching {:.1}us vs stub {:.1}us",
                caching.per_op_us, stub.per_op_us
            ),
        ),
        check(
            "migratory proxy beats stub once the object moves in",
            migratory.per_op_us < stub.per_op_us * 0.5,
            format!(
                "migratory {:.1}us vs stub {:.1}us ({} local)",
                migratory.per_op_us, stub.per_op_us, migratory.local_hits
            ),
        ),
        check(
            "smart proxies cut network traffic",
            caching.msgs < stub.msgs && migratory.msgs < stub.msgs,
            format!(
                "msgs: stub {} / caching {} / migratory {}",
                stub.msgs, caching.msgs, migratory.msgs
            ),
        ),
    ];

    ExperimentOutput {
        id: "E1",
        title: "Access-method comparison (direct vs stub vs smart proxies)",
        tables: vec![t],
        checks,
        reports: vec![direct_obs, stub_obs, caching_obs, migratory_obs],
        traces: vec![],
    }
}
