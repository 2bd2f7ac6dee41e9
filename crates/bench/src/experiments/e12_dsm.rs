//! E12 — Proxies vs distributed shared memory.
//!
//! The third column of the classic access-method table: instead of
//! invoking a remote object, map its page and use memory operations.
//! The era's argument, reproduced quantitatively:
//!
//! * **Locality**: a single dominant user wins big with DSM — after one
//!   fault, every access is a free local memory op (like the migratory
//!   proxy, minus marshalling).
//! * **Fine-grained sharing**: two contexts alternately writing the
//!   same page *ping-pong* it; each access pays a 3-hop ownership
//!   transfer, which is worse than simply RPCing the operation to a
//!   stationary server (the stub column wins).
//!
//! This is exactly why the proxy principle keeps the *choice* of
//! mechanism behind the interface: no single access method wins
//! everywhere.

use std::time::Duration;

use dsm::{spawn_dsm_manager, DsmClient, PageId};
use naming::spawn_name_server;
use proxy_core::{ProxySpec, ServiceBuilder, SessionCore};
use services::counter::Counter;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{check, obs_report, slot, take, us_per_op_f, ExperimentOutput, ObsReport, Table};

const OPS: u64 = 200;

/// Scenario A: one client hammers one object (90% reads).
fn locality_dsm(seed: u64) -> (f64, u64, ObsReport) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let manager = spawn_dsm_manager(&sim, NodeId(0), 64);
    let (w, r) = slot::<f64>();
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut mem = DsmClient::attach(ctx, manager);
        // Warm nothing: the first access faults, as in real DSM.
        let t0 = ctx.now();
        for i in 0..OPS {
            let is_read = ctx.with_rng(|r| rand::Rng::gen_bool(r, 0.9));
            if is_read {
                let _ = mem.read(ctx, PageId(0), 0, 8).unwrap();
            } else {
                mem.write(ctx, PageId(0), 0, &i.to_le_bytes()).unwrap();
            }
        }
        *w.lock().unwrap() = Some(us_per_op_f(ctx.now() - t0, OPS));
    });
    let report = sim.run();
    (take(r), report.metrics.msgs_sent, obs_report("dsm", &sim))
}

fn locality_proxy(label: &str, spec: ProxySpec, seed: u64) -> (f64, u64, ObsReport) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("ctr")
        .spec(spec)
        .factories(services::all_factories())
        .object(|| Box::new(Counter::new()))
        .spawn(&sim, NodeId(0), ns);
    let (w, r) = slot::<f64>();
    sim.spawn("client", NodeId(1), move |ctx| {
        let mut rt = SessionCore::new(ns).with_factories(services::all_factories());
        let ctr = rt.bind(ctx, "ctr").unwrap();
        let t0 = ctx.now();
        for _ in 0..OPS {
            let is_read = ctx.with_rng(|r| rand::Rng::gen_bool(r, 0.9));
            let op = if is_read { "get" } else { "inc" };
            rt.invoke(ctx, ctr, op, Value::Null).unwrap();
        }
        *w.lock().unwrap() = Some(us_per_op_f(ctx.now() - t0, OPS));
    });
    let report = sim.run();
    (take(r), report.metrics.msgs_sent, obs_report(label, &sim))
}

/// Scenario B: two contexts alternately write fields in the same page
/// (DSM) or the same object (stub RPC). Returns mean µs per write.
fn pingpong_dsm(seed: u64) -> f64 {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let manager = spawn_dsm_manager(&sim, NodeId(0), 64);
    let mut slots = Vec::new();
    for c in 0..2u32 {
        let (w, r) = slot::<f64>();
        slots.push(r);
        sim.spawn(format!("writer{c}"), NodeId(1 + c), move |ctx| {
            let mut mem = DsmClient::attach(ctx, manager);
            let t0 = ctx.now();
            for i in 0..50u64 {
                // Each writer touches its own offset — *false sharing*:
                // the page, not the datum, is the coherence unit.
                mem.write(ctx, PageId(0), (c as usize) * 8, &i.to_le_bytes())
                    .unwrap();
                ctx.sleep(Duration::from_micros(200)).unwrap();
            }
            *w.lock().unwrap() = Some(((ctx.now() - t0).as_secs_f64() * 1e6 - 50.0 * 200.0) / 50.0);
        });
    }
    sim.run();
    let mut worst = 0.0f64;
    for s in slots {
        worst = worst.max(take(s));
    }
    worst
}

fn pingpong_stub(seed: u64) -> f64 {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    ServiceBuilder::new("ctr")
        .factories(services::all_factories())
        .object(|| Box::new(Counter::new()))
        .spawn(&sim, NodeId(0), ns);
    let mut slots = Vec::new();
    for c in 0..2u32 {
        let (w, r) = slot::<f64>();
        slots.push(r);
        sim.spawn(format!("writer{c}"), NodeId(1 + c), move |ctx| {
            let mut rt = SessionCore::new(ns);
            let ctr = rt.bind(ctx, "ctr").unwrap();
            let t0 = ctx.now();
            for _ in 0..50 {
                rt.invoke(ctx, ctr, "inc", Value::Null).unwrap();
                ctx.sleep(Duration::from_micros(200)).unwrap();
            }
            *w.lock().unwrap() = Some(((ctx.now() - t0).as_secs_f64() * 1e6 - 50.0 * 200.0) / 50.0);
        });
    }
    sim.run();
    let mut worst = 0.0f64;
    for s in slots {
        worst = worst.max(take(s));
    }
    worst
}

/// Runs E12 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (dsm_us, dsm_msgs, dsm_obs) = locality_dsm(140);
    let (stub_us, stub_msgs, stub_obs) = locality_proxy("stub", ProxySpec::Stub, 141);
    let (mig_us, mig_msgs, mig_obs) =
        locality_proxy("migratory", ProxySpec::Migratory { threshold: 10 }, 142);

    let mut t1 = Table::new(
        format!("scenario A — one dominant user, {OPS} ops (90% reads) on one object"),
        &["access method", "us/op", "total msgs"],
    );
    t1.add_row(vec![
        "RPC stub proxy".into(),
        format!("{stub_us:.1}"),
        stub_msgs.to_string(),
    ]);
    t1.add_row(vec![
        "migratory proxy".into(),
        format!("{mig_us:.1}"),
        mig_msgs.to_string(),
    ]);
    t1.add_row(vec![
        "DSM (map on fault)".into(),
        format!("{dsm_us:.1}"),
        dsm_msgs.to_string(),
    ]);

    let pp_dsm = pingpong_dsm(143);
    let pp_stub = pingpong_stub(144);
    let mut t2 = Table::new(
        "scenario B — two contexts alternately writing the same page/object (fine-grained sharing)"
            .to_string(),
        &["access method", "us/write (excl. think time)"],
    );
    t2.add_row(vec!["RPC stub proxy".into(), format!("{pp_stub:.0}")]);
    t2.add_row(vec!["DSM (page ping-pong)".into(), format!("{pp_dsm:.0}")]);

    let checks = vec![
        check(
            "locality: DSM beats the stub by >=10x (accesses become memory ops)",
            dsm_us * 10.0 < stub_us,
            format!("dsm {dsm_us:.1}us vs stub {stub_us:.1}us"),
        ),
        check(
            "locality: DSM ≈ migratory proxy (same idea, different mechanism)",
            dsm_us < mig_us * 1.5,
            format!("dsm {dsm_us:.1}us vs migratory {mig_us:.1}us"),
        ),
        check(
            "locality: DSM sends fewer messages than the stub",
            dsm_msgs < stub_msgs / 4,
            format!("dsm {dsm_msgs} msgs vs stub {stub_msgs}"),
        ),
        check(
            "fine-grained sharing: the page ping-pong makes DSM *worse* than RPC",
            pp_dsm > pp_stub * 1.5,
            format!("dsm {pp_dsm:.0}us/write vs stub {pp_stub:.0}us/write"),
        ),
    ];

    ExperimentOutput {
        id: "E12",
        title: "Proxies vs distributed shared memory (locality vs fine-grained sharing)",
        tables: vec![t1, t2],
        checks,
        reports: vec![dsm_obs, stub_obs, mig_obs],
        traces: vec![],
    }
}
