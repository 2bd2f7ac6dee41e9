//! E5 — The same-context fast path.
//!
//! Encapsulation must not tax co-located callers: when client and object
//! share a context, invocation through the proxy must collapse to a
//! procedure call; on the same node, to IPC. We place the *same* object
//! at three distances and invoke it identically through the runtime.
//!
//! Expected shape: same-context ≈ 0 (no messages at all); same-node pays
//! only IPC; remote pays the full network RTT — orders of magnitude
//! apart, with client code identical in all three cases.

use naming::spawn_name_server;
use proxy_core::{ServiceBuilder, SessionCore};
use services::counter::Counter;
use simnet::{NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{check, obs_report, slot, take, us_per_op_f, ExperimentOutput, ObsReport, Table};

const OPS: u64 = 100;

#[derive(Debug, Clone, Copy)]
struct Point {
    per_op_us: f64,
    msgs: u64,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Placement {
    SameContext,
    SameNode,
    Remote,
}

fn measure(label: &str, placement: Placement, seed: u64) -> (Point, ObsReport) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    if placement != Placement::SameContext {
        let node = match placement {
            Placement::SameNode => NodeId(2), // same node as the client
            _ => NodeId(1),
        };
        ServiceBuilder::new("ctr")
            .object(|| Box::new(Counter::new()))
            .spawn(&sim, node, ns);
    }
    let (w, r) = slot::<Point>();
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let ctr = match placement {
            Placement::SameContext => rt.host_local("ctr", Box::new(Counter::new())),
            _ => rt.attach(cx, "ctr").await.unwrap(),
        };
        let before = cx.with(|cx| cx.now());
        for _ in 0..OPS {
            rt.call(cx, ctr, "inc", Value::Null).await.unwrap();
        }
        *w.lock().unwrap() = Some(Point {
            per_op_us: us_per_op_f(cx.with(|cx| cx.now()) - before, OPS),
            msgs: 0,
        });
    });
    let report = sim.run();
    let mut p = take(r);
    p.msgs = report.metrics.msgs_sent;
    (p, obs_report(label, &sim))
}

/// Runs E5 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let (local, local_obs) = measure("same-context", Placement::SameContext, 60);
    let (node, node_obs) = measure("same-node", Placement::SameNode, 61);
    let (remote, remote_obs) = measure("remote", Placement::Remote, 62);

    let mut table = Table::new(
        format!("invocation cost by placement — {OPS} increments, identical client code"),
        &["placement", "us/op", "total msgs (incl. binding)"],
    );
    table.add_row(vec![
        "same context (procedure call)".into(),
        format!("{:.2}", local.per_op_us),
        local.msgs.to_string(),
    ]);
    table.add_row(vec![
        "same node (IPC)".into(),
        format!("{:.2}", node.per_op_us),
        node.msgs.to_string(),
    ]);
    table.add_row(vec![
        "remote node (network)".into(),
        format!("{:.2}", remote.per_op_us),
        remote.msgs.to_string(),
    ]);

    let checks = vec![
        check(
            "same-context calls cost zero simulated time and zero messages",
            local.per_op_us == 0.0 && local.msgs == 0,
            format!("{:.2}us/op, {} msgs", local.per_op_us, local.msgs),
        ),
        check(
            "same-node calls pay only IPC (~20us RTT)",
            node.per_op_us < 25.0 && node.per_op_us > 15.0,
            format!("{:.2}us/op", node.per_op_us),
        ),
        check(
            "remote calls pay the network RTT (~1000us)",
            remote.per_op_us > 900.0,
            format!("{:.2}us/op", remote.per_op_us),
        ),
        check(
            "placement spread spans >=40x between IPC and network",
            remote.per_op_us / node.per_op_us >= 40.0,
            format!("ratio {:.0}x", remote.per_op_us / node.per_op_us),
        ),
    ];

    ExperimentOutput {
        id: "E5",
        title: "Same-context fast path: procedure call vs IPC vs network",
        tables: vec![table],
        checks,
        reports: vec![local_obs, node_obs, remote_obs],
        traces: vec![],
    }
}
