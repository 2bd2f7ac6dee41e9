//! E11 — Failure transparency: crash recovery behind the proxy.
//!
//! An extension experiment (the SOS system the paper came from treated
//! objects as persistent). A checkpointing service is killed mid-
//! workload and restarted from its node's stable storage; the client —
//! same proxy, no special code — rides through the outage via the
//! binding protocol's re-resolution path.
//!
//! We sweep the checkpoint interval and report the durability cost
//! (writes lost at the crash) against the runtime cost (checkpoints
//! written). Expected shape: lost writes are bounded by the interval;
//! checkpoint count scales inversely with it; the client always
//! reconverges with exactly one rebind.

use std::collections::BTreeMap;
use std::time::Duration;

use naming::spawn_name_server;
use proxy_core::{
    CheckpointPolicy, InterfaceDesc, OpDesc, ServiceBuilder, ServiceObject, SessionCore,
    StableStore,
};
use rpc::{ErrorCode, RemoteError, RpcError};
use simnet::{Ctx, NetworkConfig, NodeId, Simulation};
use wire::Value;

use crate::{
    capture_trace, check, obs_report, slot, take, ExperimentOutput, ObsReport, Table, TraceArtifact,
};

const WRITES_BEFORE_CRASH: u64 = 23;

#[derive(Debug, Default)]
struct Ledger(BTreeMap<String, String>);

impl Ledger {
    fn from_snapshot(v: &Value) -> Result<Box<dyn ServiceObject>, RemoteError> {
        let mut l = Ledger::default();
        if let Some(fields) = v.as_record() {
            for (k, val) in fields {
                if let Some(s) = val.as_str() {
                    l.0.insert(k.to_string_owned(), s.to_owned());
                }
            }
        }
        Ok(Box::new(l))
    }
}

impl ServiceObject for Ledger {
    fn interface(&self) -> InterfaceDesc {
        InterfaceDesc::new(
            "ledger",
            [OpDesc::read("get", "key"), OpDesc::write("put", "key")],
        )
    }
    fn dispatch(&mut self, _ctx: &mut Ctx, op: &str, args: &Value) -> Result<Value, RemoteError> {
        let key = args
            .get_str("key")
            .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
        match op {
            "get" => Ok(self
                .0
                .get(key)
                .map(|v| Value::str(v.clone()))
                .unwrap_or(Value::Null)),
            "put" => {
                let v = args
                    .get_str("value")
                    .map_err(|e| RemoteError::new(ErrorCode::BadArgs, e.to_string()))?;
                self.0.insert(key.to_owned(), v.to_owned());
                Ok(Value::Null)
            }
            other => Err(RemoteError::new(ErrorCode::NoSuchOp, other.to_owned())),
        }
    }
    fn snapshot(&self) -> Result<Value, RemoteError> {
        Ok(Value::record(
            self.0
                .iter()
                .map(|(k, v)| (k.clone(), Value::str(v.clone()))),
        ))
    }
}

/// The ledger service: every incarnation is spawned from this recipe,
/// and starts from whatever checkpoint its node's store holds.
fn ledger(store: &StableStore, interval: u64) -> ServiceBuilder {
    ServiceBuilder::new("ledger")
        .factories(proxy_core::FactoryRegistry::new().register("ledger", Ledger::from_snapshot))
        .recovered(CheckpointPolicy::every(store.clone(), interval))
        .object(|| Box::<Ledger>::default())
}

#[derive(Debug, Clone, Copy)]
struct Point {
    lost_writes: u64,
    rebinds: u64,
    outage_us: f64,
}

fn measure(interval: u64, seed: u64) -> (Point, ObsReport, TraceArtifact) {
    let mut sim = Simulation::new(NetworkConfig::lan(), seed);
    let ns = spawn_name_server(&sim, NodeId(0));
    let store = StableStore::new();
    let incarnation = ledger(&store, interval).spawn(&sim, NodeId(1), ns);
    let (w, r) = slot::<Point>();
    sim.spawn_async("client", NodeId(2), move |cx| async move {
        let mut rt = SessionCore::new(ns);
        let h = rt.attach(cx, "ledger").await.unwrap();
        for i in 0..WRITES_BEFORE_CRASH {
            let args = Value::record([
                ("key", Value::str(format!("k{i}"))),
                ("value", Value::str("v")),
            ]);
            rt.call(cx, h, "put", args).await.unwrap();
        }

        // Crash & restart from the checkpoint.
        let t_down = cx.with(|cx| {
            assert!(cx.kill(incarnation));
            let t_down = cx.now();
            ledger(&store, interval).spawn_from(cx, NodeId(1), ns);
            t_down
        });
        cx.sleep(Duration::from_millis(5)).await.unwrap();

        // First call after the crash rides through the rebind path.
        let before = rt.stats(h).rebinds;
        let mut lost = 0u64;
        for i in 0..WRITES_BEFORE_CRASH {
            let get = || Value::record([("key", Value::str(format!("k{i}")))]);
            let v = match rt.call(cx, h, "get", get()).await {
                Ok(v) => v,
                Err(RpcError::Timeout { .. }) => {
                    // One extra settle round if the re-registration raced.
                    cx.sleep(Duration::from_millis(5)).await.unwrap();
                    rt.call(cx, h, "get", get()).await.unwrap()
                }
                Err(e) => panic!("unexpected: {e}"),
            };
            if v == Value::Null {
                lost += 1;
            }
        }
        let outage_us = (cx.with(|cx| cx.now()) - t_down).as_secs_f64() * 1e6;
        *w.lock().unwrap() = Some(Point {
            lost_writes: lost,
            rebinds: rt.stats(h).rebinds - before,
            outage_us,
        });
    });
    sim.enable_trace(1 << 16);
    sim.run();
    let label = format!("checkpoint-every-{interval}");
    (
        take(r),
        obs_report(label.clone(), &sim),
        capture_trace(label, &sim),
    )
}

/// Runs E11 and returns its tables and shape checks.
pub fn run() -> ExperimentOutput {
    let intervals = [1u64, 2, 5, 10, 25];
    let mut table = Table::new(
        format!(
            "crash after {WRITES_BEFORE_CRASH} writes, restart from checkpoint — interval sweep"
        ),
        &[
            "checkpoint every",
            "writes lost",
            "client rebinds",
            "time to reconverge us",
        ],
    );
    let mut pts = Vec::new();
    let mut reports = Vec::new();
    let mut traces = Vec::new();
    for (i, &n) in intervals.iter().enumerate() {
        let (p, obs, trace) = measure(n, 130 + i as u64);
        // One representative report, and its trace: the crash's timeout,
        // relookup and rebind.
        if n == 5 {
            reports.push(obs);
            traces.push(trace);
        }
        table.add_row(vec![
            format!("{n} writes"),
            p.lost_writes.to_string(),
            p.rebinds.to_string(),
            format!("{:.0}", p.outage_us),
        ]);
        pts.push((n, p));
    }

    let checks = vec![
        check(
            "lost writes are bounded by the checkpoint interval",
            pts.iter().all(|(n, p)| p.lost_writes < *n),
            format!(
                "lost by interval: {:?}",
                pts.iter()
                    .map(|(n, p)| (*n, p.lost_writes))
                    .collect::<Vec<_>>()
            ),
        ),
        check(
            "checkpoint-every-write loses nothing",
            pts[0].1.lost_writes == 0,
            format!("interval 1: {} lost", pts[0].1.lost_writes),
        ),
        check(
            "durability degrades monotonically with the interval",
            pts.windows(2)
                .all(|w| w[1].1.lost_writes >= w[0].1.lost_writes),
            "lost writes non-decreasing in interval".to_string(),
        ),
        check(
            "the client reconverges with at most one rebind",
            pts.iter().all(|(_, p)| p.rebinds <= 1),
            format!(
                "rebinds: {:?}",
                pts.iter().map(|(_, p)| p.rebinds).collect::<Vec<_>>()
            ),
        ),
    ];

    ExperimentOutput {
        id: "E11",
        title: "Failure transparency: crash recovery behind an unchanged proxy (extension)",
        tables: vec![table],
        checks,
        reports,
        traces,
    }
}
