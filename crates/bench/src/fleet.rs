//! The poll-driven KV fleet E16, E17, E18 and E20 all drive.
//!
//! Every client is a [`simnet::Process`] state machine on
//! [`SessionCore`]'s non-blocking surface (`bind_async` → `poll_bind` →
//! `invoke_async` → `poll_call`): it binds to one of `shards` stub-grade
//! KV services through the name server, then alternates put/get
//! calls. A parked client costs one registry entry holding its own state
//! struct — no stack, no thread — so the whole fleet is alive at once.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proxy_core::{AsyncHandle, BindFuture, CallFuture, ProxySpec, ServiceBuilder, SessionCore};
use services::kv::KvStore;
use simnet::{Endpoint, NodeId, Poll, ProcCx, Process, RunReport, Simulation};
use wire::Value;

use crate::per_sec;

/// How big a fleet is and how it is spread.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Poll-driven clients, all alive simultaneously.
    pub clients: usize,
    /// Alternating put/get calls each client makes.
    pub calls_per_client: u32,
    /// Stub-grade KV services, one node each; client `c` binds `c % shards`.
    pub shards: usize,
    /// Nodes the clients are spread over.
    pub nodes: u32,
}

impl Shape {
    /// Calls the whole fleet makes.
    pub fn total_calls(&self) -> u64 {
        self.clients as u64 * u64::from(self.calls_per_client)
    }
}

/// Where a poll-driven client is in its lifecycle.
enum ClientState {
    Start,
    Binding(BindFuture),
    Calling(AsyncHandle, CallFuture),
    Done,
}

/// One client. Everything the client *is* lives in this struct — its
/// size ([`STATE_BYTES`]) is the per-process memory cost E16 reports.
struct ClientProc {
    core: SessionCore,
    state: ClientState,
    shard: String,
    id: usize,
    calls_target: u32,
    calls_done: u32,
    fleet: Fleet,
}

/// Bytes of machine state one parked client holds.
pub const STATE_BYTES: usize = std::mem::size_of::<ClientProc>();

impl ClientProc {
    fn next_call(&mut self, cx: &mut ProcCx, h: AsyncHandle) {
        let key = format!("c{}/k", self.id);
        let f = if self.calls_done.is_multiple_of(2) {
            self.core.invoke_async(
                cx,
                h,
                "put",
                Value::record([
                    ("key", Value::str(key)),
                    ("value", Value::str(format!("v{}", self.calls_done))),
                ]),
            )
        } else {
            self.core
                .invoke_async(cx, h, "get", Value::record([("key", Value::str(key))]))
        };
        self.state = ClientState::Calling(h, f);
    }
}

impl Process for ClientProc {
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        loop {
            match self.state {
                ClientState::Start => {
                    let f = self.core.bind_async(cx, &self.shard);
                    self.state = ClientState::Binding(f);
                }
                ClientState::Binding(f) => match self.core.poll_bind(cx, f) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(Ok(h)) => self.next_call(cx, h),
                    Poll::Ready(Err(_)) => {
                        self.state = ClientState::Done;
                    }
                },
                ClientState::Calling(h, f) => match self.core.poll_call(cx, f) {
                    Poll::Pending => return Poll::Pending,
                    Poll::Ready(r) => {
                        if r.is_ok() {
                            self.fleet.ok.fetch_add(1, Ordering::Relaxed);
                        }
                        self.calls_done += 1;
                        if self.calls_done < self.calls_target {
                            self.next_call(cx, h);
                        } else {
                            self.state = ClientState::Done;
                        }
                    }
                },
                ClientState::Done => {
                    self.fleet.completed.fetch_add(1, Ordering::Relaxed);
                    return Poll::Ready(());
                }
            }
        }
    }
}

/// A spawned fleet, ready to [`run`](Fleet::run). Holds what its clients
/// count as they go: calls that returned `Ok`, and clients that ran to
/// their end.
#[derive(Debug, Clone, Default)]
pub struct Fleet {
    ok: Arc<AtomicU64>,
    completed: Arc<AtomicU64>,
}

/// Spawns the fleet: `shape.shards` KV services on the nodes from
/// `first_node` up, each registered with the name server at `ns`, then
/// the clients round-robin over the `shape.nodes` nodes after those.
pub fn spawn(sim: &Simulation, shape: Shape, ns: Endpoint, first_node: u32) -> Fleet {
    for s in 0..shape.shards {
        ServiceBuilder::new(format!("kv{s}"))
            .spec(ProxySpec::Stub)
            .object(|| Box::new(KvStore::new()))
            .spawn(sim, NodeId(first_node + s as u32), ns);
    }
    let fleet = Fleet::default();
    let first_client_node = first_node + shape.shards as u32;
    for c in 0..shape.clients {
        sim.spawn_poll(
            format!("c{c}"),
            NodeId(first_client_node + (c as u32 % shape.nodes)),
            ClientProc {
                core: SessionCore::new(ns),
                state: ClientState::Start,
                shard: format!("kv{}", c % shape.shards),
                id: c,
                calls_target: shape.calls_per_client,
                calls_done: 0,
                fleet: fleet.clone(),
            },
        );
    }
    fleet
}

/// One finished run of a fleet.
#[derive(Debug)]
pub struct Run {
    /// Host time `Simulation::run` took. Host-dependent.
    pub wall: Duration,
    /// Calls that returned `Ok`.
    pub ok: u64,
    /// Clients that ran to their end.
    pub completed: u64,
    /// The simulator's own account of the run.
    pub report: RunReport,
}

impl Fleet {
    /// Runs the simulation to quiescence.
    pub fn run(&self, sim: &mut Simulation) -> Run {
        let t0 = Instant::now();
        let report = sim.run();
        Run {
            wall: t0.elapsed(),
            ok: self.ok.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            report,
        }
    }
}

impl Run {
    /// Scheduler events dispatched.
    pub fn events(&self) -> u64 {
        self.report.metrics.events_dispatched
    }

    /// Events per second of host time. Host-dependent.
    pub fn events_per_sec(&self) -> f64 {
        per_sec(self.events(), self.wall)
    }

    /// Simulated milliseconds the run covered.
    pub fn sim_ms(&self) -> f64 {
        self.report.end_time.as_nanos() as f64 / 1e6
    }

    /// Every deterministic counter of the run on one line: two runs that
    /// did the same simulated work produce the same string.
    pub fn summary(&self) -> String {
        let m = &self.report.metrics;
        format!(
            "end={} sent={} delivered={} events={} spawned={} peak={} finished={} alive={}",
            self.report.end_time.as_nanos(),
            m.msgs_sent,
            m.msgs_delivered,
            m.events_dispatched,
            m.processes_spawned,
            m.processes_peak,
            self.report.finished,
            self.report.alive
        )
    }
}
