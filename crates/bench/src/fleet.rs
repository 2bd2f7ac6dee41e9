//! The poll-driven KV fleet E16, E17 and E20 all drive.
//!
//! Every client is an `async` body ([`Simulation::spawn_async`]) on
//! [`SessionCore`]'s non-blocking surface (`bind_async` → `poll_bind` →
//! `invoke_async` → `poll_call`): it binds to one of `shards` stub-grade
//! KV services through the name server, then alternates put/get
//! calls. A parked client costs one registry entry holding its future —
//! no stack, no thread — so the whole fleet is alive at once.

use std::future::{poll_fn, Future};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use proxy_core::{AsyncHandle, CallFuture, ProxySpec, ServiceBuilder, SessionCore};
use services::kv::KvStore;
use simnet::{AsyncCx, Endpoint, NodeId, ProcCx, RunReport, Simulation};
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

/// One client, before it runs: what its future starts from.
struct Client {
    core: SessionCore,
    shard: String,
    id: usize,
    calls: u32,
    done: u32,
    fleet: Fleet,
}

/// Bytes one parked client holds in its future: the inline part of the
/// per-process memory cost E16 reports. The `async` adapter keeps
/// nothing beside it (each poll lends the future the process's own
/// context), but the future is not all a parked client holds: its
/// service's channel, its bind ticket, its staged call, its mailbox's
/// block and its spans are on the heap. `tests/alloc_attribution.rs`
/// charges those to their callers: on the budgets fleet (64 clients × 4
/// calls) the run's high-water mark holds 2 611 B per client, servers
/// included, above the 1 566 B per client the spawned fleet starts with.
pub const STATE_BYTES: usize = output_size(&Client::run);

/// The size of what `f` returns, here a client's future.
const fn output_size<F: FnOnce(Client, AsyncCx) -> R, R>(_: &F) -> usize {
    std::mem::size_of::<R>()
}

impl Client {
    /// Binds to the client's shard, then alternates put and get, each
    /// call made as the previous one returns. Across a wait the future
    /// holds the client, in place, and the poll in hand (a ticket and a
    /// reference to the core) but nothing more: a client moved into a
    /// local, or a ticket or result left in scope, would be held too, and
    /// a parked client would outgrow the hand-written machine it was.
    #[allow(clippy::manual_async_fn)] // an `async fn` moves `self` into a local: the client twice
    fn run(mut self, cx: AsyncCx) -> impl Future<Output = ()> + Send {
        async move {
            let bound = poll_fn({
                let bind = cx.with(|cx| self.core.bind_async(cx, &self.shard));
                let core = &mut self.core;
                move |_| cx.with(|cx| core.poll_bind(cx, bind))
            });
            let Ok(h) = bound.await else {
                self.fleet.0.completed.fetch_add(1, Ordering::Relaxed);
                return;
            };
            while self.done < self.calls {
                let call = poll_fn({
                    let call = cx.with(|cx| self.next_call(cx, h));
                    let core = &mut self.core;
                    move |_| cx.with(|cx| core.poll_call(cx, call))
                });
                if call.await.is_ok() {
                    self.fleet.0.ok.fetch_add(1, Ordering::Relaxed);
                }
                self.done += 1;
            }
            self.fleet.0.completed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Starts the client's next call: a put on even turns, a get on odd.
    fn next_call(&mut self, cx: &mut ProcCx, h: AsyncHandle) -> CallFuture {
        let key = Value::str(format!("c{}/k", self.id));
        match self.done % 2 {
            0 => {
                let value = Value::str(format!("v{}", self.done));
                let args = Value::record([("key", key), ("value", value)]);
                self.core.invoke_async(cx, h, "put", args)
            }
            _ => {
                let args = Value::record([("key", key)]);
                self.core.invoke_async(cx, h, "get", args)
            }
        }
    }
}

/// A spawned fleet, ready to [`run`](Fleet::run). Holds what its clients
/// count as they go: calls that returned `Ok`, and clients that ran to
/// their end.
#[derive(Debug, Clone, Default)]
pub struct Fleet(Arc<Counts>);

/// What a fleet's clients count, in one allocation: each client holds
/// one pointer to it.
#[derive(Debug, Default)]
struct Counts {
    ok: AtomicU64,
    completed: AtomicU64,
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
        let client = Client {
            core: SessionCore::new(ns),
            shard: format!("kv{}", c % shape.shards),
            id: c,
            calls: shape.calls_per_client,
            done: 0,
            fleet: fleet.clone(),
        };
        let node = NodeId(first_client_node + (c as u32 % shape.nodes));
        sim.spawn_async(format!("c{c}"), node, move |cx| client.run(cx));
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
            ok: self.0.ok.load(Ordering::Relaxed),
            completed: self.0.completed.load(Ordering::Relaxed),
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
