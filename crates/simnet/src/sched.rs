//! The deterministic scheduler and the process API.
//!
//! # Execution model
//!
//! Every simulated process is a [`Process`]: a state machine the
//! scheduler polls in event order, on the thread running its domain,
//! whenever one of its wake conditions fires (its first instant, a
//! delivery, a timer it armed), and which parks by returning
//! [`Poll::Pending`]. A parked process is one entry in its domain's
//! process table; how it executes is invisible to the scheduler. Three
//! spawn calls make one:
//!
//! * [`Simulation::spawn_poll`] takes a hand-written machine. Parked, it
//!   costs its own struct and no stack at all (see the
//!   [`poll`](crate::poll) module). The name server is written so.
//! * [`Simulation::spawn_async`] takes a future, whose machine the
//!   compiler writes: as cheap parked, as natural to write as a blocking
//!   body (see the [`task`](crate::task) module), so simulations scale to
//!   hundreds of thousands of concurrent processes (experiment E16).
//!   Server contexts are written this way.
//! * [`Simulation::spawn`] takes ordinary blocking Rust code against a
//!   [`Ctx`], on a stack of its own. The machine polled for it resumes
//!   the stack until the body blocks again (in [`Ctx::recv`],
//!   [`Ctx::sleep`], …), then parks the way a machine waiting for the
//!   same thing would (see `body.rs`), so the two dispatch the same
//!   events. On x86-64 Linux the stack is a coroutine's — a private
//!   2 MiB mapping switched to and from in user space, on the thread
//!   running the body's domain — so a poll costs two register swaps and
//!   a parked body costs the stack pages it has touched. Every other
//!   target gives each body an OS thread and hands off through two
//!   channels; nothing but the cost differs. Natural to write — clients
//!   and experiment logic use it.
//!
//!   What a body may rely on and what it may not: it is only ever
//!   resumed on the OS thread that started it (the scheduler runs a
//!   domain's rounds *and its shutdown* on one fixed thread, and the
//!   hand-off checks), so thread-locals and non-`Send` values may live
//!   across a blocking call; it shares that thread's thread-locals with
//!   the scheduler and the domain's other processes; overflowing its
//!   stack is a bare `SIGSEGV` on the guard page; and a destructor that
//!   blocks while the body is unwinding from a panic hands control to a
//!   scheduler whose thread reports `std::thread::panicking()`.
//!
//! # Domains
//!
//! The event queue is sharded into **domains**: nodes are partitioned
//! round-robin (`node % ndomains`, see [`Simulation::with_domains`]) and
//! each domain owns its own virtual clock, event heap, tie-breaking
//! sequence counter, RNG stream, trace ring, process table, id counters
//! and outbox, under one mutex. A round locks only its own domain (debug
//! builds check it); the only shared state it touches is the network
//! `RwLock`, the metrics atomics and its own obs lane. Domains advance in
//! *barrier rounds* under conservative lookahead: each round computes
//! the global minimum event time and lets every domain execute events up
//! to `min cross-domain link latency` past it; cross-domain effects
//! (message deliveries, spawns, kills) are buffered in per-source
//! outboxes and merged at the barrier in `(time, src domain, send
//! order)` order, with fresh target-local sequence numbers. The thread
//! that calls [`Simulation::run_until`] runs every domain's round itself,
//! in index order. Because the merge order and every per-domain decision
//! are functions of the seed and the topology alone, that order is
//! invisible: a round touches no other domain's state, and what it sends
//! across waits in its outbox for the merge. The locks stay because a
//! blocking body on a target without coroutines runs on an OS thread of
//! its own and reaches its domain through its [`Ctx`].
//!
//! With the default single domain the round structure degenerates to
//! exactly the classic sequential loop: one heap, one clock, one RNG
//! drawn in event order — same seed, same interleaving, same results.
//!
//! Within one domain at most one process runs at any instant, and all
//! of a domain's randomness comes from its own seeded RNG drawn in
//! event order. Caveats that come with multiple domains are documented
//! on the relevant methods: cross-domain [`Ctx::spawn`]/[`Ctx::kill`]
//! take effect one lookahead later, and mutating the network topology
//! from *inside* a multi-domain simulation mid-round is detectably
//! unsafe (see `sched_time_inversions`) rather than silently wrong.
//!
//! This is the repo's substitute for the paper's testbed of Unix processes
//! on a LAN (see `DESIGN.md` §6): client processes can keep the natural
//! blocking style of real code, while the network in between is
//! simulated and fault-injectable.

use std::cell::{Cell, OnceCell};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use bytes::Bytes;
use parking_lot::{Mutex, MutexGuard, RwLock, RwLockWriteGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::{Endpoint, NodeId, PortId, ProcId};
use crate::awaited::{Awaited, AwaitedIds};
use crate::body::Body;
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::coro::Yielder;
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::msg::Message;
use crate::net::{Fate, Network, NetworkConfig};
use crate::poll::{Poll, ProcCx, Process};
use crate::task::{Async, AsyncCx};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
use crate::thread_handoff::Yielder;
use crate::time::{duration_to_nanos, SimTime};
use crate::trace::{Trace, TraceDump, TraceEvent, TraceRecord};

/// Error returned by blocking [`Ctx`] operations once the simulation is
/// shutting down. A process receiving `Stopped` should return promptly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stopped;

impl std::fmt::Display for Stopped {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "simulation stopped")
    }
}

impl std::error::Error for Stopped {}

/// Extracts a displayable message from a caught panic payload.
pub(crate) fn panic_message(p: &(dyn std::any::Any + Send)) -> String {
    p.downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| p.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "<non-string panic>".to_string())
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    NotStarted,
    /// Parked deaf until a timer ([`ProcCx::sleep_until`]).
    Sleeping,
    /// The last poll returned `Pending`: a delivery or the armed timer
    /// wakes it.
    Parked,
    Finished,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct EvKey {
    time: SimTime,
    seq: u64,
}

enum EvKind {
    Wake(ProcId),
    Timeout {
        pid: ProcId,
        gen: u64,
    },
    Deliver {
        msg: Message,
    },
    Kill(ProcId),
    /// Deferred registration of a process spawned from *another* domain:
    /// the entry (and its endpoint binding) materializes at this instant
    /// in the target domain's own timeline, so concurrent deliveries and
    /// binds in the target can never race the registration.
    ApplySpawn {
        pid: ProcId,
        endpoint: Endpoint,
        entry: Box<ProcEntry>,
    },
    /// Deferred cross-domain kill: unbind + teardown runs at this
    /// instant in the victim's domain.
    RemoteKill {
        target: Endpoint,
    },
}

struct Ev {
    key: EvKey,
    kind: EvKind,
}

impl PartialEq for Ev {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Ev {}
impl PartialOrd for Ev {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ev {
    // Reversed: BinaryHeap is a max-heap, we want earliest-first.
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.key.cmp(&self.key)
    }
}

/// A process's state machine plus its per-process context.
struct PolledMachine {
    process: Box<dyn Process>,
    cx: ProcCx,
}

struct ProcEntry {
    name: String,
    mailbox: VecDeque<Message>,
    state: ProcState,
    /// Incremented every time the process parks; stale timeout events
    /// carry an older generation and are ignored.
    gen: u64,
    /// Taken out of the process table while being polled, so no lock is
    /// held during user code, and put back if the poll returns
    /// `Pending`; gone once the process has finished.
    machine: Option<PolledMachine>,
    panic_msg: Option<String>,
}

/// One domain's share of the scheduler: its virtual clock, pending-event
/// heap, tie-breaking sequence counter, RNG stream, trace ring, process
/// table, id counters, outbox and process-accounting ledger — everything
/// a round touches, under ONE mutex per domain. Only the domain's own
/// round (or the driving thread between rounds) takes it, so the round
/// loop pops the next event and advances time in a single uncontended
/// acquisition, and no observer can see a clock out of step with the
/// heap it was derived from.
struct DomainState {
    now: SimTime,
    events: BinaryHeap<Ev>,
    seq: u64,
    /// This domain's deterministic RNG stream. Domain 0 is seeded with
    /// the simulation seed itself (so a single-domain run draws exactly
    /// the classic sequence); further domains derive their stream from
    /// the seed and the domain index.
    rng: StdRng,
    /// This domain's slice of the timeline; merged on
    /// [`Simulation::take_trace`] by `(time, domain, push order)`.
    trace: Option<Trace>,
    /// The processes on this domain's nodes, and the endpoint each one
    /// is bound to (one per process).
    procs: HashMap<ProcId, ProcEntry>,
    endpoints: HashMap<Endpoint, ProcId>,
    /// Pids this domain has handed out, and ephemeral ports per node.
    /// Ids are striped by the *allocating* domain — `id = count ·
    /// ndomains + domain` — so domains mint disjoint sequences, each
    /// deterministic in its own execution order. With one domain this is
    /// the classic sequential counter.
    next_proc: u32,
    next_ephemeral: HashMap<NodeId, u32>,
    /// Cross-domain events this domain's execution produced this round,
    /// in send order; the barrier drains every outbox and merges them.
    outbox: Vec<OutboundEv>,
    /// Net spawn-minus-finish delta accumulated this round.
    round_delta: i64,
    /// Maximum prefix value of `round_delta` this round — the domain's
    /// contribution to the deterministic `processes_peak` upper bound.
    round_rise: i64,
    /// Wall nanoseconds this domain spent popping + dispatching events
    /// this round (host-dependent; only accumulated while the profiler
    /// is on).
    round_busy_ns: u64,
}

impl DomainState {
    fn new(d: usize, seed: u64) -> DomainState {
        // Domain 0 draws the exact stream a 1-domain simulation draws;
        // the golden-ratio multiplier decorrelates the other streams.
        let rng_seed = if d == 0 {
            seed
        } else {
            seed.wrapping_add((d as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        };
        DomainState {
            now: SimTime::ZERO,
            events: BinaryHeap::new(),
            seq: 0,
            rng: StdRng::seed_from_u64(rng_seed),
            trace: None,
            procs: HashMap::new(),
            endpoints: HashMap::new(),
            next_proc: 0,
            next_ephemeral: HashMap::new(),
            outbox: Vec::new(),
            round_delta: 0,
            round_rise: 0,
            round_busy_ns: 0,
        }
    }

    /// Enqueues an event into this domain's heap with a fresh
    /// domain-local sequence number.
    fn push_event(&mut self, time: SimTime, kind: EvKind) {
        self.seq += 1;
        let key = EvKey {
            time,
            seq: self.seq,
        };
        self.events.push(Ev { key, kind });
    }

    /// Appends the event `event` builds to the trace ring at the
    /// domain's current instant; an untraced domain never calls `event`.
    fn record(&mut self, span: obs::SpanId, event: impl FnOnce() -> TraceEvent) {
        let at = self.now;
        if let Some(trace) = self.trace.as_mut() {
            trace.push(TraceRecord {
                at,
                span,
                event: event(),
            });
        }
    }
}

/// Pre-formatted flight-recorder series names for one domain, so the
/// per-event hot path never allocates. Single-domain simulations keep
/// the classic un-suffixed names; multi-domain ones get `@d<i>`.
struct DomainSeries {
    lag: String,
    depth: String,
    /// Folded-stack frame paths for the domain's share of the exec
    /// phase (its own wall busy time, and its share of the rest).
    busy_frame: String,
    stall_frame: String,
}

impl DomainSeries {
    fn new(d: usize, ndomains: usize) -> DomainSeries {
        if ndomains == 1 {
            DomainSeries {
                lag: "sched_lag".to_string(),
                depth: "sched_depth".to_string(),
                busy_frame: "sched;round;exec;busy".to_string(),
                stall_frame: "sched;round;exec;stall".to_string(),
            }
        } else {
            DomainSeries {
                lag: format!("sched_lag@d{d}"),
                depth: format!("sched_depth@d{d}"),
                busy_frame: format!("sched;round;exec;busy@d{d}"),
                stall_frame: format!("sched;round;exec;stall@d{d}"),
            }
        }
    }
}

/// A cross-domain event parked in its source domain's outbox until the
/// round barrier merges it into the target heap.
struct OutboundEv {
    dst: usize,
    time: SimTime,
    kind: EvKind,
}

/// One scheduling domain: its state, and the series names it reports
/// under.
struct Domain {
    state: Mutex<DomainState>,
    series: DomainSeries,
}

thread_local! {
    /// The `(simulation, domain)` whose round or shutdown this thread is
    /// executing, if any: what the debug ownership check in
    /// [`Shared::dom`] compares against.
    static RUNNING: Cell<Option<(*const Shared, usize)>> = const { Cell::new(None) };
}

/// Marks this thread as executing one domain's round (or shutdown)
/// until dropped.
struct Running(Option<(*const Shared, usize)>);

impl Running {
    fn enter(shared: &Shared, d: usize) -> Running {
        Running(RUNNING.replace(Some((shared, d))))
    }
}

impl Drop for Running {
    fn drop(&mut self) {
        RUNNING.set(self.0);
    }
}

struct Shared {
    domains: Box<[Domain]>,
    /// The current round's conservative lookahead in nanoseconds
    /// (`u64::MAX` for a single domain). Deferred cross-domain effects
    /// (spawn/kill) are timestamped `now + lookahead` so they land at or
    /// beyond the round horizon in the target's timeline.
    round_lookahead_ns: AtomicU64,
    /// Whether [`Simulation::enable_trace`] installed the trace rings.
    /// Relaxed: it guards no data (the rings sit under the domain
    /// mutexes); it only lets an untraced run skip building the event
    /// and locking a domain to find no ring there.
    tracing: AtomicBool,
    network: RwLock<Network>,
    metrics: Arc<Metrics>,
    obs: Arc<obs::MetricsRegistry>,
    /// RNG seed the simulation was built with, stamped into report
    /// provenance so artifacts from different seeds are never compared.
    seed: u64,
}

impl Shared {
    fn ndomains(&self) -> usize {
        self.domains.len()
    }

    /// The domain a node's processes and events belong to.
    fn domain_of(&self, node: NodeId) -> usize {
        node.0 as usize % self.domains.len()
    }

    /// The one way to a domain's state. A round owns its domain: in
    /// debug builds, the round (or shutdown) of domain `e` asking for
    /// domain `d ≠ e` panics. The barrier merge and the driving thread
    /// between rounds run outside every round and may touch any domain.
    fn dom(&self, d: usize) -> MutexGuard<'_, DomainState> {
        if cfg!(debug_assertions) {
            if let Some((sim, own)) = RUNNING.get() {
                assert!(
                    own == d || !std::ptr::eq(sim, self),
                    "simnet: domain {own}'s round touched domain {d}'s state"
                );
            }
        }
        self.domains[d].state.lock()
    }

    fn domain_now(&self, d: usize) -> SimTime {
        self.dom(d).now
    }

    /// The most advanced domain clock — what an outside observer calls
    /// "now". With one domain this is the classic scheduler clock.
    fn max_now(&self) -> SimTime {
        (0..self.ndomains())
            .map(|d| self.domain_now(d))
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Records the event `event` builds in domain `d`'s trace ring at
    /// that domain's current instant; an untraced run never calls
    /// `event`. It runs before the domain is locked (building an event
    /// may read the clock); one lock acquisition then covers the
    /// timestamp and the push, so the two can never drift apart.
    fn record(&self, d: usize, span: obs::SpanId, event: impl FnOnce() -> TraceEvent) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        let event = event();
        self.dom(d).record(span, || event);
    }

    /// Plans delivery for a payload and enqueues the resulting events.
    /// `span` is the causal span the send happens on behalf of; it
    /// rides along in the [`Message`] so the delivery (or loss) trace
    /// event stays attributed to the request.
    ///
    /// All random draws (loss, duplication, jitter) come from the
    /// *sending* domain's RNG stream, in that domain's execution order —
    /// the target domain's stream is untouched, which is what keeps the
    /// fate of every message independent of how rounds interleave.
    fn send(&self, src: Endpoint, dst: Endpoint, payload: Bytes, span: obs::SpanId) {
        let sd = self.domain_of(src.node);
        let dd = self.domain_of(dst.node);
        self.metrics.on_send(payload.len());
        // Lock order: network before domain, never the reverse.
        let net = self.network.read();
        let mut st = self.dom(sd);
        let now = st.now;
        // Per-link wire bytes for the flight recorder. The enabled check
        // is one relaxed load; the series-name formatting only happens
        // when someone is recording.
        if self.obs.timeseries_enabled() {
            self.obs.ts_add(
                now.as_nanos(),
                &format!("link_bytes@n{}->n{}", src.node.0, dst.node.0),
                payload.len() as u64,
            );
        }
        st.record(span, || {
            TraceEvent::Net(obs::NetEventKind::Sent {
                src: src.into(),
                dst: dst.into(),
                bytes: payload.len() as u64,
            })
        });
        match net.plan(src.node, dst.node, payload.len(), now, &mut st.rng) {
            Fate::Deliver(times) => {
                if times.len() > 1 {
                    self.metrics.on_duplicate();
                }
                for t in times {
                    let kind = EvKind::Deliver {
                        msg: Message {
                            src,
                            dst,
                            payload: payload.clone(),
                            sent_at: now,
                            delivered_at: t,
                            span,
                        },
                    };
                    if dd == sd {
                        st.push_event(t, kind);
                    } else {
                        // Cross-domain: park in the source outbox; the
                        // round barrier merges outboxes in (time, src
                        // domain, send order) order.
                        st.outbox.push(OutboundEv {
                            dst: dd,
                            time: t,
                            kind,
                        });
                    }
                }
            }
            Fate::Dropped => {
                self.metrics.on_drop();
                st.record(span, || {
                    TraceEvent::Net(obs::NetEventKind::Dropped {
                        src: src.into(),
                        dst: dst.into(),
                    })
                });
            }
            Fate::Blackholed => {
                self.metrics.on_blackhole();
                st.record(span, || {
                    TraceEvent::Net(obs::NetEventKind::Blackholed {
                        src: src.into(),
                        dst: dst.into(),
                    })
                });
            }
        }
    }

    fn pop_mailbox(&self, d: usize, pid: ProcId) -> Option<Message> {
        self.dom(d)
            .procs
            .get_mut(&pid)
            .and_then(|e| e.mailbox.pop_front())
    }

    /// Allocates a pid and the primary endpoint for a new process from
    /// domain `stripe`'s counters: the spawner's domain for an in-round
    /// spawn, the target's for one from the driving thread. The endpoint
    /// is *not* bound here — binding happens at registration time, in
    /// the target domain's timeline.
    fn alloc_proc(&self, stripe: usize, node: NodeId, port: Option<PortId>) -> (ProcId, Endpoint) {
        if let Some(p) = port {
            assert!(
                !p.is_ephemeral(),
                "explicitly bound ports must be below PortId::EPHEMERAL_BASE, got {p}"
            );
        }
        let nd = self.ndomains() as u32;
        let s = stripe as u32;
        let mut st = self.dom(stripe);
        let pid = ProcId(st.next_proc * nd + s);
        st.next_proc += 1;
        let port = port.unwrap_or_else(|| {
            let c = st.next_ephemeral.entry(node).or_insert(0);
            let port = PortId(PortId::EPHEMERAL_BASE + *c * nd + s);
            *c += 1;
            port
        });
        (pid, Endpoint::new(node, port))
    }

    /// Records the spawn, binds the endpoint, inserts the entry and
    /// schedules the first wake — all in domain `d`'s timeline.
    /// `in_round` distinguishes spawns made by running processes from
    /// out-of-round spawns made by the driving thread between rounds.
    fn register_proc(
        &self,
        d: usize,
        pid: ProcId,
        endpoint: Endpoint,
        entry: ProcEntry,
        in_round: bool,
    ) {
        let mut st = self.dom(d);
        st.record(obs::SpanId::NONE, || TraceEvent::Spawned {
            pid,
            name: entry.name.clone(),
            endpoint,
        });
        assert!(
            !st.endpoints.contains_key(&endpoint),
            "endpoint {endpoint} already bound"
        );
        st.endpoints.insert(endpoint, pid);
        st.procs.insert(pid, entry);
        self.note_proc_spawned(&mut st, in_round);
        // Start the process at the domain's current instant.
        let now = st.now;
        st.push_event(now, EvKind::Wake(pid));
    }

    /// Updates process-count metrics for a spawn landing in the domain
    /// whose state is `st`.
    ///
    /// Single-domain simulations take the classic exact path (`peak`
    /// updated inline). In a multi-domain round the order the domains
    /// run in must not show, so in-round spawns only bump counters and a
    /// per-domain ledger; the round barrier folds the ledgers into a
    /// deterministic *upper bound* on the peak (see `finish_round`).
    /// Out-of-round spawns (from the driving thread, nothing else
    /// running) still take the exact path.
    fn note_proc_spawned(&self, st: &mut DomainState, in_round: bool) {
        if self.ndomains() == 1 {
            self.metrics.on_proc_spawn();
            return;
        }
        if in_round {
            self.metrics.on_proc_spawn_counts();
        } else {
            // Out-of-round: no other domain is executing, the global
            // live count is exact — keep the classic peak fold.
            self.metrics.on_proc_spawn();
        }
        st.round_delta += 1;
        st.round_rise = st.round_rise.max(st.round_delta);
    }

    /// Process-count bookkeeping for a process that finished or was
    /// killed in domain `d`.
    fn note_proc_finished(&self, d: usize) {
        self.metrics.on_proc_finish();
        if self.ndomains() > 1 {
            self.dom(d).round_delta -= 1;
        }
    }

    /// The one spawn path: allocates the process's pid and endpoint,
    /// builds its context, and registers the machine `make` builds
    /// against that context (see [`Shared::commit_spawn`]).
    fn spawn_proc(
        self: &Arc<Self>,
        spawner: Option<usize>,
        name: String,
        node: NodeId,
        port: Option<PortId>,
        make: impl FnOnce(&Ctx) -> Box<dyn Process>,
    ) -> Endpoint {
        let target = self.domain_of(node);
        let (pid, endpoint) = self.alloc_proc(spawner.unwrap_or(target), node, port);
        let ctx = Ctx::new(pid, name.clone(), endpoint, target, Arc::clone(self));
        let process = make(&ctx);
        let entry = ProcEntry {
            name,
            mailbox: VecDeque::new(),
            state: ProcState::NotStarted,
            gen: 0,
            machine: Some(PolledMachine {
                process,
                cx: ProcCx::new(ctx),
            }),
            panic_msg: None,
        };
        self.commit_spawn(spawner, target, pid, endpoint, entry);
        endpoint
    }

    /// Parks `kind` in domain `s`'s outbox for domain `dst`, one
    /// lookahead past `s`'s clock: the earliest instant `dst` can
    /// causally observe anything from `s`'s current round.
    fn defer(&self, s: usize, dst: usize, kind: EvKind) {
        let la = self.round_lookahead_ns.load(Ordering::Relaxed);
        let mut st = self.dom(s);
        let time = SimTime::from_nanos(st.now.as_nanos().saturating_add(la));
        st.outbox.push(OutboundEv { dst, time, kind });
    }

    /// Registers a freshly built process entry. Same-domain (and
    /// out-of-round) spawns register immediately, exactly like the
    /// sequential scheduler. A spawn *from another domain's execution*
    /// is instead shipped through the outbox as an `ApplySpawn` that
    /// lands one lookahead later in the target's timeline.
    fn commit_spawn(
        &self,
        spawner: Option<usize>,
        target: usize,
        pid: ProcId,
        endpoint: Endpoint,
        entry: ProcEntry,
    ) {
        match spawner {
            Some(s) if s != target => self.defer(
                s,
                target,
                EvKind::ApplySpawn {
                    pid,
                    endpoint,
                    entry: Box::new(entry),
                },
            ),
            _ => self.register_proc(target, pid, endpoint, entry, spawner.is_some()),
        }
    }

    /// Schedules a crash of the process owning `target`. Same-domain
    /// kills unbind the endpoint and schedule the `Kill` at the current
    /// instant, exactly like the sequential scheduler. A kill *from
    /// another domain's execution* takes effect one lookahead later in
    /// the victim's timeline and optimistically returns `true` (the
    /// caller cannot observe the victim's state without crossing the
    /// same latency anyway).
    fn request_kill(&self, from: usize, target: Endpoint) -> bool {
        let td = self.domain_of(target.node);
        if from == td {
            return self.kill_local(td, target);
        }
        self.defer(from, td, EvKind::RemoteKill { target });
        true
    }

    /// Kill running in the victim's own domain: unbind its endpoint,
    /// clear the mailbox, schedule teardown at the domain's current
    /// instant.
    fn kill_local(&self, d: usize, target: Endpoint) -> bool {
        let mut guard = self.dom(d);
        let st = &mut *guard;
        let Some(&pid) = st.endpoints.get(&target) else {
            return false;
        };
        let Some(entry) = st
            .procs
            .get_mut(&pid)
            .filter(|e| e.state != ProcState::Finished)
        else {
            return false;
        };
        // Drop anything already queued: a crashed process processes
        // nothing more.
        entry.mailbox.clear();
        st.endpoints.remove(&target);
        st.record(obs::SpanId::NONE, || TraceEvent::Killed { pid });
        let now = st.now;
        st.push_event(now, EvKind::Kill(pid));
        true
    }

    /// The conservative lookahead for the coming round, in nanoseconds:
    /// how far past the global minimum clock a domain may safely run.
    /// Any cross-domain message sent at `t` arrives no earlier than
    /// `t + min cross-domain base latency × (1 − jitter)`; we subtract
    /// one more nanosecond to stay strictly below even after float
    /// truncation. A single domain has no cross-domain traffic at all —
    /// its horizon is unbounded.
    fn round_lookahead(&self) -> u64 {
        if self.ndomains() == 1 {
            return u64::MAX;
        }
        let net = self.network.read();
        let base = duration_to_nanos(net.min_cross_domain_base_latency(self.ndomains()));
        let jitter = net.config().jitter;
        (((base as f64) * (1.0 - jitter)) as u64).saturating_sub(1)
    }
}

/// The round-execution engine. Everything here runs with `&self`, on the
/// thread driving the simulation. A round locks only its own domain; the
/// only shared state it touches is the network `RwLock`, the metrics
/// atomics and its own obs lane.
impl Shared {
    /// Executes one barrier round for domain `d`: pop-and-run every
    /// event with time `t` satisfying `t <= limit && (t == gm || t <
    /// horizon)`. The `t == gm` clause guarantees progress even at zero
    /// lookahead (and lets `SimTime::MAX`-scheduled events eventually
    /// run); the strict `<` keeps the horizon conservative under float
    /// truncation.
    fn domain_round(&self, d: usize, gm: SimTime, horizon: SimTime, limit: SimTime) {
        let _running = Running::enter(self, d);
        // While the profiler is armed, bracket the whole drain with two
        // clock reads — per round per domain, not per event, so the
        // measurement itself stays out of the hot loop.
        let t_round = self.obs.profile_enabled().then(Instant::now);
        let series = &self.domains[d].series;
        loop {
            // One lock acquisition pops the next runnable event AND
            // advances the domain clock to it, so no observer can see
            // the old time paired with the drained heap (or vice versa).
            let popped = {
                let mut st = self.dom(d);
                match st.events.peek() {
                    Some(ev)
                        if ev.key.time <= limit && (ev.key.time == gm || ev.key.time < horizon) =>
                    {
                        let ev = st.events.pop().expect("peeked event vanished");
                        // An event scheduled before the clock it runs at
                        // is a time inversion — the bug class lookahead
                        // can introduce (e.g. a topology mutation that
                        // lowered a cross-domain latency mid-round).
                        // Count it honestly instead of clamping it away;
                        // the clock itself stays monotone.
                        let inverted = ev.key.time < st.now;
                        if !inverted {
                            st.now = ev.key.time;
                        }
                        Some((ev, st.now, st.events.len() as u64, inverted))
                    }
                    _ => None,
                }
            };
            let Some((ev, dispatched_at, depth, inverted)) = popped else {
                break;
            };
            if inverted {
                debug_assert!(
                    false,
                    "simnet: time inversion in domain {d}: event at {:?} dispatched at {:?}",
                    ev.key.time, dispatched_at
                );
                self.metrics.on_time_inversion();
            }
            self.metrics.on_event();
            if self.obs.timeseries_enabled() {
                let now_ns = dispatched_at.as_nanos();
                // Scheduler lag: dispatch time minus the event's
                // scheduled time. The single-lock pop advances the clock
                // to the event it pops, so this is structurally zero —
                // recorded anyway as an invariant monitor (a nonzero
                // window means the scheduler contract broke, e.g. a
                // counted time inversion) and as the anchor the
                // genuinely varying heap-depth gauge hangs on.
                self.obs.ts_observe(
                    now_ns,
                    &series.lag,
                    now_ns.saturating_sub(ev.key.time.as_nanos()),
                );
                self.obs.ts_gauge(now_ns, &series.depth, depth);
            }
            self.dispatch(d, ev.kind);
        }
        if let Some(t_round) = t_round {
            // Stamp the round ledger for the driver's phase accounting.
            self.dom(d).round_busy_ns = t_round.elapsed().as_nanos() as u64;
        }
    }

    /// Barrier step: drain every outbox and merge the parked
    /// cross-domain events into their target heaps in `(time, source
    /// domain, send order)` order, assigning fresh target-local sequence
    /// numbers. The merge order is a pure function of what each domain
    /// did in its own timeline, so it is identical for every worker
    /// count.
    fn flush_outboxes(&self) {
        let mut all: Vec<(SimTime, usize, usize, OutboundEv)> = Vec::new();
        for src in 0..self.ndomains() {
            let drained = std::mem::take(&mut self.dom(src).outbox);
            for (idx, ev) in drained.into_iter().enumerate() {
                all.push((ev.time, src, idx, ev));
            }
        }
        if all.is_empty() {
            return;
        }
        all.sort_by_key(|a| (a.0, a.1, a.2));
        for (_, _, _, ev) in all {
            self.dom(ev.dst).push_event(ev.time, ev.kind);
        }
    }

    /// Folds the per-domain spawn ledgers accumulated this round into a
    /// deterministic upper bound on the concurrent-process peak:
    /// `live-at-round-start + Σ max(0, per-domain max prefix rise)`.
    /// Each domain's rise is exact in its own timeline; summing them
    /// bounds every possible interleaving from above and depends only on
    /// per-domain facts — so the reported peak is identical for every
    /// worker count (and exact whenever one domain drives the growth).
    fn finish_round(&self, live_start: u64) {
        let rise_sum: u64 = (0..self.ndomains())
            .map(|d| self.dom(d).round_rise.max(0) as u64)
            .sum();
        if rise_sum > 0 {
            self.metrics.note_peak_bound(live_start + rise_sum);
        }
    }

    fn dispatch(&self, d: usize, kind: EvKind) {
        match kind {
            // A process's first instant, or the end of a deaf sleep.
            EvKind::Wake(pid) => self.poll_process(d, pid),
            EvKind::Timeout { pid, gen } => {
                // A timer is live only if the process still blocks on the
                // park that armed it: the generation bumps on every park.
                let live = self
                    .dom(d)
                    .procs
                    .get(&pid)
                    .is_some_and(|e| e.gen == gen && e.state == ProcState::Parked);
                if live {
                    self.poll_process(d, pid);
                }
            }
            // A crash runs no farewell code: the machine just drops (a
            // blocking body unwinds out of `Stopped` as it does).
            EvKind::Kill(pid) => self.finish(d, pid, None),
            EvKind::ApplySpawn {
                pid,
                endpoint,
                entry,
            } => {
                // A cross-domain spawn materializing in its target
                // domain's timeline.
                self.register_proc(d, pid, endpoint, *entry, true);
            }
            EvKind::RemoteKill { target } => {
                // A cross-domain kill arriving in the victim's timeline.
                // The endpoint may already be gone (victim finished or
                // was killed locally first) — that's a no-op, and the
                // optimistic `true` the remote caller saw is the same
                // answer a racing local kill would have produced.
                let _ = self.kill_local(d, target);
            }
            EvKind::Deliver { msg } => {
                let (src, dst, bytes, span) = (msg.src, msg.dst, msg.payload.len(), msg.span);
                let parked = {
                    let mut guard = self.dom(d);
                    let st = &mut *guard;
                    let entry = st
                        .endpoints
                        .get(&dst)
                        .map(|pid| (*pid, st.procs.get_mut(pid).expect("endpoint maps to proc")))
                        .filter(|(_, e)| e.state != ProcState::Finished);
                    let Some((pid, entry)) = entry else {
                        self.metrics.on_blackhole();
                        st.record(span, || {
                            TraceEvent::Net(obs::NetEventKind::Blackholed {
                                src: src.into(),
                                dst: dst.into(),
                            })
                        });
                        return;
                    };
                    // The first delivery reserves room for one message, not
                    // the standard four: most processes drain each datagram
                    // before the next arrives.
                    if entry.mailbox.capacity() == 0 {
                        entry.mailbox.reserve_exact(1);
                    }
                    entry.mailbox.push_back(msg);
                    // Every delivery wakes a parked process: it parked
                    // after seeing an empty mailbox, so this message is
                    // news. No wakeup can be lost — racing completions
                    // each schedule a poll. Any other process finds the
                    // message when it next runs.
                    let parked = (entry.state == ProcState::Parked).then_some(pid);
                    self.metrics.on_deliver();
                    st.record(span, || {
                        TraceEvent::Net(obs::NetEventKind::Delivered {
                            src: src.into(),
                            dst: dst.into(),
                            bytes: bytes as u64,
                        })
                    });
                    parked
                };
                if let Some(pid) = parked {
                    self.poll_process(d, pid);
                }
            }
        }
    }

    /// Polls a process once. The machine is taken out of the process
    /// table for the duration, so no lock is held while user code runs
    /// (and the machine may freely spawn or kill other processes).
    fn poll_process(&self, d: usize, pid: ProcId) {
        let Some(mut m) = self
            .dom(d)
            .procs
            .get_mut(&pid)
            .and_then(|e| e.machine.take())
        else {
            return; // finished, or a stale wake
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| m.process.poll(&mut m.cx)));
        let wake = m.cx.take_wake();
        match result {
            Ok(Poll::Pending) => {
                let mut st = self.dom(d);
                let now = st.now;
                let entry = st.procs.get_mut(&pid).expect("proc vanished");
                entry.machine = Some(m);
                let event = match wake {
                    // A deaf sleep: no generation bump, one wake.
                    Some((until, true)) => {
                        entry.state = ProcState::Sleeping;
                        Some((until, EvKind::Wake(pid)))
                    }
                    wake => {
                        entry.gen += 1;
                        entry.state = ProcState::Parked;
                        let gen = entry.gen;
                        wake.map(|(at, _)| (at, EvKind::Timeout { pid, gen }))
                    }
                };
                if let Some((at, kind)) = event {
                    st.push_event(at.max(now), kind);
                }
            }
            Ok(Poll::Ready(())) => {
                drop(m);
                self.finish(d, pid, None);
            }
            Err(p) => {
                drop(m);
                self.finish(d, pid, Some(panic_message(p.as_ref())));
            }
        }
    }

    /// Marks a process finished, dropping its machine and its mailbox
    /// (and with them the process's share of the table memory). A panic
    /// out of the machine's destructor — a killed body that panics as it
    /// unwinds — is the process's panic, reported as any other.
    fn finish(&self, d: usize, pid: ProcId, mut panic_msg: Option<String>) {
        let released = {
            let mut st = self.dom(d);
            let Some(entry) = st.procs.get_mut(&pid) else {
                return;
            };
            if entry.state == ProcState::Finished {
                return;
            }
            entry.state = ProcState::Finished;
            // Nothing reads a finished mailbox and later arrivals are
            // blackholed: what is queued (whole chunks on the bulk path)
            // goes now, not when the simulation is dropped.
            (entry.machine.take(), std::mem::take(&mut entry.mailbox))
        };
        // User destructors run outside the domain lock.
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| drop(released))) {
            panic_msg.get_or_insert_with(|| panic_message(p.as_ref()));
        }
        if let Some(msg) = panic_msg {
            if let Some(entry) = self.dom(d).procs.get_mut(&pid) {
                entry.panic_msg = Some(msg);
            }
        }
        self.note_proc_finished(d);
        self.record(d, obs::SpanId::NONE, || TraceEvent::Finished { pid });
    }

    /// Tells every live process of domain `d` to stop, in pid order (so
    /// the domain's `Finished` trace tail is fixed): each gets one final
    /// poll with the stop flag set — a blocking body sees [`Stopped`] and
    /// is resumed until it returns — and is then dropped regardless. Like
    /// a round, this runs on the thread driving the simulation: suspended
    /// bodies continue nowhere else.
    fn shutdown_domain(&self, d: usize) {
        let _running = Running::enter(self, d);
        let mut pids: Vec<ProcId> = self
            .dom(d)
            .procs
            .iter()
            .filter(|(_, e)| e.state != ProcState::Finished)
            .map(|(pid, _)| *pid)
            .collect();
        pids.sort_by_key(|pid| pid.0);
        for pid in pids {
            self.shutdown_proc(d, pid);
        }
    }

    /// Drops every undispatched event once all domains have shut down:
    /// an `ApplySpawn` parked in a heap or outbox owns a ProcEntry whose
    /// context points back at this Shared (and whose body never ran) —
    /// clearing here breaks the cycle so the Arc can free.
    fn clear_pending(&self) {
        for d in 0..self.ndomains() {
            let mut st = self.dom(d);
            st.events.clear();
            st.outbox.clear();
        }
    }

    /// One final poll with the stop flag raised, then finish. Dropping
    /// the machine here also breaks the `Shared → process table →
    /// ProcCx → Shared` reference cycle a parked machine's context
    /// holds.
    fn shutdown_proc(&self, d: usize, pid: ProcId) {
        let machine = self
            .dom(d)
            .procs
            .get_mut(&pid)
            .and_then(|e| e.machine.take());
        let panic_msg = machine.and_then(|mut m| {
            m.cx.ctx.stopped = true;
            panic::catch_unwind(AssertUnwindSafe(|| m.process.poll(&mut m.cx)))
                .err()
                .map(|p| panic_message(p.as_ref()))
        });
        self.finish(d, pid, panic_msg);
    }

    /// Panics (deterministically, sorted by pid) if any simulated
    /// process panicked.
    fn check_panics(&self) {
        let mut panics: Vec<(u32, String, String)> = Vec::new();
        for d in 0..self.ndomains() {
            panics.extend(self.dom(d).procs.iter().filter_map(|(pid, e)| {
                e.panic_msg
                    .as_ref()
                    .map(|m| (pid.0, e.name.clone(), m.clone()))
            }));
        }
        if !panics.is_empty() {
            panics.sort();
            let mut s = String::from("simulated process(es) panicked:");
            for (_, name, msg) in panics {
                s.push_str(&format!("\n  - {name}: {msg}"));
            }
            panic!("{s}");
        }
    }
}

/// The handle a simulated process uses to interact with the world.
///
/// A `Ctx` is passed by the scheduler to the process body closure. All of
/// its blocking operations return [`Stopped`] once the simulation is
/// shutting down; a well-behaved process returns promptly on `Stopped`.
///
/// Do not hold the guard returned by [`Ctx::net`] across a blocking call.
pub struct Ctx {
    pid: ProcId,
    name: String,
    endpoint: Endpoint,
    /// The domain this process executes in (its node's domain).
    domain: usize,
    shared: Arc<Shared>,
    /// A blocking body's side of its hand-off with the scheduler, from
    /// the moment the body starts. `None` in the context a machine is
    /// polled with, which never suspends a stack.
    pub(crate) yielder: Option<Yielder>,
    pub(crate) stopped: bool,
    seq_counter: Cell<u64>,
    /// The ids minted by [`Ctx::await_next`] still awaited; made on the
    /// first, so a process that never awaits a call pays nothing.
    awaited: OnceCell<AwaitedIds>,
    current_span: Cell<obs::SpanId>,
}

impl std::fmt::Debug for Ctx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ctx")
            .field("pid", &self.pid)
            .field("name", &self.name)
            .field("endpoint", &self.endpoint)
            .field("domain", &self.domain)
            .field("stopped", &self.stopped)
            .finish()
    }
}

impl Ctx {
    /// This process's identifier (for diagnostics).
    pub fn pid(&self) -> ProcId {
        self.pid
    }

    /// The name given at spawn time.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The node this process runs on.
    pub fn node(&self) -> NodeId {
        self.endpoint.node
    }

    /// This process's primary endpoint (where replies should be sent).
    pub fn endpoint(&self) -> Endpoint {
        self.endpoint
    }

    /// Current simulated time — this process's *domain* clock, which is
    /// the only clock the process can causally observe. With one domain
    /// (the default) it is the global clock.
    pub fn now(&self) -> SimTime {
        self.shared.domain_now(self.domain)
    }

    /// Whether the simulation has asked this process to stop.
    pub fn is_stopped(&self) -> bool {
        self.stopped
    }

    /// Returns the next value of a per-process monotonic counter,
    /// starting at 1. Protocol layers use it to mint identifiers that
    /// are unique *per process endpoint* (e.g. RPC call ids shared by
    /// every client object in the process, so server-side duplicate
    /// suppression is sound).
    pub fn next_seq(&self) -> u64 {
        let v = self.seq_counter.get() + 1;
        self.seq_counter.set(v);
        v
    }

    /// Mints the next [`Ctx::next_seq`] value as an id this process
    /// awaits until the returned [`Awaited`] is dropped.
    pub fn await_next(&self) -> Awaited {
        let id = self.next_seq();
        crate::awaited::hold(self.awaited.get_or_init(AwaitedIds::default), id)
    }

    /// The lowest id an [`Awaited`] of this process still holds, or
    /// `None` if it awaits nothing.
    pub fn lowest_awaited(&self) -> Option<u64> {
        self.awaited.get()?.lock().front().copied()
    }

    /// The simulation-wide observability registry: spans, latency
    /// histograms and aggregated protocol counters all land here.
    pub fn obs(&self) -> &obs::MetricsRegistry {
        &self.shared.obs
    }

    /// The span currently active in this process, or [`obs::SpanId::NONE`].
    ///
    /// Protocol layers stamp this onto outgoing packets so that work done
    /// on behalf of an invocation (dispatches, retransmissions, one-way
    /// notifications) stays attributable to it.
    pub fn current_span(&self) -> obs::SpanId {
        self.current_span.get()
    }

    /// Makes `span` the process's active span and returns the previous
    /// one, which the caller must restore when its scope ends.
    pub fn set_current_span(&self, span: obs::SpanId) -> obs::SpanId {
        self.current_span.replace(span)
    }

    /// Sends `payload` to `dst`. Non-blocking; delivery (or loss) is
    /// decided by the network model at this instant. The send is
    /// attributed to the process's current span.
    pub fn send(&self, dst: Endpoint, payload: Bytes) {
        self.shared
            .send(self.endpoint, dst, payload, self.current_span.get());
    }

    /// Like [`Ctx::send`], but attributes the send to an explicit span
    /// instead of the process's current one. Protocol layers use this
    /// when the packet belongs to a different causal context than the
    /// code sending it — e.g. a server re-sending a cached reply for a
    /// suppressed duplicate attributes the bytes to the *request's*
    /// span, not to whatever the server is doing now.
    pub fn send_traced(&self, dst: Endpoint, payload: Bytes, span: obs::SpanId) {
        self.shared.send(self.endpoint, dst, payload, span);
    }

    /// Appends a protocol-level event, attributed to `span`, to the
    /// simulation timeline. Upper layers use this to record the events
    /// the network itself cannot see: retransmission decisions, server
    /// executions, proxy cache hits, forwarding and migration.
    ///
    /// `event` runs only when tracing is enabled
    /// ([`Simulation::enable_trace`]), so an untraced run builds no
    /// event at all — whatever it would own (names, strings) is never
    /// allocated.
    pub fn trace(&self, span: obs::SpanId, event: impl FnOnce() -> obs::NetEventKind) {
        self.shared
            .record(self.domain, span, || TraceEvent::Net(event()));
    }

    /// Non-blocking receive: returns a message already in the mailbox, or
    /// `None` without advancing virtual time. Messages still in flight
    /// (scheduled for this same instant but not yet dispatched) are not
    /// visible.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub fn try_recv(&mut self) -> Result<Option<Message>, Stopped> {
        if self.stopped {
            return Err(Stopped);
        }
        Ok(self.shared.pop_mailbox(self.domain, self.pid))
    }

    /// Spawns another process on `node` with an ephemeral port, returning
    /// its endpoint. A same-domain spawn starts at the current instant;
    /// a spawn landing in *another* domain starts one cross-domain
    /// lookahead later (the earliest instant that domain could causally
    /// learn of it).
    pub fn spawn<F>(&self, name: impl Into<String>, node: NodeId, body: F) -> Endpoint
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared
            .spawn_proc(Some(self.domain), name.into(), node, None, |ctx| {
                Box::new(Body::new(ctx, body))
            })
    }

    /// Spawns a process listening on a well-known port.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on that node.
    pub fn spawn_at<F>(
        &self,
        name: impl Into<String>,
        node: NodeId,
        port: PortId,
        body: F,
    ) -> Endpoint
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared
            .spawn_proc(Some(self.domain), name.into(), node, Some(port), |ctx| {
                Box::new(Body::new(ctx, body))
            })
    }

    /// Spawns a poll-driven process on `node` with an ephemeral port
    /// (see [`Simulation::spawn_poll`]).
    pub fn spawn_poll<P>(&self, name: impl Into<String>, node: NodeId, process: P) -> Endpoint
    where
        P: Process,
    {
        self.shared
            .spawn_proc(Some(self.domain), name.into(), node, None, |_| {
                Box::new(process)
            })
    }

    /// Spawns a poll-driven process listening on a well-known port.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on that node or is in the
    /// ephemeral range.
    pub fn spawn_poll_at<P>(
        &self,
        name: impl Into<String>,
        node: NodeId,
        port: PortId,
        process: P,
    ) -> Endpoint
    where
        P: Process,
    {
        self.shared
            .spawn_proc(Some(self.domain), name.into(), node, Some(port), |_| {
                Box::new(process)
            })
    }

    /// Spawns an `async` body on `node` with an ephemeral port (see
    /// [`Simulation::spawn_async`]).
    pub fn spawn_async<F, Fut>(&self, name: impl Into<String>, node: NodeId, body: F) -> Endpoint
    where
        F: FnOnce(AsyncCx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.shared
            .spawn_proc(Some(self.domain), name.into(), node, None, |_| {
                Box::new(Async::new(body))
            })
    }

    /// Exclusive access to the network model for runtime fault injection
    /// (partitions, loss, link latency). Do not hold across blocking calls.
    ///
    /// In a multi-domain simulation, *lowering* a cross-domain latency
    /// from inside a running process can invalidate the round's
    /// already-computed lookahead; the scheduler detects the resulting
    /// time inversions and counts them in `sched_time_inversions`
    /// rather than failing silently. Mutate topology from the driving
    /// thread between runs (or raise latencies only) to stay exact.
    pub fn net(&self) -> RwLockWriteGuard<'_, Network> {
        self.shared.network.write()
    }

    /// Crashes the process owning `target`: it is torn down (its
    /// blocking call returns [`Stopped`]; a well-behaved process then
    /// exits) and its endpoint is unbound, so in-flight and
    /// future messages to it blackhole. Returns false if no live
    /// process owns the endpoint.
    ///
    /// A same-domain kill lands at the current instant. A kill of a
    /// process in *another* domain lands one cross-domain lookahead
    /// later and optimistically returns `true` — the caller cannot
    /// observe the victim's liveness faster than a message could travel
    /// anyway.
    ///
    /// Killing your own endpoint is allowed but pointless — prefer
    /// returning from the process body.
    pub fn kill(&self, target: Endpoint) -> bool {
        self.shared.request_kill(self.domain, target)
    }

    /// Runs `f` with this process's domain RNG — deterministic in the
    /// domain's execution order. With one domain this is the classic
    /// simulation-wide RNG stream.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.shared.dom(self.domain).rng)
    }

    /// Draws a uniformly random `u64` from the domain RNG.
    pub fn rand_u64(&self) -> u64 {
        self.with_rng(|r| r.gen())
    }

    /// Whether this context is one a machine is polled with, rather
    /// than a blocking body's own: the context passed to
    /// [`Process::poll`] (and every call it makes) says yes, the one a
    /// [`Simulation::spawn`] body runs against says no. Blocking
    /// operations are unavailable in the former; protocol layers can
    /// branch on this to pick a non-blocking strategy.
    pub fn is_poll_driven(&self) -> bool {
        self.yielder.is_none()
    }

    /// A context with this one's identity (pid, name, endpoint, domain)
    /// and fresh per-process state: what a blocking body runs against,
    /// beside the one its machine is polled with.
    pub(crate) fn twin(&self) -> Ctx {
        let shared = Arc::clone(&self.shared);
        Ctx::new(
            self.pid,
            self.name.clone(),
            self.endpoint,
            self.domain,
            shared,
        )
    }

    /// A context with this one's identity but no name and fresh
    /// per-process state: what stands in the place of a context lent out
    /// for a poll.
    pub(crate) fn vacant(&self) -> Ctx {
        let shared = Arc::clone(&self.shared);
        Ctx::new(self.pid, String::new(), self.endpoint, self.domain, shared)
    }

    fn new(
        pid: ProcId,
        name: String,
        endpoint: Endpoint,
        domain: usize,
        shared: Arc<Shared>,
    ) -> Ctx {
        Ctx {
            pid,
            name,
            endpoint,
            domain,
            shared,
            yielder: None,
            stopped: false,
            seq_counter: Cell::new(0),
            awaited: OnceCell::new(),
            current_span: Cell::new(obs::SpanId::NONE),
        }
    }

    /// Points this thread's obs writer lane and profiler at the
    /// process's domain and simulation. A body sharing the thread that
    /// runs its domain finds both already so; one with a thread of its
    /// own says it here, once.
    pub(crate) fn adopt_thread(&self) {
        obs::set_ambient_lane(self.domain);
        obs::set_ambient_profiler(Some(Arc::clone(&self.shared.obs)));
    }
}

/// Summary of a completed (or paused) run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Virtual time when the run stopped.
    pub end_time: SimTime,
    /// Network/scheduler counters at the end of the run.
    pub metrics: MetricsSnapshot,
    /// Processes that ran to completion.
    pub finished: usize,
    /// Processes still alive (blocked or sleeping) when the run stopped.
    pub alive: usize,
    /// Trace records evicted from the bounded trace ring so far (0 when
    /// tracing is disabled). Nonzero means [`Simulation::take_trace`]
    /// will return an incomplete timeline.
    pub trace_evicted: u64,
}

/// A deterministic discrete-event simulation.
///
/// # Examples
///
/// Ping-pong between two nodes:
///
/// ```
/// use simnet::{Simulation, NetworkConfig, NodeId, PortId};
/// use bytes::Bytes;
///
/// let mut sim = Simulation::new(NetworkConfig::lan(), 1);
/// let server = sim.spawn_at("server", NodeId(0), PortId(10), |ctx| {
///     while let Ok(msg) = ctx.recv() {
///         ctx.send(msg.src, msg.payload); // echo
///     }
/// });
/// sim.spawn("client", NodeId(1), move |ctx| {
///     ctx.send(server, Bytes::from_static(b"ping"));
///     let reply = ctx.recv().expect("reply");
///     assert_eq!(&reply.payload[..], b"ping");
/// });
/// let report = sim.run();
/// assert_eq!(report.metrics.msgs_delivered, 2);
/// ```
pub struct Simulation {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.shared.max_now())
            .field("domains", &self.shared.ndomains())
            .finish_non_exhaustive()
    }
}

fn build_domains(n: usize, seed: u64) -> Box<[Domain]> {
    (0..n)
        .map(|d| Domain {
            state: Mutex::new(DomainState::new(d, seed)),
            series: DomainSeries::new(d, n),
        })
        .collect()
}

impl Simulation {
    /// Creates a simulation with the given network model and RNG seed.
    /// One domain: the classic sequential scheduler.
    pub fn new(config: NetworkConfig, seed: u64) -> Simulation {
        Simulation {
            shared: Arc::new(Shared {
                domains: build_domains(1, seed),
                round_lookahead_ns: AtomicU64::new(u64::MAX),
                tracing: AtomicBool::new(false),
                network: RwLock::new(Network::new(config)),
                metrics: Arc::new(Metrics::new()),
                obs: Arc::new(obs::MetricsRegistry::new()),
                seed,
            }),
        }
    }

    /// Partitions the simulation into `n` scheduling domains: node `i`'s
    /// processes and events belong to domain `i % n`. For a fixed seed
    /// and topology the results are **identical for every domain count
    /// observable by the simulation** — except the documented
    /// multi-domain approximations (cross-domain spawn/kill land one
    /// lookahead later; `processes_peak` becomes a deterministic upper
    /// bound).
    ///
    /// Call before enabling tracing or spawning any process.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or a process has already been spawned.
    #[must_use]
    pub fn with_domains(mut self, n: usize) -> Simulation {
        assert!(n > 0, "domain count must be at least 1");
        let seed = self.shared.seed;
        let shared = Arc::get_mut(&mut self.shared)
            .expect("set the domain count before spawning any process");
        assert!(
            shared
                .domains
                .iter_mut()
                .all(|d| d.state.get_mut().procs.is_empty()),
            "set the domain count before spawning"
        );
        shared.domains = build_domains(n, seed);
        shared
            .round_lookahead_ns
            .store(if n == 1 { u64::MAX } else { 0 }, Ordering::Relaxed);
        Arc::get_mut(&mut shared.obs)
            .expect("set the domain count before sharing the obs registry")
            .set_writer_lanes(n);
        self
    }

    /// Does nothing: the thread that calls [`Simulation::run_until`]
    /// runs every domain's round. Kept for callers written when a worker
    /// pool could run them, whose results never depended on its size.
    #[must_use]
    pub fn with_threads(self, _n: usize) -> Simulation {
        self
    }

    /// The number of scheduling domains.
    pub fn domains(&self) -> usize {
        self.shared.ndomains()
    }

    /// Current simulated time (the most advanced domain clock).
    pub fn now(&self) -> SimTime {
        self.shared.max_now()
    }

    /// Current network/scheduler counters.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.shared.metrics.snapshot()
    }

    /// The simulation-wide observability registry (same instance every
    /// process sees through [`Ctx::obs`]).
    pub fn obs(&self) -> &obs::MetricsRegistry {
        &self.shared.obs
    }

    /// Builds the unified observability report: network counters, RPC
    /// counters, per-proxy/per-server stats, per-op latency percentiles
    /// and the span summary, as of the current simulated time.
    pub fn obs_report(&self) -> obs::RunReport {
        let mut report = self.shared.obs.report(
            self.shared.metrics.snapshot(),
            self.shared.max_now().as_nanos(),
        );
        report.trace_evicted = self.trace_evicted();
        // The simulator always knows its seed; the harness can overwrite
        // the rest of the provenance via obs().set_run_meta.
        if report.meta.seed.is_none() {
            report.meta.seed = Some(self.shared.seed);
        }
        report
    }

    /// Starts recording a timeline of up to `capacity` events *per
    /// domain* (older entries fall off). Call before spawning to
    /// capture everything.
    pub fn enable_trace(&self, capacity: usize) {
        for d in 0..self.shared.ndomains() {
            self.shared.dom(d).trace = Some(Trace::new(capacity));
        }
        self.shared.tracing.store(true, Ordering::Relaxed);
    }

    /// Drains and returns the recorded timeline (empty if tracing was
    /// never enabled). Recording continues afterwards. Domain slices
    /// are merged by `(time, domain, record order)` — a pure function
    /// of per-domain facts, so the merged timeline is identical however
    /// the rounds interleave. The returned [`TraceDump`] carries the count
    /// of records the bounded rings evicted, so a truncated timeline is
    /// never mistaken for a complete one; draining resets the counters.
    pub fn take_trace(&self) -> TraceDump {
        let nd = self.shared.ndomains();
        if nd == 1 {
            return self
                .shared
                .dom(0)
                .trace
                .as_mut()
                .map(|t| t.drain())
                .unwrap_or_default();
        }
        let mut tagged: Vec<(SimTime, usize, usize, TraceRecord)> = Vec::new();
        let mut evicted = 0;
        for d in 0..nd {
            let dump = match self.shared.dom(d).trace.as_mut() {
                Some(t) => t.drain(),
                None => continue,
            };
            evicted += dump.evicted;
            for (idx, rec) in dump.records.into_iter().enumerate() {
                tagged.push((rec.at, d, idx, rec));
            }
        }
        tagged.sort_by_key(|a| (a.0, a.1, a.2));
        TraceDump {
            records: tagged.into_iter().map(|(_, _, _, r)| r).collect(),
            evicted,
        }
    }

    /// Records evicted from the trace rings since tracing was enabled
    /// (without draining). Also surfaced by [`RunReport::trace_evicted`]
    /// and reset by [`Simulation::take_trace`].
    pub fn trace_evicted(&self) -> u64 {
        (0..self.shared.ndomains())
            .map(|d| self.shared.dom(d).trace.as_ref().map_or(0, |t| t.truncated))
            .sum()
    }

    /// Drains the trace ring and merges it with the span records in the
    /// observability registry into one time-ordered causal trace
    /// (see [`obs::TraceSink`]). Equivalent to
    /// `causal_trace_with(obs::TraceSink::new())`.
    pub fn causal_trace(&self) -> obs::CausalTrace {
        self.causal_trace_with(obs::TraceSink::new())
    }

    /// Like [`Simulation::causal_trace`], but with a caller-configured
    /// sink (every-Nth-span sampling). The rings' evictions are what the
    /// built trace reports as [`obs::CausalTrace::evicted`].
    pub fn causal_trace_with(&self, mut sink: obs::TraceSink) -> obs::CausalTrace {
        let dump = self.take_trace();
        sink.note_upstream_evicted(dump.evicted);
        for e in dump.into_iter().filter_map(TraceRecord::into_net_event) {
            sink.push_net(e);
        }
        self.shared
            .obs
            .for_each_span(|span| sink.push_span(span.clone()));
        sink.build()
    }

    /// Exclusive access to the network model (between runs or before one).
    pub fn net(&self) -> RwLockWriteGuard<'_, Network> {
        self.shared.network.write()
    }

    /// Spawns a process on `node` with an ephemeral port.
    pub fn spawn<F>(&self, name: impl Into<String>, node: NodeId, body: F) -> Endpoint
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared
            .spawn_proc(None, name.into(), node, None, |ctx| {
                Box::new(Body::new(ctx, body))
            })
    }

    /// Spawns a process listening on a well-known port.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on that node or is in the
    /// ephemeral range.
    pub fn spawn_at<F>(
        &self,
        name: impl Into<String>,
        node: NodeId,
        port: PortId,
        body: F,
    ) -> Endpoint
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared
            .spawn_proc(None, name.into(), node, Some(port), |ctx| {
                Box::new(Body::new(ctx, body))
            })
    }

    /// Spawns a poll-driven process on `node` with an ephemeral port.
    /// The scheduler polls it whenever a message is delivered to it or a
    /// timer it armed with [`ProcCx::wake_at`] fires; it parks by
    /// returning [`Poll::Pending`] and costs no stack while parked.
    /// See the [`poll`](crate::poll) module for the full model.
    pub fn spawn_poll<P>(&self, name: impl Into<String>, node: NodeId, process: P) -> Endpoint
    where
        P: Process,
    {
        self.shared
            .spawn_proc(None, name.into(), node, None, |_| Box::new(process))
    }

    /// Spawns a poll-driven process listening on a well-known port.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on that node or is in the
    /// ephemeral range.
    pub fn spawn_poll_at<P>(
        &self,
        name: impl Into<String>,
        node: NodeId,
        port: PortId,
        process: P,
    ) -> Endpoint
    where
        P: Process,
    {
        self.shared
            .spawn_proc(None, name.into(), node, Some(port), |_| Box::new(process))
    }

    /// Spawns an `async` body on `node` with an ephemeral port: `body` is
    /// handed the process's [`AsyncCx`] and returns the future the
    /// scheduler then polls, as it polls any [`Process`]. A parked body
    /// costs its future, and no stack. See the [`task`](crate::task)
    /// module.
    pub fn spawn_async<F, Fut>(&self, name: impl Into<String>, node: NodeId, body: F) -> Endpoint
    where
        F: FnOnce(AsyncCx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.shared.spawn_proc(None, name.into(), node, None, |_| {
            Box::new(Async::new(body))
        })
    }

    /// Spawns an `async` body listening on a well-known port.
    ///
    /// # Panics
    ///
    /// Panics if the port is already bound on that node or is in the
    /// ephemeral range.
    pub fn spawn_async_at<F, Fut>(
        &self,
        name: impl Into<String>,
        node: NodeId,
        port: PortId,
        body: F,
    ) -> Endpoint
    where
        F: FnOnce(AsyncCx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.shared
            .spawn_proc(None, name.into(), node, Some(port), |_| {
                Box::new(Async::new(body))
            })
    }

    /// Runs the simulation until no events remain, then shuts all
    /// processes down.
    ///
    /// # Panics
    ///
    /// Panics if any simulated process panicked, propagating its message.
    pub fn run(&mut self) -> RunReport {
        let report = self.run_until(SimTime::MAX);
        self.shutdown();
        self.shared.check_panics();
        report
    }

    /// Runs until the event queues are empty or virtual time would
    /// exceed `limit`. Processes stay alive; call again to continue, or
    /// call [`Simulation::run`] to finish.
    ///
    /// Folds one barrier round's wall time into the profiler: the
    /// `sched;round` pick/exec/merge phase frames (consecutive clock
    /// reads on the driving thread, so the phases tile the round wall
    /// time *exactly*) and each domain's busy time and an even share of
    /// the exec phase's rest, the stall: what running the domains one
    /// after another cost beyond their own events. Frame call counts (1
    /// per round per frame) are deterministic; every `wall_ns` is
    /// host-dependent and reported-not-judged.
    fn profile_round(&self, t0: Instant, t1: Instant, t2: Instant) {
        let t3 = Instant::now();
        let obs = &self.shared.obs;
        obs.profile_add("sched;round", 1, (t3 - t0).as_nanos() as u64);
        obs.profile_add("sched;round;pick", 1, (t1 - t0).as_nanos() as u64);
        let exec_ns = (t2 - t1).as_nanos() as u64;
        obs.profile_add("sched;round;exec", 1, exec_ns);
        obs.profile_add("sched;round;merge", 1, (t3 - t2).as_nanos() as u64);
        let nd = self.shared.ndomains();
        // The domain's own clock reads bracket a subset of the exec
        // phase, so clamp: busy is what the domain measured running
        // events.
        let busy = |d: usize| self.shared.dom(d).round_busy_ns.min(exec_ns);
        let stall = exec_ns.saturating_sub((0..nd).map(busy).sum()) / nd as u64;
        for d in 0..nd {
            let series = &self.shared.domains[d].series;
            obs.profile_add(&series.busy_frame, 1, busy(d));
            obs.profile_add(&series.stall_frame, 1, stall);
        }
    }

    /// Stops every live process, domain by domain on this thread, the one
    /// that ran their rounds, then drops whatever never got dispatched.
    fn shutdown(&self) {
        obs::set_ambient_profiler(Some(Arc::clone(&self.shared.obs)));
        for d in 0..self.shared.ndomains() {
            obs::set_ambient_lane(d);
            self.shared.shutdown_domain(d);
        }
        obs::set_ambient_lane(0);
        self.shared.clear_pending();
    }

    /// Execution proceeds in barrier rounds: compute the global minimum
    /// event time, let every domain run up to the conservative lookahead
    /// horizon, then merge cross-domain outboxes. With one domain a
    /// single round drains everything — the classic sequential loop.
    ///
    /// # Panics
    ///
    /// Panics if any simulated process panicked.
    pub fn run_until(&mut self, limit: SimTime) -> RunReport {
        let nd = self.shared.ndomains();
        // The driving thread folds the scheduler's round-phase frames
        // into this simulation's registry (writer lane 0).
        obs::set_ambient_profiler(Some(Arc::clone(&self.shared.obs)));
        let profiling = self.shared.obs.profile_enabled();
        let mut beyond_limit = false;
        loop {
            // Phase brackets: consecutive Instants, so pick + exec +
            // merge telescope to the round wall time *exactly* — the
            // conservation E20 asserts holds by construction.
            let t_round = profiling.then(Instant::now);
            // Round setup runs alone on the driving thread: reset the
            // per-round spawn ledgers and find the global minimum.
            let mut gm: Option<SimTime> = None;
            for d in 0..nd {
                let mut st = self.shared.dom(d);
                st.round_delta = 0;
                st.round_rise = 0;
                if let Some(ev) = st.events.peek() {
                    gm = Some(match gm {
                        Some(g) => g.min(ev.key.time),
                        None => ev.key.time,
                    });
                }
            }
            let Some(gm) = gm else { break };
            if gm > limit {
                beyond_limit = true;
                break;
            }
            let la = self.shared.round_lookahead();
            self.shared.round_lookahead_ns.store(la, Ordering::Relaxed);
            let horizon = SimTime::from_nanos(gm.as_nanos().saturating_add(la));
            let live_start = self.shared.metrics.live();
            let t_pick = profiling.then(Instant::now);
            for d in 0..nd {
                if nd > 1 {
                    obs::set_ambient_lane(d);
                }
                self.shared.domain_round(d, gm, horizon, limit);
            }
            if nd > 1 {
                obs::set_ambient_lane(0);
            }
            let t_exec = profiling.then(Instant::now);
            self.shared.flush_outboxes();
            if nd > 1 {
                self.shared.finish_round(live_start);
            }
            if let (Some(t0), Some(t1), Some(t2)) = (t_round, t_pick, t_exec) {
                self.profile_round(t0, t1, t2);
            }
        }
        if beyond_limit {
            for d in 0..nd {
                self.shared.dom(d).now = limit;
            }
        }
        self.shared.check_panics();
        let (mut finished, mut alive) = (0, 0);
        for d in 0..nd {
            for p in self.shared.dom(d).procs.values() {
                if p.state == ProcState::Finished {
                    finished += 1;
                } else {
                    alive += 1;
                }
            }
        }
        RunReport {
            end_time: self.shared.max_now(),
            metrics: self.shared.metrics.snapshot(),
            finished,
            alive,
            trace_evicted: self.trace_evicted(),
        }
    }
}

impl Drop for Simulation {
    fn drop(&mut self) {
        // Don't leave processes suspended forever (their locals would
        // never be dropped) — unless we are unwinding already: a second
        // panic out of a process's teardown would abort.
        if !std::thread::panicking() {
            self.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn single_process_runs_to_completion() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let done = Arc::new(AtomicU64::new(0));
        let d2 = Arc::clone(&done);
        sim.spawn("worker", NodeId(0), move |ctx| {
            ctx.sleep(Duration::from_millis(5)).unwrap();
            d2.store(ctx.now().as_millis(), Ordering::SeqCst);
        });
        let report = sim.run();
        assert_eq!(done.load(Ordering::SeqCst), 5);
        assert_eq!(report.finished, 1);
        assert_eq!(report.end_time, SimTime::from_millis(5));
    }

    #[test]
    fn message_latency_matches_network_model() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let lat = Arc::new(AtomicU64::new(0));
        let l2 = Arc::clone(&lat);
        let server = sim.spawn("server", NodeId(0), move |ctx| {
            let m = ctx.recv().unwrap();
            l2.store(m.latency().as_nanos() as u64, Ordering::SeqCst);
        });
        sim.spawn("client", NodeId(1), move |ctx| {
            ctx.send(server, Bytes::from_static(b"x"));
        });
        sim.run();
        // 500us remote + 1ns/byte * 1 byte
        assert_eq!(lat.load(Ordering::SeqCst), 500_001);
    }

    #[test]
    fn recv_timeout_fires_without_message() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let got = Arc::new(AtomicU64::new(99));
        let g = Arc::clone(&got);
        sim.spawn("waiter", NodeId(0), move |ctx| {
            let r = ctx.recv_timeout(Duration::from_millis(3)).unwrap();
            assert!(r.is_none());
            g.store(ctx.now().as_millis(), Ordering::SeqCst);
        });
        sim.run();
        assert_eq!(got.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn recv_timeout_cancelled_by_delivery() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        let waiter = sim.spawn("waiter", NodeId(0), move |ctx| {
            let r = ctx.recv_timeout(Duration::from_millis(100)).unwrap();
            assert!(r.is_some());
            g.store(1, Ordering::SeqCst);
            // The stale timeout event must not corrupt a later recv.
            let r2 = ctx.recv_timeout(Duration::from_millis(500)).unwrap();
            assert!(r2.is_none());
            g.store(2, Ordering::SeqCst);
        });
        sim.spawn("sender", NodeId(1), move |ctx| {
            ctx.send(waiter, Bytes::from_static(b"hi"));
        });
        sim.run();
        assert_eq!(got.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        fn run_once(seed: u64) -> (u64, u64) {
            let mut sim =
                Simulation::new(NetworkConfig::lan().with_jitter(0.3).with_loss(0.1), seed);
            let server = sim.spawn_at("server", NodeId(0), PortId(1), |ctx| {
                while let Ok(m) = ctx.recv() {
                    ctx.send(m.src, m.payload);
                }
            });
            for i in 0..5u32 {
                sim.spawn(format!("client{i}"), NodeId(1 + i), move |ctx| {
                    for _ in 0..20 {
                        ctx.send(server, Bytes::from_static(b"req"));
                        if ctx.recv_timeout(Duration::from_millis(5)).is_err() {
                            return;
                        }
                    }
                });
            }
            let r = sim.run();
            (r.end_time.as_nanos(), r.metrics.msgs_delivered)
        }
        let a = run_once(7);
        let b = run_once(7);
        let c = run_once(8);
        assert_eq!(a, b, "same seed must reproduce exactly");
        // Different seed almost surely differs under 10% loss + jitter.
        assert_ne!(a, c, "different seed should perturb the run");
    }

    #[test]
    fn spawn_from_within_process() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let count = Arc::new(AtomicU64::new(0));
        let c = Arc::clone(&count);
        sim.spawn("parent", NodeId(0), move |ctx| {
            let c2 = Arc::clone(&c);
            let child = ctx.spawn("child", NodeId(1), move |cctx| {
                let m = cctx.recv().unwrap();
                assert_eq!(&m.payload[..], b"work");
                c2.fetch_add(1, Ordering::SeqCst);
            });
            ctx.send(child, Bytes::from_static(b"work"));
        });
        sim.run();
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn unbound_endpoint_blackholes() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("sender", NodeId(0), |ctx| {
            ctx.send(
                Endpoint::new(NodeId(5), PortId(99)),
                Bytes::from_static(b"void"),
            );
        });
        let r = sim.run();
        assert_eq!(r.metrics.msgs_blackholed, 1);
        assert_eq!(r.metrics.msgs_delivered, 0);
    }

    #[test]
    fn run_until_pauses_and_resumes() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let stage = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&stage);
        sim.spawn("slow", NodeId(0), move |ctx| {
            ctx.sleep(Duration::from_millis(10)).unwrap();
            s.store(1, Ordering::SeqCst);
            ctx.sleep(Duration::from_millis(10)).unwrap();
            s.store(2, Ordering::SeqCst);
        });
        sim.run_until(SimTime::from_millis(15));
        assert_eq!(stage.load(Ordering::SeqCst), 1);
        assert_eq!(sim.now(), SimTime::from_millis(15));
        sim.run();
        assert_eq!(stage.load(Ordering::SeqCst), 2);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn process_panic_propagates() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("bad", NodeId(0), |_ctx| panic!("boom"));
        sim.run();
    }

    #[test]
    fn shutdown_unblocks_servers() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        // A server that would otherwise block forever.
        sim.spawn("server", NodeId(0), |ctx| while ctx.recv().is_ok() {});
        let report = sim.run();
        assert_eq!(report.end_time, SimTime::ZERO);
        // run() returned: the blocked server was shut down cleanly.
    }

    #[test]
    fn partition_then_heal_mid_run() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let delivered = Arc::new(AtomicU64::new(0));
        let d = Arc::clone(&delivered);
        let server = sim.spawn_at("server", NodeId(0), PortId(1), move |ctx| {
            while ctx.recv().is_ok() {
                d.fetch_add(1, Ordering::SeqCst);
            }
        });
        sim.spawn("client", NodeId(1), move |ctx| {
            ctx.net().partition(NodeId(0), NodeId(1));
            ctx.send(server, Bytes::from_static(b"lost"));
            ctx.sleep(Duration::from_millis(1)).unwrap();
            ctx.net().heal(NodeId(0), NodeId(1));
            ctx.send(server, Bytes::from_static(b"ok"));
        });
        let r = sim.run();
        assert_eq!(delivered.load(Ordering::SeqCst), 1);
        assert_eq!(r.metrics.msgs_blackholed, 1);
    }

    #[test]
    fn a_deaf_sleep_wakes_once_as_a_blocking_sleep_does() {
        // The same sleeper three times: a blocking body, a machine parked
        // with `sleep_until`, and an `async` body. Deliveries during the
        // sleep wake none; each finds the three messages at 10ms, after
        // the same events, and the blocking and `async` bodies leave the
        // same trace.
        #[derive(Clone, Copy)]
        enum Sleeper {
            Blocking,
            Machine,
            Async,
        }
        fn run(kind: Sleeper) -> (u64, u64, u64, String) {
            let mut sim = Simulation::new(NetworkConfig::lan(), 0);
            sim.enable_trace(1024);
            let seen = Arc::new(AtomicU64::new(0));
            let at = Arc::new(AtomicU64::new(0));
            let (s, a) = (Arc::clone(&seen), Arc::clone(&at));
            let drain = move |ctx: &mut Ctx| {
                while let Ok(Some(_)) = ctx.try_recv() {
                    s.fetch_add(1, Ordering::SeqCst);
                }
                a.store(ctx.now().as_millis(), Ordering::SeqCst);
            };
            let sleeper = match kind {
                Sleeper::Machine => {
                    let mut drain = Some(drain);
                    sim.spawn_poll("sleeper", NodeId(0), move |cx: &mut ProcCx| {
                        if cx.now() == SimTime::ZERO {
                            cx.sleep_until(SimTime::from_millis(10));
                            return Poll::Pending;
                        }
                        (drain.take().expect("woken once"))(cx);
                        Poll::Ready(())
                    })
                }
                Sleeper::Blocking => sim.spawn("sleeper", NodeId(0), move |ctx| {
                    ctx.sleep(Duration::from_millis(10)).unwrap();
                    drain(ctx);
                }),
                Sleeper::Async => sim.spawn_async("sleeper", NodeId(0), move |cx| async move {
                    cx.sleep(Duration::from_millis(10)).await.unwrap();
                    cx.with(|cx| drain(cx));
                }),
            };
            sim.spawn("sender", NodeId(1), move |ctx| {
                for _ in 0..3 {
                    ctx.send(sleeper, Bytes::from_static(b"x"));
                }
            });
            let r = sim.run();
            (
                seen.load(Ordering::SeqCst),
                at.load(Ordering::SeqCst),
                r.metrics.events_dispatched,
                format!("{:?}", sim.take_trace().records),
            )
        }
        let blocking = run(Sleeper::Blocking);
        assert_eq!((blocking.0, blocking.1), (3, 10));
        let m = run(Sleeper::Machine);
        assert_eq!((m.0, m.1, m.2), (3, 10, blocking.2));
        assert_eq!(run(Sleeper::Async), blocking);
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let seen = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&seen);
        let rx = sim.spawn("rx", NodeId(0), move |ctx| {
            // Nothing queued yet: must return None at time zero.
            assert!(ctx.try_recv().unwrap().is_none());
            ctx.sleep(Duration::from_millis(5)).unwrap();
            // Message delivered during the sleep is now in the mailbox.
            let m = ctx.try_recv().unwrap().expect("queued message");
            assert_eq!(&m.payload[..], b"queued");
            assert!(ctx.try_recv().unwrap().is_none());
            s.store(ctx.now().as_millis(), Ordering::SeqCst);
        });
        sim.spawn("tx", NodeId(1), move |ctx| {
            ctx.send(rx, Bytes::from_static(b"queued"));
        });
        sim.run();
        // try_recv never advanced time: process finished at its sleep end.
        assert_eq!(seen.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn kill_tears_down_and_unbinds() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let served = Arc::new(AtomicU64::new(0));
        let s2 = Arc::clone(&served);
        let victim = sim.spawn_at("victim", NodeId(0), PortId(9), move |ctx| {
            while ctx.recv().is_ok() {
                s2.fetch_add(1, Ordering::SeqCst);
            }
        });
        sim.spawn("assassin", NodeId(1), move |ctx| {
            ctx.send(victim, Bytes::from_static(b"one"));
            ctx.sleep(Duration::from_millis(2)).unwrap();
            assert!(ctx.kill(victim), "victim should be alive");
            assert!(!ctx.kill(victim), "second kill is a no-op");
            // Messages after the kill blackhole instead of delivering.
            ctx.send(victim, Bytes::from_static(b"two"));
        });
        let report = sim.run();
        assert_eq!(served.load(Ordering::SeqCst), 1);
        assert_eq!(report.metrics.msgs_blackholed, 1);
    }

    #[test]
    fn killed_endpoint_can_be_rebound() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let got = Arc::new(AtomicU64::new(0));
        let g2 = Arc::clone(&got);
        let victim = sim.spawn_at(
            "old",
            NodeId(0),
            PortId(9),
            |ctx| {
                while ctx.recv().is_ok() {}
            },
        );
        sim.spawn("driver", NodeId(1), move |ctx| {
            ctx.kill(victim);
            // The well-known port is free again: a replacement can bind it.
            let replacement = ctx.spawn_at("new", NodeId(0), PortId(9), move |rctx| {
                if rctx.recv().is_ok() {
                    g2.fetch_add(1, Ordering::SeqCst);
                }
            });
            ctx.send(replacement, Bytes::from_static(b"hello"));
        });
        sim.run();
        assert_eq!(got.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn messages_at_same_instant_keep_send_order() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = Arc::clone(&order);
        let server = sim.spawn("server", NodeId(0), move |ctx| {
            for _ in 0..3 {
                let m = ctx.recv().unwrap();
                o.lock().push(m.payload[0]);
            }
        });
        sim.spawn("client", NodeId(1), move |ctx| {
            for b in [1u8, 2, 3] {
                ctx.send(server, Bytes::copy_from_slice(&[b]));
            }
        });
        sim.run();
        // Identical payload sizes & no jitter: all arrive at the same
        // instant; FIFO tie-break must preserve send order.
        assert_eq!(*order.lock(), vec![1, 2, 3]);
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::TraceEvent;
    use obs::NetEventKind;

    #[test]
    fn trace_captures_ordered_timeline() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.enable_trace(1024);
        let echo = sim.spawn_at("echo", NodeId(0), PortId(7), |ctx| {
            if let Ok(m) = ctx.recv() {
                ctx.send(m.src, m.payload);
            }
        });
        sim.spawn("client", NodeId(1), move |ctx| {
            ctx.send(echo, Bytes::from_static(b"ping"));
            let _ = ctx.recv();
        });
        sim.run();
        let trace = sim.take_trace();
        let kinds: Vec<&'static str> = trace
            .iter()
            .map(|r| match &r.event {
                TraceEvent::Spawned { .. } => "spawn",
                TraceEvent::Finished { .. } => "finish",
                TraceEvent::Killed { .. } => "kill",
                TraceEvent::Net(kind) => kind.tag(),
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                // echo + client
                "spawn",
                "spawn",
                // ping
                "sent",
                "delivered",
                // echo replies then finishes
                "sent",
                "finish",
                // client gets pong, finishes
                "delivered",
                "finish",
            ],
            "unexpected timeline: {:#?}",
            trace.records
        );
        // Timestamps are non-decreasing.
        assert!(trace.windows(2).all(|w| w[0].at <= w[1].at));
        // Draining leaves the buffer empty but tracing still on.
        assert!(sim.take_trace().is_empty());
    }

    #[test]
    fn trace_records_drops_and_kills() {
        let mut sim = Simulation::new(NetworkConfig::lan().with_loss(1.0), 0);
        sim.enable_trace(64);
        let sink = sim.spawn_at(
            "sink",
            NodeId(0),
            PortId(3),
            |ctx| {
                while ctx.recv().is_ok() {}
            },
        );
        sim.spawn("driver", NodeId(1), move |ctx| {
            ctx.send(sink, Bytes::from_static(b"doomed"));
            ctx.kill(sink);
        });
        sim.run();
        let trace = sim.take_trace();
        assert!(trace
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Net(NetEventKind::Dropped { .. }))));
        assert!(trace
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Killed { .. })));
    }

    #[test]
    fn disabled_trace_costs_nothing_and_returns_empty() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn("p", NodeId(0), |_ctx| {});
        sim.run();
        assert!(sim.take_trace().is_empty());
    }

    /// A run that traces nothing builds nothing: the closure handed to
    /// [`Ctx::trace`] runs only once tracing is on, then once per event.
    #[test]
    fn trace_builds_the_event_only_when_enabled() {
        fn three_events(sim: &mut Simulation) -> u64 {
            let built = Arc::new(AtomicU64::new(0));
            let b = Arc::clone(&built);
            sim.spawn("p", NodeId(0), move |ctx| {
                for attempt in 1..=3 {
                    ctx.trace(obs::SpanId(u64::from(attempt)), || {
                        b.fetch_add(1, Ordering::SeqCst);
                        NetEventKind::Retransmit {
                            src: ctx.endpoint().into(),
                            dst: ctx.endpoint().into(),
                            attempt,
                        }
                    });
                }
            });
            sim.run();
            built.load(Ordering::SeqCst)
        }
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        assert_eq!(three_events(&mut sim), 0, "untraced: never built");
        assert!(sim.take_trace().is_empty());
        sim.enable_trace(64);
        assert_eq!(three_events(&mut sim), 3, "traced: built once per event");
        let spans: Vec<u64> = sim
            .take_trace()
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::Net(_)))
            .map(|r| r.span.0)
            .collect();
        assert_eq!(spans, [1, 2, 3]);
    }
}

#[cfg(test)]
mod domain_tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};
    use std::time::Duration;

    /// A closed-loop echo workload spread over 8 nodes, run to
    /// completion. Returns everything an outside observer can see.
    fn run_workload(domains: usize, seed: u64) -> (String, String, u64, u64) {
        let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.2).with_loss(0.05), seed)
            .with_domains(domains);
        sim.enable_trace(65536);
        let mut servers = Vec::new();
        for n in 0..4u32 {
            servers.push(
                sim.spawn_at(format!("server{n}"), NodeId(n), PortId(1), |ctx| {
                    while let Ok(m) = ctx.recv() {
                        ctx.send(m.src, m.payload);
                    }
                }),
            );
        }
        for c in 0..8u32 {
            let server = servers[(c % 4) as usize];
            sim.spawn(format!("client{c}"), NodeId(4 + c), move |ctx| {
                for _ in 0..10 {
                    ctx.send(server, Bytes::from_static(b"req"));
                    if ctx.recv_timeout(Duration::from_millis(5)).is_err() {
                        return;
                    }
                }
            });
        }
        let report = sim.run_until(SimTime::from_millis(40));
        let trace: String = sim
            .take_trace()
            .iter()
            .map(|r| format!("{r:?}\n"))
            .collect();
        let summary = format!(
            "end={} sent={} delivered={} dropped={} events={} finished={} alive={}",
            report.end_time.as_nanos(),
            report.metrics.msgs_sent,
            report.metrics.msgs_delivered,
            report.metrics.msgs_dropped,
            report.metrics.events_dispatched,
            report.finished,
            report.alive
        );
        (
            summary,
            trace,
            report.metrics.processes_peak,
            report.metrics.sched_time_inversions,
        )
    }

    /// One thread runs every domain now, so the thread count is fixed:
    /// what stays to check is that the same seed gives the same bytes.
    #[test]
    fn thread_count_does_not_change_results() {
        let base = run_workload(4, 42);
        let again = run_workload(4, 42);
        assert_eq!(base.0, again.0, "summary differs between two runs");
        assert_eq!(base.1, again.1, "trace differs between two runs");
        assert_eq!(base.2, again.2, "peak differs between two runs");
        assert_eq!(base.3, 0, "no time inversions in an undisturbed run");
    }

    #[test]
    fn single_domain_ignores_thread_count() {
        assert_eq!(run_workload(1, 7), run_workload(1, 7));
    }

    #[test]
    fn cross_domain_spawn_and_kill_are_deterministic() {
        fn run_once() -> (String, u64) {
            let mut sim = Simulation::new(NetworkConfig::lan(), 9).with_domains(3);
            sim.enable_trace(4096);
            let spawned = Arc::new(AtomicU64::new(0));
            let s = Arc::clone(&spawned);
            // driver on node 0 (domain 0) spawns a child on node 1
            // (domain 1), then kills a victim on node 2 (domain 2).
            let victim = sim.spawn_at(
                "victim",
                NodeId(2),
                PortId(9),
                |ctx| {
                    while ctx.recv().is_ok() {}
                },
            );
            sim.spawn("driver", NodeId(0), move |ctx| {
                let child = ctx.spawn("child", NodeId(1), move |cctx| {
                    if cctx.recv().is_ok() {
                        s.fetch_add(1, AtomicOrdering::SeqCst);
                    }
                });
                ctx.send(child, Bytes::from_static(b"hi"));
                ctx.sleep(Duration::from_millis(1)).unwrap();
                assert!(ctx.kill(victim), "cross-domain kill is optimistic");
            });
            sim.run();
            let trace: String = sim
                .take_trace()
                .iter()
                .map(|r| format!("{r:?}\n"))
                .collect();
            (trace, spawned.load(AtomicOrdering::SeqCst))
        }
        let a = run_once();
        assert_eq!(a, run_once(), "cross-domain spawn/kill must repeat");
        assert_eq!(a.1, 1, "child must receive the driver's message");
    }

    #[test]
    fn striped_ids_are_unique_across_domains() {
        let sim = Simulation::new(NetworkConfig::lan(), 0).with_domains(4);
        let mut eps = std::collections::HashSet::new();
        for n in 0..12u32 {
            // Spawned from the driving thread: stripe = target domain.
            let ep = sim.spawn(format!("p{n}"), NodeId(n), |ctx| {
                // Spawn a sibling on a *different* node from in here, so
                // in-round cross-domain allocation paths get exercised.
                if ctx.node().0 < 4 {
                    let peer = NodeId(ctx.node().0 + 20);
                    ctx.spawn("peer", peer, |_| {});
                }
            });
            assert!(eps.insert(ep), "duplicate endpoint {ep}");
        }
        let mut sim = sim;
        let report = sim.run();
        assert_eq!(report.alive, 0);
        assert_eq!(report.finished, 16, "12 parents + 4 in-round children");
    }

    #[test]
    fn run_until_resumes_identically_across_threads() {
        fn staged() -> (u64, u64, String) {
            let mut sim = Simulation::new(NetworkConfig::lan(), 5).with_domains(2);
            sim.enable_trace(4096);
            let server = sim.spawn_at("server", NodeId(0), PortId(1), |ctx| {
                while let Ok(m) = ctx.recv() {
                    ctx.send(m.src, m.payload);
                }
            });
            sim.spawn("client", NodeId(1), move |ctx| {
                for _ in 0..5 {
                    ctx.send(server, Bytes::from_static(b"x"));
                    if ctx.recv_timeout(Duration::from_millis(4)).is_err() {
                        return;
                    }
                }
            });
            let mid = sim.run_until(SimTime::from_millis(2));
            let fin = sim.run_until(SimTime::MAX);
            let trace: String = sim
                .take_trace()
                .iter()
                .map(|r| format!("{r:?}\n"))
                .collect();
            (
                mid.metrics.events_dispatched,
                fin.metrics.msgs_delivered,
                trace,
            )
        }
        assert_eq!(staged(), staged());
    }

    /// Datagrams that reached a process before it returned must not stay
    /// resident until the simulation is dropped: nothing can read them.
    #[test]
    fn finished_process_releases_its_mailbox() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        // Both sleep through the deliveries, then finish without reading.
        let blocking = sim.spawn("blocking", NodeId(0), |ctx| {
            ctx.sleep(Duration::from_millis(10)).unwrap();
        });
        let polled = sim.spawn_poll("polled", NodeId(0), |cx: &mut ProcCx| {
            let until = SimTime::from_millis(10);
            if cx.now() < until {
                cx.wake_at(until); // a delivery woke us: keep waiting
                return Poll::Pending;
            }
            Poll::Ready(())
        });
        sim.spawn("sender", NodeId(1), move |ctx| {
            for dst in [blocking, polled] {
                for _ in 0..3 {
                    ctx.send(dst, Bytes::from(vec![7u8; 4096]));
                }
            }
        });
        let mid = sim.run_until(SimTime::from_millis(5));
        assert_eq!(mid.metrics.msgs_delivered, 6);
        // Both live on node 0: domain 0's table.
        let queued = |sim: &Simulation| -> Vec<(usize, usize)> {
            let st = sim.shared.dom(0);
            [blocking, polled]
                .iter()
                .map(|ep| {
                    let m = &st.procs[&st.endpoints[ep]].mailbox;
                    (m.len(), m.capacity())
                })
                .collect()
        };
        assert!(queued(&sim).iter().all(|&(len, _)| len == 3));
        // Processes stay in the table after they finish; their mail
        // must not.
        let end = sim.run_until(SimTime::MAX);
        assert_eq!((end.finished, end.alive), (3, 0));
        assert_eq!(queued(&sim), vec![(0, 0), (0, 0)]);
    }

    /// Every `Spawned` record's `(name, pid, endpoint)` on 4 domains, from
    /// out-of-round spawns, in-round same- and cross-domain spawns and
    /// one in-round `spawn_at`.
    fn spawned_ids() -> Vec<(String, u32, String)> {
        let mut sim = Simulation::new(NetworkConfig::lan(), 3).with_domains(4);
        sim.enable_trace(4096);
        for n in 0..6u32 {
            sim.spawn(format!("root{n}"), NodeId(n), |ctx| {
                let node = ctx.node().0;
                ctx.spawn(format!("same{node}"), NodeId(node + 4), |_| {});
                ctx.spawn(format!("cross{node}"), NodeId(node + 1), |_| {});
                if node == 1 {
                    ctx.spawn_at("well-known", NodeId(6), PortId(7), |ctx| {
                        ctx.spawn("grandchild", NodeId(6), |_| {});
                    });
                }
            });
        }
        sim.run();
        sim.take_trace()
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::Spawned {
                    pid,
                    name,
                    endpoint,
                } => Some((name.clone(), pid.0, endpoint.to_string())),
                _ => None,
            })
            .collect()
    }

    /// Pids and ports keep the striped sequence of the simulation-wide
    /// table they came from: each counter belongs to the allocating
    /// domain.
    #[test]
    fn id_sequence_is_pinned() {
        let want: Vec<(String, u32, String)> = [
            ("root0", 0, "n0:p65536"),
            ("root4", 4, "n4:p65536"),
            ("same0", 8, "n4:p65540"),
            ("same4", 16, "n8:p65536"),
            ("root1", 1, "n1:p65537"),
            ("root5", 5, "n5:p65537"),
            ("same1", 9, "n5:p65541"),
            ("same5", 21, "n9:p65537"),
            ("root2", 2, "n2:p65538"),
            ("same2", 6, "n6:p65538"),
            ("root3", 3, "n3:p65539"),
            ("same3", 7, "n7:p65539"),
            ("cross3", 11, "n4:p65539"),
            ("cross0", 12, "n1:p65536"),
            ("cross4", 20, "n5:p65536"),
            ("cross1", 13, "n2:p65537"),
            ("well-known", 17, "n6:p7"),
            ("cross5", 25, "n6:p65537"),
            ("grandchild", 14, "n6:p65542"),
            ("cross2", 10, "n3:p65538"),
        ]
        .into_iter()
        .map(|(name, pid, ep)| (name.to_string(), pid, ep.to_string()))
        .collect();
        assert_eq!(spawned_ids(), want);
        assert_eq!(spawned_ids(), want);
    }
}
