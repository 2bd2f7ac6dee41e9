//! The deterministic scheduler and the process API.
//!
//! # Execution model
//!
//! The scheduler runs two kinds of simulated process behind one event
//! loop:
//!
//! * **Blocking** ([`Simulation::spawn`]) — ordinary blocking Rust code
//!   against a [`Ctx`] handle, on a stack of its own. The body runs
//!   until it blocks (in [`Ctx::recv`], [`Ctx::sleep`], …); control then
//!   returns to the scheduler, which resumes the body in place when the
//!   event it waits for is dispatched. On x86-64 Linux the stack is a
//!   coroutine's — a private 2 MiB mapping switched to and from in user
//!   space, on the thread running the body's domain — so a scheduling
//!   decision costs two register swaps and a parked body costs the
//!   stack pages it has touched. Every other target gives each body an
//!   OS thread and hands off through two channels; nothing but the cost
//!   differs. Natural to write — clients and experiment logic use it.
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
//! * **Poll-driven** ([`Simulation::spawn_poll`]) — a [`Process`] state
//!   machine the scheduler polls in event order, on its own thread;
//!   parking costs one heap entry in the process table — no stack at
//!   all, which is the reason left to write one by hand — so simulations
//!   scale to hundreds of thousands of concurrent processes (see the
//!   [`poll`](crate::poll) module and experiment E16). Server contexts
//!   (services, name servers) are processes of this kind.
//!
//! # Domains and parallel execution
//!
//! The event queue is sharded into **domains**: nodes are partitioned
//! round-robin (`node % ndomains`, see [`Simulation::with_domains`]) and
//! each domain owns its own virtual clock, event heap, tie-breaking
//! sequence counter, RNG stream and trace ring. Domains advance in
//! *barrier rounds* under conservative lookahead: each round computes
//! the global minimum event time and lets every domain execute events up
//! to `min cross-domain link latency` past it; cross-domain effects
//! (message deliveries, spawns, kills) are buffered in per-source
//! outboxes and merged at the barrier in `(time, src domain, send
//! order)` order, with fresh target-local sequence numbers. Because the
//! merge order and every per-domain decision are functions of the seed
//! and the topology alone, a run is **bit-for-bit identical for any
//! worker-thread count** ([`Simulation::with_threads`]): threads only
//! decide which OS thread executes a domain's round, never what the
//! round does.
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

use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Mutex, RwLock, RwLockWriteGuard};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::addr::{Endpoint, NodeId, PortId, ProcId};
#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::coro::{Handoff, Yielder};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::msg::Message;
use crate::net::{Fate, Network, NetworkConfig};
use crate::poll::{Poll, ProcCx, Process};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
use crate::thread_handoff::{Handoff, Yielder};
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

/// Scheduler → process control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// First transfer: begin executing the process body.
    Start,
    /// A sleep expired.
    Woken,
    /// A message is available in the mailbox.
    Delivered,
    /// A `recv` deadline expired with no message.
    TimedOut,
    /// The simulation is over; unwind out of blocking calls.
    Shutdown,
}

/// Process → scheduler control transfer.
#[derive(Debug)]
pub(crate) enum YieldMsg {
    /// Block until the given instant.
    Sleep(SimTime),
    /// Block until a message arrives or the deadline (if any) passes.
    Recv { deadline: Option<SimTime> },
    /// The process body returned (or panicked with the given message).
    Finished { panic_msg: Option<String> },
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    NotStarted,
    Sleeping,
    BlockedRecv,
    /// Poll-driven process whose last poll returned `Pending`.
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

/// A poll-driven process's state machine plus its per-process context.
/// Taken out of the registry while being polled so no lock is held
/// during user code, and put back if the poll returns `Pending`.
struct PolledMachine {
    process: Box<dyn Process>,
    cx: ProcCx,
}

/// How a process executes: a blocking body suspended on a stack of its
/// own, or a heap-allocated state machine.
enum ProcKind {
    /// Taken out of the registry while the body runs (no lock is held
    /// during user code) and put back when it blocks; gone — stack and
    /// all — once the body has finished.
    Blocking {
        handoff: Option<Handoff>,
    },
    Polled {
        machine: Option<PolledMachine>,
    },
}

struct ProcEntry {
    name: String,
    mailbox: VecDeque<Message>,
    state: ProcState,
    /// Incremented every time the process blocks in recv (blocking) or
    /// parks (poll-driven); stale timeout events carry an older
    /// generation and are ignored.
    gen: u64,
    /// The domain the process's node maps to. Every event that touches
    /// this entry executes in this domain.
    domain: usize,
    kind: ProcKind,
    panic_msg: Option<String>,
}

struct Registry {
    procs: HashMap<ProcId, ProcEntry>,
    endpoints: HashMap<Endpoint, ProcId>,
    /// Identifier-allocation stripe count (== domain count). Ids are
    /// striped by the *allocating* domain — `id = count · stripes +
    /// stripe` — so domains running concurrently mint disjoint sequences
    /// that are each deterministic in the allocating domain's own
    /// execution order. With one stripe this is exactly the classic
    /// sequential counter.
    stripes: u32,
    /// Per-stripe count of pids handed out.
    next_proc: Vec<u32>,
    /// Per `(node, stripe)` count of ephemeral ports handed out.
    next_ephemeral: HashMap<(NodeId, u32), u32>,
}

impl Registry {
    fn alloc_pid(&mut self, stripe: u32) -> ProcId {
        let c = &mut self.next_proc[stripe as usize];
        let pid = ProcId(*c * self.stripes + stripe);
        *c += 1;
        pid
    }

    fn alloc_ephemeral_port(&mut self, node: NodeId, stripe: u32) -> PortId {
        let c = self.next_ephemeral.entry((node, stripe)).or_insert(0);
        let port = PortId(PortId::EPHEMERAL_BASE + *c * self.stripes + stripe);
        *c += 1;
        port
    }
}

/// One domain's share of the scheduler: its virtual clock, pending-event
/// heap, tie-breaking sequence counter, RNG stream, trace ring and
/// process-accounting ledger. Clock, heap and seq live under ONE mutex
/// (per domain) so the round loop pops the next event and advances time
/// in a single acquisition — no observer can see a clock out of step
/// with the heap it was derived from.
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
    /// Processes spawned into this domain (lifetime total).
    spawned: u64,
    /// Processes of this domain currently alive.
    live: u64,
    /// Net spawn-minus-finish delta accumulated this round.
    round_delta: i64,
    /// Maximum prefix value of `round_delta` this round — the domain's
    /// contribution to the deterministic `processes_peak` upper bound.
    round_rise: i64,
    /// Events this domain executed in the current round (deterministic:
    /// a pure function of seed + topology).
    round_events_run: u64,
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
            spawned: 0,
            live: 0,
            round_delta: 0,
            round_rise: 0,
            round_events_run: 0,
            round_busy_ns: 0,
        }
    }
}

/// Pre-formatted flight-recorder series names for one domain, so the
/// per-event hot path never allocates. Single-domain simulations keep
/// the classic un-suffixed names; multi-domain ones get `@d<i>`.
struct DomainSeries {
    lag: String,
    depth: String,
    spawned: String,
    current: String,
    /// Profiler-gated lookahead-efficiency pair: events the domain ran
    /// this round vs events still pending past the horizon.
    run: String,
    pending: String,
    /// Profiler-gated utilization gauges (per-mille of the exec phase).
    busy_frac: String,
    stall_frac: String,
    /// Folded-stack frame paths for the domain's share of the exec
    /// phase (wall busy vs barrier stall).
    busy_frame: String,
    stall_frame: String,
}

impl DomainSeries {
    fn new(d: usize, ndomains: usize) -> DomainSeries {
        if ndomains == 1 {
            DomainSeries {
                lag: "sched_lag".to_string(),
                depth: "sched_depth".to_string(),
                spawned: "processes_spawned".to_string(),
                current: "processes_current".to_string(),
                run: "sched_round_run".to_string(),
                pending: "sched_round_pending".to_string(),
                busy_frac: "sched_busy_frac".to_string(),
                stall_frac: "sched_stall_frac".to_string(),
                busy_frame: "sched;round;exec;busy".to_string(),
                stall_frame: "sched;round;exec;stall".to_string(),
            }
        } else {
            DomainSeries {
                lag: format!("sched_lag@d{d}"),
                depth: format!("sched_depth@d{d}"),
                spawned: format!("processes_spawned@d{d}"),
                current: format!("processes_current@d{d}"),
                run: format!("sched_round_run@d{d}"),
                pending: format!("sched_round_pending@d{d}"),
                busy_frac: format!("sched_busy_frac@d{d}"),
                stall_frac: format!("sched_stall_frac@d{d}"),
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

struct Shared {
    domains: Box<[Mutex<DomainState>]>,
    /// Per-*source*-domain buffers of cross-domain events. Only the
    /// owning domain's execution pushes, so there is no contention; the
    /// barrier drains them all and merges deterministically.
    outboxes: Box<[Mutex<Vec<OutboundEv>>]>,
    series: Box<[DomainSeries]>,
    /// The current round's conservative lookahead in nanoseconds
    /// (`u64::MAX` for a single domain). Deferred cross-domain effects
    /// (spawn/kill) are timestamped `now + lookahead` so they land at or
    /// beyond the round horizon in the target's timeline.
    round_lookahead_ns: AtomicU64,
    /// Whether [`Simulation::enable_trace`] installed the trace rings.
    /// Relaxed: it guards no data (the rings sit under the domain
    /// mutexes); it only lets an untraced run skip locking a domain to
    /// find no ring there.
    tracing: AtomicBool,
    registry: Mutex<Registry>,
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

    fn domain_now(&self, d: usize) -> SimTime {
        self.domains[d].lock().now
    }

    /// The most advanced domain clock — what an outside observer calls
    /// "now". With one domain this is the classic scheduler clock.
    fn max_now(&self) -> SimTime {
        self.domains
            .iter()
            .map(|d| d.lock().now)
            .max()
            .unwrap_or(SimTime::ZERO)
    }

    /// Records `event` in domain `d`'s trace ring at that domain's
    /// current instant. One lock acquisition covers both reads so the
    /// timestamp can never drift from the ring it lands in.
    fn record(&self, d: usize, event: TraceEvent) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        let mut st = self.domains[d].lock();
        let now = st.now;
        if let Some(trace) = st.trace.as_mut() {
            trace.push(now, event);
        }
    }

    /// Enqueues an event into domain `d`'s own heap with a fresh
    /// domain-local sequence number.
    fn push_event_domain(&self, d: usize, time: SimTime, kind: EvKind) {
        let mut st = self.domains[d].lock();
        st.seq += 1;
        let key = EvKey { time, seq: st.seq };
        st.events.push(Ev { key, kind });
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
        let now = self.domain_now(sd);
        self.metrics.on_send(payload.len());
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
        self.record(
            sd,
            TraceEvent::Sent {
                src,
                dst,
                bytes: payload.len(),
                span,
            },
        );
        // Lock order: network before domain, never the reverse.
        let fate = {
            let net = self.network.read();
            let mut st = self.domains[sd].lock();
            net.plan(src.node, dst.node, payload.len(), now, &mut st.rng)
        };
        match fate {
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
                        self.push_event_domain(sd, t, kind);
                    } else {
                        // Cross-domain: park in the source outbox; the
                        // round barrier merges outboxes in (time, src
                        // domain, send order) order.
                        self.outboxes[sd].lock().push(OutboundEv {
                            dst: dd,
                            time: t,
                            kind,
                        });
                    }
                }
            }
            Fate::Dropped => {
                self.metrics.on_drop();
                self.record(sd, TraceEvent::Dropped { src, dst, span });
            }
            Fate::Blackholed => {
                self.metrics.on_blackhole();
                self.record(sd, TraceEvent::Blackholed { src, dst, span });
            }
        }
    }

    fn pop_mailbox(&self, pid: ProcId) -> Option<Message> {
        self.registry
            .lock()
            .procs
            .get_mut(&pid)
            .and_then(|e| e.mailbox.pop_front())
    }

    /// Allocates a pid and the primary endpoint for a new process.
    /// Identifiers are striped by the allocating domain (`stripe`), so
    /// concurrent domains mint disjoint, individually-deterministic id
    /// sequences. The endpoint is *not* bound here — binding happens at
    /// registration time, in the target domain's timeline.
    fn alloc_proc(&self, stripe: u32, node: NodeId, port: Option<PortId>) -> (ProcId, Endpoint) {
        let mut reg = self.registry.lock();
        let pid = reg.alloc_pid(stripe);
        let port = match port {
            Some(p) => {
                assert!(
                    !p.is_ephemeral(),
                    "explicitly bound ports must be below PortId::EPHEMERAL_BASE, got {p}"
                );
                p
            }
            None => reg.alloc_ephemeral_port(node, stripe),
        };
        (pid, Endpoint::new(node, port))
    }

    /// Binds the endpoint, inserts the entry, records the spawn and
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
        let proc_name = entry.name.clone();
        {
            let mut reg = self.registry.lock();
            assert!(
                !reg.endpoints.contains_key(&endpoint),
                "endpoint {endpoint} already bound"
            );
            reg.endpoints.insert(endpoint, pid);
            reg.procs.insert(pid, entry);
        }
        self.note_proc_spawned(d, in_round);
        self.record(
            d,
            TraceEvent::Spawned {
                pid,
                name: proc_name,
                endpoint,
            },
        );
        // Start the process at the domain's current instant.
        let now = self.domain_now(d);
        self.push_event_domain(d, now, EvKind::Wake(pid));
    }

    /// Updates process-count metrics and gauges for a spawn landing in
    /// domain `d`.
    ///
    /// Single-domain simulations take the classic exact path (`peak`
    /// updated inline). Multi-domain simulations cannot order concurrent
    /// spawns across domains without serializing them, so in-round they
    /// only bump counters and a per-domain ledger; the round barrier
    /// folds the ledgers into a deterministic *upper bound* on the peak
    /// (see `finish_round`). Out-of-round spawns (from the driving
    /// thread, nothing else running) still take the exact path.
    fn note_proc_spawned(&self, d: usize, in_round: bool) {
        let nd = self.ndomains();
        let ts = self.obs.timeseries_enabled();
        if nd == 1 {
            let (spawned, peak) = self.metrics.on_proc_spawn();
            if ts {
                let now_ns = self.domain_now(0).as_nanos();
                self.obs.ts_gauge(now_ns, "processes_spawned", spawned);
                self.obs.ts_gauge(now_ns, "processes_peak", peak);
            }
            return;
        }
        if in_round {
            self.metrics.on_proc_spawn_counts();
        } else {
            // Out-of-round: no other domain is executing, the global
            // live count is exact — keep the classic peak fold.
            let _ = self.metrics.on_proc_spawn();
        }
        let (dom_spawned, dom_live, now) = {
            let mut st = self.domains[d].lock();
            st.spawned += 1;
            st.live += 1;
            st.round_delta += 1;
            st.round_rise = st.round_rise.max(st.round_delta);
            (st.spawned, st.live, st.now)
        };
        if ts {
            let now_ns = now.as_nanos();
            self.obs
                .ts_gauge(now_ns, &self.series[d].spawned, dom_spawned);
            self.obs.ts_gauge(now_ns, &self.series[d].current, dom_live);
        }
    }

    /// Process-count bookkeeping for a process that finished or was
    /// killed in domain `d`.
    fn note_proc_finished(&self, d: usize) {
        self.metrics.on_proc_finish();
        if self.ndomains() > 1 {
            let mut st = self.domains[d].lock();
            st.live = st.live.saturating_sub(1);
            st.round_delta -= 1;
        }
    }

    fn spawn_proc(
        self: &Arc<Self>,
        spawner: Option<usize>,
        name: String,
        node: NodeId,
        port: Option<PortId>,
        body: Box<dyn FnOnce(&mut Ctx) + Send + 'static>,
    ) -> Endpoint {
        let target = self.domain_of(node);
        let stripe = spawner.unwrap_or(target) as u32;
        let (pid, endpoint) = self.alloc_proc(stripe, node, port);

        let mut ctx = Ctx {
            pid,
            name: name.clone(),
            endpoint,
            domain: target,
            shared: Arc::clone(self),
            yielder: None,
            stopped: false,
            seq_counter: std::cell::Cell::new(0),
            current_span: std::cell::Cell::new(obs::SpanId::NONE),
        };
        let handoff = Handoff::new(
            &name,
            Box::new(move |yielder| {
                // Everything this process records flows through its
                // domain's obs writer lane and its simulation's
                // profiler. A body sharing the thread that runs its
                // domain finds both already so; one with a thread of
                // its own says it here, once.
                obs::set_ambient_lane(target);
                obs::set_ambient_profiler(Some(Arc::clone(&ctx.shared.obs)));
                ctx.yielder = Some(yielder);
                body(&mut ctx);
            }),
        );

        let entry = ProcEntry {
            name,
            mailbox: VecDeque::new(),
            state: ProcState::NotStarted,
            gen: 0,
            domain: target,
            kind: ProcKind::Blocking {
                handoff: Some(handoff),
            },
            panic_msg: None,
        };
        self.commit_spawn(spawner, target, pid, endpoint, entry);
        endpoint
    }

    /// Spawns a poll-driven process: no thread, just a state machine in
    /// the process table. See the [`poll`](crate::poll) module.
    fn spawn_polled(
        self: &Arc<Self>,
        spawner: Option<usize>,
        name: String,
        node: NodeId,
        port: Option<PortId>,
        process: Box<dyn Process>,
    ) -> Endpoint {
        let target = self.domain_of(node);
        let stripe = spawner.unwrap_or(target) as u32;
        let (pid, endpoint) = self.alloc_proc(stripe, node, port);

        let ctx = Ctx {
            pid,
            name: name.clone(),
            endpoint,
            domain: target,
            shared: Arc::clone(self),
            // No hand-off: a poll-driven process parks by returning
            // Pending, never by suspending a stack.
            yielder: None,
            stopped: false,
            seq_counter: std::cell::Cell::new(0),
            current_span: std::cell::Cell::new(obs::SpanId::NONE),
        };

        let entry = ProcEntry {
            name,
            mailbox: VecDeque::new(),
            state: ProcState::NotStarted,
            gen: 0,
            domain: target,
            kind: ProcKind::Polled {
                machine: Some(PolledMachine {
                    process,
                    cx: ProcCx::new(ctx),
                }),
            },
            panic_msg: None,
        };
        self.commit_spawn(spawner, target, pid, endpoint, entry);
        endpoint
    }

    /// Registers a freshly built process entry. Same-domain (and
    /// out-of-round) spawns register immediately, exactly like the
    /// sequential scheduler. A spawn *from another domain's execution*
    /// is instead shipped through the outbox as an `ApplySpawn` that
    /// lands one lookahead later in the target's timeline — the earliest
    /// instant the target can causally observe anything from the
    /// spawner's current round.
    fn commit_spawn(
        &self,
        spawner: Option<usize>,
        target: usize,
        pid: ProcId,
        endpoint: Endpoint,
        entry: ProcEntry,
    ) {
        match spawner {
            Some(s) if s != target => {
                let now = self.domain_now(s);
                let la = self.round_lookahead_ns.load(Ordering::Relaxed);
                let at = SimTime::from_nanos(now.as_nanos().saturating_add(la));
                self.outboxes[s].lock().push(OutboundEv {
                    dst: target,
                    time: at,
                    kind: EvKind::ApplySpawn {
                        pid,
                        endpoint,
                        entry: Box::new(entry),
                    },
                });
            }
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
    fn request_kill(&self, from: Option<usize>, target: Endpoint) -> bool {
        let td = self.domain_of(target.node);
        match from {
            Some(s) if s != td => {
                let now = self.domain_now(s);
                let la = self.round_lookahead_ns.load(Ordering::Relaxed);
                let at = SimTime::from_nanos(now.as_nanos().saturating_add(la));
                self.outboxes[s].lock().push(OutboundEv {
                    dst: td,
                    time: at,
                    kind: EvKind::RemoteKill { target },
                });
                true
            }
            _ => self.kill_local(td, target),
        }
    }

    /// Kill running in the victim's own domain: unbind endpoints, clear
    /// the mailbox, schedule teardown at the domain's current instant.
    fn kill_local(&self, d: usize, target: Endpoint) -> bool {
        let mut reg = self.registry.lock();
        let Some(pid) = reg.endpoints.get(&target).copied() else {
            return false;
        };
        let alive = reg
            .procs
            .get(&pid)
            .map(|e| e.state != ProcState::Finished)
            .unwrap_or(false);
        if !alive {
            return false;
        }
        reg.endpoints.retain(|_, p| *p != pid);
        // Drop anything already queued: a crashed process processes
        // nothing more.
        if let Some(entry) = reg.procs.get_mut(&pid) {
            entry.mailbox.clear();
        }
        drop(reg);
        self.record(d, TraceEvent::Killed { pid });
        self.push_event_domain(d, self.domain_now(d), EvKind::Kill(pid));
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

/// The round-execution engine. Everything here runs with `&self` — a
/// worker thread executes `domain_round` for the domains it owns, and
/// all shared state sits behind the per-domain mutexes, the registry
/// mutex, the network rwlock and relaxed atomics.
impl Shared {
    /// Executes one barrier round for domain `d`: pop-and-run every
    /// event with time `t` satisfying `t <= limit && (t == gm || t <
    /// horizon)`. The `t == gm` clause guarantees progress even at zero
    /// lookahead (and lets `SimTime::MAX`-scheduled events eventually
    /// run); the strict `<` keeps the horizon conservative under float
    /// truncation.
    fn domain_round(&self, d: usize, gm: SimTime, horizon: SimTime, limit: SimTime) {
        // Profiler bookkeeping: count the events this round runs
        // (deterministic) and, while the profiler is armed, bracket the
        // whole drain with two clock reads — per round per domain, not
        // per event, so the measurement itself stays out of the hot
        // loop.
        let profiling = self.obs.profile_enabled();
        let t_round = profiling.then(Instant::now);
        let mut events_run: u64 = 0;
        loop {
            // One lock acquisition pops the next runnable event AND
            // advances the domain clock to it, so no observer can see
            // the old time paired with the drained heap (or vice versa).
            let popped = {
                let mut st = self.domains[d].lock();
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
                    &self.series[d].lag,
                    now_ns.saturating_sub(ev.key.time.as_nanos()),
                );
                self.obs.ts_gauge(now_ns, &self.series[d].depth, depth);
            }
            self.dispatch(d, ev.kind);
            events_run += 1;
        }
        if let Some(t_round) = t_round {
            let busy_ns = t_round.elapsed().as_nanos() as u64;
            // Stamp the round ledger for the driver's phase accounting
            // and record the lookahead-efficiency pair at the domain
            // clock: how much runnable work this round found vs how much
            // the horizon deferred. Both values are deterministic, so
            // the series stay byte-identical across thread counts.
            let (now_ns, deferred) = {
                let mut st = self.domains[d].lock();
                st.round_events_run = events_run;
                st.round_busy_ns = busy_ns;
                (st.now.as_nanos(), st.events.len() as u64)
            };
            if self.obs.timeseries_enabled() {
                self.obs.ts_add(now_ns, &self.series[d].run, events_run);
                self.obs.ts_gauge(now_ns, &self.series[d].pending, deferred);
            }
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
        for (src, outbox) in self.outboxes.iter().enumerate() {
            let drained = std::mem::take(&mut *outbox.lock());
            for (idx, ev) in drained.into_iter().enumerate() {
                all.push((ev.time, src, idx, ev));
            }
        }
        if all.is_empty() {
            return;
        }
        all.sort_by_key(|a| (a.0, a.1, a.2));
        for (_, _, _, ev) in all {
            self.push_event_domain(ev.dst, ev.time, ev.kind);
        }
    }

    /// Folds the per-domain spawn ledgers accumulated this round into a
    /// deterministic upper bound on the concurrent-process peak:
    /// `live-at-round-start + Σ max(0, per-domain max prefix rise)`.
    /// Each domain's rise is exact in its own timeline; summing them
    /// bounds every possible interleaving from above and depends only on
    /// per-domain facts — so the reported peak is identical for every
    /// worker count (and exact whenever one domain drives the growth).
    fn finish_round(&self, live_start: u64, gm: SimTime) {
        let mut rise_sum: u64 = 0;
        for dom in self.domains.iter() {
            let st = dom.lock();
            if st.round_rise > 0 {
                rise_sum += st.round_rise as u64;
            }
        }
        if rise_sum == 0 {
            return;
        }
        let new_peak = self.metrics.note_peak_bound(live_start + rise_sum);
        if self.obs.timeseries_enabled() {
            self.obs.ts_gauge(gm.as_nanos(), "processes_peak", new_peak);
        }
    }

    fn dispatch(&self, d: usize, kind: EvKind) {
        match kind {
            EvKind::Wake(pid) => match self.proc_status(pid) {
                Some((ProcState::NotStarted, false)) => self.resume_and_wait(d, pid, Resume::Start),
                Some((ProcState::Sleeping, false)) => self.resume_and_wait(d, pid, Resume::Woken),
                Some((ProcState::NotStarted | ProcState::Parked, true)) => {
                    self.poll_process(d, pid)
                }
                _ => {} // finished or stale
            },
            EvKind::Timeout { pid, gen } => {
                // A timer is live only if the process still blocks on the
                // park that armed it: the generation bumps on every park.
                let polled = {
                    let reg = self.registry.lock();
                    reg.procs.get(&pid).and_then(|e| {
                        if e.gen != gen {
                            return None;
                        }
                        match (&e.kind, e.state) {
                            (ProcKind::Blocking { .. }, ProcState::BlockedRecv) => Some(false),
                            (ProcKind::Polled { .. }, ProcState::Parked) => Some(true),
                            _ => None,
                        }
                    })
                };
                match polled {
                    Some(false) => self.resume_and_wait(d, pid, Resume::TimedOut),
                    Some(true) => self.poll_process(d, pid),
                    None => {}
                }
            }
            EvKind::Kill(pid) => match self.proc_status(pid) {
                Some((ProcState::Finished, _)) | None => {}
                Some((_, true)) => {
                    // A killed state machine just drops: a crash runs no
                    // farewell code (destructors still run, as they would
                    // for a blocking body returning out of Stopped).
                    self.finish_polled(d, pid, None);
                }
                // Tear the victim down now, in its own domain's round.
                Some((_, false)) => self.stop_blocking(d, pid),
            },
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
                let (delivered_src, delivered_dst, delivered_bytes, delivered_span) =
                    (msg.src, msg.dst, msg.payload.len(), msg.span);
                // What the delivery should do to the receiving process:
                // resume a body blocked in recv, poll a parked machine,
                // or nothing (it will find the message when it next runs).
                #[derive(PartialEq)]
                enum After {
                    Nothing,
                    ResumeBody,
                    PollMachine,
                }
                let target = {
                    let mut reg = self.registry.lock();
                    let pid = reg.endpoints.get(&msg.dst).copied();
                    match pid {
                        Some(pid) => {
                            let entry = reg.procs.get_mut(&pid).expect("endpoint maps to proc");
                            if entry.state == ProcState::Finished {
                                None
                            } else {
                                entry.mailbox.push_back(msg);
                                let after = match (&entry.kind, entry.state) {
                                    (ProcKind::Blocking { .. }, ProcState::BlockedRecv) => {
                                        After::ResumeBody
                                    }
                                    // Every delivery wakes a parked machine:
                                    // it parked after seeing an empty
                                    // mailbox, so this message is news. No
                                    // wakeup can be lost — racing
                                    // completions each schedule a poll.
                                    (ProcKind::Polled { .. }, ProcState::Parked) => {
                                        After::PollMachine
                                    }
                                    _ => After::Nothing,
                                };
                                Some((pid, after))
                            }
                        }
                        None => None,
                    }
                };
                match target {
                    Some((pid, after)) => {
                        self.metrics.on_deliver();
                        self.record(
                            d,
                            TraceEvent::Delivered {
                                src: delivered_src,
                                dst: delivered_dst,
                                bytes: delivered_bytes,
                                span: delivered_span,
                            },
                        );
                        match after {
                            After::ResumeBody => self.resume_and_wait(d, pid, Resume::Delivered),
                            After::PollMachine => self.poll_process(d, pid),
                            After::Nothing => {}
                        }
                    }
                    None => {
                        self.metrics.on_blackhole();
                        self.record(
                            d,
                            TraceEvent::Blackholed {
                                src: delivered_src,
                                dst: delivered_dst,
                                span: delivered_span,
                            },
                        );
                    }
                }
            }
        }
    }

    /// The process's state plus whether it is poll-driven.
    fn proc_status(&self, pid: ProcId) -> Option<(ProcState, bool)> {
        self.registry
            .lock()
            .procs
            .get(&pid)
            .map(|e| (e.state, matches!(e.kind, ProcKind::Polled { .. })))
    }

    /// Polls a poll-driven process once. The machine is taken out of the
    /// registry for the duration, so no lock is held while user code
    /// runs (and the machine may freely spawn or kill other processes).
    fn poll_process(&self, d: usize, pid: ProcId) {
        let machine = {
            let mut reg = self.registry.lock();
            let Some(entry) = reg.procs.get_mut(&pid) else {
                return;
            };
            if entry.state == ProcState::Finished {
                return;
            }
            match &mut entry.kind {
                ProcKind::Polled { machine } => machine.take(),
                ProcKind::Blocking { .. } => unreachable!("poll of a blocking process"),
            }
        };
        let Some(mut m) = machine else {
            return;
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| m.process.poll(&mut m.cx)));
        let wake = m.cx.take_wake();
        match result {
            Ok(Poll::Pending) => {
                let gen = {
                    let mut reg = self.registry.lock();
                    let entry = reg.procs.get_mut(&pid).expect("proc vanished");
                    entry.gen += 1;
                    entry.state = ProcState::Parked;
                    match &mut entry.kind {
                        ProcKind::Polled { machine } => *machine = Some(m),
                        ProcKind::Blocking { .. } => unreachable!(),
                    }
                    entry.gen
                };
                if let Some(at) = wake {
                    let at = at.max(self.domain_now(d));
                    self.push_event_domain(d, at, EvKind::Timeout { pid, gen });
                }
            }
            Ok(Poll::Ready(())) => {
                drop(m);
                self.finish_polled(d, pid, None);
            }
            Err(p) => {
                drop(m);
                self.finish_polled(d, pid, Some(panic_message(p.as_ref())));
            }
        }
    }

    /// Marks a poll-driven process finished, dropping its machine and
    /// its mailbox (and with them the process's share of the table
    /// memory).
    fn finish_polled(&self, d: usize, pid: ProcId, panic_msg: Option<String>) {
        let released = {
            let mut reg = self.registry.lock();
            let Some(entry) = reg.procs.get_mut(&pid) else {
                return;
            };
            if panic_msg.is_some() {
                entry.panic_msg = panic_msg;
            }
            if entry.state == ProcState::Finished {
                return;
            }
            entry.state = ProcState::Finished;
            let machine = match &mut entry.kind {
                ProcKind::Polled { machine } => machine.take(),
                ProcKind::Blocking { .. } => None,
            };
            // Nothing reads a finished mailbox and later arrivals are
            // blackholed: what is queued (whole chunks on the bulk path)
            // goes now, not when the simulation is dropped.
            (machine, std::mem::take(&mut entry.mailbox))
        };
        // User destructors run outside the registry lock.
        drop(released);
        self.note_proc_finished(d);
        self.record(d, TraceEvent::Finished { pid });
    }

    /// Resumes `pid`'s blocking body and runs it — on this thread — until
    /// it blocks again or finishes, then records what it yielded. The
    /// registry lock is **not** held while the body runs.
    ///
    /// Must run on the thread that executes domain `d`'s rounds: a body
    /// suspended on its own stack can only continue on the thread that
    /// started it (see `coro.rs`; the hand-off checks).
    fn resume_and_wait(&self, d: usize, pid: ProcId, resume: Resume) {
        let mut handoff = {
            let mut reg = self.registry.lock();
            let entry = reg.procs.get_mut(&pid).expect("resume of unknown proc");
            debug_assert_eq!(entry.domain, d, "process resumed outside its domain");
            match &mut entry.kind {
                ProcKind::Blocking { handoff } => handoff
                    .take()
                    .expect("resume of a running or finished process"),
                ProcKind::Polled { .. } => unreachable!("resume of poll-driven process"),
            }
        };
        let y = handoff.resume(resume);
        let mut reg = self.registry.lock();
        let entry = reg.procs.get_mut(&pid).expect("proc vanished");
        let ProcKind::Blocking { handoff: slot } = &mut entry.kind else {
            unreachable!("checked above");
        };
        match y {
            YieldMsg::Sleep(until) => {
                *slot = Some(handoff);
                entry.state = ProcState::Sleeping;
                drop(reg);
                self.push_event_domain(d, until, EvKind::Wake(pid));
            }
            YieldMsg::Recv { deadline } => {
                *slot = Some(handoff);
                entry.gen += 1;
                entry.state = ProcState::BlockedRecv;
                let gen = entry.gen;
                drop(reg);
                if let Some(dl) = deadline {
                    self.push_event_domain(d, dl, EvKind::Timeout { pid, gen });
                }
            }
            YieldMsg::Finished { panic_msg } => {
                entry.state = ProcState::Finished;
                entry.panic_msg = panic_msg;
                // As in `finish_polled`: the mailbox goes with the stack,
                // and both outside the lock.
                let mailbox = std::mem::take(&mut entry.mailbox);
                drop(reg);
                drop((handoff, mailbox));
                self.note_proc_finished(d);
                self.record(d, TraceEvent::Finished { pid });
            }
        }
    }

    /// Tells every live process of domain `d` to stop, in pid order (so
    /// the domain's `Finished` trace tail is the same however many
    /// threads there are): a blocking body is resumed with `Shutdown`
    /// until it returns; a poll-driven machine gets one final poll with
    /// the stop flag set — the mirror of a body seeing [`Stopped`] — and
    /// is then dropped regardless. Like a round, this runs on the thread
    /// that executes the domain: suspended bodies continue nowhere else.
    fn shutdown_domain(&self, d: usize) {
        let mut pids: Vec<(ProcId, bool)> = {
            let reg = self.registry.lock();
            reg.procs
                .iter()
                .filter(|(_, e)| e.domain == d && e.state != ProcState::Finished)
                .map(|(pid, e)| (*pid, matches!(e.kind, ProcKind::Polled { .. })))
                .collect()
        };
        pids.sort_by_key(|(pid, _)| pid.0);
        for (pid, polled) in pids {
            if polled {
                self.shutdown_polled(d, pid);
            } else {
                self.stop_blocking(d, pid);
            }
        }
    }

    /// Tears one blocking process down: a stopping body may legally
    /// block a few more times before noticing, so keep resuming it with
    /// `Shutdown` until it finishes.
    fn stop_blocking(&self, d: usize, pid: ProcId) {
        loop {
            match self.proc_status(pid) {
                Some((ProcState::Finished, _)) | None => break,
                _ => self.resume_and_wait(d, pid, Resume::Shutdown),
            }
        }
    }

    /// Drops every undispatched event once all domains have shut down:
    /// an `ApplySpawn` parked in a heap or outbox owns a ProcEntry whose
    /// context points back at this Shared (and whose body never ran) —
    /// clearing here breaks the cycle so the Arc can free.
    fn clear_pending(&self) {
        for dom in self.domains.iter() {
            dom.lock().events.clear();
        }
        for outbox in self.outboxes.iter() {
            outbox.lock().clear();
        }
    }

    /// One final poll with the stop flag raised, then finish. Dropping
    /// the machine here also breaks the `Shared → registry → ProcCx →
    /// Shared` reference cycle a parked machine's context holds.
    fn shutdown_polled(&self, d: usize, pid: ProcId) {
        let machine = {
            let mut reg = self.registry.lock();
            let Some(entry) = reg.procs.get_mut(&pid) else {
                return;
            };
            if entry.state == ProcState::Finished {
                return;
            }
            match &mut entry.kind {
                ProcKind::Polled { machine } => machine.take(),
                ProcKind::Blocking { .. } => unreachable!(),
            }
        };
        let panic_msg = machine.and_then(|mut m| {
            m.cx.ctx.stopped = true;
            panic::catch_unwind(AssertUnwindSafe(|| m.process.poll(&mut m.cx)))
                .err()
                .map(|p| panic_message(p.as_ref()))
        });
        self.finish_polled(d, pid, panic_msg);
    }

    /// Panics (deterministically, sorted by pid) if any simulated
    /// process panicked.
    fn check_panics(&self) {
        let mut panics: Vec<(u32, String, String)> = {
            let reg = self.registry.lock();
            reg.procs
                .iter()
                .filter_map(|(pid, e)| {
                    e.panic_msg
                        .as_ref()
                        .map(|m| (pid.0, e.name.clone(), m.clone()))
                })
                .collect()
        };
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
    /// The process's side of its hand-off with the scheduler, from the
    /// moment a blocking body starts. `None` for poll-driven processes,
    /// which never block on the scheduler.
    yielder: Option<Yielder>,
    stopped: bool,
    seq_counter: std::cell::Cell<u64>,
    current_span: std::cell::Cell<obs::SpanId>,
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

    /// Sends `payload` to `dst` with an explicit source endpoint, which
    /// must be one of this process's bound endpoints (e.g. an extra port
    /// bound with [`Ctx::bind_port`]).
    pub fn send_from(&self, src: Endpoint, dst: Endpoint, payload: Bytes) {
        debug_assert_eq!(src.node, self.endpoint.node, "send_from across nodes");
        self.shared.send(src, dst, payload, self.current_span.get());
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

    /// [`Ctx::send_from`] with an explicit span, see [`Ctx::send_traced`].
    pub fn send_from_traced(
        &self,
        src: Endpoint,
        dst: Endpoint,
        payload: Bytes,
        span: obs::SpanId,
    ) {
        debug_assert_eq!(src.node, self.endpoint.node, "send_from across nodes");
        self.shared.send(src, dst, payload, span);
    }

    /// Appends a protocol-level event to the simulation timeline (no-op
    /// unless tracing is enabled). Upper layers use this to record the
    /// events the network itself cannot see: retransmission decisions,
    /// server executions, proxy cache hits, forwarding and migration.
    pub fn trace(&self, event: TraceEvent) {
        self.shared.record(self.domain, event);
    }

    /// Whether a timeline is being recorded. [`Ctx::trace`] is a no-op
    /// otherwise; callers whose events own strings check this first and
    /// skip building them.
    pub fn tracing(&self) -> bool {
        self.shared.tracing.load(Ordering::Relaxed)
    }

    /// Binds an additional well-known port routed to this process's
    /// mailbox. Incoming [`Message::dst`] distinguishes the ports.
    ///
    /// # Panics
    ///
    /// Panics if the port is ephemeral-range or already bound on this node.
    pub fn bind_port(&self, port: PortId) -> Endpoint {
        let ep = Endpoint::new(self.endpoint.node, port);
        let mut reg = self.shared.registry.lock();
        assert!(
            !port.is_ephemeral(),
            "bind_port requires a well-known port, got {port}"
        );
        assert!(
            !reg.endpoints.contains_key(&ep),
            "endpoint {ep} already bound"
        );
        reg.endpoints.insert(ep, self.pid);
        ep
    }

    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub fn recv(&mut self) -> Result<Message, Stopped> {
        match self.recv_inner(None)? {
            Some(m) => Ok(m),
            None => unreachable!("recv without deadline returned empty"),
        }
    }

    /// Blocks until a message arrives or `timeout` elapses; `Ok(None)`
    /// means the timeout fired first.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<Message>, Stopped> {
        let deadline = self.now() + timeout;
        self.recv_inner(Some(deadline))
    }

    /// Blocks until a message arrives or the absolute `deadline` passes.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub fn recv_deadline(&mut self, deadline: SimTime) -> Result<Option<Message>, Stopped> {
        self.recv_inner(Some(deadline))
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
        Ok(self.shared.pop_mailbox(self.pid))
    }

    fn recv_inner(&mut self, deadline: Option<SimTime>) -> Result<Option<Message>, Stopped> {
        if self.stopped {
            return Err(Stopped);
        }
        loop {
            if let Some(m) = self.shared.pop_mailbox(self.pid) {
                return Ok(Some(m));
            }
            if let Some(dl) = deadline {
                if dl <= self.now() {
                    return Ok(None);
                }
            }
            match self.block_on(YieldMsg::Recv { deadline }) {
                Resume::Delivered => continue,
                Resume::TimedOut => return Ok(None),
                Resume::Shutdown => {
                    self.stopped = true;
                    return Err(Stopped);
                }
                other => unreachable!("unexpected resume in recv: {other:?}"),
            }
        }
    }

    /// Advances this process's virtual time by `d`.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub fn sleep(&mut self, d: Duration) -> Result<(), Stopped> {
        if self.stopped {
            return Err(Stopped);
        }
        if d.is_zero() {
            return Ok(());
        }
        let until = self.now() + d;
        match self.block_on(YieldMsg::Sleep(until)) {
            Resume::Woken => Ok(()),
            Resume::Shutdown => {
                self.stopped = true;
                Err(Stopped)
            }
            other => unreachable!("unexpected resume in sleep: {other:?}"),
        }
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
            .spawn_proc(Some(self.domain), name.into(), node, None, Box::new(body))
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
        self.shared.spawn_proc(
            Some(self.domain),
            name.into(),
            node,
            Some(port),
            Box::new(body),
        )
    }

    /// Spawns a poll-driven process on `node` with an ephemeral port
    /// (see [`Simulation::spawn_poll`]).
    pub fn spawn_poll<P>(&self, name: impl Into<String>, node: NodeId, process: P) -> Endpoint
    where
        P: Process,
    {
        self.shared.spawn_polled(
            Some(self.domain),
            name.into(),
            node,
            None,
            Box::new(process),
        )
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
        self.shared.spawn_polled(
            Some(self.domain),
            name.into(),
            node,
            Some(port),
            Box::new(process),
        )
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
    /// exits) and all of its endpoints are unbound, so in-flight and
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
        self.shared.request_kill(Some(self.domain), target)
    }

    /// Runs `f` with this process's domain RNG — deterministic in the
    /// domain's execution order. With one domain this is the classic
    /// simulation-wide RNG stream.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.shared.domains[self.domain].lock().rng)
    }

    /// Draws a uniformly random `u64` from the domain RNG.
    pub fn rand_u64(&self) -> u64 {
        self.with_rng(|r| r.gen())
    }

    /// Whether this context belongs to a poll-driven process. Blocking
    /// operations are unavailable there; protocol layers can branch on
    /// this to pick a non-blocking strategy.
    pub fn is_poll_driven(&self) -> bool {
        self.yielder.is_none()
    }

    fn block_on(&mut self, y: YieldMsg) -> Resume {
        let Some(yielder) = &self.yielder else {
            panic!(
                "blocking Ctx operation ({y:?}) in poll-driven process '{}': \
                 a state machine parks by returning Poll::Pending (arm a timer \
                 with ProcCx::wake_at / wake_after instead of sleeping, and use \
                 try_recv instead of recv)",
                self.name
            );
        };
        yielder.block_on(y)
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

/// What every worker is told to do with each domain it owns.
#[derive(Debug, Clone, Copy)]
enum Job {
    /// Execute one barrier round with these parameters.
    Round {
        gm: SimTime,
        horizon: SimTime,
        limit: SimTime,
    },
    /// Stop the domain's processes ([`Shared::shutdown_domain`]): a
    /// suspended blocking body can only be resumed by the thread that
    /// ran it, so shutdown is a job like any round.
    Shutdown,
}

/// A small pool of OS threads that execute domain rounds. Domains are
/// assigned statically (worker `w` owns domains `w, w+size, w+2·size,
/// …`), so which *thread* runs a domain is fixed — but since domain
/// rounds are mutually independent up to the barrier, the assignment
/// (and the pool size) has no effect on results at all.
struct WorkerPool {
    job_txs: Vec<Sender<Job>>,
    done_rx: Receiver<Result<(), String>>,
    handles: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    fn new(shared: &Arc<Shared>, size: usize) -> WorkerPool {
        let nd = shared.ndomains();
        let (done_tx, done_rx) = unbounded::<Result<(), String>>();
        let mut job_txs = Vec::with_capacity(size);
        let mut handles = Vec::with_capacity(size);
        for w in 0..size {
            let (tx, rx) = unbounded::<Job>();
            job_txs.push(tx);
            let shared = Arc::clone(shared);
            let done = done_tx.clone();
            let handle = std::thread::Builder::new()
                .name(format!("simnet-worker-{w}"))
                .spawn(move || {
                    // Worker-side folds (scopes opened inside event
                    // dispatch) land in this simulation's registry.
                    obs::set_ambient_profiler(Some(Arc::clone(&shared.obs)));
                    while let Ok(job) = rx.recv() {
                        let r = panic::catch_unwind(AssertUnwindSafe(|| {
                            for d in (w..nd).step_by(size) {
                                obs::set_ambient_lane(d);
                                match job {
                                    Job::Round { gm, horizon, limit } => {
                                        shared.domain_round(d, gm, horizon, limit)
                                    }
                                    Job::Shutdown => shared.shutdown_domain(d),
                                }
                            }
                        }));
                        let ack = r.map_err(|p| panic_message(p.as_ref()));
                        if done.send(ack).is_err() {
                            return;
                        }
                    }
                })
                .expect("failed to spawn simnet worker thread");
            handles.push(handle);
        }
        WorkerPool {
            job_txs,
            done_rx,
            handles,
        }
    }

    fn size(&self) -> usize {
        self.job_txs.len()
    }

    /// Broadcasts one job and blocks until every worker acks. All acks
    /// are collected before any panic propagates, so a worker failure
    /// can never leave a peer running into the next round.
    fn run(&self, job: Job) {
        for tx in &self.job_txs {
            tx.send(job).expect("simnet worker gone");
        }
        let mut first_err: Option<String> = None;
        for _ in 0..self.job_txs.len() {
            match self.done_rx.recv().expect("simnet worker gone") {
                Ok(()) => {}
                Err(e) => {
                    first_err.get_or_insert(e);
                }
            }
        }
        if let Some(e) = first_err {
            panic!("simnet worker panicked: {e}");
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.job_txs.clear(); // closes the channels; workers exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
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
    /// Requested worker-thread count; the pool actually built is capped
    /// at the domain count. Never affects results, only wall-clock.
    threads: usize,
    workers: Option<WorkerPool>,
}

impl std::fmt::Debug for Simulation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Simulation")
            .field("now", &self.shared.max_now())
            .field("domains", &self.shared.ndomains())
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

fn build_domains(n: usize, seed: u64) -> Box<[Mutex<DomainState>]> {
    (0..n)
        .map(|d| Mutex::new(DomainState::new(d, seed)))
        .collect()
}

fn build_outboxes(n: usize) -> Box<[Mutex<Vec<OutboundEv>>]> {
    (0..n).map(|_| Mutex::new(Vec::new())).collect()
}

fn build_series(n: usize) -> Box<[DomainSeries]> {
    (0..n).map(|d| DomainSeries::new(d, n)).collect()
}

impl Simulation {
    /// Creates a simulation with the given network model and RNG seed.
    /// One domain, one thread: the classic sequential scheduler.
    pub fn new(config: NetworkConfig, seed: u64) -> Simulation {
        Simulation {
            shared: Arc::new(Shared {
                domains: build_domains(1, seed),
                outboxes: build_outboxes(1),
                series: build_series(1),
                round_lookahead_ns: AtomicU64::new(u64::MAX),
                tracing: AtomicBool::new(false),
                registry: Mutex::new(Registry {
                    procs: HashMap::new(),
                    endpoints: HashMap::new(),
                    stripes: 1,
                    next_proc: vec![0],
                    next_ephemeral: HashMap::new(),
                }),
                network: RwLock::new(Network::new(config)),
                metrics: Arc::new(Metrics::new()),
                obs: Arc::new(obs::MetricsRegistry::new()),
                seed,
            }),
            threads: 1,
            workers: None,
        }
    }

    /// Partitions the simulation into `n` scheduling domains: node `i`'s
    /// processes and events belong to domain `i % n`. For a fixed seed
    /// and topology the results are **identical for every domain count
    /// observable by the simulation** — except the documented
    /// multi-domain approximations (cross-domain spawn/kill land one
    /// lookahead later; `processes_peak` becomes a deterministic upper
    /// bound) — and identical across *thread* counts always.
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
        shared.domains = build_domains(n, seed);
        shared.outboxes = build_outboxes(n);
        shared.series = build_series(n);
        shared
            .round_lookahead_ns
            .store(if n == 1 { u64::MAX } else { 0 }, Ordering::Relaxed);
        {
            let mut reg = shared.registry.lock();
            assert!(reg.procs.is_empty(), "set the domain count before spawning");
            reg.stripes = n as u32;
            reg.next_proc = vec![0; n];
            reg.next_ephemeral.clear();
        }
        Arc::get_mut(&mut shared.obs)
            .expect("set the domain count before sharing the obs registry")
            .set_writer_lanes(n);
        self
    }

    /// Sets the worker-thread count used to execute domain rounds.
    /// Purely a wall-clock knob: any value produces bit-identical
    /// results (the determinism tests run the same seed at 1, 2 and 4
    /// threads and compare bytes). Capped at the domain count.
    #[must_use]
    pub fn with_threads(mut self, n: usize) -> Simulation {
        self.threads = n.max(1);
        self
    }

    /// The number of scheduling domains.
    pub fn domains(&self) -> usize {
        self.shared.ndomains()
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Replaces the observability registry with one using an explicit
    /// number of statistic stripes (see
    /// [`obs::MetricsRegistry::with_layout`]). The layout affects lock
    /// contention only — for a fixed seed the resulting
    /// [`obs::RunReport`] is byte-identical for any layout, which the
    /// merge-determinism tests pin down.
    ///
    /// # Panics
    ///
    /// Panics if called after a process has been spawned (the registry
    /// is already shared at that point).
    #[must_use]
    pub fn with_obs_layout(mut self, stat_stripes: usize) -> Simulation {
        let lanes = self.shared.ndomains();
        let shared =
            Arc::get_mut(&mut self.shared).expect("set the obs layout before spawning any process");
        let mut reg = obs::MetricsRegistry::with_layout(stat_stripes);
        reg.set_writer_lanes(lanes);
        shared.obs = Arc::new(reg);
        self
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
        for dom in self.shared.domains.iter() {
            dom.lock().trace = Some(Trace::new(capacity));
        }
        self.shared.tracing.store(true, Ordering::Relaxed);
    }

    /// Drains and returns the recorded timeline (empty if tracing was
    /// never enabled). Recording continues afterwards. Domain slices
    /// are merged by `(time, domain, record order)` — a pure function
    /// of per-domain facts, so the merged timeline is identical for
    /// every thread count. The returned [`TraceDump`] carries the count
    /// of records the bounded rings evicted, so a truncated timeline is
    /// never mistaken for a complete one; draining resets the counters.
    pub fn take_trace(&self) -> TraceDump {
        let nd = self.shared.ndomains();
        if nd == 1 {
            return self.shared.domains[0]
                .lock()
                .trace
                .as_mut()
                .map(|t| t.drain())
                .unwrap_or_default();
        }
        let mut tagged: Vec<(SimTime, usize, usize, TraceRecord)> = Vec::new();
        let mut evicted = 0;
        for (d, dom) in self.shared.domains.iter().enumerate() {
            let dump = match dom.lock().trace.as_mut() {
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
        self.shared
            .domains
            .iter()
            .map(|d| d.lock().trace.as_ref().map(|t| t.truncated).unwrap_or(0))
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
    /// sink (capacity, every-Nth-span sampling). Ring evictions that
    /// happened before the drain are carried into the sink's counter.
    pub fn causal_trace_with(&self, mut sink: obs::TraceSink) -> obs::CausalTrace {
        let dump = self.take_trace();
        sink.note_upstream_evicted(dump.evicted);
        for record in &dump {
            if let Some(e) = record.to_net_event() {
                sink.push_net(e);
            }
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
            .spawn_proc(None, name.into(), node, None, Box::new(body))
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
            .spawn_proc(None, name.into(), node, Some(port), Box::new(body))
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
            .spawn_polled(None, name.into(), node, None, Box::new(process))
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
            .spawn_polled(None, name.into(), node, Some(port), Box::new(process))
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
    /// time *exactly*), each domain's busy/stall split of the exec
    /// phase, and — when the flight recorder is also on — the
    /// per-domain utilization gauges plus the cross-domain imbalance
    /// figure. Frame call counts (1 per round per frame) and the
    /// imbalance series are deterministic; every `wall_ns` is
    /// host-dependent and reported-not-judged.
    fn profile_round(&self, gm: SimTime, t0: Instant, t1: Instant, t2: Instant) {
        let t3 = Instant::now();
        let obs = &self.shared.obs;
        obs.profile_add("sched;round", 1, (t3 - t0).as_nanos() as u64);
        obs.profile_add("sched;round;pick", 1, (t1 - t0).as_nanos() as u64);
        let exec_ns = (t2 - t1).as_nanos() as u64;
        obs.profile_add("sched;round;exec", 1, exec_ns);
        obs.profile_add("sched;round;merge", 1, (t3 - t2).as_nanos() as u64);
        let ts = obs.timeseries_enabled();
        let gm_ns = gm.as_nanos();
        let nd = self.shared.ndomains();
        let mut max_run = 0u64;
        let mut sum_run = 0u64;
        for (d, dom) in self.shared.domains.iter().enumerate() {
            let (busy, run) = {
                let st = dom.lock();
                (st.round_busy_ns, st.round_events_run)
            };
            // The domain's own clock reads bracket a subset of the exec
            // phase, so clamp before splitting: busy is what the domain
            // measured running events, stall is the rest of the phase
            // (barrier wait + not being scheduled).
            let busy = busy.min(exec_ns);
            let series = &self.shared.series[d];
            obs.profile_add(&series.busy_frame, 1, busy);
            obs.profile_add(&series.stall_frame, 1, exec_ns - busy);
            if ts && exec_ns > 0 {
                obs.ts_gauge(gm_ns, &series.busy_frac, busy * 1000 / exec_ns);
                obs.ts_gauge(gm_ns, &series.stall_frac, (exec_ns - busy) * 1000 / exec_ns);
            }
            max_run = max_run.max(run);
            sum_run += run;
        }
        if ts && nd > 1 && sum_run > 0 {
            // Cross-domain imbalance: the busiest domain's share of the
            // round's events relative to a perfectly level split, in
            // per-mille (1000 = balanced). Event counts only, so the
            // series is byte-identical across thread counts.
            let imb = max_run.saturating_mul(1000).saturating_mul(nd as u64) / sum_run;
            obs.ts_gauge(gm_ns, "sched_imbalance_permille", imb);
        }
    }

    /// Stops every live process, each domain on the thread that ran its
    /// rounds — the worker pool if one was built, this thread otherwise
    /// — then drops whatever never got dispatched.
    fn shutdown(&self) {
        obs::set_ambient_profiler(Some(Arc::clone(&self.shared.obs)));
        match &self.workers {
            Some(pool) => pool.run(Job::Shutdown),
            None => {
                let nd = self.shared.ndomains();
                for d in 0..nd {
                    obs::set_ambient_lane(d);
                    self.shared.shutdown_domain(d);
                }
                obs::set_ambient_lane(0);
            }
        }
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
        let nw = self.threads.min(nd);
        if nw > 1 && self.workers.as_ref().map(|p| p.size()) != Some(nw) {
            self.workers = Some(WorkerPool::new(&self.shared, nw));
        }
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
            for dom in self.shared.domains.iter() {
                let mut st = dom.lock();
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
            let job = Job::Round { gm, horizon, limit };
            let t_pick = profiling.then(Instant::now);
            if nw > 1 {
                self.workers.as_ref().expect("pool built above").run(job);
            } else {
                for d in 0..nd {
                    if nd > 1 {
                        obs::set_ambient_lane(d);
                    }
                    self.shared.domain_round(d, gm, horizon, limit);
                }
                if nd > 1 {
                    obs::set_ambient_lane(0);
                }
            }
            let t_exec = profiling.then(Instant::now);
            self.shared.flush_outboxes();
            if nd > 1 {
                self.shared.finish_round(live_start, gm);
            }
            if let (Some(t0), Some(t1), Some(t2)) = (t_round, t_pick, t_exec) {
                self.profile_round(gm, t0, t1, t2);
            }
        }
        if beyond_limit {
            for dom in self.shared.domains.iter() {
                dom.lock().now = limit;
            }
        }
        self.shared.check_panics();
        let (finished, alive) = {
            let reg = self.shared.registry.lock();
            let finished = reg
                .procs
                .values()
                .filter(|p| p.state == ProcState::Finished)
                .count();
            (finished, reg.procs.len() - finished)
        };
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
    fn extra_port_demultiplexes_by_dst() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let hits = Arc::new(Mutex::new(Vec::new()));
        let h = Arc::clone(&hits);
        let main = sim.spawn_at("multi", NodeId(0), PortId(5), move |ctx| {
            let cb = ctx.bind_port(PortId(6));
            for _ in 0..2 {
                let m = ctx.recv().unwrap();
                h.lock().push(m.dst == cb);
            }
        });
        sim.spawn("sender", NodeId(1), move |ctx| {
            ctx.send(main, Bytes::from_static(b"a"));
            ctx.send(
                Endpoint::new(NodeId(0), PortId(6)),
                Bytes::from_static(b"b"),
            );
        });
        sim.run();
        let v = hits.lock().clone();
        assert_eq!(v, vec![false, true]);
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
            .map(|r| match r.event {
                TraceEvent::Spawned { .. } => "spawn",
                TraceEvent::Sent { .. } => "send",
                TraceEvent::Delivered { .. } => "deliver",
                TraceEvent::Finished { .. } => "finish",
                TraceEvent::Dropped { .. } => "drop",
                TraceEvent::Blackholed { .. } => "blackhole",
                TraceEvent::Killed { .. } => "kill",
                _ => "protocol",
            })
            .collect();
        assert_eq!(
            kinds,
            vec![
                "spawn", "spawn", // echo + client
                "send", "deliver", // ping
                "send", "finish", // echo replies then finishes
                "deliver", "finish", // client gets pong, finishes
            ],
            "unexpected timeline: {:#?}",
            trace.iter().map(ToString::to_string).collect::<Vec<_>>()
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
            .any(|r| matches!(r.event, TraceEvent::Dropped { .. })));
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
}

#[cfg(test)]
mod domain_tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering as AtomicOrdering};

    /// A closed-loop echo workload spread over 8 nodes, run to
    /// completion. Returns everything an outside observer can see.
    fn run_workload(domains: usize, threads: usize, seed: u64) -> (String, String, u64, u64) {
        let mut sim = Simulation::new(NetworkConfig::lan().with_jitter(0.2).with_loss(0.05), seed)
            .with_domains(domains)
            .with_threads(threads);
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
        let trace: String = sim.take_trace().iter().map(|r| format!("{r}\n")).collect();
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

    #[test]
    fn thread_count_does_not_change_results() {
        let base = run_workload(4, 1, 42);
        for threads in [2, 4] {
            let other = run_workload(4, threads, 42);
            assert_eq!(base.0, other.0, "summary differs at {threads} threads");
            assert_eq!(base.1, other.1, "trace differs at {threads} threads");
            assert_eq!(base.2, other.2, "peak differs at {threads} threads");
        }
        assert_eq!(base.3, 0, "no time inversions in an undisturbed run");
    }

    #[test]
    fn single_domain_ignores_thread_count() {
        let a = run_workload(1, 1, 7);
        let b = run_workload(1, 4, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn cross_domain_spawn_and_kill_are_deterministic() {
        fn run_once(threads: usize) -> (String, u64) {
            let mut sim = Simulation::new(NetworkConfig::lan(), 9)
                .with_domains(3)
                .with_threads(threads);
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
            let trace: String = sim.take_trace().iter().map(|r| format!("{r}\n")).collect();
            (trace, spawned.load(AtomicOrdering::SeqCst))
        }
        let a = run_once(1);
        let b = run_once(3);
        assert_eq!(a, b, "cross-domain spawn/kill must not depend on threads");
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
        fn staged(threads: usize) -> (u64, u64, String) {
            let mut sim = Simulation::new(NetworkConfig::lan(), 5)
                .with_domains(2)
                .with_threads(threads);
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
            let trace: String = sim.take_trace().iter().map(|r| format!("{r}\n")).collect();
            (
                mid.metrics.events_dispatched,
                fin.metrics.msgs_delivered,
                trace,
            )
        }
        assert_eq!(staged(1), staged(2));
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
        let queued = |sim: &Simulation| -> Vec<(usize, usize)> {
            let reg = sim.shared.registry.lock();
            [blocking, polled]
                .iter()
                .map(|ep| {
                    let m = &reg.procs[&reg.endpoints[ep]].mailbox;
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
}
