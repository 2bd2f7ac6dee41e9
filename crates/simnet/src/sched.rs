//! The deterministic scheduler and the process API.
//!
//! # Execution model
//!
//! Every simulated process is a [`Process`]: a state machine the
//! scheduler polls in event order, on the thread driving the simulation,
//! whenever one of its wake conditions fires (its first instant, a
//! delivery, a timer it armed), and which parks by returning
//! [`Poll::Pending`]. A parked process is one entry in the process
//! table; how it executes is invisible to the scheduler. The program
//! writes every process one way:
//!
//! * [`Simulation::spawn_async`] takes a future, whose machine the
//!   compiler writes: straight-line code that costs its future parked,
//!   and no stack (see the [`task`](crate::task) module), so simulations
//!   scale to hundreds of thousands of concurrent processes (experiment
//!   E16). Servers, clients, name servers and experiment logic are all
//!   written this way ([`Ctx::spawn_async`] spawns one from inside a
//!   running process).
//!
//! Two more spawn calls remain only for the benchmark's system under
//! test (`benchmark/src/sut.rs`), until it is ported, and for tests:
//!
//! * [`Simulation::spawn_poll`] takes a hand-written machine. Parked, it
//!   costs its own struct (see the [`poll`](crate::poll) module).
//! * [`Simulation::spawn`] and [`Simulation::spawn_at`] take ordinary
//!   blocking Rust code against a [`Ctx`], on a stack of its own. The
//!   machine polled for it resumes the stack until the body blocks again
//!   (in [`Ctx::recv`], [`Ctx::sleep`], [`Ctx::block_on`]), then parks
//!   the way an `async` body waiting for the same thing would (see
//!   `body.rs`), so the two dispatch the same events. On x86-64 Linux the
//!   stack is a coroutine's — a private 2 MiB mapping switched to and
//!   from in user space, on the thread driving the simulation — so a poll
//!   costs two register swaps and a parked body costs the stack pages it
//!   has touched. Every other target gives each body an OS thread and
//!   hands off through two channels; nothing but the cost differs.
//!
//!   What a body may rely on and what it may not: it is only ever
//!   resumed on the OS thread that started it (the thread that calls
//!   [`Simulation::run_until`] runs every event *and the shutdown*, and
//!   the hand-off checks), so thread-locals and non-`Send` values may
//!   live across a blocking call; it shares that thread's thread-locals
//!   with the scheduler and every other process; overflowing its stack
//!   is a bare `SIGSEGV` on the guard page; and a destructor that blocks
//!   while the body is unwinding from a panic hands control to a
//!   scheduler whose thread reports `std::thread::panicking()`.
//!
//! # One event heap
//!
//! Every pending event — a process's first instant, a delivery, a timer,
//! a kill — waits in one heap ordered by `(time, seq)`, where `seq` is
//! a counter bumped on every push: events at one instant run in the
//! order they were scheduled. A schedule *is* that order. The heap holds
//! 16-byte keys only; each names its event's slot in a slab, so a sift
//! moves keys, not messages, and a freed slot is reused by the next push
//! (see `events.rs`).
//!
//! The heap holds live events only. A parked process has at most one
//! pending timer, the earliest wake its last poll asked for. When the
//! process is polled again (a delivery woke it first) or finishes, that
//! timer is taken out of the heap, so no abandoned deadline waits for
//! its instant. Taking an event out moves no other: every push keeps its
//! `seq`, so the order of the events that run does not change.
//!
//! [`Simulation::run_until`] pops and dispatches one event at a time:
//! one clock, one RNG drawn in event order, one process running at any
//! instant — the same seed gives the same interleaving and the same
//! results. The scheduler's state sits under one mutex because a
//! blocking body on a target without coroutines runs on an OS thread of
//! its own and reaches that state through its [`Ctx`].
//!
//! This is the repo's substitute for the paper's testbed of Unix processes
//! on a LAN (see `DESIGN.md` §6): a process is written as straight-line
//! code, while the network in between is simulated and fault-injectable.

use std::cell::{Cell, OnceCell};
use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
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
use crate::events::{Events, NO_SLOT};
use crate::metrics::{Metrics, MetricsSnapshot};
use crate::msg::Message;
use crate::net::{Fate, Network, NetworkConfig};
use crate::poll::{Poll, ProcCx, Process};
use crate::task::{Async, AsyncCx};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
use crate::thread_handoff::Yielder;
use crate::time::SimTime;
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

/// A pending event: a process's first instant or the end of its deaf
/// sleep (`Wake`), the timer a parked process armed (`Timeout`, its
/// [`ProcEntry::timer`]), a datagram's arrival, or a crash.
enum EvKind {
    Wake(ProcId),
    Timeout(ProcId),
    Deliver { msg: Message },
    Kill(ProcId),
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
    /// The slot of the process's one pending [`EvKind::Timeout`], or
    /// [`NO_SLOT`]. It leaves the heap when it pops, when the process
    /// is polled again and when the process finishes, so the heap holds
    /// no timer that would wake nothing.
    timer: u32,
    /// Taken out of the process table while being polled, so no lock is
    /// held during user code, and put back if the poll returns
    /// `Pending`; gone once the process has finished.
    machine: Option<PolledMachine>,
    panic_msg: Option<String>,
}

/// The scheduler's state: the virtual clock, the pending events, the
/// RNG, the trace ring, the process table and the id counters, under
/// ONE mutex. The loop pops the next event and advances the clock in a
/// single acquisition, so no observer can see a clock out of step with
/// the heap it was derived from.
struct SchedState {
    now: SimTime,
    events: Events<EvKind>,
    /// Seeded with the simulation seed, drawn in event order.
    rng: StdRng,
    trace: Option<Trace>,
    /// Every process, and the endpoint each one is bound to (one per
    /// process).
    procs: HashMap<ProcId, ProcEntry>,
    endpoints: HashMap<Endpoint, ProcId>,
    /// Pids handed out so far, and ephemeral ports per node.
    next_proc: u32,
    next_ephemeral: HashMap<NodeId, u32>,
}

impl SchedState {
    /// Appends the event `event` builds to the trace ring at the current
    /// instant; an untraced run never calls `event`.
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

struct Shared {
    state: Mutex<SchedState>,
    /// Whether [`Simulation::enable_trace`] installed the trace ring.
    /// Relaxed: it guards no data (the ring sits under the state mutex);
    /// it only lets an untraced run skip building the event and taking
    /// the lock to find no ring there.
    tracing: AtomicBool,
    network: RwLock<Network>,
    metrics: Arc<Metrics>,
    obs: Arc<obs::MetricsRegistry>,
    /// RNG seed the simulation was built with, stamped into report
    /// provenance so artifacts from different seeds are never compared.
    seed: u64,
}

impl Shared {
    fn st(&self) -> MutexGuard<'_, SchedState> {
        self.state.lock()
    }

    fn now(&self) -> SimTime {
        self.st().now
    }

    /// Records the event `event` builds in the trace ring at the current
    /// instant; an untraced run never calls `event`. It runs before the
    /// state is locked (building an event may read the clock); one lock
    /// acquisition then covers the timestamp and the push, so the two
    /// can never drift apart.
    fn record(&self, span: obs::SpanId, event: impl FnOnce() -> TraceEvent) {
        if !self.tracing.load(Ordering::Relaxed) {
            return;
        }
        let event = event();
        self.st().record(span, || event);
    }

    /// Plans delivery for a payload and enqueues the resulting events.
    /// `span` is the causal span the send happens on behalf of; it
    /// rides along in the [`Message`] so the delivery (or loss) trace
    /// event stays attributed to the request.
    fn send(&self, src: Endpoint, dst: Endpoint, payload: Bytes, span: obs::SpanId) {
        self.metrics.on_send(payload.len());
        // Lock order: network before state, never the reverse.
        let net = self.network.read();
        let mut st = self.st();
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
        let deliver = |st: &mut SchedState, at: SimTime, payload: Bytes| {
            let msg = Message {
                src,
                dst,
                payload,
                sent_at: now,
                delivered_at: at,
                span,
            };
            st.events.push(at, EvKind::Deliver { msg });
        };
        match net.plan(src.node, dst.node, payload.len(), now, &mut st.rng) {
            Fate::Deliver { at, duplicate } => {
                if let Some(again) = duplicate {
                    self.metrics.on_duplicate();
                    deliver(&mut st, at, payload.clone());
                    deliver(&mut st, again, payload);
                } else {
                    deliver(&mut st, at, payload);
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

    fn pop_mailbox(&self, pid: ProcId) -> Option<Message> {
        self.st()
            .procs
            .get_mut(&pid)
            .and_then(|e| e.mailbox.pop_front())
    }

    /// Allocates a pid and the primary endpoint for a new process. The
    /// endpoint is *not* bound here — binding happens at registration.
    fn alloc_proc(&self, node: NodeId, port: Option<PortId>) -> (ProcId, Endpoint) {
        if let Some(p) = port {
            assert!(
                !p.is_ephemeral(),
                "explicitly bound ports must be below PortId::EPHEMERAL_BASE, got {p}"
            );
        }
        let mut st = self.st();
        let pid = ProcId(st.next_proc);
        st.next_proc += 1;
        let port = port.unwrap_or_else(|| {
            let c = st.next_ephemeral.entry(node).or_insert(0);
            let port = PortId(PortId::EPHEMERAL_BASE + *c);
            *c += 1;
            port
        });
        (pid, Endpoint::new(node, port))
    }

    /// The one spawn path: allocates the process's pid and endpoint,
    /// builds its context and the machine `make` builds against it, then
    /// records the spawn, binds the endpoint, inserts the entry and
    /// schedules the first wake at the current instant.
    fn spawn_proc(
        self: &Arc<Self>,
        name: String,
        node: NodeId,
        port: Option<PortId>,
        make: impl FnOnce(&Ctx) -> Box<dyn Process>,
    ) -> Endpoint {
        let (pid, endpoint) = self.alloc_proc(node, port);
        let ctx = Ctx::new(pid, name.clone(), endpoint, Arc::clone(self));
        let process = make(&ctx);
        let entry = ProcEntry {
            name,
            mailbox: VecDeque::new(),
            state: ProcState::NotStarted,
            timer: NO_SLOT,
            machine: Some(PolledMachine {
                process,
                cx: ProcCx::new(ctx),
            }),
            panic_msg: None,
        };
        let mut st = self.st();
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
        self.metrics.on_proc_spawn();
        let now = st.now;
        st.events.push(now, EvKind::Wake(pid));
        endpoint
    }

    /// Crashes the process owning `target`: unbinds its endpoint, clears
    /// its mailbox and schedules the teardown at the current instant.
    fn kill(&self, target: Endpoint) -> bool {
        let mut guard = self.st();
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
        st.events.push(now, EvKind::Kill(pid));
        true
    }
}

/// The event loop. Everything here runs with `&self`, on the thread
/// driving the simulation.
impl Shared {
    /// Pops and dispatches every event scheduled at or before `limit`,
    /// in `(time, seq)` order. If the next event lies beyond `limit`,
    /// the clock stops at `limit`.
    fn run_events(&self, limit: SimTime) {
        loop {
            // One lock acquisition pops the next event AND advances the
            // clock to it, so no observer can see the old time paired
            // with the drained heap (or vice versa).
            let popped = {
                let mut st = self.st();
                match st.events.next_time() {
                    None => None,
                    Some(t) if t > limit => {
                        st.now = limit;
                        None
                    }
                    Some(_) => {
                        let (time, slot, kind) = st.events.pop().expect("peeked event vanished");
                        // A timer leaves its process as it leaves the
                        // heap, before anything else can be pushed.
                        if let EvKind::Timeout(pid) = kind {
                            let entry = st.procs.get_mut(&pid).expect("a timer's process");
                            assert!(
                                entry.state == ProcState::Parked && entry.timer == slot,
                                "simnet: a timer popped that its process does not hold"
                            );
                            entry.timer = NO_SLOT;
                        }
                        // An event scheduled before the clock it runs at
                        // is a time inversion. Count it honestly instead
                        // of clamping it away; the clock itself stays
                        // monotone.
                        let inverted = time < st.now;
                        if !inverted {
                            st.now = time;
                        }
                        Some((time, kind, st.now, st.events.len() as u64, inverted))
                    }
                }
            };
            let Some((time, kind, dispatched_at, depth, inverted)) = popped else {
                break;
            };
            if inverted {
                debug_assert!(
                    false,
                    "simnet: time inversion: event at {time:?} dispatched at {dispatched_at:?}"
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
                self.obs
                    .ts_observe(now_ns, "sched_lag", now_ns.saturating_sub(time.as_nanos()));
                self.obs.ts_gauge(now_ns, "sched_depth", depth);
            }
            self.dispatch(kind);
        }
    }

    fn dispatch(&self, kind: EvKind) {
        match kind {
            // Every timer in the heap is live: a re-poll or the end of
            // its process takes it out.
            EvKind::Wake(pid) | EvKind::Timeout(pid) => self.poll_process(pid),
            // A crash runs no farewell code: the machine just drops (a
            // blocking body unwinds out of `Stopped` as it does).
            EvKind::Kill(pid) => self.finish(pid, None),
            EvKind::Deliver { msg } => {
                let (src, dst, bytes, span) = (msg.src, msg.dst, msg.payload.len(), msg.span);
                let parked = {
                    let mut guard = self.st();
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
                    self.poll_process(pid);
                }
            }
        }
    }

    /// Polls a process once. The machine is taken out of the process
    /// table for the duration, so no lock is held while user code runs
    /// (and the machine may freely spawn or kill other processes).
    fn poll_process(&self, pid: ProcId) {
        let mut m = {
            let mut guard = self.st();
            let st = &mut *guard;
            let Some(entry) = st.procs.get_mut(&pid) else {
                return;
            };
            let Some(m) = entry.machine.take() else {
                return; // finished, or a stale wake
            };
            // Polled again, the process no longer waits for the timer
            // its last park armed.
            disarm(&mut st.events, &mut entry.timer);
            m
        };
        let result = panic::catch_unwind(AssertUnwindSafe(|| m.process.poll(&mut m.cx)));
        let wake = m.cx.take_wake();
        match result {
            Ok(Poll::Pending) => {
                let mut guard = self.st();
                let st = &mut *guard;
                let now = st.now;
                let entry = st.procs.get_mut(&pid).expect("proc vanished");
                entry.machine = Some(m);
                match wake {
                    // A deaf sleep: one wake, which no delivery preempts.
                    Some((until, true)) => {
                        entry.state = ProcState::Sleeping;
                        st.events.push(until.max(now), EvKind::Wake(pid));
                    }
                    wake => {
                        entry.state = ProcState::Parked;
                        if let Some((at, _)) = wake {
                            debug_assert_eq!(
                                entry.timer, NO_SLOT,
                                "simnet: {pid} would have two pending timers"
                            );
                            entry.timer = st.events.push(at.max(now), EvKind::Timeout(pid));
                        }
                    }
                }
            }
            Ok(Poll::Ready(())) => {
                drop(m);
                self.finish(pid, None);
            }
            Err(p) => {
                drop(m);
                self.finish(pid, Some(panic_message(p.as_ref())));
            }
        }
    }

    /// Marks a process finished, dropping its machine and its mailbox
    /// (and with them the process's share of the table memory). A panic
    /// out of the machine's destructor — a killed body that panics as it
    /// unwinds — is the process's panic, reported as any other.
    fn finish(&self, pid: ProcId, mut panic_msg: Option<String>) {
        let released = {
            let mut guard = self.st();
            let st = &mut *guard;
            let Some(entry) = st.procs.get_mut(&pid) else {
                return;
            };
            if entry.state == ProcState::Finished {
                return;
            }
            entry.state = ProcState::Finished;
            disarm(&mut st.events, &mut entry.timer);
            // Nothing reads a finished mailbox and later arrivals are
            // blackholed: what is queued (whole chunks on the bulk path)
            // goes now, not when the simulation is dropped.
            (entry.machine.take(), std::mem::take(&mut entry.mailbox))
        };
        // User destructors run outside the state lock.
        if let Err(p) = panic::catch_unwind(AssertUnwindSafe(|| drop(released))) {
            panic_msg.get_or_insert_with(|| panic_message(p.as_ref()));
        }
        if let Some(msg) = panic_msg {
            if let Some(entry) = self.st().procs.get_mut(&pid) {
                entry.panic_msg = Some(msg);
            }
        }
        self.metrics.on_proc_finish();
        self.record(obs::SpanId::NONE, || TraceEvent::Finished { pid });
    }

    /// Tells every live process to stop, in pid order (so the
    /// `Finished` trace tail is fixed): each gets one final poll with
    /// the stop flag set — a blocking body sees [`Stopped`] and is
    /// resumed until it returns — and is then dropped regardless. A
    /// process spawned meanwhile is stopped in the next pass, before it
    /// ever ran: it is dropped unpolled. This runs on the thread driving
    /// the simulation: suspended bodies continue nowhere else. What was
    /// never dispatched goes too.
    fn shutdown(&self) {
        let mut first_pass = true;
        loop {
            let mut pids: Vec<ProcId> = self
                .st()
                .procs
                .iter()
                .filter(|(_, e)| e.state != ProcState::Finished)
                .map(|(pid, _)| *pid)
                .collect();
            if pids.is_empty() {
                break;
            }
            pids.sort_by_key(|pid| pid.0);
            for pid in pids {
                match first_pass {
                    true => self.shutdown_proc(pid),
                    false => self.finish(pid, None),
                }
            }
            first_pass = false;
        }
        self.st().events.clear();
    }

    /// One final poll with the stop flag raised, then finish. Dropping
    /// the machine here also breaks the `Shared → process table →
    /// ProcCx → Shared` reference cycle a parked machine's context
    /// holds.
    fn shutdown_proc(&self, pid: ProcId) {
        let machine = self.st().procs.get_mut(&pid).and_then(|e| e.machine.take());
        let panic_msg = machine.and_then(|mut m| {
            m.cx.ctx.stopped = true;
            panic::catch_unwind(AssertUnwindSafe(|| m.process.poll(&mut m.cx)))
                .err()
                .map(|p| panic_message(p.as_ref()))
        });
        self.finish(pid, panic_msg);
    }

    /// Panics (deterministically, sorted by pid) if any simulated
    /// process panicked.
    fn check_panics(&self) {
        let mut panics: Vec<(u32, String, String)> = self
            .st()
            .procs
            .iter()
            .filter_map(|(pid, e)| {
                e.panic_msg
                    .as_ref()
                    .map(|m| (pid.0, e.name.clone(), m.clone()))
            })
            .collect();
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

/// Takes a process's pending timer, if it has one, out of the heap.
fn disarm(events: &mut Events<EvKind>, timer: &mut u32) {
    let slot = std::mem::replace(timer, NO_SLOT);
    if slot != NO_SLOT {
        events.remove(slot);
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

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
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
        self.shared.record(span, || TraceEvent::Net(event()));
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

    /// Spawns an `async` body on `node` with an ephemeral port (see
    /// [`Simulation::spawn_async`]).
    pub fn spawn_async<F, Fut>(&self, name: impl Into<String>, node: NodeId, body: F) -> Endpoint
    where
        F: FnOnce(AsyncCx) -> Fut,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.shared
            .spawn_proc(name.into(), node, None, |_| Box::new(Async::new(body)))
    }

    /// Exclusive access to the network model for runtime fault injection
    /// (partitions, loss, link latency). Do not hold across blocking calls.
    pub fn net(&self) -> RwLockWriteGuard<'_, Network> {
        self.shared.network.write()
    }

    /// Crashes the process owning `target`: it is torn down (its
    /// blocking call returns [`Stopped`]; a well-behaved process then
    /// exits) and its endpoint is unbound, so in-flight and
    /// future messages to it blackhole. Returns false if no live
    /// process owns the endpoint. The teardown lands at the current
    /// instant.
    ///
    /// Killing your own endpoint is allowed but pointless — prefer
    /// returning from the process body.
    pub fn kill(&self, target: Endpoint) -> bool {
        self.shared.kill(target)
    }

    /// Runs `f` with the simulation's RNG — deterministic in event
    /// order.
    pub fn with_rng<T>(&self, f: impl FnOnce(&mut StdRng) -> T) -> T {
        f(&mut self.shared.st().rng)
    }

    /// Draws a uniformly random `u64` from the simulation's RNG.
    pub fn rand_u64(&self) -> u64 {
        self.with_rng(|r| r.gen())
    }

    /// A context with this one's identity (pid, name, endpoint)
    /// and fresh per-process state: what a blocking body runs against,
    /// beside the one its machine is polled with.
    pub(crate) fn twin(&self) -> Ctx {
        let shared = Arc::clone(&self.shared);
        Ctx::new(self.pid, self.name.clone(), self.endpoint, shared)
    }

    /// A context with this one's identity but no name and fresh
    /// per-process state: what stands in the place of a context lent out
    /// for a poll.
    pub(crate) fn vacant(&self) -> Ctx {
        let shared = Arc::clone(&self.shared);
        Ctx::new(self.pid, String::new(), self.endpoint, shared)
    }

    fn new(pid: ProcId, name: String, endpoint: Endpoint, shared: Arc<Shared>) -> Ctx {
        Ctx {
            pid,
            name,
            endpoint,
            shared,
            yielder: None,
            stopped: false,
            seq_counter: Cell::new(0),
            awaited: OnceCell::new(),
            current_span: Cell::new(obs::SpanId::NONE),
        }
    }

    /// Points this thread's profiler at the process's simulation. A body
    /// sharing the thread that drives the simulation finds it already
    /// so; one with a thread of its own says it here, once.
    pub(crate) fn adopt_thread(&self) {
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
/// let server = sim.spawn_async_at("server", NodeId(0), PortId(10), |cx| async move {
///     while let Ok(msg) = cx.recv().await {
///         cx.with(|cx| cx.send(msg.src, msg.payload)); // echo
///     }
/// });
/// sim.spawn_async("client", NodeId(1), move |cx| async move {
///     cx.with(|cx| cx.send(server, Bytes::from_static(b"ping")));
///     let reply = cx.recv().await.expect("reply");
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
            .field("now", &self.shared.now())
            .finish_non_exhaustive()
    }
}

impl Simulation {
    /// Creates a simulation with the given network model and RNG seed.
    pub fn new(config: NetworkConfig, seed: u64) -> Simulation {
        Simulation {
            shared: Arc::new(Shared {
                state: Mutex::new(SchedState {
                    now: SimTime::ZERO,
                    events: Events::new(),
                    rng: StdRng::seed_from_u64(seed),
                    trace: None,
                    procs: HashMap::new(),
                    endpoints: HashMap::new(),
                    next_proc: 0,
                    next_ephemeral: HashMap::new(),
                }),
                tracing: AtomicBool::new(false),
                network: RwLock::new(Network::new(config)),
                metrics: Arc::new(Metrics::new()),
                obs: Arc::new(obs::MetricsRegistry::new()),
                seed,
            }),
        }
    }

    /// Does nothing: every simulation runs one event heap. Kept for
    /// callers written when the scheduler could partition its nodes into
    /// domains, a choice that picked another valid schedule for a seed
    /// and nothing else.
    #[must_use]
    pub fn with_domains(self, _n: usize) -> Simulation {
        self
    }

    /// Does nothing: the thread that calls [`Simulation::run_until`]
    /// runs every event. Kept for callers written when a worker pool
    /// could run them, whose results never depended on its size.
    #[must_use]
    pub fn with_threads(self, _n: usize) -> Simulation {
        self
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.shared.now()
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
        let mut report = self
            .shared
            .obs
            .report(self.shared.metrics.snapshot(), self.shared.now().as_nanos());
        report.trace_evicted = self.trace_evicted();
        // The simulator always knows its seed; the harness can overwrite
        // the rest of the provenance via obs().set_run_meta.
        if report.meta.seed.is_none() {
            report.meta.seed = Some(self.shared.seed);
        }
        report
    }

    /// Starts recording a timeline of up to `capacity` events (older
    /// entries fall off). Call before spawning to capture everything.
    pub fn enable_trace(&self, capacity: usize) {
        self.shared.st().trace = Some(Trace::new(capacity));
        self.shared.tracing.store(true, Ordering::Relaxed);
    }

    /// Drains and returns the recorded timeline (empty if tracing was
    /// never enabled). Recording continues afterwards. The returned
    /// [`TraceDump`] carries the count of records the bounded ring
    /// evicted, so a truncated timeline is never mistaken for a complete
    /// one; draining resets the counter.
    pub fn take_trace(&self) -> TraceDump {
        self.shared
            .st()
            .trace
            .as_mut()
            .map(|t| t.drain())
            .unwrap_or_default()
    }

    /// Records evicted from the trace ring since tracing was enabled
    /// (without draining). Also surfaced by [`RunReport::trace_evicted`]
    /// and reset by [`Simulation::take_trace`].
    pub fn trace_evicted(&self) -> u64 {
        self.shared.st().trace.as_ref().map_or(0, |t| t.truncated)
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

    /// Spawns a blocking body on `node` with an ephemeral port. Blocking
    /// bodies remain for the benchmark's system under test and for
    /// tests; the program spawns `async` bodies
    /// ([`Simulation::spawn_async`]).
    pub fn spawn<F>(&self, name: impl Into<String>, node: NodeId, body: F) -> Endpoint
    where
        F: FnOnce(&mut Ctx) + Send + 'static,
    {
        self.shared.spawn_proc(name.into(), node, None, |ctx| {
            Box::new(Body::new(ctx, body))
        })
    }

    /// Spawns a blocking body listening on a well-known port (see
    /// [`Simulation::spawn`]).
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
            .spawn_proc(name.into(), node, Some(port), |ctx| {
                Box::new(Body::new(ctx, body))
            })
    }

    /// Spawns a hand-written machine on `node` with an ephemeral port.
    /// The scheduler polls it whenever a message is delivered to it or a
    /// timer it armed with [`ProcCx::wake_at`] fires; it parks by
    /// returning [`Poll::Pending`] and costs no stack while parked.
    /// See the [`poll`](crate::poll) module for the full model. Machines
    /// remain for the benchmark's system under test and for tests; the
    /// program spawns `async` bodies ([`Simulation::spawn_async`]).
    pub fn spawn_poll<P>(&self, name: impl Into<String>, node: NodeId, process: P) -> Endpoint
    where
        P: Process,
    {
        self.shared
            .spawn_proc(name.into(), node, None, |_| Box::new(process))
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
        self.shared
            .spawn_proc(name.into(), node, None, |_| Box::new(Async::new(body)))
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
        self.shared.spawn_proc(name.into(), node, Some(port), |_| {
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

    /// Runs until no event is pending or virtual time would exceed
    /// `limit`. Processes stay alive; call again to continue, or call
    /// [`Simulation::run`] to finish.
    ///
    /// # Panics
    ///
    /// Panics if any simulated process panicked.
    pub fn run_until(&mut self, limit: SimTime) -> RunReport {
        // While its profiler is armed, the loop's own wall time folds as
        // `sched;run`, once per call.
        self.profiled(|| {
            let t0 = self.shared.obs.profile_enabled().then(Instant::now);
            self.shared.run_events(limit);
            if let Some(t0) = t0 {
                let wall_ns = t0.elapsed().as_nanos() as u64;
                self.shared.obs.profile_add("sched;run", 1, wall_ns);
            }
        });
        self.shared.check_panics();
        let (mut finished, mut alive) = (0, 0);
        for p in self.shared.st().procs.values() {
            if p.state == ProcState::Finished {
                finished += 1;
            } else {
                alive += 1;
            }
        }
        RunReport {
            end_time: self.shared.now(),
            metrics: self.shared.metrics.snapshot(),
            finished,
            alive,
            trace_evicted: self.trace_evicted(),
        }
    }

    /// Stops every live process on this thread, the one that ran them.
    fn shutdown(&self) {
        self.profiled(|| self.shared.shutdown());
    }

    /// Runs `f` with this simulation's registry as the thread's ambient
    /// profiler, so the scopes its events open fold here, then hands the
    /// thread back the profiler it found: a finished simulation's
    /// registry outlives it nowhere.
    fn profiled(&self, f: impl FnOnce()) {
        let found = obs::set_ambient_profiler(Some(Arc::clone(&self.shared.obs)));
        f();
        obs::set_ambient_profiler(found);
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

/// A receive that gives up `d` from now: `Ok(None)` if nothing came.
#[cfg(test)]
async fn recv_within(cx: AsyncCx, d: std::time::Duration) -> Result<Option<Message>, Stopped> {
    let deadline = cx.with(|cx| cx.now()) + d;
    cx.recv_deadline(deadline).await
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

    /// `run_until` and the shutdown hand the thread back the ambient
    /// profiler they found, so nothing keeps a finished simulation's
    /// registry alive.
    #[test]
    fn a_dropped_simulation_frees_its_registry() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn_async("worker", NodeId(0), |cx| async move {
            let _ = cx.sleep(Duration::from_millis(1)).await;
        });
        let registry = Arc::downgrade(&sim.shared.obs);
        sim.run();
        drop(sim);
        assert!(
            registry.upgrade().is_none(),
            "the registry outlived its simulation"
        );
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
        sim.spawn_async("waiter", NodeId(0), move |cx| async move {
            let r = recv_within(cx, Duration::from_millis(3)).await.unwrap();
            assert!(r.is_none());
            g.store(cx.with(|cx| cx.now()).as_millis(), Ordering::SeqCst);
        });
        sim.run();
        assert_eq!(got.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn recv_timeout_cancelled_by_delivery() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let got = Arc::new(AtomicU64::new(0));
        let g = Arc::clone(&got);
        let waiter = sim.spawn_async("waiter", NodeId(0), move |cx| async move {
            let r = recv_within(cx, Duration::from_millis(100)).await.unwrap();
            assert!(r.is_some());
            g.store(1, Ordering::SeqCst);
            // The stale timeout event must not corrupt a later recv.
            let r2 = recv_within(cx, Duration::from_millis(500)).await.unwrap();
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
                sim.spawn_async(format!("client{i}"), NodeId(1 + i), move |cx| async move {
                    for _ in 0..20 {
                        cx.with(|cx| cx.send(server, Bytes::from_static(b"req")));
                        if recv_within(cx, Duration::from_millis(5)).await.is_err() {
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
            let child = ctx.spawn_async("child", NodeId(1), move |cx| async move {
                let m = cx.recv().await.unwrap();
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
    fn a_process_spawned_during_shutdown_never_runs() {
        // A server woken by the shutdown spawns a two-step child. The
        // child is dropped unpolled; polled, each of its waits would
        // return `Stopped` at once and it would run both steps.
        let steps = Arc::new(AtomicU64::new(0));
        let s = Arc::clone(&steps);
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn_async("server", NodeId(0), move |cx| async move {
            assert!(cx.recv().await.is_err(), "only the shutdown wakes it");
            cx.with(|cx| {
                cx.spawn_async("child", NodeId(0), move |cx| async move {
                    for _ in 0..2 {
                        let _ = cx.sleep(Duration::from_millis(1)).await;
                        s.fetch_add(1, Ordering::SeqCst);
                    }
                })
            });
        });
        sim.run();
        drop(sim);
        assert_eq!(steps.load(Ordering::SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "Ctx::block_on inside AsyncCx::with")]
    fn block_on_inside_a_lent_context_panics_and_leaves_it_intact() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        sim.spawn_async("body", NodeId(3), |cx| async move {
            cx.with(|cx| {
                let before = (cx.endpoint(), cx.node(), cx.now());
                let blocked =
                    std::panic::catch_unwind(AssertUnwindSafe(|| cx.block_on(|_| async {})));
                assert_eq!((cx.endpoint(), cx.node(), cx.now()), before);
                std::panic::resume_unwind(blocked.expect_err("block_on refused"));
            })
        });
        sim.run();
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
        });
        sim.run_until(SimTime::from_millis(1));
        // The well-known port is free again: a replacement can bind it.
        let replacement = sim.spawn_async_at("new", NodeId(0), PortId(9), move |cx| async move {
            if cx.recv().await.is_ok() {
                g2.fetch_add(1, Ordering::SeqCst);
            }
        });
        sim.spawn("sender", NodeId(1), move |ctx| {
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

    /// A receiver that re-arms a 1 s deadline on each of 1 000 echoed
    /// deliveries leaves no abandoned deadline behind: at most its one
    /// timer and the one datagram in flight are ever pending.
    #[test]
    fn a_re_armed_deadline_leaves_one_timer_pending() {
        let mut sim = Simulation::new(NetworkConfig::lan(), 0);
        let echo = sim.spawn_async("echo", NodeId(0), |cx| async move {
            for _ in 0..1000 {
                let m = recv_within(cx, Duration::from_secs(1)).await.unwrap();
                let m = m.expect("every deadline is re-armed before it fires");
                cx.with(|cx| cx.send(m.src, m.payload));
            }
        });
        sim.spawn_async("pinger", NodeId(1), move |cx| async move {
            for _ in 0..1000 {
                cx.with(|cx| cx.send(echo, Bytes::from_static(b"ping")));
                cx.recv().await.unwrap();
            }
        });
        let report = sim.run_until(SimTime::MAX);
        assert_eq!((report.finished, report.metrics.msgs_delivered), (2, 2000));
        assert!(sim.shared.st().events.peak() <= 2);
        // The run ends on the last live event, the last echo's delivery,
        // not a second after it.
        assert_eq!(report.end_time, SimTime::from_nanos(2000 * 500_004));
    }
}

#[cfg(test)]
mod trace_tests {
    use super::*;
    use crate::trace::TraceEvent;
    use obs::NetEventKind;
    use std::sync::atomic::AtomicU64;

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

    /// A closed-loop echo workload spread over 12 nodes, paused at 40 ms.
    /// Returns everything an outside observer can see.
    fn run_workload(sim: Simulation) -> (String, String, u64, u64) {
        let mut sim = sim;
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
            sim.spawn_async(format!("client{c}"), NodeId(4 + c), move |cx| async move {
                for _ in 0..10 {
                    cx.with(|cx| cx.send(server, Bytes::from_static(b"req")));
                    if recv_within(cx, Duration::from_millis(5)).await.is_err() {
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

    fn lossy(seed: u64) -> Simulation {
        Simulation::new(NetworkConfig::lan().with_jitter(0.2).with_loss(0.05), seed)
    }

    /// One thread runs every event, so what stays to check is that the
    /// same seed gives the same bytes.
    #[test]
    fn thread_count_does_not_change_results() {
        let base = run_workload(lossy(42));
        let again = run_workload(lossy(42));
        assert_eq!(base.0, again.0, "summary differs between two runs");
        assert_eq!(base.1, again.1, "trace differs between two runs");
        assert_eq!(base.2, again.2, "peak differs between two runs");
        assert_eq!(base.3, 0, "no time inversions in an undisturbed run");
    }

    /// `with_domains` and `with_threads` are no-ops: a run built with
    /// them is byte for byte the run built without.
    #[test]
    fn single_domain_ignores_thread_count() {
        let plain = run_workload(lossy(7));
        assert_eq!(run_workload(lossy(7).with_domains(4)), plain);
        assert_eq!(run_workload(lossy(7).with_threads(4)), plain);
    }

    #[test]
    fn cross_domain_spawn_and_kill_are_deterministic() {
        fn run_once() -> (String, u64) {
            let mut sim = Simulation::new(NetworkConfig::lan(), 9);
            sim.enable_trace(4096);
            let spawned = Arc::new(AtomicU64::new(0));
            let s = Arc::clone(&spawned);
            // The driver on node 0 spawns a child on node 1, then kills
            // a victim on node 2.
            let victim = sim.spawn_at(
                "victim",
                NodeId(2),
                PortId(9),
                |ctx| {
                    while ctx.recv().is_ok() {}
                },
            );
            sim.spawn("driver", NodeId(0), move |ctx| {
                let child = ctx.spawn_async("child", NodeId(1), move |cx| async move {
                    if cx.recv().await.is_ok() {
                        s.fetch_add(1, AtomicOrdering::SeqCst);
                    }
                });
                ctx.send(child, Bytes::from_static(b"hi"));
                ctx.sleep(Duration::from_millis(1)).unwrap();
                assert!(ctx.kill(victim), "the victim is alive");
                assert!(!ctx.kill(victim), "and then it is not");
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
        assert_eq!(a, run_once(), "spawn and kill must repeat");
        assert_eq!(a.1, 1, "child must receive the driver's message");
    }

    #[test]
    fn run_until_resumes_identically_across_threads() {
        fn staged() -> (u64, u64, String) {
            let mut sim = Simulation::new(NetworkConfig::lan(), 5);
            sim.enable_trace(4096);
            let server = sim.spawn_at("server", NodeId(0), PortId(1), |ctx| {
                while let Ok(m) = ctx.recv() {
                    ctx.send(m.src, m.payload);
                }
            });
            sim.spawn_async("client", NodeId(1), move |cx| async move {
                for _ in 0..5 {
                    cx.with(|cx| cx.send(server, Bytes::from_static(b"x")));
                    if recv_within(cx, Duration::from_millis(4)).await.is_err() {
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
        let queued = |sim: &Simulation| -> Vec<(usize, usize)> {
            let st = sim.shared.st();
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

    /// Every `Spawned` record's `(name, pid, endpoint)`, from spawns made
    /// before the run (one at a well-known port), spawns made by running
    /// processes onto their own and other nodes, and one by a process
    /// spawned in the run.
    fn spawned_ids() -> Vec<(String, u32, String)> {
        let mut sim = Simulation::new(NetworkConfig::lan(), 3);
        sim.enable_trace(4096);
        for n in 0..6u32 {
            sim.spawn(format!("root{n}"), NodeId(n), |ctx| {
                let node = ctx.node().0;
                ctx.spawn_async(format!("same{node}"), NodeId(node + 4), |_| async {});
                ctx.spawn_async(format!("cross{node}"), NodeId(node + 1), |_| async {});
                if node == 1 {
                    ctx.spawn_async("child", NodeId(6), |cx| async move {
                        cx.with(|cx| cx.spawn_async("grandchild", NodeId(6), |_| async {}));
                    });
                }
            });
        }
        sim.spawn_at("well-known", NodeId(6), PortId(7), |_| {});
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

    /// Pids count up from 0 in spawn order, and each node's ephemeral
    /// ports count up from `PortId::EPHEMERAL_BASE`.
    #[test]
    fn id_sequence_is_pinned() {
        let want: Vec<(String, u32, String)> = [
            ("root0", 0, "n0:p65536"),
            ("root1", 1, "n1:p65536"),
            ("root2", 2, "n2:p65536"),
            ("root3", 3, "n3:p65536"),
            ("root4", 4, "n4:p65536"),
            ("root5", 5, "n5:p65536"),
            ("well-known", 6, "n6:p7"),
            ("same0", 7, "n4:p65537"),
            ("cross0", 8, "n1:p65537"),
            ("same1", 9, "n5:p65537"),
            ("cross1", 10, "n2:p65537"),
            ("child", 11, "n6:p65536"),
            ("same2", 12, "n6:p65537"),
            ("cross2", 13, "n3:p65537"),
            ("same3", 14, "n7:p65536"),
            ("cross3", 15, "n4:p65538"),
            ("same4", 16, "n8:p65536"),
            ("cross4", 17, "n5:p65538"),
            ("same5", 18, "n9:p65536"),
            ("cross5", 19, "n6:p65538"),
            ("grandchild", 20, "n6:p65539"),
        ]
        .into_iter()
        .map(|(name, pid, ep)| (name.to_string(), pid, ep.to_string()))
        .collect();
        assert_eq!(spawned_ids(), want);
        assert_eq!(spawned_ids(), want);
    }
}
