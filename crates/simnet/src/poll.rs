//! Processes: every simulated process is a machine the scheduler polls,
//! and a parked one is a table entry.
//!
//! A [`Process`] is polled whenever one of its wake conditions fires,
//! and returns [`Poll::Pending`] to park itself. This is the scheduler's
//! only process model. The program writes every process one way:
//!
//! * **`async`** ([`Simulation::spawn_async`]): straight-line code whose
//!   machine the compiler writes, parked at the cost of its future —
//!   every server context (the `proxy_core` engine around its control
//!   parts), the name server, the blob edge caches, every client and
//!   E16's fleet of 100k+ clients (see the [`task`](crate::task) module).
//!
//! Two more ways remain only for the benchmark's system under test and
//! for tests:
//!
//! * **by hand** ([`Simulation::spawn_poll`]): a state machine that
//!   carries its own continuation, parked at the cost of its own struct;
//! * **blocking** ([`Simulation::spawn`]): straight-line code on a stack of
//!   its own, run by a machine whose poll resumes that stack until the body
//!   blocks again; every parked body pins the stack pages it has touched.
//!
//! A parked process wakes for exactly two reasons — the ones a blocking
//! body's [`Ctx::recv`] waits for:
//!
//! * **message delivery** — every datagram delivered to one of the
//!   process's endpoints triggers a poll, so a machine that drains its
//!   mailbox with [`Ctx::try_recv`] can never miss a message. Completion
//!   of an in-flight RPC is this reason seen from one layer up: the reply
//!   datagram *is* the wake.
//! * **timer** — the machine asked for a wake at an instant via
//!   [`ProcCx::wake_at`] before parking. Each
//!   park arms at most one timer (the earliest requested), so each poll
//!   re-requests whatever deadline still matters. The timer an earlier
//!   park armed leaves the event heap when the machine is polled again
//!   or finishes: a process never has two pending.
//!
//! A process parked *deaf* by [`ProcCx::sleep_until`] wakes for its timer
//! only: deliveries wait in the mailbox, as they do for a blocking body's
//! [`Ctx::sleep`]. Inside `poll` the machine has the full non-blocking
//! [`Ctx`] surface (`ProcCx` derefs to `Ctx`); the *blocking* surface
//! (`recv`, `sleep`, …) panics there with a descriptive message.
//!
//! Polls run on the thread driving the simulation, in deterministic
//! order (see the `sched` module docs), so runs stay bit-for-bit
//! reproducible. The `Process` trait is `Send` because a blocking body
//! on a target without coroutines runs on an OS thread of its own and
//! reaches the process table through its [`Ctx`].
//!
//! # Example
//!
//! ```
//! use simnet::{Poll, ProcCx, Simulation, NetworkConfig, NodeId};
//! use std::time::Duration;
//!
//! let mut sim = Simulation::new(NetworkConfig::lan(), 1);
//! let mut ticks = 0;
//! sim.spawn_poll("ticker", NodeId(0), move |cx: &mut ProcCx| {
//!     ticks += 1;
//!     if ticks == 3 {
//!         return Poll::Ready(());
//!     }
//!     cx.wake_at(cx.now() + Duration::from_millis(10));
//!     Poll::Pending
//! });
//! // The same ticker, written `async`.
//! sim.spawn_async("ticker", NodeId(1), |cx| async move {
//!     for _ in 1..3 {
//!         let _ = cx.sleep(Duration::from_millis(10)).await;
//!     }
//! });
//! let report = sim.run();
//! assert_eq!(report.finished, 2);
//! ```
//!
//! [`Simulation::spawn`]: crate::Simulation::spawn
//! [`Simulation::spawn_poll`]: crate::Simulation::spawn_poll
//! [`Simulation::spawn_async`]: crate::Simulation::spawn_async

use std::ops::{Deref, DerefMut};

use crate::sched::Ctx;
use crate::time::SimTime;

/// Re-export of [`std::task::Poll`], the return type of
/// [`Process::poll`].
pub use std::task::Poll;

/// A poll-driven simulated process: a state machine the scheduler polls
/// whenever one of its wake conditions fires.
///
/// Return [`Poll::Pending`] to park (after registering a timer wake via
/// [`ProcCx::wake_at`] if the machine is waiting on time rather than on
/// a message), or [`Poll::Ready`] when the process is done. Implemented
/// for free by any `FnMut(&mut ProcCx) -> Poll<()> + Send` closure.
pub trait Process: Send + 'static {
    /// Advances the state machine as far as it can without blocking.
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()>;
}

impl<F> Process for F
where
    F: FnMut(&mut ProcCx) -> Poll<()> + Send + 'static,
{
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        self(cx)
    }
}

/// The context handed to [`Process::poll`]: the process's [`Ctx`] plus
/// the wake registration the machine arms before parking.
///
/// Derefs to [`Ctx`], so every non-blocking `Ctx` operation (`try_recv`,
/// `send`, `spawn`, `trace`, `obs`, …) is available directly. The
/// blocking operations panic in a poll-driven process.
pub struct ProcCx {
    pub(crate) ctx: Ctx,
    pub(crate) wake_at: Option<SimTime>,
    pub(crate) sleep_until: Option<SimTime>,
}

impl std::fmt::Debug for ProcCx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCx")
            .field("ctx", &self.ctx)
            .field("wake_at", &self.wake_at)
            .field("sleep_until", &self.sleep_until)
            .finish()
    }
}

impl Deref for ProcCx {
    type Target = Ctx;
    fn deref(&self) -> &Ctx {
        &self.ctx
    }
}

impl DerefMut for ProcCx {
    fn deref_mut(&mut self) -> &mut Ctx {
        &mut self.ctx
    }
}

impl ProcCx {
    pub(crate) fn new(ctx: Ctx) -> ProcCx {
        ProcCx {
            ctx,
            wake_at: None,
            sleep_until: None,
        }
    }

    /// The underlying [`Ctx`] (equivalent to deref, spelled out for
    /// call sites that want a `&mut Ctx` to pass on).
    pub fn ctx(&mut self) -> &mut Ctx {
        &mut self.ctx
    }

    /// Requests a timer wake at the absolute instant `at` (clamped to
    /// now). Multiple requests within one poll keep the earliest; the
    /// registration is consumed when the process parks, so each poll
    /// must re-request whatever deadline still matters. A message
    /// delivery always wakes the process regardless.
    pub fn wake_at(&mut self, at: SimTime) {
        self.wake_at = Some(match self.wake_at {
            Some(cur) => cur.min(at),
            None => at,
        });
    }

    /// Parks until `at` *deaf*: deliveries meanwhile wait in the mailbox
    /// without polling the process, and the one wake is the timer — what
    /// a blocking body's [`Ctx::sleep`] does, event for event. Takes
    /// precedence over any [`ProcCx::wake_at`] of the same poll.
    pub fn sleep_until(&mut self, at: SimTime) {
        self.sleep_until = Some(at);
    }

    /// Takes the armed wake registration, leaving none (scheduler use):
    /// a deaf sleep if one was asked for, else the timer.
    pub(crate) fn take_wake(&mut self) -> Option<(SimTime, bool)> {
        let wake = self.wake_at.take();
        match self.sleep_until.take() {
            Some(at) => Some((at, true)),
            None => wake.map(|at| (at, false)),
        }
    }
}
