//! Poll-driven processes: a parked process is one heap entry, not a
//! stack.
//!
//! A blocking simnet process is straight-line code suspended on a stack
//! of its own (see [`Simulation::spawn`]); that style reads naturally
//! and — now that the scheduler resumes it in place instead of handing
//! off to a thread — dispatches about as fast as a poll, but every
//! parked body pins the stack pages it has touched. A *poll-driven*
//! process is a state machine instead: a [`Process`] whose `poll`
//! method the scheduler calls whenever one of its wake conditions
//! fires, and which returns [`Poll::Pending`] to park itself. Parking
//! costs nothing but the machine's own struct in the process table, and
//! a wake is a function call on the scheduler's thread. This is how
//! every server context in the workspace runs
//! (`proxy_core::ServiceServer`, the name servers), and how a
//! simulation holds hundreds of thousands of concurrent clients
//! (experiment E16 runs 100k+); blocking bodies remain for clients and
//! experiment logic written as straight-line code.
//!
//! # Process states and block reasons
//!
//! A poll-driven process moves through three states:
//!
//! * **not started** — spawned, first poll scheduled at the current
//!   instant;
//! * **parked** — the last poll returned [`Poll::Pending`]; the machine
//!   sits in the process table waiting for a wake;
//! * **finished** — the last poll returned [`Poll::Ready`] (or the
//!   machine panicked, or the process was killed).
//!
//! A parked process wakes for exactly two reasons, mirroring the block
//! reasons of a blocking body:
//!
//! * **message delivery** (the `recv` reason) — every datagram delivered
//!   to one of the process's endpoints triggers a poll, so a machine
//!   that drains its mailbox with [`Ctx::try_recv`] can never miss a
//!   message: anything that arrives after it observed an empty mailbox
//!   schedules a fresh poll. Completion of an in-flight RPC is this
//!   reason seen from one layer up: the reply datagram *is* the wake.
//! * **timer** (the `sleep`/`timeout` reason) — the machine asked for a
//!   wake at an instant via [`ProcCx::wake_at`] / [`ProcCx::wake_after`]
//!   before parking. Each park arms at most one timer (the earliest
//!   requested); re-arming happens naturally because `poll` re-requests
//!   whatever deadline still matters. Stale timers from earlier parks
//!   are ignored via a per-park generation counter.
//!
//! Inside `poll` the machine has the full non-blocking [`Ctx`] surface
//! (`ProcCx` derefs to `Ctx`): `try_recv`, `send`, `spawn`, tracing,
//! observability. The *blocking* surface (`recv`, `sleep`, …) panics
//! with a descriptive message — a state machine parks by returning
//! `Pending`, never by suspending a stack.
//!
//! # Determinism
//!
//! Polls run on the thread driving the machine's scheduler *domain* —
//! the main thread by default, a worker thread when the simulation is
//! sharded with [`Simulation::with_domains`] and given a pool via
//! [`Simulation::with_threads`]. Either way the domain executes its
//! events in deterministic order and the cross-domain merge is decided
//! by `(time, src_domain, seq)`, never by thread timing, so runs stay
//! bit-for-bit reproducible: same seed, same event order, same polls,
//! at any thread count (see the `sched` module docs). The `Process`
//! trait is `Send` because a machine may be polled from a worker
//! thread.
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
//!     cx.wake_after(Duration::from_millis(10));
//!     Poll::Pending
//! });
//! let report = sim.run();
//! assert_eq!(report.finished, 1);
//! ```
//!
//! [`Simulation::spawn`]: crate::Simulation::spawn
//! [`Simulation::with_domains`]: crate::Simulation::with_domains
//! [`Simulation::with_threads`]: crate::Simulation::with_threads

use std::ops::{Deref, DerefMut};
use std::time::Duration;

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
}

impl std::fmt::Debug for ProcCx {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ProcCx")
            .field("ctx", &self.ctx)
            .field("wake_at", &self.wake_at)
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
        ProcCx { ctx, wake_at: None }
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

    /// Requests a timer wake `d` from now — the poll-driven equivalent
    /// of [`Ctx::sleep`].
    pub fn wake_after(&mut self, d: Duration) {
        let at = self.ctx.now() + d;
        self.wake_at(at);
    }

    /// Requests an immediate re-poll (after all events already due at
    /// this instant) — the poll-driven equivalent of a yield.
    pub fn yield_now(&mut self) {
        let now = self.ctx.now();
        self.wake_at(now);
    }

    /// Takes the armed timer registration, leaving none (scheduler use).
    pub(crate) fn take_wake(&mut self) -> Option<SimTime> {
        self.wake_at.take()
    }
}
