//! A blocking process body as a [`Process`].
//!
//! The scheduler drives state machines only. A body written as
//! straight-line code against [`Ctx`] ([`Simulation::spawn`]) runs on a
//! stack of its own (a coroutine's on x86-64 Linux, see `coro.rs`; an OS
//! thread elsewhere, see `thread_handoff.rs`), and [`Body`] is the
//! machine the scheduler polls for it. A poll resumes the stack until the
//! body blocks again, then parks the process the way a machine that waits
//! for the same thing would:
//!
//! * [`Ctx::sleep`] parks *deaf* until its instant
//!   ([`ProcCx::sleep_until`]): deliveries meanwhile wait in the mailbox;
//! * [`Ctx::recv`] parks until a delivery, or until its deadline
//!   ([`ProcCx::wake_at`]) — the body tells the two apart itself, by
//!   looking at its mailbox and the clock;
//! * a body that returns is [`Poll::Ready`], and one that panicked
//!   panics again out of the poll, for the scheduler to report.
//!
//! So a blocking body and the machine that parks the same way dispatch
//! the same events in the same order: which of the two a process is
//! cannot be seen from inside the simulation.
//!
//! A stopping body (shutdown, or a kill) is resumed with `Shutdown` until
//! it returns: each blocking call it makes returns [`Stopped`]. A killed
//! process is dropped wherever it was parked, so dropping a `Body` does
//! the same — on the thread driving the simulation, where kills are
//! dispatched — since
//! a hand-off dropped with live frames leaks them.
//!
//! [`Simulation::spawn`]: crate::Simulation::spawn

use std::panic;
use std::task::Poll;
use std::time::Duration;

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
use crate::coro::Handoff;
use crate::msg::Message;
use crate::poll::{ProcCx, Process};
use crate::sched::{Ctx, Stopped};
#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
use crate::thread_handoff::Handoff;
use crate::time::SimTime;

/// Scheduler → process control transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Resume {
    /// First transfer: begin executing the process body.
    Start,
    /// A sleep expired.
    Woken,
    /// A receive may proceed: a message arrived or its deadline passed.
    Delivered,
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

/// The machine the scheduler polls for a blocking body.
pub(crate) struct Body {
    /// The body's stack; `None` once the body has returned.
    handoff: Option<Handoff>,
    /// What the next poll resumes the body with: `Start`, then `Woken`
    /// in a sleep or `Delivered` in a receive.
    next: Resume,
}

impl Body {
    /// Prepares `body` to run against a context of its own, a twin of
    /// `of` (the process's identity, fresh per-process counters).
    pub(crate) fn new(of: &Ctx, body: impl FnOnce(&mut Ctx) + Send + 'static) -> Body {
        let mut ctx = of.twin();
        let handoff = Handoff::new(
            of.name(),
            Box::new(move |yielder| {
                ctx.adopt_thread();
                ctx.yielder = Some(yielder);
                body(&mut ctx);
            }),
        );
        Body {
            handoff: Some(handoff),
            next: Resume::Start,
        }
    }

    fn resume(&mut self, resume: Resume) -> YieldMsg {
        let handoff = self
            .handoff
            .as_mut()
            .expect("simnet: poll of a finished body");
        let y = handoff.resume(resume);
        if matches!(y, YieldMsg::Finished { .. }) {
            // The stack goes as soon as nothing is left on it.
            self.handoff = None;
        }
        y
    }

    /// Resumes the body with `Shutdown` until it returns: a stopping body
    /// may block a few more times before it notices.
    fn stop(&mut self) -> Poll<()> {
        loop {
            if let YieldMsg::Finished { panic_msg } = self.resume(Resume::Shutdown) {
                return finished(panic_msg);
            }
        }
    }
}

/// `Ready`, or the body's panic raised again, for the scheduler to
/// report under the process's name.
fn finished(panic_msg: Option<String>) -> Poll<()> {
    match panic_msg {
        None => Poll::Ready(()),
        Some(msg) => panic::resume_unwind(Box::new(msg)),
    }
}

impl Process for Body {
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        if cx.is_stopped() {
            return self.stop();
        }
        match self.resume(self.next) {
            YieldMsg::Sleep(until) => {
                cx.sleep_until(until);
                self.next = Resume::Woken;
            }
            YieldMsg::Recv { deadline } => {
                if let Some(at) = deadline {
                    cx.wake_at(at);
                }
                self.next = Resume::Delivered;
            }
            YieldMsg::Finished { panic_msg } => return finished(panic_msg),
        }
        Poll::Pending
    }
}

impl Drop for Body {
    /// Unwinds a body dropped with frames on its stack (a kill). A panic
    /// it raises is the body's own, for the scheduler to catch and
    /// report; while unwinding already, a second one would abort, so the
    /// frames leak with the hand-off instead.
    fn drop(&mut self) {
        if self.handoff.is_some() && !std::thread::panicking() {
            let _ = self.stop();
        }
    }
}

/// The blocking operations: the waits of [`AsyncCx`](crate::AsyncCx),
/// run on the body's stack ([`Ctx::block_on`]).
impl Ctx {
    /// Blocks until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub fn recv(&mut self) -> Result<Message, Stopped> {
        self.block_on(|cx| cx.recv())
    }

    /// Advances this process's virtual time by `d`, deaf to deliveries.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub fn sleep(&mut self, d: Duration) -> Result<(), Stopped> {
        self.block_on(|cx| cx.sleep(d))
    }

    /// Suspends the body's stack until the scheduler resumes it.
    pub(crate) fn suspend(&mut self, y: YieldMsg) -> Resume {
        let Some(yielder) = &self.yielder else {
            panic!(
                "blocking Ctx operation ({y:?}) in poll-driven process '{}': \
                 a state machine parks by returning Poll::Pending (arm a timer \
                 with ProcCx::wake_at instead of sleeping, and use \
                 try_recv instead of recv)",
                self.name()
            );
        };
        yielder.block_on(y)
    }
}
