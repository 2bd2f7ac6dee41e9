//! An `async` process body as a [`Process`].
//!
//! A body written as an `async` block ([`Simulation::spawn_async`]) is a
//! future the scheduler polls through `Async` with [`Waker::noop`]: the
//! scheduler already knows when a process must be polled again, so a
//! future needs no executor. The body reaches its process through its
//! [`AsyncCx`], whose waits park exactly as a blocking body's do through
//! the `Body` adapter — [`AsyncCx::sleep`] deaf until its instant
//! ([`ProcCx::sleep_until`]), [`AsyncCx::recv`] and
//! [`AsyncCx::recv_deadline`] until a delivery or the deadline
//! ([`ProcCx::wake_at`]) — so the two dispatch the same events in the
//! same order. The last poll a shutdown gives a process has its stop
//! flag raised, and each wait then returns [`Stopped`]; a killed process
//! is dropped wherever it was parked, and with it every local of its
//! future.
//!
//! Each poll lends the process's own [`ProcCx`] to the thread for the
//! poll (a nameless stand-in holds its place), so a wake the future
//! arms is the process's. [`Ctx::block_on`] is the bridge the other way:
//! it runs a future on a blocking body's stack, lending the body's
//! context the same way and parking the body as the future's wake asks,
//! so code that waits is written once, as `async`, for both kinds of
//! body.
//!
//! [`Simulation::spawn_async`]: crate::Simulation::spawn_async

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::mem;
use std::panic::{self, AssertUnwindSafe};
use std::pin::{pin, Pin};
use std::task::{Context, Poll, Waker};
use std::time::Duration;

use crate::body::{Resume, YieldMsg};
use crate::msg::Message;
use crate::poll::{ProcCx, Process};
use crate::sched::{Ctx, Stopped};
use crate::time::SimTime;

thread_local! {
    /// The context of the `async` body being polled on this thread.
    static LENT: RefCell<Option<ProcCx>> = const { RefCell::new(None) };
}

/// An `async` body's handle on its own process: the way to its
/// [`ProcCx`] while it is being polled, and the waits that park it.
///
/// Handed to the closure given to [`Simulation::spawn_async`] or
/// [`Ctx::block_on`]. It names whichever context is lent on the current
/// thread, so keep it inside the future it was handed to.
///
/// [`Simulation::spawn_async`]: crate::Simulation::spawn_async
#[derive(Debug, Clone, Copy)]
pub struct AsyncCx(());

impl AsyncCx {
    /// Runs `f` with the process's context: everything a [`ProcCx`] does
    /// without parking, and the poll-driven surfaces of the layers above.
    ///
    /// # Panics
    ///
    /// Panics outside a poll of an `async` process, and when called again
    /// from inside `f`.
    pub fn with<R>(self, f: impl FnOnce(&mut ProcCx) -> R) -> R {
        LENT.with_borrow_mut(|lent| f(lent.as_mut().expect("AsyncCx used outside its process")))
    }

    /// Waits until a message arrives.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub async fn recv(self) -> Result<Message, Stopped> {
        poll_fn(|_| {
            self.with(|cx| match cx.try_recv() {
                Ok(None) => Poll::Pending,
                got => Poll::Ready(got.map(|m| m.expect("a message"))),
            })
        })
        .await
    }

    /// Waits until a message arrives or the absolute `deadline` passes;
    /// `Ok(None)` means the deadline came first.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub async fn recv_deadline(self, deadline: SimTime) -> Result<Option<Message>, Stopped> {
        poll_fn(|_| {
            self.with(|cx| match cx.try_recv() {
                Ok(None) if deadline > cx.now() => {
                    cx.wake_at(deadline);
                    Poll::Pending
                }
                got => Poll::Ready(got),
            })
        })
        .await
    }

    /// Lets `d` of virtual time pass, deaf to deliveries.
    ///
    /// # Errors
    ///
    /// Returns [`Stopped`] when the simulation is shutting down.
    pub async fn sleep(self, d: Duration) -> Result<(), Stopped> {
        let until = self.with(|cx| cx.now()) + d;
        poll_fn(|_| {
            self.with(|cx| match cx.is_stopped() {
                true => Poll::Ready(Err(Stopped)),
                false if until <= cx.now() => Poll::Ready(Ok(())),
                false => {
                    cx.sleep_until(until);
                    Poll::Pending
                }
            })
        })
        .await
    }
}

/// Lends `cx` to this thread's [`AsyncCx`] handles until [`take_back`],
/// and returns what it displaced for `take_back` to restore.
fn lend(cx: ProcCx) -> Option<ProcCx> {
    LENT.replace(Some(cx))
}

/// Takes the lent context back from the thread, restoring what [`lend`]
/// displaced: no context outlives its lending in the thread's slot.
fn take_back(displaced: Option<ProcCx>) -> ProcCx {
    LENT.replace(displaced).expect("the lent context is back")
}

/// Polls `future` once with [`Waker::noop`], a panic caught for the
/// caller to raise again once it has taken its context back.
fn poll_once<F: Future + ?Sized>(future: Pin<&mut F>) -> std::thread::Result<Poll<F::Output>> {
    panic::catch_unwind(AssertUnwindSafe(|| {
        future.poll(&mut Context::from_waker(Waker::noop()))
    }))
}

/// The machine the scheduler polls for an `async` body: the future, lent
/// the process's own context for each poll.
pub(crate) struct Async<F> {
    future: Pin<Box<F>>,
}

impl<F: Future<Output = ()> + Send + 'static> Async<F> {
    /// The body `make` returns.
    pub(crate) fn new(make: impl FnOnce(AsyncCx) -> F) -> Async<F> {
        Async {
            future: Box::pin(make(AsyncCx(()))),
        }
    }
}

impl<F: Future<Output = ()> + Send + 'static> Process for Async<F> {
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        let displaced = lend(mem::replace(cx, ProcCx::new(cx.ctx.vacant())));
        let polled = poll_once(self.future.as_mut());
        *cx = take_back(displaced);
        polled.unwrap_or_else(|p| panic::resume_unwind(p))
    }
}

/// The bridge from a blocking body to the `async` code below it.
impl Ctx {
    /// Runs the future `make` returns to its end on this blocking body's
    /// stack, and returns its output. Each poll lends the body's context
    /// to the future's [`AsyncCx`] as a poll of an `async` body does, and
    /// between polls the body parks as the future's last wait asked: deaf
    /// until a [`ProcCx::sleep_until`] instant, else until a delivery or
    /// the [`ProcCx::wake_at`] instant. So a wait written once, as
    /// `async`, costs a blocking caller the events its blocking twin did.
    /// A shutdown raises the stop flag, and the future's waits return
    /// [`Stopped`].
    ///
    /// # Panics
    ///
    /// Panics in a poll-driven process if the future has to wait, and
    /// inside [`AsyncCx::with`] (say, a `ServiceObject::dispatch` that
    /// sleeps), before it touches this context.
    pub fn block_on<F: Future>(&mut self, make: impl FnOnce(AsyncCx) -> F) -> F::Output {
        assert!(
            LENT.with(|lent| lent.try_borrow_mut().is_ok()),
            "Ctx::block_on inside AsyncCx::with: an async body's context cannot block; \
             await the wait instead"
        );
        let mut future = pin!(make(AsyncCx(())));
        let mut displaced = lend(ProcCx::new(mem::replace(self, self.vacant())));
        let out = loop {
            match poll_once(future.as_mut()) {
                Ok(Poll::Ready(out)) => break Ok(out),
                Err(p) => break Err(p),
                Ok(Poll::Pending) => {}
            }
            // Parked, the body lends nothing: the thread runs others.
            let mut cx = take_back(displaced);
            let wait = match cx.take_wake() {
                Some((at, true)) => YieldMsg::Sleep(at),
                wake => YieldMsg::Recv {
                    deadline: wake.map(|(at, _)| at),
                },
            };
            if cx.ctx.suspend(wait) == Resume::Shutdown {
                cx.ctx.stopped = true;
            }
            displaced = lend(cx);
        };
        *self = take_back(displaced).ctx;
        out.unwrap_or_else(|p| panic::resume_unwind(p))
    }
}
