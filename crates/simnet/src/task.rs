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
//! [`Simulation::spawn_async`]: crate::Simulation::spawn_async

use std::cell::RefCell;
use std::future::{poll_fn, Future};
use std::panic::{self, AssertUnwindSafe};
use std::pin::Pin;
use std::task::{Context, Poll, Waker};
use std::time::Duration;

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
/// Handed to the closure given to [`Simulation::spawn_async`]. It names
/// whichever `async` process is being polled on the current thread, so
/// keep it inside the body it was handed to.
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

/// The machine the scheduler polls for an `async` body: the future, and
/// the context it is lent while it runs — a twin of the process's own,
/// as a blocking body's is.
pub(crate) struct Async<F> {
    future: Pin<Box<F>>,
    cx: Option<ProcCx>,
}

impl<F: Future<Output = ()> + Send + 'static> Async<F> {
    /// The body `make` returns, to run against a twin of `of`.
    pub(crate) fn new(of: &Ctx, make: impl FnOnce(AsyncCx) -> F) -> Async<F> {
        Async {
            future: Box::pin(make(AsyncCx(()))),
            cx: Some(ProcCx::new(of.twin())),
        }
    }
}

impl<F: Future<Output = ()> + Send + 'static> Process for Async<F> {
    fn poll(&mut self, cx: &mut ProcCx) -> Poll<()> {
        let mut lent = self
            .cx
            .take()
            .expect("an async body is not polled from itself");
        lent.ctx.stopped |= cx.is_stopped();
        let previous = LENT.replace(Some(lent));
        let future = self.future.as_mut();
        let polled = panic::catch_unwind(AssertUnwindSafe(|| {
            future.poll(&mut Context::from_waker(Waker::noop()))
        }));
        // Taken back before a panic goes on: no context outlives its
        // process in the thread's slot.
        let mut lent = LENT.replace(previous).expect("the lent context is back");
        match lent.take_wake() {
            Some((at, true)) => cx.sleep_until(at),
            Some((at, false)) => cx.wake_at(at),
            None => {}
        }
        self.cx = Some(lent);
        polled.unwrap_or_else(|p| panic::resume_unwind(p))
    }
}
