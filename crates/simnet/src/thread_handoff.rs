//! The hand-off between the scheduler and a blocking process body, as an
//! OS thread and two rendezvous channels.
//!
//! This is the portable implementation: every target without the
//! stackful coroutine of `coro.rs` (anything but x86-64 Linux) runs each
//! blocking body on a thread of its own, parked on a channel whenever
//! the scheduler or another process runs. Same three operations, same
//! words exchanged; a scheduling decision costs two channel operations
//! and two kernel context switches instead of two register swaps. On
//! x86-64 Linux the module is compiled for its unit tests only.

use std::panic::{self, AssertUnwindSafe};
use std::thread::JoinHandle;

use crossbeam::channel::{bounded, Receiver, Sender};

use crate::sched::{panic_message, Resume, YieldMsg};

/// The body handed to [`Handoff::new`]: receives the process side of the
/// hand-off and runs to completion.
pub(crate) type Body = Box<dyn FnOnce(Yielder) + Send + 'static>;

/// The scheduler's side of one blocking process.
pub(crate) struct Handoff {
    resume_tx: Sender<Resume>,
    yield_rx: Receiver<YieldMsg>,
    handle: Option<JoinHandle<()>>,
    /// Whether the thread is parked inside the body (started, not yet
    /// finished): the one state in which `drop` cannot join it.
    mid_body: bool,
}

impl Handoff {
    /// Starts a thread named after the process; `body` runs on it once
    /// resumed with [`Resume::Start`].
    pub(crate) fn new(name: &str, body: Body) -> Handoff {
        let (resume_tx, resume_rx) = bounded::<Resume>(1);
        let (yield_tx, yield_rx) = bounded::<YieldMsg>(1);
        let handle = std::thread::Builder::new()
            .name(format!("sim-{name}"))
            .spawn(move || {
                // Wait for the scheduler to start us (or abort pre-start).
                match resume_rx.recv() {
                    Ok(Resume::Start) => {}
                    _ => {
                        drop(body);
                        let _ = yield_tx.send(YieldMsg::Finished { panic_msg: None });
                        return;
                    }
                }
                let yielder = Yielder {
                    resume_rx,
                    yield_tx: yield_tx.clone(),
                };
                let result = panic::catch_unwind(AssertUnwindSafe(|| body(yielder)));
                let panic_msg = result.err().map(|p| panic_message(p.as_ref()));
                let _ = yield_tx.send(YieldMsg::Finished { panic_msg });
            })
            .expect("failed to spawn simulation process thread");
        Handoff {
            resume_tx,
            yield_rx,
            handle: Some(handle),
            mid_body: false,
        }
    }

    /// Runs the body until it next blocks or finishes and returns what
    /// it yielded. A body that never started only starts on
    /// [`Resume::Start`]; anything else drops it unrun.
    pub(crate) fn resume(&mut self, resume: Resume) -> YieldMsg {
        self.resume_tx
            .send(resume)
            .expect("process thread gone before resume");
        let y = self
            .yield_rx
            .recv()
            .expect("process thread gone before yield");
        self.mid_body = !matches!(y, YieldMsg::Finished { .. });
        y
    }
}

impl Drop for Handoff {
    fn drop(&mut self) {
        if self.mid_body {
            // Parked inside the body with nobody left to resume it: the
            // thread stays parked, as a leaked value's destructor stays
            // unrun.
            return;
        }
        // A thread still waiting for its `Start` takes anything else as
        // its cue to drop the body and exit; a finished one is already
        // on its way out and the send goes nowhere.
        let _ = self.resume_tx.send(Resume::Shutdown);
        if let Some(h) = self.handle.take() {
            // A panic in the body was caught and reported as `Finished`.
            let _ = h.join();
        }
    }
}

/// The process's side of the hand-off, given to the body when it starts.
pub(crate) struct Yielder {
    resume_rx: Receiver<Resume>,
    yield_tx: Sender<YieldMsg>,
}

impl Yielder {
    /// Hands `y` to the scheduler and parks the thread until the
    /// scheduler resumes it.
    pub(crate) fn block_on(&self, y: YieldMsg) -> Resume {
        self.yield_tx.send(y).expect("scheduler disappeared");
        self.resume_rx.recv().expect("scheduler disappeared")
    }
}

/// The behaviour both hand-offs owe the scheduler: one file, run
/// against each (hence the same module twice).
#[cfg(test)]
#[path = "handoff_contract.rs"]
#[allow(clippy::duplicate_mod)]
mod contract;
