//! The hand-off between the scheduler and a blocking process body, as a
//! stackful coroutine (x86-64 Linux).
//!
//! A blocking body needs its own *stack* — somewhere for the frames
//! between `Simulation::spawn`'s closure and the `Ctx::recv` it is
//! suspended in to live while other processes run — but not its own
//! *thread*. A [`Handoff`] owns a private 2 MiB stack (the size of a
//! default `std` thread stack, lowest page a `PROT_NONE` guard) and
//! [`Handoff::resume`] runs the body on it, on the calling thread, until
//! the body calls [`Yielder::block_on`]: each direction is one call to
//! [`switch`], which saves the six callee-saved registers, exchanges
//! stack pointers and returns on the other stack. No kernel object is
//! involved, so a scheduling decision costs two user-space register
//! swaps where a thread costs two futex wake/wait pairs and two context
//! switches.
//!
//! # The owner-thread invariant
//!
//! **A coroutine is only ever resumed on the OS thread that first
//! started it.** The compiler may keep the address of a thread-local in
//! a register or a stack slot across a call, and it cannot see that
//! `switch` might return on another thread; the body's frames may also
//! hold values that are not `Send` (a `MutexGuard`, an `Rc`). The
//! scheduler upholds the invariant by construction — a process belongs
//! to one domain, a domain's rounds and its shutdown run on one fixed
//! thread — and [`Handoff::resume`] checks it on every switch.
//!
//! # What a blocking body may not expect
//!
//! * Overflowing the stack hits the guard page and the process dies of a
//!   bare `SIGSEGV`: `std`'s "thread has overflowed its stack" message
//!   only knows about stacks `std` created.
//! * The body shares its thread with the scheduler and every other
//!   process of its domain, and with them everything thread-local —
//!   including `std`'s panic count: a destructor that blocks *while the
//!   body is unwinding from a panic* hands control back to a scheduler
//!   whose thread reports `std::thread::panicking()`.
//!
//! Every other target uses [`crate::thread_handoff`], which offers the
//! same three operations over an OS thread and two channels.

use std::arch::naked_asm;
use std::panic::{self, AssertUnwindSafe};
use std::ptr::NonNull;

use crate::sched::{panic_message, Resume, YieldMsg};

/// The three libc calls a stack needs. `std` already links libc on this
/// target, so declaring them adds no dependency.
mod sys {
    use std::ffi::c_void;

    pub const PROT_NONE: i32 = 0;
    pub const PROT_READ: i32 = 1;
    pub const PROT_WRITE: i32 = 2;
    pub const MAP_PRIVATE: i32 = 0x02;
    pub const MAP_ANONYMOUS: i32 = 0x20;
    pub const MAP_NORESERVE: i32 = 0x4000;
    pub const MAP_STACK: i32 = 0x2_0000;
    pub const MAP_FAILED: *mut c_void = !0usize as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn mprotect(addr: *mut c_void, len: usize, prot: i32) -> i32;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }
}

/// The page size of every x86-64 Linux.
const PAGE: usize = 4096;
/// Guard page included: what `std` gives a thread by default.
const STACK_BYTES: usize = 2 << 20;

/// An anonymous private mapping used as a call stack: `STACK_BYTES`
/// long, lowest page inaccessible.
struct Stack {
    base: NonNull<u8>,
}

impl Stack {
    fn new() -> Stack {
        // SAFETY: an anonymous mapping at an address of the kernel's
        // choosing touches no existing memory; the arguments are the
        // documented ones for that request.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                STACK_BYTES,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_PRIVATE | sys::MAP_ANONYMOUS | sys::MAP_NORESERVE | sys::MAP_STACK,
                -1,
                0,
            )
        };
        assert!(
            base != sys::MAP_FAILED,
            "failed to map a stack for a simulated process: {}",
            std::io::Error::last_os_error()
        );
        let stack = Stack {
            base: NonNull::new(base.cast()).expect("mmap returned null"),
        };
        // SAFETY: the page lies inside the mapping created above, which
        // nothing else refers to yet.
        let rc = unsafe { sys::mprotect(base, PAGE, sys::PROT_NONE) };
        assert!(
            rc == 0,
            "failed to protect a stack guard page: {}",
            std::io::Error::last_os_error()
        );
        stack
    }

    /// One past the highest usable byte; 16-byte aligned (page aligned).
    fn top(&self) -> usize {
        self.base.as_ptr() as usize + STACK_BYTES
    }

    fn contains(&self, addr: usize) -> bool {
        (self.base.as_ptr() as usize + PAGE..self.top()).contains(&addr)
    }
}

impl Drop for Stack {
    fn drop(&mut self) {
        // SAFETY: `base`/`STACK_BYTES` name exactly the mapping `new`
        // created, and `Handoff::drop` only lets a stack be dropped when
        // no frame on it is live (never started, or finished).
        let rc = unsafe { sys::munmap(self.base.as_ptr().cast(), STACK_BYTES) };
        debug_assert_eq!(rc, 0, "munmap of a process stack failed");
    }
}

/// Saves the callee-saved registers on the current stack, stores the
/// resulting stack pointer in `*save`, makes `to` the stack pointer and
/// restores the registers found there: the call returns — on the other
/// stack — to whoever last called `switch` with *its* `save`, or into
/// [`trampoline`] for a stack prepared by [`Handoff::new`].
///
/// `to` is read before `*save` is written, so both may name the same
/// word.
///
/// # Safety
///
/// `to` must be a stack pointer stored by an earlier `switch` (or laid
/// out by `Handoff::new`) whose stack is still mapped and is not
/// executing; `save` must be valid for a write.
#[unsafe(naked)]
unsafe extern "C" fn switch(save: *mut usize, to: usize) {
    // System V: `save` in rdi, `to` in rsi; rbx, rbp, r12–r15 belong to
    // the caller. (MXCSR and the x87 control word are callee-saved too,
    // but nothing in this workspace changes them.)
    naked_asm!(
        "push rbp",
        "push rbx",
        "push r12",
        "push r13",
        "push r14",
        "push r15",
        "mov [rdi], rsp",
        "mov rsp, rsi",
        "pop r15",
        "pop r14",
        "pop r13",
        "pop r12",
        "pop rbx",
        "pop rbp",
        "ret",
    )
}

/// Where the first `switch` into a fresh stack "returns" to: calls
/// `r13(r12)` — [`entry`] with its `Inner`, planted by `Handoff::new`.
/// Declaring the return address undefined makes this the outermost
/// frame, so a backtrace taken inside a body ends here instead of
/// walking off the top of the mapping.
#[unsafe(naked)]
unsafe extern "C" fn trampoline() -> ! {
    naked_asm!(
        ".cfi_startproc",
        ".cfi_undefined rip",
        "mov rdi, r12",
        "call r13",
        "ud2",
        ".cfi_endproc",
    )
}

/// The body handed to [`Handoff::new`]: receives the process side of the
/// hand-off and runs to completion.
pub(crate) type Body = Box<dyn FnOnce(Yielder) + Send + 'static>;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum State {
    /// `body` is still there; no frame is on the stack.
    Unstarted,
    /// The body has frames on the stack: executing while the scheduler
    /// is inside `resume`, suspended in `block_on` otherwise.
    Started,
    /// The body returned, panicked, or was dropped unrun.
    Done,
}

/// Everything both sides of the hand-off touch. Lives in one heap
/// allocation reached through raw pointers only: the scheduler and the
/// coroutine take turns, but neither may hold a reference across a
/// `switch`, where the other side writes.
struct Inner {
    stack: Stack,
    /// The stack pointer of whichever side is *not* executing.
    sp: usize,
    state: State,
    /// Scheduler → process word, written before switching in.
    resume: Resume,
    /// Process → scheduler word, written before switching out.
    yielded: Option<YieldMsg>,
    /// The body, until it starts (or is dropped unrun).
    body: Option<Body>,
    /// The thread that started the coroutine (see [`thread_mark`]).
    owner: usize,
    /// The profiler's open-frame stack of whichever side is not
    /// executing: scopes follow the process, not the thread.
    frames: Vec<&'static str>,
}

/// An address unique to the calling thread for as long as it lives.
fn thread_mark() -> usize {
    thread_local!(static MARK: u8 = const { 0 });
    MARK.with(|m| std::ptr::from_ref(m) as usize)
}

/// First Rust frame on a coroutine stack.
///
/// # Safety
///
/// Only reached through [`trampoline`], once per `Inner`, with `inner`
/// pointing at the live `Inner` whose stack it is running on.
unsafe extern "C" fn entry(inner: *mut Inner) -> ! {
    // SAFETY (all derefs below): `inner` is live — `Handoff::drop` never
    // frees an `Inner` with frames on its stack — and the scheduler side
    // is parked inside `switch`, so nothing else touches it.
    let body = unsafe { (*inner).body.take() }.expect("coroutine started twice");
    let yielder = Yielder {
        inner: unsafe { NonNull::new_unchecked(inner) },
    };
    // The unwind stops here: nothing may unwind into the trampoline, and
    // `extern "C"` would turn an escaping panic into an abort.
    let result = panic::catch_unwind(AssertUnwindSafe(|| body(yielder)));
    let panic_msg = result.err().map(|p| panic_message(p.as_ref()));
    unsafe {
        (*inner).yielded = Some(YieldMsg::Finished { panic_msg });
        // Nothing with a destructor is left in this frame: the stack is
        // unmapped without ever being returned to.
        switch(&raw mut (*inner).sp, (*inner).sp);
    }
    unreachable!("finished coroutine resumed")
}

/// The scheduler's side of one blocking process.
pub(crate) struct Handoff {
    inner: NonNull<Inner>,
}

// SAFETY: `Inner`'s body is `Send` and its stack mapping, words and
// frame names are plain data, so an unstarted or finished hand-off may
// sit in (and be dropped from) a registry any thread can lock. Once
// started, the frames on the stack may hold anything — that is what the
// owner-thread invariant is for: `resume` refuses to run them anywhere
// but on the thread that started them, and `drop` leaks rather than
// destroys them.
unsafe impl Send for Handoff {}

impl Handoff {
    /// Prepares a stack on which `body` will run once resumed with
    /// [`Resume::Start`]. (`name` labels the thread on targets where a
    /// process has one.)
    pub(crate) fn new(_name: &str, body: Body) -> Handoff {
        let stack = Stack::new();
        // What `switch` pops on its first way in: r15, r14, r13, r12,
        // rbx, rbp, return address. Two zero words stay above it, so the
        // trampoline starts 16-byte aligned as the ABI wants before its
        // `call`, and a frame-pointer walk finds a null link.
        let sp = stack.top() - 9 * 8;
        let inner = Box::into_raw(Box::new(Inner {
            stack,
            sp,
            state: State::Unstarted,
            resume: Resume::Start,
            yielded: None,
            body: Some(body),
            owner: 0,
            frames: Vec::new(),
        }));
        let frame: [usize; 7] = [
            0,
            0,
            entry as *const () as usize, // r13
            inner as usize,              // r12
            0,
            0, // rbp: end of the frame-pointer chain
            trampoline as *const () as usize,
        ];
        // SAFETY: the seven words lie within the top page of the fresh,
        // writable, 16-byte-aligned mapping.
        unsafe { (sp as *mut [usize; 7]).write(frame) };
        Handoff {
            // SAFETY: `Box::into_raw` never returns null.
            inner: unsafe { NonNull::new_unchecked(inner) },
        }
    }

    /// Runs the body until it next blocks or finishes and returns what
    /// it yielded. A body that never started only starts on
    /// [`Resume::Start`]; anything else drops it unrun.
    ///
    /// # Panics
    ///
    /// Panics if the process has finished, or is resumed on a thread
    /// other than the one that started it.
    pub(crate) fn resume(&mut self, resume: Resume) -> YieldMsg {
        let inner = self.inner.as_ptr();
        // SAFETY: `inner` is live until `drop`. The coroutine side only
        // touches it while this thread is inside `switch` below, and no
        // reference into it is held across that call.
        unsafe {
            match (*inner).state {
                State::Unstarted if resume != Resume::Start => {
                    drop((*inner).body.take());
                    (*inner).state = State::Done;
                    return YieldMsg::Finished { panic_msg: None };
                }
                State::Unstarted => {
                    (*inner).owner = thread_mark();
                    (*inner).state = State::Started;
                }
                // The owner-thread invariant (module docs): the frames
                // about to run may have cached this thread's TLS
                // addresses and may hold values that are not `Send`.
                // (`&mut self` already rules out a body that is running.)
                State::Started => assert_eq!(
                    (*inner).owner,
                    thread_mark(),
                    "simnet: blocking process resumed off the thread that runs its domain"
                ),
                State::Done => panic!("simnet: resume of a finished process"),
            }
            (*inner).resume = resume;
            obs::swap_open_frames(&mut (*inner).frames);
            // SAFETY: `sp` was laid out by `new` or stored by the
            // `switch` in `block_on`/`entry`; its stack is mapped (owned
            // by `inner`) and — we hold `&mut self` — not executing.
            switch(&raw mut (*inner).sp, (*inner).sp);
            obs::swap_open_frames(&mut (*inner).frames);
            let y = (*inner)
                .yielded
                .take()
                .expect("coroutine switched out without yielding");
            if matches!(y, YieldMsg::Finished { .. }) {
                (*inner).state = State::Done;
            }
            y
        }
    }
}

impl Drop for Handoff {
    fn drop(&mut self) {
        // SAFETY: `inner` came from `Box::into_raw` in `new` and this is
        // the only place that frees it.
        let inner = unsafe { Box::from_raw(self.inner.as_ptr()) };
        if inner.state == State::Started {
            // Live frames: their destructors can only run by resuming
            // the body, and unmapping the stack under them could leave
            // pointers into it dangling. Leak both, as `mem::forget` may.
            std::mem::forget(inner);
        }
    }
}

/// The process's side of the hand-off, given to the body when it starts.
pub(crate) struct Yielder {
    inner: NonNull<Inner>,
}

// SAFETY: a `Yielder` lives in the `Ctx` of a body running on the
// coroutine's stack, and `Ctx` must be `Send` for the process table.
// Wherever the handle travels, `block_on` reads only the stack's
// immutable bounds before proving it is executing on that stack — which
// only happens on the owner thread — so a handle used elsewhere panics
// instead of switching.
unsafe impl Send for Yielder {}

impl Yielder {
    /// Hands `y` to the scheduler and suspends the body until the
    /// scheduler resumes it.
    ///
    /// # Panics
    ///
    /// Panics when not called from the process's own stack.
    pub(crate) fn block_on(&self, y: YieldMsg) -> Resume {
        let inner = self.inner.as_ptr();
        let here = 0u8;
        // SAFETY: the `Inner` outlives every frame on its stack, and a
        // live `Yielder` means the body — one of those frames — has not
        // finished. Past the assertion this is the coroutine itself, the
        // scheduler is parked in `resume`'s `switch`, and no reference
        // into `inner` is held across ours.
        unsafe {
            assert!(
                (*inner).stack.contains(&raw const here as usize),
                "simnet: blocking Ctx operation called off the process's own stack"
            );
            (*inner).yielded = Some(y);
            // SAFETY: `sp` holds the scheduler's stack pointer, stored
            // by the `switch` that resumed us; that stack is parked
            // there until we switch back.
            switch(&raw mut (*inner).sp, (*inner).sp);
            (*inner).resume
        }
    }
}

/// The behaviour both hand-offs owe the scheduler: one file, run
/// against each (hence the same module twice).
#[cfg(test)]
#[path = "handoff_contract.rs"]
#[allow(clippy::duplicate_mod)]
mod contract;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "off the thread that runs its domain")]
    fn resume_on_another_thread_is_refused() {
        let mut h = Handoff::new(
            "t",
            Box::new(|y: Yielder| {
                y.block_on(YieldMsg::Recv { deadline: None });
            }),
        );
        let _ = h.resume(Resume::Start);
        let r = std::thread::scope(|s| s.spawn(|| h.resume(Resume::Delivered)).join());
        // Finish the body where it belongs, so the stack is not leaked.
        let _ = h.resume(Resume::Shutdown);
        if let Err(p) = r {
            panic::resume_unwind(p);
        }
    }
}
