//! The benchmark's own span recorder.
//!
//! One span per call the benchmark makes into a layer: name, start, end,
//! the enclosing span on the same thread, and the request it belongs to.
//! Spans live in per-thread vectors (a simulated thread-backed process is
//! an OS thread; poll-driven processes share the scheduler's thread) and
//! are handed to a global sink when the thread ends, so recording takes
//! no lock. Nothing is written until the run is over.
//!
//! A span is *blocking* when the call it wraps may park the calling
//! thread while other simulated processes run (`Channel::wait`, a proxy
//! invocation that goes remote). Blocking spans are recorded, but their
//! duration is other processes' time too, so they are left out of every
//! self-time sum and out of the attributed share of the run.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

static ON: AtomicBool = AtomicBool::new(false);
static EPOCH: OnceLock<Instant> = OnceLock::new();
static SINK: Mutex<Vec<Vec<Span>>> = Mutex::new(Vec::new());

/// One recorded span. `parent` is the index + 1 of the enclosing span in
/// the same thread's vector, 0 for a top-level span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub req: u64,
    pub blocking: bool,
}

#[derive(Default)]
struct Local {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Drop for Local {
    fn drop(&mut self) {
        if !self.spans.is_empty() {
            if let Ok(mut sink) = SINK.lock() {
                sink.push(std::mem::take(&mut self.spans));
            }
        }
    }
}

thread_local! {
    static LOCAL: RefCell<Local> = RefCell::new(Local::default());
}

/// Turns recording on for the rest of the process.
pub fn enable() {
    EPOCH.get_or_init(Instant::now);
    ON.store(true, Ordering::Relaxed);
}

#[inline]
pub fn enabled() -> bool {
    ON.load(Ordering::Relaxed)
}

/// Host nanoseconds since recording was enabled (0 before that).
pub fn now_ns() -> u64 {
    EPOCH.get().map_or(0, |e| e.elapsed().as_nanos() as u64)
}

/// An open span; close it with [`end`].
#[derive(Debug)]
pub struct Open(u32);

/// Opens a span on this thread, or returns `None` when recording is off.
#[inline]
pub fn begin() -> Option<Open> {
    if !enabled() {
        return None;
    }
    Some(LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let parent = l.open.last().map_or(0, |&i| i + 1);
        let idx = l.spans.len() as u32;
        l.spans.push(Span {
            name: "",
            start_ns: 0,
            end_ns: 0,
            parent,
            req: 0,
            blocking: false,
        });
        l.open.push(idx);
        // Read the clock last so the bookkeeping above is outside the span.
        l.spans[idx as usize].start_ns = now_ns();
        Open(idx)
    }))
}

/// Stops the clock of a span opened by [`begin`]. The span still needs
/// its [`label`]: what a call turned out to be (a cache hit, say) is
/// sometimes only known after asking the layer, and asking must not be
/// billed to the call.
#[inline]
pub fn stop(open: Option<Open>) -> Option<Open> {
    let Open(idx) = open?;
    let end_ns = now_ns();
    LOCAL.with(|l| {
        let mut l = l.borrow_mut();
        let popped = l.open.pop();
        debug_assert_eq!(popped, Some(idx), "spans close in LIFO order");
        l.spans[idx as usize].end_ns = end_ns;
    });
    Some(Open(idx))
}

/// Names a stopped span.
#[inline]
pub fn label(stopped: Option<Open>, name: &'static str, req: u64, blocking: bool) {
    let Some(Open(idx)) = stopped else { return };
    LOCAL.with(|l| {
        let s = &mut l.borrow_mut().spans[idx as usize];
        s.name = name;
        s.req = req;
        s.blocking = blocking;
    });
}

/// Stops and names a span in one step.
#[inline]
pub fn end(open: Option<Open>, name: &'static str, req: u64, blocking: bool) {
    label(stop(open), name, req, blocking);
}

/// Runs `f` inside a self-time span.
#[inline]
pub fn span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    let open = begin();
    let r = f();
    end(open, name, req, false);
    r
}

/// Runs `f` inside a blocking span (see the module docs).
#[inline]
pub fn blocking_span<R>(name: &'static str, req: u64, f: impl FnOnce() -> R) -> R {
    let open = begin();
    let r = f();
    end(open, name, req, true);
    r
}

/// Hands this thread's spans to the sink now (spawned threads do this
/// when they end).
fn flush_thread() {
    LOCAL.with(|l| {
        let spans = std::mem::take(&mut l.borrow_mut().spans);
        if !spans.is_empty() {
            SINK.lock().expect("span sink poisoned").push(spans);
        }
    });
}

/// Every thread's spans recorded so far (the caller's included), one
/// vector per thread, ordered
/// by each thread's first span so the result does not depend on which
/// thread ended first.
pub fn collect() -> Vec<Vec<Span>> {
    flush_thread();
    let mut all = std::mem::take(&mut *SINK.lock().expect("span sink poisoned"));
    all.sort_by_key(|t| t.first().map_or(0, |s| s.start_ns));
    all
}

/// Per-name totals over a set of threads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NameStat {
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of durations minus the part the span's direct children cover.
    pub self_ns: u64,
    pub blocking: bool,
}

/// Folds spans by name; self time is duration minus direct children.
pub fn fold(threads: &[Vec<Span>]) -> BTreeMap<&'static str, NameStat> {
    let mut out: BTreeMap<&'static str, NameStat> = BTreeMap::new();
    for spans in threads {
        let mut child_ns = vec![0u64; spans.len()];
        for s in spans {
            if s.parent != 0 {
                child_ns[(s.parent - 1) as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        for (i, s) in spans.iter().enumerate() {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.total_ns += dur;
            e.self_ns += dur.saturating_sub(child_ns[i]);
            e.blocking |= s.blocking;
        }
    }
    out
}

/// Host nanoseconds inside `[from_ns, to_ns]` covered by non-blocking
/// top-level spans: the part of that window the benchmark can attribute
/// to a call it made.
pub fn attributed_ns(threads: &[Vec<Span>], from_ns: u64, to_ns: u64) -> u64 {
    let mut total = 0;
    for spans in threads {
        for s in spans {
            let top = s.parent == 0 || spans[(s.parent - 1) as usize].blocking;
            if top && !s.blocking && s.start_ns >= from_ns && s.end_ns <= to_ns {
                total += s.end_ns.saturating_sub(s.start_ns);
            }
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, start: u64, end: u64, parent: u32, blocking: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            req: 0,
            blocking,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let t = vec![vec![
            sp("outer", 0, 100, 0, false),
            sp("inner", 10, 40, 1, false),
            sp("inner", 50, 60, 1, false),
            sp("leaf", 12, 20, 2, false),
        ]];
        let f = fold(&t);
        assert_eq!(f["outer"].total_ns, 100);
        assert_eq!(f["outer"].self_ns, 60);
        assert_eq!(f["inner"].count, 2);
        assert_eq!(f["inner"].total_ns, 40);
        assert_eq!(f["inner"].self_ns, 32);
        assert_eq!(f["leaf"].self_ns, 8);
        // Only the top-level span counts towards coverage.
        assert_eq!(attributed_ns(&t, 0, u64::MAX), 100);
    }

    #[test]
    fn blocking_spans_are_not_attributed_but_their_children_are() {
        let t = vec![vec![
            sp("wait", 0, 1_000, 0, true),
            sp("work", 100, 150, 1, false),
            sp("hit", 2_000, 2_010, 0, false),
        ]];
        assert_eq!(attributed_ns(&t, 0, u64::MAX), 60);
        assert_eq!(attributed_ns(&t, 0, 1_000), 50);
        let f = fold(&t);
        assert!(f["wait"].blocking);
        assert!(!f["hit"].blocking);
    }

    #[test]
    fn recorder_nests_and_flushes() {
        enable();
        let outer = begin();
        span("child", 7, || std::hint::black_box(1 + 1));
        end(outer, "parent", 7, false);
        let handle = std::thread::spawn(|| span("other-thread", 9, || ()));
        handle.join().unwrap();
        let all = collect();
        let names: Vec<&str> = all.iter().flatten().map(|s| s.name).collect();
        assert!(names.contains(&"parent") && names.contains(&"child"));
        assert!(names.contains(&"other-thread"));
        let main = all.iter().find(|t| t[0].name == "parent").unwrap();
        assert_eq!(main[1].parent, 1);
        assert_eq!(main[1].req, 7);
        assert!(main[0].end_ns >= main[1].end_ns);
    }
}
