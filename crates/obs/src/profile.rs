//! Continuous wall-time profiler: folded-stack attribution with a
//! deterministic shape.
//!
//! The proxy principle makes every distribution decision the system's
//! private business — so only the observability plane can say where
//! *host* time actually goes. This module adds that capability without
//! breaking the repo's core invariant (byte-identical runs for a
//! seed):
//!
//! * **RAII scope guards** ([`scope`]) push a frame name onto a
//!   thread-local stack and, on drop, fold the semicolon-joined path
//!   into the registry's bounded frame table as `{calls, wall_ns}`.
//! * **Deterministic by construction**: frame *paths and call counts*
//!   depend only on simulated execution, which is byte-identical from
//!   run to run (proptested in `simnet/tests/profile_determinism.rs`).
//!   Only `wall_ns` is host-dependent; consumers must treat it as
//!   *reported, not judged* — the experiments print it and gate only
//!   within-run ratios, and the determinism tests compare paths/calls
//!   with wall excluded.
//! * **Counted, never silent, evictions**: the table is bounded; once full, folds into *new* paths are dropped and counted
//!   in `frames_evicted` (existing paths keep accumulating).
//! * **Relaxed-atomic off-switch**: like the flight recorder, the
//!   disabled fast path of [`scope`] is a single relaxed atomic load of
//!   a global "any profiler armed" counter — no thread-local access, no
//!   allocation, no clock read.
//!
//! Profilers are per-[`MetricsRegistry`]; threads declare which
//! registry they profile into with [`set_ambient_profiler`] (the
//! simulator does this for the thread driving it and for a blocking
//! body's own thread, and carries each blocking process's open scopes
//! with the process through [`swap_open_frames`]), and
//! [`MetricsRegistry::profile_report`] renders its table key-ordered.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Instant;

use crate::MetricsRegistry;

/// How many registries currently have profiling enabled, across the
/// whole process. The [`scope`] fast path is one relaxed load of this:
/// zero means every guard is inert.
static ACTIVE: AtomicUsize = AtomicUsize::new(0);

pub(crate) fn active_inc() {
    ACTIVE.fetch_add(1, Ordering::Relaxed);
}

pub(crate) fn active_dec() {
    ACTIVE.fetch_sub(1, Ordering::Relaxed);
}

/// Thread-local profiler state: the ambient registry and the open-frame
/// stack in one cell, so an armed scope touches thread-local storage
/// exactly once at open and once at close.
struct ProfTls {
    /// The registry this thread's scopes fold into (None = inert).
    reg: Option<Arc<MetricsRegistry>>,
    /// The thread's open-frame stack (names of live scopes, outermost
    /// first).
    stack: Vec<&'static str>,
}

thread_local! {
    static PROF_TLS: RefCell<ProfTls> = const {
        RefCell::new(ProfTls {
            reg: None,
            stack: Vec::new(),
        })
    };
}

/// Declares which registry the calling thread's [`scope`] guards fold
/// into (`None` disarms the thread), and returns the one it replaces.
/// The simulator sets this on every thread that executes simulated work
/// — the driver for each `run_until` and shutdown, handing the one it
/// found back when it returns; a blocking body's own thread at its
/// start.
pub fn set_ambient_profiler(reg: Option<Arc<MetricsRegistry>>) -> Option<Arc<MetricsRegistry>> {
    PROF_TLS.with(|t| std::mem::replace(&mut t.borrow_mut().reg, reg))
}

/// Exchanges the calling thread's open-frame stack with `frames`.
///
/// This is the simulator's hook, not an application's: simulated
/// processes that block share the thread that drives the simulation, so
/// a scope one of them holds open across a blocking call must leave the
/// thread's stack with it — or it would become the parent of every frame
/// any other process folds meanwhile. The simulator keeps one `frames`
/// per suspended process and calls this on the way into and out of each.
///
/// Like [`scope`], it is one relaxed load and nothing else while no
/// profiler in the process is armed.
#[inline]
pub fn swap_open_frames(frames: &mut Vec<&'static str>) {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return;
    }
    PROF_TLS.with(|t| std::mem::swap(&mut t.borrow_mut().stack, frames));
}

/// Opens a profiling scope named `name`. Returns a guard that, when
/// dropped, folds the full semicolon-joined frame path (every enclosing
/// scope plus `name`) into the ambient registry with the scope's
/// wall-clock duration.
///
/// When no profiler in the process is enabled this is one relaxed
/// atomic load and an inert guard. Frame names become folded-stack
/// frames verbatim; a name may itself contain `;` to pre-split into a
/// fixed sub-hierarchy (e.g. `"rpc;encode"`).
#[inline]
#[must_use = "the scope is measured from creation to drop"]
pub fn scope(name: &'static str) -> ScopeGuard {
    if ACTIVE.load(Ordering::Relaxed) == 0 {
        return ScopeGuard { t0: None };
    }
    scope_slow(name)
}

#[cold]
fn scope_slow(name: &'static str) -> ScopeGuard {
    PROF_TLS.with(|t| {
        let mut t = t.borrow_mut();
        // The guard deliberately does NOT hold the registry: it re-reads
        // the thread-local at drop, so an armed scope costs zero Arc
        // refcount traffic.
        let armed = matches!(&t.reg, Some(reg) if reg.profile_enabled());
        if !armed {
            return ScopeGuard { t0: None };
        }
        t.stack.push(name);
        ScopeGuard {
            t0: Some(Instant::now()),
        }
    })
}

/// RAII guard returned by [`scope`]; folds the frame on drop.
#[derive(Debug)]
pub struct ScopeGuard {
    t0: Option<Instant>,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if let Some(t0) = self.t0.take() {
            // One clock read closes the scope *and* opens the fold's
            // self-measurement bracket.
            let t1 = Instant::now();
            let wall_ns = t1.saturating_duration_since(t0).as_nanos() as u64;
            PROF_TLS.with(|t| {
                let mut t = t.borrow_mut();
                let t = &mut *t;
                let Some(name) = t.stack.pop() else { return };
                let Some(reg) = &t.reg else { return };
                if t.stack.is_empty() {
                    // Top-level scope (the common hot-path case): the
                    // path is the frame name itself, so skip the join
                    // allocation entirely.
                    reg.prof_fold_at(t1, name, 1, wall_ns);
                } else {
                    let mut path = t.stack.join(";");
                    path.push(';');
                    path.push_str(name);
                    reg.prof_fold_at(t1, &path, 1, wall_ns);
                }
            });
        }
    }
}

/// Accumulated statistics for one frame path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FrameStat {
    /// Times the path was folded (deterministic for a seed).
    pub calls: u64,
    /// Total wall-clock nanoseconds attributed to the path
    /// (host-dependent: reported, never judged).
    pub wall_ns: u64,
}

/// FNV-1a hasher for the frame table. Frame paths are short strings
/// from a tiny, compile-time-known set (scope names, not attacker
/// input), so there is no DoS surface to defend and SipHash's setup
/// cost is pure overhead on a per-fold hot path.
#[derive(Debug)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> Self {
        FnvHasher(0xcbf2_9ce4_8422_2325)
    }
}

impl std::hash::Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

type FnvBuild = std::hash::BuildHasherDefault<FnvHasher>;

/// The profiler's bounded folded-stack table plus its eviction count.
#[derive(Debug)]
pub(crate) struct FrameTable {
    frames: HashMap<String, FrameStat, FnvBuild>,
    evicted: u64,
    max_frames: usize,
}

impl FrameTable {
    pub(crate) fn new(max_frames: usize) -> FrameTable {
        FrameTable {
            frames: HashMap::default(),
            evicted: 0,
            max_frames: max_frames.max(1),
        }
    }

    fn fold(&mut self, path: &str, calls: u64, wall_ns: u64) {
        if let Some(st) = self.frames.get_mut(path) {
            st.calls += calls;
            st.wall_ns += wall_ns;
        } else if self.frames.len() < self.max_frames {
            self.frames
                .insert(path.to_string(), FrameStat { calls, wall_ns });
        } else {
            // Table full and the path is new: drop the sample but count
            // it — the report never pretends coverage it doesn't have.
            self.evicted += calls;
        }
    }
}

/// The profiler section of a [`crate::RunReport`]: the folded frame
/// table plus honesty counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Folded frame paths → accumulated stats, key-ordered
    /// (byte-identical for a seed).
    pub frames: BTreeMap<String, FrameStat>,
    /// Distinct paths resident (== `frames.len()`).
    pub frames_resident: u64,
    /// Folds dropped because the table was full. Zero means the table
    /// saw everything.
    pub frames_evicted: u64,
    /// Wall time the profiler spent folding, in nanoseconds (its own
    /// overhead, measured the same way it measures everyone else).
    pub self_ns: u64,
    /// Folds performed.
    pub self_calls: u64,
}

impl ProfileReport {
    /// The deterministic shape of the profile: one `path calls` line
    /// per frame, key-ordered, `wall_ns` excluded. Two runs of the same
    /// seed must produce byte-identical canonical frames.
    pub fn canonical_frames(&self) -> String {
        let mut out = String::new();
        for (path, st) in &self.frames {
            out.push_str(path);
            out.push(' ');
            out.push_str(&st.calls.to_string());
            out.push('\n');
        }
        out
    }
}

impl MetricsRegistry {
    /// Turns on the profiler with at most `max_frames` distinct frame
    /// paths (clamped to ≥ 1). Resets any existing recording. Scopes
    /// only fold from threads that also declared this registry ambient
    /// via [`set_ambient_profiler`].
    pub fn enable_profile(&self, max_frames: usize) {
        *self.frames() = Some(FrameTable::new(max_frames));
        if !self.prof_enabled.swap(true, Ordering::Relaxed) {
            active_inc();
        }
    }

    /// True when this registry's profiler is armed: one relaxed load,
    /// the same fast-path discipline as
    /// [`MetricsRegistry::timeseries_enabled`].
    #[inline]
    pub fn profile_enabled(&self) -> bool {
        self.prof_enabled.load(Ordering::Relaxed)
    }

    /// Folds `calls`/`wall_ns` into `path`. This is the direct API for
    /// call sites that already measured a duration themselves (the
    /// scheduler's event loop, obs self-measurement piggybacking); [`scope`] guards route here too.
    /// No-op while the profiler is off.
    pub fn profile_add(&self, path: &str, calls: u64, wall_ns: u64) {
        if !self.profile_enabled() {
            return;
        }
        self.prof_fold(path, calls, wall_ns);
    }

    /// The fold itself, bracketed by the profiler's own overhead
    /// measurement (accumulated into `self_ns`/`self_calls` — the
    /// profiler bills itself with the same clock it bills everyone
    /// else).
    pub(crate) fn prof_fold(&self, path: &str, calls: u64, wall_ns: u64) {
        self.prof_fold_at(Instant::now(), path, calls, wall_ns);
    }

    /// [`Self::prof_fold`] for callers that already hold a fresh
    /// timestamp (a scope guard reuses its own end-of-scope reading),
    /// saving one clock read per fold on the hot path.
    pub(crate) fn prof_fold_at(&self, t0: Instant, path: &str, calls: u64, wall_ns: u64) {
        if let Some(table) = self.frames().as_mut() {
            table.fold(path, calls, wall_ns);
        }
        self.prof_self_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.prof_self_calls.fetch_add(1, Ordering::Relaxed);
    }

    fn frames(&self) -> std::sync::MutexGuard<'_, Option<FrameTable>> {
        self.profile.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Snapshot of the profile, if the profiler is armed, key-ordered.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        if !self.profile_enabled() {
            return None;
        }
        let (frames, evicted) = self.frames().as_ref().map_or_else(Default::default, |t| {
            let frames: BTreeMap<String, FrameStat> =
                t.frames.iter().map(|(p, st)| (p.clone(), *st)).collect();
            (frames, t.evicted)
        });
        Some(ProfileReport {
            frames_resident: frames.len() as u64,
            frames_evicted: evicted,
            self_ns: self.prof_self_ns.load(Ordering::Relaxed),
            self_calls: self.prof_self_calls.load(Ordering::Relaxed),
            frames,
        })
    }
}

// ---------------------------------------------------------------------------
// Collapsed-flamegraph (folded) export
// ---------------------------------------------------------------------------

/// Renders a [`ProfileReport`] in the standard collapsed-flamegraph
/// format: one `frame;frame;frame value` line per path, key-ordered,
/// with `wall_ns` as the value. The output is canonical — parsing and
/// re-emitting it is byte-identical (see [`validate_folded`]) — and
/// feeds any stock flamegraph renderer.
pub fn profile_to_folded(report: &ProfileReport) -> String {
    let mut out = String::new();
    for (path, st) in &report.frames {
        out.push_str(path);
        out.push(' ');
        out.push_str(&st.wall_ns.to_string());
        out.push('\n');
    }
    out
}

/// Shape summary returned by [`validate_folded`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FoldedSummary {
    /// Stack lines in the artifact.
    pub lines: usize,
    /// Deepest stack, in frames.
    pub max_depth: usize,
    /// Distinct root frames.
    pub roots: usize,
    /// Sum of all values.
    pub total_value: u64,
}

/// Validates a collapsed-flamegraph artifact the way
/// [`crate::validate_report`] validates a report: every line must read
/// as `frame(;frame)* value` with a `u64` value, no empty frame and no
/// space inside the stack, and re-emitting what was read must reproduce
/// the input byte for byte (so the stacks are strictly sorted, one line
/// each, and the artifact is canonical).
pub fn validate_folded(text: &str) -> Result<FoldedSummary, String> {
    let mut report = ProfileReport::default();
    for (i, line) in text.lines().enumerate() {
        let at = |msg: String| format!("line {}: {msg}", i + 1);
        let (stack, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| at("no `stack value` separator".into()))?;
        let wall_ns = value
            .parse()
            .map_err(|_| at(format!("value {value:?} is not a u64")))?;
        if stack.contains(' ') || stack.split(';').any(str::is_empty) {
            return Err(at(format!("stack {stack:?} has an empty frame or a space")));
        }
        report
            .frames
            .insert(stack.to_owned(), FrameStat { calls: 0, wall_ns });
    }
    if report.frames.is_empty() {
        return Err("folded artifact has no stack lines".into());
    }
    if profile_to_folded(&report) != text {
        return Err("not canonical: re-emitting the stacks changes the bytes".into());
    }
    let roots: BTreeSet<&str> = report
        .frames
        .keys()
        .filter_map(|s| s.split(';').next())
        .collect();
    Ok(FoldedSummary {
        lines: report.frames.len(),
        max_depth: report
            .frames
            .keys()
            .map(|s| s.split(';').count())
            .max()
            .unwrap_or(0),
        roots: roots.len(),
        total_value: report.frames.values().map(|st| st.wall_ns).sum(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn armed_registry() -> Arc<MetricsRegistry> {
        let reg = Arc::new(MetricsRegistry::new());
        reg.enable_profile(64);
        reg
    }

    #[test]
    fn disabled_scope_is_inert() {
        set_ambient_profiler(None);
        let g = scope("never");
        drop(g);
        let reg = MetricsRegistry::new();
        assert!(reg.profile_report().is_none());
    }

    #[test]
    fn scopes_fold_nested_paths() {
        let reg = armed_registry();
        set_ambient_profiler(Some(Arc::clone(&reg)));
        {
            let _a = scope("outer");
            {
                let _b = scope("inner");
            }
            {
                let _b = scope("inner");
            }
        }
        set_ambient_profiler(None);
        let rep = reg.profile_report().unwrap();
        assert_eq!(rep.frames["outer"].calls, 1);
        assert_eq!(rep.frames["outer;inner"].calls, 2);
        assert_eq!(rep.frames_resident, 2);
        assert_eq!(rep.frames_evicted, 0);
        assert!(rep.self_calls >= 3);
    }

    #[test]
    fn bounded_table_counts_evictions() {
        let reg = MetricsRegistry::new();
        reg.enable_profile(2);
        reg.profile_add("a", 1, 10);
        reg.profile_add("b", 1, 10);
        reg.profile_add("c", 1, 10); // table full: dropped, counted
        reg.profile_add("a", 1, 5); // existing path still accumulates
        let rep = reg.profile_report().unwrap();
        assert_eq!(rep.frames_resident, 2);
        assert_eq!(rep.frames_evicted, 1);
        assert_eq!(
            rep.frames["a"],
            FrameStat {
                calls: 2,
                wall_ns: 15
            }
        );
        assert!(!rep.frames.contains_key("c"));
    }

    #[test]
    fn profile_add_is_inert_when_off() {
        let reg = MetricsRegistry::new();
        reg.profile_add("a", 1, 10);
        assert!(reg.profile_report().is_none());
        assert_eq!(reg.prof_self_calls.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn canonical_frames_exclude_wall() {
        let reg = MetricsRegistry::new();
        reg.enable_profile(8);
        reg.profile_add("b", 2, 999);
        reg.profile_add("a;x", 1, 1);
        let rep = reg.profile_report().unwrap();
        assert_eq!(rep.canonical_frames(), "a;x 1\nb 2\n");
    }

    #[test]
    fn folded_round_trip_is_canonical() {
        let reg = MetricsRegistry::new();
        reg.enable_profile(8);
        reg.profile_add("sched;run;x", 3, 300);
        reg.profile_add("rpc;encode", 5, 50);
        let rep = reg.profile_report().unwrap();
        let folded = profile_to_folded(&rep);
        assert_eq!(folded, "rpc;encode 50\nsched;run;x 300\n");
        let summary = validate_folded(&folded).unwrap();
        assert_eq!(summary.lines, 2);
        assert_eq!(summary.max_depth, 3);
        assert_eq!(summary.roots, 2);
        assert_eq!(summary.total_value, 350);
    }

    #[test]
    fn validate_folded_rejects_malformed() {
        assert!(validate_folded("").is_err());
        assert!(validate_folded("noseparator\n").is_err());
        assert!(validate_folded("a notanumber\n").is_err());
        assert!(validate_folded("a;;b 1\n").is_err());
        assert!(validate_folded(";a 1\n").is_err());
        assert!(validate_folded("b 1\na 1\n").is_err());
        assert!(validate_folded("a 1\na 1\n").is_err());
        // Non-canonical spacing fails the round trip.
        assert!(validate_folded("a  1\n").is_err());
    }
}
