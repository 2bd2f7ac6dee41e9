//! Continuous wall-time profiler: folded-stack attribution with a
//! deterministic shape.
//!
//! The proxy principle makes every distribution decision the system's
//! private business — so only the observability plane can say where
//! *host* time actually goes. This module adds that capability without
//! breaking the repo's core invariant (byte-identical runs across
//! thread counts):
//!
//! * **RAII scope guards** ([`scope`]) push a frame name onto a
//!   thread-local stack and, on drop, fold the semicolon-joined path
//!   into the calling writer lane's bounded frame table as
//!   `{calls, wall_ns}`.
//! * **Deterministic by construction**: frame *paths and call counts*
//!   depend only on simulated execution, which is byte-identical across
//!   `with_threads` (proptested in `simnet/tests/profile_determinism.rs`).
//!   Only `wall_ns` is host-dependent; consumers must treat it as
//!   *reported, not judged* — the experiments print it and gate only
//!   within-run ratios, and the determinism tests compare paths/calls
//!   with wall excluded.
//! * **Counted, never silent, evictions**: the per-lane table is
//!   bounded; once full, folds into *new* paths are dropped and counted
//!   in `frames_evicted` (existing paths keep accumulating).
//! * **Relaxed-atomic off-switch**: like the flight recorder, the
//!   disabled fast path of [`scope`] is a single relaxed atomic load of
//!   a global "any profiler armed" counter — no thread-local access, no
//!   allocation, no clock read.
//!
//! Profilers are per-[`MetricsRegistry`]; threads declare which
//! registry they profile into with [`set_ambient_profiler`] (the
//! simulator does this for its driver and worker threads, and carries
//! each blocking process's open scopes with the process through
//! [`swap_open_frames`]).
//! The registry folds per writer lane — the same lane striping the rest
//! of the plane uses — and [`MetricsRegistry::profile_report`] merges
//! lanes key-ordered, so the merged frame table is byte-identical for
//! any thread count.

use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};
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
/// into (`None` disarms the thread). The simulator sets this on every
/// thread that executes simulated work — the driver at `run`, worker
/// threads at pool start — mirroring [`crate::set_ambient_lane`].
pub fn set_ambient_profiler(reg: Option<Arc<MetricsRegistry>>) {
    PROF_TLS.with(|t| t.borrow_mut().reg = reg);
}

/// Exchanges the calling thread's open-frame stack with `frames`.
///
/// This is the simulator's hook, not an application's: simulated
/// processes that block share the thread of their scheduler domain, so
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
    /// Times the path was folded (deterministic across thread counts).
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

/// One writer lane's slice of the profiler: a bounded folded-stack
/// table plus its eviction count.
#[derive(Debug)]
pub(crate) struct ProfileLane {
    frames: HashMap<String, FrameStat, FnvBuild>,
    evicted: u64,
    max_frames: usize,
}

impl ProfileLane {
    pub(crate) fn new(max_frames: usize) -> ProfileLane {
        ProfileLane {
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

/// The merged profiler section of a [`crate::RunReport`]: the folded
/// frame table plus honesty counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ProfileReport {
    /// Folded frame paths → accumulated stats, key-ordered (merged
    /// across writer lanes; byte-identical for any thread count).
    pub frames: BTreeMap<String, FrameStat>,
    /// Distinct paths resident after the merge (== `frames.len()`).
    pub frames_resident: u64,
    /// Folds dropped because a lane's table was full (summed over
    /// lanes). Zero means the table saw everything.
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
    /// seed at different thread counts must produce byte-identical
    /// canonical frames.
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
    /// paths *per writer lane* (clamped to ≥ 1). Resets any existing
    /// recording. Scopes only fold from threads that also declared this
    /// registry ambient via [`set_ambient_profiler`].
    pub fn enable_profile(&self, max_frames: usize) {
        for lane in self.lanes.iter() {
            let mut p = lane.profile.lock().unwrap_or_else(|e| e.into_inner());
            *p = Some(ProfileLane::new(max_frames));
        }
        self.prof_max_frames
            .store(max_frames.max(1) as u64, Ordering::Relaxed);
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

    /// Folds `calls`/`wall_ns` into `path` in the calling lane's table.
    /// This is the direct API for call sites that already measured a
    /// duration themselves (the scheduler's round phases, obs
    /// self-measurement piggybacking); [`scope`] guards route here too.
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
        {
            let mut guard = self
                .lane()
                .profile
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            if let Some(lane) = guard.as_mut() {
                lane.fold(path, calls, wall_ns);
            }
        }
        self.prof_self_ns
            .fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.prof_self_calls.fetch_add(1, Ordering::Relaxed);
    }

    /// Re-arms freshly rebuilt lanes after
    /// [`MetricsRegistry::set_writer_lanes`] (the enable flag and the
    /// process-wide ACTIVE count are untouched — only the lane tables
    /// are recreated).
    pub(crate) fn prof_rearm_lanes(&self) {
        if !self.profile_enabled() {
            return;
        }
        let max = self.prof_max_frames.load(Ordering::Relaxed) as usize;
        for lane in self.lanes.iter() {
            let mut p = lane.profile.lock().unwrap_or_else(|e| e.into_inner());
            *p = Some(ProfileLane::new(max));
        }
    }

    /// Snapshot of the profile, if the profiler is armed: lanes merged
    /// key-ordered (per-path stats summed), eviction counts summed.
    /// Byte-identical output for any lane interleaving of the same
    /// simulated execution.
    pub fn profile_report(&self) -> Option<ProfileReport> {
        if !self.profile_enabled() {
            return None;
        }
        let mut frames: BTreeMap<String, FrameStat> = BTreeMap::new();
        let mut evicted = 0u64;
        for lane in self.lanes.iter() {
            let guard = lane.profile.lock().unwrap_or_else(|e| e.into_inner());
            if let Some(p) = guard.as_ref() {
                evicted += p.evicted;
                for (path, st) in &p.frames {
                    let e = frames.entry(path.clone()).or_default();
                    e.calls += st.calls;
                    e.wall_ns += st.wall_ns;
                }
            }
        }
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

/// Shape summary returned by [`validate_folded`], in the style of
/// [`crate::TimeSeriesCsvSummary`].
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

/// Validates a collapsed-flamegraph artifact: every line must be
/// `frame(;frame)* value` with a `u64` value and no empty frames, lines
/// must be strictly sorted by stack (so the artifact is unique and
/// canonical), and re-emitting the parse must reproduce the input
/// byte-for-byte.
pub fn validate_folded(text: &str) -> Result<FoldedSummary, String> {
    if text.is_empty() {
        return Err("folded artifact is empty".into());
    }
    let mut summary = FoldedSummary::default();
    let mut prev_stack: Option<&str> = None;
    let mut roots: Vec<&str> = Vec::new();
    let mut canonical = String::with_capacity(text.len());
    for (i, line) in text.lines().enumerate() {
        let n = i + 1;
        let Some((stack, value)) = line.rsplit_once(' ') else {
            return Err(format!("line {n}: no `stack value` separator"));
        };
        let value: u64 = value
            .parse()
            .map_err(|_| format!("line {n}: value {value:?} is not a u64"))?;
        if stack.is_empty() {
            return Err(format!("line {n}: empty stack"));
        }
        if stack.contains(' ') {
            return Err(format!(
                "line {n}: stack {stack:?} contains a space (the value separator)"
            ));
        }
        let frames: Vec<&str> = stack.split(';').collect();
        if frames.iter().any(|f| f.is_empty()) {
            return Err(format!("line {n}: empty frame in {stack:?}"));
        }
        if let Some(prev) = prev_stack {
            if stack <= prev {
                return Err(format!(
                    "line {n}: stacks not strictly sorted ({prev:?} then {stack:?})"
                ));
            }
        }
        prev_stack = Some(stack);
        if !roots.contains(&frames[0]) {
            roots.push(frames[0]);
        }
        summary.lines += 1;
        summary.max_depth = summary.max_depth.max(frames.len());
        summary.total_value += value;
        canonical.push_str(stack);
        canonical.push(' ');
        canonical.push_str(&value.to_string());
        canonical.push('\n');
    }
    if summary.lines == 0 {
        return Err("folded artifact has no stack lines".into());
    }
    if canonical != text {
        return Err("canonical re-emit differs from input (non-canonical artifact)".into());
    }
    summary.roots = roots.len();
    Ok(summary)
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
    fn report_merges_lanes_key_ordered() {
        let mut reg = MetricsRegistry::new();
        reg.enable_profile(64);
        reg.set_writer_lanes(4);
        let reg = Arc::new(reg);
        for lane in 0..4 {
            crate::set_ambient_lane(lane);
            reg.profile_add("shared", 1, lane as u64 + 1);
            reg.profile_add(&format!("lane{lane}"), 1, 7);
        }
        crate::set_ambient_lane(0);
        let rep = reg.profile_report().unwrap();
        assert_eq!(rep.frames["shared"].calls, 4);
        assert_eq!(rep.frames["shared"].wall_ns, 1 + 2 + 3 + 4);
        assert_eq!(rep.frames_resident, 5);
        let keys: Vec<&String> = rep.frames.keys().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
    }

    #[test]
    fn set_writer_lanes_preserves_profiler() {
        let mut reg = MetricsRegistry::new();
        reg.enable_profile(32);
        reg.set_writer_lanes(3);
        assert!(reg.profile_enabled());
        reg.profile_add("x", 1, 1);
        let rep = reg.profile_report().unwrap();
        assert_eq!(rep.frames_resident, 1);
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
        reg.profile_add("sched;round;exec", 3, 300);
        reg.profile_add("rpc;encode", 5, 50);
        let rep = reg.profile_report().unwrap();
        let folded = profile_to_folded(&rep);
        assert_eq!(folded, "rpc;encode 50\nsched;round;exec 300\n");
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
