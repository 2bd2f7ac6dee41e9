//! Network and scheduler counters.
//!
//! Every simulation owns a [`Metrics`] instance; experiment harnesses read
//! it after a run to report message counts alongside simulated latencies.
//!
//! The snapshot type is defined in the `obs` crate (the unified
//! observability layer) and re-exported here, so the same struct flows
//! unchanged into an [`obs::RunReport`].

use std::sync::atomic::{AtomicU64, Ordering};

/// Re-export of the canonical snapshot type from the observability layer.
pub use obs::MetricsSnapshot;

/// Monotonic counters accumulated over a simulation run.
///
/// All counters use relaxed atomics: the scheduler guarantees only one
/// simulated process executes at a time, so these are effectively
/// single-threaded; atomics only make the type `Sync` for sharing.
#[derive(Debug, Default)]
pub struct Metrics {
    msgs_sent: AtomicU64,
    msgs_delivered: AtomicU64,
    msgs_dropped: AtomicU64,
    msgs_duplicated: AtomicU64,
    msgs_blackholed: AtomicU64,
    bytes_sent: AtomicU64,
    events_dispatched: AtomicU64,
    processes_spawned: AtomicU64,
    processes_live: AtomicU64,
    processes_peak: AtomicU64,
    sched_time_inversions: AtomicU64,
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    pub(crate) fn on_send(&self, bytes: usize) {
        self.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.bytes_sent.fetch_add(bytes as u64, Ordering::Relaxed);
    }

    pub(crate) fn on_deliver(&self) {
        self.msgs_delivered.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_drop(&self) {
        self.msgs_dropped.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_duplicate(&self) {
        self.msgs_duplicated.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_blackhole(&self) {
        self.msgs_blackholed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn on_event(&self) {
        self.events_dispatched.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes one process spawn and folds the live count into the peak.
    /// The peak update is a plain load/store: only the scheduler thread
    /// mutates these.
    pub(crate) fn on_proc_spawn(&self) {
        self.processes_spawned.fetch_add(1, Ordering::Relaxed);
        let live = self.processes_live.fetch_add(1, Ordering::Relaxed) + 1;
        if live > self.processes_peak.load(Ordering::Relaxed) {
            self.processes_peak.store(live, Ordering::Relaxed);
        }
    }

    pub(crate) fn on_proc_finish(&self) {
        self.processes_live.fetch_sub(1, Ordering::Relaxed);
    }

    /// Counts one scheduler time inversion — an event dispatched at a
    /// clock later than its scheduled time. Structurally zero: every
    /// event is scheduled at or after the instant that schedules it.
    pub(crate) fn on_time_inversion(&self) {
        self.sched_time_inversions.fetch_add(1, Ordering::Relaxed);
    }

    /// Copies current counter values.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            msgs_sent: self.msgs_sent.load(Ordering::Relaxed),
            msgs_delivered: self.msgs_delivered.load(Ordering::Relaxed),
            msgs_dropped: self.msgs_dropped.load(Ordering::Relaxed),
            msgs_duplicated: self.msgs_duplicated.load(Ordering::Relaxed),
            msgs_blackholed: self.msgs_blackholed.load(Ordering::Relaxed),
            bytes_sent: self.bytes_sent.load(Ordering::Relaxed),
            events_dispatched: self.events_dispatched.load(Ordering::Relaxed),
            processes_spawned: self.processes_spawned.load(Ordering::Relaxed),
            processes_peak: self.processes_peak.load(Ordering::Relaxed),
            sched_time_inversions: self.sched_time_inversions.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.on_send(10);
        m.on_send(5);
        m.on_deliver();
        m.on_drop();
        m.on_duplicate();
        m.on_blackhole();
        m.on_event();
        m.on_proc_spawn();
        m.on_proc_spawn();
        m.on_proc_finish();
        m.on_proc_spawn();
        let s = m.snapshot();
        assert_eq!(s.processes_spawned, 3);
        // live went 1, 2, 1, 2 — the peak stays at its high-water mark.
        assert_eq!(s.processes_peak, 2);
        assert_eq!(s.msgs_sent, 2);
        assert_eq!(s.bytes_sent, 15);
        assert_eq!(s.msgs_delivered, 1);
        assert_eq!(s.msgs_dropped, 1);
        assert_eq!(s.msgs_duplicated, 1);
        assert_eq!(s.msgs_blackholed, 1);
        assert_eq!(s.events_dispatched, 1);
    }

    #[test]
    fn snapshot_diff() {
        let m = Metrics::new();
        m.on_send(10);
        let before = m.snapshot();
        m.on_send(10);
        m.on_deliver();
        let diff = m.snapshot().since(&before);
        assert_eq!(diff.msgs_sent, 1);
        assert_eq!(diff.msgs_delivered, 1);
        assert_eq!(diff.bytes_sent, 10);
    }
}
