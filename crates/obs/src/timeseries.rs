//! Windowed time-series telemetry: the flight recorder's storage layer.
//!
//! Aggregate histograms answer "how slow was the run"; they cannot
//! answer "when did throughput dip" or "did the retransmit storm line up
//! with the partition window". A [`TimeSeries`] chops simulated time
//! into fixed-width windows and accumulates three primitive shapes into
//! the window each sample lands in:
//!
//! * **counters** — monotonic deltas (calls completed, retransmissions,
//!   cache hits, bytes on a link),
//! * **gauges** — instantaneous levels sampled at transition points
//!   (calls in flight, queue depth, scheduler heap depth),
//! * **histograms** — full distributions per window (per-service
//!   latency, scheduler lag), reusing the log₂-bucket [`Histogram`].
//!
//! The store is a bounded ring: when more than `capacity` windows have
//! been touched, the oldest fall off *and are counted*, so a truncated
//! recording is never mistaken for a complete one (the same honesty
//! contract the trace ring keeps). All timestamps are simulated
//! nanoseconds, so the recording is exactly as deterministic as the
//! simulation that produced it.
//!
//! Series are free-form names; the conventions used by the workspace:
//!
//! | series                      | shape   | fed by                     |
//! |-----------------------------|---------|----------------------------|
//! | `calls_ok@<svc>`            | counter | span close (ok invokes)    |
//! | `calls_err@<svc>`           | counter | span close (failed invokes)|
//! | `latency@<svc>`             | hist    | span close (invoke dur)    |
//! | `retx@<svc>`                | counter | channel/client retransmits |
//! | `inflight@<svc>`            | gauge   | `rpc::Channel` window      |
//! | `queued@<svc>`              | gauge   | `rpc::Channel` backlog     |
//! | `cache_hit@<svc>`           | counter | caching proxy              |
//! | `cache_miss@<svc>`          | counter | caching proxy              |
//! | `link_bytes@n<a>->n<b>`     | counter | simnet send path           |
//! | `sched_lag`                 | hist    | scheduler dispatch loop    |
//! | `sched_depth`               | gauge   | scheduler event heap       |
//! | `processes_spawned`         | gauge   | simnet process spawn path  |
//! | `processes_peak`            | gauge   | simnet live high-water mark|
//!
//! A multi-domain scheduler suffixes its per-domain series with
//! `@d<domain>` (`sched_lag@d2`, `sched_depth@d0`,
//! `processes_spawned@d1`, `processes_current@d1`) so each domain's
//! stream stays deterministic regardless of how domains interleave; the
//! plain names above are the single-domain (default) spelling.

use std::collections::{BTreeMap, VecDeque};

use crate::{Histogram, OpLatency};

/// Summary of one gauge inside one window.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct GaugeStat {
    /// The last level sampled in the window.
    pub last: u64,
    /// Smallest level sampled.
    pub min: u64,
    /// Largest level sampled.
    pub max: u64,
    /// Sum of sampled levels (for a mean over `samples`).
    pub sum: u64,
    /// How many samples landed in the window.
    pub samples: u64,
}

impl GaugeStat {
    fn observe(&mut self, value: u64) {
        if self.samples == 0 {
            self.min = value;
            self.max = value;
        } else {
            self.min = self.min.min(value);
            self.max = self.max.max(value);
        }
        self.last = value;
        self.sum = self.sum.saturating_add(value);
        self.samples += 1;
    }

    /// Mean sampled level, or 0 if the window saw no samples.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.samples).unwrap_or(0)
    }

    /// Folds `other` into `self` when merging writer lanes. Extrema,
    /// sum and sample count combine exactly; `last` is taken from
    /// `other` when it has samples (lanes are absorbed in ascending
    /// lane order, so "last" deterministically means "the last sample
    /// of the highest-indexed lane that sampled this window" — an
    /// approximation, since samples of concurrent lanes have no single
    /// total order within a window).
    fn absorb(&mut self, other: &GaugeStat) {
        if other.samples == 0 {
            return;
        }
        if self.samples == 0 {
            *self = *other;
            return;
        }
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum = self.sum.saturating_add(other.sum);
        self.samples += other.samples;
        self.last = other.last;
    }
}

/// One fixed-width window of accumulated samples.
#[derive(Debug, Clone, Default)]
struct Window {
    /// Window index: the window covers `[index*width, (index+1)*width)`.
    index: u64,
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, GaugeStat>,
    hists: BTreeMap<String, Histogram>,
}

/// The bounded windowed store. Normally owned by the
/// [`MetricsRegistry`](crate::MetricsRegistry); usable standalone in
/// tests.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    width_ns: u64,
    capacity: usize,
    windows: VecDeque<Window>,
    /// Windows evicted from the front of the ring.
    evicted: u64,
    /// Samples that arrived for a window already evicted (out-of-order
    /// stragglers; structurally zero in a monotonic simulation).
    late_dropped: u64,
}

impl TimeSeries {
    /// A store with `width_ns`-wide windows keeping at most `capacity`
    /// of them. Width is clamped to ≥ 1ns, capacity to ≥ 1.
    pub fn new(width_ns: u64, capacity: usize) -> TimeSeries {
        TimeSeries {
            width_ns: width_ns.max(1),
            capacity: capacity.max(1),
            windows: VecDeque::new(),
            evicted: 0,
            late_dropped: 0,
        }
    }

    /// The configured window width.
    pub fn width_ns(&self) -> u64 {
        self.width_ns
    }

    /// The configured ring capacity (windows).
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Windows evicted so far.
    pub fn evicted(&self) -> u64 {
        self.evicted
    }

    /// Merges per-lane recordings into one store, deterministically.
    ///
    /// Windows are united by index: counters sum, histograms merge
    /// bucket-wise, gauges combine via `GaugeStat::absorb` in
    /// ascending lane order. Eviction and straggler counts sum — a
    /// window evicted from *any* lane's ring still counts as truncation
    /// even if another lane retained its copy of that window index.
    /// All lanes must share the width (enforced by the registry, which
    /// creates them together); the first lane's width is used.
    pub fn merged(lanes: &[&TimeSeries]) -> TimeSeries {
        let width_ns = lanes.first().map_or(1, |l| l.width_ns);
        let mut by_index: BTreeMap<u64, Window> = BTreeMap::new();
        let mut evicted = 0u64;
        let mut late_dropped = 0u64;
        for lane in lanes {
            debug_assert_eq!(lane.width_ns, width_ns, "lanes share a window width");
            evicted += lane.evicted;
            late_dropped += lane.late_dropped;
            for w in &lane.windows {
                let merged = by_index.entry(w.index).or_insert_with(|| Window {
                    index: w.index,
                    ..Window::default()
                });
                for (name, delta) in &w.counters {
                    *merged.counters.entry(name.clone()).or_insert(0) += delta;
                }
                for (name, g) in &w.gauges {
                    merged.gauges.entry(name.clone()).or_default().absorb(g);
                }
                for (name, h) in &w.hists {
                    merged.hists.entry(name.clone()).or_default().merge(h);
                }
            }
        }
        let windows: VecDeque<Window> = by_index.into_values().collect();
        TimeSeries {
            width_ns,
            capacity: windows.len().max(1),
            windows,
            evicted,
            late_dropped,
        }
    }

    /// The window covering `at_ns`, creating (and possibly evicting) as
    /// needed. Windows are kept sparse: an index with no samples is
    /// never materialized.
    fn window_mut(&mut self, at_ns: u64) -> Option<&mut Window> {
        let index = at_ns / self.width_ns;
        // Samples arrive in non-decreasing sim time, so the match is
        // almost always the back window; scan backwards for the rare
        // same-instant straggler.
        match self.windows.back() {
            Some(back) if back.index == index => {}
            Some(back) if back.index > index => {
                // Out-of-order sample: find its window if it still
                // exists, count it as dropped if it was evicted.
                return match self.windows.iter_mut().rev().find(|w| w.index <= index) {
                    Some(w) if w.index == index => Some(w),
                    _ => {
                        self.late_dropped += 1;
                        None
                    }
                };
            }
            _ => {
                self.windows.push_back(Window {
                    index,
                    ..Window::default()
                });
                if self.windows.len() > self.capacity {
                    self.windows.pop_front();
                    self.evicted += 1;
                }
            }
        }
        self.windows.back_mut()
    }

    /// Adds `delta` to counter `series` in the window covering `at_ns`.
    pub fn add(&mut self, at_ns: u64, series: &str, delta: u64) {
        if let Some(w) = self.window_mut(at_ns) {
            *w.counters.entry(series.to_owned()).or_insert(0) += delta;
        }
    }

    /// Samples gauge `series` at level `value` in the window covering
    /// `at_ns`.
    pub fn gauge(&mut self, at_ns: u64, series: &str, value: u64) {
        if let Some(w) = self.window_mut(at_ns) {
            w.gauges
                .entry(series.to_owned())
                .or_default()
                .observe(value);
        }
    }

    /// Records `value` into histogram `series` in the window covering
    /// `at_ns`.
    pub fn observe(&mut self, at_ns: u64, series: &str, value: u64) {
        if let Some(w) = self.window_mut(at_ns) {
            w.hists.entry(series.to_owned()).or_default().record(value);
        }
    }

    /// Snapshots the ring into a serializable report.
    pub fn report(&self) -> TimeSeriesReport {
        TimeSeriesReport {
            width_ns: self.width_ns,
            windows_evicted: self.evicted,
            late_dropped: self.late_dropped,
            windows: self
                .windows
                .iter()
                .map(|w| WindowReport {
                    start_ns: w.index * self.width_ns,
                    counters: w.counters.clone(),
                    gauges: w.gauges.clone(),
                    hists: w
                        .hists
                        .iter()
                        .map(|(k, h)| (k.clone(), h.summary()))
                        .collect(),
                })
                .collect(),
        }
    }
}

/// One exported window: everything that landed in
/// `[start_ns, start_ns + width_ns)`.
#[derive(Debug, Clone, Default)]
pub struct WindowReport {
    /// Window start (simulated nanoseconds).
    pub start_ns: u64,
    /// Counter totals for the window.
    pub counters: BTreeMap<String, u64>,
    /// Gauge summaries for the window.
    pub gauges: BTreeMap<String, GaugeStat>,
    /// Histogram summaries for the window.
    pub hists: BTreeMap<String, OpLatency>,
}

/// The exported flight recording: a run's windows in time order.
#[derive(Debug, Clone, Default)]
pub struct TimeSeriesReport {
    /// Window width (simulated nanoseconds).
    pub width_ns: u64,
    /// Windows the bounded ring evicted (0 = recording is complete).
    pub windows_evicted: u64,
    /// Samples dropped because their window was already evicted.
    pub late_dropped: u64,
    /// Surviving windows, oldest first.
    pub windows: Vec<WindowReport>,
}

impl TimeSeriesReport {
    /// Sums counter `series` across every surviving window.
    pub fn counter_total(&self, series: &str) -> u64 {
        self.windows
            .iter()
            .filter_map(|w| w.counters.get(series))
            .sum()
    }

    /// Largest `max` seen for histogram `series` across windows.
    pub fn hist_max(&self, series: &str) -> u64 {
        self.windows
            .iter()
            .filter_map(|w| w.hists.get(series))
            .map(|h| h.max_ns)
            .max()
            .unwrap_or(0)
    }

    /// The sorted set of series names appearing anywhere in the recording.
    pub fn series_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .windows
            .iter()
            .flat_map(|w| {
                w.counters
                    .keys()
                    .chain(w.gauges.keys())
                    .chain(w.hists.keys())
            })
            .cloned()
            .collect();
        names.sort();
        names.dedup();
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_land_in_their_windows() {
        let mut ts = TimeSeries::new(1_000, 64);
        ts.add(0, "calls", 1);
        ts.add(999, "calls", 1);
        ts.add(1_000, "calls", 1);
        ts.gauge(500, "depth", 4);
        ts.gauge(600, "depth", 2);
        ts.observe(2_500, "lat", 42);
        let r = ts.report();
        assert_eq!(r.windows.len(), 3);
        assert_eq!(r.windows[0].start_ns, 0);
        assert_eq!(r.windows[0].counters["calls"], 2);
        assert_eq!(r.windows[1].start_ns, 1_000);
        assert_eq!(r.windows[1].counters["calls"], 1);
        let g = r.windows[0].gauges["depth"];
        assert_eq!((g.min, g.max, g.last, g.samples), (2, 4, 2, 2));
        assert_eq!(g.mean(), 3);
        assert_eq!(r.windows[2].hists["lat"].max_ns, 42);
        assert_eq!(r.counter_total("calls"), 3);
    }

    #[test]
    fn ring_evicts_and_counts() {
        let mut ts = TimeSeries::new(100, 2);
        for i in 0..5u64 {
            ts.add(i * 100, "c", 1);
        }
        let r = ts.report();
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows_evicted, 3);
        assert_eq!(r.windows[0].start_ns, 300);
        // A straggler for an evicted window is counted, not resurrected.
        let mut ts2 = TimeSeries::new(100, 2);
        ts2.add(0, "c", 1);
        ts2.add(100, "c", 1);
        ts2.add(200, "c", 1); // evicts window 0
        ts2.add(50, "c", 1); // straggler for the evicted window
        let r2 = ts2.report();
        assert_eq!(r2.late_dropped, 1);
        assert_eq!(r2.counter_total("c"), 2);
    }

    #[test]
    fn sparse_windows_skip_quiet_time() {
        let mut ts = TimeSeries::new(1_000, 64);
        ts.add(0, "c", 1);
        ts.add(10_000, "c", 1);
        let r = ts.report();
        assert_eq!(r.windows.len(), 2, "no windows materialized for the gap");
        assert_eq!(r.windows[1].start_ns, 10_000);
    }

    #[test]
    fn same_instant_straggler_finds_live_window() {
        let mut ts = TimeSeries::new(1_000, 8);
        ts.add(1_500, "a", 1);
        ts.add(2_500, "a", 1);
        // A sample for the previous (still live) window.
        ts.add(1_600, "a", 1);
        let r = ts.report();
        assert_eq!(r.windows[0].counters["a"], 2);
        assert_eq!(r.late_dropped, 0);
    }

    #[test]
    fn series_names_are_sorted_and_deduped() {
        let mut ts = TimeSeries::new(1_000, 8);
        ts.add(0, "b", 1);
        ts.gauge(0, "a", 1);
        ts.observe(1_500, "b", 1);
        assert_eq!(ts.report().series_names(), vec!["a", "b"]);
    }

    #[test]
    fn lane_merge_unites_windows_deterministically() {
        let mut a = TimeSeries::new(1_000, 8);
        let mut b = TimeSeries::new(1_000, 8);
        a.add(100, "c", 1);
        a.gauge(150, "g", 4);
        a.observe(200, "h", 10);
        b.add(120, "c", 2);
        b.gauge(160, "g", 8);
        b.add(1_500, "c", 5);
        let r = TimeSeries::merged(&[&a, &b]).report();
        assert_eq!(r.windows.len(), 2);
        assert_eq!(r.windows[0].counters["c"], 3);
        let g = r.windows[0].gauges["g"];
        assert_eq!((g.min, g.max, g.sum, g.samples), (4, 8, 12, 2));
        assert_eq!(g.last, 8, "highest lane's last sample wins");
        assert_eq!(r.windows[0].hists["h"].count, 1);
        assert_eq!(r.windows[1].start_ns, 1_000);
        assert_eq!(r.windows[1].counters["c"], 5);
        // Merging a single lane reproduces its own report.
        assert_eq!(
            TimeSeries::merged(&[&a]).report().windows.len(),
            a.report().windows.len()
        );
    }

    #[test]
    fn zero_width_clamps() {
        let mut ts = TimeSeries::new(0, 0);
        ts.add(5, "c", 1);
        let r = ts.report();
        assert_eq!(r.width_ns, 1);
        assert_eq!(r.windows[0].start_ns, 5);
    }
}
