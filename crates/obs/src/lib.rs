//! Unified observability layer for proxide.
//!
//! This crate is the single home for everything the workspace measures:
//!
//! * **Causal call spans** — a [`SpanId`] is allocated when a proxy
//!   invocation starts, travels inside the RPC packet header, and is
//!   stamped onto server dispatches, retransmissions, one-way
//!   notifications and replies. Spans let a test assert end-to-end
//!   causality: every reply correlates with a span that was opened by a
//!   client, and every retransmission shares the span of its original
//!   request.
//! * **Latency histograms** — a dependency-free log₂-bucket
//!   [`Histogram`] records per-service/per-op invocation latency in
//!   simulated time and answers p50/p95/p99 queries.
//! * **A single [`MetricsRegistry`]** — the network counters
//!   ([`MetricsSnapshot`]), RPC counters ([`CallStats`], [`ServeStats`])
//!   and proxy/server counters ([`ProxyStats`], [`ServerStats`]) all
//!   land in one registry, which renders them as one serializable
//!   [`RunReport`].
//!
//! The counter structs are *defined* here and re-exported by the crates
//! that populate them (`simnet`, `rpc`, `proxy-core`), so a report is a
//! plain aggregate with no cross-crate mirroring.
//!
//! On top of the registry sits the **causal trace pipeline**: the
//! simulator feeds span records and network events (in the neutral
//! [`NetEvent`] form) into a [`TraceSink`], which merges them into one
//! time-ordered [`CausalTrace`]; [`export`] renders it as Chrome Trace
//! Format JSON or a JSONL log, and [`analysis`] decomposes every
//! request into queueing/wire/server/retransmit components.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, RwLock};

pub mod analysis;
pub mod export;
pub mod json;
pub mod profile;
mod spans;
pub mod timeseries;
pub mod trace;

pub use analysis::{critical_paths, link_attribution, top_k_slowest, CriticalPath, LinkStats};
pub use export::{
    from_jsonl, to_chrome_json, to_jsonl, validate_chrome, validate_report, ChromeSummary,
};
pub use profile::{
    profile_to_folded, scope, set_ambient_profiler, swap_open_frames, validate_folded,
    FoldedSummary, FrameStat, ProfileReport, ScopeGuard,
};
pub use spans::{ReplyKind, SpanId, SpanKind, SpanRecord, SPAN_PAGE_BYTES, SPAN_SLOT_BYTES};
pub use timeseries::{GaugeStat, TimeSeries, TimeSeriesReport, WindowReport};
pub use trace::{CausalEvent, CausalTrace, Loc, NetEvent, NetEventKind, TraceSink};

use json::{json_model, Json, JsonModel};

// ---------------------------------------------------------------------------
// Counter structs (canonical definitions, re-exported by their producers)
// ---------------------------------------------------------------------------

/// Counters maintained by the network simulator.
///
/// Produced by `simnet::Metrics::snapshot`; a [`RunReport`] embeds the
/// snapshot taken when the report was built.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Messages handed to the network.
    pub msgs_sent: u64,
    /// Messages delivered to a mailbox.
    pub msgs_delivered: u64,
    /// Messages dropped by loss or partitions.
    pub msgs_dropped: u64,
    /// Extra deliveries injected by duplication.
    pub msgs_duplicated: u64,
    /// Messages silently discarded by a blackhole rule.
    pub msgs_blackholed: u64,
    /// Total payload bytes handed to the network.
    pub bytes_sent: u64,
    /// Scheduler events dispatched.
    pub events_dispatched: u64,
    /// Simulated processes spawned over the run (threads and poll-driven
    /// state machines alike).
    pub processes_spawned: u64,
    /// High-water mark of simultaneously live processes — the number
    /// backing E16's memory-boundedness claim (peak × per-process state).
    ///
    /// This is a **gauge**, not a counter: [`MetricsSnapshot::since`]
    /// carries the later snapshot's level through instead of diffing it.
    pub processes_peak: u64,
    /// Events popped with a timestamp behind the scheduler's clock. A
    /// scheduler that respects causality never produces one; any nonzero
    /// value means a bug reordered the heap and the run's timing data is
    /// suspect.
    pub sched_time_inversions: u64,
}

impl MetricsSnapshot {
    /// Difference between two snapshots (`self` minus the `earlier` one),
    /// saturating at zero per counter field. Gauge fields are not
    /// differences: `processes_peak` reports the later snapshot's level
    /// (the peak *as of* the window's end), because diffing a
    /// high-water mark like a counter yields 0 for any window where the
    /// peak did not rise.
    ///
    /// Destructures exhaustively so that adding a counter to the struct
    /// is a compile error here until the diff handles it too.
    pub fn since(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let MetricsSnapshot {
            msgs_sent,
            msgs_delivered,
            msgs_dropped,
            msgs_duplicated,
            msgs_blackholed,
            bytes_sent,
            events_dispatched,
            processes_spawned,
            processes_peak,
            sched_time_inversions,
        } = *self;
        let MetricsSnapshot {
            msgs_sent: e_sent,
            msgs_delivered: e_delivered,
            msgs_dropped: e_dropped,
            msgs_duplicated: e_duplicated,
            msgs_blackholed: e_blackholed,
            bytes_sent: e_bytes,
            events_dispatched: e_events,
            processes_spawned: e_spawned,
            processes_peak: _,
            sched_time_inversions: e_inversions,
        } = *earlier;
        MetricsSnapshot {
            msgs_sent: msgs_sent.saturating_sub(e_sent),
            msgs_delivered: msgs_delivered.saturating_sub(e_delivered),
            msgs_dropped: msgs_dropped.saturating_sub(e_dropped),
            msgs_duplicated: msgs_duplicated.saturating_sub(e_duplicated),
            msgs_blackholed: msgs_blackholed.saturating_sub(e_blackholed),
            bytes_sent: bytes_sent.saturating_sub(e_bytes),
            events_dispatched: events_dispatched.saturating_sub(e_events),
            processes_spawned: processes_spawned.saturating_sub(e_spawned),
            // Gauge: the peak as of the later snapshot, not a diff.
            processes_peak,
            sched_time_inversions: sched_time_inversions.saturating_sub(e_inversions),
        }
    }
}

/// Client-side RPC counters (at-most-once caller), summed over every
/// client channel by the registry. A channel counts its own in
/// `rpc::ChannelStats`; nothing keeps a copy of this per client.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CallStats {
    /// Calls issued.
    pub calls: u64,
    /// Retransmissions (attempts beyond the first).
    pub retries: u64,
    /// Calls that exhausted every attempt.
    pub timeouts: u64,
    /// Replies that matched an already-completed call id.
    pub stale_replies: u64,
    /// Non-reply packets discarded while waiting.
    pub strays_dropped: u64,
}

impl CallStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &CallStats) {
        let CallStats {
            calls,
            retries,
            timeouts,
            stale_replies,
            strays_dropped,
        } = *other;
        self.calls += calls;
        self.retries += retries;
        self.timeouts += timeouts;
        self.stale_replies += stale_replies;
        self.strays_dropped += strays_dropped;
    }
}

/// Server-side RPC counters (at-most-once executor).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Requests executed for the first time.
    pub executed: u64,
    /// Duplicate requests answered from the reply cache.
    pub duplicates_suppressed: u64,
    /// Duplicate requests dropped (already acknowledged).
    pub duplicates_dropped: u64,
    /// One-way messages received.
    pub oneways: u64,
    /// Packets that failed to decode.
    pub undecodable: u64,
}

impl ServeStats {
    /// Field-wise sum.
    pub fn merge(&mut self, other: &ServeStats) {
        let ServeStats {
            executed,
            duplicates_suppressed,
            duplicates_dropped,
            oneways,
            undecodable,
        } = *other;
        self.executed += executed;
        self.duplicates_suppressed += duplicates_suppressed;
        self.duplicates_dropped += duplicates_dropped;
        self.oneways += oneways;
        self.undecodable += undecodable;
    }
}

/// Per-proxy counters maintained by the client runtime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProxyStats {
    /// Invocations routed through the proxy.
    pub invocations: u64,
    /// Invocations satisfied locally (cache hit, checked-out object...).
    pub local_hits: u64,
    /// Invocations that crossed the network.
    pub remote_calls: u64,
    /// Invalidation notifications received.
    pub invalidations_rx: u64,
    /// Times the object migrated to this client.
    pub migrations: u64,
    /// Times the object was checked back in.
    pub checkins: u64,
    /// Times the proxy re-bound after losing its server.
    pub rebinds: u64,
    /// Times an adaptive proxy switched strategy.
    pub strategy_switches: u64,
    /// Datagrams the proxy received but could not service (callback
    /// requests, late duplicate replies, undecodable frames). Non-zero
    /// values flag traffic that used to vanish silently.
    pub datagrams_discarded: u64,
    /// Payloads the bulk data plane spilled to a blob store and shipped
    /// by reference instead of inline on the RPC path.
    pub bulk_spills: u64,
    /// Out-of-band references the proxy resolved (fetched chunked from a
    /// blob store) on behalf of its client.
    pub bulk_resolves: u64,
}

/// Per-service counters maintained by the service server.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Operations dispatched to the service object.
    pub dispatched: u64,
    /// Dispatches that mutated state.
    pub writes: u64,
    /// Invalidation notifications sent to subscribers.
    pub invalidations_sent: u64,
    /// Successful checkouts (migrations away).
    pub checkouts: u64,
    /// Successful checkins (migrations back).
    pub checkins: u64,
    /// Recall notifications sent to the current holder.
    pub recalls_sent: u64,
    /// Requests refused because the object was checked out.
    pub unavailable: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
}

// ---------------------------------------------------------------------------
// Log2-bucket histogram
// ---------------------------------------------------------------------------

/// Number of buckets: bucket `i` holds values whose bit length is `i`,
/// i.e. value 0 in bucket 0, values `[2^(i-1), 2^i)` in bucket `i`.
const BUCKETS: usize = 65;

/// A fixed-size log₂-bucket histogram of `u64` samples.
///
/// Recording is O(1) and allocation-free after construction; percentile
/// queries interpolate linearly inside the winning bucket, which keeps
/// the error within the bucket's factor-of-two width. That resolution is
/// plenty for latency distributions where the interesting differences
/// are multiples, not percents.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: vec![0; BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket_of(value: u64) -> usize {
        (64 - value.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, value: u64) {
        self.buckets[Self::bucket_of(value)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of recorded samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest recorded sample, or 0 if empty.
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest recorded sample, or 0 if empty.
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Mean of recorded samples, or 0 if empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// Value at quantile `q` in `[0, 1]`, linearly interpolated inside
    /// the winning log₂ bucket and clamped to the observed min/max.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the sample we want, 1-based.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        // The top-ranked sample IS the observed maximum; interpolation
        // inside the winning bucket would undershoot it (it estimates
        // the bucket's (n-1)/n position, never the upper edge).
        if rank >= self.count {
            return self.max;
        }
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let lo = if i == 0 { 0 } else { 1u64 << (i - 1) };
                let hi = if i == 0 {
                    0
                } else {
                    (1u64 << (i - 1)).saturating_mul(2).saturating_sub(1)
                };
                // Position of the wanted rank inside this bucket.
                let within = (rank - seen - 1) as f64 / n as f64;
                let est = lo as f64 + within * (hi.saturating_sub(lo)) as f64;
                return (est as u64).clamp(self.min(), self.max);
            }
            seen += n;
        }
        self.max
    }

    /// Median estimate.
    pub fn p50(&self) -> u64 {
        self.quantile(0.50)
    }

    /// 95th percentile estimate.
    pub fn p95(&self) -> u64 {
        self.quantile(0.95)
    }

    /// 99th percentile estimate.
    pub fn p99(&self) -> u64 {
        self.quantile(0.99)
    }

    /// Adds every sample of `other` into `self`.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Summarizes the histogram for a report.
    pub fn summary(&self) -> OpLatency {
        OpLatency {
            count: self.count(),
            min_ns: self.min(),
            max_ns: self.max(),
            mean_ns: self.mean(),
            p50_ns: self.p50(),
            p95_ns: self.p95(),
            p99_ns: self.p99(),
        }
    }
}

/// Latency summary for one `(service, op)` pair, in simulated nanoseconds.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpLatency {
    /// Samples recorded.
    pub count: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Mean.
    pub mean_ns: u64,
    /// Median estimate.
    pub p50_ns: u64,
    /// 95th percentile estimate.
    pub p95_ns: u64,
    /// 99th percentile estimate.
    pub p99_ns: u64,
}

// ---------------------------------------------------------------------------
// Slow-call watchdog
// ---------------------------------------------------------------------------

/// Configuration of the slow-call watchdog.
///
/// When enabled, every closing `Invoke` span is compared against a
/// threshold and pinned as an [`Exemplar`] when it exceeds it. The
/// threshold is the *lower* of the two triggers that apply:
///
/// * `multiplier × rolling p99` of the span's `(service, op)` histogram,
///   armed only once the histogram holds at least `min_samples` samples
///   (the p99 of three calls is noise, not a baseline);
/// * an absolute SLO in nanoseconds, if one is set.
///
/// The rolling p99 is computed *before* the closing span's own sample is
/// recorded, so an outlier cannot raise the bar it is judged against.
#[derive(Debug, Clone, Copy)]
pub struct WatchdogConfig {
    /// Trigger factor over the rolling p99 (e.g. 3.0).
    pub multiplier: f64,
    /// Absolute latency SLO in nanoseconds, if any.
    pub slo_ns: Option<u64>,
    /// Samples the `(service, op)` histogram must hold before the
    /// relative trigger arms.
    pub min_samples: u64,
    /// Exemplar capacity; once full, further slow calls only bump
    /// [`RunReport::exemplars_suppressed`].
    pub max_exemplars: usize,
}

impl Default for WatchdogConfig {
    fn default() -> Self {
        WatchdogConfig {
            multiplier: 3.0,
            slo_ns: None,
            min_samples: 32,
            max_exemplars: 16,
        }
    }
}

/// Queue/wire/server/retransmit decomposition of an exemplar's span,
/// copied from [`analysis::critical_paths`]. The four components tile
/// the span exactly: they sum to the exemplar's `latency_ns`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExemplarBreakdown {
    /// Time spent queued client-side before hitting the wire.
    pub queue_ns: u64,
    /// Time on the wire (requests and replies).
    pub wire_ns: u64,
    /// Time executing server-side.
    pub server_ns: u64,
    /// Time lost to retransmission gaps.
    pub retransmit_ns: u64,
    /// Retransmissions on the span's critical path.
    pub retransmissions: u64,
    /// Datagram drops attributed to the span.
    pub drops: u64,
}

/// One slow call pinned by the watchdog: the span, why it tripped, and
/// (once [`RunReport::attach_exemplars`] has run) where the time went.
#[derive(Debug, Clone)]
pub struct Exemplar {
    /// The offending invoke span.
    pub span: SpanId,
    /// Service the call targeted.
    pub service: String,
    /// Operation invoked.
    pub op: String,
    /// When the call started (simulated nanoseconds).
    pub start_ns: u64,
    /// Observed end-to-end latency.
    pub latency_ns: u64,
    /// The threshold the call exceeded.
    pub threshold_ns: u64,
    /// Rolling p99 at trip time (0 if the relative trigger was unarmed).
    pub p99_ns: u64,
    /// Which trigger tripped: `"p99"` or `"slo"`.
    pub trigger: &'static str,
    /// Whether the call ultimately succeeded.
    pub ok: bool,
    /// Causal decomposition; `None` until attached from a trace.
    pub breakdown: Option<ExemplarBreakdown>,
}

/// Provenance of a run, stamped into [`RunReport`] and `BENCH_*.json`
/// artifacts so tooling can refuse to compare incomparable runs.
/// Everything is optional: fields the harness cannot know stay absent
/// rather than inventing values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunMeta {
    /// RNG seed the simulation ran with.
    pub seed: Option<u64>,
    /// Workload mode label (e.g. `"full"` / `"smoke"`).
    pub mode: Option<String>,
    /// Hash of the workload configuration.
    pub config_hash: Option<String>,
    /// Git revision of the tree, when available.
    pub git_rev: Option<String>,
    /// ISO date supplied by the harness, when available.
    pub date: Option<String>,
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

/// Per-`(service, op)` fold of retired spans.
///
/// When span retirement is on ([`MetricsRegistry::enable_retirement`]),
/// a closed span is evicted from the table and everything the report
/// still needs from it lands here, so the totals in [`SpanReport`] are
/// exact even though the records themselves are gone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct RetiredAgg {
    /// Invoke spans folded in.
    invokes: u64,
    /// Dispatch spans folded in.
    dispatches: u64,
    /// One-way spans folded in.
    oneways: u64,
    /// Retransmissions the folded spans had accumulated at close time.
    retransmissions: u64,
}

/// What the closing spans have recorded, indexed by interned
/// `(service, op)` key: the latency histograms the watchdog judges
/// against, the folds of retired spans, and the exemplars the watchdog
/// pinned. Kept under the span-slab lock, so a close takes one lock.
#[derive(Debug, Default)]
pub(crate) struct KeyStats {
    /// Per-key latency histograms; `None` until a sample lands.
    hists: Vec<Option<Histogram>>,
    /// Per-key folds of retired spans.
    retired: Vec<RetiredAgg>,
    /// Slow calls the watchdog pinned, in close order.
    exemplars: Vec<Exemplar>,
    /// Slow calls seen after the exemplar buffer filled.
    exemplars_suppressed: u64,
}

impl KeyStats {
    /// The histogram of `key`, created empty on first use.
    fn hist(&mut self, key: u32) -> &mut Histogram {
        let i = key as usize;
        if self.hists.len() <= i {
            self.hists.resize_with(i + 1, || None);
        }
        self.hists[i].get_or_insert_with(Histogram::new)
    }

    /// The retired-span fold of `key`.
    fn retired(&mut self, key: u32) -> &mut RetiredAgg {
        let i = key as usize;
        if self.retired.len() <= i {
            self.retired.resize(i + 1, RetiredAgg::default());
        }
        &mut self.retired[i]
    }
}

/// The hot RPC counters. Every field is a relaxed atomic because the
/// counters are pure sums with no cross-field invariants.
#[derive(Debug, Default)]
struct Counters {
    calls: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    stale_replies: AtomicU64,
    strays_dropped: AtomicU64,
    executed: AtomicU64,
    duplicates_suppressed: AtomicU64,
    duplicates_dropped: AtomicU64,
    oneways: AtomicU64,
    undecodable: AtomicU64,
    replies_matched: AtomicU64,
    replies_late: AtomicU64,
    replies_unknown_span: AtomicU64,
    replies_untracked: AtomicU64,
}

/// Cold, rarely-written registry state behind a single mutex: published
/// snapshots, the watchdog's configuration and run provenance.
#[derive(Debug, Default)]
struct MiscInner {
    /// Last published per-proxy stats, keyed `service@owner`.
    proxies: BTreeMap<String, ProxyStats>,
    /// Last published per-service server stats, keyed by service name.
    servers: BTreeMap<String, ServerStats>,
    /// Scratch for composing a `proxies` key without allocating.
    key_buf: String,
    /// Slow-call watchdog, when enabled.
    watchdog: Option<WatchdogConfig>,
    /// Run provenance stamped by the harness.
    meta: RunMeta,
}

/// Self-measurement of the observability plane: what the plane itself
/// costs, reported as first-class gauges inside the report it produces.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ObsPlaneReport {
    /// Closed spans folded into per-`(service, op)` aggregates and
    /// evicted from the span table.
    pub spans_retired: u64,
    /// Closed spans the retirement sampler kept resident (exemplars for
    /// the flight recorder and critical-path analysis).
    pub spans_sampled: u64,
    /// Spans resident in the table at report time (open + sampled).
    pub spans_resident: u64,
    /// High-water mark of resident spans over the run.
    pub spans_resident_peak: u64,
    /// Bytes the span table's slabs hold at report time: one
    /// [`SPAN_PAGE_BYTES`] page per live slab page (a page of
    /// [`SPAN_SLOT_BYTES`] slots is freed once every slot in it has been
    /// allocated and retired) plus one slot per kept exemplar. It
    /// follows from the run's span calls alone, so it is deterministic.
    /// The `(service, op)` name table is not counted.
    pub span_table_bytes: u64,
    /// High-water mark of `span_table_bytes`.
    pub span_table_bytes_peak: u64,
    /// Wall-clock nanoseconds spent inside registry calls while
    /// self-measurement was on (0 when it never was).
    pub self_ns: u64,
    /// Registry calls timed by self-measurement.
    pub self_calls: u64,
}

/// FNV-1a over a `(service, op)` key, for interning.
fn key_hash(service: &str, op: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    eat(service.as_bytes());
    eat(&[0xff]);
    eat(op.as_bytes());
    h
}

/// The process-wide sink for spans, histograms and counters.
///
/// One registry is shared by every process of a simulation (it hangs off
/// the scheduler's shared state), so a single [`RunReport`] covers the
/// whole run. All methods take `&self`; interior mutability keeps the
/// call sites free of plumbing.
///
/// The span records live in a slab of fixed-size slots, their
/// `(service, op)` names interned once into `u32` keys, beside the
/// per-key statistics the closing spans recorded (histograms,
/// retirement folds, the watchdog's exemplars), so a million-client run
/// can leave the registry on.
#[derive(Debug)]
pub struct MetricsRegistry {
    /// Mirrors "the flight recorder is on" so hot paths can skip the
    /// recorder's lock (and the series-name formatting feeding it) with
    /// a single relaxed load when the recorder is off.
    ts_enabled: AtomicBool,
    /// Mirrors `misc.watchdog.is_some()` for the same reason.
    wd_enabled: AtomicBool,
    /// Master switch: when off the whole plane is inert — `open_span`
    /// returns [`SpanId::NONE`] and every recording call is a no-op.
    enabled: AtomicBool,
    // -- retirement --
    retire_enabled: AtomicBool,
    /// Keep every nth closed span resident (0 = keep none).
    retire_keep_every: AtomicU64,
    // -- self-measurement --
    sm_enabled: AtomicBool,
    self_ns: AtomicU64,
    self_calls: AtomicU64,
    // -- continuous profiler (see [`profile`]) --
    /// Mirrors "the profiler is on" for the hot-path relaxed-load check
    /// ([`MetricsRegistry::profile_enabled`]), like `ts_enabled`.
    prof_enabled: AtomicBool,
    /// Wall time the profiler spent folding (its own overhead).
    prof_self_ns: AtomicU64,
    prof_self_calls: AtomicU64,
    /// The spans opened so far, with the retirement sampler, the
    /// residency gauges and the per-key statistics of the closed ones.
    spans: Mutex<spans::SpanSlab>,
    counters: Counters,
    /// The flight recorder, when enabled.
    timeseries: Mutex<Option<TimeSeries>>,
    /// The continuous profiler's folded-stack table, when enabled.
    profile: Mutex<Option<profile::FrameTable>>,
    /// Interned `(service, op)` names; read-mostly.
    keys: RwLock<spans::KeyTable>,
    misc: Mutex<MiscInner>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl Drop for MetricsRegistry {
    fn drop(&mut self) {
        // Keep the process-wide "any profiler armed" fast-path count
        // balanced when an armed registry goes away (see `profile`).
        if self.prof_enabled.load(Ordering::Relaxed) {
            profile::active_dec();
        }
    }
}

impl MetricsRegistry {
    /// A fresh registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            ts_enabled: AtomicBool::new(false),
            wd_enabled: AtomicBool::new(false),
            enabled: AtomicBool::new(true),
            retire_enabled: AtomicBool::new(false),
            retire_keep_every: AtomicU64::new(0),
            sm_enabled: AtomicBool::new(false),
            self_ns: AtomicU64::new(0),
            self_calls: AtomicU64::new(0),
            prof_enabled: AtomicBool::new(false),
            prof_self_ns: AtomicU64::new(0),
            prof_self_calls: AtomicU64::new(0),
            spans: Mutex::default(),
            counters: Counters::default(),
            timeseries: Mutex::default(),
            profile: Mutex::default(),
            keys: RwLock::default(),
            misc: Mutex::new(MiscInner::default()),
        }
    }

    #[inline]
    fn on(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    fn keys(&self) -> std::sync::RwLockReadGuard<'_, spans::KeyTable> {
        self.keys.read().unwrap_or_else(|e| e.into_inner())
    }

    fn misc(&self) -> std::sync::MutexGuard<'_, MiscInner> {
        self.misc.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[inline]
    fn sm_start(&self) -> Option<std::time::Instant> {
        if self.sm_enabled.load(Ordering::Relaxed) {
            Some(std::time::Instant::now())
        } else {
            None
        }
    }

    #[inline]
    fn sm_end(&self, t0: Option<std::time::Instant>) {
        if let Some(t0) = t0 {
            let ns = t0.elapsed().as_nanos() as u64;
            self.self_ns.fetch_add(ns, Ordering::Relaxed);
            self.self_calls.fetch_add(1, Ordering::Relaxed);
            // Piggyback the already-measured duration into the profiler
            // (zero extra clock reads for the measured section itself).
            if self.profile_enabled() {
                self.prof_fold("obs;self_measure", 1, ns);
            }
        }
    }

    // -- switches ----------------------------------------------------------

    /// Master switch for the whole plane. When off, `open_span` returns
    /// [`SpanId::NONE`] (which makes every downstream span call a no-op)
    /// and counters stop accumulating — the obs-off leg of overhead
    /// experiments. On by default.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Arms span retirement: closed `Invoke`/`Dispatch`/`Oneway` spans
    /// fold into per-`(service, op)` aggregates and are evicted from the
    /// table, keeping the resident working set O(open spans + sampled
    /// exemplars) instead of O(total calls). `keep_every = n` keeps
    /// every nth closed span resident as a sampled exemplar for traces
    /// (`0` keeps none). Off by default — without retirement every span
    /// stays resident, the pre-retirement behavior.
    pub fn enable_retirement(&self, keep_every: u64) {
        self.retire_keep_every.store(keep_every, Ordering::Relaxed);
        self.retire_enabled.store(true, Ordering::Relaxed);
    }

    /// Arms self-measurement: every registry call is timed with a
    /// monotonic clock and accumulated into the `self_ns`/`self_calls`
    /// gauges of [`ObsPlaneReport`]. Off by default (two clock reads
    /// per call are not free — that is the point of measuring).
    pub fn enable_self_measure(&self) {
        self.sm_enabled.store(true, Ordering::Relaxed);
    }

    /// The plane's self-measurement gauges, as they stand right now.
    pub fn obs_plane(&self) -> ObsPlaneReport {
        let slab = self.slab();
        ObsPlaneReport {
            spans_retired: slab.retired,
            spans_sampled: slab.sampled,
            spans_resident: slab.resident,
            spans_resident_peak: slab.resident_peak,
            span_table_bytes: slab.bytes,
            span_table_bytes_peak: slab.bytes_peak,
            self_ns: self.self_ns.load(Ordering::Relaxed),
            self_calls: self.self_calls.load(Ordering::Relaxed),
        }
    }

    // -- flight recorder ---------------------------------------------------

    /// Turns on the windowed flight recorder with `width_ns`-wide
    /// windows and a ring of at most `capacity` windows. Idempotent in
    /// effect but resets the recording when called again.
    pub fn enable_timeseries(&self, width_ns: u64, capacity: usize) {
        *self.recorder() = Some(TimeSeries::new(width_ns, capacity));
        self.ts_enabled.store(true, Ordering::Relaxed);
    }

    fn recorder(&self) -> std::sync::MutexGuard<'_, Option<TimeSeries>> {
        self.timeseries.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// True when the flight recorder is on. Call sites use this to skip
    /// series-name formatting on hot paths; it is one relaxed atomic
    /// load.
    #[inline]
    pub fn timeseries_enabled(&self) -> bool {
        self.ts_enabled.load(Ordering::Relaxed)
    }

    /// Adds `delta` to counter `series` in the window covering `at_ns`
    /// No-op while the recorder is off.
    pub fn ts_add(&self, at_ns: u64, series: &str, delta: u64) {
        if !self.timeseries_enabled() {
            return;
        }
        if let Some(ts) = self.recorder().as_mut() {
            ts.add(at_ns, series, delta);
        }
    }

    /// Samples gauge `series` at `value` in the window covering `at_ns`
    /// No-op while the recorder is off.
    pub fn ts_gauge(&self, at_ns: u64, series: &str, value: u64) {
        if !self.timeseries_enabled() {
            return;
        }
        if let Some(ts) = self.recorder().as_mut() {
            ts.gauge(at_ns, series, value);
        }
    }

    /// Records `value` into windowed histogram `series`. No-op while the
    /// recorder is off.
    pub fn ts_observe(&self, at_ns: u64, series: &str, value: u64) {
        if !self.timeseries_enabled() {
            return;
        }
        if let Some(ts) = self.recorder().as_mut() {
            ts.observe(at_ns, series, value);
        }
    }

    /// Snapshot of the flight recording, if the recorder is on.
    pub fn timeseries_report(&self) -> Option<TimeSeriesReport> {
        self.recorder().as_ref().map(TimeSeries::report)
    }

    /// Arms the slow-call watchdog. Exemplars accumulate from this point
    /// on; re-arming keeps already-pinned exemplars.
    pub fn enable_watchdog(&self, cfg: WatchdogConfig) {
        let mut misc = self.misc();
        misc.watchdog = Some(cfg);
        self.wd_enabled.store(true, Ordering::Relaxed);
    }

    /// Copy of the exemplars pinned so far, as [`RunReport::exemplars`]
    /// lists them.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        self.slab().stats.exemplars.clone()
    }

    /// Stamps run provenance into the registry (merged field-wise: only
    /// `Some` fields overwrite).
    pub fn set_run_meta(&self, meta: RunMeta) {
        let mut misc = self.misc();
        let RunMeta {
            seed,
            mode,
            config_hash,
            git_rev,
            date,
        } = meta;
        if seed.is_some() {
            misc.meta.seed = seed;
        }
        if mode.is_some() {
            misc.meta.mode = mode;
        }
        if config_hash.is_some() {
            misc.meta.config_hash = config_hash;
        }
        if git_rev.is_some() {
            misc.meta.git_rev = git_rev;
        }
        if date.is_some() {
            misc.meta.date = date;
        }
    }

    // -- RPC counters ------------------------------------------------------

    /// A call was issued.
    pub fn on_call(&self) {
        if self.on() {
            self.counters.calls.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A request was retransmitted.
    pub fn on_retry(&self) {
        if self.on() {
            self.counters.retries.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A call exhausted all attempts.
    pub fn on_timeout(&self) {
        if self.on() {
            self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A reply arrived for an already-completed call.
    pub fn on_stale_reply(&self) {
        if self.on() {
            self.counters.stale_replies.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A stray packet was discarded while waiting for a reply.
    pub fn on_stray_dropped(&self) {
        if self.on() {
            self.counters.strays_dropped.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A request was executed for the first time.
    pub fn on_executed(&self) {
        if self.on() {
            self.counters.executed.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A duplicate request was answered from the reply cache.
    pub fn on_duplicate_suppressed(&self) {
        if self.on() {
            self.counters
                .duplicates_suppressed
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A duplicate request was dropped.
    pub fn on_duplicate_dropped(&self) {
        if self.on() {
            self.counters
                .duplicates_dropped
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// A one-way message was received by a server.
    pub fn on_oneway_rx(&self) {
        if self.on() {
            self.counters.oneways.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// An undecodable packet was received by a server.
    pub fn on_undecodable(&self) {
        if self.on() {
            self.counters.undecodable.fetch_add(1, Ordering::Relaxed);
        }
    }

    // -- published snapshots ----------------------------------------------

    /// Publishes the latest stats of one proxy. Keyed `service@owner`;
    /// stats are monotonic so overwriting is idempotent.
    pub fn set_proxy_stats(&self, owner: &str, service: &str, stats: ProxyStats) {
        use std::fmt::Write;
        if !self.on() {
            return;
        }
        // Called once per invocation: the key is composed in a buffer
        // kept under the lock and allocated only on first publish.
        let misc = &mut *self.misc();
        misc.key_buf.clear();
        let _ = write!(misc.key_buf, "{service}@{owner}");
        match misc.proxies.get_mut(misc.key_buf.as_str()) {
            Some(slot) => *slot = stats,
            None => {
                misc.proxies.insert(misc.key_buf.clone(), stats);
            }
        }
    }

    /// Publishes the latest stats of one service server.
    pub fn set_server_stats(&self, service: &str, stats: ServerStats) {
        if !self.on() {
            return;
        }
        // Called once per datagram served: allocate on first publish only.
        let mut misc = self.misc();
        match misc.servers.get_mut(service) {
            Some(slot) => *slot = stats,
            None => {
                misc.servers.insert(service.to_string(), stats);
            }
        }
    }

    // -- reporting ---------------------------------------------------------

    /// Builds the unified report. `net` is the simulator's counter
    /// snapshot and `end_time_ns` the simulated clock at report time.
    /// Map output is ordered by name, so a run reports the same bytes
    /// every time.
    pub fn report(&self, net: MetricsSnapshot, end_time_ns: u64) -> RunReport {
        let csum =
            |field: fn(&Counters) -> &AtomicU64| field(&self.counters).load(Ordering::Relaxed);
        let client = CallStats {
            calls: csum(|c| &c.calls),
            retries: csum(|c| &c.retries),
            timeouts: csum(|c| &c.timeouts),
            stale_replies: csum(|c| &c.stale_replies),
            strays_dropped: csum(|c| &c.strays_dropped),
        };
        let server = ServeStats {
            executed: csum(|c| &c.executed),
            duplicates_suppressed: csum(|c| &c.duplicates_suppressed),
            duplicates_dropped: csum(|c| &c.duplicates_dropped),
            oneways: csum(|c| &c.oneways),
            undecodable: csum(|c| &c.undecodable),
        };
        let mut started = 0u64;
        let mut completed = 0u64;
        let mut oneways = 0u64;
        let mut retransmissions = 0u64;
        let slab = self.slab();
        for agg in &slab.stats.retired {
            started += agg.invokes + agg.dispatches;
            completed += agg.invokes + agg.dispatches;
            oneways += agg.oneways;
            retransmissions += agg.retransmissions;
        }
        retransmissions += slab.retired_retransmissions;
        for (_, slot) in slab.resident() {
            match slot.kind {
                SpanKind::Oneway => oneways += 1,
                _ => {
                    started += 1;
                    if !slot.is_open() {
                        completed += 1;
                    }
                }
            }
            retransmissions += slot.retransmissions;
        }
        let ops: BTreeMap<String, OpLatency> = {
            let keys = self.keys();
            slab.stats
                .hists
                .iter()
                .enumerate()
                .filter_map(|(key, hist)| {
                    let (service, op) = keys.names(key as u32);
                    Some((format!("{service}/{op}"), hist.as_ref()?.summary()))
                })
                .collect()
        };
        let exemplars = slab.stats.exemplars.clone();
        let exemplars_suppressed = slab.stats.exemplars_suppressed;
        drop(slab);
        let misc = self.misc();
        RunReport {
            end_time_ns,
            net,
            rpc: RpcReport { client, server },
            proxies: misc.proxies.clone(),
            servers: misc.servers.clone(),
            ops,
            spans: SpanReport {
                started,
                completed,
                open: started - completed,
                oneways,
                retransmissions,
                replies: ReplyReport {
                    matched: csum(|c| &c.replies_matched),
                    late: csum(|c| &c.replies_late),
                    unknown_span: csum(|c| &c.replies_unknown_span),
                    untracked: csum(|c| &c.replies_untracked),
                },
            },
            obs: self.obs_plane(),
            trace_evicted: 0,
            meta: misc.meta.clone(),
            timeseries: self.timeseries_report(),
            profile: self.profile_report(),
            exemplars,
            exemplars_suppressed,
        }
    }
}

// ---------------------------------------------------------------------------
// Unified run report
// ---------------------------------------------------------------------------

/// Aggregated RPC counters, both sides.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RpcReport {
    /// Summed over every client in the run.
    pub client: CallStats,
    /// Summed over every server in the run.
    pub server: ServeStats,
}

/// Reply/span correlation counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplyReport {
    /// Replies matched to a live span.
    pub matched: u64,
    /// Replies whose span had already closed (duplicates, stale).
    pub late: u64,
    /// Replies carrying a span id that was never allocated. Any nonzero
    /// value is a causality violation.
    pub unknown_span: u64,
    /// Replies carrying no span (traffic outside tracked invocations).
    pub untracked: u64,
}

/// Span table summary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanReport {
    /// Invoke + dispatch spans opened.
    pub started: u64,
    /// Of those, spans closed.
    pub completed: u64,
    /// Spans still open at report time.
    pub open: u64,
    /// One-way notification spans.
    pub oneways: u64,
    /// Retransmissions summed over all spans.
    pub retransmissions: u64,
    /// Reply correlation counts.
    pub replies: ReplyReport,
}

/// The unified observability report for one run: network counters, RPC
/// counters, per-proxy and per-server stats, per-op latency percentiles
/// and the span summary, in one serializable value.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Simulated clock when the report was taken, in nanoseconds.
    pub end_time_ns: u64,
    /// Network simulator counters.
    pub net: MetricsSnapshot,
    /// RPC layer counters.
    pub rpc: RpcReport,
    /// Per-proxy stats, keyed `service@owner`.
    pub proxies: BTreeMap<String, ProxyStats>,
    /// Per-service server stats.
    pub servers: BTreeMap<String, ServerStats>,
    /// Per-op latency summaries, keyed `service/op`.
    pub ops: BTreeMap<String, OpLatency>,
    /// Span table summary.
    pub spans: SpanReport,
    /// Self-measurement of the observability plane itself: retirement
    /// counts, resident span-table footprint and time spent inside
    /// registry calls.
    pub obs: ObsPlaneReport,
    /// Events the bounded simnet trace ring evicted (0 when tracing is
    /// off or the ring never filled — i.e. the timeline is complete).
    /// Filled in by the simulator when it builds the report.
    pub trace_evicted: u64,
    /// Run provenance (seed, mode, config hash, git rev, date).
    pub meta: RunMeta,
    /// The windowed flight recording, when the recorder was on.
    pub timeseries: Option<TimeSeriesReport>,
    /// The folded-stack wall-time profile, when the profiler was on.
    /// Frame paths and call counts are deterministic; `wall_ns` is
    /// host-dependent and reported-not-judged.
    pub profile: Option<ProfileReport>,
    /// Slow calls pinned by the watchdog.
    pub exemplars: Vec<Exemplar>,
    /// Slow calls observed after the exemplar buffer filled.
    pub exemplars_suppressed: u64,
}

impl RunReport {
    /// Fills each exemplar's causal decomposition from `trace`.
    ///
    /// [`analysis::critical_paths`] decomposes every traced invoke span
    /// into queue/wire/server/retransmit components that tile the span
    /// exactly; this copies the decomposition onto exemplars whose span
    /// appears in the trace. Returns how many exemplars got a breakdown.
    /// Exemplars whose span was sampled out of the trace keep
    /// `breakdown: None` — an honest "unexplained" rather than a guess.
    pub fn attach_exemplars(&mut self, trace: &CausalTrace) -> usize {
        if self.exemplars.is_empty() {
            return 0;
        }
        let paths = critical_paths(trace);
        let by_span: BTreeMap<SpanId, &CriticalPath> = paths.iter().map(|p| (p.span, p)).collect();
        let mut attached = 0;
        for ex in &mut self.exemplars {
            if ex.breakdown.is_some() {
                continue;
            }
            if let Some(p) = by_span.get(&ex.span) {
                ex.breakdown = Some(ExemplarBreakdown {
                    queue_ns: p.queue_ns,
                    wire_ns: p.wire_ns,
                    server_ns: p.server_ns,
                    retransmit_ns: p.retransmit_ns,
                    retransmissions: p.retransmissions,
                    drops: p.drops,
                });
                attached += 1;
            }
        }
        attached
    }

    /// Renders the report as one compact JSON object through the
    /// canonical printer (`Display` of [`json::Json`]): members in key
    /// order, so the bytes are stable and safe to diff across runs.
    pub fn to_json(&self) -> String {
        self.to_value().to_string()
    }

    /// Reads a report written by [`RunReport::to_json`] back.
    ///
    /// # Errors
    ///
    /// Returns the parse error, or the path of the first missing or
    /// malformed member.
    pub fn from_json(text: &str) -> Result<RunReport, String> {
        RunReport::from_value(&json::parse(text).map_err(|e| e.to_string())?)
    }
}

// Every report section, declared once for both directions.
json_model! {
    RunReport {
        end_time_ns, trace_evicted, meta, net, rpc, proxies, servers, ops, spans, obs,
        profile, exemplars_suppressed, exemplars, timeseries,
    }
    RunMeta { seed, mode, config_hash, git_rev, date }
    MetricsSnapshot {
        msgs_sent, msgs_delivered, msgs_dropped, msgs_duplicated, msgs_blackholed, bytes_sent,
        events_dispatched, processes_spawned, processes_peak, sched_time_inversions,
    }
    RpcReport { client, server }
    CallStats { calls, retries, timeouts, stale_replies, strays_dropped }
    ServeStats { executed, duplicates_suppressed, duplicates_dropped, oneways, undecodable }
    ProxyStats {
        invocations, local_hits, remote_calls, invalidations_rx, migrations, checkins, rebinds,
        strategy_switches, datagrams_discarded, bulk_spills, bulk_resolves,
    }
    ServerStats {
        dispatched, writes, invalidations_sent, checkouts, checkins, recalls_sent, unavailable,
        checkpoints,
    }
    OpLatency { count, min_ns, max_ns, mean_ns, p50_ns, p95_ns, p99_ns }
    SpanReport { started, completed, open, oneways, retransmissions, replies }
    ReplyReport { matched, late, unknown_span, untracked }
    ObsPlaneReport {
        spans_retired, spans_sampled, spans_resident, spans_resident_peak, span_table_bytes,
        span_table_bytes_peak, self_ns, self_calls,
    }
    ProfileReport { frames, frames_resident, frames_evicted, self_ns, self_calls }
    FrameStat { calls, wall_ns }
    Exemplar {
        span, service, op, start_ns, latency_ns, threshold_ns, p99_ns, trigger, ok, breakdown,
    }
    ExemplarBreakdown { queue_ns, wire_ns, server_ns, retransmit_ns, retransmissions, drops }
    TimeSeriesReport { width_ns, windows_evicted, late_dropped, windows }
    WindowReport { start_ns, counters, gauges, hists }
    GaugeStat { last, min, max, sum, samples }
}

impl JsonModel for SpanId {
    fn to_value(&self) -> Json {
        self.0.to_value()
    }

    fn from_value(v: &Json) -> Result<SpanId, String> {
        u64::from_value(v).map(SpanId)
    }
}

/// The only `&'static str` a report carries: an exemplar's trigger.
impl JsonModel for &'static str {
    fn to_value(&self) -> Json {
        Json::from(*self)
    }

    fn from_value(v: &Json) -> Result<&'static str, String> {
        match v.as_str() {
            Some("p99") => Ok("p99"),
            Some("slo") => Ok("slo"),
            _ => Err(format!("bad trigger {v}")),
        }
    }
}

// ---------------------------------------------------------------------------
// Tests
// ---------------------------------------------------------------------------

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_percentiles_uniform() {
        let mut h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.min(), 1);
        assert_eq!(h.max(), 1000);
        // Log2 buckets give factor-of-two resolution; check the order of
        // magnitude, not exact values.
        let p50 = h.p50();
        assert!((250..=1000).contains(&p50), "p50 = {p50}");
        assert!(h.p95() >= p50);
        assert!(h.p99() >= h.p95());
        assert!(h.p99() <= 1000);
    }

    #[test]
    fn histogram_empty_and_single() {
        let h = Histogram::new();
        assert_eq!(h.count(), 0);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.min(), 0);
        assert_eq!(h.max(), 0);

        let mut h = Histogram::new();
        h.record(42);
        assert_eq!(h.p50(), 42);
        assert_eq!(h.p99(), 42);
        assert_eq!(h.mean(), 42);
    }

    #[test]
    fn histogram_zero_sample() {
        let mut h = Histogram::new();
        h.record(0);
        h.record(0);
        assert_eq!(h.count(), 2);
        assert_eq!(h.p50(), 0);
        assert_eq!(h.max(), 0);
    }

    #[test]
    fn histogram_merge() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [1u64, 10, 100] {
            a.record(v);
        }
        for v in [1000u64, 10_000] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert_eq!(a.min(), 1);
        assert_eq!(a.max(), 10_000);
    }

    #[test]
    fn span_lifecycle_and_latency() {
        let reg = MetricsRegistry::new();
        let inv = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 100);
        assert!(inv.is_some());
        let disp = reg.open_span(SpanKind::Dispatch, inv, "svc-kv", "get", 150);
        reg.close_span(disp, 180, true);
        assert_eq!(reg.span_reply(inv.raw(), 190), ReplyKind::Matched);
        reg.close_span(inv, 200, true);
        // Duplicate reply after the span closed.
        assert_eq!(reg.span_reply(inv.raw(), 210), ReplyKind::Late);
        // Closing twice is a no-op.
        reg.close_span(inv, 999, false);

        assert!(reg.verify_causality().is_empty());

        let report = reg.report(MetricsSnapshot::default(), 1000);
        assert_eq!(report.ops["kv/get"].count, 1);
        assert_eq!(report.ops["kv/get"].p50_ns, 100);
        assert_eq!(report.ops["svc-kv/get"].count, 1);
        assert_eq!(report.spans.started, 2);
        assert_eq!(report.spans.completed, 2);
        assert_eq!(report.spans.replies.matched, 1);
        assert_eq!(report.spans.replies.late, 1);
        assert_eq!(report.spans.replies.unknown_span, 0);
    }

    #[test]
    fn unknown_and_untracked_replies() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.span_reply(0, 10), ReplyKind::Untracked);
        assert_eq!(reg.span_reply(777, 10), ReplyKind::UnknownSpan);
        let violations = reg.verify_causality();
        assert_eq!(violations.len(), 1);
        assert!(violations[0].contains("never allocated"));
    }

    #[test]
    fn retransmissions_accumulate_on_one_span() {
        let reg = MetricsRegistry::new();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "put", 0);
        reg.span_retransmit_at(sp, 10);
        reg.span_retransmit_at(sp, 20);
        let report = reg.report(MetricsSnapshot::default(), 50);
        assert_eq!(report.spans.retransmissions, 2);
        let rec = reg.span_record(sp).expect("span resident");
        assert_eq!(rec.retransmissions, 2);
    }

    #[test]
    fn causality_flags_bad_parent() {
        let reg = MetricsRegistry::new();
        reg.open_span(SpanKind::Dispatch, SpanId(99), "svc", "op", 5);
        let violations = reg.verify_causality();
        assert!(!violations.is_empty());
        assert!(violations[0].contains("unallocated parent"));
    }

    #[test]
    fn oneway_spans_are_closed_and_parented() {
        let reg = MetricsRegistry::new();
        let disp = reg.open_span(SpanKind::Dispatch, SpanId::NONE, "svc-kv", "put", 10);
        let ow = reg.note_oneway(disp, "kv", "inv", 20);
        let rec = reg.span_record(ow).expect("span resident");
        assert_eq!(rec.kind, SpanKind::Oneway);
        assert_eq!(rec.parent, disp);
        assert_eq!(rec.end_ns, Some(20));
        // One-way spans never land in a latency histogram.
        let report = reg.report(MetricsSnapshot::default(), 30);
        assert!(!report.ops.contains_key("kv/inv"));
    }

    #[test]
    fn snapshot_since_saturates() {
        let a = MetricsSnapshot {
            msgs_sent: 10,
            msgs_delivered: 8,
            msgs_dropped: 2,
            msgs_duplicated: 0,
            msgs_blackholed: 0,
            bytes_sent: 640,
            events_dispatched: 30,
            processes_spawned: 3,
            processes_peak: 3,
            sched_time_inversions: 0,
        };
        let b = MetricsSnapshot {
            msgs_sent: 15,
            msgs_delivered: 12,
            msgs_dropped: 3,
            msgs_duplicated: 1,
            msgs_blackholed: 0,
            bytes_sent: 900,
            events_dispatched: 45,
            processes_spawned: 5,
            processes_peak: 4,
            sched_time_inversions: 0,
        };
        let d = b.since(&a);
        assert_eq!(d.msgs_sent, 5);
        assert_eq!(d.msgs_delivered, 4);
        assert_eq!(d.bytes_sent, 260);
        assert_eq!(d.processes_spawned, 2);
        // Gauge semantics: the window reports the peak as of its end,
        // not a counter-style diff (which would read 0 in any window
        // where the high-water mark did not rise).
        assert_eq!(d.processes_peak, 4);
        // Reversed order saturates instead of wrapping.
        let r = a.since(&b);
        assert_eq!(r.msgs_sent, 0);
    }

    #[test]
    fn snapshot_since_peak_is_a_gauge_in_flat_windows() {
        // Regression for the flight-recorder window diff: a window in
        // which the process high-water mark did not move used to report
        // `processes_peak == 0` because the gauge was diffed like a
        // counter. The window must report the level, not the rise.
        let a = MetricsSnapshot {
            processes_spawned: 5,
            processes_peak: 5,
            ..Default::default()
        };
        let b = MetricsSnapshot {
            processes_spawned: 7,
            processes_peak: 5,
            ..Default::default()
        };
        let d = b.since(&a);
        assert_eq!(d.processes_spawned, 2);
        assert_eq!(d.processes_peak, 5, "flat window must report the level");
    }

    #[test]
    fn report_json_is_wellformed() {
        let reg = MetricsRegistry::new();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.on_call();
        reg.close_span(sp, 1500, true);
        reg.set_proxy_stats(
            "client-1",
            "kv",
            ProxyStats {
                invocations: 1,
                remote_calls: 1,
                ..Default::default()
            },
        );
        reg.set_server_stats(
            "kv",
            ServerStats {
                dispatched: 1,
                ..Default::default()
            },
        );
        let json = reg
            .report(
                MetricsSnapshot {
                    msgs_sent: 2,
                    msgs_delivered: 2,
                    ..Default::default()
                },
                2000,
            )
            .to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"end_time_ns\":2000"));
        assert!(json.contains("\"kv/get\""));
        assert!(json.contains("\"p99_ns\""));
        assert!(json.contains("\"kv@client-1\""));
        assert!(json.contains("\"msgs_sent\":2"));
        // Balanced braces.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn snapshot_since_every_field_smaller() {
        // "Service removed mid-run": the later snapshot is smaller in
        // every field. The diff must saturate to zero field-wise, never
        // wrap.
        let earlier = MetricsSnapshot {
            msgs_sent: 100,
            msgs_delivered: 90,
            msgs_dropped: 10,
            msgs_duplicated: 5,
            msgs_blackholed: 3,
            bytes_sent: 64_000,
            events_dispatched: 500,
            processes_spawned: 12,
            processes_peak: 8,
            sched_time_inversions: 2,
        };
        let later = MetricsSnapshot {
            msgs_sent: 40,
            msgs_delivered: 30,
            msgs_dropped: 4,
            msgs_duplicated: 2,
            msgs_blackholed: 1,
            bytes_sent: 8_000,
            events_dispatched: 200,
            processes_spawned: 6,
            processes_peak: 4,
            sched_time_inversions: 1,
        };
        // Counters saturate to zero; the peak gauge carries the later
        // snapshot's level through untouched.
        assert_eq!(
            later.since(&earlier),
            MetricsSnapshot {
                processes_peak: 4,
                ..MetricsSnapshot::default()
            }
        );
        // Mixed: only some fields went backwards.
        let mixed = MetricsSnapshot {
            msgs_sent: 150,
            ..later
        };
        let d = mixed.since(&earlier);
        assert_eq!(d.msgs_sent, 50);
        assert_eq!(d.msgs_delivered, 0);
        assert_eq!(d.bytes_sent, 0);
    }

    #[test]
    fn histogram_merge_then_extreme_quantiles() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [7u64, 12, 30] {
            a.record(v);
        }
        for v in [3u64, 5_000] {
            b.record(v);
        }
        a.merge(&b);
        // q=0.0 and q=1.0 must pin to the merged min and max exactly,
        // despite log2-bucket interpolation.
        assert_eq!(a.quantile(0.0), a.min());
        assert_eq!(a.quantile(0.0), 3);
        assert_eq!(a.quantile(1.0), a.max());
        assert_eq!(a.quantile(1.0), 5_000);
        // Merging into an empty histogram keeps the extremes intact.
        let mut empty = Histogram::new();
        empty.merge(&a);
        assert_eq!(empty.quantile(0.0), 3);
        assert_eq!(empty.quantile(1.0), 5_000);
    }

    #[test]
    fn watchdog_pins_slo_exemplar() {
        let reg = MetricsRegistry::new();
        reg.enable_watchdog(WatchdogConfig {
            multiplier: 3.0,
            slo_ns: Some(1_000),
            min_samples: 32,
            max_exemplars: 4,
        });
        // Fast call: under the SLO, relative trigger unarmed.
        let fast = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.close_span(fast, 500, true);
        // Slow call: over the SLO.
        let slow = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 1_000);
        reg.close_span(slow, 3_500, true);
        let exemplars = reg.exemplars();
        assert_eq!(exemplars.len(), 1);
        let ex = &exemplars[0];
        assert_eq!(ex.span, slow);
        assert_eq!(ex.latency_ns, 2_500);
        assert_eq!(ex.threshold_ns, 1_000);
        assert_eq!(ex.trigger, "slo");
        assert!(ex.breakdown.is_none());
    }

    #[test]
    fn watchdog_relative_trigger_arms_after_min_samples() {
        let reg = MetricsRegistry::new();
        reg.enable_watchdog(WatchdogConfig {
            multiplier: 3.0,
            slo_ns: None,
            min_samples: 10,
            max_exemplars: 4,
        });
        // Nine ~100ns calls: below min_samples, nothing can trip even
        // though every call dwarfs the (unarmed) p99.
        for i in 0..9u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i * 10_000);
            reg.close_span(sp, i * 10_000 + 100, true);
        }
        assert!(reg.exemplars().is_empty());
        // Tenth call arms the trigger for the *next* close...
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 100_000);
        reg.close_span(sp, 100_100, true);
        // ...and an outlier 50x the p99 trips it.
        let outlier = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 200_000);
        reg.close_span(outlier, 205_000, false);
        let exemplars = reg.exemplars();
        assert_eq!(exemplars.len(), 1);
        let ex = &exemplars[0];
        assert_eq!(ex.span, outlier);
        assert_eq!(ex.trigger, "p99");
        assert!(ex.p99_ns > 0);
        assert!(ex.latency_ns > ex.threshold_ns);
        assert!(!ex.ok);
    }

    #[test]
    fn watchdog_buffer_cap_suppresses() {
        let reg = MetricsRegistry::new();
        reg.enable_watchdog(WatchdogConfig {
            multiplier: 3.0,
            slo_ns: Some(10),
            min_samples: u64::MAX,
            max_exemplars: 2,
        });
        for i in 0..5u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i * 1_000);
            reg.close_span(sp, i * 1_000 + 100, true);
        }
        let report = reg.report(MetricsSnapshot::default(), 10_000);
        assert_eq!(report.exemplars.len(), 2);
        assert_eq!(report.exemplars_suppressed, 3);
    }

    #[test]
    fn timeseries_feeds_from_span_close_and_retransmit() {
        let reg = MetricsRegistry::new();
        assert!(!reg.timeseries_enabled());
        reg.enable_timeseries(1_000, 64);
        assert!(reg.timeseries_enabled());
        let ok = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.span_retransmit_at(ok, 300);
        reg.close_span(ok, 500, true);
        let err = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 1_200);
        reg.close_span(err, 1_800, false);
        // Dispatch spans land in aggregate histograms but not in the
        // per-service call counters (no double counting).
        let disp = reg.open_span(SpanKind::Dispatch, ok, "svc-kv", "get", 100);
        reg.close_span(disp, 400, true);
        let ts = reg.timeseries_report().expect("recorder on");
        assert_eq!(ts.counter_total("calls_ok@kv"), 1);
        assert_eq!(ts.counter_total("calls_err@kv"), 1);
        assert_eq!(ts.counter_total("retx@kv"), 1);
        assert_eq!(ts.counter_total("calls_ok@svc-kv"), 0);
        assert_eq!(ts.windows.len(), 2);
        assert_eq!(ts.windows[0].hists["latency@kv"].max_ns, 500);
        // Direct API shapes.
        reg.ts_gauge(2_500, "depth", 7);
        reg.ts_add(2_500, "bytes", 128);
        reg.ts_observe(2_500, "lag", 0);
        let ts = reg.timeseries_report().unwrap();
        assert_eq!(ts.windows[2].gauges["depth"].max, 7);
        assert_eq!(ts.counter_total("bytes"), 128);
    }

    #[test]
    fn run_meta_merges_and_serializes() {
        let reg = MetricsRegistry::new();
        reg.set_run_meta(RunMeta {
            seed: Some(42),
            mode: Some("full".into()),
            ..Default::default()
        });
        reg.set_run_meta(RunMeta {
            date: Some("2026-08-06".into()),
            ..Default::default()
        });
        let report = reg.report(MetricsSnapshot::default(), 0);
        assert_eq!(report.meta.seed, Some(42));
        assert_eq!(report.meta.mode.as_deref(), Some("full"));
        assert_eq!(report.meta.date.as_deref(), Some("2026-08-06"));
        let json = report.to_json();
        assert!(json.contains("\"meta\":{\"date\":\"2026-08-06\",\"mode\":\"full\",\"seed\":42}"));
    }

    #[test]
    fn report_json_with_timeseries_and_exemplars_is_wellformed() {
        let reg = MetricsRegistry::new();
        reg.enable_timeseries(1_000, 8);
        reg.enable_watchdog(WatchdogConfig {
            slo_ns: Some(100),
            min_samples: u64::MAX,
            ..Default::default()
        });
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.ts_gauge(500, "sched_depth", 3);
        reg.close_span(sp, 2_500, true);
        let json = reg.report(MetricsSnapshot::default(), 3_000).to_json();
        assert!(json.contains("\"exemplars\":[{\"latency_ns\":2500,"));
        assert!(json.contains("\"span\":1,"));
        assert!(json.contains("\"trigger\":\"slo\""));
        assert!(json.contains("\"timeseries\":{\"late_dropped\":0,\"width_ns\":1000"));
        assert!(json.contains("\"windows\":[{"));
        assert!(json.contains("\"calls_ok@kv\":1"));
        assert!(json.contains("\"sched_depth\""));
        // Balanced braces and brackets, and it round-trips through the
        // hand-rolled parser.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        let parsed = crate::json::parse(&json).expect("report JSON parses");
        let ts = parsed.get("timeseries").expect("timeseries present");
        assert_eq!(ts.u64_field("width_ns"), Some(1_000));
        assert_eq!(
            parsed
                .get("exemplars")
                .and_then(|e| e.as_arr())
                .map(|a| a.len()),
            Some(1)
        );
    }

    /// Drives a fixed call sequence into a registry.
    fn drive(reg: &MetricsRegistry) {
        for i in 0..100u64 {
            let svc = if i % 2 == 0 { "kv" } else { "dir" };
            let op = if i % 3 == 0 { "get" } else { "put" };
            let inv = reg.open_span(SpanKind::Invoke, SpanId::NONE, svc, op, i * 10);
            let disp = reg.open_span(SpanKind::Dispatch, inv, svc, op, i * 10 + 2);
            if i % 7 == 0 {
                reg.span_retransmit_at(inv, i * 10 + 4);
            }
            reg.on_call();
            reg.on_executed();
            reg.close_span(disp, i * 10 + 5, true);
            reg.span_reply(inv.raw(), i * 10 + 6);
            reg.close_span(inv, i * 10 + 8, i % 11 != 0);
            if i % 5 == 0 {
                reg.note_oneway(disp, svc, "inv", i * 10 + 9);
            }
        }
        // Leave a few spans open so `open` is nonzero.
        for _ in 0..3 {
            reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 9_999);
        }
    }

    #[test]
    fn retirement_conserves_report_totals() {
        let plain = MetricsRegistry::new();
        drive(&plain);
        let retiring = MetricsRegistry::new();
        retiring.enable_retirement(0);
        drive(&retiring);

        let a = plain.report(MetricsSnapshot::default(), 10_000);
        let b = retiring.report(MetricsSnapshot::default(), 10_000);
        // Everything the report derives from spans is conserved exactly.
        assert_eq!(a.spans, b.spans);
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.rpc, b.rpc);
        // But the retiring table only holds what is still open.
        assert_eq!(b.obs.spans_resident, 3);
        assert_eq!(
            b.obs.spans_retired + b.obs.spans_resident,
            b.spans.started + b.spans.oneways
        );
        assert!(plain.obs_plane().spans_resident > retiring.obs_plane().spans_resident);
    }

    #[test]
    fn retirement_sampler_keeps_every_nth() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(10);
        for i in 0..100u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i);
            reg.close_span(sp, i + 1, true);
        }
        let obs = reg.obs_plane();
        assert_eq!(obs.spans_sampled, 10);
        assert_eq!(obs.spans_retired, 90);
        assert_eq!(obs.spans_resident, 10);
        // Sampled records are real, closed records.
        let mut kept = 0;
        reg.for_each_span(|rec| {
            assert!(rec.end_ns.is_some());
            kept += 1;
        });
        assert_eq!(kept, 10);
    }

    #[test]
    fn retired_span_reply_is_late_and_retransmit_counted() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(0);
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.close_span(sp, 5, true);
        assert!(reg.span_record(sp).is_none(), "span retired");
        // A reply for a retired span is by definition late: retirement
        // only ever evicts closed spans.
        assert_eq!(reg.span_reply(sp.raw(), 9), ReplyKind::Late);
        reg.span_retransmit_at(sp, 9);
        let report = reg.report(MetricsSnapshot::default(), 10);
        assert_eq!(report.spans.replies.late, 1);
        assert_eq!(report.spans.replies.unknown_span, 0);
        assert_eq!(report.spans.retransmissions, 1);
    }

    #[test]
    fn disabled_plane_is_inert() {
        let reg = MetricsRegistry::new();
        reg.set_enabled(false);
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        assert_eq!(sp, SpanId::NONE);
        reg.close_span(sp, 5, true);
        assert_eq!(reg.span_reply(7, 9), ReplyKind::Untracked);
        reg.on_call();
        reg.on_executed();
        let report = reg.report(MetricsSnapshot::default(), 10);
        assert_eq!(report.spans.started, 0);
        assert_eq!(report.rpc.client.calls, 0);
        assert_eq!(report.rpc.server.executed, 0);
        assert_eq!(report.spans.replies.untracked, 0);
        assert!(report.ops.is_empty());
        assert_eq!(reg.span_count(), 0);
        // And it can be turned back on.
        reg.set_enabled(true);
        assert!(reg
            .open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0)
            .is_some());
    }

    /// Opens an invoke span of `kv/op`.
    fn open_on(reg: &MetricsRegistry, parent: SpanId, op: &str, at: u64) -> SpanId {
        reg.open_span(SpanKind::Invoke, parent, "kv", op, at)
    }

    #[test]
    fn for_each_span_visits_ascending_ids() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(3);
        // Close some, out of order: kept ones move to the side map.
        let ids: Vec<SpanId> = (0..50u64)
            .map(|i| open_on(&reg, SpanId::NONE, "get", i))
            .collect();
        for (i, id) in ids.iter().enumerate().rev().step_by(2) {
            reg.close_span(*id, 100 + i as u64, true);
        }
        let mut ids = Vec::new();
        reg.for_each_span(|rec| ids.push(rec.id.raw()));
        // 25 still open, and every third of the 25 closed kept.
        assert_eq!(ids.len(), 25 + 8);
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "ids must ascend: {ids:?}"
        );
    }

    /// What a span's slot holds comes back as its record. (Named when
    /// spans were spread over writer lanes.)
    #[test]
    fn span_record_round_trips_across_lanes() {
        let reg = MetricsRegistry::new();
        let root = open_on(&reg, SpanId::NONE, "get", 10);
        let child = open_on(&reg, root, "put", 20);
        reg.span_retransmit_at(child, 25);
        reg.close_span(child, 30, false);
        assert_eq!(reg.span_reply(child.raw(), 31), ReplyKind::Late);
        let r = reg.span_record(root).expect("root resident");
        assert_eq!(
            (r.id, r.parent, r.kind),
            (root, SpanId::NONE, SpanKind::Invoke)
        );
        assert_eq!((r.service.as_str(), r.op.as_str()), ("kv", "get"));
        assert_eq!((r.start_ns, r.end_ns, r.ok), (10, None, None));
        let c = reg.span_record(child).expect("child resident");
        assert_eq!((c.id, c.parent), (child, root));
        assert_eq!(c.op, "put");
        assert_eq!((c.start_ns, c.end_ns, c.ok), (20, Some(30), Some(false)));
        assert_eq!((c.retransmissions, c.replies), (1, 1));
        assert_eq!((root.raw(), child.raw()), (1, 2), "ids count from 1");
    }

    /// An id beyond the last one opened is unknown to every span call.
    /// (Named when each writer lane allocated ids of its own.)
    #[test]
    fn unallocated_ids_are_unknown_per_lane() {
        let reg = MetricsRegistry::new();
        let sp = open_on(&reg, SpanId::NONE, "get", 0);
        assert_eq!(sp, SpanId(1));
        assert_eq!(reg.span_reply(9, 5), ReplyKind::UnknownSpan);
        assert_eq!(reg.span_reply(1, 6), ReplyKind::Matched);
        reg.span_retransmit_at(SpanId(9), 7);
        open_on(&reg, SpanId(9), "put", 8);
        let report = reg.report(MetricsSnapshot::default(), 10);
        assert_eq!(report.spans.replies.unknown_span, 1);
        assert_eq!(report.spans.retransmissions, 0);
        let violations = reg.verify_causality();
        assert!(
            violations
                .iter()
                .any(|v| v.contains("unallocated parent sp:9")),
            "{violations:?}"
        );
        assert!(violations.iter().any(|v| v.contains("never allocated")));
    }

    #[test]
    fn obs_plane_gauges_track_residency_and_bytes() {
        let reg = MetricsRegistry::new();
        let a = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        let b = reg.open_span(SpanKind::Invoke, SpanId::NONE, "dirsvc", "lookup", 1);
        let full = reg.obs_plane();
        assert_eq!(full.spans_resident, 2);
        assert_eq!(full.spans_resident_peak, 2);
        // The first span allocates the first page; names live in
        // the key table, not in the slab.
        assert_eq!(full.span_table_bytes, SPAN_PAGE_BYTES);
        reg.enable_retirement(0);
        reg.close_span(a, 5, true);
        reg.close_span(b, 6, true);
        let after = reg.obs_plane();
        assert_eq!(after.spans_resident, 0);
        // Retired, but the page is not full yet: it stays.
        assert_eq!(after.span_table_bytes, SPAN_PAGE_BYTES);
        assert_eq!(after.spans_resident_peak, 2);
        assert_eq!(after.span_table_bytes_peak, full.span_table_bytes);
        assert_eq!(after.spans_retired, 2);
    }

    #[test]
    fn retirement_frees_every_page() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(0);
        // 100k spans, each closed as soon as opened: 100 whole pages,
        // one live at a time.
        for i in 0..100_000u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i);
            reg.close_span(sp, i + 1, true);
        }
        let obs = reg.obs_plane();
        assert_eq!(obs.spans_retired, 100_000);
        assert_eq!(obs.spans_resident, 0);
        assert_eq!(obs.span_table_bytes, 0);
        assert_eq!(obs.span_table_bytes_peak, SPAN_PAGE_BYTES);
        assert_eq!(reg.span_count(), 100_000);
    }

    #[test]
    fn kept_exemplars_survive_page_frees() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(10);
        let mut kept = Vec::new();
        for i in 0..5_000u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i);
            reg.span_retransmit_at(sp, i);
            reg.close_span(sp, i + 1, true);
            if (i + 1) % 10 == 0 {
                kept.push(sp);
            }
        }
        let obs = reg.obs_plane();
        assert_eq!((obs.spans_sampled, obs.spans_retired), (500, 4_500));
        // Every page filled and emptied; only the side map remains.
        assert!(obs.span_table_bytes < SPAN_PAGE_BYTES);
        let mut seen = Vec::new();
        reg.for_each_span(|rec| {
            assert_eq!(rec.end_ns, Some(rec.start_ns + 1));
            assert_eq!(rec.retransmissions, 1);
            seen.push(rec.id);
        });
        assert_eq!(seen, kept);
        // A kept span still takes its replies.
        assert_eq!(reg.span_reply(kept[0].raw(), 9_999), ReplyKind::Late);
        assert_eq!(reg.span_record(kept[0]).map(|r| r.replies), Some(1));
    }

    #[test]
    fn self_measure_accumulates_when_armed() {
        let reg = MetricsRegistry::new();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.close_span(sp, 5, true);
        assert_eq!(reg.obs_plane().self_calls, 0, "off by default");
        reg.enable_self_measure();
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 10);
        reg.close_span(sp, 15, true);
        let obs = reg.obs_plane();
        assert_eq!(obs.self_calls, 2);
    }

    #[test]
    fn run_report_json_has_obs_section() {
        let reg = MetricsRegistry::new();
        reg.enable_retirement(2);
        for i in 0..4u64 {
            let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", i);
            reg.close_span(sp, i + 1, true);
        }
        let json = reg.report(MetricsSnapshot::default(), 100).to_json();
        let parsed = json::parse(&json).expect("report json parses");
        let obs = parsed.get("obs").expect("obs object");
        assert_eq!(obs.u64_field("spans_retired"), Some(2));
        assert_eq!(obs.u64_field("spans_sampled"), Some(2));
        assert_eq!(obs.u64_field("spans_resident"), Some(2));
        assert_eq!(obs.u64_field("self_calls"), Some(0));
    }

    #[test]
    fn run_report_json_escapes_names() {
        let reg = MetricsRegistry::new();
        let (svc, op) = ("k\"v\\s", "g\\e\nt\"");
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, svc, op, 0);
        reg.close_span(sp, 10, true);
        let json = reg.report(MetricsSnapshot::default(), 100).to_json();
        let parsed = json::parse(&json).expect("report json parses");
        let ops = parsed.get("ops").and_then(json::Json::as_obj).expect("ops");
        let key = format!("{svc}/{op}");
        assert_eq!(ops.keys().collect::<Vec<_>>(), [&key], "in {json}");
        assert_eq!(ops[&key].u64_field("count"), Some(1));
    }
}
