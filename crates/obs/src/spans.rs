//! The span table.
//!
//! Spans live in a slab of fixed-size pages. A span id is `count + 1`,
//! so the id alone names its slot: slot `count % PAGE_SLOTS` of page
//! `count / PAGE_SLOTS`. A slot is a 48-byte `Copy` record; its `(service, op)`
//! names are interned once per registry into a `u32` key ([`KeyTable`])
//! and resolved back to strings only on cold paths — [`SpanRecord`]s
//! handed to visitors, exemplars, flight-recorder series names and the
//! report's per-op map.
//!
//! With retirement armed a closed span leaves its page (a kept exemplar
//! moves to a small side map) and a page whose every slot has
//! been allocated and has left is freed, so the slab holds O(open spans
//! + kept exemplars) memory however many spans a run opens.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::Ordering;

use crate::{key_hash, Exemplar, KeyStats, MetricsRegistry};

// ---------------------------------------------------------------------------
// Span vocabulary
// ---------------------------------------------------------------------------

/// Identifier of one causal call span.
///
/// Span ids are allocated by [`MetricsRegistry::open_span`] starting at 1;
/// the value 0 ([`SpanId::NONE`]) means "no span" and is what a packet
/// carries when it was sent outside any tracked invocation (e.g. name
/// service traffic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SpanId(pub u64);

impl SpanId {
    /// The absent span (wire value 0).
    pub const NONE: SpanId = SpanId(0);

    /// Raw wire representation.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Builds a span id back from its wire representation.
    pub fn from_raw(raw: u64) -> SpanId {
        SpanId(raw)
    }

    /// True if this is a real span (not [`SpanId::NONE`]).
    pub fn is_some(self) -> bool {
        self.0 != 0
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.0 == 0 {
            write!(f, "sp:-")
        } else {
            write!(f, "sp:{}", self.0)
        }
    }
}

/// What kind of work a span covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A client-side proxy invocation (opened by the client runtime).
    Invoke,
    /// A server-side dispatch of one request (child of an `Invoke`).
    Dispatch,
    /// A one-way notification (invalidate / recall / custom message).
    Oneway,
}

impl SpanKind {
    /// Short lowercase label used in reports.
    pub fn label(self) -> &'static str {
        match self {
            SpanKind::Invoke => "invoke",
            SpanKind::Dispatch => "dispatch",
            SpanKind::Oneway => "oneway",
        }
    }
}

/// One recorded span. All times are simulated nanoseconds.
#[derive(Debug, Clone)]
pub struct SpanRecord {
    /// This span's id.
    pub id: SpanId,
    /// Parent span, or [`SpanId::NONE`] for roots.
    pub parent: SpanId,
    /// What the span covers.
    pub kind: SpanKind,
    /// Service name (client view for invokes, process name for dispatches).
    pub service: String,
    /// Operation name.
    pub op: String,
    /// When the span was opened.
    pub start_ns: u64,
    /// When the span was closed; `None` while still open.
    pub end_ns: Option<u64>,
    /// `Some(true)` if the spanned work succeeded, `Some(false)` if it
    /// failed, `None` while open.
    pub ok: Option<bool>,
    /// Number of retransmissions that reused this span's request.
    pub retransmissions: u64,
    /// Number of replies observed for this span (matched + late).
    pub replies: u64,
}

impl SpanRecord {
    /// Span duration, if closed.
    pub fn duration_ns(&self) -> Option<u64> {
        self.end_ns.map(|e| e.saturating_sub(self.start_ns))
    }
}

/// How a reply related to the span it carried when it was observed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplyKind {
    /// Reply for a span that was still open — the normal case.
    Matched,
    /// Reply for a span that had already closed (duplicate or stale).
    Late,
    /// Reply carried a span id the registry never allocated.
    UnknownSpan,
    /// Reply carried no span (sent outside any tracked invocation).
    Untracked,
}

// ---------------------------------------------------------------------------
// Interned (service, op) keys
// ---------------------------------------------------------------------------

/// Marks the end of a [`KeyName::next`] chain.
const NO_KEY: u32 = u32::MAX;

/// Registry-wide interning of `(service, op)` names to dense `u32` keys,
/// in first-seen order. Keys never leave the registry: everything it
/// reports is keyed by name.
#[derive(Debug, Default)]
pub(crate) struct KeyTable {
    /// The last key interned under each FNV hash; earlier keys with the
    /// same hash chain through [`KeyName::next`].
    heads: HashMap<u64, u32, BuildHasherDefault<HashIsKey>>,
    names: Vec<KeyName>,
}

#[derive(Debug)]
struct KeyName {
    service: Box<str>,
    op: Box<str>,
    /// Previous key interned under the same hash, or [`NO_KEY`].
    next: u32,
}

/// The map key is already an FNV hash: use it as is.
#[derive(Default)]
struct HashIsKey(u64);

impl Hasher for HashIsKey {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("KeyTable hashes only u64 keys")
    }

    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }
}

impl KeyTable {
    /// The key of `(service, op)`, whose [`key_hash`] is `hash`, if interned.
    fn find(&self, hash: u64, service: &str, op: &str) -> Option<u32> {
        let mut key = *self.heads.get(&hash)?;
        while key != NO_KEY {
            let name = &self.names[key as usize];
            if *name.service == *service && *name.op == *op {
                return Some(key);
            }
            key = name.next;
        }
        None
    }

    /// The key of `(service, op)`, interning it if new.
    fn intern(&mut self, hash: u64, service: &str, op: &str) -> u32 {
        if let Some(key) = self.find(hash, service, op) {
            return key;
        }
        let key = u32::try_from(self.names.len())
            .ok()
            .filter(|&k| k != NO_KEY)
            .expect("fewer than 2^32 - 1 distinct (service, op) pairs");
        let next = self.heads.insert(hash, key).unwrap_or(NO_KEY);
        self.names.push(KeyName {
            service: service.into(),
            op: op.into(),
            next,
        });
        key
    }

    /// The `(service, op)` names of `key`.
    pub(crate) fn names(&self, key: u32) -> (&str, &str) {
        let name = &self.names[key as usize];
        (&name.service, &name.op)
    }
}

// ---------------------------------------------------------------------------
// The slab
// ---------------------------------------------------------------------------

/// Slots per slab page.
const PAGE_SLOTS: u64 = 1000;

/// `end_ns` of a span that is still open.
const OPEN: u64 = u64::MAX;

/// Bytes one span occupies in the table: a slot of a slab page, or of
/// the side map of kept exemplars.
pub const SPAN_SLOT_BYTES: u64 = std::mem::size_of::<Slot>() as u64;

/// Bytes of one slab page, the unit in which the slab grows and
/// shrinks. A run whose spans retire in about the order they opened
/// holds its resident spans plus at most two partial pages: the oldest,
/// partly retired, and the newest, partly allocated.
pub const SPAN_PAGE_BYTES: u64 = SPAN_SLOT_BYTES * PAGE_SLOTS;

const _: () = assert!(SPAN_SLOT_BYTES == 48, "a span slot is 48 bytes");

/// One span as the table stores it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slot {
    parent: u64,
    start_ns: u64,
    /// [`OPEN`] while the span is open.
    end_ns: u64,
    pub(crate) retransmissions: u64,
    replies: u64,
    /// Interned `(service, op)`; see [`KeyTable`].
    key: u32,
    pub(crate) kind: SpanKind,
    ok: bool,
    /// False once the span has left its page (retired, or kept and moved
    /// to the side map).
    in_page: bool,
}

impl Slot {
    pub(crate) fn is_open(&self) -> bool {
        self.end_ns == OPEN
    }

    /// The public record of the span with id `id` stored in this slot.
    fn to_record(self, id: u64, keys: &KeyTable) -> SpanRecord {
        let (service, op) = keys.names(self.key);
        let closed = !self.is_open();
        SpanRecord {
            id: SpanId(id),
            parent: SpanId(self.parent),
            kind: self.kind,
            service: service.to_string(),
            op: op.to_string(),
            start_ns: self.start_ns,
            end_ns: closed.then_some(self.end_ns),
            ok: closed.then_some(self.ok),
            retransmissions: self.retransmissions,
            replies: self.replies,
        }
    }
}

#[derive(Debug)]
struct Page {
    /// Allocated so far, in count order; capacity [`PAGE_SLOTS`].
    slots: Vec<Slot>,
    /// Slots that have left the page.
    gone: u64,
}

/// The span table, with its residency and retirement gauges and the
/// statistics the closing spans recorded.
///
/// `bytes` is what the slab holds: [`SPAN_PAGE_BYTES`] per live page
/// plus [`SPAN_SLOT_BYTES`] per kept exemplar (the side map's keys and
/// nodes are not counted, nor are `stats`). It is a function of the
/// sequence of span calls, so it is deterministic.
#[derive(Debug, Default)]
pub(crate) struct SpanSlab {
    /// Spans opened so far: a count below this was allocated.
    opened: u64,
    /// Page number of `pages[0]`; every earlier page was freed.
    first_page: u64,
    /// Pages from `first_page` on; `None` once freed.
    pages: VecDeque<Option<Page>>,
    /// Closed spans the retirement sampler kept, by count.
    kept: BTreeMap<u64, Slot>,
    /// Retirement-eligible closes so far: the keep-every-nth sampler's
    /// sequence.
    closed_seq: u64,
    pub(crate) retired: u64,
    pub(crate) sampled: u64,
    /// Retransmissions noted for spans already retired.
    pub(crate) retired_retransmissions: u64,
    /// Open spans plus kept exemplars.
    pub(crate) resident: u64,
    pub(crate) resident_peak: u64,
    pub(crate) bytes: u64,
    pub(crate) bytes_peak: u64,
    /// Per-key histograms, retired folds and pinned exemplars.
    pub(crate) stats: KeyStats,
}

impl SpanSlab {
    fn grow(&mut self, bytes: u64) {
        self.bytes += bytes;
        self.bytes_peak = self.bytes_peak.max(self.bytes);
    }

    /// Stores a new span; returns its count.
    fn push(&mut self, slot: Slot) -> u64 {
        let count = self.opened;
        if count.is_multiple_of(PAGE_SLOTS) {
            self.pages.push_back(Some(Page {
                slots: Vec::with_capacity(PAGE_SLOTS as usize),
                gone: 0,
            }));
            self.grow(SPAN_PAGE_BYTES);
        }
        self.pages
            .back_mut()
            .and_then(Option::as_mut)
            .expect("a page is freed only once full, so the one being filled is live")
            .slots
            .push(slot);
        self.opened += 1;
        self.resident += 1;
        self.resident_peak = self.resident_peak.max(self.resident);
        count
    }

    /// Where the span at `count` sits in a live page, if it is still there.
    fn locate(&self, count: u64) -> Option<(usize, usize)> {
        let page = usize::try_from((count / PAGE_SLOTS).checked_sub(self.first_page)?).ok()?;
        let slot = (count % PAGE_SLOTS) as usize;
        let live = self.pages.get(page)?.as_ref()?.slots.get(slot)?.in_page;
        live.then_some((page, slot))
    }

    /// The resident span at `count` (open, closed, or kept).
    fn get(&self, count: u64) -> Option<&Slot> {
        match self.locate(count) {
            Some((page, slot)) => self.pages[page].as_ref().map(|p| &p.slots[slot]),
            None => self.kept.get(&count),
        }
    }

    fn get_mut(&mut self, count: u64) -> Option<&mut Slot> {
        match self.locate(count) {
            Some((page, slot)) => self.pages[page].as_mut().map(|p| &mut p.slots[slot]),
            None => self.kept.get_mut(&count),
        }
    }

    /// Takes the just-closed span at `count` out of the table under the
    /// keep-every-nth sampler: kept exemplars move to the side map, the
    /// rest are retired. Returns true if the span was retired (so its
    /// counts must fold into the aggregates). Frees the span's page once
    /// every slot of it has left.
    fn retire(&mut self, count: u64, keep_every: u64) -> bool {
        self.closed_seq += 1;
        let keep = keep_every != 0 && self.closed_seq.is_multiple_of(keep_every);
        let (page, slot) = self.locate(count).expect("a span closes while in its page");
        let p = self.pages[page].as_mut().expect("located in a live page");
        p.slots[slot].in_page = false;
        let rec = p.slots[slot];
        p.gone += 1;
        if p.gone == PAGE_SLOTS {
            self.pages[page] = None;
            self.bytes -= SPAN_PAGE_BYTES;
            while let Some(None) = self.pages.front() {
                self.pages.pop_front();
                self.first_page += 1;
            }
        }
        if keep {
            self.kept.insert(count, rec);
            self.sampled += 1;
            self.grow(SPAN_SLOT_BYTES);
        } else {
            self.retired += 1;
            self.resident -= 1;
        }
        !keep
    }

    /// Every resident span as `(count, slot)`, in no particular order.
    pub(crate) fn resident(&self) -> impl Iterator<Item = (u64, &Slot)> {
        let in_pages = self.pages.iter().enumerate().flat_map(move |(i, page)| {
            let base = (self.first_page + i as u64) * PAGE_SLOTS;
            page.iter().flat_map(move |p| {
                p.slots
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.in_page)
                    .map(move |(j, s)| (base + j as u64, s))
            })
        });
        in_pages.chain(self.kept.iter().map(|(&c, s)| (c, s)))
    }
}

// ---------------------------------------------------------------------------
// The registry's span calls
// ---------------------------------------------------------------------------

impl MetricsRegistry {
    /// The key of `(service, op)`, interning it if new. The read lock is
    /// the common case: a run has few distinct pairs.
    pub(crate) fn intern(&self, service: &str, op: &str) -> u32 {
        let hash = key_hash(service, op);
        let found = self.keys().find(hash, service, op);
        match found {
            Some(key) => key,
            None => self
                .keys
                .write()
                .unwrap_or_else(|e| e.into_inner())
                .intern(hash, service, op),
        }
    }

    /// Owned `(service, op)` names of `key`.
    fn key_names(&self, key: u32) -> (String, String) {
        let keys = self.keys();
        let (service, op) = keys.names(key);
        (service.to_string(), op.to_string())
    }

    /// The span table.
    pub(crate) fn slab(&self) -> std::sync::MutexGuard<'_, SpanSlab> {
        self.spans.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// `Some(keep_every)` while retirement is armed.
    fn retirement(&self) -> Option<u64> {
        self.retire_enabled
            .load(Ordering::Relaxed)
            .then(|| self.retire_keep_every.load(Ordering::Relaxed))
    }

    /// Opens a span and returns its id (never [`SpanId::NONE`] while the
    /// plane is enabled; always [`SpanId::NONE`] when disabled).
    pub fn open_span(
        &self,
        kind: SpanKind,
        parent: SpanId,
        service: &str,
        op: &str,
        now_ns: u64,
    ) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        let t0 = self.sm_start();
        let key = self.intern(service, op);
        let count = self.slab().push(Slot {
            parent: parent.0,
            start_ns: now_ns,
            end_ns: OPEN,
            retransmissions: 0,
            replies: 0,
            key,
            kind,
            ok: false,
            in_page: true,
        });
        self.sm_end(t0);
        SpanId(count + 1)
    }

    /// Closes a span and, for `Invoke` and `Dispatch` spans, records its
    /// duration into the `(service, op)` histogram. Closing
    /// [`SpanId::NONE`] or an already-closed span is a no-op. When
    /// retirement is armed the closed record folds into its
    /// aggregate and leaves the table (unless the sampler keeps it).
    pub fn close_span(&self, id: SpanId, now_ns: u64, ok: bool) {
        if !id.is_some() || !self.on() {
            return;
        }
        let t0 = self.sm_start();
        let wd = if self.wd_enabled.load(Ordering::Relaxed) {
            self.misc().watchdog
        } else {
            None
        };
        let count = id.0 - 1;
        let (closed, dur) = {
            let mut slab = self.slab();
            let Some(slot) = slab.get_mut(count).filter(|s| s.is_open()) else {
                drop(slab);
                self.sm_end(t0);
                return;
            };
            slot.end_ns = now_ns;
            slot.ok = ok;
            let closed = *slot;
            let retired = match self.retirement() {
                Some(keep_every)
                    if matches!(closed.kind, SpanKind::Invoke | SpanKind::Dispatch) =>
                {
                    slab.retire(count, keep_every)
                }
                _ => false,
            };
            let dur = now_ns.saturating_sub(closed.start_ns);
            let stats = &mut slab.stats;
            // The watchdog judges the closing call against the p99 of the
            // calls *before* it, so the outlier cannot raise its
            // own bar.
            if let Some(cfg) = wd.filter(|_| closed.kind == SpanKind::Invoke) {
                let p99 = stats
                    .hists
                    .get(closed.key as usize)
                    .and_then(Option::as_ref)
                    .filter(|h| h.count() >= cfg.min_samples)
                    .map(|h| h.p99())
                    .unwrap_or(0);
                let rel = if p99 > 0 {
                    Some((cfg.multiplier * p99 as f64) as u64)
                } else {
                    None
                };
                let tripped = match (rel, cfg.slo_ns) {
                    (Some(r), Some(s)) if dur > r.min(s) => {
                        Some(if r <= s { (r, "p99") } else { (s, "slo") })
                    }
                    (Some(r), None) if dur > r => Some((r, "p99")),
                    (None, Some(s)) if dur > s => Some((s, "slo")),
                    _ => None,
                };
                if let Some((threshold_ns, trigger)) = tripped {
                    if stats.exemplars.len() < cfg.max_exemplars {
                        let (service, op) = self.key_names(closed.key);
                        stats.exemplars.push(Exemplar {
                            span: id,
                            service,
                            op,
                            start_ns: closed.start_ns,
                            latency_ns: dur,
                            threshold_ns,
                            p99_ns: p99,
                            trigger,
                            ok,
                            breakdown: None,
                        });
                    } else {
                        stats.exemplars_suppressed += 1;
                    }
                }
            }
            if matches!(closed.kind, SpanKind::Invoke | SpanKind::Dispatch) {
                stats.hist(closed.key).record(dur);
            }
            if retired {
                let agg = stats.retired(closed.key);
                match closed.kind {
                    SpanKind::Invoke => agg.invokes += 1,
                    SpanKind::Dispatch => agg.dispatches += 1,
                    SpanKind::Oneway => agg.oneways += 1,
                }
                agg.retransmissions += closed.retransmissions;
            }
            (closed, dur)
        };
        if closed.kind == SpanKind::Invoke && self.timeseries_enabled() {
            let (service, _) = self.key_names(closed.key);
            let outcome = if ok { "calls_ok" } else { "calls_err" };
            self.ts_add(now_ns, &format!("{outcome}@{service}"), 1);
            self.ts_observe(now_ns, &format!("latency@{service}"), dur);
        }
        self.sm_end(t0);
    }

    /// Notes a retransmission of the request belonging to `id`, sent at
    /// `now_ns` (it also lands in the `retx@<service>` window of the
    /// flight recorder, when enabled). A span already retired counts
    /// toward the run total without a record to land on.
    pub fn span_retransmit_at(&self, id: SpanId, now_ns: u64) {
        if !id.is_some() || !self.on() {
            return;
        }
        let t0 = self.sm_start();
        let count = id.0 - 1;
        let key = {
            let mut slab = self.slab();
            match slab.get_mut(count) {
                Some(slot) => {
                    slot.retransmissions += 1;
                    Some(slot.key)
                }
                None => {
                    if count < slab.opened {
                        slab.retired_retransmissions += 1;
                    }
                    None
                }
            }
        };
        if let Some(key) = key.filter(|_| self.timeseries_enabled()) {
            let (service, _) = self.key_names(key);
            self.ts_add(now_ns, &format!("retx@{service}"), 1);
        }
        self.sm_end(t0);
    }

    /// Notes a reply observed for the raw wire span `raw` and classifies
    /// it against the registry's span table. A reply for a span that was
    /// allocated but has since been retired is `Late` — retirement only
    /// ever evicts *closed* spans, so any further reply is by definition
    /// a duplicate or stale one. An id never allocated is `UnknownSpan`.
    pub fn span_reply(&self, raw: u64, _now_ns: u64) -> ReplyKind {
        if !self.on() {
            return ReplyKind::Untracked;
        }
        let t0 = self.sm_start();
        let kind = if raw == 0 {
            ReplyKind::Untracked
        } else {
            let count = raw - 1;
            let mut slab = self.slab();
            let allocated = count < slab.opened;
            match slab.get_mut(count) {
                Some(slot) => {
                    slot.replies += 1;
                    if slot.is_open() {
                        ReplyKind::Matched
                    } else {
                        ReplyKind::Late
                    }
                }
                None if allocated => ReplyKind::Late,
                None => ReplyKind::UnknownSpan,
            }
        };
        let counters = &self.counters;
        match kind {
            ReplyKind::Matched => &counters.replies_matched,
            ReplyKind::Late => &counters.replies_late,
            ReplyKind::UnknownSpan => &counters.replies_unknown_span,
            ReplyKind::Untracked => &counters.replies_untracked,
        }
        .fetch_add(1, Ordering::Relaxed);
        self.sm_end(t0);
        kind
    }

    /// Records a one-way notification as an immediately-closed span
    /// parented to `parent` (commonly the dispatch span that triggered
    /// the notification). Returns the new span's id.
    pub fn note_oneway(&self, parent: SpanId, service: &str, op: &str, now_ns: u64) -> SpanId {
        if !self.on() {
            return SpanId::NONE;
        }
        let id = self.open_span(SpanKind::Oneway, parent, service, op, now_ns);
        if !id.is_some() {
            return id;
        }
        let t0 = self.sm_start();
        let count = id.0 - 1;
        let mut slab = self.slab();
        let slot = slab.get_mut(count).expect("span just opened");
        // Close without touching the latency histograms: a one-way has
        // no observable duration.
        slot.end_ns = now_ns;
        slot.ok = true;
        let key = slot.key;
        if let Some(keep_every) = self.retirement() {
            if slab.retire(count, keep_every) {
                slab.stats.retired(key).oneways += 1;
            }
        }
        drop(slab);
        self.sm_end(t0);
        id
    }

    /// Visits every resident span in ascending id order. The visitor
    /// sees one record at a time, built from the slab on the way (the
    /// slab is locked meanwhile), so building a trace or checking
    /// invariants costs O(resident), not O(all-time) heap.
    pub fn for_each_span(&self, mut f: impl FnMut(&SpanRecord)) {
        let slab = self.slab();
        let mut spans: Vec<(u64, &Slot)> = slab.resident().collect();
        spans.sort_unstable_by_key(|&(count, _)| count);
        let keys = self.keys();
        for (count, slot) in spans {
            f(&slot.to_record(count + 1, &keys));
        }
    }

    /// Copy of one resident span record, if `id` is still in the table.
    pub fn span_record(&self, id: SpanId) -> Option<SpanRecord> {
        if !id.is_some() {
            return None;
        }
        let slot = *self.slab().get(id.0 - 1)?;
        Some(slot.to_record(id.0, &self.keys()))
    }

    /// Number of spans opened so far.
    pub fn span_count(&self) -> u64 {
        self.slab().opened
    }

    /// True if `id` has been allocated.
    fn allocated(&self, id: SpanId) -> bool {
        id.0 - 1 < self.slab().opened
    }

    /// Checks the structural causality invariants of the span table and
    /// returns a human-readable description of each violation:
    ///
    /// * every parent reference points at an allocated span,
    /// * a child span never starts before its parent (when the parent is
    ///   still resident — a retired parent was a valid closed span),
    /// * every `Dispatch` span has an `Invoke` or `Dispatch` parent,
    /// * no reply was observed for a span id that was never allocated.
    pub fn verify_causality(&self) -> Vec<String> {
        let mut spans: Vec<SpanRecord> = Vec::new();
        self.for_each_span(|rec| spans.push(rec.clone()));
        let by_id: HashMap<u64, usize> =
            spans.iter().enumerate().map(|(i, r)| (r.id.0, i)).collect();
        let mut violations = Vec::new();
        for rec in &spans {
            if rec.parent.is_some() {
                if !self.allocated(rec.parent) {
                    violations.push(format!(
                        "{} ({} {}/{}) has unallocated parent {}",
                        rec.id,
                        rec.kind.label(),
                        rec.service,
                        rec.op,
                        rec.parent
                    ));
                } else if let Some(&pi) = by_id.get(&rec.parent.0) {
                    let parent = &spans[pi];
                    if rec.start_ns < parent.start_ns {
                        violations.push(format!(
                            "{} starts at {}ns before its parent {} at {}ns",
                            rec.id, rec.start_ns, parent.id, parent.start_ns
                        ));
                    }
                    if rec.kind == SpanKind::Dispatch && parent.kind == SpanKind::Oneway {
                        violations.push(format!(
                            "dispatch {} is parented to one-way {}",
                            rec.id, parent.id
                        ));
                    }
                }
                // An allocated-but-absent parent was retired: it closed
                // validly, nothing left to cross-check.
            }
        }
        let unknown = self.counters.replies_unknown_span.load(Ordering::Relaxed);
        if unknown > 0 {
            violations.push(format!(
                "{unknown} replies carried span ids never allocated"
            ));
        }
        violations
    }
}
