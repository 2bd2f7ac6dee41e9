//! Trace and report exporters, all printed through the one JSON model
//! ([`crate::json`]).
//!
//! * [`to_chrome_json`] emits the Trace Event Format understood by
//!   Perfetto / `chrome://tracing`: one *process* track per context
//!   (each service gets a track, each simulated node gets a track),
//!   spans as complete (`"ph":"X"`) duration events laid out on
//!   non-overlapping thread lanes, network events as instants, and
//!   matched send→deliver pairs as flow arrows (`"s"`/`"f"`).
//! * [`to_jsonl`] / [`from_jsonl`] round-trip the full causal trace
//!   through a line-per-event log, so `tracectl analyze` can work on a
//!   file long after the simulation is gone.
//! * [`validate_chrome`] structurally checks an exported Chrome trace —
//!   the CI smoke test fails on malformed output.
//! * [`validate_report`] reads a run report back, re-prints it, and
//!   checks what the format promises beyond its shape.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::fmt::Write as _;

use crate::json::{self, json_model, member, Json, JsonModel};
use crate::trace::{CausalEvent, CausalTrace, Loc, NetEvent, NetEventKind};
use crate::{RunReport, SpanKind, SpanRecord};

// ---------------------------------------------------------------------------
// The per-event mapping (JSONL lines and Chrome instant args)
// ---------------------------------------------------------------------------

json_model! {
    Loc { node, port }
    SpanRecord {
        id, parent, kind, service, op, start_ns: "t", end_ns, ok,
        retransmissions: "retx", replies,
    }
}

json_model! {
    enum NetEventKind by "k" {
        Sent "sent" { src, dst, bytes },
        Delivered "delivered" { src, dst, bytes },
        Dropped "dropped" { src, dst },
        Blackholed "blackholed" { src, dst },
        Batched "batched" { src, dst, count },
        Retransmit "retransmit" { src, dst, attempt },
        ServerExecute "server_execute" { service, op, dur_ns },
        ProxyCacheHit "cache_hit" { service, op },
        ProxyCacheMiss "cache_miss" { service, op },
        Forwarded "forwarded" { from, to },
        Migrated "migrated" { service, from, to },
    }
}

impl JsonModel for SpanKind {
    fn to_value(&self) -> Json {
        Json::from(self.label())
    }

    fn from_value(v: &Json) -> Result<SpanKind, String> {
        [SpanKind::Invoke, SpanKind::Dispatch, SpanKind::Oneway]
            .into_iter()
            .find(|k| v.as_str() == Some(k.label()))
            .ok_or_else(|| format!("bad span kind {v}"))
    }
}

/// A network event: its kind's members plus `t` and `span`.
impl JsonModel for NetEvent {
    fn to_value(&self) -> Json {
        let mut v = self.kind.to_value();
        v.insert("t", self.at_ns.into());
        v.insert("span", self.span.to_value());
        v
    }

    fn from_value(v: &Json) -> Result<NetEvent, String> {
        Ok(NetEvent {
            kind: NetEventKind::from_value(v)?,
            at_ns: member(v, "t")?,
            span: member(v, "span")?,
        })
    }
}

/// One JSONL line: a span (`"k":"span"`) or a network event.
impl JsonModel for CausalEvent {
    fn to_value(&self) -> Json {
        match self {
            CausalEvent::Span(s) => {
                let mut v = s.to_value();
                v.insert("k", "span".into());
                v
            }
            CausalEvent::Net(e) => e.to_value(),
        }
    }

    fn from_value(v: &Json) -> Result<CausalEvent, String> {
        match v.str_field("k") {
            Some("span") => SpanRecord::from_value(v).map(CausalEvent::Span),
            _ => NetEvent::from_value(v).map(CausalEvent::Net),
        }
    }
}

// ---------------------------------------------------------------------------
// Chrome Trace Format
// ---------------------------------------------------------------------------

/// The track a network event is drawn on: its node's, with the port as
/// the thread, or for a service-level event its service's.
fn net_event_track(e: &NetEvent) -> (String, u64) {
    let node = |loc: &Loc| (format!("node {}", loc.node), u64::from(loc.port));
    match &e.kind {
        NetEventKind::Sent { src, .. }
        | NetEventKind::Dropped { src, .. }
        | NetEventKind::Blackholed { src, .. }
        | NetEventKind::Retransmit { src, .. }
        | NetEventKind::Batched { src, .. } => node(src),
        NetEventKind::Delivered { dst, .. } => node(dst),
        NetEventKind::Forwarded { from, .. } => node(from),
        NetEventKind::ServerExecute { service, .. }
        | NetEventKind::ProxyCacheHit { service, .. }
        | NetEventKind::ProxyCacheMiss { service, .. }
        | NetEventKind::Migrated { service, .. } => (service.clone(), 0),
    }
}

/// Simulated nanoseconds as the format's microseconds.
fn micros(ns: u64) -> Json {
    Json::Num(ns as f64 / 1000.0)
}

struct ChromeWriter {
    out: String,
    first: bool,
    /// process-track name → pid (1-based, dense).
    pids: BTreeMap<String, u64>,
}

impl ChromeWriter {
    fn pid(&mut self, track: &str) -> u64 {
        if let Some(&p) = self.pids.get(track) {
            return p;
        }
        let p = self.pids.len() as u64 + 1;
        self.pids.insert(track.to_owned(), p);
        p
    }

    fn event(&mut self, ev: Json) {
        if !self.first {
            self.out.push_str(",\n");
        }
        self.first = false;
        let _ = write!(self.out, "{ev}");
    }
}

/// Exports the trace as Chrome Trace Format JSON, one event per line.
///
/// Load the result in [Perfetto](https://ui.perfetto.dev) or
/// `chrome://tracing`. Spans whose service is `S` land on the `S`
/// process track; network instants land on their node's `node N` track
/// with the port as the thread id, and carry the event's JSONL form as
/// their args.
pub fn to_chrome_json(trace: &CausalTrace) -> String {
    let mut w = ChromeWriter {
        out: String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"),
        first: true,
        pids: BTreeMap::new(),
    };

    // Spans → "X" complete events on greedy non-overlapping lanes.
    let mut lanes: HashMap<u64, Vec<u64>> = HashMap::new(); // pid → lane end times
    for span in trace.spans() {
        let pid = w.pid(&span.service);
        // An open span is a zero-length marker so it is still visible.
        let (ts, dur) = (
            span.start_ns,
            span.end_ns
                .map_or(0, |end| end.saturating_sub(span.start_ns)),
        );
        let lane_ends = lanes.entry(pid).or_default();
        let lane = match lane_ends.iter().position(|&end| end <= ts) {
            Some(i) => {
                lane_ends[i] = ts + dur;
                i
            }
            None => {
                lane_ends.push(ts + dur);
                lane_ends.len() - 1
            }
        };
        let mut args = Json::obj([
            ("span", span.id.to_value()),
            ("parent", span.parent.to_value()),
            ("kind", span.kind.to_value()),
        ]);
        if let Some(ok) = span.ok {
            args.insert("ok", Json::Bool(ok));
        }
        if span.retransmissions > 0 {
            args.insert("retx", span.retransmissions.into());
        }
        w.event(Json::obj([
            ("name", Json::Str(format!("{}/{}", span.service, span.op))),
            ("cat", "span".into()),
            ("ph", "X".into()),
            ("ts", micros(ts)),
            ("dur", micros(dur)),
            ("pid", pid.into()),
            ("tid", (lane as u64).into()),
            ("args", args),
        ]));
    }

    // Network events → instants, plus flow arrows for send→deliver.
    let mut flow_id = 0u64;
    let mut pending_sends: HashMap<(u64, Loc, Loc), VecDeque<u64>> = HashMap::new();
    for e in trace.net_events() {
        let (track, tid) = net_event_track(e);
        let pid = w.pid(&track);
        w.event(Json::obj([
            ("name", e.kind.tag().into()),
            ("cat", "net".into()),
            ("ph", "i".into()),
            ("s", "t".into()),
            ("ts", micros(e.at_ns)),
            ("pid", pid.into()),
            ("tid", tid.into()),
            ("args", e.to_value()),
        ]));

        // Flow arrows: a Delivered matches the oldest unmatched Sent
        // with the same (span, src, dst).
        match &e.kind {
            NetEventKind::Sent { src, dst, .. } => {
                pending_sends
                    .entry((e.span.raw(), *src, *dst))
                    .or_default()
                    .push_back(e.at_ns);
            }
            NetEventKind::Delivered { src, dst, .. } => {
                let sent = pending_sends
                    .get_mut(&(e.span.raw(), *src, *dst))
                    .and_then(VecDeque::pop_front);
                if let Some(sent_ns) = sent {
                    flow_id += 1;
                    for (ph, at_ns, loc) in [("s", sent_ns, src), ("f", e.at_ns, dst)] {
                        let mut flow = Json::obj([
                            ("name", "msg".into()),
                            ("cat", "flow".into()),
                            ("ph", ph.into()),
                            ("id", flow_id.into()),
                            ("ts", micros(at_ns)),
                            ("pid", w.pid(&format!("node {}", loc.node)).into()),
                            ("tid", u64::from(loc.port).into()),
                        ]);
                        if ph == "f" {
                            flow.insert("bp", "e".into());
                        }
                        w.event(flow);
                    }
                }
            }
            _ => {}
        }
    }

    // Metadata events naming every track, emitted last (Chrome does not
    // care about the order of "M" events).
    let pids = std::mem::take(&mut w.pids);
    for (name, pid) in pids {
        w.event(Json::obj([
            ("name", "process_name".into()),
            ("ph", "M".into()),
            ("pid", pid.into()),
            ("tid", 0u64.into()),
            ("args", Json::obj([("name", Json::Str(name))])),
        ]));
    }
    w.out.push_str("\n]}\n");
    w.out
}

/// Summary returned by [`validate_chrome`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ChromeSummary {
    /// Total events (excluding metadata).
    pub events: usize,
    /// Duration (`"X"`) events.
    pub spans: usize,
    /// Instant (`"i"`) events.
    pub instants: usize,
    /// Flow (`"s"`/`"f"`) events.
    pub flows: usize,
    /// Distinct process tracks.
    pub tracks: usize,
}

/// Structurally validates a Chrome Trace Format document.
///
/// Checks the shape the Trace Event Format requires: a `traceEvents`
/// array whose members carry a one-character `ph`, integer `pid`/`tid`,
/// a numeric `ts` (except metadata), a non-negative `dur` on `X`
/// events, `id` on flow events — and that every track in use is named
/// by a `process_name` metadata event (one track per context).
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_chrome(text: &str) -> Result<ChromeSummary, String> {
    let doc = json::parse(text).map_err(|e| e.to_string())?;
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing traceEvents array")?;
    if events.is_empty() {
        return Err("empty traceEvents".into());
    }
    let mut summary = ChromeSummary::default();
    let mut named_pids = Vec::new();
    let mut used_pids = Vec::new();
    for (i, ev) in events.iter().enumerate() {
        let at = |msg: &str| format!("traceEvents[{i}]: {msg}");
        let obj = ev.as_obj().ok_or_else(|| at("not an object"))?;
        let ph = obj
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| at("missing ph"))?;
        if ph.len() != 1 || !"XBEiIsfMbenS".contains(ph) {
            return Err(at(&format!("bad ph {ph:?}")));
        }
        let pid = ev.u64_field("pid").ok_or_else(|| at("missing pid"))?;
        ev.u64_field("tid").ok_or_else(|| at("missing tid"))?;
        if ph == "M" {
            if ev.str_field("name") == Some("process_name") {
                let named = ev
                    .get("args")
                    .and_then(|a| a.str_field("name"))
                    .ok_or_else(|| at("process_name without args.name"))?;
                if named.is_empty() {
                    return Err(at("empty process name"));
                }
                named_pids.push(pid);
            }
            continue;
        }
        ev.get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| at("missing ts"))?;
        used_pids.push(pid);
        summary.events += 1;
        match ph {
            "X" => {
                let dur = ev
                    .get("dur")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| at("X without dur"))?;
                if dur < 0.0 {
                    return Err(at("negative dur"));
                }
                ev.str_field("name").ok_or_else(|| at("X without name"))?;
                summary.spans += 1;
            }
            "i" | "I" => summary.instants += 1,
            "s" | "f" => {
                ev.u64_field("id").ok_or_else(|| at("flow without id"))?;
                summary.flows += 1;
            }
            _ => {}
        }
    }
    named_pids.sort_unstable();
    named_pids.dedup();
    used_pids.sort_unstable();
    used_pids.dedup();
    for pid in &used_pids {
        if named_pids.binary_search(pid).is_err() {
            return Err(format!("pid {pid} has events but no process_name metadata"));
        }
    }
    summary.tracks = used_pids.len();
    Ok(summary)
}

// ---------------------------------------------------------------------------
// JSONL
// ---------------------------------------------------------------------------

/// The `{"k":"meta",...}` header line's counters.
const META: [&str; 3] = ["evicted", "sampled_out_spans", "sampled_out_events"];

/// Exports the trace as one JSON object per line.
///
/// The first line is a `{"k":"meta",...}` header carrying the
/// eviction/sampling counters; every following line is either a
/// `{"k":"span",...}` record or a network event keyed by
/// [`NetEventKind::tag`]. [`from_jsonl`] reads the format back.
pub fn to_jsonl(trace: &CausalTrace) -> String {
    let counts = [
        trace.evicted,
        trace.sampled_out_spans,
        trace.sampled_out_events,
    ];
    let mut meta = Json::obj([("k", "meta".into())]);
    for (key, n) in META.into_iter().zip(counts) {
        meta.insert(key, n.into());
    }
    let mut out = format!("{meta}\n");
    for ev in &trace.events {
        let _ = writeln!(out, "{}", ev.to_value());
    }
    out
}

/// Reads a JSONL trace produced by [`to_jsonl`] back into a
/// [`CausalTrace`].
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn from_jsonl(text: &str) -> Result<CausalTrace, String> {
    let mut trace = CausalTrace::default();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let at = |msg: String| format!("line {}: {msg}", lineno + 1);
        let v = json::parse(line).map_err(|e| at(e.to_string()))?;
        if v.str_field("k") == Some("meta") {
            let [evicted, spans, events] = META.map(|key| member(&v, key));
            trace.evicted = evicted.map_err(at)?;
            trace.sampled_out_spans = spans.map_err(at)?;
            trace.sampled_out_events = events.map_err(at)?;
        } else {
            trace.events.push(CausalEvent::from_value(&v).map_err(at)?);
        }
    }
    trace.events.sort_by_key(CausalEvent::at_ns);
    Ok(trace)
}

// ---------------------------------------------------------------------------
// Run-report validation
// ---------------------------------------------------------------------------

/// Validates a `RunReport` JSON document and returns the report it
/// holds. It must read back through [`RunReport::from_json`] and
/// re-print to the same bytes, and then keep the promises its shape
/// cannot express:
///
/// * `timeseries.windows` (when present) are in strictly increasing
///   start order, each aligned to a nonzero `width_ns`; every gauge has
///   `min ≤ max`, every histogram `min ≤ max` and `p50 ≤ p95 ≤ p99 ≤
///   max`,
/// * every exemplar's latency exceeds its threshold, and — when a
///   breakdown is attached — its queue/wire/server/retransmit
///   components tile the latency *exactly*,
/// * the obs self-measurement gauges do not exceed their peaks, and
///   retirement conserves spans: retired + resident equals the spans the
///   run allocated (`started + oneways`),
/// * the profiler section (when present) has `frames_resident` equal to
///   its frame count, and every frame path is well-formed with a
///   nonzero call count.
///
/// # Errors
///
/// Returns a description of the first violation found.
pub fn validate_report(text: &str) -> Result<RunReport, String> {
    let report = RunReport::from_json(text)?;
    if report.to_json() != text {
        return Err("not canonical: re-printing the report changes its bytes".into());
    }
    if let Some(ts) = &report.timeseries {
        if ts.width_ns == 0 {
            return Err("timeseries width_ns is 0".into());
        }
        let mut prev: Option<u64> = None;
        for (i, w) in ts.windows.iter().enumerate() {
            let at = |msg: &str| format!("windows[{i}]: {msg}");
            if w.start_ns % ts.width_ns != 0 {
                return Err(at("start_ns not aligned to width_ns"));
            }
            if prev.is_some_and(|p| w.start_ns <= p) {
                return Err(at("window starts not strictly increasing"));
            }
            prev = Some(w.start_ns);
            if let Some((name, _)) = w.gauges.iter().find(|(_, g)| g.min > g.max) {
                return Err(at(&format!("gauge {name:?} min > max")));
            }
            if let Some((name, _)) = w.hists.iter().find(|(_, h)| {
                h.min_ns > h.max_ns
                    || h.p50_ns > h.p95_ns
                    || h.p95_ns > h.p99_ns
                    || h.p99_ns > h.max_ns
            }) {
                return Err(at(&format!("histogram {name:?} quantiles out of order")));
            }
        }
    }
    for (i, ex) in report.exemplars.iter().enumerate() {
        let at = |msg: &str| format!("exemplars[{i}]: {msg}");
        if ex.latency_ns <= ex.threshold_ns {
            return Err(at("latency does not exceed threshold"));
        }
        if let Some(b) = ex.breakdown {
            let total = b.queue_ns + b.wire_ns + b.server_ns + b.retransmit_ns;
            if total != ex.latency_ns {
                return Err(at(&format!(
                    "breakdown sums to {total}ns, span is {}ns",
                    ex.latency_ns
                )));
            }
        }
    }
    let obs = report.obs;
    if obs.spans_resident > obs.spans_resident_peak {
        return Err("obs: spans_resident exceeds its peak".into());
    }
    if obs.span_table_bytes > obs.span_table_bytes_peak {
        return Err("obs: span_table_bytes exceeds its peak".into());
    }
    let allocated = report.spans.started + report.spans.oneways;
    if obs.spans_retired + obs.spans_resident != allocated {
        return Err(format!(
            "obs: retirement does not conserve spans — \
             {} retired + {} resident != {allocated} allocated",
            obs.spans_retired, obs.spans_resident
        ));
    }
    if let Some(prof) = &report.profile {
        if prof.frames.len() as u64 != prof.frames_resident {
            return Err(format!(
                "profile: frames_resident says {}, frames object has {}",
                prof.frames_resident,
                prof.frames.len()
            ));
        }
        for (path, st) in &prof.frames {
            if path.split(';').any(str::is_empty) {
                return Err(format!("profile frame {path:?}: empty frame in path"));
            }
            if st.calls == 0 {
                return Err(format!("profile frame {path:?}: zero calls"));
            }
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceSink;
    use crate::SpanId;

    fn sample_trace() -> CausalTrace {
        let mut sink = TraceSink::new();
        sink.push_span(SpanRecord {
            id: SpanId(1),
            parent: SpanId::NONE,
            kind: SpanKind::Invoke,
            service: "kv".into(),
            op: "get".into(),
            start_ns: 1_000,
            end_ns: Some(9_000),
            ok: Some(true),
            retransmissions: 1,
            replies: 1,
        });
        sink.push_span(SpanRecord {
            id: SpanId(2),
            parent: SpanId(1),
            kind: SpanKind::Dispatch,
            service: "kv-server".into(),
            op: "get".into(),
            start_ns: 4_000,
            end_ns: Some(5_000),
            ok: Some(true),
            retransmissions: 0,
            replies: 0,
        });
        let a = Loc::new(0, 70_000);
        let b = Loc::new(1, 10);
        for (at, kind) in [
            (
                1_100,
                NetEventKind::Sent {
                    src: a,
                    dst: b,
                    bytes: 64,
                },
            ),
            (
                1_500,
                NetEventKind::Batched {
                    src: a,
                    dst: b,
                    count: 3,
                },
            ),
            (2_000, NetEventKind::Dropped { src: a, dst: b }),
            (
                3_000,
                NetEventKind::Retransmit {
                    src: a,
                    dst: b,
                    attempt: 1,
                },
            ),
            (
                3_100,
                NetEventKind::Sent {
                    src: a,
                    dst: b,
                    bytes: 64,
                },
            ),
            (
                4_000,
                NetEventKind::Delivered {
                    src: a,
                    dst: b,
                    bytes: 64,
                },
            ),
            (
                5_000,
                NetEventKind::ServerExecute {
                    service: "kv-server".into(),
                    op: "get".into(),
                    dur_ns: 1_000,
                },
            ),
            (
                5_500,
                NetEventKind::ProxyCacheMiss {
                    service: "kv".into(),
                    op: "get".into(),
                },
            ),
            (
                5_600,
                NetEventKind::ProxyCacheHit {
                    service: "kv".into(),
                    op: "get".into(),
                },
            ),
            (
                6_000,
                NetEventKind::Forwarded {
                    from: b,
                    to: Loc::new(2, 10),
                },
            ),
            (
                7_000,
                NetEventKind::Migrated {
                    service: "kv".into(),
                    from: b,
                    to: Loc::new(2, 10),
                },
            ),
            (8_000, NetEventKind::Blackholed { src: b, dst: a }),
        ] {
            sink.push_net(NetEvent {
                at_ns: at,
                span: SpanId(1),
                kind,
            });
        }
        sink.build()
    }

    #[test]
    fn sample_trace_has_every_kind() {
        let trace = sample_trace();
        let mut tags: Vec<&str> = trace.net_events().map(|e| e.kind.tag()).collect();
        tags.sort_unstable();
        tags.dedup();
        assert_eq!(tags.len(), 11, "{tags:?}");
        // The JSONL mapping names each kind by its tag.
        for e in trace.net_events() {
            assert_eq!(e.to_value().str_field("k"), Some(e.kind.tag()));
        }
    }

    #[test]
    fn chrome_export_validates() {
        let trace = sample_trace();
        let text = to_chrome_json(&trace);
        let summary = validate_chrome(&text).expect("well-formed chrome trace");
        assert_eq!(summary.spans, 2, "both spans exported");
        assert_eq!(summary.flows, 2, "one matched send->deliver pair");
        assert_eq!(summary.instants, 12, "every network event drawn");
        // Tracks: kv, kv-server, node 0, node 1.
        assert_eq!(summary.tracks, 4);
    }

    #[test]
    fn validator_rejects_malformed() {
        assert!(validate_chrome("not json").is_err());
        assert!(validate_chrome("{\"traceEvents\":[]}").is_err());
        // Event without a named track.
        assert!(
            validate_chrome("{\"traceEvents\":[{\"ph\":\"i\",\"ts\":1,\"pid\":1,\"tid\":0}]}")
                .is_err()
        );
        // Missing ts.
        assert!(validate_chrome(
            "{\"traceEvents\":[{\"ph\":\"X\",\"pid\":1,\"tid\":0,\"dur\":1}]}"
        )
        .is_err());
        // A fractional pid is no integer.
        let named = r#"{"args":{"name":"n"},"name":"process_name","ph":"M","pid":1,"tid":0}"#;
        let doc = |pid: &str| {
            format!(r#"{{"traceEvents":[{named},{{"ph":"i","ts":1,"pid":{pid},"tid":0}}]}}"#)
        };
        assert!(validate_chrome(&doc("1")).is_ok());
        assert!(validate_chrome(&doc("1.5")).is_err());
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let text = to_jsonl(&trace);
        let back = from_jsonl(&text).expect("reimport");
        assert_eq!(back.events.len(), trace.events.len());
        assert_eq!(back.evicted, trace.evicted);
        assert_eq!(back.spans().count(), 2);
        let kinds: Vec<&str> = back.net_events().map(|e| e.kind.tag()).collect();
        let orig: Vec<&str> = trace.net_events().map(|e| e.kind.tag()).collect();
        assert_eq!(kinds, orig);
        // Structural equality of the net events survives the round trip.
        for (a, b) in back.net_events().zip(trace.net_events()) {
            assert_eq!(a, b);
        }
        // And so do the bytes.
        assert_eq!(to_jsonl(&back), text);
    }

    #[test]
    fn jsonl_rejects_malformed_lines() {
        assert!(from_jsonl("{\"k\":\"span\"}").is_err());
        assert!(from_jsonl("{\"t\":1}").is_err());
        assert!(from_jsonl("{\"k\":\"sent\",\"t\":1}").is_err());
        assert!(from_jsonl("{\"k\":\"warp\",\"t\":1}").is_err());
        // A fractional time is no nanosecond count.
        let sent = |t: &str| {
            format!(
                r#"{{"bytes":64,"dst":{{"node":1,"port":10}},"k":"sent","span":1,"src":{{"node":0,"port":7}},"t":{t}}}"#
            )
        };
        assert!(from_jsonl(&sent("1")).is_ok());
        assert!(from_jsonl(&sent("1.5")).is_err());
    }

    /// A live report with one SLO exemplar (latency 5 000 ns) and one
    /// flight-recorder window holding a gauge and a histogram.
    fn live_report() -> RunReport {
        use crate::{MetricsRegistry, MetricsSnapshot, WatchdogConfig};
        let reg = MetricsRegistry::new();
        reg.enable_timeseries(10_000, 8);
        reg.enable_watchdog(WatchdogConfig {
            slo_ns: Some(100),
            min_samples: u64::MAX,
            ..Default::default()
        });
        let sp = reg.open_span(SpanKind::Invoke, SpanId::NONE, "kv", "get", 0);
        reg.ts_gauge(10, "depth", 3);
        reg.close_span(sp, 5_000, true);
        reg.report(MetricsSnapshot::default(), 5_000)
    }

    fn windows(r: &mut RunReport) -> &mut Vec<crate::WindowReport> {
        &mut r.timeseries.as_mut().expect("recorder on").windows
    }

    #[test]
    fn report_validator_accepts_live_report_and_checks_tiling() {
        let mut report = live_report();
        let valid = validate_report(&report.to_json()).expect("valid report");
        assert_eq!(valid.to_json(), report.to_json());
        assert_eq!(valid.timeseries.map(|ts| ts.windows.len()), Some(1));
        assert_eq!(valid.exemplars.len(), 1);

        // A breakdown that does NOT tile the span: rejected.
        let mut b = crate::ExemplarBreakdown {
            queue_ns: 10,
            wire_ns: 10,
            server_ns: 10,
            retransmit_ns: 10,
            ..Default::default()
        };
        report.exemplars[0].breakdown = Some(b);
        let err = validate_report(&report.to_json()).unwrap_err();
        assert!(err.contains("breakdown sums to 40ns"), "{err}");
        // And one that does: accepted, counted.
        b.queue_ns = 4_970;
        report.exemplars[0].breakdown = Some(b);
        let valid = validate_report(&report.to_json()).expect("tiling breakdown accepted");
        assert_eq!(valid.exemplars[0].breakdown, Some(b));
    }

    #[test]
    fn report_validator_rejects_structural_damage() {
        assert!(validate_report("not json").is_err());
        assert!(validate_report("{\"end_time_ns\":1}").is_err());
        // Misaligned window start.
        let mut bad = live_report();
        windows(&mut bad)[0].start_ns = 500;
        assert!(validate_report(&bad.to_json())
            .unwrap_err()
            .contains("aligned"));
        // A report that reads back but was not printed canonically.
        let spaced = live_report().to_json().replacen(':', ": ", 1);
        let err = validate_report(&spaced).unwrap_err();
        assert!(err.contains("not canonical"), "{err}");
    }

    #[test]
    fn report_validator_rejects_non_increasing_windows() {
        let mut bad = live_report();
        let w = windows(&mut bad);
        w.push(w[0].clone());
        assert!(validate_report(&bad.to_json())
            .unwrap_err()
            .contains("strictly increasing"));
    }

    #[test]
    fn report_validator_rejects_non_numeric_values() {
        let text = live_report().to_json();
        let bad = text.replace("\"calls_ok@kv\":1", "\"calls_ok@kv\":\"abc\"");
        assert_ne!(bad, text);
        let err = validate_report(&bad).unwrap_err();
        assert!(err.contains("calls_ok@kv"), "{err}");
    }

    #[test]
    fn report_validator_rejects_gauge_min_above_max() {
        let mut bad = live_report();
        windows(&mut bad)[0].gauges.get_mut("depth").unwrap().min = 4;
        assert!(validate_report(&bad.to_json())
            .unwrap_err()
            .contains("min > max"));
    }

    #[test]
    fn report_validator_rejects_unordered_quantiles() {
        let mut bad = live_report();
        windows(&mut bad)[0]
            .hists
            .get_mut("latency@kv")
            .unwrap()
            .p50_ns = 6_000;
        assert!(validate_report(&bad.to_json())
            .unwrap_err()
            .contains("quantiles out of order"));
    }

    #[test]
    fn report_validator_checks_span_conservation() {
        let mut bad = live_report();
        bad.obs.spans_resident += 1;
        bad.obs.spans_resident_peak += 1;
        assert!(validate_report(&bad.to_json())
            .unwrap_err()
            .contains("does not conserve spans"));
    }
}
