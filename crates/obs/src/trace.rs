//! The unified causal trace: span records and network-level events
//! merged into one time-ordered timeline.
//!
//! The simulator records *what the network did* ([`crate::SpanRecord`]s
//! live in the [`crate::MetricsRegistry`], simnet's trace ring holds
//! `Sent`/`Delivered`/... events). Neither alone explains a slow
//! request: the proxy principle hides binding, retransmission,
//! forwarding and migration behind one local call, so the evidence is
//! split across layers. A [`TraceSink`] merges both streams into a
//! [`CausalTrace`] that exporters ([`crate::export`]) and the
//! critical-path analyzer ([`crate::analysis`]) consume.
//!
//! Every network and protocol event is declared once, here, as a
//! [`NetEventKind`]. This crate depends on nothing; simnet stores this
//! type in its trace ring as it is, so there is no second vocabulary to
//! convert from, and the kind's [`fmt::Display`] is the one text form of
//! an event.
//!
//! The trace is honest about what it lacks: the bound on the timeline is
//! simnet's ring, whose evictions the sink reports as
//! [`CausalTrace::evicted`], and the every-Nth-span sampling knob counts
//! what it sampled away, so a truncated trace can never be mistaken for a
//! complete one.

use std::collections::HashMap;
use std::fmt;

use crate::{SpanId, SpanKind, SpanRecord};

/// A node/port location — the neutral mirror of simnet's `Endpoint`,
/// kept here so `obs` needs no simulator dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Loc {
    /// Node (machine) id.
    pub node: u32,
    /// Port on that node.
    pub port: u32,
}

impl Loc {
    /// Builds a location.
    pub fn new(node: u32, port: u32) -> Loc {
        Loc { node, port }
    }
}

impl fmt::Display for Loc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}:p{}", self.node, self.port)
    }
}

/// One network-level event with causal attribution.
#[derive(Debug, Clone, PartialEq)]
pub struct NetEvent {
    /// When it happened (simulated nanoseconds).
    pub at_ns: u64,
    /// The span on whose behalf it happened, or [`SpanId::NONE`].
    pub span: SpanId,
    /// What happened.
    pub kind: NetEventKind,
}

/// The kinds of network/runtime events a simulator can contribute.
#[derive(Debug, Clone, PartialEq)]
pub enum NetEventKind {
    /// A datagram was handed to the network.
    Sent {
        /// Source endpoint.
        src: Loc,
        /// Destination endpoint.
        dst: Loc,
        /// Payload size.
        bytes: u64,
    },
    /// A datagram reached a destination mailbox.
    Delivered {
        /// Source endpoint.
        src: Loc,
        /// Destination endpoint.
        dst: Loc,
        /// Payload size.
        bytes: u64,
    },
    /// The loss model dropped a datagram.
    Dropped {
        /// Source endpoint.
        src: Loc,
        /// Destination endpoint.
        dst: Loc,
    },
    /// A partition, down node or unbound endpoint swallowed a datagram.
    Blackholed {
        /// Source endpoint.
        src: Loc,
        /// Destination endpoint.
        dst: Loc,
    },
    /// Several RPC envelopes were coalesced into one datagram.
    Batched {
        /// The batching endpoint.
        src: Loc,
        /// Where the batch went.
        dst: Loc,
        /// How many envelopes it carried.
        count: u64,
    },
    /// An RPC client gave up waiting and re-sent a request.
    Retransmit {
        /// The retransmitting client.
        src: Loc,
        /// The unresponsive server.
        dst: Loc,
        /// Attempt number (1 = first retransmission).
        attempt: u32,
    },
    /// A server finished executing a dispatched operation.
    ServerExecute {
        /// The executing server process.
        service: String,
        /// The operation.
        op: String,
        /// How long the handler ran (virtual time).
        dur_ns: u64,
    },
    /// A caching proxy answered a read locally.
    ProxyCacheHit {
        /// The proxied service.
        service: String,
        /// The operation.
        op: String,
    },
    /// A caching proxy had to go remote for a read.
    ProxyCacheMiss {
        /// The proxied service.
        service: String,
        /// The operation.
        op: String,
    },
    /// A forwarder redirected a request to the object's new home.
    Forwarded {
        /// The forwarder that answered.
        from: Loc,
        /// Where it pointed the caller.
        to: Loc,
    },
    /// An object moved between nodes (migration, checkout or checkin).
    Migrated {
        /// The service that moved.
        service: String,
        /// Where it was.
        from: Loc,
        /// Where it now lives.
        to: Loc,
    },
}

impl NetEventKind {
    /// A stable lowercase tag, used by the exporters.
    pub fn tag(&self) -> &'static str {
        match self {
            NetEventKind::Sent { .. } => "sent",
            NetEventKind::Delivered { .. } => "delivered",
            NetEventKind::Dropped { .. } => "dropped",
            NetEventKind::Blackholed { .. } => "blackholed",
            NetEventKind::Batched { .. } => "batched",
            NetEventKind::Retransmit { .. } => "retransmit",
            NetEventKind::ServerExecute { .. } => "server_execute",
            NetEventKind::ProxyCacheHit { .. } => "cache_hit",
            NetEventKind::ProxyCacheMiss { .. } => "cache_miss",
            NetEventKind::Forwarded { .. } => "forwarded",
            NetEventKind::Migrated { .. } => "migrated",
        }
    }
}

/// One line per event, as `tracectl analyze` prints a request's
/// timeline.
impl fmt::Display for NetEventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetEventKind::Sent { src, dst, bytes } => write!(f, "sent {src} -> {dst} ({bytes}B)"),
            NetEventKind::Delivered { src, dst, bytes } => {
                write!(f, "delivered {src} -> {dst} ({bytes}B)")
            }
            NetEventKind::Dropped { src, dst } => write!(f, "dropped {src} -> {dst}"),
            NetEventKind::Blackholed { src, dst } => write!(f, "blackholed {src} -> {dst}"),
            NetEventKind::Batched { src, dst, count } => {
                write!(f, "batched x{count} {src} -> {dst}")
            }
            NetEventKind::Retransmit { src, dst, attempt } => {
                write!(f, "retransmit #{attempt} {src} -> {dst}")
            }
            NetEventKind::ServerExecute {
                service,
                op,
                dur_ns,
            } => write!(f, "server {service} executed {op} in {dur_ns}ns"),
            NetEventKind::ProxyCacheHit { service, op } => write!(f, "cache hit {service}/{op}"),
            NetEventKind::ProxyCacheMiss { service, op } => write!(f, "cache miss {service}/{op}"),
            NetEventKind::Forwarded { from, to } => write!(f, "forwarded at {from} -> {to}"),
            NetEventKind::Migrated { service, from, to } => {
                write!(f, "migrated {service} {from} -> {to}")
            }
        }
    }
}

/// The root ancestor of `id` (itself if parentless or unknown), walking
/// at most 64 hops up the parents `parent_of` knows.
pub(crate) fn root_of(mut id: SpanId, parent_of: impl Fn(SpanId) -> Option<SpanId>) -> SpanId {
    let mut hops = 0;
    while let Some(p) = parent_of(id) {
        if !p.is_some() || hops > 64 {
            break;
        }
        id = p;
        hops += 1;
    }
    id
}

/// One entry of the merged timeline.
#[derive(Debug, Clone)]
pub enum CausalEvent {
    /// A span (ordered by its open instant).
    Span(SpanRecord),
    /// A network-level event.
    Net(NetEvent),
}

impl CausalEvent {
    /// The instant this entry is ordered by.
    pub fn at_ns(&self) -> u64 {
        match self {
            CausalEvent::Span(s) => s.start_ns,
            CausalEvent::Net(e) => e.at_ns,
        }
    }

    /// The span this entry belongs to ([`SpanId::NONE`] for
    /// unattributed network traffic).
    pub fn span(&self) -> SpanId {
        match self {
            CausalEvent::Span(s) => s.id,
            CausalEvent::Net(e) => e.span,
        }
    }
}

/// Collects span records and network events, then merges them into a
/// [`CausalTrace`].
///
/// The sink keeps everything it is given: the network events arrive from
/// an already-bounded source (simnet's ring), and span records
/// are small and kept so the analyzer can always resolve parent chains.
/// The sampling knob keeps every Nth *root* span — a sampled-out root
/// drops its entire subtree and all attributed network events, which
/// keeps sampled traces self-consistent instead of leaving orphan events.
#[derive(Debug)]
pub struct TraceSink {
    sample_every: u64,
    spans: Vec<SpanRecord>,
    net: Vec<NetEvent>,
    evicted: u64,
}

impl Default for TraceSink {
    fn default() -> Self {
        TraceSink::new()
    }
}

impl TraceSink {
    /// An empty sink with no sampling.
    pub fn new() -> TraceSink {
        TraceSink {
            sample_every: 1,
            spans: Vec::new(),
            net: Vec::new(),
            evicted: 0,
        }
    }

    /// Keeps only every `n`th root span (and its events). `0` and `1`
    /// both mean "keep everything".
    pub fn sample_every(mut self, n: u64) -> TraceSink {
        self.sample_every = n.max(1);
        self
    }

    /// Accounts for events lost *before* they reached this sink (the
    /// simulator's trace ring overflowed).
    pub fn note_upstream_evicted(&mut self, n: u64) {
        self.evicted += n;
    }

    /// Adds one span record.
    pub fn push_span(&mut self, span: SpanRecord) {
        self.spans.push(span);
    }

    /// Adds one network event.
    pub fn push_net(&mut self, event: NetEvent) {
        self.net.push(event);
    }

    /// Merges everything collected into a time-ordered [`CausalTrace`],
    /// applying the sampling knob.
    pub fn build(self) -> CausalTrace {
        let TraceSink {
            sample_every,
            spans,
            net,
            evicted,
        } = self;

        // Parent map over *all* spans, so sampling decisions and later
        // root resolution agree even for spans that get sampled away.
        let parents: HashMap<SpanId, SpanId> = spans.iter().map(|s| (s.id, s.parent)).collect();
        let keep = |span: SpanId| -> bool {
            sample_every <= 1
                || !span.is_some()
                || root_of(span, |id| parents.get(&id).copied()).0 % sample_every == 0
        };

        let mut sampled_out_spans = 0u64;
        let mut sampled_out_events = 0u64;
        let mut events: Vec<CausalEvent> = Vec::with_capacity(spans.len() + net.len());
        for s in spans {
            if keep(s.id) {
                events.push(CausalEvent::Span(s));
            } else {
                sampled_out_spans += 1;
            }
        }
        for e in net {
            if keep(e.span) {
                events.push(CausalEvent::Net(e));
            } else {
                sampled_out_events += 1;
            }
        }
        // Stable: ties keep span-open entries ahead of same-instant
        // network events, which is the causal order (the send happens
        // inside the already-open span).
        events.sort_by_key(|e| e.at_ns());
        CausalTrace {
            events,
            evicted,
            sampled_out_spans,
            sampled_out_events,
        }
    }
}

/// The merged, time-ordered causal trace.
#[derive(Debug, Clone, Default)]
pub struct CausalTrace {
    /// All surviving entries, ordered by [`CausalEvent::at_ns`].
    pub events: Vec<CausalEvent>,
    /// Network events the simulator's trace ring evicted before the
    /// trace was built. A nonzero value means the timeline has a hole at
    /// the *start*.
    pub evicted: u64,
    /// Spans removed by the sampling knob.
    pub sampled_out_spans: u64,
    /// Network events removed because their root span was sampled out.
    pub sampled_out_events: u64,
}

impl CausalTrace {
    /// True when nothing was evicted or sampled away.
    pub fn is_complete(&self) -> bool {
        self.evicted == 0 && self.sampled_out_spans == 0 && self.sampled_out_events == 0
    }

    /// The span records in the trace, in open order.
    pub fn spans(&self) -> impl Iterator<Item = &SpanRecord> {
        self.events.iter().filter_map(|e| match e {
            CausalEvent::Span(s) => Some(s),
            CausalEvent::Net(_) => None,
        })
    }

    /// The network events in the trace, in time order.
    pub fn net_events(&self) -> impl Iterator<Item = &NetEvent> {
        self.events.iter().filter_map(|e| match e {
            CausalEvent::Net(n) => Some(n),
            CausalEvent::Span(_) => None,
        })
    }

    /// Span id → record lookup.
    pub fn span_index(&self) -> HashMap<SpanId, &SpanRecord> {
        self.spans().map(|s| (s.id, s)).collect()
    }

    /// The root request spans: closed invokes with no tracked parent,
    /// slowest first. These are the units the critical-path analyzer
    /// explains.
    pub fn root_requests(&self) -> Vec<&SpanRecord> {
        let index = self.span_index();
        let mut roots: Vec<&SpanRecord> = self
            .spans()
            .filter(|s| {
                s.kind == SpanKind::Invoke
                    && s.end_ns.is_some()
                    && (!s.parent.is_some() || !index.contains_key(&s.parent))
            })
            .collect();
        roots.sort_by_key(|s| std::cmp::Reverse(s.duration_ns().unwrap_or(0)));
        roots
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, kind: SpanKind, start: u64, end: u64) -> SpanRecord {
        SpanRecord {
            id: SpanId(id),
            parent: SpanId(parent),
            kind,
            service: "svc".into(),
            op: "op".into(),
            start_ns: start,
            end_ns: Some(end),
            ok: Some(true),
            retransmissions: 0,
            replies: 1,
        }
    }

    fn sent(at: u64, span: u64) -> NetEvent {
        NetEvent {
            at_ns: at,
            span: SpanId(span),
            kind: NetEventKind::Sent {
                src: Loc::new(0, 1),
                dst: Loc::new(1, 10),
                bytes: 64,
            },
        }
    }

    #[test]
    fn merge_orders_by_time() {
        let mut sink = TraceSink::new();
        sink.push_net(sent(100, 1));
        sink.push_span(span(1, 0, SpanKind::Invoke, 100, 400));
        sink.push_net(sent(50, 1));
        let trace = sink.build();
        let ats: Vec<u64> = trace.events.iter().map(|e| e.at_ns()).collect();
        assert_eq!(ats, vec![50, 100, 100]);
        assert!(trace.is_complete());
        assert_eq!(trace.spans().count(), 1);
        assert_eq!(trace.net_events().count(), 2);
    }

    #[test]
    fn upstream_evictions_are_reported() {
        let mut sink = TraceSink::new();
        for i in 0..5 {
            sink.push_net(sent(i, 0));
        }
        sink.note_upstream_evicted(3);
        sink.note_upstream_evicted(4);
        let trace = sink.build();
        assert_eq!(trace.evicted, 7);
        assert!(!trace.is_complete());
        assert_eq!(
            trace.net_events().count(),
            5,
            "the sink keeps all it is given"
        );
    }

    #[test]
    fn display_is_readable() {
        let (a, b) = (Loc::new(0, 1), Loc::new(1, 2));
        let (service, op) = (String::from("kv"), String::from("get"));
        let lines = [
            (
                NetEventKind::Sent {
                    src: a,
                    dst: b,
                    bytes: 64,
                },
                "sent n0:p1 -> n1:p2 (64B)",
            ),
            (
                NetEventKind::Delivered {
                    src: a,
                    dst: b,
                    bytes: 64,
                },
                "delivered n0:p1 -> n1:p2 (64B)",
            ),
            (
                NetEventKind::Dropped { src: a, dst: b },
                "dropped n0:p1 -> n1:p2",
            ),
            (
                NetEventKind::Blackholed { src: a, dst: b },
                "blackholed n0:p1 -> n1:p2",
            ),
            (
                NetEventKind::Batched {
                    src: a,
                    dst: b,
                    count: 3,
                },
                "batched x3 n0:p1 -> n1:p2",
            ),
            (
                NetEventKind::Retransmit {
                    src: a,
                    dst: b,
                    attempt: 2,
                },
                "retransmit #2 n0:p1 -> n1:p2",
            ),
            (
                NetEventKind::ServerExecute {
                    service: service.clone(),
                    op: op.clone(),
                    dur_ns: 1500,
                },
                "server kv executed get in 1500ns",
            ),
            (
                NetEventKind::ProxyCacheHit {
                    service: service.clone(),
                    op: op.clone(),
                },
                "cache hit kv/get",
            ),
            (
                NetEventKind::ProxyCacheMiss {
                    service: service.clone(),
                    op,
                },
                "cache miss kv/get",
            ),
            (
                NetEventKind::Forwarded { from: a, to: b },
                "forwarded at n0:p1 -> n1:p2",
            ),
            (
                NetEventKind::Migrated {
                    service,
                    from: a,
                    to: b,
                },
                "migrated kv n0:p1 -> n1:p2",
            ),
        ];
        for (kind, line) in &lines {
            assert_eq!(kind.to_string(), *line, "{}", kind.tag());
        }
    }

    #[test]
    fn sampling_keeps_whole_request_subtrees() {
        let mut sink = TraceSink::new().sample_every(2);
        // Root 2 (kept: 2 % 2 == 0) with child dispatch 5; root 3
        // (sampled out) with child dispatch 4.
        sink.push_span(span(2, 0, SpanKind::Invoke, 0, 100));
        sink.push_span(span(5, 2, SpanKind::Dispatch, 10, 60));
        sink.push_span(span(3, 0, SpanKind::Invoke, 0, 100));
        sink.push_span(span(4, 3, SpanKind::Dispatch, 10, 60));
        sink.push_net(sent(5, 2));
        sink.push_net(sent(6, 5));
        sink.push_net(sent(7, 3));
        sink.push_net(sent(8, 4));
        sink.push_net(sent(9, 0)); // unattributed: always kept
        let trace = sink.build();
        assert_eq!(trace.sampled_out_spans, 2);
        assert_eq!(trace.sampled_out_events, 2);
        let kept: Vec<u64> = trace.net_events().map(|e| e.span.0).collect();
        assert_eq!(kept, vec![2, 5, 0]);
    }

    #[test]
    fn root_requests_excludes_dispatches_and_open_spans() {
        let mut sink = TraceSink::new();
        sink.push_span(span(1, 0, SpanKind::Invoke, 0, 500));
        sink.push_span(span(2, 1, SpanKind::Dispatch, 10, 60));
        let mut open = span(3, 0, SpanKind::Invoke, 0, 0);
        open.end_ns = None;
        sink.push_span(open);
        sink.push_span(span(4, 0, SpanKind::Oneway, 5, 5));
        let trace = sink.build();
        let roots = trace.root_requests();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].id, SpanId(1));
    }
}
