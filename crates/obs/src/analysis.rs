//! Critical-path analysis over a [`CausalTrace`].
//!
//! The proxy principle's price is indirection: a single local call may
//! hide queueing, wire time, server execution, retransmission waits,
//! forwarding hops and migrations. This module decomposes each root
//! request span into exactly those components.
//!
//! The decomposition is a state machine over the request's event
//! timeline: the span's `[start, end]` interval is partitioned at every
//! event instant, and each sub-interval is attributed to the phase the
//! preceding event put the request in (after a send → wire; after a
//! drop → waiting for retransmission; after delivery at the server →
//! server execution; after delivery back at the client → client-side
//! queueing/processing). Because the sub-intervals tile the span, the
//! components **sum to the span's measured duration exactly** — the
//! invariant `tracectl` asserts and CI smoke-checks.
//!
//! A datagram shared by several calls (a batch) carries no one span, so
//! its send, delivery or loss is on no request's timeline. One thing is
//! still known about such a call: a retransmission proves it had been
//! sent, so the client-side time leading up to a retransmission was the
//! wait for its timer, and is attributed to that component.

use std::collections::{BTreeMap, HashMap};

use crate::trace::{CausalTrace, Loc, NetEventKind};
use crate::{SpanId, SpanKind};

/// Which phase a request is in between two timeline events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Client-side: building the request, processing the reply, or
    /// local proxy work (cache hits never leave this phase).
    Queue,
    /// A datagram is in flight.
    Wire,
    /// The server owns the request.
    Server,
    /// The request was lost; the client is waiting out its timeout.
    RetransmitWait,
}

/// One entry of a request's reconstructed timeline.
#[derive(Debug, Clone)]
pub struct TimelineEntry {
    /// When (simulated nanoseconds).
    pub at_ns: u64,
    /// The span the event carried.
    pub span: SpanId,
    /// Human-readable description.
    pub label: String,
}

/// The decomposed cost of one root request.
#[derive(Debug, Clone)]
pub struct CriticalPath {
    /// The root invoke span.
    pub span: SpanId,
    /// Service the client invoked.
    pub service: String,
    /// Operation.
    pub op: String,
    /// Whether the invocation succeeded.
    pub ok: Option<bool>,
    /// Span open instant.
    pub start_ns: u64,
    /// Measured span duration.
    pub total_ns: u64,
    /// Client-side queueing/processing time.
    pub queue_ns: u64,
    /// Time with a datagram in flight.
    pub wire_ns: u64,
    /// Time the server owned the request.
    pub server_ns: u64,
    /// Time spent waiting out lost datagrams.
    pub retransmit_ns: u64,
    /// Retransmissions across the root span and its dispatches.
    pub retransmissions: u64,
    /// Datagrams lost (dropped + blackholed) on this request's behalf.
    pub drops: u64,
    /// The request's event timeline, in order.
    pub timeline: Vec<TimelineEntry>,
}

impl CriticalPath {
    /// Sum of the four components. Equals [`CriticalPath::total_ns`] by
    /// construction; exposed so callers can *check* rather than trust.
    pub fn components_ns(&self) -> u64 {
        self.queue_ns + self.wire_ns + self.server_ns + self.retransmit_ns
    }

    /// The dominant component, as a stable label.
    pub fn dominant(&self) -> &'static str {
        let parts = [
            (self.queue_ns, "queue"),
            (self.wire_ns, "wire"),
            (self.server_ns, "server"),
            (self.retransmit_ns, "retransmit"),
        ];
        parts
            .iter()
            .max_by_key(|(ns, _)| *ns)
            .map(|&(_, name)| name)
            .unwrap_or("queue")
    }
}

fn describe(kind: &NetEventKind) -> String {
    match kind {
        NetEventKind::Sent { src, dst, bytes } => format!("sent {src} -> {dst} ({bytes}B)"),
        NetEventKind::Delivered { src, dst, bytes } => {
            format!("delivered {src} -> {dst} ({bytes}B)")
        }
        NetEventKind::Dropped { src, dst } => format!("dropped {src} -> {dst}"),
        NetEventKind::Blackholed { src, dst } => format!("blackholed {src} -> {dst}"),
        NetEventKind::Batched { src, dst, count } => {
            format!("batched x{count} {src} -> {dst}")
        }
        NetEventKind::Retransmit { src, dst, attempt } => {
            format!("retransmit #{attempt} {src} -> {dst}")
        }
        NetEventKind::ServerExecute {
            service,
            op,
            dur_ns,
        } => format!("server {service} executed {op} in {dur_ns}ns"),
        NetEventKind::ProxyCacheHit { service, op } => format!("cache hit {service}/{op}"),
        NetEventKind::ProxyCacheMiss { service, op } => format!("cache miss {service}/{op}"),
        NetEventKind::Forwarded { from, to } => format!("forwarded at {from} -> {to}"),
        NetEventKind::Migrated { service, from, to } => {
            format!("migrated {service} {from} -> {to}")
        }
    }
}

/// Computes the critical-path decomposition for every closed root
/// request span in the trace, slowest first.
pub fn critical_paths(trace: &CausalTrace) -> Vec<CriticalPath> {
    let index = trace.span_index();

    // Map every span to its root, and total up per-root retransmissions
    // (the root's own plus its dispatch children's).
    let parents: HashMap<SpanId, SpanId> = index.iter().map(|(&id, s)| (id, s.parent)).collect();
    let root_of = |id: SpanId| -> SpanId {
        let mut cur = id;
        let mut hops = 0;
        while let Some(&p) = parents.get(&cur) {
            if !p.is_some() || hops > 64 {
                break;
            }
            cur = p;
            hops += 1;
        }
        cur
    };

    let roots = trace.root_requests();
    let mut paths: HashMap<SpanId, CriticalPath> = roots
        .iter()
        .map(|s| {
            (
                s.id,
                CriticalPath {
                    span: s.id,
                    service: s.service.clone(),
                    op: s.op.clone(),
                    ok: s.ok,
                    start_ns: s.start_ns,
                    total_ns: s.duration_ns().unwrap_or(0),
                    queue_ns: 0,
                    wire_ns: 0,
                    server_ns: 0,
                    retransmit_ns: 0,
                    retransmissions: s.retransmissions,
                    drops: 0,
                    timeline: Vec::new(),
                },
            )
        })
        .collect();
    for s in trace.spans() {
        if s.kind == SpanKind::Dispatch {
            let r = root_of(s.id);
            if r != s.id {
                if let Some(p) = paths.get_mut(&r) {
                    p.retransmissions += s.retransmissions;
                }
            }
        }
    }

    // Attach each network event to its root request. One-way spans
    // (invalidations, replication fan-out) are deliberately excluded:
    // their traffic runs concurrently with the request and would
    // corrupt the phase attribution.
    let mut events_by_root: HashMap<SpanId, Vec<(u64, &NetEventKind, SpanId)>> = HashMap::new();
    for e in trace.net_events() {
        if !e.span.is_some() {
            continue;
        }
        if let Some(rec) = index.get(&e.span) {
            if rec.kind == SpanKind::Oneway {
                continue;
            }
        }
        let root = root_of(e.span);
        events_by_root
            .entry(root)
            .or_default()
            .push((e.at_ns, &e.kind, e.span));
    }

    for (root, mut events) in events_by_root {
        let Some(path) = paths.get_mut(&root) else {
            continue;
        };
        events.sort_by_key(|(at, _, _)| *at);
        let start = path.start_ns;
        let end = start + path.total_ns;

        // The client's location: the source of the request's first send.
        let client: Option<Loc> = events.iter().find_map(|(_, kind, _)| match kind {
            NetEventKind::Sent { src, .. } => Some(*src),
            _ => None,
        });

        let mut phase = Phase::Queue;
        let mut cursor = start;
        for (at, kind, span) in &events {
            path.timeline.push(TimelineEntry {
                at_ns: *at,
                span: *span,
                label: describe(kind),
            });
            if let NetEventKind::Dropped { .. } | NetEventKind::Blackholed { .. } = kind {
                path.drops += 1;
            }
            // Late events (duplicate replies after close) narrate the
            // timeline but cannot shift in-span attribution.
            if *at < start || *at > end {
                continue;
            }
            let slice = at - cursor;
            match phase {
                // Sent already, in a datagram the trace attributes to no
                // one call: waiting for the timer, not queueing.
                Phase::Queue if matches!(kind, NetEventKind::Retransmit { .. }) => {
                    path.retransmit_ns += slice
                }
                Phase::Queue => path.queue_ns += slice,
                Phase::Wire => path.wire_ns += slice,
                Phase::Server => path.server_ns += slice,
                Phase::RetransmitWait => path.retransmit_ns += slice,
            }
            cursor = *at;
            phase = match kind {
                NetEventKind::Sent { .. }
                | NetEventKind::Retransmit { .. }
                | NetEventKind::Batched { .. } => Phase::Wire,
                NetEventKind::Delivered { dst, .. } => {
                    if Some(*dst) == client {
                        Phase::Queue
                    } else {
                        Phase::Server
                    }
                }
                NetEventKind::Dropped { .. } | NetEventKind::Blackholed { .. } => {
                    Phase::RetransmitWait
                }
                NetEventKind::ServerExecute { .. }
                | NetEventKind::Forwarded { .. }
                | NetEventKind::Migrated { .. } => Phase::Server,
                NetEventKind::ProxyCacheHit { .. } | NetEventKind::ProxyCacheMiss { .. } => {
                    Phase::Queue
                }
            };
        }
        let tail = end - cursor;
        match phase {
            Phase::Queue => path.queue_ns += tail,
            Phase::Wire => path.wire_ns += tail,
            Phase::Server => path.server_ns += tail,
            Phase::RetransmitWait => path.retransmit_ns += tail,
        }
    }

    // Requests with no attributable events are pure client-side work.
    let mut out: Vec<CriticalPath> = paths
        .into_values()
        .map(|mut p| {
            if p.timeline.is_empty() {
                p.queue_ns = p.total_ns;
            }
            p
        })
        .collect();
    out.sort_by(|a, b| {
        b.total_ns
            .cmp(&a.total_ns)
            .then_with(|| a.span.cmp(&b.span))
    });
    out
}

/// The `k` slowest requests.
pub fn top_k_slowest(trace: &CausalTrace, k: usize) -> Vec<CriticalPath> {
    let mut paths = critical_paths(trace);
    paths.truncate(k);
    paths
}

/// Loss/retransmission accounting for one directed node pair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Datagrams handed to the network.
    pub sent: u64,
    /// Datagrams delivered.
    pub delivered: u64,
    /// Datagrams dropped by the loss model.
    pub dropped: u64,
    /// Datagrams swallowed by partitions/unbound endpoints.
    pub blackholed: u64,
    /// Retransmissions crossing the link.
    pub retransmits: u64,
}

impl LinkStats {
    /// Fraction of sends that were lost (dropped + blackholed).
    pub fn loss_rate(&self) -> f64 {
        if self.sent == 0 {
            0.0
        } else {
            (self.dropped + self.blackholed) as f64 / self.sent as f64
        }
    }
}

/// Aggregates drop/retransmit counts per directed `(src node, dst
/// node)` link, so chaos experiments can name the links that hurt.
pub fn link_attribution(trace: &CausalTrace) -> BTreeMap<(u32, u32), LinkStats> {
    type Field = fn(&mut LinkStats) -> &mut u64;
    let mut links: BTreeMap<(u32, u32), LinkStats> = BTreeMap::new();
    for e in trace.net_events() {
        let (key, field): ((u32, u32), Field) = match &e.kind {
            NetEventKind::Sent { src, dst, .. } => ((src.node, dst.node), |s| &mut s.sent),
            NetEventKind::Delivered { src, dst, .. } => {
                ((src.node, dst.node), |s| &mut s.delivered)
            }
            NetEventKind::Dropped { src, dst } => ((src.node, dst.node), |s| &mut s.dropped),
            NetEventKind::Blackholed { src, dst } => ((src.node, dst.node), |s| &mut s.blackholed),
            NetEventKind::Retransmit { src, dst, .. } => {
                ((src.node, dst.node), |s| &mut s.retransmits)
            }
            _ => continue,
        };
        *field(links.entry(key).or_default()) += 1;
    }
    links
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{NetEvent, TraceSink};
    use crate::{SpanId, SpanRecord};

    fn push_lossy_request(sink: &mut TraceSink) {
        let client = Loc::new(0, 70_000);
        let server = Loc::new(1, 10);
        sink.push_span(SpanRecord {
            id: SpanId(1),
            parent: SpanId::NONE,
            kind: SpanKind::Invoke,
            service: "kv".into(),
            op: "get".into(),
            start_ns: 0,
            end_ns: Some(10_000),
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
            start_ns: 5_600,
            end_ns: Some(5_800),
            ok: Some(true),
            retransmissions: 0,
            replies: 0,
        });
        let events = [
            (
                100,
                1,
                NetEventKind::Sent {
                    src: client,
                    dst: server,
                    bytes: 64,
                },
            ),
            (
                100,
                1,
                NetEventKind::Dropped {
                    src: client,
                    dst: server,
                },
            ),
            (
                5_000,
                1,
                NetEventKind::Retransmit {
                    src: client,
                    dst: server,
                    attempt: 1,
                },
            ),
            (
                5_000,
                1,
                NetEventKind::Sent {
                    src: client,
                    dst: server,
                    bytes: 64,
                },
            ),
            (
                5_600,
                1,
                NetEventKind::Delivered {
                    src: client,
                    dst: server,
                    bytes: 64,
                },
            ),
            (
                5_800,
                2,
                NetEventKind::ServerExecute {
                    service: "kv-server".into(),
                    op: "get".into(),
                    dur_ns: 200,
                },
            ),
            (
                5_800,
                1,
                NetEventKind::Sent {
                    src: server,
                    dst: client,
                    bytes: 32,
                },
            ),
            (
                6_400,
                1,
                NetEventKind::Delivered {
                    src: server,
                    dst: client,
                    bytes: 32,
                },
            ),
        ];
        for (at, span, kind) in events {
            sink.push_net(NetEvent {
                at_ns: at,
                span: SpanId(span),
                kind,
            });
        }
    }

    #[test]
    fn components_tile_the_span_exactly() {
        let mut sink = TraceSink::new();
        push_lossy_request(&mut sink);
        let trace = sink.build();
        let paths = critical_paths(&trace);
        assert_eq!(paths.len(), 1);
        let p = &paths[0];
        assert_eq!(p.total_ns, 10_000);
        assert_eq!(p.components_ns(), p.total_ns, "phases tile the span");
        // Walk the expected state machine:
        //   queue   [0, 100)       = 100
        //   wire    [100, 100)     = 0       (send whose fate is decided instantly)
        //   retx    [100, 5000)    = 4900    (waiting out the loss)
        //   wire    [5000, 5600)   = 600     (request in flight)
        //   server  [5600, 5800)   = 200     (execution)
        //   wire    [5800, 6400)   = 600     (reply in flight)
        //   queue   [6400, 10000]  = 3600    (client post-processing)
        assert_eq!(p.queue_ns, 3_700);
        assert_eq!(p.retransmit_ns, 4_900);
        assert_eq!(p.wire_ns, 1_200);
        assert_eq!(p.server_ns, 200);
        assert_eq!(p.drops, 1);
        assert_eq!(p.retransmissions, 1);
        assert_eq!(p.dominant(), "retransmit");
        assert_eq!(p.timeline.len(), 8);
    }

    #[test]
    fn time_before_a_batched_calls_retransmission_is_timer_wait() {
        // The call went out in a batch (no event carries its span), the
        // batch was lost, and 1.3 ms after the span opened the call was
        // retransmitted, again in a batch; the reply batch settles it.
        let mut sink = TraceSink::new();
        sink.push_span(SpanRecord {
            id: SpanId(1),
            parent: SpanId::NONE,
            kind: SpanKind::Invoke,
            service: "blobsvc".into(),
            op: "put".into(),
            start_ns: 0,
            end_ns: Some(2_300_000),
            ok: Some(true),
            retransmissions: 1,
            replies: 1,
        });
        sink.push_net(NetEvent {
            at_ns: 1_300_000,
            span: SpanId(1),
            kind: NetEventKind::Retransmit {
                src: Loc::new(1, 10),
                dst: Loc::new(2, 11),
                attempt: 1,
            },
        });
        let paths = critical_paths(&sink.build());
        let p = &paths[0];
        assert_eq!(p.components_ns(), p.total_ns, "phases tile the span");
        assert_eq!(p.retransmit_ns, 1_300_000);
        assert_eq!(p.wire_ns, 1_000_000);
        assert_eq!(p.queue_ns, 0);
        assert_eq!(p.dominant(), "retransmit");
    }

    #[test]
    fn oneway_traffic_does_not_pollute_requests() {
        let mut sink = TraceSink::new();
        push_lossy_request(&mut sink);
        // An invalidation fan-out parented to the request: its traffic
        // must not flip the request into Wire phase.
        sink.push_span(SpanRecord {
            id: SpanId(3),
            parent: SpanId(1),
            kind: SpanKind::Oneway,
            service: "kv".into(),
            op: "invalidate".into(),
            start_ns: 7_000,
            end_ns: Some(7_000),
            ok: Some(true),
            retransmissions: 0,
            replies: 0,
        });
        sink.push_net(NetEvent {
            at_ns: 7_000,
            span: SpanId(3),
            kind: NetEventKind::Sent {
                src: Loc::new(1, 10),
                dst: Loc::new(2, 11),
                bytes: 16,
            },
        });
        let trace = sink.build();
        let p = &critical_paths(&trace)[0];
        assert_eq!(p.components_ns(), p.total_ns);
        assert_eq!(p.queue_ns, 3_700, "oneway send did not open a wire phase");
    }

    #[test]
    fn requests_without_events_are_pure_queue() {
        let mut sink = TraceSink::new();
        sink.push_span(SpanRecord {
            id: SpanId(9),
            parent: SpanId::NONE,
            kind: SpanKind::Invoke,
            service: "kv".into(),
            op: "get".into(),
            start_ns: 50,
            end_ns: Some(80),
            ok: Some(true),
            retransmissions: 0,
            replies: 0,
        });
        let trace = sink.build();
        let p = &critical_paths(&trace)[0];
        assert_eq!(p.total_ns, 30);
        assert_eq!(p.queue_ns, 30);
        assert_eq!(p.components_ns(), p.total_ns);
    }

    #[test]
    fn link_attribution_counts_per_directed_pair() {
        let mut sink = TraceSink::new();
        push_lossy_request(&mut sink);
        let trace = sink.build();
        let links = link_attribution(&trace);
        let up = links.get(&(0, 1)).unwrap();
        assert_eq!(up.sent, 2);
        assert_eq!(up.dropped, 1);
        assert_eq!(up.delivered, 1);
        assert_eq!(up.retransmits, 1);
        assert!(up.loss_rate() > 0.49 && up.loss_rate() < 0.51);
        let down = links.get(&(1, 0)).unwrap();
        assert_eq!(down.sent, 1);
        assert_eq!(down.delivered, 1);
    }

    #[test]
    fn top_k_truncates_sorted_output() {
        let mut sink = TraceSink::new();
        for i in 0..5u64 {
            sink.push_span(SpanRecord {
                id: SpanId(i + 1),
                parent: SpanId::NONE,
                kind: SpanKind::Invoke,
                service: "kv".into(),
                op: "get".into(),
                start_ns: 0,
                end_ns: Some((i + 1) * 1_000),
                ok: Some(true),
                retransmissions: 0,
                replies: 1,
            });
        }
        let trace = sink.build();
        let top = top_k_slowest(&trace, 2);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0].total_ns, 5_000);
        assert_eq!(top[1].total_ns, 4_000);
    }
}
