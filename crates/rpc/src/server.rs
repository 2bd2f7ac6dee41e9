//! The RPC server: dispatch with duplicate suppression.
//!
//! [`RpcServer`] implements the server half of at-most-once semantics: it
//! remembers, per client endpoint, which call ids it has executed and the
//! encoded replies for recent ones. A retransmitted request is answered
//! from the reply cache without re-executing the handler — the property
//! experiment E7 verifies under loss and duplication.
//!
//! A pipelined client keeps many calls outstanding, so ids may *execute
//! out of order* (call 7's datagram can arrive before call 5's). The
//! executed-id window therefore tracks a contiguous floor plus an exact
//! set of executed ids above it, instead of a single high-water mark: a
//! fresh id below the highest executed one still runs, while replayed
//! ids are suppressed exactly.
//!
//! A handler need not answer on the spot. Under
//! [`RpcServer::handle_deferred`] it may return `None` — "started, will
//! answer later" — and the owner calls [`RpcServer::complete`] when the
//! result exists (an edge cache waiting for its origin). Between the two
//! the id is *executing*: a retransmission of it is dropped, neither
//! re-run nor answered; after completion it is answered from the reply
//! cache like any other.

use std::collections::{BTreeSet, HashMap, VecDeque};

use bytes::Bytes;
use simnet::{Ctx, Endpoint, Message, SimTime};
use wire::Value;

use crate::error::RemoteError;
use crate::proto::{Batch, Oneway, Packet, Reply, Request};

/// How many encoded replies to retain per client endpoint. Sized for a
/// pipelined channel's outstanding window with slack for late
/// duplicates.
const REPLY_CACHE_PER_CLIENT: usize = 32;

/// Cap on the exact executed-id set above the contiguous floor. A
/// pipelined client keeps at most `pipeline_depth` ids in flight, so
/// gaps close quickly; this bound only matters for pathological clients
/// and keeps per-client state O(1).
const EXECUTED_SET_LIMIT: usize = 1024;

/// Counters accumulated by a server.
///
/// Canonical definition lives in the `obs` crate; each server keeps its
/// own copy here, and the simulation-wide [`obs::MetricsRegistry`]
/// aggregates the same counters across every server.
pub use obs::ServeStats;

/// What [`RpcServer::handle`] did with one datagram.
#[derive(Debug)]
pub enum Served {
    /// A fresh request was executed and replied to.
    Executed(Request),
    /// A fresh request was started; its handler deferred the reply to a
    /// later [`RpcServer::complete`].
    Deferred(Request),
    /// A duplicate was answered from the reply cache (handler not run).
    DuplicateSuppressed,
    /// A duplicate too old to be cached was dropped.
    DuplicateDropped,
    /// A one-way notification; the caller decides what to do with it.
    Oneway(Oneway),
    /// A reply datagram (this process is also a client; the caller
    /// should not normally see these here).
    Reply(Reply),
    /// A batch of requests was unbatched and dispatched; replies were
    /// coalesced per destination. Counts what happened inside.
    Batch {
        /// Fresh requests executed (answered or deferred).
        executed: u64,
        /// Duplicates answered from the reply cache.
        suppressed: u64,
        /// Duplicates too old to answer, dropped.
        dropped: u64,
    },
    /// The datagram failed to decode and was dropped.
    Undecodable,
}

/// Per-client executed-id window plus reply cache.
///
/// `floor` is the contiguous high-water mark: every id `<= floor` has
/// been executed (or permanently abandoned). `executed` holds the exact
/// ids above the floor that have run — out-of-order completions leave
/// gaps, and the floor only advances when its successor is present.
#[derive(Debug, Default)]
struct ClientWindow {
    /// Ids `<= floor` are all executed/handled.
    floor: u64,
    /// Executed ids above the floor (gaps = still-pending ids).
    executed: BTreeSet<u64>,
    /// Recent (call_id, encoded reply) pairs, oldest first.
    cached: VecDeque<(u64, Bytes)>,
    /// Calls started whose reply is still owed (at most the client's
    /// pipeline depth, so a scan is cheap).
    executing: Vec<Executing>,
}

/// A started call whose handler deferred the reply.
#[derive(Debug)]
struct Executing {
    call_id: u64,
    /// The request's span, echoed in the reply.
    span: u64,
    /// The dispatch span, open until the call completes.
    dispatch: obs::SpanId,
    op: String,
    started: SimTime,
}

impl ClientWindow {
    fn lookup(&self, id: u64) -> Option<&Bytes> {
        self.cached.iter().find(|(i, _)| *i == id).map(|(_, b)| b)
    }

    /// Has this id already been executed (run the handler)?
    fn is_executed(&self, id: u64) -> bool {
        id <= self.floor || self.executed.contains(&id)
    }

    /// Records the reply to an executed call.
    fn insert(&mut self, id: u64, reply: Bytes) {
        if self.cached.len() >= REPLY_CACHE_PER_CLIENT {
            self.cached.pop_front();
        }
        self.cached.push_back((id, reply));
        self.mark_executed(id);
    }

    /// Marks `id` as run, whether or not its reply exists yet.
    fn mark_executed(&mut self, id: u64) {
        if id > self.floor {
            self.executed.insert(id);
        }
        // Compact: absorb the contiguous run just above the floor.
        while self.executed.first() == Some(&(self.floor + 1)) {
            self.executed.pop_first();
            self.floor += 1;
        }
        // Bound the set: absorbing the smallest id into the floor also
        // writes off any never-seen ids below it — safe (at-most-once is
        // preserved; a >LIMIT-deep straggler would be dropped), and
        // unreachable for any sane pipeline depth.
        while self.executed.len() > EXECUTED_SET_LIMIT {
            if let Some(min) = self.executed.pop_first() {
                self.floor = self.floor.max(min);
            }
        }
    }
}

/// What `answer_request` produced for one request.
enum Answer {
    /// Fresh execution; the encoded reply to send.
    Executed(Bytes),
    /// Duplicate answered from the cache; the recorded reply to resend.
    Cached(Bytes),
    /// Duplicate too old to answer, or still executing; nothing to send.
    Dropped,
    /// Fresh execution whose handler deferred the reply; nothing to send
    /// yet.
    Deferred,
}

/// Server-side call dispatch with per-client duplicate suppression.
///
/// Use [`RpcServer::serve`] for a simple request loop, or
/// [`RpcServer::handle`] inside a custom loop that also processes
/// one-way control traffic.
#[derive(Debug, Default)]
pub struct RpcServer {
    windows: HashMap<Endpoint, ClientWindow>,
    /// Counters (readable by experiment harnesses).
    pub stats: ServeStats,
}

impl RpcServer {
    /// Creates a server with empty duplicate-suppression state.
    pub fn new() -> RpcServer {
        RpcServer::default()
    }

    /// Processes one incoming datagram. Fresh requests run `handler`;
    /// its result is encoded, cached for duplicate suppression, and sent
    /// to the request's `reply_to`. A batch of requests is unbatched,
    /// each item dispatched with the same duplicate suppression, and the
    /// replies coalesced into one batch datagram per destination.
    ///
    /// Duplicate requests take a fast path: the routing header (`"t"`,
    /// `"id"`, `"rt"`) is *peeked* from the validated frame without
    /// materializing the value tree, and a cache hit resends the recorded
    /// reply with the op name and arguments never decoded at all.
    pub fn handle(
        &mut self,
        ctx: &mut Ctx,
        msg: &Message,
        mut handler: impl FnMut(&mut Ctx, &Request) -> Result<Value, RemoteError>,
    ) -> Served {
        self.handle_deferred(ctx, msg, |ctx, req| Some(handler(ctx, req)))
    }

    /// [`RpcServer::handle`] for a handler that may answer later: `None`
    /// means the call has started and its owner will deliver the result
    /// through [`RpcServer::complete`], naming the request's `reply_to`
    /// and `call_id`. Until then a retransmission of the id is dropped
    /// (counted under `duplicates_dropped`), never re-run and never
    /// answered; afterwards it gets the recorded reply.
    pub fn handle_deferred(
        &mut self,
        ctx: &mut Ctx,
        msg: &Message,
        handler: impl FnMut(&mut Ctx, &Request) -> Option<Result<Value, RemoteError>>,
    ) -> Served {
        if let Some(served) = self.try_peek_duplicate(ctx, msg) {
            return served;
        }
        let packet = match Packet::from_frame(&msg.payload) {
            Ok(p) => p,
            Err(_) => {
                self.stats.undecodable += 1;
                ctx.obs().on_undecodable();
                return Served::Undecodable;
            }
        };
        let mut handler = handler;
        match packet {
            Packet::Request(req) => self.handle_request(ctx, req, &mut handler),
            Packet::Oneway(o) => {
                self.stats.oneways += 1;
                ctx.obs().on_oneway_rx();
                Served::Oneway(o)
            }
            Packet::Reply(r) => Served::Reply(r),
            Packet::Batch(batch) => self.handle_batch(ctx, batch, &mut handler),
        }
    }

    /// The duplicate-suppression fast path: peeks at a single request's
    /// routing fields through [`wire::peek_frame`] (frame checked,
    /// structure validated, nothing materialized) and answers known call
    /// ids straight from the per-client state. Returns `None` for
    /// anything that needs the full decode — fresh requests, replies,
    /// one-ways, batches, or malformed frames (the slow path re-derives
    /// the precise error accounting).
    fn try_peek_duplicate(&mut self, ctx: &mut Ctx, msg: &Message) -> Option<Served> {
        let raw = {
            // The server's first checksum pass over the datagram; the
            // second is `Packet::from_frame`'s, under `rpc;decode`.
            let _p = obs::scope("rpc;peek");
            wire::peek_frame(&msg.payload).ok()?
        };
        if raw.get_str("t").ok()? != "req" {
            return None;
        }
        let id = raw.get_u64("id").ok()?;
        let rt = raw.get_record("rt").ok()?;
        let node = u32::try_from(rt.get_u64("n").ok()?).ok()?;
        let port = u32::try_from(rt.get_u64("p").ok()?).ok()?;
        let reply_to = Endpoint::new(simnet::NodeId(node), simnet::PortId(port));
        let window = self.windows.get(&reply_to)?;
        if let Some(cached) = window.lookup(id) {
            // Retransmission with a recorded reply: resend it. The op
            // name and args of the retransmitted request are never
            // decoded (or even UTF-8 validated) on this path.
            let cached = cached.clone();
            let span = obs::SpanId::from_raw(raw.get_u64("sp").unwrap_or(0));
            self.stats.duplicates_suppressed += 1;
            ctx.obs().on_duplicate_suppressed();
            ctx.send_traced(reply_to, cached, span);
            return Some(Served::DuplicateSuppressed);
        }
        if window.is_executed(id) {
            // Still executing, or executed long ago and the reply since
            // evicted: drop.
            self.stats.duplicates_dropped += 1;
            ctx.obs().on_duplicate_dropped();
            return Some(Served::DuplicateDropped);
        }
        None
    }

    fn handle_request(
        &mut self,
        ctx: &mut Ctx,
        req: Request,
        handler: &mut impl FnMut(&mut Ctx, &Request) -> Option<Result<Value, RemoteError>>,
    ) -> Served {
        let span = obs::SpanId::from_raw(req.span);
        match self.answer_request(ctx, &req, handler) {
            Answer::Cached(bytes) => {
                ctx.send_traced(req.reply_to, bytes, span);
                Served::DuplicateSuppressed
            }
            Answer::Dropped => Served::DuplicateDropped,
            Answer::Deferred => Served::Deferred(req),
            Answer::Executed(bytes) => {
                // The reply belongs to the request's span (the handler
                // restored the server's previous span inside
                // `answer_request`).
                ctx.send_traced(req.reply_to, bytes, span);
                Served::Executed(req)
            }
        }
    }

    /// Unbatches a batch of requests, dispatches each with duplicate
    /// suppression, and sends the replies back coalesced: one batch
    /// datagram per `reply_to` (a single reply goes out plain).
    /// Non-request items inside a batch are a protocol violation and are
    /// counted as undecodable.
    fn handle_batch(
        &mut self,
        ctx: &mut Ctx,
        batch: Batch,
        handler: &mut impl FnMut(&mut Ctx, &Request) -> Option<Result<Value, RemoteError>>,
    ) -> Served {
        let (mut executed, mut suppressed, mut dropped) = (0u64, 0u64, 0u64);
        // Replies grouped by destination, preserving request order.
        let mut by_dest: Vec<(Endpoint, Vec<Bytes>)> = Vec::new();
        for item in batch.items {
            let req = match item {
                Packet::Request(r) => r,
                _ => {
                    self.stats.undecodable += 1;
                    ctx.obs().on_undecodable();
                    continue;
                }
            };
            let reply_to = req.reply_to;
            let bytes = match self.answer_request(ctx, &req, handler) {
                Answer::Executed(b) => {
                    executed += 1;
                    b
                }
                Answer::Cached(b) => {
                    suppressed += 1;
                    b
                }
                Answer::Dropped => {
                    dropped += 1;
                    continue;
                }
                Answer::Deferred => {
                    executed += 1;
                    continue;
                }
            };
            match by_dest.iter_mut().find(|(ep, _)| *ep == reply_to) {
                Some((_, replies)) => replies.push(bytes),
                None => by_dest.push((reply_to, vec![bytes])),
            }
        }
        for (dest, mut replies) in by_dest {
            if replies.len() == 1 {
                // A lone reply needs no envelope; send the cached bytes
                // as-is so single retransmissions stay byte-identical.
                ctx.send_traced(dest, replies.pop().unwrap(), obs::SpanId::NONE);
            } else {
                let count = replies.len();
                let items = replies
                    .iter()
                    .map(|b| match Packet::from_frame(b) {
                        Ok(p) => p,
                        Err(_) => unreachable!("server-encoded reply must decode"),
                    })
                    .collect();
                let payload = Batch { items }.to_bytes();
                ctx.trace(simnet::TraceEvent::Batched {
                    src: ctx.endpoint(),
                    dst: dest,
                    count,
                    span: obs::SpanId::NONE,
                });
                ctx.send_traced(dest, payload, obs::SpanId::NONE);
            }
        }
        Served::Batch {
            executed,
            suppressed,
            dropped,
        }
    }

    /// Duplicate-suppressed execution of one request: runs the handler
    /// only for fresh ids, records the encoded reply, and returns what
    /// to send — without sending it, so batch dispatch can coalesce.
    fn answer_request(
        &mut self,
        ctx: &mut Ctx,
        req: &Request,
        handler: &mut impl FnMut(&mut Ctx, &Request) -> Option<Result<Value, RemoteError>>,
    ) -> Answer {
        let window = self.windows.entry(req.reply_to).or_default();
        if let Some(cached) = window.lookup(req.call_id) {
            // Retransmission of a call we already executed: resend the
            // recorded reply; do NOT run the handler again. The cached
            // bytes already carry the original request's span, so the
            // resent reply correlates with the same invocation.
            let cached = cached.clone();
            self.stats.duplicates_suppressed += 1;
            ctx.obs().on_duplicate_suppressed();
            return Answer::Cached(cached);
        }
        if window.is_executed(req.call_id) {
            // Still executing (the reply will come when it completes), or
            // executed long ago and evicted from the reply cache (the
            // client has long since given up on it) — drop.
            self.stats.duplicates_dropped += 1;
            ctx.obs().on_duplicate_dropped();
            return Answer::Dropped;
        }
        // Open a dispatch span as a child of the request's invoke span
        // and make it the process's active span while the handler runs,
        // so notifications the handler sends (invalidations, recalls,
        // replication updates) are parented to this dispatch.
        let dispatch = ctx.obs().open_span(
            obs::SpanKind::Dispatch,
            obs::SpanId::from_raw(req.span),
            ctx.name(),
            &req.op,
            ctx.now().as_nanos(),
        );
        let previous = ctx.set_current_span(dispatch);
        let started = ctx.now();
        let result = handler(ctx, req);
        ctx.set_current_span(previous);
        self.stats.executed += 1;
        ctx.obs().on_executed();
        let executing = Executing {
            call_id: req.call_id,
            span: req.span,
            dispatch,
            op: req.op.clone(),
            started,
        };
        match result {
            Some(result) => Answer::Executed(self.finish(ctx, req.reply_to, executing, result)),
            None => {
                let window = self.windows.entry(req.reply_to).or_default();
                window.mark_executed(req.call_id);
                window.executing.push(executing);
                Answer::Deferred
            }
        }
    }

    /// Closes a call's dispatch span, records its encoded reply for
    /// duplicate suppression and returns it for sending.
    fn finish(
        &mut self,
        ctx: &mut Ctx,
        reply_to: Endpoint,
        call: Executing,
        result: Result<Value, RemoteError>,
    ) -> Bytes {
        ctx.obs()
            .close_span(call.dispatch, ctx.now().as_nanos(), result.is_ok());
        ctx.trace(simnet::TraceEvent::ServerExecute {
            service: ctx.name().to_owned(),
            op: call.op,
            span: call.dispatch,
            dur_ns: ctx.now().saturating_since(call.started).as_nanos() as u64,
        });
        let encoded = Reply {
            call_id: call.call_id,
            result,
            span: call.span,
        }
        .to_bytes();
        self.windows
            .entry(reply_to)
            .or_default()
            .insert(call.call_id, encoded.clone());
        encoded
    }

    /// Delivers the result of a call whose handler deferred it (see
    /// [`RpcServer::handle_deferred`]): the reply is recorded and sent to
    /// `reply_to`, and the call's dispatch span closes. Returns `false`,
    /// sending nothing, if `(reply_to, call_id)` is not executing — a
    /// call is answered once.
    pub fn complete(
        &mut self,
        ctx: &mut Ctx,
        reply_to: Endpoint,
        call_id: u64,
        result: Result<Value, RemoteError>,
    ) -> bool {
        self.complete_with(ctx, reply_to, call_id, |_| result)
    }

    /// [`RpcServer::complete`] for a call whose work was put off along
    /// with its reply (a server modelling service time): `run` produces
    /// the result with the call's dispatch span as the process's active
    /// span, exactly as a handler that answers on the spot runs, so what
    /// it sends is parented to the dispatch. `run` is not called if the
    /// call is not executing.
    pub fn complete_with(
        &mut self,
        ctx: &mut Ctx,
        reply_to: Endpoint,
        call_id: u64,
        run: impl FnOnce(&mut Ctx) -> Result<Value, RemoteError>,
    ) -> bool {
        let Some(window) = self.windows.get_mut(&reply_to) else {
            return false;
        };
        let Some(at) = window.executing.iter().position(|e| e.call_id == call_id) else {
            return false;
        };
        let call = window.executing.swap_remove(at);
        let previous = ctx.set_current_span(call.dispatch);
        let result = run(ctx);
        ctx.set_current_span(previous);
        let span = obs::SpanId::from_raw(call.span);
        let encoded = self.finish(ctx, reply_to, call, result);
        ctx.send_traced(reply_to, encoded, span);
        true
    }

    /// Runs a request loop until the simulation stops. One-way traffic is
    /// passed to `on_oneway`; replies and undecodable datagrams are
    /// dropped (counted).
    pub fn serve(
        &mut self,
        ctx: &mut Ctx,
        mut handler: impl FnMut(&mut Ctx, &Request) -> Result<Value, RemoteError>,
        mut on_oneway: impl FnMut(&mut Ctx, &Oneway),
    ) {
        while let Ok(msg) = ctx.recv() {
            if let Served::Oneway(o) = self.handle(ctx, &msg, &mut handler) {
                on_oneway(ctx, &o);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{NodeId, PortId};

    fn ep(n: u32, p: u32) -> Endpoint {
        Endpoint::new(NodeId(n), PortId(p))
    }

    #[test]
    fn window_caches_and_evicts() {
        let mut w = ClientWindow::default();
        for id in 1..=(REPLY_CACHE_PER_CLIENT as u64 + 5) {
            w.insert(id, Bytes::from_static(b"r"));
        }
        assert_eq!(w.floor, REPLY_CACHE_PER_CLIENT as u64 + 5);
        assert!(w.lookup(1).is_none(), "oldest evicted");
        assert!(w.lookup(REPLY_CACHE_PER_CLIENT as u64 + 5).is_some());
        assert!(w.lookup(6).is_some(), "recent retained");
    }

    #[test]
    fn windows_are_per_client() {
        let mut s = RpcServer::new();
        s.windows
            .entry(ep(0, 1))
            .or_default()
            .insert(5, Bytes::new());
        assert!(s.windows.entry(ep(0, 2)).or_default().lookup(5).is_none());
    }

    #[test]
    fn out_of_order_ids_are_not_mistaken_for_duplicates() {
        // A pipelined client's ids can execute out of order: executing 3
        // must not mark 1 and 2 as duplicates.
        let mut w = ClientWindow::default();
        w.insert(3, Bytes::from_static(b"c"));
        assert!(w.is_executed(3));
        assert!(!w.is_executed(1), "gap id 1 wrongly suppressed");
        assert!(!w.is_executed(2), "gap id 2 wrongly suppressed");
        w.insert(1, Bytes::from_static(b"a"));
        assert_eq!(w.floor, 1, "floor advances over contiguous prefix");
        w.insert(2, Bytes::from_static(b"b"));
        assert_eq!(w.floor, 3, "floor absorbs the closed gap");
        assert!(w.executed.is_empty(), "set drained into the floor");
        assert!(w.is_executed(1) && w.is_executed(2) && w.is_executed(3));
        assert!(!w.is_executed(4));
    }

    #[test]
    fn executed_set_stays_bounded() {
        let mut w = ClientWindow::default();
        // Insert only odd ids: every one leaves a gap, so nothing
        // compacts into the floor until the bound kicks in.
        for i in 0..(EXECUTED_SET_LIMIT as u64 + 100) {
            w.insert(2 * i + 1, Bytes::from_static(b"r"));
        }
        assert!(w.executed.len() <= EXECUTED_SET_LIMIT);
        assert!(w.floor > 0, "bound absorbed the oldest ids");
    }
}
