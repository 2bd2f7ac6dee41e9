//! The RPC server: dispatch with duplicate suppression.
//!
//! [`RpcServer`] implements the server half of at-most-once semantics: it
//! remembers, per client endpoint, the encoded reply of every call it has
//! executed that the client may still be waiting for. A retransmitted
//! request is answered from that reply cache without re-executing the
//! handler — the property experiment E7 verifies under loss and
//! duplication. The exception is a call its owner answers *unrecorded*
//! ([`Pass::settle_unrecorded`]): one that is safe to run twice, such as
//! a name server's lookup. It leaves nothing behind — no client window,
//! no recorded reply, no `lo` released — and a retransmission of it is
//! run again. What a server keeps is then bounded by the clients that
//! made recorded calls, not by every client that ever asked.
//!
//! How long a reply is kept is the client's to say, not a constant's.
//! Every request a [`Channel`](crate::Channel) sends carries `lo`, the
//! lowest call id its process still awaits (see
//! [`Packet::Request`]). The client waits on no id below `lo`, so the
//! server forgets those replies and raises the client's `floor` to
//! `lo − 1`: a request at or below the floor is one the client no longer
//! awaits, and it is dropped unrun. So a reply stays until the client
//! has it or has given up on its call, however many later calls
//! complete first, and what a server keeps per client is bounded by
//! that client's outstanding window. A request that states no `lo`
//! releases nothing. A client's window is made by its first recorded or
//! deferred call, when that call settles; duplicate suppression before
//! then reads it as empty.
//!
//! A pipelined client keeps many calls outstanding, so ids may *execute
//! out of order* (call 7's datagram can arrive before call 5's). Above
//! the floor the window therefore knows each id exactly — replied to,
//! executing, or not yet seen — instead of keeping a single high-water
//! mark: a fresh id below the highest executed one still runs, while
//! replayed ids are suppressed exactly.
//!
//! A handler need not answer on the spot. Under
//! [`RpcServer::handle_deferred`] it may return `None` — "started, will
//! answer later" — and the owner calls [`RpcServer::complete`] when the
//! result exists (an edge cache waiting for its origin). Between the two
//! the id is *executing*: a retransmission of it is dropped, neither
//! re-run nor answered; after completion it is answered from the reply
//! cache like any other.
//!
//! A server that checkpoints its state writes its windows into the same
//! checkpoint ([`RpcServer::encode_windows`]) and starts again from them
//! ([`RpcServer::restore`]), so that a call whose reply was lost in a
//! crash is answered from the restored window, not run again, by the
//! incarnation that recovers.
//!
//! Replies leave by one path, whichever way they were produced: those a
//! batch gets on the spot, and those of calls completed together (the
//! fills one origin reply batch settles at an edge), go out as one
//! datagram per client, the recorded reply frames spliced into one batch
//! as they stand. A reply alone goes out exactly as it was recorded.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use simnet::{Ctx, Endpoint, Message, SimTime};
use wire::{FieldReader, Value, WireError};

use crate::error::RemoteError;
use crate::proto::{
    encode_reply, need, read_endpoint, splice_reply_batch, with_encoder, write_endpoint, Oneway,
    Packet, Reply, Request,
};

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
    Executed,
    /// A fresh request was started; its handler deferred the reply to a
    /// later [`RpcServer::complete`].
    Deferred,
    /// A duplicate was answered from the reply cache (handler not run).
    DuplicateSuppressed,
    /// A request was dropped, unanswered and unrun: its call is still
    /// executing (the reply comes when it completes), or the client no
    /// longer awaits it.
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
        /// Requests the client no longer awaits, or still executing,
        /// dropped.
        dropped: u64,
    },
    /// The datagram failed to decode and was dropped.
    Undecodable,
}

/// Per-client at-most-once state: the client's floor, and above it
/// every id that has run.
///
/// `floor` is everything the client no longer awaits: it is raised only
/// by a request's `lo`, to `lo − 1`, and never falls. An id above it has
/// run if and only if its reply is in `cached` or its call is in
/// `executing`; any other id above it is fresh. Both hold only ids the
/// client may still ask about, so both are bounded by its outstanding
/// window.
#[derive(Debug, Default)]
struct ClientWindow {
    /// Every id `<= floor` is one the client no longer awaits.
    floor: u64,
    /// (call_id, encoded reply) for executed ids above the floor, in
    /// completion order.
    cached: VecDeque<(u64, Bytes)>,
    /// Calls started whose reply is still owed (at most the client's
    /// pipeline depth, so a scan is cheap).
    executing: Vec<Executing>,
}

/// A started call, as much of it as answering it needs besides its op
/// name.
#[derive(Debug, Clone, Copy)]
struct Call {
    call_id: u64,
    /// The request's span, echoed in the reply.
    span: u64,
    /// The dispatch span, open until the call completes.
    dispatch: obs::SpanId,
    started: SimTime,
}

/// A started call whose handler deferred the reply: the only case that
/// keeps its own copy of the op name.
#[derive(Debug)]
struct Executing {
    call: Call,
    op: String,
}

impl ClientWindow {
    /// The window of a client with none: what admission reads before a
    /// client's first recorded call makes its own.
    const NONE: ClientWindow = ClientWindow {
        floor: 0,
        cached: VecDeque::new(),
        executing: Vec::new(),
    };

    fn lookup(&self, id: u64) -> Option<&Bytes> {
        self.cached.iter().find(|(i, _)| *i == id).map(|(_, b)| b)
    }

    /// Whether a request for `id`, which has no recorded reply, is
    /// dropped unrun: its call is still executing, or the client no
    /// longer awaits it.
    fn drops(&self, id: u64) -> bool {
        id <= self.floor || self.executing.iter().any(|e| e.call.call_id == id)
    }

    /// Whether a request for `id` carrying `lo` is fresh: above the
    /// floor its `lo` would raise, with no recorded reply and not
    /// executing. Exactly what [`ClientWindow::release_below`] followed by
    /// [`ClientWindow::lookup`] and [`ClientWindow::drops`] would find,
    /// releasing nothing.
    fn is_fresh(&self, id: u64, lo: u64) -> bool {
        id > self.floor.max(lo.saturating_sub(1)) && self.lookup(id).is_none() && !self.drops(id)
    }

    /// Takes a request's `lo`: the client awaits no id below it, so the
    /// floor rises to `lo − 1` and the replies below it are forgotten.
    /// A `lo` of 0 or 1 releases nothing.
    fn release_below(&mut self, lo: u64) {
        if lo > self.floor + 1 {
            self.floor = lo - 1;
            self.cached.retain(|&(id, _)| id >= lo);
        }
    }

    /// Records the reply to an executed call, unless the client no
    /// longer awaits it.
    fn insert(&mut self, id: u64, reply: Bytes) {
        if id > self.floor {
            self.cached.push_back((id, reply));
        }
    }

    /// Closes a call's dispatch span, records its encoded reply for
    /// duplicate suppression and returns it for sending.
    fn answer(
        &mut self,
        ctx: &mut Ctx,
        call: Call,
        op: &str,
        result: Result<Value, RemoteError>,
    ) -> Bytes {
        close_dispatch(ctx, &call, op, result.is_ok());
        let encoded = Reply {
            call_id: call.call_id,
            result,
            span: call.span,
        }
        .to_bytes();
        self.insert(call.call_id, encoded.clone());
        encoded
    }
}

/// What duplicate suppression makes of one request.
enum Admit {
    /// A retransmission of a call with a recorded reply: the reply to
    /// resend.
    Cached(Bytes),
    /// Still executing, or no longer awaited; nothing to send.
    Dropped,
    /// A fresh call, started, and the `lo` its request stated.
    Fresh(Call, u64),
}

/// Encoded replies on their way out, grouped by destination in the
/// order each destination first appears: the one send path of a batch's
/// replies and of calls completed together. Each destination keeps the
/// span a reply travelling alone to it is traced under: its call's span
/// for a completion, and none for a batch's replies, which travel under
/// no span, as the batch did.
#[derive(Debug)]
struct Coalesced {
    /// The first reply while it is the only one, held without
    /// allocating: a reply alone is the common case.
    first: Option<(Endpoint, obs::SpanId, Bytes)>,
    /// Every reply, once there is more than one.
    by_dest: Vec<(Endpoint, obs::SpanId, Vec<Bytes>)>,
}

impl Coalesced {
    fn new() -> Coalesced {
        Coalesced {
            first: None,
            by_dest: Vec::new(),
        }
    }

    /// Queues `reply` for `dest`; `lone` is what it is traced under if it
    /// turns out to be the only reply to `dest`.
    fn push(&mut self, dest: Endpoint, reply: Bytes, lone: obs::SpanId) {
        if self.by_dest.is_empty() {
            let Some((ep, s, first)) = self.first.take() else {
                self.first = Some((dest, lone, reply));
                return;
            };
            self.by_dest.push((ep, s, vec![first]));
        }
        match self.by_dest.iter_mut().find(|(ep, ..)| *ep == dest) {
            Some((.., replies)) => replies.push(reply),
            None => self.by_dest.push((dest, lone, vec![reply])),
        }
    }

    /// Sends one datagram per destination. A lone reply needs no
    /// envelope and goes out as recorded, so a retransmission answered
    /// alone is byte-identical to it; several are spliced into one batch
    /// as they stand, never decoded and written again.
    fn send(self, ctx: &mut Ctx) {
        if let Some((dest, lone, reply)) = self.first {
            ctx.send_traced(dest, reply, lone);
        }
        for (dest, lone, mut replies) in self.by_dest {
            if replies.len() == 1 {
                ctx.send_traced(dest, replies.pop().expect("one reply"), lone);
                continue;
            }
            let payload = splice_reply_batch(&replies);
            ctx.trace(obs::SpanId::NONE, || obs::NetEventKind::Batched {
                src: ctx.endpoint().into(),
                dst: dest.into(),
                count: replies.len() as u64,
            });
            ctx.send_traced(dest, payload, obs::SpanId::NONE);
        }
    }
}

/// Server-side call dispatch with per-client duplicate suppression.
///
/// Use [`RpcServer::serve`] for a simple request loop, or
/// [`RpcServer::handle`] inside a custom loop that also processes
/// one-way control traffic. A server that answers some calls later uses
/// [`RpcServer::handle_deferred`] and hands whatever results are ready
/// to one [`RpcServer::complete`], which answers each client in one
/// datagram.
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
    /// Every datagram is decoded once, by [`Packet::from_frame`],
    /// duplicates included: whether a frame is accepted never depends on
    /// the duplicate-suppression state. A retransmission of a call with
    /// a recorded reply gets that reply resent, byte for byte.
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
    /// answered; afterwards it gets the recorded reply. This is a
    /// [`Pass`] with `handler` run between each [`Pass::next`] and its
    /// [`Pass::settle`].
    pub fn handle_deferred(
        &mut self,
        ctx: &mut Ctx,
        msg: &Message,
        mut handler: impl FnMut(&mut Ctx, &Request) -> Option<Result<Value, RemoteError>>,
    ) -> Served {
        let mut pass = match self.pass(ctx, msg) {
            Ok(pass) => pass,
            Err(served) => return served,
        };
        while let Some(fresh) = pass.next(self, ctx) {
            let result = handler(ctx, &fresh.req);
            pass.settle(self, ctx, &fresh, result);
        }
        pass.finish(ctx)
    }

    /// Decodes `msg` for a [`Pass`] over the requests it carries, one or
    /// a batch; anything else is what [`RpcServer::handle`] returns for
    /// it. Items of a batch that are not requests are a protocol
    /// violation, counted as undecodable as the pass meets them.
    ///
    /// # Errors
    ///
    /// The [`Served`] of a datagram that carries no request.
    pub fn pass(&mut self, ctx: &mut Ctx, msg: &Message) -> Result<Pass, Served> {
        let (lone, items) = match Packet::from_frame(&msg.payload) {
            Ok(Packet::Request(req, lo)) => (Some((req, lo)), Vec::new()),
            Ok(Packet::Batch(batch)) => (None, batch.items),
            Ok(Packet::Oneway(o)) => {
                self.stats.oneways += 1;
                ctx.obs().on_oneway_rx();
                return Err(Served::Oneway(o));
            }
            Ok(Packet::Reply(r)) => return Err(Served::Reply(r)),
            Err(_) => {
                self.stats.undecodable += 1;
                ctx.obs().on_undecodable();
                return Err(Served::Undecodable);
            }
        };
        let served = match lone {
            Some(_) => Served::DuplicateDropped,
            None => Served::Batch {
                executed: 0,
                suppressed: 0,
                dropped: 0,
            },
        };
        Ok(Pass {
            lone,
            items: items.into_iter(),
            out: Coalesced::new(),
            served,
        })
    }

    /// Duplicate suppression for one request: starts a fresh one — its
    /// dispatch span opened as a child of the request's invoke span —
    /// touching no window, since its owner has yet to say whether it is
    /// recorded. Otherwise forgets what the client's `lo` says it no
    /// longer awaits, then finds the id's recorded reply, or drops an id
    /// that is still executing or that the client no longer awaits.
    fn admit(&mut self, ctx: &mut Ctx, req: &Request, lo: u64) -> Admit {
        let known = self.windows.get(&req.reply_to);
        if known
            .unwrap_or(&ClientWindow::NONE)
            .is_fresh(req.call_id, lo)
        {
            let dispatch = ctx.obs().open_span(
                obs::SpanKind::Dispatch,
                obs::SpanId::from_raw(req.span),
                ctx.name(),
                &req.op,
                ctx.now().as_nanos(),
            );
            let call = Call {
                call_id: req.call_id,
                span: req.span,
                dispatch,
                started: ctx.now(),
            };
            return Admit::Fresh(call, lo);
        }
        let window = self.windows.entry(req.reply_to).or_default();
        window.release_below(lo);
        if let Some(cached) = window.lookup(req.call_id) {
            // Retransmission of a call we already executed: resend the
            // recorded reply; do NOT run the handler again. The cached
            // bytes already carry the original request's span, so the
            // resent reply correlates with the same invocation.
            let cached = cached.clone();
            self.stats.duplicates_suppressed += 1;
            ctx.obs().on_duplicate_suppressed();
            return Admit::Cached(cached);
        }
        // Still executing (the reply will come when it completes), or at
        // or below the floor: the client no longer awaits it — drop.
        self.stats.duplicates_dropped += 1;
        ctx.obs().on_duplicate_dropped();
        Admit::Dropped
    }

    /// The reply windows, encoded for a checkpoint: one list, holding for
    /// each client, in endpoint order, `[node, port, floor, id, reply,
    /// …]` with every recorded reply as the frame it was recorded as. A
    /// call still executing is left out: its handler has not finished,
    /// so the checkpoint holds none of its effects either, and a
    /// retransmission of it runs afresh on a server restored from it.
    pub fn encode_windows(&self) -> Bytes {
        let mut clients: Vec<_> = self.windows.iter().collect();
        clients.sort_unstable_by_key(|&(&client, _)| client);
        with_encoder(|e| {
            e.encode_with(|w| {
                w.begin_list(clients.len());
                for (&client, window) in clients {
                    w.begin_list(3 + 2 * window.cached.len());
                    write_endpoint(w, client);
                    w.u64(window.floor);
                    for (id, reply) in &window.cached {
                        w.u64(*id);
                        w.blob(reply);
                    }
                }
            })
        })
    }

    /// A server whose windows are those `windows` encodes
    /// ([`RpcServer::encode_windows`]), its counters at zero.
    ///
    /// # Errors
    ///
    /// A [`WireError`] for an encoding that is truncated, has a slot of
    /// the wrong kind or a window of the wrong arity, or has bytes past
    /// its end.
    pub fn restore(windows: &Bytes) -> Result<RpcServer, WireError> {
        let mut r = FieldReader::new(windows);
        let mut server = RpcServer::new();
        for _ in 0..need(r.list(0)?, "a list of windows")? {
            let slots = need(r.list(1)?, "a window")?;
            if slots < 3 || slots % 2 == 0 {
                return Err(WireError::WrongKind {
                    expected: "a window [node, port, floor, id, reply, …]",
                    actual: "another arity",
                });
            }
            let client = read_endpoint(&mut r, 2)?;
            let mut window = ClientWindow {
                floor: need(r.u64(2)?, "floor")?,
                ..ClientWindow::default()
            };
            for _ in 0..(slots - 3) / 2 {
                let id = need(r.u64(2)?, "id")?;
                let reply = need(r.blob(2)?, "reply")?;
                window.cached.push_back((id, Bytes::copy_from_slice(reply)));
            }
            server.windows.insert(client, window);
        }
        r.finish()?;
        Ok(server)
    }

    /// How many clients this server keeps a window for (test hook: a
    /// client whose calls were all answered unrecorded has none).
    #[doc(hidden)]
    pub fn windows_len(&self) -> usize {
        self.windows.len()
    }

    /// Delivers the results of calls whose handlers deferred them (see
    /// [`RpcServer::handle_deferred`]), given together as `(reply_to,
    /// call_id, result)`: each reply is recorded, each call's dispatch
    /// span closes, and the replies go out coalesced as
    /// [`RpcServer::handle_deferred`] coalesces a batch's — one datagram
    /// per `reply_to`, the recorded frames spliced into one batch. A lone
    /// reply goes out as it was recorded, under its call's span. A pair
    /// that is not executing is skipped, so a call is answered once.
    /// Returns how many calls were answered.
    pub fn complete(
        &mut self,
        ctx: &mut Ctx,
        results: impl IntoIterator<Item = (Endpoint, u64, Result<Value, RemoteError>)>,
    ) -> usize {
        let mut out = Coalesced::new();
        let mut answered = 0;
        for (reply_to, call_id, result) in results {
            let Some(window) = self.windows.get_mut(&reply_to) else {
                continue;
            };
            let Some(at) = window
                .executing
                .iter()
                .position(|e| e.call.call_id == call_id)
            else {
                continue;
            };
            let Executing { call, op } = window.executing.swap_remove(at);
            let span = obs::SpanId::from_raw(call.span);
            let encoded = window.answer(ctx, call, &op, result);
            out.push(reply_to, encoded, span);
            answered += 1;
        }
        out.send(ctx);
        answered
    }

    /// Runs a request loop on a blocking body until the simulation stops.
    /// One-way traffic is passed to `on_oneway`; replies and undecodable
    /// datagrams are dropped (counted). It stays only for the benchmark's
    /// system under test (`benchmark/src/sut.rs`) and for tests; an `async`
    /// body loops over [`simnet::AsyncCx::recv`] and
    /// [`RpcServer::handle`].
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

/// Closes a call's dispatch span and traces its execution.
fn close_dispatch(ctx: &mut Ctx, call: &Call, op: &str, ok: bool) {
    ctx.obs()
        .close_span(call.dispatch, ctx.now().as_nanos(), ok);
    ctx.trace(call.dispatch, || obs::NetEventKind::ServerExecute {
        service: ctx.name().to_owned(),
        op: op.to_owned(),
        dur_ns: ctx.now().saturating_since(call.started).as_nanos() as u64,
    });
}

/// A pass over one datagram's requests, for an owner that runs each
/// fresh one itself, one at a time ([`RpcServer::handle_deferred`] is
/// this pass around a closure): [`Pass::next`] answers duplicates from
/// the reply cache and hands out the next fresh request, its dispatch
/// span open and current; [`Pass::settle`] takes its result, or `None` —
/// "started, will answer later" — or [`Pass::settle_unrecorded`] answers
/// it without a record; [`Pass::finish`] sends the replies,
/// coalesced as [`RpcServer::handle`] coalesces a batch's. Each step
/// takes the server that made the pass, so the owner may use the server
/// between steps.
#[derive(Debug)]
pub struct Pass {
    /// A lone request, until it is taken.
    lone: Option<(Request, u64)>,
    /// A batch's items not yet taken.
    items: std::vec::IntoIter<Packet>,
    out: Coalesced,
    /// What the pass did so far: counts, for a batch.
    served: Served,
}

/// A fresh request a [`Pass`] hands out: until it is settled, its
/// dispatch span is the process's current span.
#[derive(Debug)]
pub struct Fresh {
    /// The request.
    pub req: Request,
    call: Call,
    /// The request's `lo`, taken into its client's window when the call
    /// settles recorded or deferred.
    lo: u64,
    /// The span current before the dispatch span, back once settled.
    previous: obs::SpanId,
}

impl Fresh {
    /// The request's dispatch span: what the work its owner does for it
    /// later runs under, so that what it sends is parented to the
    /// dispatch, as a handler's sends are.
    pub fn dispatch(&self) -> obs::SpanId {
        self.call.dispatch
    }
}

impl Pass {
    /// The next fresh request, after answering (or dropping) the
    /// duplicates before it; `None` when the datagram has no more.
    pub fn next(&mut self, server: &mut RpcServer, ctx: &mut Ctx) -> Option<Fresh> {
        loop {
            let (req, lo) = match self.lone.take() {
                Some(lone) => lone,
                None => match self.items.next()? {
                    Packet::Request(req, lo) => (req, lo),
                    _ => {
                        server.stats.undecodable += 1;
                        ctx.obs().on_undecodable();
                        continue;
                    }
                },
            };
            match server.admit(ctx, &req, lo) {
                Admit::Cached(bytes) => {
                    self.tally(Served::DuplicateSuppressed);
                    self.out.push(req.reply_to, bytes, self.lone_span(&req));
                }
                Admit::Dropped => self.tally(Served::DuplicateDropped),
                Admit::Fresh(call, lo) => {
                    // The dispatch is the process's active span while the
                    // request runs, so notifications it sends
                    // (invalidations, recalls, replication updates) are
                    // parented to it.
                    let previous = ctx.set_current_span(call.dispatch);
                    return Some(Fresh {
                        req,
                        call,
                        lo,
                        previous,
                    });
                }
            }
        }
    }

    /// Takes the result of `fresh`, handed out by this pass: `Some` is
    /// answered with the pass's replies; `None` leaves the call executing
    /// until [`RpcServer::complete`] answers it.
    pub fn settle(
        &mut self,
        server: &mut RpcServer,
        ctx: &mut Ctx,
        fresh: &Fresh,
        result: Option<Result<Value, RemoteError>>,
    ) {
        Pass::executed(server, ctx, fresh);
        let req = &fresh.req;
        // The client's first recorded call makes its window.
        let window = server.windows.entry(req.reply_to).or_default();
        window.release_below(fresh.lo);
        match result {
            Some(result) => {
                let bytes = window.answer(ctx, fresh.call, &req.op, result);
                self.out.push(req.reply_to, bytes, self.lone_span(req));
                self.tally(Served::Executed);
            }
            None => {
                window.executing.push(Executing {
                    call: fresh.call,
                    op: req.op.clone(),
                });
                self.tally(Served::Deferred);
            }
        }
    }

    /// Answers `fresh` with the pass's replies without recording the
    /// reply, for a call that is safe to run twice (a read): its client
    /// gets no window, its `lo` releases nothing, and a retransmission
    /// of it runs again. `Ok` holds the success value already encoded
    /// (one value as [`wire::encode`] writes it), copied into the reply
    /// as it stands.
    pub fn settle_unrecorded(
        &mut self,
        server: &mut RpcServer,
        ctx: &mut Ctx,
        fresh: &Fresh,
        result: Result<Bytes, RemoteError>,
    ) {
        Pass::executed(server, ctx, fresh);
        let (req, call) = (&fresh.req, &fresh.call);
        close_dispatch(ctx, call, &req.op, result.is_ok());
        let ok = result.as_ref().map(|ok| &ok[..]);
        let bytes = encode_reply(call.call_id, call.span, ok);
        self.out.push(req.reply_to, bytes, self.lone_span(req));
        self.tally(Served::Executed);
    }

    /// Counts `fresh` as executed, its dispatch span no longer current.
    fn executed(server: &mut RpcServer, ctx: &mut Ctx, fresh: &Fresh) {
        ctx.set_current_span(fresh.previous);
        server.stats.executed += 1;
        ctx.obs().on_executed();
    }

    /// Sends the pass's replies; returns what it did.
    pub fn finish(self, ctx: &mut Ctx) -> Served {
        self.out.send(ctx);
        self.served
    }

    /// What `req`'s reply travels under if it goes alone: its call's
    /// span for a lone request, none for a batch's.
    fn lone_span(&self, req: &Request) -> obs::SpanId {
        match self.served {
            Served::Batch { .. } => obs::SpanId::NONE,
            _ => obs::SpanId::from_raw(req.span),
        }
    }

    fn tally(&mut self, what: Served) {
        let Served::Batch {
            executed,
            suppressed,
            dropped,
        } = &mut self.served
        else {
            self.served = what;
            return;
        };
        match what {
            Served::Executed | Served::Deferred => *executed += 1,
            Served::DuplicateSuppressed => *suppressed += 1,
            _ => *dropped += 1,
        }
    }
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    use super::*;
    use crate::{Channel, ChannelConfig};
    use simnet::{NetworkConfig, NodeId, PortId, Simulation};

    fn ep(n: u32, p: u32) -> Endpoint {
        Endpoint::new(NodeId(n), PortId(p))
    }

    /// The ids above the floor a window knows have run.
    fn ran_above_floor(w: &ClientWindow) -> usize {
        w.cached.len() + w.executing.len()
    }

    #[test]
    fn window_caches_and_evicts() {
        // The client still awaits call 1 while 200 later calls complete:
        // its reply stays, however many there are.
        let first = Bytes::from_static(b"first");
        let mut w = ClientWindow::default();
        w.insert(1, first.clone());
        for id in 2..=201 {
            w.release_below(1);
            w.insert(id, Bytes::from_static(b"r"));
        }
        assert_eq!(w.lookup(1), Some(&first), "an awaited reply was evicted");
        assert_eq!(w.floor, 0);
        // Its next request says it awaits nothing below 150: those
        // replies go, and those ids are never run again.
        w.release_below(150);
        assert_eq!(w.floor, 149);
        assert!(w.lookup(1).is_none() && w.lookup(149).is_none());
        assert!(w.drops(1) && w.drops(149), "a released id would run");
        assert!(w.lookup(150).is_some() && w.lookup(201).is_some());
        assert_eq!(w.cached.len(), 52);
        // An older `lo` (a late datagram) lowers nothing.
        w.release_below(10);
        assert_eq!(w.floor, 149);
        // A request stating no `lo` releases nothing.
        w.release_below(0);
        assert_eq!((w.floor, w.cached.len()), (149, 52));
        // A reply to a call the client has given up on is not kept.
        w.insert(120, Bytes::from_static(b"late"));
        assert!(w.lookup(120).is_none());
    }

    #[test]
    fn windows_round_trip_through_their_encoding_without_executing_calls() {
        let mut s = RpcServer::new();
        let w = s.windows.entry(ep(3, 70_000)).or_default();
        w.release_below(5);
        w.insert(6, Bytes::from_static(b"six"));
        w.insert(9, Bytes::from(vec![9u8; 40]));
        w.executing.push(Executing {
            call: Call {
                call_id: 7,
                span: 0,
                dispatch: obs::SpanId::NONE,
                started: SimTime::ZERO,
            },
            op: "incr".into(),
        });
        s.windows.entry(ep(1, 2)).or_default();
        let restored = RpcServer::restore(&s.encode_windows()).unwrap();
        assert_eq!(restored.windows_len(), 2);
        let w = &restored.windows[&ep(3, 70_000)];
        assert_eq!(w.floor, 4);
        assert_eq!(w.lookup(6).map(|b| &b[..]), Some(&b"six"[..]));
        assert_eq!(w.lookup(9).map(|b| b.len()), Some(40));
        assert!(w.executing.is_empty() && !w.drops(7), "7 has not run");
        assert_eq!(restored.encode_windows(), {
            s.windows.get_mut(&ep(3, 70_000)).unwrap().executing.clear();
            s.encode_windows()
        });
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
        assert!(w.lookup(3).is_some());
        assert!(!w.drops(1), "gap id 1 wrongly suppressed");
        assert!(!w.drops(2), "gap id 2 wrongly suppressed");
        w.insert(1, Bytes::from_static(b"a"));
        w.insert(2, Bytes::from_static(b"b"));
        assert!((1..=3).all(|id| w.lookup(id).is_some()));
        assert!(!w.drops(4));
        // Only the client moves the floor.
        assert_eq!(w.floor, 0);
    }

    #[test]
    fn executed_set_stays_bounded() {
        // A client that sends this server only odd ids (the even ones go
        // elsewhere), one call at a time: every request's `lo` is its own
        // id, so the window never knows more than that one call.
        let mut w = ClientWindow::default();
        for id in (1..4000u64).step_by(2) {
            w.release_below(id);
            assert!(!w.drops(id), "fresh id {id} dropped");
            w.insert(id, Bytes::from_static(b"r"));
            assert_eq!(ran_above_floor(&w), 1);
        }
        assert_eq!(w.floor, 3998);
    }

    #[test]
    fn a_client_alternating_between_two_servers_stays_within_its_window_at_each() {
        // One process, one call at a time, alternating between two
        // servers: each sees every other id. The gaps never close, yet
        // neither server holds more than the one call the client has
        // outstanding.
        let mut sim = Simulation::new(NetworkConfig::lan(), 11);
        let most = Arc::new(AtomicUsize::new(0));
        let servers: Vec<Endpoint> = (0..2)
            .map(|n| {
                let most = Arc::clone(&most);
                sim.spawn_at("counter", NodeId(n), PortId(1), move |ctx| {
                    let mut srv = RpcServer::new();
                    let mut calls = 0u64;
                    while let Ok(msg) = ctx.recv() {
                        srv.handle(ctx, &msg, |_, _| {
                            calls += 1;
                            Ok(Value::U64(calls))
                        });
                        let held = srv.windows.values().map(ran_above_floor).max();
                        most.fetch_max(held.unwrap_or(0), Ordering::SeqCst);
                    }
                })
            })
            .collect();
        sim.spawn("client", NodeId(2), move |ctx| {
            let mut clients: Vec<_> = (servers.iter())
                .map(|&s| Channel::new("", s, ChannelConfig::with_depth(1)))
                .collect();
            for round in 1..=150u64 {
                for c in &mut clients {
                    let got = ctx.block_on(|cx| c.call(cx, "", "inc", Value::Null, None));
                    assert_eq!(got, Ok(Value::U64(round)));
                }
            }
        });
        sim.run();
        assert_eq!(most.load(Ordering::SeqCst), 1);
    }
}
