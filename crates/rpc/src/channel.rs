//! The RPC channel: the one client transport. Many outstanding calls,
//! one endpoint.
//!
//! A [`Channel`] keeps up to [`ChannelConfig::pipeline_depth`] calls in
//! flight against one server endpoint. [`Channel::call`] is the one
//! request–reply call: it stages a call under the caller's span, waits
//! for it and hands back its result, one call and one round trip. A
//! pipelining caller stages calls itself ([`Channel::begin_call`], each
//! under an `Invoke` span of its own) and redeems the [`CallHandle`]s
//! later. [`Channel::wait_async`], the one wait loop, drives the channel
//! until replies arrive (an `async` body awaits it; [`Channel::wait`]
//! runs it through [`simnet::Ctx::block_on`] on a blocking body, which
//! only the benchmark's system under test and tests still write). A poll-driven process that receives for
//! itself shows each datagram to [`Channel::offer`], drives the channel
//! with [`Channel::tick`] and claims results with [`Channel::try_take`],
//! completing on the reply's own delivery wake. Replies are matched by
//! call id, each call keeps its own retransmission timer, and ids
//! retransmit unchanged — so the server's per-client window gives
//! at-most-once execution even though calls complete out of order.
//!
//! Every wait hands what is not its reply to its caller. A wait that
//! owns the mailbox is given an [`OnStray`] rule for the datagrams that
//! are not the channel's — [`oneways_into`] collects the one-ways for a
//! proxy to route — and one given no rule drops and counts each as it
//! arrives ([`ChannelStats::discarded`]). Nothing is kept for later.
//!
//! On top of pipelining the channel *batches*: staged requests bound for
//! the same endpoint coalesce into one [`Batch`] datagram (up to
//! [`ChannelConfig::max_batch`] per frame), and the server coalesces the
//! replies it gives on the spot on the way back, splicing the reply
//! frames it recorded into one batch as they stand — many calls, one
//! network traversal each way. Replies a server defers and then
//! completes together coalesce the same way. That holds for large
//! replies as much as for small ones: a bulk transfer batches as deep as
//! it pipelines, an edge cache batches its origin calls as deep as it
//! pipelines them and answers the fills one origin reply brings in one
//! datagram per client, and a batch of 16 KiB chunk replies is one copy
//! of each chunk. A lost datagram loses its calls together, so calls
//! whose retransmission falls due together go out as one batch again. A
//! staged call is encoded where it travels: straight into the frame of
//! each batch that carries it, and into a frame of its own only the
//! first time a datagram carries it alone — every later lone
//! retransmission sends those same bytes. A call that only ever travels
//! in batches is never framed by itself.
//!
//! Loss is detected from evidence before it is inferred from silence.
//! Every datagram the channel sends takes the next number of a send
//! sequence; when a reply settles a call whose latest transmission went
//! out *after* that of a call still outstanding, the outstanding one has
//! been *overtaken* — the path has carried a later datagram there and
//! back — and it is retransmitted once its latest transmission is a
//! path timeout old (`srtt + max(4·rttvar, srtt/8)`, the estimate of the
//! `rtt` module with no floor under it), backing off from that estimate
//! for each further such transmission. Under silence the
//! [`RetryPolicy`] floor times the call as before. The two clocks share
//! one deadline per call, whichever is earlier, and one division of
//! labour: detection decides when to resend, the policy decides when to
//! give up — a transmission made on evidence consumes none of
//! [`RetryPolicy::max_attempts`], and the policy's own timers fire when
//! they always did. A server that answers out of order by design (an
//! edge cache: hits at once, misses after its origin answers) is covered
//! by the variance term of the estimate, which has to span its slow mode
//! anyway; a channel with no round-trip sample yet draws no conclusions.
//!
//! A process that is both client and server (an edge cache: it answers
//! its own clients and calls its origin) cannot let the channel own the
//! mailbox — a wait would swallow the requests it is supposed to serve.
//! Such a process receives for itself, shows each datagram to
//! [`Channel::offer`] (which takes replies and nothing else) and calls
//! [`Channel::tick`] to send staged calls and fire timers. So does a
//! process that waits on several channels at once, such as the ticket
//! pump of `proxy_core::SessionCore`.
//!
//! Every request the channel sends carries `lo`, the lowest call id its
//! *process* still awaits ([`simnet::Ctx::lowest_awaited`]), beside the
//! request itself. It is per process, not per channel, because call ids
//! come from one per-process counter that every channel shares. Each
//! call holds its id as awaited from the moment it is staged until its
//! record goes — a reply, a timeout, or the channel dropped with the
//! call in flight — or, for a call made through [`Channel::call_as`],
//! for as long as its caller holds the id: a call re-sent to another
//! endpoint after a `Moved` redirect or a relookup keeps the id it was
//! first sent under, and the server's window alone decides whether it
//! runs. So `lo` only rises, and a server may forget every
//! reply it recorded below it (see [`RpcServer`](crate::RpcServer)):
//! what a server keeps for a client is bounded by what the client still
//! awaits, not by a cache size, and a reply the client awaits is never
//! forgotten. A batch is stamped when it is built; a lone frame keeps
//! the `lo` of its first send, which is never above the current one, so
//! a retransmission at worst releases less than it could.
//!
//! Every call begun through [`Channel::begin_call`] gets its own
//! `Invoke` span (parented to the caller's active span), so causal traces
//! show per-call latency even when the datagrams were shared. A
//! [`Channel::call`] opens none: its request carries the caller's span.

use std::collections::VecDeque;

use bytes::Bytes;
use simnet::{AsyncCx, Ctx, Endpoint, Message, SimTime};
use wire::Value;

use crate::client::RetryPolicy;
use crate::error::{RemoteError, RpcError};
use crate::proto::{Oneway, Packet, Reply, Request};
use crate::rtt::{RttEstimator, Sent};

/// How many retransmitted, settled calls a channel remembers so their
/// late duplicate replies can still bound the round trip.
const RECENT_RETRANSMITTED: usize = 32;

/// Tuning knobs for a [`Channel`].
#[derive(Debug, Clone, PartialEq)]
pub struct ChannelConfig {
    /// Maximum calls in flight at once (1 = one call, one round trip).
    pub pipeline_depth: usize,
    /// Maximum staged requests coalesced into one datagram (1 = no
    /// batching).
    pub max_batch: usize,
    /// Per-call retransmission policy.
    pub policy: RetryPolicy,
}

impl Default for ChannelConfig {
    /// Depth 8, no batching, the default [`RetryPolicy`].
    fn default() -> ChannelConfig {
        ChannelConfig {
            pipeline_depth: 8,
            max_batch: 1,
            policy: RetryPolicy::default(),
        }
    }
}

impl ChannelConfig {
    /// A config with the given depth, no batching, default retries.
    pub fn with_depth(pipeline_depth: usize) -> ChannelConfig {
        ChannelConfig {
            pipeline_depth,
            ..ChannelConfig::default()
        }
    }

    /// Sets the batch size.
    pub fn batched(mut self, max_batch: usize) -> ChannelConfig {
        self.max_batch = max_batch.max(1);
        self
    }

    /// Sets the retry policy.
    pub fn with_policy(mut self, policy: RetryPolicy) -> ChannelConfig {
        self.policy = policy;
        self
    }
}

/// A ticket for one in-flight call; redeem with [`Channel::wait`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CallHandle(u64);

impl CallHandle {
    /// The underlying call id (diagnostics only).
    pub fn call_id(&self) -> u64 {
        self.0
    }
}

/// Counters accumulated by a channel (readable by harnesses).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ChannelStats {
    /// Calls begun.
    pub calls: u64,
    /// Calls that completed with a reply (ok or remote error).
    pub completed: u64,
    /// Calls that exhausted their retry budget.
    pub timeouts: u64,
    /// Retransmissions sent.
    pub retries: u64,
    /// Batch datagrams sent (excluding single-request sends).
    pub batches_sent: u64,
    /// Requests that travelled inside a batch datagram.
    pub batched_calls: u64,
    /// Replies that matched no outstanding call.
    pub stale_replies: u64,
    /// Non-reply datagrams discarded while the channel owned the mailbox,
    /// as they arrived: all of them in a wait given no [`OnStray`] rule,
    /// those the rule declined in one given a rule. A datagram declined
    /// by [`Channel::offer`] stays with the caller and is not counted
    /// here.
    pub discarded: u64,
}

/// A call that has not settled: staged, or sent and waiting for its
/// reply or its retransmission timer. The fields after `close` mean
/// nothing until the call is sent.
#[derive(Debug)]
struct CallRec {
    request: Request,
    /// Holds the call's id as one its process awaits until the record is
    /// dropped: when the call settles, or with the channel. `None` when
    /// the caller holds the id ([`Channel::call_as`]).
    _awaited: Option<simnet::Awaited>,
    /// The call's own frame, built the first time a datagram carries the
    /// call alone; later lone retransmissions reuse the bytes (and thus
    /// the span). Empty (a frame never is) while the call has only
    /// travelled in batches: an `Option` would cost the record 8 bytes.
    bytes: Bytes,
    /// The span the request carries and its transmissions are traced
    /// under.
    span: obs::SpanId,
    /// The span settling the call closes: `span` if the channel opened
    /// it, none if it is the caller's.
    close: obs::SpanId,
    /// Transmissions the policy's timer has made; it gives up at
    /// [`RetryPolicy::max_attempts`].
    attempt: u32,
    /// Transmissions made on evidence, which the policy does not count.
    overtaken: u32,
    /// Where the latest transmission stands in the channel's send
    /// sequence.
    seq: u64,
    sent: Sent,
    /// When the policy's timer for the latest attempt fires.
    policy_deadline: SimTime,
    /// When to retransmit: `policy_deadline`, or sooner once overtaken.
    deadline: SimTime,
}

/// What a caller waiting on a channel does with a datagram that is not
/// the channel's ([`Channel::wait_async`], [`Channel::call`]): it is
/// handed the datagram, with what it decoded to if it decoded, and says
/// whether it took it. One it did not take is dropped and counted.
pub type OnStray<'a> = &'a mut (dyn FnMut(&mut Ctx, Option<Packet>, Message) -> bool + Send);

/// The [`OnStray`] rule that takes every one-way into `sink`, in arrival
/// order, and declines everything else.
pub fn oneways_into(
    sink: &mut Vec<Oneway>,
) -> impl FnMut(&mut Ctx, Option<Packet>, Message) -> bool + Send + '_ {
    move |_, packet, _| match packet {
        Some(Packet::Oneway(o)) => {
            sink.push(o);
            true
        }
        _ => false,
    }
}

/// What [`Channel::absorb`] made of a datagram.
enum Absorbed {
    /// It carried replies; they were matched to calls.
    Replies,
    /// Not the channel's: what it decoded to, if it decoded.
    Declined(Option<Packet>),
}

/// A settled call's result: the reply, or `None` for a call that timed
/// out.
type Outcome = Option<Result<Value, RemoteError>>;

/// Settled calls nobody has claimed yet, by call id. A caller that claims
/// each call before the next settles keeps at most one, and that one is
/// held inline: it costs no block. The rest are kept in a `Vec` in
/// ascending id order and found by binary search, however many a
/// pipelining caller leaves unclaimed and in whatever order they settle.
#[derive(Debug, Default)]
struct Settled {
    one: Option<(u64, Outcome)>,
    more: Vec<(u64, Outcome)>,
}

impl Settled {
    fn insert(&mut self, id: u64, outcome: Outcome) {
        if self.one.is_none() {
            self.one = Some((id, outcome));
            return;
        }
        if self.more.capacity() == 0 {
            self.more.reserve_exact(1);
        }
        let at = self.more.partition_point(|&(k, _)| k < id);
        self.more.insert(at, (id, outcome));
    }

    fn remove(&mut self, id: u64) -> Option<Outcome> {
        if self.one.as_ref().is_some_and(|&(k, _)| k == id) {
            return self.one.take().map(|(_, outcome)| outcome);
        }
        let at = self.more.binary_search_by_key(&id, |&(k, _)| k).ok()?;
        Some(self.more.remove(at).1)
    }
}

/// A pipelined, batching RPC channel bound to one server endpoint.
///
/// Not a [`Proxy`](../index.html): the channel is the *transport object*
/// proxies build on — the ODP "channel object" whose protocol (depth,
/// batching, retries) the service side may choose freely behind an
/// unchanged call interface.
#[derive(Debug)]
pub struct Channel {
    service: String,
    server: Endpoint,
    cfg: ChannelConfig,
    /// Unsettled calls in begin order, which is ascending id order (ids
    /// come from a per-process counter), so a call is found by binary
    /// search. Calls are sent in this order too: the first `outstanding`
    /// are in flight, the rest are queued.
    calls: VecDeque<CallRec>,
    outstanding: usize,
    /// Settled calls nobody has claimed yet.
    settled: Settled,
    /// Datagrams sent so far carrying requests.
    sends: u64,
    rtt: RttEstimator,
    /// Settled calls that had been retransmitted, oldest first.
    recent: VecDeque<(u64, Sent)>,
    /// Counters (readable by experiment harnesses).
    pub stats: ChannelStats,
}

impl Channel {
    /// Creates a channel for `service` at `server`.
    pub fn new(service: impl Into<String>, server: Endpoint, cfg: ChannelConfig) -> Channel {
        Channel {
            service: service.into(),
            server,
            cfg: ChannelConfig {
                pipeline_depth: cfg.pipeline_depth.max(1),
                max_batch: cfg.max_batch.max(1),
                policy: cfg.policy,
            },
            calls: VecDeque::new(),
            outstanding: 0,
            settled: Settled::default(),
            sends: 0,
            rtt: RttEstimator::default(),
            recent: VecDeque::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The service this channel calls (spans and histograms carry it).
    pub fn service(&self) -> &str {
        &self.service
    }

    /// The server endpoint this channel is bound to.
    pub fn server(&self) -> Endpoint {
        self.server
    }

    /// Repoints the channel at a new server endpoint (after a migration
    /// or rebind). Late replies from the old server fail the source check
    /// and count as stale. The round-trip estimate, and the retransmitted
    /// calls remembered for it, belong to the old path and start over.
    pub fn rebind(&mut self, server: Endpoint) {
        self.server = server;
        self.rtt = RttEstimator::default();
        self.recent.clear();
    }

    /// The smoothed round trip to the server, once a call has completed
    /// on its first transmission (diagnostics only).
    pub fn srtt(&self) -> Option<std::time::Duration> {
        self.rtt.srtt()
    }

    /// The first-attempt timeout in force: the policy's floor or the
    /// path estimate, whichever is longer.
    fn rto(&self) -> std::time::Duration {
        self.rtt.rto(self.cfg.policy.timeout)
    }

    /// Calls currently in flight.
    pub fn outstanding(&self) -> usize {
        self.outstanding
    }

    /// Calls staged but not yet sent.
    pub fn queued(&self) -> usize {
        self.calls.len() - self.outstanding
    }

    /// Whether this handle has settled (reply arrived or timed out).
    pub fn is_settled(&self, h: CallHandle) -> bool {
        self.position(h.0).is_none()
    }

    /// Whether the call `call_id` is one of this channel's and has not
    /// settled: whose a reply is, when two channels share a server.
    pub fn awaits(&self, call_id: u64) -> bool {
        self.position(call_id).is_some()
    }

    /// Where the unsettled call `id` sits in `calls`.
    fn position(&self, id: u64) -> Option<usize> {
        self.calls
            .binary_search_by_key(&id, |rec| rec.request.call_id)
            .ok()
    }

    /// Stages a call on the server's default object and returns its
    /// handle. Nothing is sent until [`Channel::flush`] (which the waits
    /// and [`Channel::tick`] call for you).
    pub fn begin_call(&mut self, ctx: &mut Ctx, op: &str, args: Value) -> CallHandle {
        self.begin_call_object(ctx, "", op, args)
    }

    /// Stages a call on a named object in the server context.
    pub fn begin_call_object(
        &mut self,
        ctx: &mut Ctx,
        object: &str,
        op: &str,
        args: Value,
    ) -> CallHandle {
        // Each call gets its own invoke span parented to the caller's
        // active span.
        let span = ctx.obs().open_span(
            obs::SpanKind::Invoke,
            ctx.current_span(),
            &self.service,
            op,
            ctx.now().as_nanos(),
        );
        self.stage(ctx, None, object, op, args, Some(span))
    }

    /// Stages a call: under `held`, an id its caller holds as awaited, or
    /// under a fresh one the record holds. Its request carries `opened`,
    /// which settling the call closes, or else the caller's span, which
    /// it leaves open.
    fn stage(
        &mut self,
        ctx: &mut Ctx,
        held: Option<u64>,
        object: &str,
        op: &str,
        args: Value,
        opened: Option<obs::SpanId>,
    ) -> CallHandle {
        // Ids come from the per-process counter, shared by every channel
        // and client in the process, so the server's per-endpoint window
        // sees one id space.
        let (call_id, awaited) = match held {
            Some(id) => (id, None),
            None => {
                let awaited = ctx.await_next();
                (awaited.id(), Some(awaited))
            }
        };
        let (span, close) = match opened {
            Some(span) => (span, span),
            None => (ctx.current_span(), obs::SpanId::NONE),
        };
        self.stats.calls += 1;
        ctx.obs().on_call();
        // `transmit` encodes the request into whichever datagram carries
        // it, from this one record, so every transmission carries the
        // same span.
        let request = Request {
            call_id,
            reply_to: ctx.endpoint(),
            object: object.to_owned(),
            op: op.to_owned(),
            args,
            span: span.raw(),
        };
        debug_assert!(
            self.calls
                .back()
                .is_none_or(|last| last.request.call_id < call_id),
            "call ids ascend"
        );
        // The first call reserves room for one, not the standard four: a
        // caller that waits on each call before the next never needs more.
        if self.calls.capacity() == 0 {
            self.calls.reserve_exact(1);
        }
        self.calls.push_back(CallRec {
            request,
            _awaited: awaited,
            bytes: Bytes::new(),
            span,
            close,
            attempt: 0,
            overtaken: 0,
            seq: 0,
            sent: Sent::at(SimTime::ZERO, std::time::Duration::ZERO),
            policy_deadline: SimTime::ZERO,
            deadline: SimTime::ZERO,
        });
        CallHandle(call_id)
    }

    /// Promotes queued calls into the pipeline window and sends them,
    /// coalescing up to `max_batch` requests per datagram.
    pub fn flush(&mut self, ctx: &mut Ctx) {
        while self.outstanding < self.cfg.pipeline_depth && self.queued() > 0 {
            let room = self.cfg.pipeline_depth - self.outstanding;
            let n = self.cfg.max_batch.min(room).min(self.queued());
            let batch = self.outstanding..self.outstanding + n;
            let now = ctx.now();
            let deadline = now + self.cfg.policy.attempt_timeout(self.rto(), 0);
            for rec in self.calls.range_mut(batch.clone()) {
                rec.sent = Sent::at(now, self.cfg.policy.timeout);
                rec.policy_deadline = deadline;
                rec.deadline = deadline;
            }
            self.outstanding += n;
            if n > 1 {
                self.stats.batches_sent += 1;
                self.stats.batched_calls += n as u64;
            }
            self.transmit(ctx, batch);
        }
        self.note_depth(ctx);
    }

    /// Sends the requests at `batch` (positions in `calls`) as one
    /// datagram, the next in the send sequence, each stamped with the
    /// process's `lo`.
    fn transmit(&mut self, ctx: &mut Ctx, batch: impl ExactSizeIterator<Item = usize> + Clone) {
        self.sends += 1;
        for i in batch.clone() {
            self.calls[i].seq = self.sends;
        }
        // Every call here is unsettled, so the process awaits something.
        let lo = |ctx: &Ctx| ctx.lowest_awaited().unwrap_or(0);
        if batch.len() == 1 {
            let rec = &mut self.calls[batch.clone().next().expect("one call")];
            if rec.bytes.is_empty() {
                rec.bytes = rec.request.to_bytes_with_lo(lo(ctx));
            }
            ctx.send_traced(self.server, rec.bytes.clone(), rec.span);
            return;
        }
        // Borrow-based batch encode: the staged requests are written
        // straight into the frame, never cloned.
        let payload = crate::proto::encode_request_batch(
            batch.clone().map(|i| &self.calls[i].request),
            lo(ctx),
        );
        // The datagram serves many spans at once, so it is attributed to
        // none; each call's own span still opens and closes around its
        // reply.
        ctx.trace(obs::SpanId::NONE, || obs::NetEventKind::Batched {
            src: ctx.endpoint().into(),
            dst: self.server.into(),
            count: batch.len() as u64,
        });
        ctx.send_traced(self.server, payload, obs::SpanId::NONE);
    }

    /// Samples the channel's pipeline window and backlog into the flight
    /// recorder, keyed by service; a channel with no service label has no
    /// key and records nothing. Called at every transition point (flush,
    /// expiry, reply) so the gauges bracket each change; costs one
    /// relaxed load when the recorder is off.
    fn note_depth(&self, ctx: &mut Ctx) {
        let obs = ctx.obs();
        if self.service.is_empty() || !obs.timeseries_enabled() {
            return;
        }
        let now_ns = ctx.now().as_nanos();
        obs.ts_gauge(
            now_ns,
            &format!("inflight@{}", self.service),
            self.outstanding as u64,
        );
        obs.ts_gauge(
            now_ns,
            &format!("queued@{}", self.service),
            self.queued() as u64,
        );
    }

    /// Fires retransmission timers: calls past their deadline
    /// retransmit, those falling due together sharing datagrams as first
    /// sends do, or — when it is the policy's timer that fired and its
    /// budget is gone — settle as timed out.
    fn expire(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        let first = self.rto();
        let path = self.rtt.path_rto();
        let policy = &self.cfg.policy;
        let mut resend = Vec::new();
        let mut timed_out = Vec::new();
        for (i, rec) in self.calls.iter_mut().take(self.outstanding).enumerate() {
            if rec.deadline > now {
                continue;
            }
            if rec.deadline < rec.policy_deadline {
                rec.overtaken += 1;
            } else {
                rec.attempt += 1;
                if rec.attempt >= policy.max_attempts {
                    timed_out.push(i);
                    continue;
                }
                rec.policy_deadline = now + policy.attempt_timeout(first, rec.attempt);
            }
            // A call that has been overtaken stays on its path's clock,
            // backed off once per transmission that clock has made.
            rec.deadline = match path {
                Some(path) if rec.overtaken > 0 => rec
                    .policy_deadline
                    .min(now + policy.attempt_timeout(path, rec.overtaken)),
                _ => rec.policy_deadline,
            };
            rec.sent.again(now, rec.deadline.saturating_since(now));
            self.stats.retries += 1;
            ctx.obs().on_retry();
            ctx.obs().span_retransmit_at(rec.span, now.as_nanos());
            ctx.trace(rec.span, || obs::NetEventKind::Retransmit {
                src: ctx.endpoint().into(),
                dst: self.server.into(),
                attempt: rec.attempt + rec.overtaken,
            });
            resend.push(i);
        }
        for batch in resend.chunks(self.cfg.max_batch) {
            self.transmit(ctx, batch.iter().copied());
        }
        // Last, and from the back: removal shifts the positions behind it.
        for i in timed_out.into_iter().rev() {
            let rec = self.calls.remove(i).expect("timed-out call exists");
            self.settled.insert(rec.request.call_id, None);
            self.outstanding -= 1;
            self.stats.timeouts += 1;
            ctx.obs().on_timeout();
            ctx.obs().close_span(rec.close, now.as_nanos(), false);
        }
        self.note_depth(ctx);
    }

    /// A reply has settled a call whose latest transmission was number
    /// `seq`: every call in flight whose latest transmission is older
    /// has been overtaken, and waits no longer than its path asks.
    fn overtake(&mut self, seq: u64) {
        let Some(path) = self.rtt.path_rto() else {
            return;
        };
        for rec in self.calls.iter_mut().take(self.outstanding) {
            if rec.seq < seq {
                let timeout = self.cfg.policy.attempt_timeout(path, rec.overtaken);
                if rec.sent.last + timeout < rec.deadline {
                    rec.deadline = rec.sent.last + timeout;
                    rec.sent.shorten(timeout);
                }
            }
        }
    }

    fn on_reply(&mut self, ctx: &mut Ctx, rep: Reply, msg: &Message) {
        ctx.obs().span_reply(rep.span, ctx.now().as_nanos());
        if msg.src != self.server {
            self.stats.stale_replies += 1;
            ctx.obs().on_stale_reply();
            return;
        }
        // Only a call in flight can be replied to.
        let in_flight = self.position(rep.call_id).filter(|&i| i < self.outstanding);
        match in_flight.and_then(|i| self.calls.remove(i)) {
            Some(rec) => {
                self.outstanding -= 1;
                self.stats.completed += 1;
                self.rtt.on_reply(rec.sent, msg.delivered_at);
                if rec.sent.retransmitted() {
                    if self.recent.len() == RECENT_RETRANSMITTED {
                        self.recent.pop_front();
                    }
                    self.recent.push_back((rep.call_id, rec.sent));
                }
                ctx.obs()
                    .close_span(rec.close, ctx.now().as_nanos(), rep.result.is_ok());
                self.settled.insert(rep.call_id, Some(rep.result));
                self.overtake(rec.seq);
                self.note_depth(ctx);
            }
            None => {
                // Duplicate of an already-settled call, or not ours. The
                // answer to a needless retransmission still says how long
                // the path is.
                if let Some(&(_, sent)) = self.recent.iter().find(|(id, _)| *id == rep.call_id) {
                    self.rtt.on_reply(sent, msg.delivered_at);
                }
                self.stats.stale_replies += 1;
                ctx.obs().on_stale_reply();
            }
        }
    }

    /// Shows the channel a datagram the caller received itself. Replies
    /// (single or batched) from the channel's server are the channel's:
    /// they settle calls, and `true` comes back. Anything else — a
    /// request, a one-way, an undecodable frame, whatever another
    /// endpoint sent — is declined untouched and uncounted, for the
    /// caller's own server loop to handle.
    pub fn offer(&mut self, ctx: &mut Ctx, msg: &Message) -> bool {
        // Checked before decoding: the caller's own clients send most of
        // what it receives, and their requests are decoded again by its
        // server.
        msg.src == self.server && matches!(self.absorb(ctx, msg), Absorbed::Replies)
    }

    /// Settles calls from `msg` if it carries replies; declines it
    /// otherwise.
    fn absorb(&mut self, ctx: &mut Ctx, msg: &Message) -> Absorbed {
        match Packet::from_frame(&msg.payload) {
            Ok(Packet::Reply(rep)) => self.on_reply(ctx, rep, msg),
            Ok(Packet::Batch(batch)) if matches!(batch.items.first(), Some(Packet::Reply(_))) => {
                for item in batch.items {
                    match item {
                        Packet::Reply(rep) => self.on_reply(ctx, rep, msg),
                        _ => self.discard(ctx),
                    }
                }
            }
            Ok(other) => return Absorbed::Declined(Some(other)),
            Err(_) => return Absorbed::Declined(None),
        }
        Absorbed::Replies
    }

    /// Counts a datagram (or batch item) nobody wanted. A process that
    /// also serves requests must receive for itself and use
    /// [`Channel::offer`], or its requests end up here.
    fn discard(&mut self, ctx: &mut Ctx) {
        self.stats.discarded += 1;
        ctx.obs().on_stray_dropped();
    }

    /// Receive-free progress for a process that owns its mailbox: sends
    /// staged calls and fires due retransmission timers. Pair with
    /// [`Channel::offer`] and wake again at [`Channel::next_deadline`].
    pub fn tick(&mut self, ctx: &mut Ctx) {
        self.flush(ctx);
        self.expire(ctx);
    }

    /// What the wait loop does before each receive: sends what the window
    /// has room for and fires due timers. `None` once `target` (with
    /// `None`, every staged call) has settled, else the deadline to
    /// receive by.
    fn turn(&mut self, ctx: &mut Ctx, target: Option<CallHandle>) -> Option<SimTime> {
        self.tick(ctx);
        let settled = match target {
            Some(h) => self.is_settled(h),
            None => self.calls.is_empty(),
        };
        // The flush above put every call the window has room for in
        // flight, the unsettled target among them.
        (!settled).then(|| self.next_deadline().expect("a call is in flight"))
    }

    /// Waits until `target` settles (with `None`, until every staged call
    /// has): the one wait loop. Each turn sends what the window has room
    /// for and fires due timers, then receives until the next deadline. A
    /// datagram that is not the channel's goes to `strays` if given, and
    /// is dropped and counted if not, or if `strays` declines it. A
    /// settled target returns at once; its result stays claimable
    /// ([`Channel::try_take`]).
    ///
    /// # Errors
    ///
    /// [`RpcError::Stopped`] on simulation shutdown.
    pub async fn wait_async(
        &mut self,
        cx: AsyncCx,
        target: Option<CallHandle>,
        mut strays: Option<OnStray<'_>>,
    ) -> Result<(), RpcError> {
        if target.is_some_and(|h| self.is_settled(h)) {
            return Ok(());
        }
        while let Some(deadline) = cx.with(|cx| self.turn(cx, target)) {
            if let Some(msg) = cx.recv_deadline(deadline).await? {
                cx.with(|cx| {
                    let Absorbed::Declined(packet) = self.absorb(cx, &msg) else {
                        return;
                    };
                    if !strays
                        .as_deref_mut()
                        .is_some_and(|take| take(cx, packet, msg))
                    {
                        self.discard(cx);
                    }
                });
            }
        }
        Ok(())
    }

    /// Calls `op` on `object` (`""` for the server's default object) and
    /// returns its result: the one request–reply call. The call opens no
    /// span of its own — the request carries the caller's — and while it
    /// waits, a datagram that is not its reply goes to `strays` as in
    /// [`Channel::wait_async`]: dropped and counted without a rule.
    ///
    /// ```
    /// use simnet::{Simulation, NetworkConfig, NodeId, PortId};
    /// use rpc::{Channel, ChannelConfig, RpcServer, RemoteError, ErrorCode};
    /// use wire::Value;
    ///
    /// let mut sim = Simulation::new(NetworkConfig::lan(), 1);
    /// let server = sim.spawn_async_at("adder", NodeId(0), PortId(10), |cx| async move {
    ///     let mut srv = RpcServer::new();
    ///     while let Ok(msg) = cx.recv().await {
    ///         cx.with(|cx| srv.handle(cx, &msg, |_ctx, req| match req.op.as_str() {
    ///             "add" => {
    ///                 let a = req.args.get_u64("a").map_err(|_| RemoteError::new(ErrorCode::BadArgs, "a"))?;
    ///                 let b = req.args.get_u64("b").map_err(|_| RemoteError::new(ErrorCode::BadArgs, "b"))?;
    ///                 Ok(Value::U64(a + b))
    ///             }
    ///             _ => Err(RemoteError::new(ErrorCode::NoSuchOp, req.op.clone())),
    ///         }));
    ///     }
    /// });
    /// sim.spawn_async("client", NodeId(1), move |cx| async move {
    ///     let mut ch = Channel::new("", server, ChannelConfig::with_depth(1));
    ///     let args = Value::record([("a", Value::U64(2)), ("b", Value::U64(3))]);
    ///     let sum = ch.call(cx, "", "add", args, None).await.unwrap();
    ///     assert_eq!(sum, Value::U64(5));
    /// });
    /// sim.run();
    /// ```
    ///
    /// # Errors
    ///
    /// * [`RpcError::Timeout`] — no reply within the retry budget.
    /// * [`RpcError::Remote`] — the server executed and reported failure.
    /// * [`RpcError::Stopped`] — simulation shutdown.
    pub async fn call(
        &mut self,
        cx: AsyncCx,
        object: &str,
        op: &str,
        args: Value,
        strays: Option<OnStray<'_>>,
    ) -> Result<Value, RpcError> {
        let call = cx.with(|cx| self.stage(cx, None, object, op, args, None));
        self.wait_async(cx, Some(call), strays).await?;
        self.claim(call)
    }

    /// [`Channel::call`] under `id`, which the caller minted
    /// ([`simnet::Ctx::await_next`]) and holds as awaited: how a call is
    /// re-sent, keeping its id, to the endpoint the channel was rebound
    /// to after a `Moved` redirect or a relookup. The id must be above
    /// those of the channel's unsettled calls, and the caller keeps
    /// holding it until it has the call's result or gives up on it, so
    /// no `lo` passes it meanwhile. The caller keeps `args` for the next
    /// send too; each send stages a copy.
    ///
    /// # Errors
    ///
    /// As [`Channel::call`].
    pub async fn call_as(
        &mut self,
        cx: AsyncCx,
        id: &simnet::Awaited,
        object: &str,
        op: &str,
        args: &Value,
        strays: Option<OnStray<'_>>,
    ) -> Result<Value, RpcError> {
        let call = CallHandle(id.id());
        cx.with(|cx| self.stage(cx, Some(call.0), object, op, args.clone(), None));
        self.wait_async(cx, Some(call), strays).await?;
        self.claim(call)
    }

    /// Waits for one call to settle and returns its result, on a blocking
    /// body. Consumes the handle's slot: waiting twice on the same handle
    /// returns [`RpcError::Timeout`]. It stays only for the blocking bodies
    /// of the benchmark's system under test (`benchmark/src/sut.rs`) and of
    /// tests; an `async` body awaits [`Channel::wait_async`].
    ///
    /// # Errors
    ///
    /// * [`RpcError::Timeout`] — the call's retry budget ran out.
    /// * [`RpcError::Remote`] — the server executed and reported failure.
    /// * [`RpcError::Stopped`] — simulation shutdown.
    pub fn wait(&mut self, ctx: &mut Ctx, h: CallHandle) -> Result<Value, RpcError> {
        ctx.block_on(|cx| self.wait_async(cx, Some(h), None))
            .and_then(|()| self.claim(h))
    }

    /// Hands out the result of a settled call, once.
    fn claim(&mut self, h: CallHandle) -> Result<Value, RpcError> {
        match self.settled.remove(h.0) {
            Some(Some(result)) => result.map_err(RpcError::Remote),
            _ => Err(RpcError::Timeout {
                attempts: self.cfg.policy.max_attempts,
            }),
        }
    }

    /// Claims the result of a settled call without blocking, consuming
    /// its slot. Returns `None` while the call is still in flight; a
    /// claimed or unknown handle reports `Some(Err(Timeout))`, matching
    /// [`Channel::wait`]. A poll-driven caller settles calls through
    /// [`Channel::offer`] and [`Channel::tick`].
    pub fn try_take(&mut self, h: CallHandle) -> Option<Result<Value, RpcError>> {
        self.is_settled(h).then(|| self.claim(h))
    }

    /// The earliest retransmission deadline among in-flight calls, or
    /// `None` when nothing is outstanding. Poll-driven callers arm a
    /// timer wake at this instant before parking, so retransmits and
    /// final timeouts fire even if no reply ever arrives.
    pub fn next_deadline(&self) -> Option<SimTime> {
        self.calls
            .iter()
            .take(self.outstanding)
            .map(|rec| rec.deadline)
            .min()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_clamps_and_builds() {
        let c = ChannelConfig::with_depth(0);
        let ch = Channel::new(
            "svc",
            Endpoint::new(simnet::NodeId(0), simnet::PortId(1)),
            c.batched(0),
        );
        assert_eq!(ch.cfg.pipeline_depth, 1, "depth clamped to 1");
        assert_eq!(ch.cfg.max_batch, 1, "batch clamped to 1");
        assert_eq!(ch.outstanding(), 0);
        assert_eq!(ch.queued(), 0);
    }

    #[test]
    fn settled_results_are_found_by_id_in_any_order() {
        let mut settled = Settled::default();
        let ids = [7, 3, 12, 5, 9, 4];
        for id in ids {
            settled.insert(id, Some(Ok(Value::U64(id))));
        }
        settled.insert(6, None);
        assert!(settled.more.windows(2).all(|w| w[0].0 < w[1].0));
        assert_eq!(settled.remove(8), None, "never settled");
        assert_eq!(settled.remove(6), Some(None), "timed out");
        for id in [12, 7, 4, 3, 9, 5] {
            assert_eq!(settled.remove(id), Some(Some(Ok(Value::U64(id)))));
            assert_eq!(settled.remove(id), None, "claimed once");
        }
        assert!(settled.one.is_none() && settled.more.is_empty());
    }

    #[test]
    fn unknown_handle_is_settled() {
        let ch = Channel::new(
            "svc",
            Endpoint::new(simnet::NodeId(0), simnet::PortId(1)),
            ChannelConfig::default(),
        );
        assert!(ch.is_settled(CallHandle(99)));
    }
}
