//! The RPC channel: the one client transport. Many outstanding calls,
//! one endpoint.
//!
//! A [`Channel`] keeps up to [`ChannelConfig::pipeline_depth`] calls in
//! flight against one server endpoint: [`Channel::begin_call`] stages a
//! call and returns a [`CallHandle`]; [`Channel::wait`] /
//! [`Channel::wait_all`] drive the channel until replies arrive
//! (blocking style), and [`Channel::poll_wait`] / [`Channel::try_take`]
//! do the same for poll-driven processes, completing on the reply's own
//! delivery wake. Replies are matched by call id, each call keeps its
//! own retransmission timer, and ids retransmit unchanged — so the
//! server's per-client window gives at-most-once execution even though
//! calls complete out of order. [`RpcClient`](crate::RpcClient) is this
//! machine at depth 1 behind a blocking call: one call, one reply, one
//! RTT.
//!
//! On top of pipelining the channel *batches*: staged requests bound for
//! the same endpoint coalesce into one [`Batch`] datagram (up to
//! [`ChannelConfig::max_batch`] per frame), and the server coalesces the
//! replies on the way back — many calls, one network traversal each
//! way. A lost datagram loses its calls together, so calls whose
//! retransmission falls due together go out as one batch again.
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
//! mailbox — `wait`/`poll` would swallow the requests it is supposed to
//! serve. Such a process receives for itself, shows each datagram to
//! [`Channel::offer`] (which takes replies and nothing else) and calls
//! [`Channel::tick`] to send staged calls and fire timers.
//!
//! Every call begun through [`Channel::begin_call`] gets its own
//! `Invoke` span (parented to the caller's active span), so causal traces
//! show per-call latency even when the datagrams were shared.

use std::collections::{HashMap, VecDeque};

use bytes::Bytes;
use simnet::{Ctx, Endpoint, Message, SimTime};
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
    /// Non-reply datagrams discarded while the channel owned the mailbox
    /// (`wait`/`poll`): stray requests, undecodable frames. A datagram
    /// declined by [`Channel::offer`] stays with the caller and is not
    /// counted here.
    pub discarded: u64,
}

/// A call that has not settled: staged, or sent and waiting for its
/// reply or its retransmission timer. The fields after `close` mean
/// nothing until the call is sent.
#[derive(Debug)]
struct CallRec {
    request: Request,
    /// Encoded once; retransmissions reuse the bytes (and thus the span).
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

/// What [`Channel::absorb`] made of a datagram.
enum Absorbed {
    /// It carried replies; they were matched to calls.
    Replies,
    /// Not the channel's: what it decoded to, if it decoded.
    Declined(Option<Packet>),
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
    /// Settled calls nobody has claimed yet: the reply, or `None` for a
    /// call that timed out.
    settled: HashMap<u64, Option<Result<Value, RemoteError>>>,
    /// Datagrams sent so far carrying requests.
    sends: u64,
    strays: Vec<Oneway>,
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
            settled: HashMap::new(),
            sends: 0,
            strays: Vec::new(),
            rtt: RttEstimator::default(),
            recent: VecDeque::new(),
            stats: ChannelStats::default(),
        }
    }

    /// The server endpoint this channel is bound to.
    pub fn server(&self) -> Endpoint {
        self.server
    }

    /// Repoints the channel at a new server endpoint. The round-trip
    /// estimate, and the retransmitted calls remembered for it, belong to
    /// the old path and start over.
    pub(crate) fn rebind(&mut self, server: Endpoint) {
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

    /// Where the unsettled call `id` sits in `calls`.
    fn position(&self, id: u64) -> Option<usize> {
        self.calls
            .binary_search_by_key(&id, |rec| rec.request.call_id)
            .ok()
    }

    /// Stages a call on the server's default object and returns its
    /// handle. Nothing is sent until [`Channel::flush`] (which `wait`,
    /// `wait_all` and `poll` call for you).
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
        self.stage(ctx, object, op, args, span, span)
    }

    /// Stages a call whose request carries `span` and whose settling
    /// closes `close`: the same span if it is the channel's to close,
    /// none if `span` is the caller's.
    pub(crate) fn stage(
        &mut self,
        ctx: &mut Ctx,
        object: &str,
        op: &str,
        args: Value,
        span: obs::SpanId,
        close: obs::SpanId,
    ) -> CallHandle {
        // Ids come from the per-process counter, shared by every channel
        // and client in the process, so the server's per-endpoint window
        // sees one id space.
        let call_id = ctx.next_seq();
        self.stats.calls += 1;
        ctx.obs().on_call();
        // The request is encoded once, so retransmissions carry the same
        // span by construction.
        let request = Request {
            call_id,
            reply_to: ctx.endpoint(),
            object: object.to_owned(),
            op: op.to_owned(),
            args,
            span: span.raw(),
        };
        let bytes = request.to_bytes();
        debug_assert!(
            self.calls
                .back()
                .is_none_or(|last| last.request.call_id < call_id),
            "call ids ascend"
        );
        self.calls.push_back(CallRec {
            request,
            bytes,
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
    /// datagram, the next in the send sequence.
    fn transmit(&mut self, ctx: &mut Ctx, batch: impl ExactSizeIterator<Item = usize> + Clone) {
        self.sends += 1;
        for i in batch.clone() {
            self.calls[i].seq = self.sends;
        }
        if batch.len() == 1 {
            let rec = &self.calls[batch.clone().next().expect("one call")];
            ctx.send_traced(self.server, rec.bytes.clone(), rec.span);
            return;
        }
        // Borrow-based batch encode: the staged requests are written
        // straight into the frame, never cloned.
        let payload =
            crate::proto::encode_request_batch(batch.clone().map(|i| &self.calls[i].request));
        // The datagram serves many spans at once, so it is attributed to
        // none; each call's own span still opens and closes around its
        // reply.
        ctx.trace(simnet::TraceEvent::Batched {
            src: ctx.endpoint(),
            dst: self.server,
            count: batch.len(),
            span: obs::SpanId::NONE,
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
            ctx.trace(simnet::TraceEvent::Retransmit {
                src: ctx.endpoint(),
                dst: self.server,
                span: rec.span,
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

    /// Counts a datagram (or batch item) nobody wanted.
    pub(crate) fn discard(&mut self, ctx: &mut Ctx) {
        self.stats.discarded += 1;
        ctx.obs().on_stray_dropped();
    }

    /// What `wait`/`poll` do with a datagram the channel declined while
    /// it owned the mailbox: a one-way is kept for
    /// [`Channel::take_strays`]; anything else is dropped and counted. A
    /// process that also serves requests must receive for itself and use
    /// [`Channel::offer`], or its requests end up here.
    fn keep_oneway(&mut self, ctx: &mut Ctx, declined: Option<Packet>, _msg: &Message) {
        match declined {
            Some(Packet::Oneway(o)) => self.strays.push(o),
            _ => self.discard(ctx),
        }
    }

    /// Receive-free progress for a process that owns its mailbox: sends
    /// staged calls and fires due retransmission timers. Pair with
    /// [`Channel::offer`] and wake again at [`Channel::next_deadline`].
    pub fn tick(&mut self, ctx: &mut Ctx) {
        self.flush(ctx);
        self.expire(ctx);
    }

    /// Drives the channel until `target` settles (or, with `None`, until
    /// every staged call has settled), handing each datagram that is not
    /// the channel's to `declined` as it arrives.
    pub(crate) fn pump(
        &mut self,
        ctx: &mut Ctx,
        target: Option<CallHandle>,
        mut declined: impl FnMut(&mut Channel, &mut Ctx, Option<Packet>, &Message),
    ) -> Result<(), RpcError> {
        loop {
            self.tick(ctx);
            let settled = match target {
                Some(h) => self.is_settled(h),
                None => self.calls.is_empty(),
            };
            if settled {
                return Ok(());
            }
            // The flush above put every call the window has room for in
            // flight, the unsettled target among them.
            let deadline = self.next_deadline().expect("a call is in flight");
            if let Some(msg) = ctx.recv_deadline(deadline)? {
                if let Absorbed::Declined(packet) = self.absorb(ctx, &msg) {
                    declined(self, ctx, packet, &msg);
                }
            }
        }
    }

    /// Waits for one call to settle and returns its result. Consumes the
    /// handle's slot: waiting twice on the same handle returns
    /// [`RpcError::Timeout`].
    ///
    /// # Errors
    ///
    /// * [`RpcError::Timeout`] — the call's retry budget ran out.
    /// * [`RpcError::Remote`] — the server executed and reported failure.
    /// * [`RpcError::Stopped`] — simulation shutdown.
    pub fn wait(&mut self, ctx: &mut Ctx, h: CallHandle) -> Result<Value, RpcError> {
        if !self.is_settled(h) {
            self.pump(ctx, Some(h), Channel::keep_oneway)?;
        }
        self.claim(h)
    }

    /// Hands out the result of a settled call, once.
    pub(crate) fn claim(&mut self, h: CallHandle) -> Result<Value, RpcError> {
        match self.settled.remove(&h.0) {
            Some(Some(result)) => result.map_err(RpcError::Remote),
            _ => Err(RpcError::Timeout {
                attempts: self.cfg.policy.max_attempts,
            }),
        }
    }

    /// Drives the channel until every staged call has settled. Results
    /// stay claimable through [`Channel::wait`] (which then returns
    /// immediately).
    ///
    /// # Errors
    ///
    /// [`RpcError::Stopped`] on simulation shutdown.
    pub fn wait_all(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        self.pump(ctx, None, Channel::keep_oneway)
    }

    /// Non-blocking progress: sends staged calls, fires due timers, and
    /// absorbs whatever already sits in the mailbox. The write-behind
    /// path of the caching proxy calls this between invocations.
    ///
    /// # Errors
    ///
    /// [`RpcError::Stopped`] on simulation shutdown.
    pub fn poll(&mut self, ctx: &mut Ctx) -> Result<(), RpcError> {
        self.tick(ctx);
        while let Some(msg) = ctx.try_recv()? {
            if let Absorbed::Declined(packet) = self.absorb(ctx, &msg) {
                self.keep_oneway(ctx, packet, &msg);
            }
        }
        self.flush(ctx);
        Ok(())
    }

    /// Claims the result of a settled call without blocking, consuming
    /// its slot. Returns `None` while the call is still in flight; a
    /// reaped or unknown handle reports `Some(Err(Timeout))`, matching
    /// [`Channel::wait`].
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

    /// Poll-driven analogue of [`Channel::wait`]: drives the channel as
    /// far as it can without blocking, and either yields the settled
    /// result or registers the wakes that complete it — the reply
    /// delivery itself (every delivery polls a parked process) plus a
    /// timer at the next retransmission deadline.
    ///
    /// Completed calls settle via the *completion wake* of the reply
    /// datagram.
    pub fn poll_wait(
        &mut self,
        cx: &mut simnet::ProcCx,
        h: CallHandle,
    ) -> simnet::Poll<Result<Value, RpcError>> {
        if let Err(e) = self.poll(cx.ctx()) {
            return simnet::Poll::Ready(Err(e));
        }
        // Arm the earliest retransmit deadline *before* checking for
        // completion: when this call settles, a sibling pipelined call
        // may still be outstanding, and this poll may be the last one
        // the process makes before parking. Arming only on the Pending
        // path would leave that sibling with no timer — a lost wakeup,
        // not a slowdown. A wake for a deadline that retransmission
        // later supersedes is harmless: the timer is gen-stale by the
        // time it fires.
        if let Some(dl) = self.next_deadline() {
            cx.wake_at(dl);
        }
        match self.try_take(h) {
            Some(result) => simnet::Poll::Ready(result),
            None => simnet::Poll::Pending,
        }
    }

    /// Takes the one-way notifications (invalidations, recalls) that
    /// arrived while the channel was pumping. Callers route them to
    /// their proxies.
    pub fn take_strays(&mut self) -> Vec<Oneway> {
        std::mem::take(&mut self.strays)
    }

    /// Discards every settled call record without claiming its result
    /// and returns how many were dropped. Fire-and-forget users (the
    /// caching proxy's write-behind path) call this so unclaimed
    /// results do not accumulate; a later [`Channel::wait`] on a reaped
    /// handle reports a timeout.
    pub fn reap_settled(&mut self) -> usize {
        let dropped = self.settled.len();
        self.settled.clear();
        dropped
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
    fn unknown_handle_is_settled() {
        let ch = Channel::new(
            "svc",
            Endpoint::new(simnet::NodeId(0), simnet::PortId(1)),
            ChannelConfig::default(),
        );
        assert!(ch.is_settled(CallHandle(99)));
    }
}
