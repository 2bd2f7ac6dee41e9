//! The RPC client: one call at a time, with retransmission.
//!
//! A [`RpcClient`] issues one call at a time against a fixed server
//! endpoint. Retransmissions reuse the call id, so together with the
//! server's duplicate suppression the protocol gives **at-most-once**
//! execution (the Birrell & Nelson design the paper's stubs assume).
//!
//! The client is the synchronous face of a [`Channel`] of depth 1:
//! sending, timing, retransmitting, matching replies and giving up are
//! the channel's. The client adds its surface: a call opens no span of
//! its own (the request carries the caller's), and a datagram that is not
//! a reply is offered, as it arrived, to the caller's stray handler while
//! the call waits. A blocking process blocks in [`RpcClient::call`]; a
//! poll-driven one makes the same call with [`RpcClient::start`] and
//! drives it from its `poll` with [`RpcClient::poll`].

use std::time::Duration;

use simnet::{Ctx, Endpoint, Message, Poll, ProcCx};
use wire::Value;

use crate::channel::{CallHandle, Channel, ChannelConfig};
use crate::error::RpcError;
use crate::proto::{Oneway, Packet, Request};

/// Retransmission policy for a client.
///
/// `timeout` is a *floor*, not the timer: every [`Channel`] (an
/// [`RpcClient`] holds one) measures its own path and waits
/// `max(timeout, srtt + 4·rttvar)` for the first reply (see the `rtt`
/// module), backing off from there. On a path faster than the floor the
/// policy alone decides, exactly as written here.
///
/// The floor bounds the wait under *silence*. A pipelined channel that
/// sees a later call answered first knows more than silence tells it: an
/// overtaken call is timed by its path (`srtt + 4·rttvar`, no floor) and
/// goes out again that soon. Such transmissions are extra — they consume
/// none of `max_attempts`, and the policy's own timers fire, and finally
/// give up, exactly when they would have without them.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// The shortest wait for the first reply when nothing but silence
    /// says it is missing.
    pub timeout: Duration,
    /// Total attempts (first send plus the retransmissions the policy's
    /// timer makes).
    pub max_attempts: u32,
    /// Multiplier applied to the timeout after each attempt
    /// (1.0 = fixed interval, 2.0 = exponential backoff).
    pub backoff: f64,
}

impl RetryPolicy {
    /// A policy that never retransmits: one attempt with the given timeout.
    pub fn no_retry(timeout: Duration) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_attempts: 1,
            backoff: 1.0,
        }
    }

    /// Fixed-interval retransmission.
    pub fn fixed(timeout: Duration, max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_attempts,
            backoff: 1.0,
        }
    }

    /// Exponential backoff with factor 2.
    pub fn exponential(timeout: Duration, max_attempts: u32) -> RetryPolicy {
        RetryPolicy {
            timeout,
            max_attempts,
            backoff: 2.0,
        }
    }

    /// The wait before giving up on transmission number `attempt`, given
    /// the first-attempt timeout `first` (the floor or the path estimate,
    /// whichever is longer).
    pub(crate) fn attempt_timeout(&self, first: Duration, attempt: u32) -> Duration {
        let factor = self.backoff.powi(attempt as i32);
        Duration::from_nanos((first.as_nanos() as f64 * factor) as u64)
    }
}

impl Default for RetryPolicy {
    /// A 10ms floor, 4 attempts, exponential backoff. The floor covers the
    /// default LAN profile (500µs one-way latency) ten times over; a
    /// longer path is covered by the per-path round-trip estimate once
    /// its first reply has been seen, not by this constant.
    fn default() -> RetryPolicy {
        RetryPolicy::exponential(Duration::from_millis(10), 4)
    }
}

/// Counters accumulated by a client across calls.
///
/// Canonical definition lives in the `obs` crate; each client keeps its
/// own copy here, and the simulation-wide [`obs::MetricsRegistry`]
/// aggregates the same counters across every client.
pub use obs::CallStats;

/// A synchronous RPC client bound to one server endpoint: the blocking
/// face of a [`Channel`] whose window holds one call.
///
/// One call may be outstanding at a time. Replies are matched on
/// `(server endpoint, call id)`.
#[derive(Debug)]
pub struct RpcClient {
    channel: Channel,
    /// Counters (readable by experiment harnesses).
    pub stats: CallStats,
}

impl RpcClient {
    /// Creates a client for `server` with the default [`RetryPolicy`].
    pub fn new(server: Endpoint) -> RpcClient {
        RpcClient::with_policy(server, RetryPolicy::default())
    }

    /// Creates a client with an explicit policy.
    pub fn with_policy(server: Endpoint, policy: RetryPolicy) -> RpcClient {
        RpcClient {
            // No service label: calls run under the caller's span, and
            // one call at a time is no window for the recorder to sample.
            channel: Channel::new("", server, ChannelConfig::with_depth(1).with_policy(policy)),
            stats: CallStats::default(),
        }
    }

    /// The server endpoint this client calls.
    pub fn server(&self) -> Endpoint {
        self.channel.server()
    }

    /// Repoints the client at a new server endpoint (after a migration
    /// or rebind). In-flight duplicate replies from the old server are
    /// filtered out by the source check. The round-trip estimate belongs
    /// to the old path and starts over.
    pub fn rebind(&mut self, server: Endpoint) {
        self.channel.rebind(server);
    }

    /// The smoothed round trip to the server, once a call has completed
    /// on its first transmission (diagnostics only).
    pub fn srtt(&self) -> Option<Duration> {
        self.channel.srtt()
    }

    /// Calls `op` on the server's default object.
    ///
    /// # Errors
    ///
    /// See [`RpcClient::call_object`].
    pub fn call(&mut self, ctx: &mut Ctx, op: &str, args: Value) -> Result<Value, RpcError> {
        self.call_object(ctx, "", op, args)
    }

    /// Calls `op` on a named object in the server context.
    ///
    /// # Errors
    ///
    /// * [`RpcError::Timeout`] — no reply within the retry budget.
    /// * [`RpcError::Remote`] — the server executed and reported failure.
    /// * [`RpcError::Stopped`] — simulation shutdown.
    pub fn call_object(
        &mut self,
        ctx: &mut Ctx,
        object: &str,
        op: &str,
        args: Value,
    ) -> Result<Value, RpcError> {
        self.call_with_strays(ctx, object, op, args, |_, _| StrayVerdict::Drop)
    }

    /// Like [`RpcClient::call_object`], but non-reply datagrams that
    /// arrive while waiting are offered to `on_stray` (smart proxies use
    /// this to process invalidations without losing them).
    ///
    /// # Errors
    ///
    /// See [`RpcClient::call_object`].
    pub fn call_with_strays(
        &mut self,
        ctx: &mut Ctx,
        object: &str,
        op: &str,
        args: Value,
        mut on_stray: impl FnMut(&mut Ctx, Stray<'_>) -> StrayVerdict,
    ) -> Result<Value, RpcError> {
        let call = self.start(ctx, object, op, args);
        let pumped = self
            .channel
            .pump(ctx, Some(call), |channel, ctx, declined, msg| {
                let verdict = match &declined {
                    Some(Packet::Oneway(o)) => on_stray(ctx, Stray::Oneway(o, msg)),
                    Some(Packet::Request(r)) => on_stray(ctx, Stray::Request(r, msg)),
                    _ => StrayVerdict::Drop,
                };
                if verdict == StrayVerdict::Drop {
                    channel.discard(ctx);
                }
            });
        self.publish();
        pumped?;
        self.channel.claim(call)
    }

    /// Sends the first transmission of a call and returns its handle,
    /// for a process that cannot block: drive it with [`RpcClient::poll`].
    /// The blocking calls above start the same way, so a call goes out,
    /// is retransmitted and gives up identically either way.
    pub fn start(&mut self, ctx: &mut Ctx, object: &str, op: &str, args: Value) -> CallHandle {
        // No span of the call's own: the request carries the caller's.
        let span = ctx.current_span();
        let call = self
            .channel
            .stage(ctx, object, op, args, span, obs::SpanId::NONE);
        self.channel.flush(ctx);
        self.publish();
        call
    }

    /// Advances a call made by [`RpcClient::start`] as far as the mailbox
    /// allows ([`Channel::poll_wait`]); non-replies are dropped and
    /// counted, as [`RpcClient::call_object`] does. `Pending` means the
    /// reply is still owed and the wake for the current deadline is armed.
    ///
    /// # Errors
    ///
    /// See [`RpcClient::call_object`].
    pub fn poll(&mut self, cx: &mut ProcCx, call: CallHandle) -> Poll<Result<Value, RpcError>> {
        let polled = self.channel.poll_wait(cx, call);
        // Nobody to hand the one-ways to: they go the way of the rest.
        for _ in self.channel.take_strays() {
            self.channel.discard(cx);
        }
        self.publish();
        polled
    }

    /// Brings `stats` up to date with the channel's counters.
    fn publish(&mut self) {
        let channel = &self.channel.stats;
        self.stats = CallStats {
            calls: channel.calls,
            retries: channel.retries,
            timeouts: channel.timeouts,
            stale_replies: channel.stale_replies,
            strays_dropped: channel.discarded,
        };
    }

    /// Sends a one-way notification to the server (no reply, no retry).
    /// Stamped with the caller's active span and recorded as an
    /// immediately-closed one-way span parented to it.
    pub fn notify(&self, ctx: &Ctx, op: &str, args: Value) {
        send_oneway(ctx, self.server(), op, &args);
    }
}

/// A non-reply datagram observed while a call was waiting.
#[derive(Debug)]
pub enum Stray<'a> {
    /// A one-way notification (e.g. a cache invalidation).
    Oneway(&'a Oneway, &'a Message),
    /// A request addressed to this process (e.g. callback traffic).
    Request(&'a Request, &'a Message),
}

/// What the stray handler did with the datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrayVerdict {
    /// The handler processed it.
    Consumed,
    /// Not interesting; count it as dropped.
    Drop,
}

/// Sends a one-way notification outside any client (helper for servers
/// pushing invalidations or replication traffic). The notification
/// carries the caller's active span and is recorded as an
/// immediately-closed one-way span parented to it, which is how
/// invalidations and recalls stay causally attributable to the write
/// that triggered them.
pub fn send_oneway(ctx: &Ctx, to: Endpoint, op: &str, args: &Value) {
    let span = note_oneway_span(ctx, op, args);
    let payload = Oneway::encode(ctx.endpoint(), op, args, span.raw());
    ctx.send_traced(to, payload, span);
}

/// Sends a one-way notification from a specific bound source endpoint.
pub fn send_oneway_from(ctx: &Ctx, from: Endpoint, to: Endpoint, op: &str, args: &Value) {
    let span = note_oneway_span(ctx, op, args);
    let payload = Oneway::encode(from, op, args, span.raw());
    ctx.send_from_traced(from, to, payload, span);
}

/// Records a one-way span for a notification, parented to the caller's
/// active span. The service label comes from the body's `"svc"` field
/// when present (invalidate/recall bodies carry it), falling back to the
/// sending process's name.
fn note_oneway_span(ctx: &Ctx, op: &str, args: &Value) -> obs::SpanId {
    let service = args.get_str("svc").unwrap_or(ctx.name());
    ctx.obs()
        .note_oneway(ctx.current_span(), service, op, ctx.now().as_nanos())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_backoff_grows() {
        let p = RetryPolicy::exponential(Duration::from_millis(10), 4);
        let first = p.timeout;
        assert_eq!(p.attempt_timeout(first, 0), Duration::from_millis(10));
        assert_eq!(p.attempt_timeout(first, 1), Duration::from_millis(20));
        assert_eq!(p.attempt_timeout(first, 2), Duration::from_millis(40));
        // A longer first-attempt timeout scales the whole schedule.
        assert_eq!(
            p.attempt_timeout(Duration::from_millis(100), 2),
            Duration::from_millis(400)
        );
    }

    #[test]
    fn policy_fixed_is_flat() {
        let p = RetryPolicy::fixed(Duration::from_millis(5), 3);
        assert_eq!(
            p.attempt_timeout(p.timeout, 0),
            p.attempt_timeout(p.timeout, 2)
        );
    }

    #[test]
    fn no_retry_is_single_attempt() {
        let p = RetryPolicy::no_retry(Duration::from_millis(1));
        assert_eq!(p.max_attempts, 1);
    }
}
