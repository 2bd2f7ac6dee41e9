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
//! its own (the request carries the caller's), and while it waits it
//! keeps one-way notifications for [`RpcClient::take_strays`] and drops
//! everything else, unless the caller hands it a rule of its own
//! ([`RpcClient::call_with`]). An `async` body awaits the call; a
//! blocking body blocks in [`RpcClient::call`], which runs the same call
//! on its stack.

use std::time::Duration;

use simnet::{AsyncCx, Ctx, Endpoint};
use wire::Value;

use crate::channel::{CallHandle, Channel, ChannelConfig, OnStray};
use crate::error::RpcError;
use crate::proto::Oneway;

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
    /// While the call waits, a one-way notification that arrives is kept
    /// for [`RpcClient::take_strays`] (a smart proxy routes the
    /// invalidations it finds there); any other datagram that is not the
    /// reply is dropped and counted as it arrives. One-ways a call kept
    /// and nobody took are dropped and counted when the next call starts.
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
        ctx.block_on(|cx| self.call_with(cx, object, op, args, None))
    }

    /// [`RpcClient::call`] for an `async` body.
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call`].
    pub async fn call_async(
        &mut self,
        cx: AsyncCx,
        op: &str,
        args: Value,
    ) -> Result<Value, RpcError> {
        self.call_with(cx, "", op, args, None).await
    }

    /// The one call: `op` on `object`, waited for by
    /// [`Channel::wait_async`], which hands `strays` every datagram that
    /// is not the reply (see [`RpcClient::call_object`] for what happens
    /// to them without it).
    ///
    /// # Errors
    ///
    /// As [`RpcClient::call_object`].
    pub async fn call_with(
        &mut self,
        cx: AsyncCx,
        object: &str,
        op: &str,
        args: Value,
        strays: Option<OnStray<'_>>,
    ) -> Result<Value, RpcError> {
        let call = cx.with(|cx| self.start(cx, object, op, args));
        let waited = self.channel.wait_async(cx, Some(call), strays).await;
        let result = waited.and_then(|()| self.channel.claim(call));
        self.publish();
        result
    }

    /// Takes the one-way notifications the last call kept.
    pub fn take_strays(&mut self) -> Vec<Oneway> {
        self.channel.take_strays()
    }

    /// Sends the first transmission of a call and returns its handle,
    /// dropping (and counting) the one-ways the last call kept and
    /// nobody took.
    fn start(&mut self, ctx: &mut Ctx, object: &str, op: &str, args: Value) -> CallHandle {
        for _ in self.channel.take_strays() {
            self.channel.discard(ctx);
        }
        // No span of the call's own: the request carries the caller's.
        let span = ctx.current_span();
        let call = self
            .channel
            .stage(ctx, object, op, args, span, obs::SpanId::NONE);
        self.channel.flush(ctx);
        self.publish();
        call
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
