//! What every client shares besides its [`Channel`]: the retransmission
//! policy a channel follows, and the one-way send, which waits for
//! nothing. Retransmissions reuse the call id, so together with the
//! server's duplicate suppression the protocol gives **at-most-once**
//! execution (the Birrell & Nelson design the paper's stubs assume).

use std::time::Duration;

use simnet::{Ctx, Endpoint};
use wire::Value;

#[cfg(doc)]
use crate::channel::Channel;
use crate::proto::Oneway;

/// Retransmission policy for a client.
///
/// `timeout` is a *floor*, not the timer: every [`Channel`] measures its
/// own path and waits
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

/// Sends a one-way notification (servers push invalidations and
/// replication traffic this way). The notification carries the caller's
/// active span and is recorded as an immediately-closed one-way span
/// parented to it and labelled `(service, op)`, which is how
/// invalidations and recalls stay causally attributable to the write
/// that triggered them. The transport reads no body: the caller names
/// the service the span is counted under.
pub fn send_oneway(ctx: &Ctx, to: Endpoint, service: &str, op: &str, args: &Value) {
    let span = ctx
        .obs()
        .note_oneway(ctx.current_span(), service, op, ctx.now().as_nanos());
    let payload = Oneway::encode(ctx.endpoint(), op, args, span.raw());
    ctx.send_traced(to, payload, span);
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
