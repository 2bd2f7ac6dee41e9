//! Round-trip estimation for retransmission timers.
//!
//! A retransmit timer shorter than the path's round trip sends every
//! request several times on a network that lost nothing. The constant in
//! a [`RetryPolicy`](crate::RetryPolicy) cannot know the path, so it is
//! only the *floor*: each [`Channel`](crate::Channel) — the one inside an
//! [`RpcClient`](crate::RpcClient) included — learns its own path with
//! the classic smoothed estimator (SRTT / RTTVAR, Jacobson & Karels) and
//! arms its first-attempt timer at `max(floor, srtt + 4·rttvar)`. The
//! estimate only ever lengthens that timer, so under silence a path
//! faster than its floor behaves exactly as it did without an estimator.
//!
//! The same estimate *without* the floor ([`RttEstimator::path_rto`])
//! times a call the path has provably gone past: a pipelined
//! [`Channel`](crate::Channel) that sees a later-sent call answered
//! first retransmits the overtaken one a path timeout after it was
//! sent, not a floor after. A path that answers out of order by design
//! (a caching tier: hits at once, misses after a WAN round trip) is
//! covered by the variance term below, exactly as its slow mode is.
//!
//! Two departures from the textbook, both for request/response traffic
//! whose "round trip" includes the server's own work:
//!
//! * The variance term rises at the textbook rate but falls slowly. A
//!   caching tier answers hits in one local round trip and misses in a
//!   WAN round trip; the timer has to keep covering the slow mode while
//!   the fast one supplies most of the samples.
//! * Karn's rule holds — a retransmitted call is never sampled, since its
//!   reply cannot be matched to a transmission — but such a reply still
//!   *bounds* the round trip: it arrived `since_last` after the latest
//!   transmission, so the round trip is at least that long. When that
//!   alone exceeds the shortest timeout the call could have been given
//!   ([`Sent::armed`]: the floor under silence, the path timeout for an
//!   overtaken call), that timeout is provably too short for this path
//!   (loss cannot explain it), and the timer is raised to twice the time
//!   since the first transmission, an upper bound on the round trip, so
//!   the next call completes unretransmitted and yields a real sample.
//!   Without this a timeout below the round trip would never see a clean
//!   sample at all.

use std::time::Duration;

use simnet::SimTime;

/// When one call went on the wire: its first transmission and its latest
/// (equal until the call is retransmitted), and the least its sender was
/// prepared to wait for a reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Sent {
    pub(crate) first: SimTime,
    pub(crate) last: SimTime,
    /// A timeout no longer than any the call was given: the policy's
    /// floor, or less once a transmission was timed by the path alone.
    pub(crate) armed: Duration,
}

impl Sent {
    /// A first transmission at `now` under a policy whose timeouts are
    /// never shorter than `floor`.
    pub(crate) fn at(now: SimTime, floor: Duration) -> Sent {
        Sent {
            first: now,
            last: now,
            armed: floor,
        }
    }

    /// A retransmission at `now`, given `timeout` to be answered.
    pub(crate) fn again(&mut self, now: SimTime, timeout: Duration) {
        self.last = now;
        self.shorten(timeout);
    }

    /// The latest transmission's timeout was cut to `timeout`.
    pub(crate) fn shorten(&mut self, timeout: Duration) {
        self.armed = self.armed.min(timeout);
    }

    pub(crate) fn retransmitted(&self) -> bool {
        self.last != self.first
    }
}

/// Smoothed round-trip estimate of one client–server path.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct RttEstimator {
    /// Smoothed round trip; `None` until the first clean sample.
    srtt: Option<Duration>,
    /// Smoothed mean deviation (also raised by [`Self::ambiguous`]).
    rttvar: Duration,
}

impl RttEstimator {
    /// The smoothed round trip, once a call has completed on its first
    /// transmission.
    pub(crate) fn srtt(&self) -> Option<Duration> {
        self.srtt
    }

    /// Feeds a reply delivered at `at` to a call transmitted at `sent`:
    /// a sample if the call went out once, a bound otherwise.
    pub(crate) fn on_reply(&mut self, sent: Sent, at: SimTime) {
        let since_first = at.saturating_since(sent.first);
        if sent.retransmitted() {
            self.ambiguous(sent.armed, at.saturating_since(sent.last), since_first);
        } else {
            self.sample(since_first);
        }
    }

    /// Feeds the round trip of a call that was transmitted exactly once.
    fn sample(&mut self, rtt: Duration) {
        let Some(srtt) = self.srtt else {
            self.srtt = Some(rtt);
            self.rttvar = self.rttvar.max(rtt / 2);
            return;
        };
        let err = srtt.abs_diff(rtt);
        self.rttvar = if err > self.rttvar {
            self.rttvar + (err - self.rttvar) / 4
        } else {
            self.rttvar - (self.rttvar - err) / 64
        };
        self.srtt = Some(if rtt > srtt {
            srtt + (rtt - srtt) / 8
        } else {
            srtt - (srtt - rtt) / 8
        });
    }

    /// Feeds a reply to a call that had been retransmitted: delivered
    /// `since_last` after its latest transmission and `since_first`
    /// after its first, `armed` being the shortest timeout the call was
    /// given. Never moves the smoothed round trip.
    fn ambiguous(&mut self, armed: Duration, since_last: Duration, since_first: Duration) {
        if since_last <= armed {
            return;
        }
        let want = since_first * 2;
        let base = self.srtt.unwrap_or_default();
        self.rttvar = self.rttvar.max(want.saturating_sub(base) / 4);
    }

    /// The first-attempt timeout: never below `floor`, never closer than
    /// an eighth above the smoothed round trip.
    pub(crate) fn rto(&self, floor: Duration) -> Duration {
        floor.max(self.estimate())
    }

    /// The timeout the path alone asks for, with no floor under it: what
    /// an overtaken call is given. `None` until the first clean sample —
    /// nothing is known about the path yet.
    pub(crate) fn path_rto(&self) -> Option<Duration> {
        self.srtt.map(|_| self.estimate())
    }

    /// What the samples so far ask for: never closer than an eighth above
    /// the smoothed round trip.
    fn estimate(&self) -> Duration {
        let srtt = self.srtt.unwrap_or_default();
        srtt + (self.rttvar * 4).max(srtt / 8)
    }
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn a_fast_path_keeps_its_floor() {
        let mut e = RttEstimator::default();
        assert_eq!(e.rto(10 * MS), 10 * MS);
        for _ in 0..100 {
            e.sample(MS);
        }
        assert_eq!(e.rto(10 * MS), 10 * MS);
        assert_eq!(e.srtt(), Some(MS));
    }

    #[test]
    fn a_slow_path_gets_a_timer_above_its_round_trip() {
        let mut e = RttEstimator::default();
        e.sample(100 * MS);
        assert_eq!(e.rto(10 * MS), 300 * MS, "first sample: srtt + 4 * srtt/2");
        for _ in 0..10_000 {
            e.sample(100 * MS);
            assert!(e.rto(10 * MS) > 100 * MS);
        }
        assert!(e.rto(10 * MS) <= 113 * MS, "settles an eighth above");
    }

    #[test]
    fn a_reply_within_the_floor_of_a_retransmit_proves_nothing() {
        let mut e = RttEstimator::default();
        // LAN with a lost first transmission: retransmit at 10 ms, reply
        // 1 ms later. Loss explains it; the timer must not move.
        e.ambiguous(10 * MS, MS, 11 * MS);
        assert_eq!(e, RttEstimator::default());
    }

    #[test]
    fn a_late_reply_raises_the_timer_without_a_sample() {
        let mut e = RttEstimator::default();
        // 100 ms path, 10 ms floor: sent at 0, 10, 30, 70; reply at 100.
        e.ambiguous(10 * MS, 30 * MS, 100 * MS);
        assert_eq!(e.srtt(), None, "Karn: never sampled");
        assert_eq!(e.rto(10 * MS), 200 * MS);
        e.sample(100 * MS);
        assert_eq!(e.srtt(), Some(100 * MS));
        assert!(e.rto(10 * MS) >= 300 * MS);
    }

    #[test]
    fn the_slow_mode_of_a_bimodal_path_stays_covered() {
        let mut e = RttEstimator::default();
        e.sample(2 * MS);
        e.ambiguous(10 * MS, 32 * MS, 102 * MS);
        // Thirty hits later the timer still covers a 102 ms miss.
        for _ in 0..30 {
            e.sample(2 * MS);
        }
        assert!(e.rto(10 * MS) > 110 * MS, "rto {:?}", e.rto(10 * MS));
    }

    #[test]
    fn an_overtaken_miss_teaches_the_slow_mode_below_the_floor() {
        // 40 ms region behind an edge, hits in 1 ms: the first overtaken
        // miss is given the 2 ms path timeout and goes out again at 2, 6,
        // 14 and 30 ms; its reply lands 10 ms after the last of those —
        // inside the 10 ms policy floor, but five path timeouts late.
        let mut e = RttEstimator::default();
        e.sample(MS);
        e.ambiguous(2 * MS, 10 * MS, 40 * MS);
        assert!(
            e.path_rto().is_some_and(|p| p >= 80 * MS),
            "slow mode not learned: {:?}",
            e.path_rto()
        );
        assert_eq!(e.srtt(), Some(MS), "Karn: never sampled");
    }

    #[test]
    fn no_path_timeout_before_the_first_sample() {
        let mut e = RttEstimator::default();
        assert_eq!(e.path_rto(), None);
        e.ambiguous(10 * MS, 30 * MS, 100 * MS);
        assert_eq!(e.path_rto(), None, "a bound is not a sample");
        e.sample(100 * MS);
        assert_eq!(e.path_rto(), Some(e.rto(Duration::ZERO)));
    }

    proptest! {
        /// Whatever replies arrive in whatever order: the timer never
        /// drops below the policy's floor nor below the smoothed round
        /// trip, the path timeout is that timer without its floor, and
        /// only a call transmitted once moves the smoothed round trip.
        #[test]
        fn the_timer_respects_floor_and_karn(
            floor_us in 1u64..50_000,
            replies in proptest::collection::vec(
                (any::<bool>(), 1u64..2_000_000, 0u64..2_000_000, 1u64..50_000),
                1..100,
            ),
        ) {
            let floor = Duration::from_micros(floor_us);
            let mut e = RttEstimator::default();
            for (retransmitted, since_last_us, gap_us, armed_us) in replies {
                let before = e.srtt();
                let sent = Sent {
                    first: SimTime::ZERO,
                    last: SimTime::ZERO
                        + Duration::from_micros(if retransmitted { gap_us + 1 } else { 0 }),
                    armed: Duration::from_micros(armed_us),
                };
                e.on_reply(sent, sent.last + Duration::from_micros(since_last_us));
                if retransmitted {
                    prop_assert_eq!(e.srtt(), before, "a retransmitted call was sampled");
                }
                prop_assert!(e.rto(floor) >= floor);
                prop_assert!(e.rto(floor) >= e.srtt().unwrap_or_default());
                if let Some(path) = e.path_rto() {
                    prop_assert_eq!(e.rto(floor), floor.max(path));
                    prop_assert!(path > e.srtt().unwrap_or_default());
                }
            }
        }

        /// A reply to a retransmitted call moves the timer exactly when
        /// it came later than the shortest timeout the call was given —
        /// whatever the policy floor is — and then the timer covers the
        /// whole time since the first transmission.
        #[test]
        fn only_a_reply_later_than_its_armed_timeout_raises_the_timer(
            samples in proptest::collection::vec(1u64..200_000, 0..20),
            armed_us in 1u64..200_000,
            since_last_us in 1u64..400_000,
            earlier_us in 1u64..400_000,
        ) {
            let mut e = RttEstimator::default();
            for rtt in samples {
                e.sample(Duration::from_micros(rtt));
            }
            let before = e;
            let since_last = Duration::from_micros(since_last_us);
            let since_first = since_last + Duration::from_micros(earlier_us);
            e.ambiguous(Duration::from_micros(armed_us), since_last, since_first);
            prop_assert_eq!(e.srtt(), before.srtt());
            if since_last_us <= armed_us {
                prop_assert_eq!(e, before, "loss explains it, yet the timer moved");
            } else {
                // Covered up to the division's rounding.
                prop_assert!(e.rto(Duration::ZERO) + Duration::from_nanos(4) >= since_first * 2);
            }
        }
    }
}
