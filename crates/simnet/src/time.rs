//! Virtual time for the discrete-event simulator.
//!
//! Simulated time is a nanosecond counter starting at zero when the
//! simulation starts. It only advances when the scheduler dispatches an
//! event, so a run is fully deterministic regardless of host load.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// An instant in simulated time, in nanoseconds since simulation start.
///
/// `SimTime` is totally ordered and supports arithmetic with
/// [`std::time::Duration`]:
///
/// ```
/// use simnet::SimTime;
/// use std::time::Duration;
///
/// let t = SimTime::ZERO + Duration::from_micros(250);
/// assert_eq!(t.as_nanos(), 250_000);
/// assert!(t > SimTime::ZERO);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// The largest representable instant; used as an "infinite" deadline.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Creates a `SimTime` from raw nanoseconds since simulation start.
    pub const fn from_nanos(nanos: u64) -> SimTime {
        SimTime(nanos)
    }

    /// Creates a `SimTime` from microseconds since simulation start.
    pub const fn from_micros(micros: u64) -> SimTime {
        SimTime(micros * 1_000)
    }

    /// Creates a `SimTime` from milliseconds since simulation start.
    pub const fn from_millis(millis: u64) -> SimTime {
        SimTime(millis * 1_000_000)
    }

    /// Raw nanoseconds since simulation start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed as microseconds (truncating).
    pub const fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    /// This instant expressed as milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Elapsed duration since `earlier`, saturating to zero if `earlier`
    /// is in the future.
    pub fn saturating_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(duration_to_nanos(d)))
    }
}

/// Converts a [`Duration`] to nanoseconds, saturating at `u64::MAX`.
///
/// Durations beyond ~584 years of simulated time are clamped, which is far
/// outside any meaningful experiment horizon.
pub fn duration_to_nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

impl Add<Duration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: Duration) -> SimTime {
        self.saturating_add(rhs)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;

    /// Returns the duration between two instants.
    ///
    /// # Panics
    ///
    /// Panics if `rhs` is later than `self`; use
    /// [`SimTime::saturating_since`] when that is possible.
    fn sub(self, rhs: SimTime) -> Duration {
        assert!(
            self.0 >= rhs.0,
            "SimTime subtraction underflow: {self} - {rhs}"
        );
        Duration::from_nanos(self.0 - rhs.0)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Pick the most readable unit for the magnitude.
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1e9)
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_is_default() {
        assert_eq!(SimTime::default(), SimTime::ZERO);
    }

    #[test]
    fn add_duration_advances() {
        let t = SimTime::ZERO + Duration::from_millis(5);
        assert_eq!(t.as_nanos(), 5_000_000);
        assert_eq!(t.as_micros(), 5_000);
        assert_eq!(t.as_millis(), 5);
    }

    #[test]
    fn add_assign_advances() {
        let mut t = SimTime::from_micros(1);
        t += Duration::from_micros(2);
        assert_eq!(t, SimTime::from_micros(3));
    }

    #[test]
    fn subtraction_gives_duration() {
        let a = SimTime::from_millis(10);
        let b = SimTime::from_millis(4);
        assert_eq!(a - b, Duration::from_millis(6));
    }

    #[test]
    #[should_panic(expected = "underflow")]
    fn subtraction_underflow_panics() {
        let _ = SimTime::from_millis(1) - SimTime::from_millis(2);
    }

    #[test]
    fn saturating_since_clamps() {
        let a = SimTime::from_millis(1);
        let b = SimTime::from_millis(2);
        assert_eq!(a.saturating_since(b), Duration::ZERO);
        assert_eq!(b.saturating_since(a), Duration::from_millis(1));
    }

    #[test]
    fn saturating_add_clamps_at_max() {
        let t = SimTime::MAX.saturating_add(Duration::from_secs(1));
        assert_eq!(t, SimTime::MAX);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(12).to_string(), "12ns");
        assert_eq!(SimTime::from_nanos(1_500).to_string(), "1.500us");
        assert_eq!(SimTime::from_millis(2).to_string(), "2.000ms");
        assert_eq!(SimTime::from_millis(1_500).to_string(), "1.500s");
    }

    #[test]
    fn huge_duration_saturates() {
        assert_eq!(duration_to_nanos(Duration::MAX), u64::MAX);
    }
}
