//! Simulation time.
//!
//! A monotone nanosecond counter. Durations are `std::time::Duration`, so
//! call sites read naturally (`Duration::from_micros(100)` for a QNIC
//! lifetime, `Duration::from_millis(1)` for a datacenter RTT).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::time::Duration;

/// Plane events processed across the process: pair arrivals stored in
/// the QNICs and fault edges replayed.
pub(crate) static SIM_EVENTS: obs::LazyCounter = obs::LazyCounter::new("qnet.des.events");

/// An instant on the simulation clock (nanoseconds since sim start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

impl SimTime {
    /// The start of the simulation.
    pub const ZERO: SimTime = SimTime(0);

    /// Builds an instant from nanoseconds since sim start.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from microseconds since sim start.
    pub const fn from_micros(us: u64) -> Self {
        SimTime(us * 1_000)
    }

    /// Builds an instant from seconds since sim start.
    pub fn from_secs_f64(s: f64) -> Self {
        debug_assert!(s >= 0.0);
        SimTime((s * 1e9).round() as u64)
    }

    /// Nanoseconds since sim start.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since sim start.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Elapsed duration since `earlier`; saturates to zero if `earlier`
    /// is in the future.
    pub fn duration_since(self, earlier: SimTime) -> Duration {
        Duration::from_nanos(self.0.saturating_sub(earlier.0))
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: Duration) -> SimTime {
        SimTime(self.0 + rhs.as_nanos() as u64)
    }
}

impl AddAssign<Duration> for SimTime {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.as_nanos() as u64;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = Duration;
    fn sub(self, rhs: SimTime) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::from_micros(5);
        let t2 = t + Duration::from_micros(3);
        assert_eq!(t2.as_nanos(), 8_000);
        assert_eq!(t2 - t, Duration::from_micros(3));
        assert_eq!(t - t2, Duration::ZERO, "saturating");
    }

    #[test]
    fn conversions_roundtrip() {
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn ordering() {
        assert!(SimTime::from_nanos(1) < SimTime::from_nanos(2));
        assert_eq!(SimTime::ZERO, SimTime::from_nanos(0));
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(SimTime::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimTime::from_micros(2).to_string(), "2.000µs");
        assert!(SimTime::from_secs_f64(2.0).to_string().ends_with('s'));
    }
}
