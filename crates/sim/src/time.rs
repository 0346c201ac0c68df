//! Simulated time.
//!
//! All simulation time is kept in integer **nanoseconds** so that event
//! ordering is exact and runs are bit-for-bit reproducible: no floating-point
//! accumulation error can reorder two events between runs. Conversions to and
//! from `f64` seconds exist only at the measurement boundary (statistics,
//! report printing).

use core::fmt;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// An instant on the simulation clock, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimTime {
    /// The simulation epoch (t = 0).
    pub const ZERO: SimTime = SimTime(0);
    /// The greatest representable instant; used as an "infinitely far" horizon.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Builds an instant from whole nanoseconds since the epoch.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Builds an instant from whole seconds since the epoch.
    pub const fn from_secs(s: u64) -> Self {
        SimTime(s * 1_000_000_000)
    }

    /// Nanoseconds since the epoch.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch as a float (measurement boundary only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Time elapsed since `earlier`, saturating to zero if `earlier` is later.
    pub fn saturating_since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Adds a duration, saturating at [`SimTime::MAX`].
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl SimDuration {
    /// The empty span.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The greatest representable span.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Builds a duration from whole nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Builds a duration from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Builds a duration from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Builds a duration from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * 1_000_000_000)
    }

    /// Builds a duration from fractional seconds, rounding to the nearest
    /// nanosecond. Negative and non-finite inputs clamp to zero; values larger
    /// than the representable range clamp to [`SimDuration::MAX`].
    pub fn from_secs_f64(s: f64) -> Self {
        if s.is_nan() || s <= 0.0 {
            return SimDuration::ZERO;
        }
        let ns = s * 1e9;
        if ns >= u64::MAX as f64 {
            SimDuration::MAX
        } else {
            SimDuration(round_half_away(ns))
        }
    }

    /// Whole nanoseconds in this span.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Whole milliseconds in this span (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Fractional seconds (measurement boundary only).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True when the span is empty.
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies by a non-negative float factor, rounding to the nearest
    /// nanosecond. Used by scaling models (e.g. CPU-share dilation).
    pub fn mul_f64(self, factor: f64) -> Self {
        SimDuration::from_secs_f64(self.as_secs_f64() * factor)
    }

    /// Checked addition.
    pub fn checked_add(self, other: SimDuration) -> Option<SimDuration> {
        self.0.checked_add(other.0).map(SimDuration)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 - rhs.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 - rhs.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, rhs: SimDuration) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 * rhs)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, rhs: u64) -> SimDuration {
        SimDuration(self.0 / rhs)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3}ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3}us", ns as f64 / 1e3)
        } else {
            write!(f, "{ns}ns")
        }
    }
}

/// `ns.round() as u64` for `0 < ns < 2^64`, without a call: from 2^52 up
/// every `f64` is an integer; below it truncation and the fractional part
/// are exact, so half rounds away from zero exactly as [`f64::round`] does.
/// The `i64` conversions are one instruction each way; through `u64` they
/// are a dozen, which measured slower than the call.
fn round_half_away(ns: f64) -> u64 {
    if ns >= 4_503_599_627_370_496.0 {
        return ns as u64;
    }
    let n = ns as i64;
    (if ns - n as f64 >= 0.5 { n + 1 } else { n }) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_nanos(), 3_000_000_000);
        assert_eq!(SimDuration::from_millis(5).as_nanos(), 5_000_000);
        assert_eq!(SimDuration::from_micros(7).as_nanos(), 7_000);
        assert_eq!(SimDuration::from_secs(2).as_millis(), 2_000);
    }

    #[test]
    fn rounding_is_f64_round() {
        let edges = [
            0.5,
            1.5,
            2.5,
            0.499_999_999_999_999_94,
            1.0 - f64::EPSILON / 2.0,
            f64::MIN_POSITIVE,
            2f64.powi(52) - 0.5,
            2f64.powi(52) - 1.0,
            2f64.powi(52),
            2f64.powi(52) + 1.0,
            2f64.powi(53) - 1.0,
            2f64.powi(53),
            2f64.powi(53) + 2.0,
            2f64.powi(64) - 2048.0,
        ];
        for ns in edges {
            assert_eq!(round_half_away(ns), ns.round() as u64, "{ns:e}");
        }
        // Uniform mantissas over every binary magnitude below 2^64, and the
        // half-way points of the low ones.
        let mut rng = crate::SimRng::new(0x0072_6f75_6e64);
        for _ in 0..1_000_000 {
            let bits = rng.u64();
            let ns = (bits >> 11) as f64 * 2f64.powi((bits % 64) as i32 - 53);
            assert_eq!(round_half_away(ns), ns.round() as u64, "{ns:e}");
            let half = (bits >> 40) as f64 + 0.5;
            assert_eq!(round_half_away(half), half.round() as u64, "{half:e}");
        }
        assert_eq!(SimDuration::from_secs_f64(2.5e-9).as_nanos(), 3);
    }

    #[test]
    fn arithmetic_behaves() {
        let t = SimTime::from_secs(1) + SimDuration::from_millis(500);
        assert_eq!(t.as_nanos(), 1_500_000_000);
        assert_eq!((t - SimTime::from_secs(1)).as_millis(), 500);
        assert_eq!(t - SimDuration::from_millis(500), SimTime::from_secs(1));
        assert_eq!(SimDuration::from_secs(1) * 3, SimDuration::from_secs(3));
        assert_eq!(SimDuration::from_secs(3) / 3, SimDuration::from_secs(1));
    }

    #[test]
    fn float_conversions_round() {
        assert_eq!(SimDuration::from_secs_f64(0.5).as_nanos(), 500_000_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::NAN), SimDuration::ZERO);
        assert_eq!(SimDuration::from_secs_f64(f64::INFINITY), SimDuration::MAX);
        let d = SimDuration::from_secs_f64(1e30);
        assert_eq!(d, SimDuration::MAX);
    }

    #[test]
    fn saturating_ops() {
        let early = SimTime::from_secs(1);
        let late = SimTime::from_secs(2);
        assert_eq!(early.saturating_since(late), SimDuration::ZERO);
        assert_eq!(late.saturating_since(early), SimDuration::from_secs(1));
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
        assert_eq!(
            SimDuration::from_secs(1).saturating_sub(SimDuration::from_secs(2)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn mul_f64_dilates() {
        let d = SimDuration::from_secs(1).mul_f64(1.25);
        assert_eq!(d.as_nanos(), 1_250_000_000);
        assert_eq!(SimDuration::from_secs(1).mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration::from_nanos(12)), "12ns");
        assert_eq!(format!("{}", SimDuration::from_micros(12)), "12.000us");
        assert_eq!(format!("{}", SimDuration::from_millis(12)), "12.000ms");
        assert_eq!(format!("{}", SimDuration::from_secs(12)), "12.000s");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = [SimTime::from_secs(3), SimTime::ZERO, SimTime::from_secs(1)];
        v.sort();
        assert_eq!(v[0], SimTime::ZERO);
        assert_eq!(v[2], SimTime::from_secs(3));
    }
}
