//! Simulation time: a point on the virtual clock and a span between points.
//!
//! The whole workspace runs on virtual time — platform, batch simulator,
//! task-graph runtime and user-study game alike — so both types are plain
//! `f64` seconds with explicit conversions, not `std::time` types.

use crate::impl_quantity;

/// Seconds per hour.
pub const SECS_PER_HOUR: f64 = 3_600.0;
/// Seconds per day.
pub const SECS_PER_DAY: f64 = 86_400.0;
/// Hours per (non-leap) year, as used by the paper's carbon-rate formula
/// (`24 * 365`).
pub const HOURS_PER_YEAR: f64 = 8_760.0;
/// Seconds per (non-leap) year.
pub const SECS_PER_YEAR: f64 = SECS_PER_DAY * 365.0;

/// A duration on the virtual clock. Canonical unit: seconds.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TimeSpan(pub(crate) f64);

impl TimeSpan {
    /// Builds a span from seconds.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        TimeSpan(s)
    }

    /// Builds a span from minutes.
    #[inline]
    pub fn from_mins(m: f64) -> Self {
        TimeSpan(m * 60.0)
    }

    /// Builds a span from hours.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        TimeSpan(h * SECS_PER_HOUR)
    }

    /// Builds a span from days.
    #[inline]
    pub fn from_days(d: f64) -> Self {
        TimeSpan(d * SECS_PER_DAY)
    }

    /// Builds a span from years (365-day years).
    #[inline]
    pub fn from_years(y: f64) -> Self {
        TimeSpan(y * SECS_PER_YEAR)
    }

    /// This span in seconds.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// This span in minutes.
    #[inline]
    pub fn as_mins(self) -> f64 {
        self.0 / 60.0
    }

    /// This span in hours.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / SECS_PER_HOUR
    }

    /// This span in days.
    #[inline]
    pub fn as_days(self) -> f64 {
        self.0 / SECS_PER_DAY
    }

    /// This span in 365-day years.
    #[inline]
    pub fn as_years(self) -> f64 {
        self.0 / SECS_PER_YEAR
    }
}

impl_quantity!(TimeSpan, "s");

/// A point on the virtual clock, measured in seconds since the simulation
/// epoch. Points support differencing (yielding a [`TimeSpan`]) and
/// offsetting by spans, but not point + point.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct TimePoint(f64);

impl TimePoint {
    /// The simulation epoch (t = 0).
    pub const EPOCH: TimePoint = TimePoint(0.0);

    /// Builds a point from seconds since the epoch.
    #[inline]
    pub fn from_secs(s: f64) -> Self {
        TimePoint(s)
    }

    /// Builds a point from hours since the epoch.
    #[inline]
    pub fn from_hours(h: f64) -> Self {
        TimePoint(h * SECS_PER_HOUR)
    }

    /// Seconds since the epoch.
    #[inline]
    pub fn as_secs(self) -> f64 {
        self.0
    }

    /// Hours since the epoch.
    #[inline]
    pub fn as_hours(self) -> f64 {
        self.0 / SECS_PER_HOUR
    }

    /// Span since the epoch.
    #[inline]
    pub fn since_epoch(self) -> TimeSpan {
        TimeSpan(self.0)
    }

    /// The hour-of-day in `[0, 24)` assuming the epoch is midnight.
    #[inline]
    pub fn hour_of_day(self) -> f64 {
        let h = (self.0 / SECS_PER_HOUR) % 24.0;
        if h < 0.0 {
            h + 24.0
        } else {
            h
        }
    }

    /// The index of the whole hour containing this point: the key of
    /// every hourly series (grid intensity, posted prices). Points before
    /// the epoch, and NaN, read hour 0; `+∞` saturates at `usize::MAX`.
    #[inline]
    pub fn hour_index(self) -> usize {
        (self.0.max(0.0) / SECS_PER_HOUR) as usize
    }

    /// The day index since the epoch (floor of days).
    #[inline]
    pub fn day_index(self) -> u64 {
        (self.0 / SECS_PER_DAY).max(0.0) as u64
    }

    /// The later of two points.
    #[inline]
    pub fn max(self, other: TimePoint) -> TimePoint {
        TimePoint(self.0.max(other.0))
    }

    /// The earlier of two points.
    #[inline]
    pub fn min(self, other: TimePoint) -> TimePoint {
        TimePoint(self.0.min(other.0))
    }
}

/// Folds an [`hour_index`](TimePoint::hour_index) into a series of `len`
/// hourly values that repeats, so a one-year series serves a longer run.
/// The division runs only for hours past the end of the series.
#[inline]
pub fn wrap_hour(hour: usize, len: usize) -> usize {
    if hour < len {
        hour
    } else {
        hour % len
    }
}

impl core::ops::Add<TimeSpan> for TimePoint {
    type Output = TimePoint;
    #[inline]
    fn add(self, rhs: TimeSpan) -> TimePoint {
        TimePoint(self.0 + rhs.0)
    }
}

impl core::ops::AddAssign<TimeSpan> for TimePoint {
    #[inline]
    fn add_assign(&mut self, rhs: TimeSpan) {
        self.0 += rhs.0;
    }
}

impl core::ops::Sub<TimeSpan> for TimePoint {
    type Output = TimePoint;
    #[inline]
    fn sub(self, rhs: TimeSpan) -> TimePoint {
        TimePoint(self.0 - rhs.0)
    }
}

impl core::ops::Sub<TimePoint> for TimePoint {
    type Output = TimeSpan;
    #[inline]
    fn sub(self, rhs: TimePoint) -> TimeSpan {
        TimeSpan(self.0 - rhs.0)
    }
}

impl core::fmt::Display for TimePoint {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "t+{:.3}s", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_conversions() {
        assert!((TimeSpan::from_hours(2.0).as_secs() - 7200.0).abs() < 1e-9);
        assert!((TimeSpan::from_days(1.0).as_hours() - 24.0).abs() < 1e-9);
        assert!((TimeSpan::from_years(1.0).as_hours() - HOURS_PER_YEAR).abs() < 1e-6);
        assert!((TimeSpan::from_mins(90.0).as_hours() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn point_arithmetic() {
        let t0 = TimePoint::EPOCH;
        let t1 = t0 + TimeSpan::from_hours(5.0);
        assert!((t1.as_hours() - 5.0).abs() < 1e-12);
        assert!(((t1 - t0).as_hours() - 5.0).abs() < 1e-12);
        assert!(((t1 - TimeSpan::from_hours(1.0)).as_hours() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn hour_index_clamps_and_floors() {
        let cases = [
            (0.0, 0),
            (3_599.999, 0),
            (3_600.0, 1),
            (-0.0, 0),
            (-1e-300, 0),
            (-7_200.0, 0),
            (f64::NAN, 0),
            (f64::NEG_INFINITY, 0),
            (f64::INFINITY, usize::MAX),
        ];
        for (s, hour) in cases {
            assert_eq!(TimePoint::from_secs(s).hour_index(), hour, "{s}");
            // The floor-then-clamp form gives the same hour.
            assert_eq!((s / SECS_PER_HOUR).floor().max(0.0) as usize, hour, "{s}");
        }
    }

    #[test]
    fn wrap_hour_folds_only_past_the_end() {
        assert_eq!(wrap_hour(5, 24), 5);
        assert_eq!(wrap_hour(24, 24), 0);
        assert_eq!(wrap_hour(50, 24), 2);
        assert_eq!(wrap_hour(usize::MAX, 1), 0);
    }

    #[test]
    fn hour_of_day_wraps() {
        let t = TimePoint::from_hours(49.5);
        assert!((t.hour_of_day() - 1.5).abs() < 1e-9);
        assert_eq!(t.day_index(), 2);
    }
}
