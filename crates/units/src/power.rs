//! Power quantities, canonically stored in watts.

use crate::{impl_quantity, Energy, TimeSpan};

/// An instantaneous power draw. Canonical unit: watts.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Power(pub(crate) f64);

impl Power {
    /// Builds a power from watts.
    #[inline]
    pub fn from_watts(w: f64) -> Self {
        Power(w)
    }

    /// Builds a power from kilowatts.
    #[inline]
    pub fn from_kilowatts(kw: f64) -> Self {
        Power(kw * 1_000.0)
    }

    /// This power in watts.
    #[inline]
    pub fn as_watts(self) -> f64 {
        self.0
    }

    /// This power in kilowatts.
    #[inline]
    pub fn as_kilowatts(self) -> f64 {
        self.0 / 1_000.0
    }
}

impl_quantity!(Power, "W");

/// Power sustained over a time span is energy.
impl core::ops::Mul<TimeSpan> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: TimeSpan) -> Energy {
        Energy::from_joules(self.0 * rhs.as_secs())
    }
}

/// Symmetric form of `Power * TimeSpan`.
impl core::ops::Mul<Power> for TimeSpan {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions() {
        assert!((Power::from_kilowatts(1.5).as_watts() - 1500.0).abs() < 1e-9);
        assert!((Power::from_watts(250.0).as_kilowatts() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn power_time_commutes() {
        let p = Power::from_watts(205.0);
        let t = TimeSpan::from_secs(10.0);
        assert_eq!((p * t).as_joules(), (t * p).as_joules());
    }
}
