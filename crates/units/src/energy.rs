//! Energy quantities, canonically stored in joules.

use crate::{impl_quantity, CarbonIntensity, CarbonMass, Power, TimeSpan};

/// An amount of energy. Canonical unit: joules.
///
/// Constructed from joules, watt-hours or kilowatt-hours; the accounting
/// layer mostly reports kWh (grid scale) while the telemetry layer works in
/// joules (RAPL scale).
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Energy(pub(crate) f64);

const JOULES_PER_WH: f64 = 3_600.0;
const JOULES_PER_KWH: f64 = 3_600_000.0;

impl Energy {
    /// Builds an energy from joules.
    #[inline]
    pub fn from_joules(j: f64) -> Self {
        Energy(j)
    }

    /// Builds an energy from kilojoules.
    #[inline]
    pub fn from_kilojoules(kj: f64) -> Self {
        Energy(kj * 1_000.0)
    }

    /// Builds an energy from watt-hours.
    #[inline]
    pub fn from_wh(wh: f64) -> Self {
        Energy(wh * JOULES_PER_WH)
    }

    /// Builds an energy from kilowatt-hours.
    #[inline]
    pub fn from_kwh(kwh: f64) -> Self {
        Energy(kwh * JOULES_PER_KWH)
    }

    /// Builds an energy from megawatt-hours.
    #[inline]
    pub fn from_mwh(mwh: f64) -> Self {
        Energy(mwh * JOULES_PER_KWH * 1_000.0)
    }

    /// This energy in joules.
    #[inline]
    pub fn as_joules(self) -> f64 {
        self.0
    }

    /// This energy in kilojoules.
    #[inline]
    pub fn as_kilojoules(self) -> f64 {
        self.0 / 1_000.0
    }

    /// This energy in watt-hours.
    #[inline]
    pub fn as_wh(self) -> f64 {
        self.0 / JOULES_PER_WH
    }

    /// This energy in kilowatt-hours.
    #[inline]
    pub fn as_kwh(self) -> f64 {
        self.0 / JOULES_PER_KWH
    }

    /// This energy in megawatt-hours.
    #[inline]
    pub fn as_mwh(self) -> f64 {
        self.0 / (JOULES_PER_KWH * 1_000.0)
    }

    /// Average power over `span`. Returns zero power for a zero span.
    #[inline]
    pub fn average_power(self, span: TimeSpan) -> Power {
        if span.as_secs() == 0.0 {
            Power::ZERO
        } else {
            Power::from_watts(self.0 / span.as_secs())
        }
    }
}

impl_quantity!(Energy, "J");

/// Energy divided by time is power.
impl core::ops::Div<TimeSpan> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: TimeSpan) -> Power {
        Power::from_watts(self.0 / rhs.as_secs())
    }
}

/// Energy times grid carbon intensity is a carbon mass (operational carbon).
impl core::ops::Mul<CarbonIntensity> for Energy {
    type Output = CarbonMass;
    #[inline]
    fn mul(self, rhs: CarbonIntensity) -> CarbonMass {
        CarbonMass::from_grams(self.as_kwh() * rhs.as_g_per_kwh())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_conversions() {
        let e = Energy::from_kwh(1.0);
        assert!((e.as_joules() - 3.6e6).abs() < 1e-6);
        assert!((e.as_wh() - 1000.0).abs() < 1e-9);
        assert!((e.as_mwh() - 1e-3).abs() < 1e-15);
        assert!((Energy::from_kilojoules(2.0).as_joules() - 2000.0).abs() < 1e-12);
    }

    #[test]
    fn average_power_handles_zero_span() {
        assert_eq!(
            Energy::from_joules(10.0).average_power(TimeSpan::ZERO),
            Power::ZERO
        );
        let p = Energy::from_joules(100.0).average_power(TimeSpan::from_secs(20.0));
        assert!((p.as_watts() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn div_by_time_is_power() {
        let p = Energy::from_joules(3600.0) / TimeSpan::from_hours(1.0);
        assert!((p.as_watts() - 1.0).abs() < 1e-12);
    }
}
