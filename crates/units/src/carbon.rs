//! Carbon quantities: emitted mass, grid intensity and per-hour rates.

use crate::{impl_quantity, TimeSpan};

/// A mass of emitted carbon-dioxide equivalent. Canonical unit: grams CO2e.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonMass(pub(crate) f64);

impl CarbonMass {
    /// Builds a mass from grams of CO2e.
    #[inline]
    pub fn from_grams(g: f64) -> Self {
        CarbonMass(g)
    }

    /// Builds a mass from milligrams of CO2e.
    #[inline]
    pub fn from_milligrams(mg: f64) -> Self {
        CarbonMass(mg / 1_000.0)
    }

    /// Builds a mass from kilograms of CO2e.
    #[inline]
    pub fn from_kg(kg: f64) -> Self {
        CarbonMass(kg * 1_000.0)
    }

    /// Builds a mass from (metric) tonnes of CO2e.
    #[inline]
    pub fn from_tonnes(t: f64) -> Self {
        CarbonMass(t * 1_000_000.0)
    }

    /// This mass in grams of CO2e.
    #[inline]
    pub fn as_grams(self) -> f64 {
        self.0
    }

    /// This mass in milligrams of CO2e.
    #[inline]
    pub fn as_milligrams(self) -> f64 {
        self.0 * 1_000.0
    }

    /// This mass in kilograms of CO2e.
    #[inline]
    pub fn as_kg(self) -> f64 {
        self.0 / 1_000.0
    }

    /// This mass in tonnes of CO2e.
    #[inline]
    pub fn as_tonnes(self) -> f64 {
        self.0 / 1_000_000.0
    }
}

impl_quantity!(CarbonMass, "gCO2e");

/// Grid carbon intensity: carbon emitted per unit of electricity generated.
/// Canonical unit: grams CO2e per kilowatt-hour.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonIntensity(pub(crate) f64);

impl CarbonIntensity {
    /// Builds an intensity from gCO2e/kWh.
    #[inline]
    pub fn from_g_per_kwh(g: f64) -> Self {
        CarbonIntensity(g)
    }

    /// This intensity in gCO2e/kWh.
    #[inline]
    pub fn as_g_per_kwh(self) -> f64 {
        self.0
    }
}

impl_quantity!(CarbonIntensity, "gCO2e/kWh");

/// A carbon flow rate, e.g. the embodied-carbon charge rate of a machine.
/// Canonical unit: grams CO2e per hour.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct CarbonRate(pub(crate) f64);

impl CarbonRate {
    /// Builds a rate from gCO2e/hour.
    #[inline]
    pub fn from_g_per_hour(g: f64) -> Self {
        CarbonRate(g)
    }

    /// This rate in gCO2e/hour.
    #[inline]
    pub fn as_g_per_hour(self) -> f64 {
        self.0
    }
}

impl_quantity!(CarbonRate, "gCO2e/h");

/// A carbon rate sustained over a span emits a carbon mass.
impl core::ops::Mul<TimeSpan> for CarbonRate {
    type Output = CarbonMass;
    #[inline]
    fn mul(self, rhs: TimeSpan) -> CarbonMass {
        CarbonMass::from_grams(self.0 * rhs.as_hours())
    }
}

/// Symmetric form of `CarbonRate * TimeSpan`.
impl core::ops::Mul<CarbonRate> for TimeSpan {
    type Output = CarbonMass;
    #[inline]
    fn mul(self, rhs: CarbonRate) -> CarbonMass {
        rhs * self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Energy;

    #[test]
    fn mass_conversions() {
        let m = CarbonMass::from_kg(1.5);
        assert!((m.as_grams() - 1500.0).abs() < 1e-9);
        assert!((m.as_tonnes() - 0.0015).abs() < 1e-12);
        assert!((CarbonMass::from_milligrams(250.0).as_grams() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn rate_over_time_emits_mass() {
        let rate = CarbonRate::from_g_per_hour(105.2);
        let emitted = rate * TimeSpan::from_hours(10.0);
        assert!((emitted.as_grams() - 1052.0).abs() < 1e-9);
    }

    #[test]
    fn operational_carbon_formula() {
        // 2 kWh on a 389 g/kWh grid -> 778 g.
        let c = Energy::from_kwh(2.0) * CarbonIntensity::from_g_per_kwh(389.0);
        assert!((c.as_grams() - 778.0).abs() < 1e-9);
    }
}
