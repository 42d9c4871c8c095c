//! Depreciation schedules for attributing embodied carbon over a machine's
//! lifetime.
//!
//! The paper treats embodied carbon "like a capital expense invested in the
//! machine that depreciates over time" and argues for **accelerated**
//! depreciation (double-declining balance at a 5-year refresh period, i.e. a
//! 40 % annual rate): machines are charged more embodied carbon early in
//! life, rewarding users who keep older hardware productive.

use green_units::{CarbonMass, CarbonRate, HOURS_PER_YEAR};

/// A rule for spreading a machine's total embodied carbon `C_f` over its
/// service years.
pub trait DepreciationSchedule: Send + Sync {
    /// Embodied carbon still unattributed at the start of year `y`
    /// (`R_f(y)` in the paper; `R_f(0) = C_f`).
    fn remaining(&self, total: CarbonMass, year: u32) -> CarbonMass;

    /// Embodied carbon attributed to service year `y`
    /// (`D_f(y)` in the paper).
    fn allocated_to_year(&self, total: CarbonMass, year: u32) -> CarbonMass;

    /// The hourly carbon charge rate during year `y`:
    /// `D_f(y) / (24 * 365)`.
    fn hourly_rate(&self, total: CarbonMass, year: u32) -> CarbonRate {
        CarbonRate::from_g_per_hour(self.allocated_to_year(total, year).as_grams() / HOURS_PER_YEAR)
    }
}

/// Straight-line depreciation: `C_f / lifetime` per year, zero afterwards.
/// This is the "standard practice" baseline (SCI-style linear attribution).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinearDepreciation {
    /// Service lifetime in years.
    pub lifetime_years: u32,
}

impl LinearDepreciation {
    /// The paper's default 5-year refresh period.
    pub fn standard() -> Self {
        LinearDepreciation { lifetime_years: 5 }
    }
}

impl DepreciationSchedule for LinearDepreciation {
    fn remaining(&self, total: CarbonMass, year: u32) -> CarbonMass {
        if year >= self.lifetime_years {
            CarbonMass::ZERO
        } else {
            total * (1.0 - year as f64 / self.lifetime_years as f64)
        }
    }

    fn allocated_to_year(&self, total: CarbonMass, year: u32) -> CarbonMass {
        if year >= self.lifetime_years {
            CarbonMass::ZERO
        } else {
            total / self.lifetime_years as f64
        }
    }
}

/// Double-declining-balance depreciation: each year attributes a fixed
/// fraction `2 / lifetime` of the *remaining* balance.
///
/// With the paper's 5-year lifetime the annual rate is 40 %, so
/// `R_f(y) = C_f · 0.6^y` and `D_f(y) = 0.4 · R_f(y)`. Unlike accounting
/// practice, the paper does not switch to straight-line at the crossover nor
/// stop at the lifetime — old machines keep a small, ever-declining rate,
/// which is exactly the incentive the authors want.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DoubleDecliningBalance {
    /// Service lifetime in years; the annual rate is `2 / lifetime_years`.
    pub lifetime_years: u32,
}

impl DoubleDecliningBalance {
    /// The paper's default: 5-year lifetime, 40 % annual rate.
    pub fn standard() -> Self {
        DoubleDecliningBalance { lifetime_years: 5 }
    }

    /// The annual depreciation rate (0.4 for the standard schedule).
    pub fn annual_rate(&self) -> f64 {
        2.0 / self.lifetime_years as f64
    }
}

impl DepreciationSchedule for DoubleDecliningBalance {
    fn remaining(&self, total: CarbonMass, year: u32) -> CarbonMass {
        total * (1.0 - self.annual_rate()).powi(year as i32)
    }

    fn allocated_to_year(&self, total: CarbonMass, year: u32) -> CarbonMass {
        self.remaining(total, year) * self.annual_rate()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOTAL: f64 = 1_000_000.0; // 1 tCO2e in grams

    #[test]
    fn linear_allocates_evenly_then_stops() {
        let lin = LinearDepreciation::standard();
        let total = CarbonMass::from_grams(TOTAL);
        for y in 0..5 {
            assert!((lin.allocated_to_year(total, y).as_grams() - TOTAL / 5.0).abs() < 1e-9);
        }
        assert_eq!(lin.allocated_to_year(total, 5), CarbonMass::ZERO);
        assert_eq!(lin.remaining(total, 5), CarbonMass::ZERO);
        assert!((lin.remaining(total, 2).as_grams() - TOTAL * 0.6).abs() < 1e-9);
    }

    #[test]
    fn ddb_matches_paper_formulas() {
        let ddb = DoubleDecliningBalance::standard();
        let total = CarbonMass::from_grams(TOTAL);
        assert!((ddb.annual_rate() - 0.4).abs() < 1e-12);
        // R_f(y) = C * 0.6^y
        for y in 0..10 {
            let expect = TOTAL * 0.6f64.powi(y as i32);
            assert!((ddb.remaining(total, y).as_grams() - expect).abs() < 1e-6);
            assert!((ddb.allocated_to_year(total, y).as_grams() - 0.4 * expect).abs() < 1e-6);
        }
    }

    #[test]
    fn ddb_front_loads_relative_to_linear() {
        let ddb = DoubleDecliningBalance::standard();
        let lin = LinearDepreciation::standard();
        let total = CarbonMass::from_grams(TOTAL);
        // Year 0: accelerated charges more than linear.
        assert!(ddb.allocated_to_year(total, 0) > lin.allocated_to_year(total, 0));
        // Year 4: accelerated charges less.
        assert!(ddb.allocated_to_year(total, 4) < lin.allocated_to_year(total, 4));
    }

    #[test]
    fn hourly_rate_is_yearly_over_8760() {
        let ddb = DoubleDecliningBalance::standard();
        let total = CarbonMass::from_grams(TOTAL);
        let rate = ddb.hourly_rate(total, 0);
        assert!((rate.as_g_per_hour() - 0.4 * TOTAL / 8760.0).abs() < 1e-9);
    }

    #[test]
    fn ddb_yearly_allocations_telescope() {
        // Sum of allocations over n years equals total minus remaining.
        let ddb = DoubleDecliningBalance::standard();
        let total = CarbonMass::from_grams(TOTAL);
        let sum: f64 = (0..7)
            .map(|y| ddb.allocated_to_year(total, y).as_grams())
            .sum();
        let expect = TOTAL - ddb.remaining(total, 7).as_grams();
        assert!((sum - expect).abs() < 1e-6);
    }
}
