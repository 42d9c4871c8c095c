//! Exchange rates between accounting methods.
//!
//! Credits have method-specific units, so "granting an equivalent
//! allocation" under a different method (Figure 6; game version V3)
//! requires a conversion. Following how ACCESS sets machine exchange
//! rates, the rate is estimated empirically: price a reference workload
//! sample under both methods and take the ratio of totals.

use green_units::Credits;

use crate::context::ChargeContext;
use crate::methods::MethodKind;

/// An empirical conversion factor from one method's credits to another's.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExchangeRate {
    /// Source method.
    pub from: MethodKind,
    /// Target method.
    pub to: MethodKind,
    /// Multiply `from`-credits by this to get `to`-credits.
    pub rate: f64,
}

impl ExchangeRate {
    /// Estimates the rate over a sample of charge contexts (e.g. a recent
    /// window of completed jobs). Returns `None` when the sample prices to
    /// zero under *either* method: a zero source total leaves the ratio
    /// undefined, and a zero target total would produce a rate of 0 that
    /// silently destroys any balance converted through it.
    pub fn estimate(from: MethodKind, to: MethodKind, sample: &[ChargeContext]) -> Option<Self> {
        let total_from: f64 = sample.iter().map(|c| from.charge(c).value()).sum();
        let total_to: f64 = sample.iter().map(|c| to.charge(c).value()).sum();
        if total_from <= 0.0 || total_to <= 0.0 || !total_to.is_finite() {
            return None;
        }
        Some(ExchangeRate {
            from,
            to,
            rate: total_to / total_from,
        })
    }

    /// Converts an amount of `from`-credits.
    pub fn convert(&self, amount: Credits) -> Credits {
        amount * self.rate
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_units::{Energy, Power, TimeSpan};

    fn sample() -> Vec<ChargeContext> {
        (1..=10)
            .map(|i| {
                ChargeContext::new(
                    Energy::from_joules(100.0 * i as f64),
                    TimeSpan::from_secs(10.0 * i as f64),
                )
                .with_cores(8)
                .with_provisioned(Power::from_watts(100.0), 0.5)
            })
            .collect()
    }

    #[test]
    fn runtime_to_energy_rate() {
        let sample = sample();
        let rate =
            ExchangeRate::estimate(MethodKind::Runtime, MethodKind::Energy, &sample).unwrap();
        // Total runtime credits: sum(10i*8) = 4400 core-s. Energy: 5500 J.
        assert!((rate.rate - 5500.0 / 4400.0).abs() < 1e-9);
        let converted = rate.convert(Credits::new(880.0));
        assert!((converted.value() - 1100.0).abs() < 1e-9);
    }

    #[test]
    fn round_trip_is_identity() {
        let sample = sample();
        let ab = ExchangeRate::estimate(MethodKind::Runtime, MethodKind::eba(), &sample).unwrap();
        let ba = ExchangeRate::estimate(MethodKind::eba(), MethodKind::Runtime, &sample).unwrap();
        assert!((ab.rate * ba.rate - 1.0).abs() < 1e-9);
    }

    #[test]
    fn zero_source_rejected() {
        let empty: Vec<ChargeContext> = Vec::new();
        assert!(ExchangeRate::estimate(MethodKind::Runtime, MethodKind::Cba, &empty).is_none());
    }

    #[test]
    fn zero_target_rejected() {
        // Jobs that ran (positive runtime) but drew no measured energy:
        // Runtime prices them fine, Energy prices them to zero. A rate of
        // 0 here would wipe out any balance converted through it.
        let sample: Vec<ChargeContext> = (1..=4)
            .map(|i| {
                ChargeContext::new(
                    Energy::from_joules(0.0),
                    TimeSpan::from_secs(10.0 * i as f64),
                )
                .with_cores(8)
            })
            .collect();
        let total: f64 = sample
            .iter()
            .map(|c| MethodKind::Runtime.charge(c).value())
            .sum();
        assert!(total > 0.0, "source method must price the sample");
        assert!(
            ExchangeRate::estimate(MethodKind::Runtime, MethodKind::Energy, &sample).is_none(),
            "a zero target total must reject the rate, not produce 0"
        );
    }
}
