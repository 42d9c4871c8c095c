//! The five accounting methods.

use green_units::{CarbonIntensity, Credits};

use crate::context::ChargeContext;

/// An accounting method: a pure mapping from measured job context to a
/// charge in allocation credits.
///
/// Credit *units* differ by method (core-seconds, joules, grams CO2e…);
/// comparisons across methods go through [`crate::exchange`] or
/// normalization, exactly as the paper normalizes its tables.
pub trait AccountingMethod: Send + Sync {
    /// Short name used in tables.
    fn name(&self) -> &'static str;

    /// Prices one job.
    fn charge(&self, ctx: &ChargeContext) -> Credits;
}

/// The method taxonomy of Section 4.2, with the paper's defaults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MethodKind {
    /// Core-time only (Chameleon-style node/core-hours).
    Runtime,
    /// Measured energy only, no capacity term.
    Energy,
    /// Core-time weighted by machine peak performance (ACCESS-style SUs).
    Peak,
    /// Energy-Based Accounting, Eq. 1. `beta` weights the potential-use
    /// term; the paper uses β = 1.
    Eba {
        /// Weight on the `d_j · TDP_R` term.
        beta: f64,
    },
    /// Carbon-Based Accounting, Eq. 2.
    Cba,
}

impl MethodKind {
    /// All five methods with default parameters, in the paper's order.
    pub const ALL: [MethodKind; 5] = [
        MethodKind::Runtime,
        MethodKind::Energy,
        MethodKind::Peak,
        MethodKind::Eba { beta: 1.0 },
        MethodKind::Cba,
    ];

    /// EBA with the default β = 1.
    pub fn eba() -> MethodKind {
        MethodKind::Eba { beta: 1.0 }
    }

    /// Instantiates the method.
    pub fn build(self) -> Box<dyn AccountingMethod> {
        match self {
            MethodKind::Runtime => Box::new(RuntimeAccounting),
            MethodKind::Energy => Box::new(EnergyAccounting),
            MethodKind::Peak => Box::new(PeakAccounting),
            MethodKind::Eba { beta } => Box::new(EnergyBasedAccounting { beta }),
            MethodKind::Cba => Box::new(CarbonBasedAccounting),
        }
    }

    /// Prices a context without boxing.
    pub fn charge(self, ctx: &ChargeContext) -> Credits {
        match self {
            MethodKind::Runtime => RuntimeAccounting.charge(ctx),
            MethodKind::Energy => EnergyAccounting.charge(ctx),
            MethodKind::Peak => PeakAccounting.charge(ctx),
            MethodKind::Eba { beta } => EnergyBasedAccounting { beta }.charge(ctx),
            MethodKind::Cba => CarbonBasedAccounting.charge(ctx),
        }
    }

    /// The charge as an affine function of the grid intensity — what is
    /// left of [`charge`](MethodKind::charge) once everything but
    /// `ctx.carbon_intensity` is fixed. Carbon-Based Accounting (Eq. 2)
    /// is the one method that reads the intensity: its slope is the
    /// facility energy in kWh and its intercept the embodied grams,
    /// `d_j · D_f(y)/8760 · share`. The four intensity-blind methods have
    /// slope zero and their whole charge as the intercept.
    ///
    /// For every finite intensity, `affine(ctx).at(I)` equals `charge` on
    /// `ctx` with intensity `I`, bit for bit. A caller that prices one job
    /// at many moments (a scheduler quoting submission delays)
    /// decomposes once and evaluates per moment.
    pub fn affine(self, ctx: &ChargeContext) -> AffineCharge {
        match self {
            MethodKind::Cba => AffineCharge {
                per_intensity: ctx.facility_energy().as_kwh(),
                fixed: ((ctx.carbon_rate * ctx.duration) * ctx.provisioned_share).as_grams(),
            },
            blind => AffineCharge {
                per_intensity: 0.0,
                fixed: blind.charge(ctx).value(),
            },
        }
    }

    /// Table name.
    pub fn name(self) -> &'static str {
        match self {
            MethodKind::Runtime => "Runtime",
            MethodKind::Energy => "Energy",
            MethodKind::Peak => "Peak",
            MethodKind::Eba { .. } => "EBA",
            MethodKind::Cba => "CBA",
        }
    }
}

impl core::fmt::Display for MethodKind {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str(self.name())
    }
}

/// A method charge as a function of the grid intensity `I`:
/// `per_intensity · I + fixed` credits. See [`MethodKind::affine`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AffineCharge {
    /// Credits per gCO2e/kWh of grid intensity (kWh for CBA, else 0).
    pub per_intensity: f64,
    /// Credits independent of the intensity.
    pub fixed: f64,
}

impl AffineCharge {
    /// The charge at grid intensity `intensity`: a rounded product, then
    /// a rounded sum, exactly as Eq. 2 rounds. Not a fused multiply-add —
    /// its single rounding would move the output bits.
    #[inline]
    pub fn at(self, intensity: CarbonIntensity) -> f64 {
        self.per_intensity * intensity.as_g_per_kwh() + self.fixed
    }
}

/// Price ∝ core-time, blind to heterogeneity (Chameleon Cloud model).
/// Credits are core-seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct RuntimeAccounting;

impl AccountingMethod for RuntimeAccounting {
    fn name(&self) -> &'static str {
        "Runtime"
    }

    fn charge(&self, ctx: &ChargeContext) -> Credits {
        Credits::new(ctx.duration.as_secs() * ctx.cores as f64)
    }
}

/// Price ∝ measured energy only. Credits are joules (facility energy,
/// i.e. after PUE). The paper's strawman: efficient software is rewarded,
/// but so is squatting on idle reservations.
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyAccounting;

impl AccountingMethod for EnergyAccounting {
    fn name(&self) -> &'static str {
        "Energy"
    }

    fn charge(&self, ctx: &ChargeContext) -> Credits {
        Credits::new(ctx.facility_energy().as_joules())
    }
}

/// Price ∝ core-time × per-core peak performance (ACCESS service units):
/// higher-performance systems charge more per hour regardless of what the
/// job actually used.
#[derive(Debug, Clone, Copy, Default)]
pub struct PeakAccounting;

impl AccountingMethod for PeakAccounting {
    fn name(&self) -> &'static str {
        "Peak"
    }

    fn charge(&self, ctx: &ChargeContext) -> Credits {
        Credits::new(ctx.duration.as_secs() * ctx.cores as f64 * ctx.peak_per_core)
    }
}

/// **Energy-Based Accounting** (Eq. 1):
/// `ê_j = (e_j + β · d_j · TDP_R) / 2`.
///
/// The average of actual energy and the energy the provisioned slice would
/// have used at its thermal design power. Rewards efficient software while
/// still charging for the hardware the job blocked. Credits are joules.
#[derive(Debug, Clone, Copy)]
pub struct EnergyBasedAccounting {
    /// Weight on the potential-use term (paper: 1.0; `beta < 1` softens the
    /// charge on devices whose TDP far exceeds typical draw).
    pub beta: f64,
}

impl Default for EnergyBasedAccounting {
    fn default() -> Self {
        EnergyBasedAccounting { beta: 1.0 }
    }
}

impl AccountingMethod for EnergyBasedAccounting {
    fn name(&self) -> &'static str {
        "EBA"
    }

    fn charge(&self, ctx: &ChargeContext) -> Credits {
        let potential = ctx.provisioned_tdp * ctx.duration;
        let charge = (ctx.facility_energy() + potential * self.beta) * 0.5;
        Credits::new(charge.as_joules())
    }
}

/// **Carbon-Based Accounting** (Eq. 2):
/// `c_j = e_j · I_f(t) + d_j · D_f(y)/(24·365) · share`.
///
/// Operational carbon of the electricity plus the job's slice of the
/// machine's embodied carbon under accelerated depreciation. Credits are
/// grams of CO2e.
#[derive(Debug, Clone, Copy, Default)]
pub struct CarbonBasedAccounting;

impl AccountingMethod for CarbonBasedAccounting {
    fn name(&self) -> &'static str {
        "CBA"
    }

    fn charge(&self, ctx: &ChargeContext) -> Credits {
        let footprint = green_carbon::attribute_job(
            ctx.facility_energy(),
            ctx.carbon_intensity,
            ctx.duration,
            ctx.carbon_rate,
            ctx.provisioned_share,
        );
        Credits::new(footprint.total().as_grams())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_units::{CarbonIntensity, CarbonRate, Energy, Power, TimeSpan};

    fn ctx() -> ChargeContext {
        ChargeContext::new(Energy::from_joules(18.3), TimeSpan::from_secs(5.2))
            .with_cores(8)
            .with_provisioned(Power::from_watts(65.0), 1.0)
            .with_peak(3200.0)
            .with_carbon(
                CarbonIntensity::from_g_per_kwh(454.0),
                CarbonRate::from_g_per_hour(1.479),
            )
    }

    #[test]
    fn runtime_charges_core_seconds() {
        let c = MethodKind::Runtime.charge(&ctx());
        assert!((c.value() - 8.0 * 5.2).abs() < 1e-9);
    }

    #[test]
    fn energy_charges_joules() {
        let c = MethodKind::Energy.charge(&ctx());
        assert!((c.value() - 18.3).abs() < 1e-9);
    }

    #[test]
    fn peak_scales_with_score() {
        let c = MethodKind::Peak.charge(&ctx());
        assert!((c.value() - 8.0 * 5.2 * 3200.0).abs() < 1e-6);
    }

    #[test]
    fn eba_is_equation_one() {
        // (18.3 + 5.2·65)/2 = 178.15
        let c = MethodKind::eba().charge(&ctx());
        assert!((c.value() - 178.15).abs() < 1e-9);
    }

    #[test]
    fn eba_beta_scales_potential_term() {
        let half = MethodKind::Eba { beta: 0.5 }.charge(&ctx());
        assert!((half.value() - (18.3 + 0.5 * 338.0) / 2.0).abs() < 1e-9);
        // β = 0 degenerates to Energy/2.
        let zero = MethodKind::Eba { beta: 0.0 }.charge(&ctx());
        assert!((zero.value() - 18.3 / 2.0).abs() < 1e-9);
    }

    #[test]
    fn cba_is_equation_two() {
        let c = MethodKind::Cba.charge(&ctx());
        let operational = 18.3 / 3.6e6 * 454.0;
        let embodied = 5.2 / 3600.0 * 1.479;
        assert!((c.value() - (operational + embodied)).abs() < 1e-9);
    }

    #[test]
    fn pue_inflates_energy_terms_only() {
        let base = ctx();
        let with_pue = {
            let mut c = base;
            c.pue = 1.5;
            c
        };
        assert!(
            MethodKind::Energy.charge(&with_pue).value() > MethodKind::Energy.charge(&base).value()
        );
        assert_eq!(
            MethodKind::Runtime.charge(&with_pue).value(),
            MethodKind::Runtime.charge(&base).value()
        );
    }

    #[test]
    fn trait_objects_match_kind_dispatch() {
        let c = ctx();
        for kind in MethodKind::ALL {
            let boxed = kind.build();
            assert_eq!(boxed.charge(&c), kind.charge(&c), "{kind}");
            assert_eq!(boxed.name(), kind.name());
        }
    }
}
