//! The measured context an accounting method prices.

use green_units::{CarbonIntensity, CarbonRate, Energy, Power, TimeSpan};

/// Everything the five accounting methods need to price one job.
///
/// Platforms and simulators construct contexts; methods only read them.
/// For CPU jobs the provisioned resource is a core slice (TDP and share
/// from [`green_machines::NodeSpec`]); for GPU jobs it is whole devices.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChargeContext {
    /// Measured (attributed) task energy `e_j`.
    pub energy: Energy,
    /// Wall-clock duration `d_j`.
    pub duration: TimeSpan,
    /// Cores the job requested (basis of the Runtime/Peak baselines).
    pub cores: u32,
    /// TDP of the provisioned resource share `TDP_R` (Eq. 1's potential-use
    /// term).
    pub provisioned_tdp: Power,
    /// Fraction of the machine held by the job (scales the embodied-carbon
    /// term of Eq. 2).
    pub provisioned_share: f64,
    /// Machine peak-performance score per core (Peak baseline).
    pub peak_per_core: f64,
    /// Grid carbon intensity `I_f(t)` over the execution window.
    pub carbon_intensity: CarbonIntensity,
    /// The machine's embodied-carbon rate `D_f(y)/8760` (whole machine).
    pub carbon_rate: CarbonRate,
    /// Facility power-usage effectiveness multiplier applied to energy.
    pub pue: f64,
}

impl ChargeContext {
    /// A context with neutral defaults; override the fields the experiment
    /// cares about.
    pub fn new(energy: Energy, duration: TimeSpan) -> Self {
        ChargeContext {
            energy,
            duration,
            cores: 1,
            provisioned_tdp: Power::ZERO,
            provisioned_share: 1.0,
            peak_per_core: 1.0,
            carbon_intensity: CarbonIntensity::ZERO,
            carbon_rate: CarbonRate::ZERO,
            pue: 1.0,
        }
    }

    /// Sets requested cores.
    pub fn with_cores(mut self, cores: u32) -> Self {
        self.cores = cores;
        self
    }

    /// Sets the provisioned TDP and machine share.
    pub fn with_provisioned(mut self, tdp: Power, share: f64) -> Self {
        self.provisioned_tdp = tdp;
        self.provisioned_share = share;
        self
    }

    /// Sets the Peak baseline's per-core score.
    pub fn with_peak(mut self, peak_per_core: f64) -> Self {
        self.peak_per_core = peak_per_core;
        self
    }

    /// Sets the carbon terms of Eq. 2.
    pub fn with_carbon(mut self, intensity: CarbonIntensity, rate: CarbonRate) -> Self {
        self.carbon_intensity = intensity;
        self.carbon_rate = rate;
        self
    }

    /// Sets the facility PUE.
    pub fn with_pue(mut self, pue: f64) -> Self {
        self.pue = pue;
        self
    }

    /// Facility-level energy: measured IT energy times PUE.
    pub fn facility_energy(&self) -> Energy {
        self.energy * self.pue
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_sets_fields() {
        let ctx = ChargeContext::new(Energy::from_joules(100.0), TimeSpan::from_secs(10.0))
            .with_cores(8)
            .with_provisioned(Power::from_watts(65.0), 0.25)
            .with_peak(2500.0)
            .with_carbon(
                CarbonIntensity::from_g_per_kwh(454.0),
                CarbonRate::from_g_per_hour(12.2),
            )
            .with_pue(1.3);
        assert_eq!(ctx.cores, 8);
        assert!((ctx.provisioned_share - 0.25).abs() < 1e-12);
        assert!((ctx.facility_energy().as_joules() - 130.0).abs() < 1e-9);
    }
}
