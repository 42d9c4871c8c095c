//! Per-job carbon attribution: Equation (2) of the paper.
//!
//! The total carbon charge for a job `j` at facility `f` is
//!
//! ```text
//! c_j = e_j · I_f(t)  +  d_j · D_f(y) / (24 · 365)
//!       ^^^^^^^^^^^^     ^^^^^^^^^^^^^^^^^^^^^^^^^
//!       operational      embodied (depreciation rate × duration)
//! ```
//!
//! scaled by the share of the machine the job actually occupied.

use green_units::{CarbonIntensity, CarbonMass, CarbonRate, Energy, TimeSpan};

/// The two components of a job's attributed carbon footprint.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JobCarbonFootprint {
    /// Carbon emitted generating the electricity the job consumed.
    pub operational: CarbonMass,
    /// The slice of the machine's embodied carbon attributed to the job.
    pub embodied: CarbonMass,
}

impl JobCarbonFootprint {
    /// Total attributed carbon.
    pub fn total(&self) -> CarbonMass {
        self.operational + self.embodied
    }

    /// Fraction of the total that is direct (operational) emissions —
    /// the quantity Table 6 reports as 24–72 % across policies.
    pub fn operational_share(&self) -> f64 {
        let total = self.total().as_grams();
        if total == 0.0 {
            0.0
        } else {
            self.operational.as_grams() / total
        }
    }
}

impl core::ops::Add for JobCarbonFootprint {
    type Output = JobCarbonFootprint;
    fn add(self, rhs: Self) -> Self {
        JobCarbonFootprint {
            operational: self.operational + rhs.operational,
            embodied: self.embodied + rhs.embodied,
        }
    }
}

impl core::ops::AddAssign for JobCarbonFootprint {
    fn add_assign(&mut self, rhs: Self) {
        *self = *self + rhs;
    }
}

/// Attributes carbon to a job.
///
/// * `energy` — measured (attributed) energy of the job;
/// * `intensity` — grid carbon intensity over the job's execution window;
/// * `duration` — wall-clock duration of the job;
/// * `machine_rate` — the machine's embodied-carbon rate `D_f(y)/8760`
///   for its current age (whole machine / node);
/// * `share` — multiple of the rated machine provisioned to the job: a
///   fraction of one node for sub-node slices, above 1.0 for multi-node
///   jobs.
pub fn attribute_job(
    energy: Energy,
    intensity: CarbonIntensity,
    duration: TimeSpan,
    machine_rate: CarbonRate,
    share: f64,
) -> JobCarbonFootprint {
    debug_assert!(share >= 0.0, "share={share}");
    JobCarbonFootprint {
        operational: energy * intensity,
        embodied: (machine_rate * duration) * share,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equation_2_components() {
        // 1 kWh on a 389 g/kWh grid for 30 min on a 105.2 g/h machine,
        // holding the whole machine.
        let fp = attribute_job(
            Energy::from_kwh(1.0),
            CarbonIntensity::from_g_per_kwh(389.0),
            TimeSpan::from_mins(30.0),
            CarbonRate::from_g_per_hour(105.2),
            1.0,
        );
        assert!((fp.operational.as_grams() - 389.0).abs() < 1e-9);
        assert!((fp.embodied.as_grams() - 52.6).abs() < 1e-9);
        assert!((fp.total().as_grams() - 441.6).abs() < 1e-9);
    }

    #[test]
    fn share_scales_embodied_only() {
        let full = attribute_job(
            Energy::from_kwh(0.2),
            CarbonIntensity::from_g_per_kwh(100.0),
            TimeSpan::from_hours(1.0),
            CarbonRate::from_g_per_hour(50.0),
            1.0,
        );
        let half = attribute_job(
            Energy::from_kwh(0.2),
            CarbonIntensity::from_g_per_kwh(100.0),
            TimeSpan::from_hours(1.0),
            CarbonRate::from_g_per_hour(50.0),
            0.5,
        );
        assert_eq!(full.operational, half.operational);
        assert!((half.embodied.as_grams() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn operational_share_bounds() {
        let fp = JobCarbonFootprint {
            operational: CarbonMass::from_grams(30.0),
            embodied: CarbonMass::from_grams(70.0),
        };
        assert!((fp.operational_share() - 0.3).abs() < 1e-12);
        assert_eq!(JobCarbonFootprint::default().operational_share(), 0.0);
    }

    #[test]
    fn footprints_accumulate() {
        let mut acc = JobCarbonFootprint::default();
        for _ in 0..4 {
            acc += JobCarbonFootprint {
                operational: CarbonMass::from_grams(10.0),
                embodied: CarbonMass::from_grams(5.0),
            };
        }
        assert!((acc.total().as_grams() - 60.0).abs() < 1e-9);
    }
}
