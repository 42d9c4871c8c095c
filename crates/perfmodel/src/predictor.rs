//! The assembled two-stage cross-machine predictor.
//!
//! Training reproduces the paper's pipeline on synthetic hardware:
//!
//! 1. a **benchmark campaign** runs the seven reference applications (with
//!    input-size and co-location jitter) on the reference machine,
//!    producing per-job counter vectors;
//! 2. a **GMM** is fit to those vectors, so the trace generator can sample
//!    realistic counters for jobs that never reported any;
//! 3. a **KNN** is fit from counter vectors to per-machine
//!    `(runtime ratio, power per core)` labels, generated by the
//!    ground-truth behaviour model with per-app machine-interaction noise.

use green_machines::{AppId, FleetMachine};
use green_units::Power;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::gmm::GaussianMixture;
use crate::ground_truth::{compute_intensity, MachineBehavior};
use crate::knn::KnnRegressor;

/// A job's counter signature in log space (the GMM/KNN feature space).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobCounters {
    /// ln(instructions per second).
    pub log_ips: f64,
    /// ln(LLC misses per second).
    pub log_llc_mps: f64,
}

impl JobCounters {
    /// Builds from raw rates.
    pub fn from_rates(ips: f64, llc_mps: f64) -> Self {
        JobCounters {
            log_ips: ips.max(1.0).ln(),
            log_llc_mps: llc_mps.max(1.0).ln(),
        }
    }

    /// Instructions per second.
    pub fn ips(&self) -> f64 {
        self.log_ips.exp()
    }

    /// LLC misses per second.
    pub fn llc_mps(&self) -> f64 {
        self.log_llc_mps.exp()
    }

    /// The latent compute intensity the features expose.
    pub fn chi(&self) -> f64 {
        compute_intensity(self.ips(), self.llc_mps())
    }

    /// Feature vector for the models.
    pub fn features(&self) -> Vec<f64> {
        vec![self.log_ips, self.log_llc_mps]
    }
}

/// Predicted behaviour of a job on one machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachinePrediction {
    /// Wall-clock runtime relative to the reference machine (IC).
    pub runtime_ratio: f64,
    /// Average power per provisioned core while running.
    pub power_per_core: Power,
}

/// The trained two-stage predictor.
#[derive(Debug, Clone)]
pub struct CrossMachinePredictor {
    machines: Vec<MachineBehavior>,
    reference: usize,
    gmm: GaussianMixture,
    knn: KnnRegressor,
}

/// Campaign size: invocations of the benchmark suite during "training".
const CAMPAIGN_SAMPLES: usize = 1_400;

impl CrossMachinePredictor {
    /// Trains the pipeline for `machines`, with `reference` the index of
    /// the machine the trace was recorded on (IC in the paper).
    pub fn train(machines: Vec<MachineBehavior>, reference: usize, seed: u64) -> Self {
        assert!(reference < machines.len());
        let mut rng = StdRng::seed_from_u64(seed);
        let mut features = Vec::with_capacity(CAMPAIGN_SAMPLES);
        let mut targets = Vec::with_capacity(CAMPAIGN_SAMPLES);
        let apps = AppId::ALL;

        for i in 0..CAMPAIGN_SAMPLES {
            let app = apps[i % apps.len()];
            // Input-size and co-location jitter around the app archetype.
            let ips = app_base_ips(app) * lognormal(&mut rng, 0.35);
            let mpki = app.llc_mpki() * lognormal(&mut rng, 0.25);
            let llc_mps = ips * mpki / 1000.0;
            let counters = JobCounters::from_rates(ips, llc_mps);
            let chi = counters.chi();

            let ref_rt = machines[reference].runtime_factor(chi);
            let mut label = Vec::with_capacity(machines.len() * 2);
            for m in &machines {
                let interaction = lognormal(&mut rng, m.app_noise);
                label.push(m.runtime_factor(chi) / ref_rt * interaction);
                label.push(m.power_per_core(chi).as_watts() * lognormal(&mut rng, 0.05));
            }
            features.push(counters.features());
            targets.push(label);
        }

        let gmm = GaussianMixture::fit(&features, 3, seed ^ 0xA5A5, 300)
            .expect("campaign large enough for 3 components");
        let knn = KnnRegressor::fit(&features, &targets, 8).expect("non-empty corpus");
        CrossMachinePredictor {
            machines,
            reference,
            gmm,
            knn,
        }
    }

    /// Trains the pipeline for a fleet shaped like the Table 5 fleet,
    /// each machine behaving as [`MachineBehavior::for_spec`] of its node
    /// spec, with the Institutional Cluster (index 2) as the reference.
    pub fn for_fleet(fleet: &[FleetMachine], seed: u64) -> Self {
        let machines = fleet
            .iter()
            .map(|m| MachineBehavior::for_spec(&m.spec))
            .collect();
        CrossMachinePredictor::train(machines, 2, seed)
    }

    /// The machines the predictor covers, in label order.
    pub fn machines(&self) -> &[MachineBehavior] {
        &self.machines
    }

    /// Index of the reference machine.
    pub fn reference(&self) -> usize {
        self.reference
    }

    /// The fitted counter-distribution model.
    pub fn gmm(&self) -> &GaussianMixture {
        &self.gmm
    }

    /// Samples a realistic counter signature for a trace job (stage one).
    pub fn sample_counters(&self, rng: &mut StdRng) -> JobCounters {
        let v = self.gmm.sample(rng);
        JobCounters {
            log_ips: v[0],
            log_llc_mps: v[1],
        }
    }

    /// Predicts per-machine behaviour for a counter signature (stage two).
    /// Output order matches [`CrossMachinePredictor::machines`].
    pub fn predict(&self, counters: &JobCounters) -> Vec<MachinePrediction> {
        let raw = self.knn.predict(&counters.features());
        raw.chunks_exact(2)
            .map(|c| MachinePrediction {
                runtime_ratio: c[0].max(0.01),
                power_per_core: Power::from_watts(c[1].max(0.1)),
            })
            .collect()
    }
}

/// Reference-machine instructions/s for an app archetype (8-core
/// invocations on Cascade-Lake-class hardware).
fn app_base_ips(app: AppId) -> f64 {
    match app {
        AppId::Cholesky => 2.0e10,
        AppId::Md => 2.1e10,
        AppId::Pagerank => 1.1e10,
        AppId::MatMul => 2.4e10,
        AppId::DnaViz => 0.9e10,
        AppId::Bfs => 0.8e10,
        AppId::Mst => 0.75e10,
    }
}

fn lognormal(rng: &mut StdRng, sigma: f64) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let z = (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos();
    (sigma * z - sigma * sigma / 2.0).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use green_machines::simulation_fleet;

    fn trained() -> CrossMachinePredictor {
        CrossMachinePredictor::for_fleet(&simulation_fleet(), 42)
    }

    #[test]
    fn reference_machine_ratio_near_one() {
        let p = trained();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..50 {
            let c = p.sample_counters(&mut rng);
            let pred = p.predict(&c);
            let r = pred[2].runtime_ratio;
            assert!((r - 1.0).abs() < 0.25, "IC vs itself should be ≈1, got {r}");
        }
    }

    #[test]
    fn theta_predicted_slowest() {
        let p = trained();
        let mut rng = StdRng::seed_from_u64(2);
        let mut theta_slowest = 0;
        const N: usize = 100;
        for _ in 0..N {
            let c = p.sample_counters(&mut rng);
            let pred = p.predict(&c);
            let max_i = (0..4)
                .max_by(|&a, &b| pred[a].runtime_ratio.total_cmp(&pred[b].runtime_ratio))
                .unwrap();
            if max_i == 3 {
                theta_slowest += 1;
            }
        }
        assert!(theta_slowest > N * 9 / 10, "{theta_slowest}/{N}");
    }

    #[test]
    fn predictions_track_ground_truth() {
        let p = trained();
        let mut rng = StdRng::seed_from_u64(3);
        let machines = p.machines().to_vec();
        let mut rel_errors = Vec::new();
        for _ in 0..200 {
            let c = p.sample_counters(&mut rng);
            let chi = c.chi();
            let pred = p.predict(&c);
            let ref_rt = machines[2].runtime_factor(chi);
            for (m, pr) in machines.iter().zip(&pred) {
                let truth = m.runtime_factor(chi) / ref_rt;
                rel_errors.push((pr.runtime_ratio - truth).abs() / truth);
            }
        }
        let median = crate::stats::median(&rel_errors);
        assert!(median < 0.15, "median relative error {median:.3}");
    }

    #[test]
    fn sampled_counters_in_plausible_ranges() {
        let p = trained();
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..200 {
            let c = p.sample_counters(&mut rng);
            let ips = c.ips();
            assert!((1.0e8..1.0e12).contains(&ips), "ips={ips:e}");
            let chi = c.chi();
            assert!((0.0..=1.0).contains(&chi));
        }
    }

    #[test]
    fn deterministic_training() {
        let a = trained();
        let b = trained();
        let c = JobCounters::from_rates(2.0e9, 4.0e6);
        assert_eq!(a.predict(&c), b.predict(&c));
    }

    #[test]
    fn ic_highest_power_per_core() {
        let p = trained();
        let mut rng = StdRng::seed_from_u64(5);
        let mut wins = 0;
        for _ in 0..100 {
            let c = p.sample_counters(&mut rng);
            let pred = p.predict(&c);
            let max_i = (0..4)
                .max_by(|&a, &b| {
                    pred[a]
                        .power_per_core
                        .as_watts()
                        .total_cmp(&pred[b].power_per_core.as_watts())
                })
                .unwrap();
            if max_i == 2 {
                wins += 1;
            }
        }
        assert!(
            wins > 80,
            "IC (high-clock Cascade Lake) should draw the most per core: {wins}"
        );
    }
}
