//! The software power model: `power ≈ intercept + w · features`.
//!
//! The monitor fits this model online between aggregated per-process
//! counters and measured (dynamic) node power, then uses it to split node
//! energy across tasks — the SmartWatts/green-ACCESS approach.

use green_units::Power;

use crate::linalg::ridge_regression;

/// A fitted linear power model over the counter features `[ips, llc/s]`.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerModel {
    /// Static/uncaptured dynamic power (W).
    pub intercept: f64,
    /// Weights for `[instructions/s, llc misses/s]` (W per unit rate).
    pub weights: [f64; 2],
}

impl PowerModel {
    /// A power model that attributes nothing (used before the first fit;
    /// the disaggregator then falls back to per-core shares).
    pub fn uninformed() -> Self {
        PowerModel {
            intercept: 0.0,
            weights: [0.0; 2],
        }
    }

    /// True once any weight is non-zero.
    pub fn is_informed(&self) -> bool {
        self.weights.iter().any(|w| *w != 0.0)
    }

    /// Predicted dynamic power for a feature vector, clamped non-negative.
    pub fn predict(&self, features: [f64; 2]) -> Power {
        let p = self.intercept + self.weights[0] * features[0] + self.weights[1] * features[1];
        Power::from_watts(p.max(0.0))
    }
}

/// Accumulates `(features, dynamic power)` observations and fits the model
/// by ridge regression over a sliding window.
#[derive(Debug, Clone)]
pub struct PowerModelFitter {
    window: usize,
    lambda: f64,
    rows: Vec<Vec<f64>>,
    targets: Vec<f64>,
}

impl PowerModelFitter {
    /// `window`: number of most-recent observations kept; `lambda`: ridge
    /// regularization strength (scaled by feature magnitude internally).
    pub fn new(window: usize, lambda: f64) -> Self {
        assert!(window >= 8, "window too small to fit 3 parameters");
        PowerModelFitter {
            window,
            lambda,
            rows: Vec::new(),
            targets: Vec::new(),
        }
    }

    /// Number of buffered observations.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when no observations are buffered.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Adds one observation of node-aggregate features and measured dynamic
    /// power.
    pub fn observe(&mut self, features: [f64; 2], dynamic_power: Power) {
        if self.rows.len() == self.window {
            self.rows.remove(0);
            self.targets.remove(0);
        }
        self.rows.push(vec![1.0, features[0], features[1]]);
        self.targets.push(dynamic_power.as_watts());
    }

    /// Fits the model. Returns `None` until enough well-conditioned
    /// observations are buffered.
    ///
    /// Features are standardized before the solve so the ridge penalty is
    /// scale-free; coefficients are mapped back to raw units.
    pub fn fit(&self) -> Option<PowerModel> {
        if self.rows.len() < 8 {
            return None;
        }
        let n = self.rows.len() as f64;
        // Column scales (skip the intercept column).
        let mut scale = [1.0f64; 2];
        for j in 0..2 {
            let rms = (self.rows.iter().map(|r| r[j + 1] * r[j + 1]).sum::<f64>() / n).sqrt();
            scale[j] = if rms > 0.0 { rms } else { 1.0 };
        }
        let rows: Vec<Vec<f64>> = self
            .rows
            .iter()
            .map(|r| vec![r[0], r[1] / scale[0], r[2] / scale[1]])
            .collect();
        let w = ridge_regression(&rows, &self.targets, self.lambda)?;
        Some(PowerModel {
            intercept: w[0],
            weights: [w[1] / scale[0], w[2] / scale[1]],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn synth_fitter(noise: f64) -> PowerModelFitter {
        // power = 5 + 8e-9 * ips + 2e-6 * llc
        let mut f = PowerModelFitter::new(256, 1e-6);
        let mut state = 1234567u64;
        let mut next = || {
            // xorshift for deterministic pseudo-noise
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state % 10_000) as f64 / 10_000.0 - 0.5
        };
        for i in 0..200 {
            let ips = 1.0e9 + 3.0e9 * ((i % 17) as f64 / 17.0);
            let llc = 1.0e6 + 9.0e6 * ((i % 11) as f64 / 11.0);
            let p = 5.0 + 8.0e-9 * ips + 2.0e-6 * llc + noise * next();
            f.observe([ips, llc], Power::from_watts(p));
        }
        f
    }

    #[test]
    fn recovers_exact_model() {
        let model = synth_fitter(0.0).fit().unwrap();
        assert!((model.intercept - 5.0).abs() < 1e-3, "{model:?}");
        assert!((model.weights[0] - 8.0e-9).abs() < 1e-12);
        assert!((model.weights[1] - 2.0e-6).abs() < 1e-9);
    }

    #[test]
    fn robust_to_noise() {
        let model = synth_fitter(0.5).fit().unwrap();
        let pred = model.predict([2.0e9, 5.0e6]);
        let truth = 5.0 + 8.0e-9 * 2.0e9 + 2.0e-6 * 5.0e6;
        assert!((pred.as_watts() - truth).abs() / truth < 0.05);
    }

    #[test]
    fn refuses_underdetermined_fit() {
        let mut f = PowerModelFitter::new(16, 1e-6);
        for _ in 0..5 {
            f.observe([1.0e9, 1.0e6], Power::from_watts(20.0));
        }
        assert!(f.fit().is_none());
    }

    #[test]
    fn window_evicts_old_observations() {
        let mut f = PowerModelFitter::new(8, 1e-6);
        for i in 0..32 {
            f.observe([i as f64, 1.0], Power::from_watts(1.0));
        }
        assert_eq!(f.len(), 8);
    }

    #[test]
    fn prediction_clamped_non_negative() {
        let m = PowerModel {
            intercept: -50.0,
            weights: [0.0, 0.0],
        };
        assert_eq!(m.predict([1.0, 1.0]).as_watts(), 0.0);
        assert!(!PowerModel::uninformed().is_informed());
    }
}
