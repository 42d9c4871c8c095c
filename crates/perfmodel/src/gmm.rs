//! Diagonal-covariance Gaussian Mixture Model fit by EM.
//!
//! Stage one of the cross-machine pipeline: trained on per-job counter
//! vectors "collected on IC", then sampled to give every trace job a
//! realistic counter signature. Diagonal covariance keeps the model simple
//! and is what counter data (roughly independent after log-transform)
//! supports.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One mixture component: weight, per-dimension mean and variance.
#[derive(Debug, Clone, PartialEq)]
pub struct Component {
    /// Mixing proportion (sums to 1 across components).
    pub weight: f64,
    /// Per-dimension means.
    pub mean: Vec<f64>,
    /// Per-dimension variances (diagonal covariance).
    pub var: Vec<f64>,
}

/// A fitted mixture.
#[derive(Debug, Clone, PartialEq)]
pub struct GaussianMixture {
    /// Fitted components.
    pub components: Vec<Component>,
    /// Final mean log-likelihood per sample.
    pub log_likelihood: f64,
    /// EM iterations performed.
    pub iterations: u32,
}

/// Variance floor: keeps components from collapsing onto single points.
const VAR_FLOOR: f64 = 1e-9;

impl GaussianMixture {
    /// Fits `k` components to `data` (rows are samples) by EM with k-means++
    /// style seeding. Panics on inconsistent dimensions; returns `None` when
    /// there are fewer samples than components.
    pub fn fit(data: &[Vec<f64>], k: usize, seed: u64, max_iter: u32) -> Option<Self> {
        if data.len() < k || k == 0 {
            return None;
        }
        let dim = data[0].len();
        assert!(
            data.iter().all(|row| row.len() == dim),
            "inconsistent sample dimensionality"
        );
        let mut rng = StdRng::seed_from_u64(seed);

        // k-means++ seeding for the means.
        let mut means: Vec<Vec<f64>> = Vec::with_capacity(k);
        means.push(data[rng.gen_range(0..data.len())].clone());
        while means.len() < k {
            let d2: Vec<f64> = data
                .iter()
                .map(|x| means.iter().map(|m| sq_dist(x, m)).fold(f64::MAX, f64::min))
                .collect();
            let total: f64 = d2.iter().sum();
            if total <= 0.0 {
                // All points identical to chosen means: duplicate one.
                means.push(data[rng.gen_range(0..data.len())].clone());
                continue;
            }
            let mut draw = rng.gen_range(0.0..total);
            let mut chosen = data.len() - 1;
            for (i, w) in d2.iter().enumerate() {
                if draw < *w {
                    chosen = i;
                    break;
                }
                draw -= w;
            }
            means.push(data[chosen].clone());
        }

        // Initialize with global variance.
        let global_var: Vec<f64> = (0..dim)
            .map(|d| {
                let col: Vec<f64> = data.iter().map(|x| x[d]).collect();
                crate::stats::variance(&col).max(VAR_FLOOR)
            })
            .collect();
        let mut components: Vec<Component> = means
            .into_iter()
            .map(|mean| Component {
                weight: 1.0 / k as f64,
                mean,
                var: global_var.clone(),
            })
            .collect();

        let n = data.len();
        let mut resp = vec![vec![0.0f64; k]; n];
        let mut last_ll = f64::NEG_INFINITY;
        let mut iterations = 0;

        for iter in 0..max_iter {
            iterations = iter + 1;
            // E step: responsibilities via log-sum-exp.
            let mut ll = 0.0;
            for (x, r) in data.iter().zip(resp.iter_mut()) {
                let logp: Vec<f64> = components
                    .iter()
                    .map(|c| c.weight.max(1e-300).ln() + log_gauss(x, &c.mean, &c.var))
                    .collect();
                let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                let sum: f64 = logp.iter().map(|lp| (lp - mx).exp()).sum();
                let log_norm = mx + sum.ln();
                ll += log_norm;
                for (ri, lp) in r.iter_mut().zip(&logp) {
                    *ri = (lp - log_norm).exp();
                }
            }
            ll /= n as f64;

            // M step.
            for (ci, comp) in components.iter_mut().enumerate() {
                let nk: f64 = resp.iter().map(|r| r[ci]).sum();
                if nk < 1e-9 {
                    continue; // dead component, leave as-is
                }
                comp.weight = nk / n as f64;
                for d in 0..dim {
                    let m = data
                        .iter()
                        .zip(&resp)
                        .map(|(x, r)| r[ci] * x[d])
                        .sum::<f64>()
                        / nk;
                    comp.mean[d] = m;
                    let v = data
                        .iter()
                        .zip(&resp)
                        .map(|(x, r)| r[ci] * (x[d] - m) * (x[d] - m))
                        .sum::<f64>()
                        / nk;
                    comp.var[d] = v.max(VAR_FLOOR);
                }
            }

            if (ll - last_ll).abs() < 1e-8 {
                last_ll = ll;
                break;
            }
            last_ll = ll;
        }

        Some(GaussianMixture {
            components,
            log_likelihood: last_ll,
            iterations,
        })
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.components.first().map(|c| c.mean.len()).unwrap_or(0)
    }

    /// Per-component responsibilities for a point (sums to 1).
    pub fn responsibilities(&self, x: &[f64]) -> Vec<f64> {
        let logp: Vec<f64> = self
            .components
            .iter()
            .map(|c| c.weight.max(1e-300).ln() + log_gauss(x, &c.mean, &c.var))
            .collect();
        let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = logp.iter().map(|lp| (lp - mx).exp()).sum();
        logp.iter().map(|lp| (lp - mx).exp() / sum).collect()
    }

    /// Draws one sample.
    pub fn sample(&self, rng: &mut StdRng) -> Vec<f64> {
        let mut draw = rng.gen_range(0.0..1.0);
        let mut comp = &self.components[self.components.len() - 1];
        for c in &self.components {
            if draw < c.weight {
                comp = c;
                break;
            }
            draw -= c.weight;
        }
        comp.mean
            .iter()
            .zip(&comp.var)
            .map(|(m, v)| m + v.sqrt() * gauss(rng))
            .collect()
    }

    /// Bayesian information criterion on a dataset (lower is better).
    pub fn bic(&self, data: &[Vec<f64>]) -> f64 {
        let k = self.components.len() as f64;
        let d = self.dim() as f64;
        let params = k * (2.0 * d + 1.0) - 1.0;
        let n = data.len() as f64;
        let ll: f64 = data
            .iter()
            .map(|x| {
                let logp: Vec<f64> = self
                    .components
                    .iter()
                    .map(|c| c.weight.max(1e-300).ln() + log_gauss(x, &c.mean, &c.var))
                    .collect();
                let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                mx + logp.iter().map(|lp| (lp - mx).exp()).sum::<f64>().ln()
            })
            .sum();
        params * n.ln() - 2.0 * ll
    }
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn log_gauss(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
    let mut acc = 0.0;
    for ((xi, mi), vi) in x.iter().zip(mean).zip(var) {
        let d = xi - mi;
        acc += -0.5 * (d * d / vi + vi.ln() + (2.0 * core::f64::consts::PI).ln());
    }
    acc
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated blobs in 2D.
    fn blobs(seed: u64, n: usize) -> Vec<Vec<f64>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| {
                let (cx, cy) = if i % 2 == 0 { (0.0, 0.0) } else { (10.0, 5.0) };
                vec![cx + 0.5 * gauss(&mut rng), cy + 0.5 * gauss(&mut rng)]
            })
            .collect()
    }

    #[test]
    fn recovers_two_blobs() {
        let data = blobs(1, 600);
        let gmm = GaussianMixture::fit(&data, 2, 7, 200).unwrap();
        let mut means: Vec<(f64, f64)> = gmm
            .components
            .iter()
            .map(|c| (c.mean[0], c.mean[1]))
            .collect();
        means.sort_by(|a, b| a.0.total_cmp(&b.0));
        assert!(
            means[0].0.abs() < 0.3 && means[0].1.abs() < 0.3,
            "{means:?}"
        );
        assert!((means[1].0 - 10.0).abs() < 0.3 && (means[1].1 - 5.0).abs() < 0.3);
        for c in &gmm.components {
            assert!((c.weight - 0.5).abs() < 0.05);
        }
    }

    #[test]
    fn responsibilities_sum_to_one() {
        let data = blobs(2, 200);
        let gmm = GaussianMixture::fit(&data, 3, 9, 100).unwrap();
        for x in data.iter().take(50) {
            let r = gmm.responsibilities(x);
            assert!((r.iter().sum::<f64>() - 1.0).abs() < 1e-9);
            assert!(r.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn samples_resemble_training_distribution() {
        let data = blobs(3, 1000);
        let gmm = GaussianMixture::fit(&data, 2, 11, 200).unwrap();
        let mut rng = StdRng::seed_from_u64(99);
        let samples: Vec<Vec<f64>> = (0..1000).map(|_| gmm.sample(&mut rng)).collect();
        let train_mean_x = crate::stats::mean(&data.iter().map(|v| v[0]).collect::<Vec<_>>());
        let sample_mean_x = crate::stats::mean(&samples.iter().map(|v| v[0]).collect::<Vec<_>>());
        assert!((train_mean_x - sample_mean_x).abs() < 0.5);
    }

    #[test]
    fn bic_prefers_true_component_count() {
        let data = blobs(4, 800);
        let g1 = GaussianMixture::fit(&data, 1, 5, 200).unwrap();
        let g2 = GaussianMixture::fit(&data, 2, 5, 200).unwrap();
        assert!(g2.bic(&data) < g1.bic(&data), "2 blobs should beat 1");
    }

    #[test]
    fn deterministic_for_seed() {
        let data = blobs(5, 300);
        let a = GaussianMixture::fit(&data, 2, 42, 100).unwrap();
        let b = GaussianMixture::fit(&data, 2, 42, 100).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn rejects_more_components_than_samples() {
        let data = blobs(6, 3);
        assert!(GaussianMixture::fit(&data, 5, 1, 10).is_none());
    }
}
