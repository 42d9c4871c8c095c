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
        let mut components = initial_components(data, k, seed);

        let n = data.len();
        // One row of k per sample: its log joint densities, which the E
        // step then turns into responsibilities in place.
        let mut resp = vec![0.0f64; n * k];
        let mut terms = LogTerms::default();
        let mut last_ll = f64::NEG_INFINITY;
        let mut iterations = 0;

        for iter in 0..max_iter {
            iterations = iter + 1;
            // E step: responsibilities via log-sum-exp.
            terms.update(&components);
            let mut ll = 0.0;
            for (x, r) in data.iter().zip(resp.chunks_exact_mut(k)) {
                terms.log_joint(&components, x, r);
                let (mx, sum) = max_and_sum_exp(r);
                let log_norm = mx + sum.ln();
                ll += log_norm;
                for ri in r.iter_mut() {
                    *ri = (*ri - log_norm).exp();
                }
            }
            ll /= n as f64;

            // M step.
            for (ci, comp) in components.iter_mut().enumerate() {
                let nk: f64 = resp.chunks_exact(k).map(|r| r[ci]).sum();
                if nk < 1e-9 {
                    continue; // dead component, leave as-is
                }
                comp.weight = nk / n as f64;
                for d in 0..dim {
                    let m = data
                        .iter()
                        .zip(resp.chunks_exact(k))
                        .map(|(x, r)| r[ci] * x[d])
                        .sum::<f64>()
                        / nk;
                    comp.mean[d] = m;
                    let v = data
                        .iter()
                        .zip(resp.chunks_exact(k))
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
        let mut logp = vec![0.0; self.components.len()];
        LogTerms::of(&self.components).log_joint(&self.components, x, &mut logp);
        let (mx, sum) = max_and_sum_exp(&logp);
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
        let terms = LogTerms::of(&self.components);
        let mut logp = vec![0.0; self.components.len()];
        let ll: f64 = data
            .iter()
            .map(|x| {
                terms.log_joint(&self.components, x, &mut logp);
                let (mx, sum) = max_and_sum_exp(&logp);
                mx + sum.ln()
            })
            .sum();
        params * n.ln() - 2.0 * ll
    }
}

/// The k-means++ seeded starting components: means drawn from `data`,
/// equal weights, and every component at the data's variance.
fn initial_components(data: &[Vec<f64>], k: usize, seed: u64) -> Vec<Component> {
    let mut rng = StdRng::seed_from_u64(seed);
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
    let global_var: Vec<f64> = (0..data[0].len())
        .map(|d| {
            let col: Vec<f64> = data.iter().map(|x| x[d]).collect();
            crate::stats::variance(&col).max(VAR_FLOOR)
        })
        .collect();
    means
        .into_iter()
        .map(|mean| Component {
            weight: 1.0 / k as f64,
            mean,
            var: global_var.clone(),
        })
        .collect()
}

/// Each component's ln(weight) and per-dimension ln(var): the terms of
/// its log joint density that do not depend on the point, computed once
/// per parameter update instead of once per point.
#[derive(Default)]
struct LogTerms {
    ln_weight: Vec<f64>,
    /// Component-major, one per dimension.
    ln_var: Vec<f64>,
}

impl LogTerms {
    fn of(components: &[Component]) -> LogTerms {
        let mut terms = LogTerms::default();
        terms.update(components);
        terms
    }

    fn update(&mut self, components: &[Component]) {
        self.ln_weight.clear();
        self.ln_weight
            .extend(components.iter().map(|c| c.weight.max(1e-300).ln()));
        self.ln_var.clear();
        self.ln_var
            .extend(components.iter().flat_map(|c| c.var.iter().map(|v| v.ln())));
    }

    /// Writes each component's ln(weight) + ln N(x; mean, diag(var)) to
    /// `out`, adding the per-dimension terms in dimension order.
    fn log_joint(&self, components: &[Component], x: &[f64], out: &mut [f64]) {
        let dim = components.first().map_or(0, |c| c.var.len());
        for (ci, (c, lp)) in components.iter().zip(out).enumerate() {
            let ln_var = &self.ln_var[ci * dim..(ci + 1) * dim];
            let mut acc = 0.0;
            for ((xi, mi), (vi, lv)) in x.iter().zip(&c.mean).zip(c.var.iter().zip(ln_var)) {
                let d = xi - mi;
                acc += -0.5 * (d * d / vi + lv + (2.0 * core::f64::consts::PI).ln());
            }
            *lp = self.ln_weight[ci] + acc;
        }
    }
}

/// The largest of `logp`, and the sum of each one's exp relative to it.
fn max_and_sum_exp(logp: &[f64]) -> (f64, f64) {
    let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let sum: f64 = logp.iter().map(|lp| (lp - mx).exp()).sum();
    (mx, sum)
}

fn sq_dist(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
}

fn gauss(rng: &mut StdRng) -> f64 {
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (2.0 * core::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The EM loop [`GaussianMixture::fit`] replaced: ln(weight) and
    /// every ln(var) recomputed for each point, and one responsibility
    /// vector per point. The oracle of `fit_matches_the_per_point_em`.
    fn fit_per_point(
        data: &[Vec<f64>],
        k: usize,
        seed: u64,
        max_iter: u32,
    ) -> Option<GaussianMixture> {
        if data.len() < k || k == 0 {
            return None;
        }
        let dim = data[0].len();
        let mut components = initial_components(data, k, seed);
        let n = data.len();
        let mut resp = vec![vec![0.0f64; k]; n];
        let mut last_ll = f64::NEG_INFINITY;
        let mut iterations = 0;
        for iter in 0..max_iter {
            iterations = iter + 1;
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
            for (ci, comp) in components.iter_mut().enumerate() {
                let nk: f64 = resp.iter().map(|r| r[ci]).sum();
                if nk < 1e-9 {
                    continue;
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

    fn log_gauss(x: &[f64], mean: &[f64], var: &[f64]) -> f64 {
        let mut acc = 0.0;
        for ((xi, mi), vi) in x.iter().zip(mean).zip(var) {
            let d = xi - mi;
            acc += -0.5 * (d * d / vi + vi.ln() + (2.0 * core::f64::consts::PI).ln());
        }
        acc
    }

    /// Every float of a fit as bits, with its iteration count.
    type FitBits = (Vec<(u64, Vec<u64>, Vec<u64>)>, u64, u32);

    fn fit_bits(g: &GaussianMixture) -> FitBits {
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let components = g
            .components
            .iter()
            .map(|c| (c.weight.to_bits(), bits(&c.mean), bits(&c.var)))
            .collect();
        (components, g.log_likelihood.to_bits(), g.iterations)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `fit` against the per-point EM, bit for bit over the whole
        /// struct, on 1–3-D data whose rows are snapped to a coarse grid
        /// or repeated (duplicate points), optionally with a constant
        /// first column, for k 1–4 and `max_iter` 1–300.
        #[test]
        fn fit_matches_the_per_point_em(
            rows in prop::collection::vec(
                ((-4.0f64..4.0, -4.0f64..4.0, -4.0f64..4.0), 1usize..4, 0u32..2),
                1..40,
            ),
            dim in 1usize..4,
            constant in 0u32..2,
            k in 1usize..5,
            max_iter in 1u32..301,
            seed in 0u64..1 << 32,
        ) {
            let mut data = Vec::new();
            for &((a, b, c), copies, snap) in &rows {
                let mut row = vec![a, b, c];
                row.truncate(dim);
                if snap == 1 {
                    row.iter_mut().for_each(|v| *v = v.round());
                }
                if constant == 1 {
                    row[0] = 2.5;
                }
                for _ in 0..copies {
                    data.push(row.clone());
                }
            }
            let fast = GaussianMixture::fit(&data, k, seed, max_iter);
            let oracle = fit_per_point(&data, k, seed, max_iter);
            prop_assert_eq!(
                fast.as_ref().map(fit_bits),
                oracle.as_ref().map(fit_bits),
                "k {} max_iter {} seed {} data {:?}",
                k,
                max_iter,
                seed,
                data
            );
        }
    }

    #[test]
    fn responsibilities_and_bic_match_the_per_point_terms() {
        let data = blobs(8, 300);
        let gmm = GaussianMixture::fit(&data, 3, 13, 100).unwrap();
        let log_joint = |x: &[f64]| -> Vec<f64> {
            gmm.components
                .iter()
                .map(|c| c.weight.max(1e-300).ln() + log_gauss(x, &c.mean, &c.var))
                .collect()
        };
        let mut ll = Vec::new();
        for x in &data {
            let logp = log_joint(x);
            let mx = logp.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
            let sum: f64 = logp.iter().map(|lp| (lp - mx).exp()).sum();
            let r: Vec<u64> = logp
                .iter()
                .map(|lp| ((lp - mx).exp() / sum).to_bits())
                .collect();
            let got: Vec<u64> = gmm
                .responsibilities(x)
                .iter()
                .map(|v| v.to_bits())
                .collect();
            assert_eq!(got, r);
            ll.push(mx + sum.ln());
        }
        let k = gmm.components.len() as f64;
        let params = k * (2.0 * gmm.dim() as f64 + 1.0) - 1.0;
        let bic = params * (data.len() as f64).ln() - 2.0 * ll.iter().sum::<f64>();
        assert_eq!(gmm.bic(&data).to_bits(), bic.to_bits());
    }

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
