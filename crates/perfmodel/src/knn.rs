//! Distance-weighted K-nearest-neighbour regression with multi-output
//! targets, stage two of the cross-machine pipeline.

/// A KNN regressor over z-score-normalized features.
#[derive(Debug, Clone, PartialEq)]
pub struct KnnRegressor {
    k: usize,
    feat_mean: Vec<f64>,
    feat_std: Vec<f64>,
    points: Vec<Vec<f64>>, // normalized
    targets: Vec<Vec<f64>>,
}

impl KnnRegressor {
    /// Fits (memorizes) the training set. `k` is clamped to the corpus
    /// size. Returns `None` on an empty corpus or ragged rows.
    pub fn fit(features: &[Vec<f64>], targets: &[Vec<f64>], k: usize) -> Option<Self> {
        if features.is_empty() || features.len() != targets.len() || k == 0 {
            return None;
        }
        let dim = features[0].len();
        let tdim = targets[0].len();
        if features.iter().any(|f| f.len() != dim) || targets.iter().any(|t| t.len() != tdim) {
            return None;
        }
        let n = features.len() as f64;
        let mut feat_mean = vec![0.0; dim];
        for f in features {
            for (m, x) in feat_mean.iter_mut().zip(f) {
                *m += x / n;
            }
        }
        let mut feat_std = vec![0.0; dim];
        for f in features {
            for ((s, x), m) in feat_std.iter_mut().zip(f).zip(&feat_mean) {
                *s += (x - m) * (x - m) / n;
            }
        }
        for s in &mut feat_std {
            *s = s.sqrt();
            if *s == 0.0 {
                *s = 1.0;
            }
        }
        let points = features
            .iter()
            .map(|f| {
                f.iter()
                    .zip(&feat_mean)
                    .zip(&feat_std)
                    .map(|((x, m), s)| (x - m) / s)
                    .collect()
            })
            .collect();
        Some(KnnRegressor {
            k: k.min(features.len()),
            feat_mean,
            feat_std,
            points,
            targets: targets.to_vec(),
        })
    }

    /// Number of memorized points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// True when the corpus is empty (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Inverse-distance-weighted prediction of the target vector at `x`.
    /// An exact feature match returns that row's target directly.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        let mut dist = self.distances(x);
        // The k nearest by partial selection: `nearer` is a strict total
        // order, so its first k are exactly the neighbours, in the same
        // order, that a stable sort by distance alone puts first.
        if self.k < dist.len() {
            dist.select_nth_unstable_by(self.k - 1, nearer);
            dist.truncate(self.k);
        }
        dist.sort_unstable_by(nearer);
        self.weigh(&dist)
    }

    /// Squared distance from `x` (normalized here) to every memorized
    /// point, tagged with the point's index.
    fn distances(&self, x: &[f64]) -> Vec<(f64, usize)> {
        let q: Vec<f64> = x
            .iter()
            .zip(&self.feat_mean)
            .zip(&self.feat_std)
            .map(|((v, m), s)| (v - m) / s)
            .collect();
        self.points
            .iter()
            .enumerate()
            .map(|(i, p)| {
                (
                    p.iter()
                        .zip(&q)
                        .map(|(a, b)| (a - b) * (a - b))
                        .sum::<f64>(),
                    i,
                )
            })
            .collect()
    }

    /// The inverse-distance-weighted mean of the `neighbours`' targets,
    /// nearest first; the nearest's target alone when it is an exact
    /// match.
    fn weigh(&self, neighbours: &[(f64, usize)]) -> Vec<f64> {
        if neighbours[0].0 < 1e-18 {
            return self.targets[neighbours[0].1].clone();
        }
        let tdim = self.targets[0].len();
        let mut out = vec![0.0; tdim];
        let mut wsum = 0.0;
        for &(d2, i) in neighbours {
            let w = 1.0 / d2.sqrt();
            wsum += w;
            for (o, t) in out.iter_mut().zip(&self.targets[i]) {
                *o += w * t;
            }
        }
        for o in &mut out {
            *o /= wsum;
        }
        out
    }

    /// [`predict`](KnnRegressor::predict) by a stable sort of every
    /// distance: the selection's oracle.
    #[cfg(test)]
    fn predict_by_full_sort(&self, x: &[f64]) -> Vec<f64> {
        let mut dist = self.distances(x);
        dist.sort_by(|a, b| a.0.total_cmp(&b.0));
        self.weigh(&dist[..self.k])
    }
}

/// Nearer first: by distance, then by index.
fn nearer(a: &(f64, usize), b: &(f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn grid_corpus() -> (Vec<Vec<f64>>, Vec<Vec<f64>>) {
        // y0 = x0 + x1, y1 = x0 * 2 over a grid.
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for i in 0..20 {
            for j in 0..20 {
                let (a, b) = (i as f64, j as f64);
                xs.push(vec![a, b]);
                ys.push(vec![a + b, 2.0 * a]);
            }
        }
        (xs, ys)
    }

    #[test]
    fn exact_match_returns_training_row() {
        let (xs, ys) = grid_corpus();
        let knn = KnnRegressor::fit(&xs, &ys, 5).unwrap();
        let y = knn.predict(&[3.0, 7.0]);
        assert_eq!(y, vec![10.0, 6.0]);
    }

    #[test]
    fn interpolates_between_neighbours() {
        let (xs, ys) = grid_corpus();
        let knn = KnnRegressor::fit(&xs, &ys, 4).unwrap();
        let y = knn.predict(&[3.5, 7.5]);
        assert!((y[0] - 11.0).abs() < 0.6, "{y:?}");
        assert!((y[1] - 7.0).abs() < 0.6);
    }

    #[test]
    fn prediction_within_target_hull() {
        let (xs, ys) = grid_corpus();
        let knn = KnnRegressor::fit(&xs, &ys, 8).unwrap();
        let y = knn.predict(&[100.0, 100.0]); // far outside
        let max_y0 = ys.iter().map(|t| t[0]).fold(f64::MIN, f64::max);
        assert!(y[0] <= max_y0 + 1e-9, "KNN cannot extrapolate beyond hull");
    }

    #[test]
    fn k_clamped_to_corpus() {
        let xs = vec![vec![0.0], vec![1.0]];
        let ys = vec![vec![0.0], vec![10.0]];
        let knn = KnnRegressor::fit(&xs, &ys, 50).unwrap();
        let y = knn.predict(&[0.5]);
        assert!((y[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn rejects_ragged_input() {
        let xs = vec![vec![0.0, 1.0], vec![1.0]];
        let ys = vec![vec![0.0], vec![1.0]];
        assert!(KnnRegressor::fit(&xs, &ys, 1).is_none());
        assert!(KnnRegressor::fit(&[], &[], 1).is_none());
    }

    #[test]
    fn constant_feature_does_not_nan() {
        let xs = vec![vec![1.0, 5.0], vec![2.0, 5.0], vec![3.0, 5.0]];
        let ys = vec![vec![1.0], vec![2.0], vec![3.0]];
        let knn = KnnRegressor::fit(&xs, &ys, 2).unwrap();
        let y = knn.predict(&[2.5, 5.0]);
        assert!(y[0].is_finite());
        assert!((y[0] - 2.5).abs() < 0.5);
    }

    /// `predict` and the full-sort oracle give the same bits at `x`.
    fn check_bits(knn: &KnnRegressor, x: &[f64]) {
        let bits = |v: Vec<f64>| v.into_iter().map(f64::to_bits).collect::<Vec<_>>();
        prop_assert_eq!(
            bits(knn.predict(x)),
            bits(knn.predict_by_full_sort(x)),
            "query {:?}",
            x
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(500))]

        /// Selection against the stable full sort over a corpus where
        /// distances tie exactly: features on a 5 × 5 grid, each row
        /// twice with its two targets swapped. Queries hit every
        /// training point (the exact-match return), midpoints between
        /// two of them, and points far outside the grid.
        #[test]
        fn selection_matches_the_full_sort(
            rows in prop::collection::vec((0u32..5, 0u32..5, -10.0f64..10.0, -10.0f64..10.0), 1..24),
            k in 1usize..12,
            pairs in prop::collection::vec((0usize..1 << 16, 0usize..1 << 16), 0..8),
            far in prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 0..4),
        ) {
            let (mut xs, mut ys) = (Vec::new(), Vec::new());
            for &(a, b, t0, t1) in &rows {
                for target in [vec![t0, t1], vec![t1, t0]] {
                    xs.push(vec![a as f64, b as f64]);
                    ys.push(target);
                }
            }
            let knn = KnnRegressor::fit(&xs, &ys, k).unwrap();
            for x in &xs {
                check_bits(&knn, x);
            }
            for &(i, j) in &pairs {
                let (a, b) = (&xs[i % xs.len()], &xs[j % xs.len()]);
                check_bits(&knn, &[(a[0] + b[0]) / 2.0, (a[1] + b[1]) / 2.0]);
            }
            for &(u, v) in &far {
                check_bits(&knn, &[1e3 * u, 1e3 * v]);
            }
        }
    }
}
