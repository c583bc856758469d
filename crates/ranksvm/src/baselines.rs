//! Baseline learners for the Section IV comparison: the classification and
//! regression formulations the paper argues against.
//!
//! * [`RidgeRegression`] predicts the runtime directly (the "regression
//!   tuner"); its negated prediction is used as a ranking score.
//! * [`NearestCentroidClassifier`] mimics the "classification tuner": a
//!   fixed set of candidate classes (tuning configurations), with an unseen
//!   instance assigned the class of the most similar training instances.

use serde::{Deserialize, Serialize};

use crate::dataset::RankingDataset;
use crate::linalg::{xt_y, SymMatrix};

/// L2-regularized least squares on `(features, target)` rows.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RidgeRegression {
    w: Vec<f64>,
    /// Targets are optionally log-transformed before fitting (runtimes span
    /// orders of magnitude); predictions are transformed back.
    log_target: bool,
}

impl RidgeRegression {
    /// Fits on the samples of a ranking dataset, ignoring the group
    /// structure — which is precisely the information loss the paper's
    /// Section IV-A2 criticizes.
    ///
    /// Returns `None` when the regularized normal equations are singular.
    pub fn fit(data: &RankingDataset, ridge: f64, log_target: bool) -> Option<Self> {
        if data.is_empty() {
            return None;
        }
        let dim = data.dim();
        let rows: Vec<f64> = (0..data.len()).flat_map(|i| data.row(i)).collect();
        let y: Vec<f64> = data
            .targets()
            .iter()
            .map(|&t| if log_target { t.max(1e-12).ln() } else { t })
            .collect();
        let gram = SymMatrix::gram(&rows, dim, ridge.max(1e-12));
        let rhs = xt_y(&rows, dim, &y);
        let w = gram.cholesky()?.solve(&rhs);
        Some(RidgeRegression { w, log_target })
    }

    /// Predicted target (runtime) for a feature row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.w.len());
        let lin: f64 = self.w.iter().zip(x).map(|(a, b)| a * b).sum();
        if self.log_target {
            lin.exp()
        } else {
            lin
        }
    }

    /// Ranking score (higher = better): the negated predicted runtime.
    pub fn score(&self, x: &[f64]) -> f64 {
        -self.predict(x)
    }

    /// Fitted weights (in the possibly log-transformed target space).
    pub fn weights(&self) -> &[f64] {
        &self.w
    }
}

/// A nearest-centroid classifier over an explicit label set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NearestCentroidClassifier {
    centroids: Vec<Vec<f64>>, // one per class, indexed by label
    counts: Vec<usize>,
}

impl NearestCentroidClassifier {
    /// Fits centroids from `(row, label)` pairs with labels in
    /// `0..num_classes`. Classes with no samples keep a zero centroid and
    /// are never predicted.
    pub fn fit(rows: &[&[f64]], labels: &[usize], num_classes: usize) -> Self {
        assert_eq!(rows.len(), labels.len());
        let dim = rows.first().map_or(0, |r| r.len());
        let mut centroids = vec![vec![0.0; dim]; num_classes];
        let mut counts = vec![0usize; num_classes];
        for (row, &label) in rows.iter().zip(labels) {
            assert!(label < num_classes, "label {label} out of range");
            for (c, &v) in centroids[label].iter_mut().zip(*row) {
                *c += v;
            }
            counts[label] += 1;
        }
        for (c, &n) in centroids.iter_mut().zip(&counts) {
            if n > 0 {
                let inv = 1.0 / n as f64;
                for v in c.iter_mut() {
                    *v *= inv;
                }
            }
        }
        NearestCentroidClassifier { centroids, counts }
    }

    /// Number of classes (including empty ones).
    pub fn num_classes(&self) -> usize {
        self.centroids.len()
    }

    /// Predicts the label of `x` as the nearest non-empty centroid
    /// (Euclidean); `None` when no class has samples.
    pub fn predict(&self, x: &[f64]) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (label, (c, &n)) in self.centroids.iter().zip(&self.counts).enumerate() {
            if n == 0 {
                continue;
            }
            let d2: f64 = c.iter().zip(x).map(|(a, b)| (a - b) * (a - b)).sum();
            if best.is_none_or(|(_, bd)| d2 < bd) {
                best = Some((label, d2));
            }
        }
        best.map(|(label, _)| label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn linear_dataset() -> RankingDataset {
        // target = 3 x0 + 1 x1 (no noise).
        let mut ds = RankingDataset::new(2);
        let rows = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0), (2.0, 1.0)];
        for (g, (a, b)) in rows.iter().enumerate() {
            ds.push(&[*a, *b], 3.0 * a + b, g as u32);
        }
        ds
    }

    #[test]
    fn ridge_recovers_linear_target() {
        let ds = linear_dataset();
        let m = RidgeRegression::fit(&ds, 1e-9, false).unwrap();
        assert!((m.weights()[0] - 3.0).abs() < 1e-5);
        assert!((m.weights()[1] - 1.0).abs() < 1e-5);
        assert!((m.predict(&[2.0, 2.0]) - 8.0).abs() < 1e-4);
    }

    #[test]
    fn ridge_score_is_negated_prediction() {
        let ds = linear_dataset();
        let m = RidgeRegression::fit(&ds, 1e-9, false).unwrap();
        assert!((m.score(&[1.0, 1.0]) + m.predict(&[1.0, 1.0])).abs() < 1e-12);
    }

    #[test]
    fn ridge_log_target_handles_scales() {
        let mut ds = RankingDataset::new(1);
        for i in 1..=8 {
            ds.push(&[i as f64], (i as f64).exp2(), i);
        }
        let m = RidgeRegression::fit(&ds, 1e-9, true).unwrap();
        // log2 target is linear in the feature, so relative error stays small.
        let pred = m.predict(&[4.0]);
        assert!((pred - 16.0).abs() / 16.0 < 0.05, "pred {pred}");
    }

    #[test]
    fn ridge_on_empty_is_none() {
        assert!(RidgeRegression::fit(&RankingDataset::new(3), 0.1, false).is_none());
    }

    #[test]
    fn centroid_classifier_separates_clusters() {
        let rows: Vec<Vec<f64>> =
            vec![vec![0.0, 0.1], vec![0.1, 0.0], vec![1.0, 0.9], vec![0.9, 1.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let clf = NearestCentroidClassifier::fit(&refs, &[0, 0, 1, 1], 2);
        assert_eq!(clf.predict(&[0.05, 0.05]), Some(0));
        assert_eq!(clf.predict(&[0.95, 0.95]), Some(1));
    }

    #[test]
    fn empty_classes_are_never_predicted() {
        let rows: Vec<Vec<f64>> = vec![vec![0.0], vec![1.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        let clf = NearestCentroidClassifier::fit(&refs, &[2, 2], 4);
        assert_eq!(clf.num_classes(), 4);
        assert_eq!(clf.predict(&[0.5]), Some(2));
    }

    #[test]
    fn no_samples_no_prediction() {
        let clf = NearestCentroidClassifier::fit(&[], &[], 3);
        assert_eq!(clf.predict(&[1.0]), None);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_label_panics() {
        let rows: Vec<Vec<f64>> = vec![vec![0.0]];
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        NearestCentroidClassifier::fit(&refs, &[5], 2);
    }
}
