//! Model selection: group-aware k-fold cross-validation.
//!
//! Folds are split by *group* (stencil instance), never by sample — a
//! within-group split would leak the test instance's landscape into
//! training, inflating scores. Used by the C-sensitivity study and by
//! users porting the tuner to new machines.

use crate::dataset::RankingDataset;
use crate::train::{RankSvmTrainer, TrainConfig};

/// Mean per-group Kendall τ of a model on a dataset.
pub fn mean_group_tau(data: &RankingDataset, model: &crate::model::LinearRanker) -> f64 {
    let taus = crate::metrics::kendall_per_group(data, model);
    if taus.is_empty() {
        return 0.0;
    }
    taus.iter().map(|(_, t)| t).sum::<f64>() / taus.len() as f64
}

/// Splits the dataset into `k` group-disjoint folds (round-robin over the
/// group ids in first-appearance order).
pub fn group_folds(data: &RankingDataset, k: usize) -> Vec<(RankingDataset, RankingDataset)> {
    assert!(k >= 2, "need at least two folds");
    let groups = data.group_ids();
    let mut folds = Vec::with_capacity(k);
    for fold in 0..k {
        let mut train = RankingDataset::new(data.dim());
        let mut test = RankingDataset::new(data.dim());
        for i in 0..data.len() {
            let g = data.group(i);
            let gi = groups.iter().position(|&x| x == g).expect("group present");
            let dst = if gi % k == fold { &mut test } else { &mut train };
            dst.push(data.row(i), data.target(i), g);
        }
        folds.push((train, test));
    }
    folds
}

/// Cross-validated mean τ for one configuration.
pub fn cross_validate(data: &RankingDataset, config: TrainConfig, k: usize) -> f64 {
    let folds = group_folds(data, k);
    let mut total = 0.0;
    let mut n = 0usize;
    for (train, test) in &folds {
        if train.is_empty() || test.is_empty() {
            continue;
        }
        let (model, _) = RankSvmTrainer::new(config).train(train);
        total += mean_group_tau(test, &model);
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Picks the best `C` among `candidates` by `k`-fold cross-validation;
/// returns `(best_c, cv_scores)` aligned with `candidates`.
pub fn select_c(
    data: &RankingDataset,
    base: TrainConfig,
    candidates: &[f64],
    k: usize,
) -> (f64, Vec<f64>) {
    assert!(!candidates.is_empty(), "need candidate C values");
    let scores: Vec<f64> =
        candidates.iter().map(|&c| cross_validate(data, base.with_c(c), k)).collect();
    let mut best = 0usize;
    for i in 1..scores.len() {
        if scores[i] > scores[best] {
            best = i;
        }
    }
    (candidates[best], scores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn synthetic(groups: usize, per_group: usize, noise: f64, seed: u64) -> RankingDataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut ds = RankingDataset::new(4);
        for g in 0..groups {
            for _ in 0..per_group {
                let x: Vec<f64> = (0..4).map(|_| rng.random::<f64>()).collect();
                let y = -(x[0] * 2.0 - x[1]) + noise * rng.random::<f64>();
                ds.push(&x, y + g as f64 * 10.0, g as u32);
            }
        }
        ds
    }

    #[test]
    fn folds_are_group_disjoint_and_cover_everything() {
        let ds = synthetic(10, 6, 0.0, 1);
        let folds = group_folds(&ds, 3);
        assert_eq!(folds.len(), 3);
        let mut covered = 0usize;
        for (train, test) in &folds {
            assert_eq!(train.len() + test.len(), ds.len());
            covered += test.len();
            let train_groups: std::collections::HashSet<_> =
                train.group_ids().into_iter().collect();
            for g in test.group_ids() {
                assert!(!train_groups.contains(&g), "group {g} leaked");
            }
        }
        assert_eq!(covered, ds.len(), "every sample tested exactly once");
    }

    #[test]
    #[should_panic(expected = "at least two folds")]
    fn one_fold_is_rejected() {
        group_folds(&synthetic(4, 3, 0.0, 2), 1);
    }

    #[test]
    fn cross_validation_scores_learnable_data_highly() {
        let ds = synthetic(12, 10, 0.05, 3);
        let score = cross_validate(&ds, TrainConfig::default().with_c(1.0), 3);
        assert!(score > 0.7, "cv tau {score}");
    }

    #[test]
    fn cross_validation_scores_noise_near_zero() {
        // Targets independent of features: held-out tau must hover near 0.
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let mut ds = RankingDataset::new(3);
        for g in 0..10u32 {
            for _ in 0..8 {
                let x: Vec<f64> = (0..3).map(|_| rng.random::<f64>()).collect();
                ds.push(&x, rng.random::<f64>(), g);
            }
        }
        let score = cross_validate(&ds, TrainConfig::default(), 4);
        assert!(score.abs() < 0.35, "cv tau {score}");
    }

    #[test]
    fn select_c_returns_argmax_of_cv_scores() {
        // Note: one cannot assert that C = 1e-9 *loses* to C = 1 here. With
        // a Pegasos-style solver a tiny C shrinks the weight norm, not its
        // direction, and Kendall tau is scale-invariant — so on clean
        // near-linear data every candidate ranks almost perfectly. What
        // select_c does guarantee: scores align with the candidates, the
        // returned C is the argmax, and learnable data scores highly.
        let ds = synthetic(12, 10, 0.02, 5);
        let candidates = [1e-9, 1.0];
        let (best, scores) = select_c(&ds, TrainConfig::default(), &candidates, 3);
        assert_eq!(scores.len(), candidates.len());
        // First maximum under strict `>`, mirroring select_c's tie-breaking.
        let mut argmax = 0;
        for i in 1..scores.len() {
            if scores[i] > scores[argmax] {
                argmax = i;
            }
        }
        assert_eq!(best, candidates[argmax], "scores {scores:?}");
        assert!(scores.iter().all(|s| *s > 0.7), "scores {scores:?}");
    }

    #[test]
    fn mean_group_tau_of_perfect_model_is_one() {
        let ds = synthetic(5, 6, 0.0, 6);
        let perfect = crate::model::LinearRanker::from_weights(vec![2.0, -1.0, 0.0, 0.0]);
        assert!((mean_group_tau(&ds, &perfect) - 1.0).abs() < 1e-12);
    }
}
