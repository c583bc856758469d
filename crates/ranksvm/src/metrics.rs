//! Ranking quality metrics beyond Kendall's τ.

use crate::dataset::{GroupId, RankingDataset};
use crate::kendall::tau_b;
use crate::model::{argsort_desc, LinearRanker};

/// Fraction of preference pairs `(better, worse)` on which the scores agree
/// (strictly). Returns 1 for an empty pair set.
pub fn pairwise_accuracy(scores: &[f64], pairs: &[(u32, u32)]) -> f64 {
    if pairs.is_empty() {
        return 1.0;
    }
    let correct = pairs.iter().filter(|&&(i, j)| scores[i as usize] > scores[j as usize]).count();
    correct as f64 / pairs.len() as f64
}

/// Relative regret of picking the top-scored candidate:
/// `target(argmax score) / min(target) - 1`, where targets are minimized
/// (runtimes). 0 means the model's first choice is truly optimal.
///
/// # Panics
/// Panics when the slices are empty or of different lengths.
pub fn top1_regret(scores: &[f64], targets: &[f64]) -> f64 {
    assert_eq!(scores.len(), targets.len());
    assert!(!scores.is_empty(), "top1_regret of empty candidate set");
    let top = argsort_desc(scores)[0];
    let best = targets.iter().copied().fold(f64::INFINITY, f64::min);
    if best <= 0.0 {
        return 0.0;
    }
    targets[top] / best - 1.0
}

/// Speedup of the top-scored candidate relative to a baseline target value:
/// `baseline / target(argmax score)`. This is the Fig. 4 metric.
pub fn top1_speedup(scores: &[f64], targets: &[f64], baseline: f64) -> f64 {
    assert_eq!(scores.len(), targets.len());
    assert!(!scores.is_empty());
    let top = argsort_desc(scores)[0];
    baseline / targets[top]
}

/// Kendall τ-b between the model's ranking and the measured ranking for
/// every group of the dataset — the per-instance series of the paper's
/// Fig. 6. Model scores rank descending, targets ascending, so the τ is
/// computed between scores and *negated* targets.
pub fn kendall_per_group(data: &RankingDataset, model: &LinearRanker) -> Vec<(GroupId, f64)> {
    data.group_ids()
        .into_iter()
        .map(|g| {
            let idx = data.group_indices(g);
            let scores: Vec<f64> = idx.iter().map(|&i| model.score(&data.row(i))).collect();
            let neg_targets: Vec<f64> = idx.iter().map(|&i| -data.target(i)).collect();
            (g, tau_b(&scores, &neg_targets))
        })
        .collect()
}

/// Rank (0-based) that the truly best candidate receives from the model.
/// 0 means the model puts the optimum first.
pub fn rank_of_best(scores: &[f64], targets: &[f64]) -> usize {
    assert_eq!(scores.len(), targets.len());
    assert!(!scores.is_empty());
    let mut best = 0usize;
    for i in 1..targets.len() {
        if targets[i] < targets[best] {
            best = i;
        }
    }
    argsort_desc(scores).iter().position(|&i| i == best).expect("best index present")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairwise_accuracy_counts_strict_wins() {
        let scores = [3.0, 2.0, 1.0];
        // Pairs: 0 better than 1, 1 better than 2, 2 better than 0 (wrong).
        let pairs = [(0u32, 1u32), (1, 2), (2, 0)];
        assert!((pairwise_accuracy(&scores, &pairs) - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!(pairwise_accuracy(&scores, &[]), 1.0);
    }

    #[test]
    fn equal_scores_do_not_count_as_correct() {
        let scores = [1.0, 1.0];
        assert_eq!(pairwise_accuracy(&scores, &[(0, 1)]), 0.0);
    }

    #[test]
    fn top1_regret_zero_when_best_chosen() {
        let scores = [0.1, 0.9, 0.5];
        let targets = [3.0, 1.0, 2.0];
        assert_eq!(top1_regret(&scores, &targets), 0.0);
    }

    #[test]
    fn top1_regret_positive_when_suboptimal() {
        let scores = [0.9, 0.1];
        let targets = [2.0, 1.0];
        assert!((top1_regret(&scores, &targets) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn top1_speedup_is_baseline_ratio() {
        let scores = [0.2, 0.8];
        let targets = [4.0, 2.0];
        assert!((top1_speedup(&scores, &targets, 3.0) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn rank_of_best_finds_position() {
        let scores = [0.5, 0.9, 0.1];
        let targets = [2.0, 3.0, 1.0]; // best target at index 2

        // Score order: 1, 0, 2 -> index 2 sits at rank 2.
        assert_eq!(rank_of_best(&scores, &targets), 2);
        let scores = [0.5, 0.9, 1.3];
        assert_eq!(rank_of_best(&scores, &targets), 0);
    }

    #[test]
    #[should_panic]
    fn empty_candidates_panic() {
        top1_regret(&[], &[]);
    }

    #[test]
    fn kendall_per_group_scores_each_group() {
        let mut ds = RankingDataset::new(1);
        // Group 0: model (w = [1]) ranks correctly (higher x = lower target).
        ds.push(&[1.0], 3.0, 0);
        ds.push(&[2.0], 2.0, 0);
        ds.push(&[3.0], 1.0, 0);
        // Group 1: model ranks exactly backwards.
        ds.push(&[1.0], 1.0, 1);
        ds.push(&[2.0], 2.0, 1);
        ds.push(&[3.0], 3.0, 1);
        let model = LinearRanker::from_weights(vec![1.0]);
        let taus = kendall_per_group(&ds, &model);
        assert_eq!(taus.len(), 2);
        assert_eq!(taus[0], (0, 1.0));
        assert_eq!(taus[1], (1, -1.0));
    }
}
