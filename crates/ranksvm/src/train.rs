//! Ranking SVM training.
//!
//! The trainer minimizes the SVM-rank objective over within-group preference
//! pairs with averaged stochastic subgradient descent (Pegasos-style):
//!
//! ```text
//!   J(w) = 1/2 ||w||^2 + C * sum_{(i,j) in P} max(0, 1 - w . (x_i - x_j))
//! ```
//!
//! Dividing by `C m` gives the Pegasos form `lambda/2 ||w||^2 + mean hinge`
//! with `lambda = 1 / (C m)`. Steps follow `eta_t = 1 / (lambda (t + t0))`
//! with an offset `t0` that bounds the first step, followed by the optional
//! Pegasos projection onto the `1/sqrt(lambda)` ball. Iterate averaging over
//! the second half of training gives the stability of the cutting-plane
//! solver the paper uses (Joachims' SVM-rank) at a fraction of the code.
//!
//! # Training on the columns that vary
//!
//! Pairs compare rows of one group only, so a column whose value is the
//! same on every row of a group is exactly zero in every pair difference;
//! under either stencil encoding the whole instance prefix is made of such
//! columns. [`RankingDataset`] stores the leading ones, when finite, once
//! per group, and each row's other columns, its tail, contiguously. Once per
//! dataset the trainer finds the smallest range of tail columns outside
//! which every difference `x_i[k] - x_j[k]` of two rows in one group is
//! exactly zero. It tests the difference itself, so a NaN or an infinity
//! varies. Both solvers and the evaluation run on sub-slices of the stored
//! tails, and the solved weights are written into a zero vector of full
//! width.
//!
//! The result has the bits training on full rows would give. A weight
//! outside the range starts at +0.0, and every update scales it by a
//! positive factor and adds a finite step times a signed zero, so it stays
//! +0.0 (the dual solver skips a pair whose squared difference is not
//! finite). Every skipped term of a margin, gradient, curvature or norm
//! sum is therefore a signed zero. Each of those sums runs in column order
//! from 0.0 or -1.0, so it is never -0.0, and adding a signed zero to it
//! changes no bit.
//!
//! # The projection's norm on demand
//!
//! After every step the SGD solver compares `||w||^2` with `radius^2`, and
//! on the paper's training sets the projection never fires. So the solver
//! keeps `ub`, an upper bound on `||w||`, and sums the norm only when the
//! bound cannot rule the projection out. A step maps `w` to
//! `s w + eta (x_i - x_j)` or to `s w`, so by the triangle inequality it
//! maps the bound to `(|s| ub + eta (||x_i|| + ||x_j||)) (1 + d)` or to
//! `|s| ub (1 + d)`, with each row's norm summed once per fit. The norm is
//! summed when `ub^2 (1 + d) <= radius^2` fails, as it does for a NaN
//! bound, and `ub` restarts from it, or from `radius` after a projection.
//!
//! Skipping the sum changes no bit. Over `n` columns, the roundings the
//! argument meets, in a step, in an `n`-term norm sum and in the bound's
//! own arithmetic, add up to a relative error below `gamma_n + 12 u`, where
//! `u = 2^-53` and `gamma_n = n u / (1 - n u)` (about 2e-14 for the paper's
//! 187 columns). The slack `d = max(1e-12, 2 n u)` exceeds that, so `ub`
//! never falls below the norm of the rounded `w`, and a bound that passes
//! the test proves that the summed norm is at most `radius^2`, where the
//! projection does not fire. The margin, the update, the shrink, the
//! projection's scale and the average keep their arithmetic and order. The
//! test is made only while `radius^2` exceeds `f64::MIN_POSITIVE /
//! f64::EPSILON` (about 1e-292), where the absolute errors of gradual
//! underflow stay far below `d radius^2`.

use std::collections::HashMap;
use std::ops::Range;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};

use crate::dataset::RankingDataset;
use crate::model::LinearRanker;

/// Which optimizer fits the pairwise objective.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Solver {
    /// Averaged stochastic subgradient descent (Pegasos-style): fast,
    /// approximate, the default for the experiments.
    Sgd,
    /// Dual coordinate descent on the box-constrained dual: converges to
    /// the exact minimizer; used as the reference solver in tests and the
    /// solver ablation (this is the family of solvers Joachims' tools
    /// belong to).
    DualCoordinateDescent,
}

/// Hyper-parameters of the trainer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// SVM trade-off constant.
    ///
    /// The paper trains Joachims' `svm_rank` with `C = 0.01`; that solver
    /// scales `C` internally by the number of rankings, so the value is not
    /// directly portable. For this Pegasos-style solver (regularization
    /// `lambda = 1 / (C m)`) the equivalent trade-off — calibrated so a
    /// 960-sample training set reaches the paper's reported quality — is
    /// `C = 1.0`, the default. The C-sensitivity ablation bench sweeps it.
    pub c: f64,
    /// Maximum number of passes over the pair set.
    pub epochs: u32,
    /// Cap on total SGD updates; large pair sets reduce the effective epoch
    /// count so training time stays within Table II's regime. `None`
    /// disables the cap.
    pub max_updates: Option<u64>,
    /// RNG seed for pair shuffling (training is deterministic given a seed).
    pub seed: u64,
    /// Relative tie tolerance when generating pairs.
    pub tie_eps: f64,
    /// Average iterates over the second half of training.
    pub average: bool,
    /// Project onto the Pegasos ball after each step.
    pub project: bool,
    /// The optimizer.
    pub solver: Solver,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            c: 1.0,
            epochs: 20,
            max_updates: Some(3_000_000),
            seed: 0x5053_5652, // "RVSP"
            tie_eps: 1e-4,
            average: true,
            project: true,
            solver: Solver::Sgd,
        }
    }
}

impl TrainConfig {
    /// The configuration reproducing the paper's setup (linear kernel; see
    /// [`TrainConfig::c`] for the `C = 0.01` calibration note).
    pub fn paper() -> Self {
        TrainConfig::default()
    }

    /// Same configuration with a different `C` (used by the sensitivity
    /// study).
    pub fn with_c(mut self, c: f64) -> Self {
        self.c = c;
        self
    }

    /// Same configuration with a different seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Same configuration with a different epoch count.
    pub fn with_epochs(mut self, epochs: u32) -> Self {
        self.epochs = epochs;
        self
    }

    /// Same configuration with a different solver.
    pub fn with_solver(mut self, solver: Solver) -> Self {
        self.solver = solver;
        self
    }
}

/// Summary statistics of a training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainReport {
    /// Number of training samples.
    pub samples: usize,
    /// Number of preference pairs (`m' = |union of P_i|`, Eq. 3).
    pub pairs: usize,
    /// Epochs performed.
    pub epochs: u32,
    /// Final objective value `J(w)`.
    pub objective: f64,
    /// Fraction of pairs ranked correctly by the final model.
    pub train_pair_accuracy: f64,
    /// Wall-clock training time in seconds.
    pub train_seconds: f64,
}

/// Trains [`LinearRanker`] models on [`RankingDataset`]s.
///
/// ```
/// use ranksvm::{RankSvmTrainer, RankingDataset, TrainConfig};
///
/// // Two groups; within each, higher x[0] means faster (lower target).
/// let mut data = RankingDataset::new(1);
/// data.push(&[0.9], 1.0, 0);
/// data.push(&[0.1], 2.0, 0);
/// data.push(&[0.8], 5.0, 1);
/// data.push(&[0.2], 9.0, 1);
///
/// let (model, report) = RankSvmTrainer::new(TrainConfig::default()).train(&data);
/// assert_eq!(report.pairs, 2); // only within-group pairs
/// assert!(model.score(&[0.9]) > model.score(&[0.1]));
/// ```
#[derive(Debug, Clone, Default)]
pub struct RankSvmTrainer {
    config: TrainConfig,
}

impl RankSvmTrainer {
    /// Creates a trainer with the given configuration.
    pub fn new(config: TrainConfig) -> Self {
        RankSvmTrainer { config }
    }

    /// The active configuration.
    pub fn config(&self) -> &TrainConfig {
        &self.config
    }

    /// Trains a model, returning it with a [`TrainReport`].
    ///
    /// An empty dataset or a dataset without any comparable pair yields the
    /// zero model (which ranks arbitrarily but deterministically).
    pub fn train(&self, data: &RankingDataset) -> (LinearRanker, TrainReport) {
        let start = std::time::Instant::now();
        let mut pairs = data.pairs(self.config.tie_eps);
        let m = pairs.len();
        if m == 0 {
            let report = TrainReport {
                samples: data.len(),
                pairs: 0,
                epochs: 0,
                objective: 0.0,
                train_pair_accuracy: 1.0,
                train_seconds: start.elapsed().as_secs_f64(),
            };
            return (LinearRanker::zeros(data.dim()), report);
        }

        let epochs = match self.config.max_updates {
            Some(cap) => {
                let fit = (cap / m as u64).max(1).min(self.config.epochs as u64);
                fit as u32
            }
            None => self.config.epochs,
        };
        let rows = VaryingColumns::of(data);
        let w = match self.config.solver {
            Solver::Sgd => self.solve_sgd(&rows, &mut pairs, epochs),
            Solver::DualCoordinateDescent => self.solve_dcd(&rows, &mut pairs, epochs),
        };
        let (objective, acc) = self.evaluate(&w, &rows, &pairs);
        let mut weights = vec![0.0; data.dim()];
        weights[data.shared_columns()..][rows.cols].copy_from_slice(&w);
        let report = TrainReport {
            samples: data.len(),
            pairs: m,
            epochs,
            objective,
            train_pair_accuracy: acc,
            train_seconds: start.elapsed().as_secs_f64(),
        };
        (LinearRanker::from_weights(weights), report)
    }

    /// Averaged projected stochastic subgradient descent (Pegasos).
    fn solve_sgd(&self, rows: &VaryingColumns, pairs: &mut [(u32, u32)], epochs: u32) -> Vec<f64> {
        let m = pairs.len();
        let mut w = vec![0.0f64; rows.cols.len()];
        let lambda = 1.0 / (self.config.c * m as f64);
        let radius = 1.0 / lambda.sqrt();
        let r2 = radius * radius;
        // First step size ~0.5 regardless of lambda.
        let t0 = 2.0 / lambda;
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut avg = vec![0.0f64; w.len()];
        let mut avg_count = 0u64;
        let total_steps = epochs as u64 * m as u64;
        let avg_start = if self.config.average { total_steps / 2 } else { total_steps };
        // An upper bound on ||w||, its slack per step, and the row norms
        // that bound each pair difference (see the module docs).
        let mut ub = 0.0f64;
        let slack = 1e-12f64.max(w.len() as f64 * f64::EPSILON);
        let use_bound = r2 > f64::MIN_POSITIVE / f64::EPSILON;
        let norms: Vec<f64> =
            (0..rows.data.len()).map(|i| squared_norm(rows.row(i as u32)).sqrt()).collect();

        let mut t = 0u64;
        for _ in 0..epochs {
            pairs.shuffle(&mut rng);
            for &(i, j) in pairs.iter() {
                t += 1;
                let eta = 1.0 / (lambda * (t as f64 + t0));
                let (xi, xj) = (rows.row(i), rows.row(j));
                let margin = margin_from(0.0, &w, xi, xj);
                // w <- (1 - eta lambda) w [+ eta (x_i - x_j) if margin < 1];
                // `reach` bounds the norm of what is added.
                let shrink = 1.0 - eta * lambda;
                let reach = if margin < 1.0 {
                    for ((v, a), b) in w.iter_mut().zip(xi).zip(xj) {
                        *v = shrink * *v + eta * (a - b);
                    }
                    norms[i as usize] + norms[j as usize]
                } else {
                    for v in w.iter_mut() {
                        *v *= shrink;
                    }
                    0.0
                };
                ub = (shrink.abs() * ub + eta * reach) * (1.0 + slack);
                if self.config.project && !(use_bound && ub * ub * (1.0 + slack) <= r2) {
                    let norm2 = squared_norm(&w);
                    ub = norm2.sqrt();
                    if norm2 > r2 {
                        let scale = radius / norm2.sqrt();
                        for v in w.iter_mut() {
                            *v *= scale;
                        }
                        ub = radius;
                    }
                }
                if t > avg_start {
                    for (a, &v) in avg.iter_mut().zip(&w) {
                        *a += v;
                    }
                    avg_count += 1;
                }
            }
        }
        if self.config.average && avg_count > 0 {
            let inv = 1.0 / avg_count as f64;
            return avg.iter().map(|v| v * inv).collect();
        }
        w
    }

    /// Dual coordinate descent on
    /// `max_alpha  sum(alpha) - 1/2 || sum alpha_k d_k ||^2, 0 <= alpha <= C`
    /// where `d_k = x_i - x_j` for pair `k = (i, j)`. Maintains
    /// `w = sum alpha_k d_k`, so each coordinate update is O(dim). This is
    /// the exact solver of the primal objective in the crate docs.
    fn solve_dcd(&self, rows: &VaryingColumns, pairs: &mut [(u32, u32)], epochs: u32) -> Vec<f64> {
        let m = pairs.len();
        let mut rng = ChaCha8Rng::seed_from_u64(self.config.seed);
        let mut w = vec![0.0f64; rows.cols.len()];
        let mut alpha = vec![0.0f64; m];
        // Squared norms of the pair differences (the coordinate curvatures).
        let q: Vec<f64> = pairs
            .iter()
            .map(|&(i, j)| {
                let (xi, xj) = (rows.row(i), rows.row(j));
                xi.iter().zip(xj).fold(0.0, |s, (a, b)| s + (a - b) * (a - b))
            })
            .collect();
        let mut order: Vec<usize> = (0..m).collect();
        for _ in 0..epochs {
            order.shuffle(&mut rng);
            let mut max_delta = 0.0f64;
            for &k in &order {
                // Identical feature rows carry no information; a difference
                // that is not finite would make every weight NaN.
                if !(q[k] > 1e-30 && q[k].is_finite()) {
                    continue;
                }
                let (i, j) = pairs[k];
                let (xi, xj) = (rows.row(i), rows.row(j));
                // Gradient of the dual coordinate.
                let g = margin_from(-1.0, &w, xi, xj);
                let new_alpha = (alpha[k] - g / q[k]).clamp(0.0, self.config.c);
                let delta = new_alpha - alpha[k];
                if delta != 0.0 {
                    for ((v, a), b) in w.iter_mut().zip(xi).zip(xj) {
                        *v += delta * (a - b);
                    }
                    alpha[k] = new_alpha;
                    max_delta = max_delta.max(delta.abs());
                }
            }
            if max_delta < 1e-8 * self.config.c {
                break; // converged
            }
        }
        w
    }

    /// Objective value and pairwise accuracy of the weights `w` on `pairs`.
    fn evaluate(&self, w: &[f64], rows: &VaryingColumns, pairs: &[(u32, u32)]) -> (f64, f64) {
        let mut hinge_sum = 0.0;
        let mut correct = 0usize;
        for &(i, j) in pairs {
            let margin = margin_from(0.0, w, rows.row(i), rows.row(j));
            hinge_sum += (1.0 - margin).max(0.0);
            if margin > 0.0 {
                correct += 1;
            }
        }
        let reg = 0.5 * squared_norm(w);
        let acc = if pairs.is_empty() { 1.0 } else { correct as f64 / pairs.len() as f64 };
        (reg + self.config.c * hinge_sum, acc)
    }
}

/// A dataset's rows cut to the columns that can differ within a group.
struct VaryingColumns<'a> {
    data: &'a RankingDataset,
    /// The smallest range of tail columns outside which every difference
    /// of two rows of one group is exactly zero.
    cols: Range<usize>,
}

impl<'a> VaryingColumns<'a> {
    /// Finds the range by subtracting each row's tail from its group's
    /// first row's: the difference itself is tested, so NaN and infinities
    /// vary. A shared column never varies, as it is finite and the same.
    fn of(data: &'a RankingDataset) -> Self {
        let mut first = HashMap::new();
        let width = data.dim() - data.shared_columns();
        let (mut lo, mut hi) = (width, 0);
        for i in 0..data.len() {
            let head = *first.entry(data.group(i)).or_insert(i);
            let (x, x0) = (data.tail(i), data.tail(head));
            let varies = |k: &usize| head != i && x[*k] - x0[*k] != 0.0;
            lo = (0..lo).find(varies).unwrap_or(lo);
            hi = (hi..width).rfind(varies).map_or(hi, |k| k + 1);
        }
        VaryingColumns { data, cols: lo.min(hi)..hi }
    }

    /// Row `i`, restricted to the range: a slice of its stored tail.
    fn row(&self, i: u32) -> &'a [f64] {
        &self.data.tail(i as usize)[self.cols.clone()]
    }
}

/// `start + w . (x_i - x_j)`, summed in column order.
fn margin_from(start: f64, w: &[f64], xi: &[f64], xj: &[f64]) -> f64 {
    w.iter().zip(xi).zip(xj).fold(start, |s, ((v, a), b)| s + v * (a - b))
}

/// `||w||^2`, summed in column order from +0.0.
fn squared_norm(w: &[f64]) -> f64 {
    w.iter().fold(0.0, |s, v| s + v * v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    /// A synthetic separable ranking problem: target = -w* . x + per-group
    /// offset, so within-group order is exactly the w* order.
    fn separable(groups: usize, per_group: usize, dim: usize, seed: u64) -> RankingDataset {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let w_star: Vec<f64> = (0..dim).map(|i| if i % 2 == 0 { 1.0 } else { -0.5 }).collect();
        let mut ds = RankingDataset::new(dim);
        for g in 0..groups {
            let offset = g as f64 * 100.0;
            for _ in 0..per_group {
                let x: Vec<f64> = (0..dim).map(|_| rng.random::<f64>()).collect();
                let score: f64 = x.iter().zip(&w_star).map(|(a, b)| a * b).sum();
                ds.push(&x, offset - score, g as u32);
            }
        }
        ds
    }

    #[test]
    fn learns_separable_ranking() {
        let ds = separable(10, 20, 8, 1);
        let (model, report) = RankSvmTrainer::new(TrainConfig::default().with_c(1.0)).train(&ds);
        assert!(report.train_pair_accuracy > 0.95, "accuracy {}", report.train_pair_accuracy);
        assert!(model.norm() > 0.0);
        assert_eq!(report.samples, 200);
    }

    #[test]
    fn ranking_quality_measured_by_tau() {
        let ds = separable(6, 30, 8, 2);
        let (model, _) = RankSvmTrainer::new(TrainConfig::default().with_c(1.0)).train(&ds);
        for g in ds.group_ids() {
            let idx = ds.group_indices(g);
            let scores: Vec<f64> = idx.iter().map(|&i| model.score(&ds.row(i))).collect();
            // Lower target = better, so tau(scores, -target) should be high.
            let neg_targets: Vec<f64> = idx.iter().map(|&i| -ds.target(i)).collect();
            let tau = crate::kendall::tau_b(&scores, &neg_targets);
            assert!(tau > 0.85, "group {g}: tau = {tau}");
        }
    }

    #[test]
    fn training_is_deterministic_for_fixed_seed() {
        let ds = separable(5, 10, 4, 3);
        let cfg = TrainConfig::default();
        let (m1, _) = RankSvmTrainer::new(cfg).train(&ds);
        let (m2, _) = RankSvmTrainer::new(cfg).train(&ds);
        assert_eq!(m1.weights(), m2.weights());
        let (m3, _) = RankSvmTrainer::new(cfg.with_seed(99)).train(&ds);
        assert_ne!(m1.weights(), m3.weights());
    }

    #[test]
    fn empty_dataset_yields_zero_model() {
        let ds = RankingDataset::new(5);
        let (model, report) = RankSvmTrainer::default().train(&ds);
        assert_eq!(model.weights(), &[0.0; 5]);
        assert_eq!(report.pairs, 0);
    }

    #[test]
    fn all_ties_yield_zero_model() {
        let mut ds = RankingDataset::new(2);
        ds.push(&[0.0, 1.0], 5.0, 0);
        ds.push(&[1.0, 0.0], 5.0, 0);
        let (model, report) = RankSvmTrainer::default().train(&ds);
        assert_eq!(report.pairs, 0);
        assert_eq!(model.norm(), 0.0);
    }

    #[test]
    fn cross_group_pairs_are_not_constrained() {
        // Two groups whose global targets conflict with within-group order;
        // the learner must still fit the within-group order.
        let mut ds = RankingDataset::new(1);
        // Group 0: x=1 better than x=0.
        ds.push(&[1.0], 1.0, 0);
        ds.push(&[0.0], 2.0, 0);
        // Group 1: same direction but globally faster.
        ds.push(&[1.0], 0.1, 1);
        ds.push(&[0.0], 0.2, 1);
        let (model, report) = RankSvmTrainer::new(TrainConfig::default().with_c(10.0)).train(&ds);
        assert_eq!(report.pairs, 2);
        assert!(model.weights()[0] > 0.0);
        assert!((report.train_pair_accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn stronger_c_fits_training_pairs_better() {
        let ds = separable(8, 15, 6, 7);
        let (_, weak) = RankSvmTrainer::new(TrainConfig::default().with_c(1e-7)).train(&ds);
        let (_, strong) = RankSvmTrainer::new(TrainConfig::default().with_c(1.0)).train(&ds);
        assert!(strong.train_pair_accuracy >= weak.train_pair_accuracy);
    }

    #[test]
    fn report_counts_pairs() {
        let ds = separable(3, 4, 2, 9);
        let (_, report) = RankSvmTrainer::default().train(&ds);
        // 3 groups x C(4,2) pairs.
        assert_eq!(report.pairs, 3 * 6);
        assert_eq!(report.epochs, TrainConfig::default().epochs);
        assert!(report.train_seconds >= 0.0);
        assert!(report.objective.is_finite());
    }

    #[test]
    fn unaveraged_unprojected_variant_still_learns() {
        let ds = separable(6, 12, 4, 11);
        let cfg = TrainConfig { average: false, project: false, c: 1.0, ..Default::default() };
        let (_, report) = RankSvmTrainer::new(cfg).train(&ds);
        assert!(report.train_pair_accuracy > 0.9);
    }

    #[test]
    fn dcd_learns_separable_ranking() {
        let ds = separable(8, 15, 6, 21);
        let cfg = TrainConfig::default().with_c(1.0).with_solver(Solver::DualCoordinateDescent);
        let (model, report) = RankSvmTrainer::new(cfg).train(&ds);
        assert!(report.train_pair_accuracy > 0.97, "acc {}", report.train_pair_accuracy);
        assert!(model.norm() > 0.0);
    }

    #[test]
    fn dcd_objective_is_at_most_sgd_objective() {
        // The exact solver must reach an objective no worse than SGD on the
        // same problem (both evaluate the identical primal objective).
        for seed in [1u64, 2, 3] {
            let ds = separable(6, 10, 5, seed);
            let base = TrainConfig::default().with_c(0.5).with_epochs(60);
            let (_, sgd) = RankSvmTrainer::new(base).train(&ds);
            let (_, dcd) =
                RankSvmTrainer::new(base.with_solver(Solver::DualCoordinateDescent)).train(&ds);
            assert!(
                dcd.objective <= sgd.objective * 1.01,
                "seed {seed}: dcd {} vs sgd {}",
                dcd.objective,
                sgd.objective
            );
        }
    }

    #[test]
    fn dcd_is_deterministic() {
        let ds = separable(4, 8, 3, 5);
        let cfg = TrainConfig::default().with_solver(Solver::DualCoordinateDescent);
        let (a, _) = RankSvmTrainer::new(cfg).train(&ds);
        let (b, _) = RankSvmTrainer::new(cfg).train(&ds);
        assert_eq!(a.weights(), b.weights());
    }

    #[test]
    fn solvers_agree_on_pairwise_preferences() {
        // On a cleanly separable problem, both solvers must induce the same
        // preference on a held-out comparison.
        let ds = separable(10, 12, 4, 13);
        let base = TrainConfig::default().with_c(1.0);
        let (sgd, _) = RankSvmTrainer::new(base).train(&ds);
        let (dcd, _) =
            RankSvmTrainer::new(base.with_solver(Solver::DualCoordinateDescent)).train(&ds);
        let probe_hi = [0.9, 0.1, 0.9, 0.1];
        let probe_lo = [0.1, 0.9, 0.1, 0.9];
        assert!(sgd.score(&probe_hi) > sgd.score(&probe_lo));
        assert!(dcd.score(&probe_hi) > dcd.score(&probe_lo));
    }

    /// `ds` with columns spliced in at positions `at` of the widened row
    /// (ascending), each holding `fill(group, row)`.
    fn widened(
        ds: &RankingDataset,
        at: &[usize],
        fill: impl Fn(u32, usize) -> f64,
    ) -> RankingDataset {
        let mut out = RankingDataset::new(ds.dim() + at.len());
        for i in 0..ds.len() {
            let mut src = ds.row(i).into_iter();
            let row: Vec<f64> = (0..out.dim())
                .map(|k| if at.contains(&k) { fill(ds.group(i), i) } else { src.next().unwrap() })
                .collect();
            out.push(&row, ds.target(i), ds.group(i));
        }
        out
    }

    fn bits(w: &[f64]) -> Vec<u64> {
        w.iter().map(|v| v.to_bits()).collect()
    }

    const SOLVERS: [Solver; 2] = [Solver::Sgd, Solver::DualCoordinateDescent];

    #[test]
    fn columns_constant_within_groups_change_no_bit() {
        // Before, inside and after the four varying columns. Group 1's
        // rows alternate between +0.0 and -0.0, whose difference is a
        // signed zero too.
        let at = [0, 1, 2, 4, 7, 9, 10];
        let ds = separable(6, 10, 4, 17);
        let wide = widened(&ds, &at, |g, i| match g {
            1 if i % 2 == 0 => -0.0,
            1 => 0.0,
            _ => 0.25 + g as f64,
        });
        assert_eq!(VaryingColumns::of(&wide).cols, 3..9);
        for solver in SOLVERS {
            let trainer = RankSvmTrainer::new(TrainConfig::default().with_solver(solver));
            let (narrow_model, narrow) = trainer.train(&ds);
            let (wide_model, wide_report) = trainer.train(&wide);
            let w = wide_model.weights();
            let kept: Vec<f64> = (0..w.len()).filter(|k| !at.contains(k)).map(|k| w[k]).collect();
            assert_eq!(bits(&kept), bits(narrow_model.weights()), "{solver:?}");
            assert!(at.iter().all(|&k| w[k].to_bits() == 0), "{solver:?}: {w:?}");
            assert_eq!(wide_report.objective.to_bits(), narrow.objective.to_bits(), "{solver:?}");
            assert_eq!(wide_report.train_pair_accuracy, narrow.train_pair_accuracy);
        }
    }

    #[test]
    fn degenerate_groups_give_the_zero_model() {
        // A column holding one NaN or infinity per group varies, as NaN - NaN
        // and inf - inf are NaN: every margin is NaN, so SGD never steps and
        // the dual solver skips every pair. Groups of identical rows vary
        // nowhere: every margin is 0, so each of the 40 pairs costs 1.
        let held = |bad: f64| widened(&separable(5, 8, 2, 19), &[0], move |_, _| bad);
        let mut same = RankingDataset::new(3);
        for g in 0..4u32 {
            for r in 1..=5 {
                same.push(&[g as f64, -1.5, 0.0], r as f64, g);
            }
        }
        for (ds, objective) in [(held(f64::NAN), 0.0), (held(f64::INFINITY), 0.0), (same, 40.0)] {
            for solver in SOLVERS {
                let cfg = TrainConfig::default().with_solver(solver);
                let (model, report) = RankSvmTrainer::new(cfg).train(&ds);
                assert_eq!(bits(model.weights()), [0; 3], "{solver:?}, {objective}");
                assert_eq!(report.objective.to_bits(), f64::to_bits(objective), "{solver:?}");
                assert_eq!(report.train_pair_accuracy, 0.0, "{solver:?}, {objective}");
            }
        }
    }

    #[test]
    fn projecting_path_is_pinned() {
        // Features 100 times the separable set's, behind three columns that
        // are constant within each group: the first steps leave w outside
        // the Pegasos ball, so the projection fires and changes the fit.
        let base = separable(6, 10, 4, 23);
        let mut big = RankingDataset::new(base.dim());
        for i in 0..base.len() {
            let x: Vec<f64> = base.row(i).iter().map(|v| v * 100.0).collect();
            big.push(&x, base.target(i), base.group(i));
        }
        let ds = widened(&big, &[0, 1, 2], |g, _| 0.5 + g as f64);
        let pins = [
            (1.0, [0xaeaf_bf9d_5772_036f, 0x6f6b_8294_0a60_60aa]),
            (1e-2, [0x3af7_b294_6878_d7ba, 0x72d1_df40_b809_7bc7]),
        ];
        for (c, pins) in pins {
            let cfg = TrainConfig::default().with_c(c);
            let fit = |cfg| RankSvmTrainer::new(cfg).train(&ds).0.weight_fingerprint();
            let got = [fit(cfg), fit(TrainConfig { project: false, ..cfg })];
            assert_ne!(got[0], got[1], "C = {c}: the projection never fired");
            assert_eq!(got, pins, "C = {c}: {:#018x}, {:#018x}", got[0], got[1]);
        }
    }

    #[test]
    fn dcd_handles_degenerate_identical_rows() {
        let mut ds = RankingDataset::new(2);
        ds.push(&[0.5, 0.5], 1.0, 0);
        ds.push(&[0.5, 0.5], 2.0, 0); // same features, different targets
        ds.push(&[0.9, 0.1], 0.5, 0);
        let cfg = TrainConfig::default().with_solver(Solver::DualCoordinateDescent);
        let (model, report) = RankSvmTrainer::new(cfg).train(&ds);
        assert!(model.weights().iter().all(|v| v.is_finite()));
        assert!(report.objective.is_finite());
    }
}
