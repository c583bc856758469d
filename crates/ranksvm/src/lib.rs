//! Linear ranking SVM (ordinal regression) with partial rankings, plus the
//! rank-quality metrics used by the paper.
//!
//! The training data is a set of samples grouped by *query* (for stencil
//! autotuning: the stencil instance). Only samples within one group are
//! comparable; each group therefore contributes a partial ranking (paper
//! Section IV-D, Eq. 3). The learner finds a linear scoring function
//! `r(x) = w . x` minimizing the pairwise hinge loss
//!
//! ```text
//!   min_w  1/2 ||w||^2 + C * sum_{(i,j) in P} max(0, 1 - w.(x_i - x_j))
//! ```
//!
//! over all pairs `P` where sample `i` outranks (is faster than) sample `j`
//! within the same group — the SVM-light / SVM-rank convention for `C` that
//! the paper uses with `C = 0.01`.
//!
//! The crate is deliberately independent of the stencil domain: features are
//! plain `&[f64]` rows, so the learner is reusable for any
//! learning-to-rank task.

pub mod baselines;
pub mod dataset;
pub mod kendall;
pub mod kernel;
pub mod linalg;
pub mod metrics;
pub mod model;
pub mod train;

pub use dataset::{GroupId, RankingDataset};
pub use kendall::{gamma, kendall_tau, tau_a, tau_b};
pub use metrics::{pairwise_accuracy, top1_regret};
pub use model::{argsort_desc, top_k_desc, LinearRanker};
pub use train::{RankSvmTrainer, Solver, TrainConfig, TrainReport};
