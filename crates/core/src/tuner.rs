//! The standalone autotuner's answers (paper Section VI-A).
//!
//! Given an unseen stencil instance, the tuner ranks the *predefined*
//! hierarchically sampled configuration set (1600 candidates for 2-D
//! stencils, 8640 for 3-D) with the trained model and returns the
//! top-ranked tuning vector — no execution, no compilation, sub-millisecond
//! latency. The achievable performance is bounded by the best configuration
//! inside the predefined set, exactly as the paper notes.
//!
//! The queries themselves are [`TuningSession`](crate::TuningSession)
//! calls: [`tune`](crate::TuningSession::tune) answers with a
//! [`TunerDecision`], the top-k queries with [`TopK`].

use serde::{Deserialize, Serialize};
use stencil_model::TuningVector;

/// The tuner's answer for one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TunerDecision {
    /// The configuration to run.
    pub tuning: TuningVector,
    /// Its model score.
    pub score: f64,
    /// Number of candidates that were ranked.
    pub candidates: usize,
    /// Ranking latency in seconds (the paper's "Regression" column).
    pub seconds: f64,
}

/// The `k` best configurations for one instance, best-first, with scores.
///
/// Heavy-traffic callers prefer this over [`TunerDecision`]: the runner-up
/// configurations seed iterative searches (see
/// [`HybridTuner`](crate::hybrid::HybridTuner)) and give fallbacks when the
/// top choice is rejected downstream, and the entries come from a partial
/// select, never a full sort. Serializable, so answers can cross a
/// shard-transport process boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TopK {
    /// `(configuration, score)` pairs, best first. Exactly the first
    /// `entries.len()` elements of the full ranking, tie-breaks included.
    pub entries: Vec<(TuningVector, f64)>,
    /// Number of candidates that were scored.
    pub candidates: usize,
    /// Scoring latency of this answer in seconds (each answer of a batch
    /// is timed on its own).
    pub seconds: f64,
}

impl TopK {
    /// The best configuration (`None` when no candidates were scored).
    pub fn best(&self) -> Option<TuningVector> {
        self.entries.first().map(|&(t, _)| t)
    }

    /// Number of returned configurations (`<= k` when the candidate set was
    /// smaller than the request).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no configurations were returned.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The returned configurations, best first, without scores.
    pub fn tunings(&self) -> impl Iterator<Item = TuningVector> + '_ {
        self.entries.iter().map(|&(t, _)| t)
    }
}
