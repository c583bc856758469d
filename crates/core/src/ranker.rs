//! The trained stencil ranker: feature encoder + linear ranking model.
//!
//! A [`StencilRanker`] scores one execution and persists itself; ranking a
//! candidate set for an instance is a [`TuningSession`](crate::TuningSession)
//! query, so the library has one candidate-scoring loop.

use std::io::Write;
use std::path::Path;

use serde::{Deserialize, Serialize};

use ranksvm::LinearRanker;
use stencil_model::{FeatureEncoder, ModelError, QueryFeatures, StencilExecution, TuningVector};

/// A ranking function over stencil executions: encodes `(q, t)` and scores
/// it with a linear model; higher scores predict faster executions.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StencilRanker {
    encoder: FeatureEncoder,
    model: LinearRanker,
}

impl StencilRanker {
    /// Wraps a fitted model.
    ///
    /// # Panics
    /// Panics when model and encoder dimensions disagree.
    pub fn new(encoder: FeatureEncoder, model: LinearRanker) -> Self {
        assert_eq!(encoder.dim(), model.dim(), "encoder/model dimension mismatch");
        StencilRanker { encoder, model }
    }

    /// The feature encoder.
    pub fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }

    /// The linear model.
    pub fn model(&self) -> &LinearRanker {
        &self.model
    }

    /// Scores one admissible execution (higher = predicted faster).
    pub fn score(&self, exec: &StencilExecution) -> f64 {
        self.model.score(&self.encoder.encode(exec))
    }

    /// A stable 64-bit fingerprint of the whole ranking function: the
    /// encoder configuration (every field that shapes the feature layout
    /// or its normalization, in declaration order) folded together with
    /// the model's [`weight_fingerprint`](LinearRanker::weight_fingerprint)
    /// via the pinned FNV-1a stream of
    /// [`stencil_model::fingerprint::Fnv1a`].
    ///
    /// Two rankers with equal fingerprints produce identical scores for
    /// every admissible execution, so persisted decision caches are
    /// versioned by this value: a snapshot written under one fingerprint
    /// is rejected on restore under any other (retrained weights, changed
    /// encoding — either invalidates every cached decision).
    pub fn fingerprint(&self) -> u64 {
        use stencil_model::EncodingKind;
        let c = self.encoder.config();
        let mut h = stencil_model::fingerprint::Fnv1a::new();
        h.write_u64(c.max_offset as u64);
        h.write_u64(match c.encoding {
            EncodingKind::PaperConcat => 0,
            EncodingKind::Interaction => 1,
        });
        h.write_u64(c.count_cap as u64);
        h.write_u64(c.max_buffers as u64);
        h.write_f64(c.size_log2_max);
        h.write_f64(c.block_log2_max);
        h.write_f64(c.chunk_log2_max);
        h.write_u64(c.unroll_max as u64);
        h.write_u64(self.model.weight_fingerprint());
        h.finish()
    }

    /// Serializes the ranker to pretty JSON at `path`.
    pub fn save_json(&self, path: &Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self).expect("ranker serializes");
        let mut f = std::fs::File::create(path)?;
        f.write_all(json.as_bytes())
    }

    /// Loads a ranker saved by [`save_json`](Self::save_json).
    pub fn load_json(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }
}

/// Validates a whole candidate batch against the query's tuning space
/// before any scoring happens, so a bad batch fails fast with the offending
/// candidate's index instead of aborting mid-iteration.
pub fn validate_candidates(
    qf: &QueryFeatures,
    candidates: &[TuningVector],
) -> Result<(), ModelError> {
    for (index, t) in candidates.iter().enumerate() {
        if let Err(source) = qf.space().validate(t) {
            return Err(ModelError::InadmissibleCandidate { index, source: Box::new(source) });
        }
    }
    Ok(())
}

/// A deterministic dense ranker from a seed: xorshift weights over the
/// default interaction encoder — same seed, same weights, same
/// fingerprint, in every process and on every host. This is what
/// `sorl-shardd --synthetic-ranker SEED` serves; tests and supervisors
/// that need to predict a daemon's fingerprint must use *this* function
/// rather than re-deriving the weights (two drifted copies would break
/// the cross-process "same seed, same model" contract silently).
///
/// Not a trained model — real deployments train once and ship the saved
/// ranker ([`StencilRanker::save_json`]) to every shard.
pub fn synthetic_ranker(seed: u64) -> StencilRanker {
    let encoder = FeatureEncoder::default_interaction();
    // Only state 0 is degenerate for xorshift (it would freeze at zero
    // weights); remap just that one seed so every other u64 gets its own
    // model — an `| 1` style floor would silently alias each even seed
    // with its odd successor, halving the seed space.
    let mut state = seed.max(1);
    let w: Vec<f64> = (0..encoder.dim())
        .map(|_| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state as f64 / u64::MAX as f64) - 0.5
        })
        .collect();
    StencilRanker::new(encoder, LinearRanker::from_weights(w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_model::{GridSize, StencilInstance, StencilKernel};

    /// A hand-made ranker whose only non-zero weight sits on the unroll
    /// feature of the concatenated block, so candidates with higher u rank
    /// first — enough to test the plumbing deterministically.
    fn unroll_loving_ranker() -> StencilRanker {
        let encoder = FeatureEncoder::paper_concat();
        let mut w = vec![0.0; encoder.dim()];
        let unroll_feature = encoder.dim() - 2; // [.., bx, by, bz, u, c]
        w[unroll_feature] = 1.0;
        StencilRanker::new(encoder, LinearRanker::from_weights(w))
    }

    fn lap128() -> StencilInstance {
        StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap()
    }

    #[test]
    fn rank_orders_by_score() {
        let r = unroll_loving_ranker();
        let cands = vec![
            TuningVector::new(8, 8, 8, 2, 1),
            TuningVector::new(8, 8, 8, 8, 1),
            TuningVector::new(8, 8, 8, 0, 1),
        ];
        let mut session = crate::TuningSession::new(r);
        let scores = session.scores(&lap128(), &cands).unwrap();
        assert_eq!(ranksvm::argsort_desc(scores), vec![1, 0, 2]);
    }

    #[test]
    fn inadmissible_candidate_error_reports_its_index() {
        let r = unroll_loving_ranker();
        let blur = StencilInstance::new(StencilKernel::blur(), GridSize::square(512)).unwrap();
        let qf = r.encoder().query_features(&blur);
        // Candidates 0 and 1 are fine; #2 has bz != 1, #3 has bx out of range.
        let cands = [
            TuningVector::new(8, 8, 1, 0, 1),
            TuningVector::new(16, 4, 1, 2, 4),
            TuningVector::new(8, 8, 8, 0, 1),
            TuningVector::new(1, 8, 1, 0, 1),
        ];
        assert!(validate_candidates(&qf, &cands[..2]).is_ok());
        let err = validate_candidates(&qf, &cands).unwrap_err();
        match &err {
            ModelError::InadmissibleCandidate { index, source } => {
                assert_eq!(*index, 2, "first offending candidate wins");
                assert!(source.to_string().contains("bz"), "{source}");
            }
            other => panic!("expected InadmissibleCandidate, got {other:?}"),
        }
        assert!(err.to_string().contains("#2"));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn dimension_mismatch_panics() {
        StencilRanker::new(FeatureEncoder::paper_concat(), LinearRanker::zeros(3));
    }

    #[test]
    fn fingerprint_tracks_weights_and_encoder_config() {
        let r = unroll_loving_ranker();
        assert_eq!(r.fingerprint(), r.clone().fingerprint(), "deterministic");
        // Different weights: different ranking function.
        let other = StencilRanker::new(
            FeatureEncoder::paper_concat(),
            LinearRanker::zeros(FeatureEncoder::paper_concat().dim()),
        );
        assert_ne!(r.fingerprint(), other.fingerprint());
        // Same weights under a different encoding: also different (the
        // paper-concat and interaction layouts have different dims here,
        // but even the config fields alone must discriminate).
        let a = StencilRanker::new(
            FeatureEncoder::paper_concat(),
            LinearRanker::zeros(FeatureEncoder::paper_concat().dim()),
        );
        let b = StencilRanker::new(
            FeatureEncoder::default_interaction(),
            LinearRanker::zeros(FeatureEncoder::default_interaction().dim()),
        );
        assert_ne!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn fingerprint_survives_a_json_roundtrip() {
        // A ranker saved and reloaded is the same ranking function, so the
        // snapshot it once validated must still validate.
        let r = unroll_loving_ranker();
        let dir = std::env::temp_dir().join("sorl-ranker-fp-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ranker.json");
        r.save_json(&path).unwrap();
        let back = StencilRanker::load_json(&path).unwrap();
        assert_eq!(r.fingerprint(), back.fingerprint());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_roundtrip() {
        let r = unroll_loving_ranker();
        let dir = std::env::temp_dir().join("sorl-ranker-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ranker.json");
        r.save_json(&path).unwrap();
        let back = StencilRanker::load_json(&path).unwrap();
        let exec = StencilExecution::new(lap128(), TuningVector::new(8, 8, 8, 3, 1)).unwrap();
        assert_eq!(r.score(&exec), back.score(&exec));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn synthetic_rankers_are_pinned_by_their_seed() {
        assert_eq!(synthetic_ranker(42).fingerprint(), synthetic_ranker(42).fingerprint());
        assert_ne!(synthetic_ranker(42).fingerprint(), synthetic_ranker(43).fingerprint());
        // Only the degenerate zero state is remapped (to 1).
        assert_eq!(synthetic_ranker(0).fingerprint(), synthetic_ranker(1).fingerprint());
        assert_ne!(synthetic_ranker(1).fingerprint(), synthetic_ranker(2).fingerprint());
    }
}
