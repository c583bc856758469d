//! The session's scoring pipeline must be a pure refactor: on both
//! predefined candidate sets it has to reproduce the legacy per-candidate
//! path (clone instance, construct a `StencilExecution`, encode, score)
//! bit for bit, for both feature layouts.

use rand::{Rng, SeedableRng};

use ranksvm::LinearRanker;
use sorl::session::{predefined_candidates, TuningSession};
use sorl::StencilRanker;
use stencil_model::{
    EncodingKind, FeatureEncoder, GridSize, StencilExecution, StencilInstance, StencilKernel,
    TuningVector,
};

/// A ranker with dense pseudo-random weights so every feature component
/// participates in the score — a discrepancy anywhere in a row shows up.
fn dense_ranker(kind: EncodingKind) -> StencilRanker {
    let encoder = match kind {
        EncodingKind::PaperConcat => FeatureEncoder::paper_concat(),
        EncodingKind::Interaction => FeatureEncoder::default_interaction(),
    };
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xC0FFEE);
    let w: Vec<f64> = (0..encoder.dim()).map(|_| rng.random_range(-1.0..1.0)).collect();
    StencilRanker::new(encoder, LinearRanker::from_weights(w))
}

/// The pre-refactor scoring loop, reproduced verbatim: per-candidate
/// instance clone + `StencilExecution::new` (which constructs a fresh
/// `TuningSpace`) + `encode_into` + single-row score.
fn legacy_scores(
    ranker: &StencilRanker,
    instance: &StencilInstance,
    candidates: &[TuningVector],
) -> Vec<f64> {
    let mut features = Vec::with_capacity(ranker.encoder().dim());
    candidates
        .iter()
        .map(|&t| {
            let exec = StencilExecution::new(instance.clone(), t).expect("admissible");
            ranker.encoder().encode_into(&exec, &mut features);
            ranker.model().score(&features)
        })
        .collect()
}

fn instances() -> Vec<StencilInstance> {
    vec![
        StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap(),
        StencilInstance::new(StencilKernel::wave(), GridSize::cube(96)).unwrap(),
        StencilInstance::new(StencilKernel::blur(), GridSize::square(1024)).unwrap(),
        StencilInstance::new(StencilKernel::edge(), GridSize::d2(512, 384)).unwrap(),
    ]
}

#[test]
fn batched_path_matches_legacy_on_full_predefined_sets() {
    for kind in [EncodingKind::PaperConcat, EncodingKind::Interaction] {
        let ranker = dense_ranker(kind);
        let mut session = TuningSession::new(ranker.clone());
        for q in instances() {
            let candidates = predefined_candidates(q.dim());
            assert_eq!(candidates.len(), if q.dim() == 2 { 1600 } else { 8640 });
            let legacy = legacy_scores(&ranker, &q, candidates);
            let batched = session.scores(&q, candidates).unwrap();
            // Bit-for-bit: exact f64 equality, no tolerance.
            assert_eq!(batched, &legacy[..], "{kind:?} / {q}");
        }
    }
}

#[test]
fn one_session_survives_many_ranking_epochs() {
    // One session over many epochs of interleaved dimensionalities: its
    // scratch carries over from query to query, and every answer stays
    // identical to legacy.
    let ranker = dense_ranker(EncodingKind::Interaction);
    let mut session = TuningSession::new(ranker.clone());
    let qs = instances();
    for epoch in 0..60 {
        let q = &qs[epoch % qs.len()];
        let candidates = predefined_candidates(q.dim());
        let d = session.tune(q);
        let legacy = legacy_scores(&ranker, q, candidates);
        let best = (0..legacy.len()).max_by(|&a, &b| legacy[a].total_cmp(&legacy[b])).unwrap();
        assert_eq!(d.tuning, candidates[best], "epoch {epoch}");
        assert_eq!(d.score, legacy[best], "epoch {epoch}");
    }
}
