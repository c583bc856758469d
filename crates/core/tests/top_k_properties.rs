//! Property tests for the ranking queries of `TuningSession`.
//!
//! Two invariants carry the serving layer's correctness:
//!
//! 1. **Rank fidelity**: on both predefined sets and under both feature
//!    encodings, `tune`, `top_k_predefined(k)` and the first `k` entries
//!    of `argsort_desc(scores)` agree bit for bit — same picks, same
//!    order, same tie-breaks, same score bits — for any `k` and any
//!    instance. (The partial select must be indistinguishable from
//!    sort-then-truncate, and the argmax from its first entry.)
//! 2. **Scratch reuse**: a run of mixed-dimensionality queries on one
//!    long-lived session answers bit-for-bit like a fresh session per
//!    query: the scratch a session keeps between queries must not change
//!    a single score, pick or tie-break.

use proptest::prelude::*;

use ranksvm::{argsort_desc, LinearRanker};
use sorl::session::{predefined_candidates, TuningSession};
use sorl::{synthetic_ranker, StencilRanker};
use stencil_model::{FeatureEncoder, GridSize, StencilInstance, StencilKernel, TuningVector};

/// A dense ranker seeded per case under either encoding, so different
/// cases exercise different score landscapes without a training run: the
/// synthetic ranker itself for the interaction encoding, its weights cut to
/// the paper encoding's shorter layout otherwise.
fn dense_ranker(seed: u64, interaction: bool) -> StencilRanker {
    let synthetic = synthetic_ranker(seed | 1);
    if interaction {
        return synthetic;
    }
    let encoder = FeatureEncoder::paper_concat();
    let w = synthetic.model().weights()[..encoder.dim()].to_vec();
    StencilRanker::new(encoder, LinearRanker::from_weights(w))
}

/// A ranker with a single non-zero weight (on the unroll feature of the
/// concat block): only 9 distinct scores over 8640 candidates, so ties are
/// massive and the tie-break rule carries the whole ordering.
fn tie_heavy_ranker() -> StencilRanker {
    let encoder = FeatureEncoder::paper_concat();
    let mut w = vec![0.0; encoder.dim()];
    let unroll_feature = encoder.dim() - 2; // [.., bx, by, bz, u, c]
    w[unroll_feature] = 1.0;
    StencilRanker::new(encoder, LinearRanker::from_weights(w))
}

/// One instance per dimensionality, with a case-varied size.
fn instance(dim: u8, step: u32) -> StencilInstance {
    match dim {
        2 => {
            StencilInstance::new(StencilKernel::blur(), GridSize::square(256 + 64 * step)).unwrap()
        }
        _ => StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(48 + 16 * step))
            .unwrap(),
    }
}

/// Entries with their scores as IEEE-754 bit patterns, so comparisons are
/// bitwise (`-0.0` vs `0.0` would differ), not numeric.
fn bits(entries: &[(TuningVector, f64)]) -> Vec<(TuningVector, u64)> {
    entries.iter().map(|&(t, s)| (t, s.to_bits())).collect()
}

/// Checks invariant 1 for one instance: every ranking query of `session`
/// agrees with the argsort of `reference`'s scores over the predefined set.
fn assert_rank_fidelity(
    reference: &mut TuningSession,
    session: &mut TuningSession,
    q: &StencilInstance,
    k: usize,
) -> Result<(), String> {
    let set = predefined_candidates(q.dim());
    let scores = reference.scores(q, set).unwrap().to_vec();
    let order = argsort_desc(&scores);
    let want: Vec<(TuningVector, u64)> =
        order.iter().take(k).map(|&i| (set[i], scores[i].to_bits())).collect();

    let top = session.top_k_predefined(q, k);
    prop_assert_eq!(bits(&top.entries), want.clone(), "top_k_predefined, {} k = {}", q, k);
    prop_assert_eq!(top.candidates, set.len());
    let d = session.tune(q);
    prop_assert_eq!((d.tuning, d.score.to_bits()), (set[order[0]], scores[order[0]].to_bits()));
    prop_assert_eq!(d.candidates, set.len());
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Invariant 1, dense scores under either encoding: the three ranking
    /// queries agree on both predefined sets for arbitrary k (including 0
    /// and past-the-end).
    #[test]
    fn ranking_queries_agree_bitwise_on_both_sets_and_encodings(
        seed in 1u64..u64::MAX,
        interaction in proptest::bool::ANY,
        step in 0u32..8,
        k in 0usize..12_000,
    ) {
        let ranker = dense_ranker(seed, interaction);
        let mut reference = TuningSession::new(ranker.clone());
        let mut session = TuningSession::new(ranker);
        for dim in [2u8, 3] {
            assert_rank_fidelity(&mut reference, &mut session, &instance(dim, step), k)?;
        }
    }

    /// Invariant 1 under massive ties: with only 9 distinct score values
    /// the queries agree only if the partial select and the argmax break
    /// ties exactly like the full sort (ascending candidate index).
    #[test]
    fn ranking_queries_break_ties_exactly_like_argsort(
        step in 0u32..8,
        k in 1usize..2_000,
    ) {
        let mut reference = TuningSession::new(tie_heavy_ranker());
        let mut session = TuningSession::new(tie_heavy_ranker());
        for dim in [2u8, 3] {
            assert_rank_fidelity(&mut reference, &mut session, &instance(dim, step), k)?;
        }
    }

    /// Invariant 2: a run of mixed-dimensionality queries on one session
    /// answers bit-for-bit like a fresh session per query.
    #[test]
    fn one_session_answers_like_a_fresh_session_per_query(
        seed in 1u64..u64::MAX,
        steps in prop::collection::vec((0u32..6, any::<bool>()), 1..7),
        k in 1usize..24,
    ) {
        let ranker = dense_ranker(seed, true);
        let mut session = TuningSession::new(ranker.clone());
        for &(s, is_2d) in &steps {
            let q = instance(if is_2d { 2 } else { 3 }, s);
            let top = session.top_k_predefined(&q, k);
            let mut fresh = TuningSession::new(ranker.clone());
            let reference = fresh.top_k_predefined(&q, k);
            prop_assert_eq!(bits(&top.entries), bits(&reference.entries), "{} k = {}", q, k);
            prop_assert_eq!(top.candidates, reference.candidates, "{}", q);
            let best = fresh.tune(&q);
            prop_assert_eq!(top.entries[0], (best.tuning, best.score), "{}", q);
        }
    }
}
