//! Tuning sessions: the one scoring core behind every ranking query.
//!
//! A [`TuningSession`] answers the paper's standalone-tuner question (rank
//! the predefined set for an unseen instance, return the best) and its
//! serving variant, the top-k — the deployment shape the paper's
//! sub-millisecond "Regression" latency is about.
//!
//! **Predefined-set queries** ([`TuningSession::tune`],
//! [`TuningSession::top_k_predefined`]) are folded: the linear score of
//! every candidate is `c(q) + u(q) . pi(q, t)`, evaluated from a few
//! thousand separable terms per query
//! ([`FeatureEncoder::fold_predefined`](stencil_model::FeatureEncoder::fold_predefined))
//! instead of 8640 feature rows. Folded values and full-row dot products
//! approximate the same real score, and features lie in `[0, 1]`, so they
//! differ by at most `eps = 2 gamma_n ||w||_1` (`gamma_n = n u / (1 - n u)`,
//! `u` the unit roundoff, `n` = 600 terms). The session rescores on
//! full rows every candidate whose folded value lies within `2 eps` of the
//! k-th largest (the band) and selects from those exact scores with the
//! query's tie rule. A candidate outside the band scores strictly below k
//! candidates inside it, so every served tuning and score bit is the
//! full-row answer's; a ranking flat relative to `||w||_1` widens the band
//! toward the whole set and costs time, never an answer. A fold belongs to
//! one query, so no two queries share scoring work.
//!
//! The fold keeps each block triple's largest value, bit for bit
//! ([`FoldedScores`]), so neither the select nor the band visits all 8640
//! values: the k-th largest value is selected from the triples whose
//! maximum reaches the k-th largest maximum
//! ([`FoldedScores::kth_largest`]), and the band expands only the triples
//! whose maximum reaches its floor ([`FoldedScores::band`]).
//!
//! **Full rows** serve [`TuningSession::scores`] over explicit candidates
//! (the reference the tests compare against) and the predefined queries the
//! fold cannot take: an instance with a `sigma` entry outside `[0, 1]` (a
//! pattern wider than `max_offset`, where the interaction clamp fires),
//! weights whose `eps` is not finite, and a `k` that asks for the whole set.
//! Such a query's band is the whole set, and an explicit list is a band over
//! itself, so one loop computes every full row the session scores: the
//! per-instance query block is encoded once
//! ([`stencil_model::QueryFeatures`]), and each candidate completes the
//! tuning-dependent suffix in one reused row
//! ([`FeatureEncoder::append_candidate`](stencil_model::FeatureEncoder::append_candidate))
//! scored with [`ranksvm::LinearRanker::score`], on the calling thread.
//!
//! A session owns the cached predefined sets (see [`predefined_candidates`])
//! and reuses its scratch between queries — the folded scores, the band,
//! the scores and the row — so steady-state queries perform **zero**
//! per-candidate heap allocations.

use std::sync::OnceLock;
use std::time::Instant;

use stencil_model::{
    FoldedScores, ModelError, QueryFeatures, StencilInstance, TuningSpace, TuningVector,
};

use crate::ranker::{validate_candidates, StencilRanker};
use crate::tuner::{TopK, TunerDecision};

/// The `n` of the fold's error bound: more rounded terms than either
/// evaluation sums per candidate (a full row has at most 535 features, a
/// folded value at most 348 prefix terms plus a few dozen more).
const ROUNDED_TERMS: f64 = 600.0;

static SET_2D: OnceLock<Vec<TuningVector>> = OnceLock::new();
static SET_3D: OnceLock<Vec<TuningVector>> = OnceLock::new();

/// The paper's predefined candidate set for a dimensionality (1600 vectors
/// for 2-D, 8640 for 3-D), materialized once per process and shared by
/// every session thereafter.
///
/// # Panics
/// Panics when `dim` is not 2 or 3.
pub fn predefined_candidates(dim: u8) -> &'static [TuningVector] {
    let cell = match dim {
        2 => &SET_2D,
        3 => &SET_3D,
        _ => panic!("stencil dimensionality must be 2 or 3, got {dim}"),
    };
    cell.get_or_init(|| TuningSpace::for_dim(dim).expect("dim checked above").predefined_set())
}

/// A long-lived tuner around a trained [`StencilRanker`] — the only way to
/// rank candidates with it.
///
/// Methods take `&mut self` because the session reuses its scratch buffers
/// between queries.
///
/// ```no_run
/// use sorl::pipeline::{PipelineConfig, TrainingPipeline};
/// use sorl::session::TuningSession;
/// use stencil_model::{GridSize, StencilInstance, StencilKernel};
///
/// let out = TrainingPipeline::new(PipelineConfig::default()).run();
/// let mut session = TuningSession::new(out.ranker);
/// for size in [64, 96, 128, 192] {
///     let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(size)).unwrap();
///     let d = session.tune(&q);
///     println!("{q}: {} in {:.3} ms", d.tuning, d.seconds * 1e3);
/// }
/// ```
#[derive(Debug)]
pub struct TuningSession {
    ranker: StencilRanker,
    /// `eps`: the bound on |folded - full-row| for this ranker's weights;
    /// not finite when the fold must not run.
    fold_error: f64,
    /// Full-row scores of the last query's band, in band order.
    scores: Vec<f64>,
    /// The candidates `scores` belongs to, as ascending indices into the
    /// last query's list: the explicit list, or the predefined set.
    band: Vec<usize>,
    /// The last predefined query's folded scores (empty when it took the
    /// full-row path).
    folded: FoldedScores,
    /// Scratch for the k-th largest folded score.
    select: Vec<f64>,
    /// One full feature row, reused for every row the session scores.
    row: Vec<f64>,
}

impl TuningSession {
    /// A session around `ranker`. Every query runs on the calling thread.
    pub fn new(ranker: StencilRanker) -> Self {
        let dim = ranker.encoder().dim();
        TuningSession {
            fold_error: fold_error(ranker.model().weights()),
            ranker,
            scores: Vec::new(),
            band: Vec::new(),
            folded: FoldedScores::default(),
            select: Vec::new(),
            row: Vec::with_capacity(dim),
        }
    }

    /// The underlying ranker.
    pub fn ranker(&self) -> &StencilRanker {
        &self.ranker
    }

    /// Tunes `instance` over the cached predefined set for its
    /// dimensionality — the paper's standalone-tuner query (top-1), served
    /// with zero steady-state allocation. Ties go to the lower candidate
    /// index, as in [`ranksvm::argsort_desc`].
    pub fn tune(&mut self, instance: &StencilInstance) -> TunerDecision {
        let t0 = Instant::now();
        let candidates = self.shortlist(instance, 1);
        let best = best_index(&self.scores);
        TunerDecision {
            tuning: candidates[self.band[best]],
            score: self.scores[best],
            candidates: candidates.len(),
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// The `k` best predefined configurations for `instance`, best-first
    /// with scores: exactly the first `k` entries of
    /// [`ranksvm::argsort_desc`] over the full-row scores of the whole set,
    /// from a partial select over the band (no full sort).
    pub fn top_k_predefined(&mut self, instance: &StencilInstance, k: usize) -> TopK {
        let t0 = Instant::now();
        let candidates = self.shortlist(instance, k);
        let entries = ranksvm::top_k_desc(&self.scores, k)
            .into_iter()
            .map(|j| (candidates[self.band[j]], self.scores[j]))
            .collect();
        TopK { entries, candidates: candidates.len(), seconds: t0.elapsed().as_secs_f64() }
    }

    /// Scores an explicit candidate list for `instance` on full rows,
    /// returning a borrow of the session's score buffer (valid until the
    /// next query). The whole list is validated before any scoring: an
    /// inadmissible candidate is reported as
    /// [`ModelError::InadmissibleCandidate`] naming its index. Scores are
    /// bit-for-bit what per-row [`StencilRanker::score`] calls return.
    pub fn scores(
        &mut self,
        instance: &StencilInstance,
        candidates: &[TuningVector],
    ) -> Result<&[f64], ModelError> {
        let qf = self.ranker.encoder().query_features(instance);
        validate_candidates(&qf, candidates)?;
        self.band.clear();
        self.band.extend(0..candidates.len());
        self.rescore(&qf, candidates);
        Ok(&self.scores)
    }

    /// Leaves in `scores` the full-row scores of every predefined candidate
    /// of `instance` that can rank among its top `k` (at least one), and in
    /// `band` their indices into the returned set, ascending: the band
    /// around the fold's k-th largest value, or the whole set when the fold
    /// does not apply.
    fn shortlist(&mut self, instance: &StencilInstance, k: usize) -> &'static [TuningVector] {
        let candidates = predefined_candidates(instance.dim());
        let encoder = self.ranker.encoder();
        let qf = encoder.query_features(instance);
        let weights = self.ranker.model().weights();
        let k = k.max(1);
        self.folded.clear();
        self.band.clear();
        // The band's floor, 2 eps below the fold's k-th largest value. The
        // fold declines terms that are not finite (a degenerate encoder
        // config yields NaN features), and such queries, like a floor that
        // is not finite, are scored on full rows as they always have been.
        let floor = (k < candidates.len()
            && self.fold_error.is_finite()
            && encoder.fold_predefined(&qf, weights, &mut self.folded))
        .then(|| self.folded.kth_largest(k, &mut self.select) - 2.0 * self.fold_error)
        .filter(|floor| floor.is_finite());
        match floor {
            Some(floor) => self.folded.band(floor, &mut self.band),
            None => {
                self.folded.clear();
                self.band.extend(0..candidates.len());
            }
        }
        self.rescore(&qf, candidates);
        candidates
    }

    /// Leaves in `scores` the full-row score of `candidates[i]` for every
    /// `i` in `band`, in band order: the session's one full-row loop. Each
    /// candidate is encoded into the reused row and reduced as
    /// [`StencilRanker::score`] reduces it, so a score is the same bits
    /// whichever query computes it.
    fn rescore(&mut self, qf: &QueryFeatures, candidates: &[TuningVector]) {
        self.scores.clear();
        for &i in &self.band {
            self.row.clear();
            self.ranker.encoder().append_candidate(qf, candidates[i], &mut self.row);
            self.scores.push(self.ranker.model().score(&self.row));
        }
    }
}

/// `eps = 2 gamma_n ||w||_1`, computed as `gamma_n (2 ||w||_1)` so that it
/// is infinite (and the fold is skipped) whenever `2 ||w||_1` overflows:
/// a finite `eps` also keeps every partial sum of both evaluations finite.
fn fold_error(weights: &[f64]) -> f64 {
    let unit_roundoff = f64::EPSILON / 2.0;
    let gamma = ROUNDED_TERMS * unit_roundoff / (1.0 - ROUNDED_TERMS * unit_roundoff);
    gamma * (2.0 * weights.iter().map(|w| w.abs()).sum::<f64>())
}

/// Index of the highest score in a freshly filled score slice (first
/// occurrence wins ties, matching `argsort_desc`'s tie-break).
fn best_index(scores: &[f64]) -> usize {
    let mut best = 0usize;
    for i in 1..scores.len() {
        if scores[i] > scores[best] {
            best = i;
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, TrainingPipeline};
    use crate::ranker::synthetic_ranker;
    use rand::{Rng, SeedableRng};
    use ranksvm::LinearRanker;
    use stencil_model::{
        DType, FeatureEncoder, GridSize, Offset, StencilExecution, StencilKernel, StencilPattern,
    };

    /// Dense pseudo-random weights over every feature, so scoring
    /// discrepancies cannot hide behind zeros.
    fn dense_ranker() -> StencilRanker {
        synthetic_ranker(0x9e37_79b9_7f4a_7c15)
    }

    fn lap128() -> StencilInstance {
        StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap()
    }

    fn blur1024() -> StencilInstance {
        StencilInstance::new(StencilKernel::blur(), GridSize::square(1024)).unwrap()
    }

    /// Entries with their scores as IEEE-754 bit patterns.
    fn bits(entries: &[(TuningVector, f64)]) -> Vec<(TuningVector, u64)> {
        entries.iter().map(|&(t, s)| (t, s.to_bits())).collect()
    }

    /// The first `k` entries of `argsort_desc` over full-row `scores`.
    fn argsort_prefix(set: &[TuningVector], scores: &[f64], k: usize) -> Vec<(TuningVector, u64)> {
        let order = ranksvm::argsort_desc(scores);
        order.iter().take(k).map(|&i| (set[i], scores[i].to_bits())).collect()
    }

    /// Rankers under both encodings: dense random weights, a single
    /// non-zero weight (on the unroll feature, so 2160 of 8640 candidates
    /// tie for first) and dense weights scaled by ~1e6.
    fn fold_rankers(rng: &mut impl Rng) -> Vec<(String, StencilRanker)> {
        let mut out = Vec::new();
        for encoder in [FeatureEncoder::paper_concat(), FeatureEncoder::default_interaction()] {
            let dim = encoder.dim();
            let random: Vec<f64> = (0..dim).map(|_| rng.random_range(-1.0..1.0)).collect();
            let mut tie_heavy = vec![0.0; dim];
            tie_heavy[FeatureEncoder::paper_concat().dim() - 2] = 1.0; // [.., bx, by, bz, u, c]
            let scaled = random.iter().map(|w| w * 1.0e6 * rng.random_range(0.5..2.0)).collect();
            let kind = format!("{:?}", encoder.config().encoding);
            for (name, w) in [("random", random), ("tie-heavy", tie_heavy), ("1e6-scaled", scaled)]
            {
                let ranker = StencilRanker::new(encoder.clone(), LinearRanker::from_weights(w));
                out.push((format!("{kind}/{name}"), ranker));
            }
        }
        out
    }

    /// The fold's contract on both predefined sets, under both encodings,
    /// for every Table III kernel at random sizes: each folded value lies
    /// within `eps` of its full-row score, and every served answer is the
    /// full-row answer bit for bit.
    #[test]
    fn folded_scores_stay_within_eps_and_serve_full_row_bits() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF01D);
        let rankers = fold_rankers(&mut rng);
        for kernel in StencilKernel::table3_kernels() {
            let size = if kernel.dim() == 2 {
                GridSize::d2(rng.random_range(16..=4096), rng.random_range(16..=4096))
            } else {
                let mut axis = |hi: u32| rng.random_range(16..=hi);
                GridSize::d3(axis(1024), axis(1024), axis(512))
            };
            let q = StencilInstance::new(kernel, size).unwrap();
            let set = predefined_candidates(q.dim());
            for (name, ranker) in &rankers {
                let mut session = TuningSession::new(ranker.clone());
                let full = session.scores(&q, set).unwrap().to_vec();
                for k in [1usize, 3, 8] {
                    let top = session.top_k_predefined(&q, k);
                    assert_eq!(session.folded.len(), set.len(), "{name}, {q}: the fold ran");
                    let worst = session
                        .folded
                        .values()
                        .zip(&full)
                        .map(|(f, s)| (f - s).abs())
                        .fold(0.0, f64::max);
                    assert!(
                        worst <= session.fold_error,
                        "{name}, {q}: |folded - full| reached {worst:e} > eps = {:e}",
                        session.fold_error
                    );
                    assert_eq!(bits(&top.entries), argsort_prefix(set, &full, k), "{name}, {q}");
                }
                let d = session.tune(&q);
                let want = argsort_prefix(set, &full, 1);
                assert_eq!(vec![(d.tuning, d.score.to_bits())], want, "{name}, {q}: tune");
            }
        }
    }

    /// A config whose normalization divides by zero yields NaN features:
    /// queries take the full-row path instead of an empty band.
    #[test]
    fn nan_features_take_the_full_row_path() {
        let config = stencil_model::FeatureConfig { count_cap: 0, ..Default::default() };
        let encoder = FeatureEncoder::new(config);
        let w = vec![0.5; encoder.dim()];
        let mut session =
            TuningSession::new(StencilRanker::new(encoder, LinearRanker::from_weights(w)));
        let q = lap128();
        let set = predefined_candidates(3);
        let full = session.scores(&q, set).unwrap().to_vec();
        let top = session.top_k_predefined(&q, 3);
        assert!(session.folded.is_empty());
        assert_eq!(bits(&top.entries), argsort_prefix(set, &full, 3));
        assert_eq!(session.tune(&q).tuning, set[0]);
    }

    /// A pattern wider than `max_offset` puts a `sigma` entry above 1, where
    /// the interaction clamp fires and the fold is not exact: such queries
    /// take the full-row path, alone and interleaved with folded queries on
    /// one session, and answer with the full-row bits.
    #[test]
    fn patterns_wider_than_max_offset_take_the_full_row_path() {
        let wide = |offsets: &[Offset]| {
            let mut pattern = StencilPattern::new();
            pattern.add(Offset::ORIGIN);
            offsets.iter().for_each(|&o| pattern.add(o));
            StencilKernel::new("wide", pattern, 2, DType::F64).unwrap()
        };
        let wide3 = StencilInstance::new(
            wide(&[Offset::new(4, 0, 0), Offset::new(0, -1, 1)]),
            GridSize::cube(96),
        )
        .unwrap();
        let wide2 = StencilInstance::new(
            wide(&[Offset::new(-4, 0, 0), Offset::new(0, 1, 0)]),
            GridSize::square(640),
        )
        .unwrap();
        let ranker = dense_ranker();
        let mut reference = TuningSession::new(ranker.clone());
        let mut session = TuningSession::new(ranker);
        let (normal3, normal2) = (lap128(), blur1024());
        for wide in [&wide3, &wide2] {
            let set = predefined_candidates(wide.dim());
            let full = reference.scores(wide, set).unwrap().to_vec();

            let top = session.top_k_predefined(wide, 8);
            assert!(session.folded.is_empty(), "{wide}: the fold must not run");
            assert_eq!(session.band.len(), set.len(), "{wide}");
            assert_eq!(bits(&top.entries), argsort_prefix(set, &full, 8), "{wide}");
            let d = session.tune(wide);
            assert!(session.folded.is_empty(), "{wide}: the fold must not run");
            assert_eq!(vec![(d.tuning, d.score.to_bits())], argsort_prefix(set, &full, 1));

            let queries = [(&normal3, 3), (wide, 5), (&normal2, 1), (wide, 1)];
            let tops: Vec<_> =
                queries.iter().map(|&(q, k)| session.top_k_predefined(q, k)).collect();
            assert_eq!(bits(&tops[1].entries), argsort_prefix(set, &full, 5), "{wide}");
            assert_eq!(bits(&tops[3].entries), argsort_prefix(set, &full, 1), "{wide}");
            for (q, k, top) in [(&normal3, 3, &tops[0]), (&normal2, 1, &tops[2])] {
                let set = predefined_candidates(q.dim());
                let full = reference.scores(q, set).unwrap().to_vec();
                assert_eq!(bits(&top.entries), argsort_prefix(set, &full, k), "{q}");
            }
        }
    }

    #[test]
    fn predefined_candidates_are_cached_and_sized() {
        assert_eq!(predefined_candidates(2).len(), 1600);
        assert_eq!(predefined_candidates(3).len(), 8640);
        // Same allocation on repeated calls.
        assert!(std::ptr::eq(predefined_candidates(3), predefined_candidates(3)));
    }

    #[test]
    #[should_panic(expected = "must be 2 or 3")]
    fn predefined_candidates_rejects_bad_dim() {
        predefined_candidates(4);
    }

    #[test]
    fn a_trained_ranker_tunes_both_dimensionalities_fast() {
        let out =
            TrainingPipeline::new(PipelineConfig { training_size: 960, ..Default::default() })
                .run();
        let mut session = TuningSession::new(out.ranker);
        let d = session.tune(&lap128());
        assert_eq!(d.candidates, 8640);
        assert!(TuningSpace::d3().contains(&d.tuning));
        // The paper reports < 1 ms; allow a loose bound for debug builds
        // and noisy CI machines.
        assert!(d.seconds < 2.0, "ranking took {}s", d.seconds);
        let d2 = session.tune(&blur1024());
        assert_eq!(d2.candidates, 1600);
        assert_eq!(d2.tuning.bz, 1);

        let top = session.top_k_predefined(&lap128(), 1);
        assert_eq!(top.best(), Some(d.tuning));
        assert!(session.top_k_predefined(&lap128(), 0).is_empty());
        // k past the set size returns the whole ranking.
        assert_eq!(session.top_k_predefined(&lap128(), 100_000).len(), 8640);
    }

    #[test]
    fn scores_validate_explicit_candidates() {
        let mut session = TuningSession::new(dense_ranker());
        let q = blur1024();
        assert!(session.scores(&q, &[]).unwrap().is_empty());
        let bad = [TuningVector::new(8, 8, 1, 0, 1), TuningVector::new(8, 8, 8, 0, 1)];
        let err = session.scores(&q, &bad).unwrap_err();
        assert!(err.to_string().contains("#1"), "{err}");
        let good = [TuningVector::new(8, 8, 1, 0, 1), TuningVector::new(16, 16, 1, 2, 2)];
        assert_eq!(session.scores(&q, &good).unwrap().len(), 2);
    }

    #[test]
    fn top_k_predefined_is_the_argsort_prefix() {
        let ranker = dense_ranker();
        let mut reference = TuningSession::new(ranker.clone());
        let mut session = TuningSession::new(ranker);
        for q in [lap128(), blur1024()] {
            let set = predefined_candidates(q.dim());
            let scores = reference.scores(&q, set).unwrap().to_vec();
            let order = ranksvm::argsort_desc(&scores);
            // 100 and 540 are the 2-D and 3-D block-triple counts: past
            // them, the k-th largest triple maximum is minus infinity.
            for k in [0usize, 1, 5, 64, 100, 101, 540, 541, set.len() - 1] {
                let top = session.top_k_predefined(&q, k);
                assert_eq!(top.len(), k.min(set.len()));
                assert_eq!(top.candidates, set.len());
                for (r, &(t, s)) in top.entries.iter().enumerate() {
                    assert_eq!(t, set[order[r]], "{q} rank {r}");
                    assert_eq!(s, scores[order[r]], "{q} rank {r}");
                }
            }
        }
    }

    #[test]
    fn one_session_serves_many_epochs() {
        // One session over many query epochs (mixed dimensionalities and
        // list lengths, so its reused buffers shrink and grow) must keep
        // producing per-candidate `StencilRanker::score` bits.
        let ranker = dense_ranker();
        let single = |q: &StencilInstance| -> Vec<u64> {
            let set = predefined_candidates(q.dim());
            let exec = |t| StencilExecution::new(q.clone(), t).unwrap();
            set.iter().map(|&t| ranker.score(&exec(t)).to_bits()).collect()
        };
        let (q3, q2) = (lap128(), blur1024());
        let (want3, want2) = (single(&q3), single(&q2));
        let mut session = TuningSession::new(ranker);
        for epoch in 0..40 {
            let (q, want) = if epoch % 2 == 0 { (&q3, &want3) } else { (&q2, &want2) };
            let n = want.len() - (epoch * 37) % 1000;
            let got = session.scores(q, &predefined_candidates(q.dim())[..n]).unwrap();
            let got: Vec<u64> = got.iter().map(|s| s.to_bits()).collect();
            assert_eq!(got, want[..n], "epoch {epoch}");
        }
    }
}
