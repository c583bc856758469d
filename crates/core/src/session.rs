//! Tuning sessions: the one scoring core behind every ranking query.
//!
//! A [`TuningSession`] answers the paper's standalone-tuner question (rank
//! the predefined set for an unseen instance, return the best) and its
//! serving variants — top-k, and whole batches of queries back-to-back,
//! the deployment shape the paper's sub-millisecond "Regression" latency
//! is about. A session owns
//!
//! * the cached predefined candidate sets (materialized once per process,
//!   see [`predefined_candidates`]),
//! * per-thread scratch buffers for feature rows and the score vector
//!   (steady-state queries perform **zero** per-candidate heap
//!   allocations), and
//! * an optional [`ThreadPool`] that fans contiguous candidate chunks
//!   across worker threads.
//!
//! Scoring is batched: the per-instance query block is encoded once
//! ([`stencil_model::QueryFeatures`]), each candidate only completes the
//! tuning-dependent suffix into a lane-padded
//! [`stencil_model::CandidateMatrix`] block, and blocks are scored with
//! [`ranksvm::LinearRanker::score_rows_into`] — which dispatches to the
//! explicit AVX2 kernel when the host supports it. Sequential and parallel
//! sessions produce bit-for-bit identical scores: every row's dot product
//! is computed independently (and the SIMD kernel reproduces the scalar
//! reduction exactly), so neither threading nor dispatch reorders floating
//! point reductions.
//!
//! Every query runs through one private scoring path: each instance
//! contributes its candidate rows to one global row range that is chunked
//! across the pool ([`TuningSession::top_k_batch`] pipelines a whole batch
//! of instances through it), so encode/score work is amortized across
//! queries — the substrate the `sorl-serve` micro-batching service builds
//! on.

use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use stencil_exec::ThreadPool;
use stencil_model::{
    CandidateMatrix, ModelError, QueryFeatures, StencilInstance, TuningSpace, TuningVector,
};

use crate::ranker::{validate_candidates, StencilRanker};
use crate::tuner::{TopK, TunerDecision};

/// Rows encoded per `score_rows_into` call: big enough to amortize the
/// call, small enough that a block's feature matrix stays cache-resident.
const BLOCK_ROWS: usize = 64;

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

/// Per-worker scratch: one lane-padded feature block, reused across
/// queries so steady-state scoring allocates nothing.
#[derive(Debug)]
struct WorkerScratch {
    matrix: CandidateMatrix,
}

/// One instance's contribution to a scoring pass: its precomputed query
/// block, its candidate slice, and where its scores start in the session's
/// global score buffer.
struct Segment<'a> {
    qf: QueryFeatures,
    candidates: &'a [TuningVector],
    offset: usize,
}

impl Segment<'_> {
    fn end(&self) -> usize {
        self.offset + self.candidates.len()
    }
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
/// let mut session = TuningSession::parallel(out.ranker, 8);
/// for size in [64, 96, 128, 192] {
///     let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(size)).unwrap();
///     let d = session.tune(&q);
///     println!("{q}: {} in {:.3} ms", d.tuning, d.seconds * 1e3);
/// }
/// ```
#[derive(Debug)]
pub struct TuningSession {
    ranker: StencilRanker,
    pool: Option<ThreadPool>,
    scratch: Vec<WorkerScratch>,
    scores: Vec<f64>,
}

impl TuningSession {
    /// A sequential session (batched scoring, no worker threads).
    pub fn new(ranker: StencilRanker) -> Self {
        Self::parallel(ranker, 1)
    }

    /// A session fanning candidate chunks over `threads` threads
    /// (`threads <= 1` degenerates to the sequential session).
    pub fn parallel(ranker: StencilRanker, threads: usize) -> Self {
        let threads = threads.max(1);
        let pool = (threads > 1).then(|| ThreadPool::new(threads));
        let dim = ranker.encoder().dim();
        let scratch = (0..threads)
            .map(|_| WorkerScratch { matrix: CandidateMatrix::with_row_capacity(dim, BLOCK_ROWS) })
            .collect();
        TuningSession { ranker, pool, scratch, scores: Vec::new() }
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
        let candidates = predefined_candidates(instance.dim());
        let t0 = Instant::now();
        let qf = self.ranker.encoder().query_features(instance);
        self.score_segments(&[Segment { qf, candidates, offset: 0 }]);
        let best = best_index(&self.scores);
        TunerDecision {
            tuning: candidates[best],
            score: self.scores[best],
            candidates: candidates.len(),
            seconds: t0.elapsed().as_secs_f64(),
        }
    }

    /// The `k` best predefined configurations for `instance`, best-first
    /// with scores: a one-query [`top_k_batch`](Self::top_k_batch).
    pub fn top_k_predefined(&mut self, instance: &StencilInstance, k: usize) -> TopK {
        self.top_k_batch(&[(instance, k)]).pop().expect("one answer per query")
    }

    /// Top-k answers for a whole batch of `(instance, k)` queries through
    /// **one** pipelined scoring pass over the cached predefined sets — the
    /// workhorse of the `sorl-serve` micro-batching service. Every
    /// instance's query block is encoded once, all candidate rows from all
    /// instances form one global row range, and that range is chunked
    /// across the pool (a chunk may span several instances); each answer
    /// is then a partial select over its instance's scores (no full sort).
    ///
    /// Entry `i` of the result answers query `i`, bit-for-bit what the same
    /// query gets alone — each row's score is an independent dot product,
    /// so neither batching nor chunk boundaries change any value. The
    /// reported `seconds` on every answer is the wall time of the whole
    /// scoring pass (the per-query cost is amortized and not separable).
    pub fn top_k_batch(&mut self, queries: &[(&StencilInstance, usize)]) -> Vec<TopK> {
        let t0 = Instant::now();
        let encoder = self.ranker.encoder();
        let mut offset = 0;
        let segments: Vec<Segment<'_>> = queries
            .iter()
            .map(|&(q, _)| {
                let candidates = predefined_candidates(q.dim());
                let segment = Segment { qf: encoder.query_features(q), candidates, offset };
                offset += candidates.len();
                segment
            })
            .collect();
        self.score_segments(&segments);
        let seconds = t0.elapsed().as_secs_f64();
        segments
            .iter()
            .zip(queries)
            .map(|(segment, &(_, k))| {
                let scores = &self.scores[segment.offset..segment.end()];
                let entries = ranksvm::top_k_desc(scores, k)
                    .into_iter()
                    .map(|j| (segment.candidates[j], scores[j]))
                    .collect();
                TopK { entries, candidates: scores.len(), seconds }
            })
            .collect()
    }

    /// Scores an explicit candidate list for `instance`, returning a borrow
    /// of the session's score buffer (valid until the next query). The
    /// whole list is validated before any scoring: an inadmissible
    /// candidate is reported as [`ModelError::InadmissibleCandidate`]
    /// naming its index. Scores are bit-for-bit what per-row
    /// [`StencilRanker::score`] calls return.
    pub fn scores(
        &mut self,
        instance: &StencilInstance,
        candidates: &[TuningVector],
    ) -> Result<&[f64], ModelError> {
        let qf = self.ranker.encoder().query_features(instance);
        validate_candidates(&qf, candidates)?;
        self.score_segments(&[Segment { qf, candidates, offset: 0 }]);
        Ok(&self.scores)
    }

    /// The scoring core: resizes the score buffer to the segments' rows and
    /// fills it, fanning contiguous row chunks across the pool when one is
    /// attached. A chunk may straddle segment boundaries; each in-chunk
    /// sub-range is encoded with its segment's query block.
    fn score_segments(&mut self, segments: &[Segment<'_>]) {
        let total = segments.last().map_or(0, Segment::end);
        self.scores.clear();
        self.scores.resize(total, 0.0);
        let ranker = &self.ranker;
        let n_chunks = self.pool.as_ref().map_or(1, |pool| pool.threads().min(total));
        let Some(pool) = self.pool.as_mut().filter(|_| n_chunks > 1) else {
            score_chunk(ranker, segments, 0, &mut self.scratch[0], &mut self.scores);
            return;
        };

        // Even contiguous partition: chunk ci owns rows
        // [ci * total / n_chunks, (ci + 1) * total / n_chunks), carved out
        // of the score buffer together with its own scratch slot. Each slot
        // is locked once, by the one job that runs its chunk.
        let mut rest = self.scores.as_mut_slice();
        let slots: Vec<_> = self.scratch[..n_chunks]
            .iter_mut()
            .enumerate()
            .map(|(ci, scratch)| {
                let (lo, hi) = (ci * total / n_chunks, (ci + 1) * total / n_chunks);
                let (scores, tail) = std::mem::take(&mut rest).split_at_mut(hi - lo);
                rest = tail;
                Mutex::new((lo, scores, scratch))
            })
            .collect();
        pool.run(n_chunks, &|ci| {
            let mut slot = slots[ci].lock().expect("a slot is locked once, so never poisoned");
            let (lo, scores, scratch) = &mut *slot;
            score_chunk(ranker, segments, *lo, scratch, scores);
        });
    }
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

/// Scores the global rows `[lo, lo + scores.len())` into `scores` (whose
/// slot 0 corresponds to global row `lo`), walking the segments they
/// intersect.
fn score_chunk(
    ranker: &StencilRanker,
    segments: &[Segment<'_>],
    lo: usize,
    scratch: &mut WorkerScratch,
    scores: &mut [f64],
) {
    let hi = lo + scores.len();
    let mut si = segments.partition_point(|s| s.end() <= lo);
    let mut row = lo;
    while row < hi {
        let seg = &segments[si];
        let stop = seg.end().min(hi);
        let (a, b) = (row - seg.offset, stop - seg.offset);
        score_range(
            ranker,
            &seg.qf,
            &seg.candidates[a..b],
            scratch,
            &mut scores[row - lo..stop - lo],
        );
        row = stop;
        si += 1;
    }
}

/// Encodes and scores one contiguous candidate range in blocks of
/// [`BLOCK_ROWS`], reusing the worker's packed candidate matrix. The
/// encoder writes each row straight into the matrix buffer; the kernel
/// reads the padded rows at the matrix stride (pad cells are never part of
/// a dot product, so scores match the unpadded layout bit-for-bit).
fn score_range(
    ranker: &StencilRanker,
    qf: &QueryFeatures,
    candidates: &[TuningVector],
    scratch: &mut WorkerScratch,
    scores: &mut [f64],
) {
    let encoder = ranker.encoder();
    let mut start = 0;
    while start < candidates.len() {
        let n = (candidates.len() - start).min(BLOCK_ROWS);
        scratch.matrix.clear();
        for &t in &candidates[start..start + n] {
            scratch.matrix.push_row_with(|out| encoder.append_candidate(qf, t, out));
        }
        ranker.model().score_rows_into(
            scratch.matrix.rows_data(),
            scratch.matrix.stride(),
            &mut scores[start..start + n],
        );
        start += n;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, TrainingPipeline};
    use crate::ranker::synthetic_ranker;
    use stencil_model::{GridSize, StencilKernel};

    /// Dense pseudo-random weights over every feature, so batch/sequential
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
        let mut session = TuningSession::parallel(dense_ranker(), 2);
        let q = blur1024();
        assert!(session.scores(&q, &[]).unwrap().is_empty());
        let bad = [TuningVector::new(8, 8, 1, 0, 1), TuningVector::new(8, 8, 8, 0, 1)];
        let err = session.scores(&q, &bad).unwrap_err();
        assert!(err.to_string().contains("#1"), "{err}");
        let good = [TuningVector::new(8, 8, 1, 0, 1), TuningVector::new(16, 16, 1, 2, 2)];
        assert_eq!(session.scores(&q, &good).unwrap().len(), 2);
    }

    #[test]
    fn top_k_batch_of_nothing_is_empty() {
        let mut session = TuningSession::new(dense_ranker());
        assert!(session.top_k_batch(&[]).is_empty());
    }

    #[test]
    fn top_k_predefined_is_the_argsort_prefix() {
        let ranker = dense_ranker();
        let mut reference = TuningSession::new(ranker.clone());
        let mut session = TuningSession::parallel(ranker, 3);
        for q in [lap128(), blur1024()] {
            let set = predefined_candidates(q.dim());
            let scores = reference.scores(&q, set).unwrap().to_vec();
            let order = ranksvm::argsort_desc(&scores);
            for k in [0usize, 1, 5, 64] {
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
    fn top_k_batch_matches_individual_queries() {
        let ranker = dense_ranker();
        let mut loop_session = TuningSession::new(ranker.clone());
        // Mixed dimensionalities, repeated instances, varied sizes and k:
        // the batch pipeline must agree with one-query answers everywhere.
        let (a, b) = (lap128(), blur1024());
        let c = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(96)).unwrap();
        let d = StencilInstance::new(StencilKernel::blur(), GridSize::square(640)).unwrap();
        let queries = [(&a, 3usize), (&b, 1), (&c, 10), (&a, 10), (&d, 1), (&b, 0)];
        for threads in [1usize, 4] {
            let mut batch_session = TuningSession::parallel(ranker.clone(), threads);
            let batch = batch_session.top_k_batch(&queries);
            assert_eq!(batch.len(), queries.len());
            for (&(q, k), got) in queries.iter().zip(&batch) {
                let want = loop_session.top_k_predefined(q, k);
                assert_eq!(got.entries, want.entries, "{q} k = {k} (threads = {threads})");
                assert_eq!(got.candidates, want.candidates, "{q} k = {k}");
                if k > 0 {
                    let best = loop_session.tune(q);
                    assert_eq!(got.entries[0], (best.tuning, best.score), "{q}");
                }
            }
        }
    }

    #[test]
    fn one_pool_serves_many_epochs() {
        // ThreadPool stress from the ranking side: a single pool must
        // survive many query epochs (mixed dimensionalities and candidate
        // counts) and keep producing results identical to sequential.
        let ranker = dense_ranker();
        let mut seq = TuningSession::new(ranker.clone());
        let mut par = TuningSession::parallel(ranker, 4);
        for epoch in 0..40 {
            let q = if epoch % 2 == 0 { lap128() } else { blur1024() };
            let cands = predefined_candidates(q.dim());
            // Vary the batch size so chunk boundaries move around.
            let n = cands.len() - (epoch * 37) % 1000;
            let want = seq.scores(&q, &cands[..n]).unwrap().to_vec();
            assert_eq!(par.scores(&q, &cands[..n]).unwrap(), &want[..], "epoch {epoch}");
        }
    }
}
