//! The linear ranking model.

use serde::{Deserialize, Serialize};

/// A linear scoring function `r(x) = w . x`.
///
/// Higher scores mean higher rank (better / faster configurations). The
/// model is the signed distance to a hyperplane with normal `w`, exactly the
/// geometric picture of the paper's Fig. 2c.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRanker {
    w: Vec<f64>,
}

impl LinearRanker {
    /// A zero model of the given dimensionality (scores everything equally).
    pub fn zeros(dim: usize) -> Self {
        LinearRanker { w: vec![0.0; dim] }
    }

    /// Wraps an explicit weight vector.
    pub fn from_weights(w: Vec<f64>) -> Self {
        LinearRanker { w }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.w.len()
    }

    /// The weight vector.
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Mutable access for trainers.
    pub(crate) fn weights_mut(&mut self) -> &mut [f64] {
        &mut self.w
    }

    /// Scores one feature row.
    ///
    /// # Panics
    /// Panics when the row length differs from the model dimension.
    pub fn score(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.w.len(), "feature dimension mismatch");
        dot(&self.w, x)
    }

    /// Scores rows laid out `stride` values apart — the lane-padded layout
    /// of `stencil_model::CandidateMatrix` — writing one score per row.
    /// Only the first `dim` values of each row are read; pad cells are
    /// never touched, so padded and unpadded layouts score identically.
    /// Dispatches to the SIMD batch kernel when available (see
    /// [`crate::kernel`]); scores are bit-for-bit identical either way.
    ///
    /// # Panics
    /// Panics when `stride` is narrower than the model dimension or `rows`
    /// is not exactly `out.len()` rows of `stride` values.
    pub fn score_rows_into(&self, rows: &[f64], stride: usize, out: &mut [f64]) {
        crate::kernel::score_rows_into(&self.w, rows, stride, out);
    }

    /// Euclidean norm of the weights.
    pub fn norm(&self) -> f64 {
        dot(&self.w, &self.w).sqrt()
    }

    /// A stable 64-bit fingerprint of the weight vector: FNV-1a over the
    /// dimensionality followed by each weight's IEEE-754 bit pattern in
    /// little-endian order. Pinned (not `DefaultHasher`) so the value is
    /// reproducible across builds, toolchains and hosts — persisted
    /// decision caches are versioned by it, and a model retrained to
    /// different weights must invalidate them. Bit patterns, not numeric
    /// equality: models that differ only in `-0.0` vs `0.0` are different
    /// models as far as persistence is concerned.
    pub fn weight_fingerprint(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |v: u64| {
            for b in v.to_le_bytes() {
                h = (h ^ b as u64).wrapping_mul(PRIME);
            }
        };
        eat(self.w.len() as u64);
        for &w in &self.w {
            eat(w.to_bits());
        }
        h
    }
}

/// Dense dot product.
#[inline]
pub(crate) fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    // Four accumulators let LLVM vectorize without relying on float
    // re-association.
    let mut acc = [0.0f64; 4];
    let chunks = a.len() / 4;
    for i in 0..chunks {
        let j = i * 4;
        acc[0] += a[j] * b[j];
        acc[1] += a[j + 1] * b[j + 1];
        acc[2] += a[j + 2] * b[j + 2];
        acc[3] += a[j + 3] * b[j + 3];
    }
    let mut s = acc[0] + acc[1] + acc[2] + acc[3];
    for i in chunks * 4..a.len() {
        s += a[i] * b[i];
    }
    s
}

/// Indices sorted by descending value; ties broken by ascending index so
/// rankings are deterministic. This is *the* ranking comparator of the
/// workspace — downstream rankers reuse it rather than re-deriving the
/// tie-break/NaN semantics.
pub fn argsort_desc(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| values[b].total_cmp(&values[a]).then(a.cmp(&b)));
    idx
}

/// The first `k` indices of [`argsort_desc`] without sorting the whole
/// array: an `O(n + k log k)` partial select instead of `O(n log n)`.
///
/// The comparator (descending value, ties towards the lower index) is a
/// strict total order over indices, so the selected prefix — and its
/// internal order — is exactly `argsort_desc(values)[..k]`, tie-breaks
/// included. Top-k serving paths use this so small `k` never pays for a
/// full ranking of 8640 candidates.
pub fn top_k_desc(values: &[f64], k: usize) -> Vec<usize> {
    let k = k.min(values.len());
    if k == 0 {
        return Vec::new();
    }
    let mut idx: Vec<usize> = (0..values.len()).collect();
    let cmp = |a: &usize, b: &usize| values[*b].total_cmp(&values[*a]).then(a.cmp(b));
    if k < idx.len() {
        idx.select_nth_unstable_by(k - 1, cmp);
        idx.truncate(k);
    }
    idx.sort_unstable_by(cmp);
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_is_dot_product() {
        let m = LinearRanker::from_weights(vec![1.0, -2.0, 0.5]);
        assert_eq!(m.score(&[2.0, 1.0, 4.0]), 2.0 - 2.0 + 2.0);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn score_rejects_wrong_dim() {
        LinearRanker::zeros(3).score(&[1.0]);
    }

    #[test]
    fn score_rows_into_matches_score_padded_or_not() {
        let m = LinearRanker::from_weights(vec![0.5, 0.25]);
        let mut out = [0.0; 3];
        m.score_rows_into(&[1.0, 2.0, 3.0, 4.0, 0.0, 8.0], 2, &mut out);
        assert_eq!(out, [1.0, 2.5, 2.0]);
        // Stride 3: the pad cell (here 99) is never read.
        m.score_rows_into(&[1.0, 2.0, 99.0, 3.0, 4.0, 99.0, 0.0, 8.0, 99.0], 3, &mut out);
        assert_eq!(out, [m.score(&[1.0, 2.0]), m.score(&[3.0, 4.0]), m.score(&[0.0, 8.0])]);
    }

    #[test]
    fn argsort_is_descending_with_stable_ties() {
        assert_eq!(argsort_desc(&[1.0, 3.0, 3.0, 2.0]), vec![1, 2, 3, 0]);
        assert!(argsort_desc(&[]).is_empty());
    }

    #[test]
    fn zero_model_scores_zero() {
        let m = LinearRanker::zeros(4);
        assert_eq!(m.score(&[1.0, 2.0, 3.0, 4.0]), 0.0);
        assert_eq!(m.norm(), 0.0);
    }

    #[test]
    fn dot_handles_remainders() {
        for n in 0..10 {
            let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let b: Vec<f64> = (0..n).map(|i| (i * 2) as f64).collect();
            let expect: f64 = (0..n).map(|i| (i * i * 2) as f64).sum();
            assert_eq!(dot(&a, &b), expect, "n = {n}");
        }
    }

    #[test]
    fn top_k_is_a_prefix_of_argsort() {
        // Adversarial value set: duplicates, negatives, infinities and NaN
        // (total_cmp places NaN deterministically).
        let values = [3.0, 1.0, 3.0, f64::NEG_INFINITY, 2.5, f64::NAN, 3.0, -0.0, 0.0, 2.5];
        let full = argsort_desc(&values);
        for k in 0..=values.len() + 2 {
            assert_eq!(top_k_desc(&values, k), full[..k.min(values.len())], "k = {k}");
        }
    }

    #[test]
    fn top_k_handles_degenerate_inputs() {
        assert!(top_k_desc(&[], 5).is_empty());
        assert!(top_k_desc(&[1.0, 2.0], 0).is_empty());
        assert_eq!(top_k_desc(&[7.0], 1), vec![0]);
        // All-equal values: pure index tie-break.
        assert_eq!(top_k_desc(&[2.0; 6], 3), vec![0, 1, 2]);
    }

    #[test]
    fn weight_fingerprint_is_pinned_and_discriminating() {
        // The fingerprint versions persisted decision caches, so its value
        // must never drift between toolchains or releases. This pins one
        // concrete value; if it ever fails, every stored snapshot would be
        // silently considered stale (or worse, a changed stream could
        // collide fresh and stale models).
        let m = LinearRanker::from_weights(vec![1.0, -2.0, 0.5]);
        assert_eq!(m.weight_fingerprint(), 0x1cd2_c1d0_a9f0_0b96);
        // Any weight change, any dimension change: different fingerprint.
        assert_ne!(
            m.weight_fingerprint(),
            LinearRanker::from_weights(vec![1.0, -2.0, 0.25]).weight_fingerprint()
        );
        assert_ne!(m.weight_fingerprint(), LinearRanker::zeros(3).weight_fingerprint());
        assert_ne!(
            LinearRanker::zeros(3).weight_fingerprint(),
            LinearRanker::zeros(4).weight_fingerprint()
        );
        // Deterministic across clones (trivially) and across calls.
        assert_eq!(m.weight_fingerprint(), m.clone().weight_fingerprint());
    }

    #[test]
    fn serde_roundtrip() {
        let m = LinearRanker::from_weights(vec![0.1, 0.2, 0.3]);
        let s = serde_json::to_string(&m).unwrap();
        let back: LinearRanker = serde_json::from_str(&s).unwrap();
        assert_eq!(back, m);
    }
}
