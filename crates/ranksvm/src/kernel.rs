//! The batch scoring kernel: one dot product per row of a packed matrix.
//!
//! [`score_rows_into`] sweeps a row-major feature matrix (rows `stride`
//! apart, `w.len()` meaningful columns each) and writes one dot product per
//! row, each exactly [`LinearRanker::score`](crate::LinearRanker::score)'s
//! four-accumulator reduction, so a score is a pure function of weights and
//! features, independent of the host CPU. The serving cache fingerprints
//! scores, and the tests compare them bit for bit.
//!
//! The kernel computes over the logical `dim` columns only, never the zero
//! pad that `stencil_model::CandidateMatrix` appends to each row: folding
//! pad lanes in would change the reduction grouping (different rounding)
//! and `+ 0.0` would flip `-0.0` sums positive.

/// Scores each row of a packed row-major matrix: `out[i] = w · rows[i]`.
///
/// `rows` holds `out.len()` rows laid out `stride` values apart; only the
/// first `w.len()` values of each row are read, so `stride` may include
/// lane padding.
///
/// # Panics
/// Panics when `stride < w.len()`, `stride` is zero, or
/// `rows.len() != out.len() * stride`.
pub fn score_rows_into(w: &[f64], rows: &[f64], stride: usize, out: &mut [f64]) {
    assert!(stride >= w.len(), "row stride {stride} narrower than weight dim {}", w.len());
    assert!(stride > 0, "row stride must be positive");
    assert_eq!(
        rows.len(),
        out.len() * stride,
        "row matrix holds {} values, expected {} rows x stride {stride}",
        rows.len(),
        out.len(),
    );
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
        *o = crate::model::dot(w, &row[..w.len()]);
    }
}

/// The row kernel [`score_rows_into`] runs: always `"portable"`, the one
/// kernel there is. perfbench's warm-up still calls it; the call goes
/// when perfbench times the production stages instead of full rows, and
/// this function with it.
pub fn active_kernel() -> &'static str {
    "portable"
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense(dim: usize, seed: u64) -> Vec<f64> {
        // Deterministic xorshift fill, sign-mixed, magnitude ~[0, 2).
        let mut s = seed.max(1);
        (0..dim)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s % 4096) as f64 / 1024.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn portable_matches_per_row_dot_with_padding() {
        for dim in [1usize, 3, 4, 5, 7, 8, 13] {
            let stride = dim.next_multiple_of(4);
            let w = dense(dim, 0x9e37);
            let n = 9;
            let mut rows = Vec::new();
            for r in 0..n {
                let mut row = dense(dim, 0x51_7c + r as u64);
                rows.append(&mut row);
                rows.resize((r + 1) * stride, 0.0);
            }
            let mut out = vec![0.0; n];
            score_rows_into(&w, &rows, stride, &mut out);
            for r in 0..n {
                let row = &rows[r * stride..r * stride + dim];
                assert_eq!(
                    out[r].to_bits(),
                    crate::model::dot(&w, row).to_bits(),
                    "dim {dim} row {r}"
                );
            }
        }
    }

    #[test]
    fn signed_zero_rows_keep_their_sign() {
        // Sign-of-zero is where a reduction that folded pad lanes in would
        // first show: the kernel must reproduce the reference `dot`
        // exactly, bit pattern included, on all-(-0.0) rows.
        let dim = 5;
        let stride = 8;
        let w = vec![1.0, -1.0, 1.0, -1.0, 1.0];
        let mut rows = vec![0.0; 2 * stride];
        for cell in rows.iter_mut().take(dim) {
            *cell = -0.0;
        }
        let want = crate::model::dot(&w, &rows[..dim]).to_bits();
        let mut out = vec![0.0; 2];
        score_rows_into(&w, &rows, stride, &mut out);
        assert_eq!(out[0].to_bits(), want);
    }

    #[test]
    fn unpadded_stride_equals_dim_works() {
        let w = vec![0.5, -1.5, 2.0];
        let rows = [1.0, 2.0, 3.0, -4.0, 0.0, 1.0];
        let mut out = [0.0; 2];
        score_rows_into(&w, &rows, 3, &mut out);
        assert_eq!(out, [0.5 - 3.0 + 6.0, -2.0 + 2.0]);
    }

    #[test]
    #[should_panic(expected = "narrower than weight dim")]
    fn stride_narrower_than_dim_is_rejected() {
        score_rows_into(&[1.0, 2.0], &[1.0, 2.0], 1, &mut [0.0; 2]);
    }

    #[test]
    #[should_panic(expected = "row matrix holds")]
    fn ragged_matrix_is_rejected() {
        score_rows_into(&[1.0], &[1.0, 2.0, 3.0], 2, &mut [0.0; 2]);
    }
}
