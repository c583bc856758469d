//! The batch scoring kernel: portable and explicit-SIMD paths.
//!
//! [`score_rows_into`] sweeps a row-major feature matrix (rows `stride`
//! apart, `w.len()` meaningful columns each) and writes one dot product per
//! row. Two implementations exist:
//!
//! * [`score_rows_portable`] — the four-accumulator unrolled loop LLVM has
//!   always auto-vectorized well; the reference semantics.
//! * an AVX2 path, compiled into every `x86_64` build, using `core::arch`
//!   intrinsics and selected **once per process** via runtime CPU
//!   detection.
//!
//! Both paths are **bit-for-bit identical** by construction, not merely
//! approximately equal: the AVX2 kernel reproduces the exact floating-point
//! reduction of the portable loop — four independent lane accumulators
//! (vector lane `i` sums precisely the products the portable `acc[i]`
//! sums, in the same order), a left-associated horizontal sum
//! `((l0 + l1) + l2) + l3`, and a scalar remainder loop. It deliberately
//! uses separate multiply and add instructions rather than FMA: fused
//! multiply-add rounds once where the portable loop rounds twice, which
//! would diverge in the low bits. Downstream tests (and the serving cache,
//! which fingerprints scores) rely on scores being a pure function of
//! weights and features, independent of the host CPU.
//!
//! The kernel also computes over the logical `dim` columns only, never the
//! zero pad that `stencil_model::CandidateMatrix` appends to each row:
//! folding pad lanes in would change the reduction grouping (different
//! rounding) and `+ 0.0` would flip `-0.0` sums positive.
//!
//! This module contains the workspace's only `unsafe` outside the exec
//! engine and is fenced by sorl-lint's SL006 kernel allowlist; keep the
//! unsafe surface to the intrinsic calls.

/// Scores each row of a packed row-major matrix: `out[i] = w · rows[i]`.
///
/// `rows` holds `out.len()` rows laid out `stride` values apart; only the
/// first `w.len()` values of each row are read, so `stride` may include
/// lane padding. Dispatches to the AVX2 kernel on an `x86_64` CPU that
/// supports it (detected once per process), the portable kernel otherwise.
///
/// # Panics
/// Panics when `stride < w.len()`, `w` is empty with a non-zero `stride`
/// requirement unmet, or `rows.len() != out.len() * stride`.
pub fn score_rows_into(w: &[f64], rows: &[f64], stride: usize, out: &mut [f64]) {
    check_layout(w, rows, stride, out);
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        // SAFETY: `avx2_enabled` verified AVX2 support on this CPU, and
        // `check_layout` established the slice geometry the kernel assumes.
        unsafe { avx2::score_rows(w, rows, stride, out) };
        return;
    }
    portable_rows(w, rows, stride, out);
}

/// The portable reference kernel: identical signature and semantics to
/// [`score_rows_into`] but never dispatches to SIMD. Exposed so benchmarks
/// and equivalence tests can pin the scalar path explicitly.
pub fn score_rows_portable(w: &[f64], rows: &[f64], stride: usize, out: &mut [f64]) {
    check_layout(w, rows, stride, out);
    portable_rows(w, rows, stride, out);
}

/// Which kernel [`score_rows_into`] dispatches to on this process:
/// `"avx2"` or `"portable"`. Stable for the process lifetime.
pub fn active_kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if avx2_enabled() {
        return "avx2";
    }
    "portable"
}

/// True when the host is `x86_64` and its CPU supports AVX2.
pub fn simd_active() -> bool {
    active_kernel() != "portable"
}

fn check_layout(w: &[f64], rows: &[f64], stride: usize, out: &[f64]) {
    assert!(stride >= w.len(), "row stride {stride} narrower than weight dim {}", w.len());
    assert!(stride > 0, "row stride must be positive");
    assert_eq!(
        rows.len(),
        out.len() * stride,
        "row matrix holds {} values, expected {} rows x stride {stride}",
        rows.len(),
        out.len(),
    );
}

fn portable_rows(w: &[f64], rows: &[f64], stride: usize, out: &mut [f64]) {
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
        *o = crate::model::dot(w, &row[..w.len()]);
    }
}

#[cfg(target_arch = "x86_64")]
fn avx2_enabled() -> bool {
    use std::sync::OnceLock;
    static AVX2: OnceLock<bool> = OnceLock::new();
    *AVX2.get_or_init(|| std::is_x86_feature_detected!("avx2"))
}

#[cfg(target_arch = "x86_64")]
mod avx2 {
    use std::arch::x86_64::{
        _mm256_add_pd, _mm256_loadu_pd, _mm256_mul_pd, _mm256_setzero_pd, _mm256_storeu_pd,
    };

    /// AVX2 twin of the portable kernel; bit-for-bit identical reduction
    /// (see module docs). No FMA on purpose.
    ///
    /// # Safety
    /// The CPU must support AVX2, and the caller must have validated the
    /// layout (`stride >= w.len()`, `rows.len() == out.len() * stride`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn score_rows(w: &[f64], rows: &[f64], stride: usize, out: &mut [f64]) {
        let dim = w.len();
        let chunks = dim / 4;
        for (o, row) in out.iter_mut().zip(rows.chunks_exact(stride)) {
            // Lane i of `acc` accumulates exactly what the portable
            // kernel's acc[i] accumulates, in the same order.
            let mut acc = _mm256_setzero_pd();
            for i in 0..chunks {
                let j = i * 4;
                // SAFETY: j + 4 <= chunks * 4 <= dim <= stride == row.len().
                let wv = unsafe { _mm256_loadu_pd(w.as_ptr().add(j)) };
                let xv = unsafe { _mm256_loadu_pd(row.as_ptr().add(j)) };
                acc = _mm256_add_pd(acc, _mm256_mul_pd(wv, xv));
            }
            let mut lanes = [0.0f64; 4];
            // SAFETY: `lanes` is 4 f64s, exactly one 256-bit store.
            unsafe { _mm256_storeu_pd(lanes.as_mut_ptr(), acc) };
            // Left-associated, matching `acc[0] + acc[1] + acc[2] + acc[3]`.
            let mut s = lanes[0] + lanes[1] + lanes[2] + lanes[3];
            for i in chunks * 4..dim {
                s += w[i] * row[i];
            }
            *o = s;
        }
    }
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
            score_rows_portable(&w, &rows, stride, &mut out);
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
    fn dispatched_kernel_is_bit_identical_to_portable() {
        // On AVX2 hosts this pits the SIMD kernel against the portable
        // one; elsewhere it is a (still valid) self-consistency check.
        for dim in [1usize, 2, 4, 5, 8, 353, 535] {
            let stride = dim.next_multiple_of(4);
            let w = dense(dim, 0xdead_beef);
            let n = 17;
            let mut rows = vec![0.0; n * stride];
            for r in 0..n {
                let vals = dense(dim, 0xab + 7 * r as u64);
                rows[r * stride..r * stride + dim].copy_from_slice(&vals);
            }
            let mut simd = vec![0.0; n];
            let mut scalar = vec![0.0; n];
            score_rows_into(&w, &rows, stride, &mut simd);
            score_rows_portable(&w, &rows, stride, &mut scalar);
            let simd_bits: Vec<u64> = simd.iter().map(|v| v.to_bits()).collect();
            let scalar_bits: Vec<u64> = scalar.iter().map(|v| v.to_bits()).collect();
            assert_eq!(simd_bits, scalar_bits, "dim {dim} ({})", active_kernel());
        }
    }

    #[test]
    fn signed_zero_rows_agree_bitwise_across_kernels() {
        // Sign-of-zero is where reduction-order differences would first
        // show: both kernels must reproduce the reference `dot` exactly,
        // bit pattern included, on all-(-0.0) rows.
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
        score_rows_portable(&w, &rows, stride, &mut out);
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
    fn active_kernel_is_stable_and_consistent() {
        let k = active_kernel();
        assert!(k == "avx2" || k == "portable");
        assert_eq!(k, active_kernel());
        assert_eq!(simd_active(), k == "avx2");
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
