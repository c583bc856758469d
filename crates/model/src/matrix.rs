//! Packed, lane-padded candidate feature matrices.
//!
//! [`CandidateMatrix`] holds a block of encoded candidate rows in one
//! row-major buffer whose rows are padded to a multiple of [`LANE_WIDTH`],
//! with the first row placed on a 32-byte boundary when the allocator
//! cooperates (best effort only — consumers must never *rely* on
//! alignment). Only perfbench's per-layer decomposition builds such
//! blocks; a tuning session scores its full rows one reused row at a time.
//!
//! Padding cells are always `0.0`, and no scoring code reads them: the row
//! kernel computes over `dim` columns only, because including the pad
//! lanes would change the grouping of the four-accumulator reduction and
//! therefore the rounding of the result (and `-0.0` rows could flip sign
//! through `+ 0.0`). Nothing relies on the padding or the alignment for
//! speed; they keep the stride-apart layout that perfbench's full-row
//! decomposition reads.
//!
//! The matrix is designed for reuse: [`clear`](CandidateMatrix::clear)
//! drops the rows but keeps the allocation, so a steady-state scoring loop
//! that encodes a block, scores it and clears it performs zero allocations
//! after warm-up.

/// Rows are padded to a multiple of this many `f64`s (one 256-bit
/// register's worth).
pub const LANE_WIDTH: usize = 4;

/// A reusable row-major feature matrix with lane-padded rows.
///
/// Rows are appended through [`push_row_with`](Self::push_row_with), which
/// hands the writer the underlying buffer — so encoders like
/// [`FeatureEncoder::append_candidate`](crate::FeatureEncoder::append_candidate)
/// write their features straight into the matrix with no intermediate row
/// vector.
///
/// ```
/// use stencil_model::CandidateMatrix;
///
/// let mut m = CandidateMatrix::new(3);
/// m.push_row_with(|out| out.extend_from_slice(&[1.0, 2.0, 3.0]));
/// m.push_row_with(|out| out.extend_from_slice(&[4.0, 5.0, 6.0]));
/// assert_eq!(m.rows(), 2);
/// assert_eq!(m.stride(), 4); // 3 padded up to the lane width
/// assert_eq!(m.row(0), &[1.0, 2.0, 3.0]);
/// assert_eq!(m.rows_data()[3], 0.0); // padding cell
/// ```
#[derive(Debug, Clone)]
pub struct CandidateMatrix {
    /// Backing storage: `lead` alignment cells, then `rows * stride` values.
    buf: Vec<f64>,
    /// Logical row width (feature dimensionality).
    dim: usize,
    /// Physical row width: `dim` rounded up to a multiple of [`LANE_WIDTH`].
    stride: usize,
    /// Leading pad (0..LANE_WIDTH cells) aligning row 0 to 32 bytes,
    /// recomputed whenever the matrix restarts from empty.
    lead: usize,
    rows: usize,
}

impl CandidateMatrix {
    /// An empty matrix for `dim`-wide feature rows.
    ///
    /// # Panics
    /// Panics when `dim` is zero — a zero-width row matrix cannot
    /// distinguish "no rows" from "many empty rows".
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "candidate matrix dimension must be positive");
        CandidateMatrix {
            buf: Vec::new(),
            dim,
            stride: dim.next_multiple_of(LANE_WIDTH),
            lead: 0,
            rows: 0,
        }
    }

    /// An empty matrix with capacity pre-reserved for `rows` rows, so the
    /// first block of pushes performs a single allocation (and the
    /// alignment pad computed against it stays valid).
    pub fn with_row_capacity(dim: usize, rows: usize) -> Self {
        let mut m = CandidateMatrix::new(dim);
        m.reserve_rows(rows);
        m
    }

    /// Ensures capacity for at least `rows` further rows.
    pub fn reserve_rows(&mut self, rows: usize) {
        self.buf.reserve((LANE_WIDTH - 1) + rows * self.stride);
    }

    /// Logical row width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Physical row width (`dim` rounded up to the lane width). Every row
    /// starts at a `stride` multiple inside [`rows_data`](Self::rows_data).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Number of rows currently held.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// True when no rows are held.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// The packed rows: exactly `rows() * stride()` values, row `i`
    /// occupying `[i * stride, i * stride + dim)` with zero padding after.
    pub fn rows_data(&self) -> &[f64] {
        &self.buf[self.lead..]
    }

    /// The `i`-th logical row (padding excluded).
    ///
    /// # Panics
    /// Panics when `i` is out of range.
    pub fn row(&self, i: usize) -> &[f64] {
        assert!(i < self.rows, "row index {i} out of range ({} rows)", self.rows);
        let start = self.lead + i * self.stride;
        &self.buf[start..start + self.dim]
    }

    /// Appends one row by handing `write` the backing buffer; the writer
    /// must append exactly `dim` values. The row is then padded with zeros
    /// to the stride.
    ///
    /// # Panics
    /// Panics when the writer appends anything other than `dim` values.
    pub fn push_row_with<F: FnOnce(&mut Vec<f64>)>(&mut self, write: F) {
        if self.rows == 0 {
            // Restarting from empty: re-derive the leading pad against the
            // current allocation so row 0 lands on a 32-byte boundary. A
            // later reallocation can shift this — alignment is best effort.
            self.buf.clear();
            let addr = self.buf.as_ptr() as usize;
            self.lead = (addr.next_multiple_of(32) - addr) / std::mem::size_of::<f64>();
            self.buf.resize(self.lead, 0.0);
        }
        let start = self.buf.len();
        write(&mut self.buf);
        let written = self.buf.len() - start;
        assert_eq!(
            written, self.dim,
            "row writer appended {written} values, matrix rows are {} wide",
            self.dim
        );
        self.buf.resize(start + self.stride, 0.0);
        self.rows += 1;
    }

    /// Drops all rows but keeps the allocation for reuse.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.rows = 0;
        self.lead = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_are_padded_to_the_lane_width() {
        let mut m = CandidateMatrix::new(5);
        assert_eq!(m.stride(), 8);
        m.push_row_with(|out| out.extend_from_slice(&[1.0, 2.0, 3.0, 4.0, 5.0]));
        assert_eq!(m.rows(), 1);
        assert_eq!(m.rows_data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 0.0, 0.0, 0.0]);
        assert_eq!(m.row(0), &[1.0, 2.0, 3.0, 4.0, 5.0]);
    }

    #[test]
    fn lane_multiple_dims_get_no_padding() {
        let mut m = CandidateMatrix::new(4);
        assert_eq!(m.stride(), 4);
        m.push_row_with(|out| out.extend_from_slice(&[1.0, 2.0, 3.0, 4.0]));
        m.push_row_with(|out| out.extend_from_slice(&[5.0, 6.0, 7.0, 8.0]));
        assert_eq!(m.rows_data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }

    #[test]
    fn row_starts_land_on_stride_multiples() {
        let mut m = CandidateMatrix::new(3);
        for r in 0..7 {
            m.push_row_with(|out| out.extend_from_slice(&[r as f64, 0.5, -1.0]));
        }
        assert_eq!(m.rows_data().len(), 7 * m.stride());
        for r in 0..7 {
            let row = &m.rows_data()[r * m.stride()..r * m.stride() + 3];
            assert_eq!(row, &[r as f64, 0.5, -1.0]);
            assert_eq!(m.rows_data()[r * m.stride() + 3], 0.0);
        }
    }

    #[test]
    fn first_row_is_32_byte_aligned_without_reallocation() {
        // With capacity reserved up front the buffer never reallocates, so
        // the alignment pad computed at the first push stays valid.
        let mut m = CandidateMatrix::with_row_capacity(5, 16);
        for _ in 0..16 {
            m.push_row_with(|out| out.extend_from_slice(&[1.0; 5]));
        }
        assert_eq!(m.rows_data().as_ptr() as usize % 32, 0);
    }

    #[test]
    fn clear_keeps_the_allocation_and_allows_reuse() {
        let mut m = CandidateMatrix::with_row_capacity(3, 8);
        for _ in 0..8 {
            m.push_row_with(|out| out.extend_from_slice(&[1.0, 2.0, 3.0]));
        }
        let cap = {
            m.clear();
            assert!(m.is_empty());
            assert!(m.rows_data().is_empty());
            m.buf.capacity()
        };
        for _ in 0..8 {
            m.push_row_with(|out| out.extend_from_slice(&[4.0, 5.0, 6.0]));
        }
        assert_eq!(m.rows(), 8);
        assert_eq!(m.row(7), &[4.0, 5.0, 6.0]);
        assert_eq!(m.buf.capacity(), cap, "reuse must not reallocate");
    }

    #[test]
    #[should_panic(expected = "appended 2 values")]
    fn short_rows_are_rejected() {
        let mut m = CandidateMatrix::new(3);
        m.push_row_with(|out| out.extend_from_slice(&[1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "matrix rows are 3 wide")]
    fn long_rows_are_rejected() {
        let mut m = CandidateMatrix::new(3);
        m.push_row_with(|out| out.extend_from_slice(&[1.0, 2.0, 3.0, 4.0]));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_dim_is_rejected() {
        CandidateMatrix::new(0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn row_access_is_bounds_checked() {
        let m = CandidateMatrix::new(2);
        let _ = m.row(0);
    }
}
