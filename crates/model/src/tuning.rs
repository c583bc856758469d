//! Tuning vectors and the tuning parameter space (paper Section V).
//!
//! The PATUS transformations exposed by the paper are loop blocking
//! (`bx`, `by`, `bz`, each in `[2, 1024]`), innermost-loop unrolling
//! (`u` in `[0, 8]`) and the multi-threading chunk size (`c`, the number of
//! consecutive tiles assigned to one thread). The tuning vector is
//! `t = (bx, by, bz, u, c)`; for 2-D kernels `bz` is fixed to 1.

use std::fmt;

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::error::ModelError;

/// A concrete setting of the five tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TuningVector {
    /// Blocking size along x.
    pub bx: u32,
    /// Blocking size along y.
    pub by: u32,
    /// Blocking size along z (1 for 2-D stencils).
    pub bz: u32,
    /// Innermost-loop unroll factor (0 = no unrolling).
    pub u: u32,
    /// Chunk size: consecutive tiles assigned to the same thread.
    pub c: u32,
}

impl TuningVector {
    /// Creates a tuning vector without range checking (use
    /// [`TuningSpace::contains`] to validate against a space).
    pub const fn new(bx: u32, by: u32, bz: u32, u: u32, c: u32) -> Self {
        TuningVector { bx, by, bz, u, c }
    }

    /// The five components in canonical order.
    pub fn as_array(&self) -> [u32; 5] {
        [self.bx, self.by, self.bz, self.u, self.c]
    }

    /// Tile volume `bx * by * bz` in points.
    pub fn tile_points(&self) -> u64 {
        self.bx as u64 * self.by as u64 * self.bz as u64
    }
}

impl fmt::Display for TuningVector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(bx={}, by={}, bz={}, u={}, c={})", self.bx, self.by, self.bz, self.u, self.c)
    }
}

/// Power-of-two blocking sizes from 2 to 1024: the block axes of the
/// predefined grid.
const BLOCKS: [u32; 10] = [2, 4, 8, 16, 32, 64, 128, 256, 512, 1024];

/// The axes of the predefined candidate grid
/// ([`TuningSpace::predefined_axes`]), which the predefined set and the
/// feature encoder's folded scoring both walk. The predefined set is their
/// Cartesian product with `bx` outermost and `c` innermost, so candidate
/// `((((ix * by.len() + iy) * bz.len() + iz) * 4 + iu) * 4 + ic)` is
/// `(bx[ix], by[iy], bz[iz], u[iu], c[ic])`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct PredefinedAxes {
    /// Blocking sizes along x.
    pub(crate) bx: &'static [u32],
    /// Blocking sizes along y.
    pub(crate) by: &'static [u32],
    /// Blocking sizes along z (`[1]` in 2-D).
    pub(crate) bz: &'static [u32],
    /// Unroll factors.
    pub(crate) u: [u32; 4],
    /// Chunk sizes.
    pub(crate) c: [u32; 4],
}

impl PredefinedAxes {
    /// Number of candidates in the grid.
    pub(crate) fn len(&self) -> usize {
        self.bx.len() * self.by.len() * self.bz.len() * self.u.len() * self.c.len()
    }

    /// The grid's candidates in predefined-set order.
    pub(crate) fn candidates(self) -> impl Iterator<Item = TuningVector> {
        self.bx.iter().flat_map(move |&bx| {
            self.by.iter().flat_map(move |&by| {
                self.bz.iter().flat_map(move |&bz| {
                    self.u.into_iter().flat_map(move |u| {
                        self.c.into_iter().map(move |c| TuningVector::new(bx, by, bz, u, c))
                    })
                })
            })
        })
    }
}

/// The admissible ranges of the tuning parameters for a given dimensionality.
///
/// ```
/// use stencil_model::{TuningSpace, TuningVector};
///
/// let space = TuningSpace::d3();
/// assert!(space.contains(&TuningVector::new(64, 16, 8, 4, 2)));
/// // The paper's predefined candidate set: 8640 power-of-two combinations.
/// assert_eq!(space.predefined_set().len(), 8640);
/// // 2-D stencils pin bz = 1 and search four parameters.
/// assert_eq!(TuningSpace::d2().genome_len(), 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TuningSpace {
    /// Dimensionality of the stencils this space tunes (2 or 3).
    pub dim: u8,
    /// Smallest admissible blocking size.
    pub block_min: u32,
    /// Largest admissible blocking size.
    pub block_max: u32,
    /// Largest admissible unroll factor (minimum is 0).
    pub unroll_max: u32,
    /// Smallest admissible chunk size.
    pub chunk_min: u32,
    /// Largest admissible chunk size.
    pub chunk_max: u32,
}

impl TuningSpace {
    /// The paper's space for a given dimensionality: blocks in `[2, 1024]`,
    /// unroll in `[0, 8]`, chunks in `[1, 256]`.
    pub fn for_dim(dim: u8) -> Result<Self, ModelError> {
        if !(2..=3).contains(&dim) {
            return Err(ModelError::DimMismatch { expected: 3, found: dim });
        }
        Ok(TuningSpace {
            dim,
            block_min: 2,
            block_max: 1024,
            unroll_max: 8,
            chunk_min: 1,
            chunk_max: 256,
        })
    }

    /// Convenience constructor for 2-D stencils.
    pub fn d2() -> Self {
        Self::for_dim(2).unwrap()
    }

    /// Convenience constructor for 3-D stencils.
    pub fn d3() -> Self {
        Self::for_dim(3).unwrap()
    }

    /// Number of free parameters: 4 in 2-D (`bz` is pinned to 1), 5 in 3-D.
    pub fn genome_len(&self) -> usize {
        if self.dim == 2 {
            4
        } else {
            5
        }
    }

    /// Whether `t` lies inside this space.
    pub fn contains(&self, t: &TuningVector) -> bool {
        self.validate(t).is_ok()
    }

    /// Checks `t` against this space, naming the first offending field and
    /// its actual admissible bounds in the error.
    pub fn validate(&self, t: &TuningVector) -> Result<(), ModelError> {
        let block = |what: &'static str, v: u32| {
            if (self.block_min..=self.block_max).contains(&v) {
                Ok(())
            } else {
                Err(ModelError::OutOfRange {
                    what,
                    value: v as i64,
                    lo: self.block_min as i64,
                    hi: self.block_max as i64,
                })
            }
        };
        block("blocking size bx", t.bx)?;
        block("blocking size by", t.by)?;
        if self.dim == 2 {
            if t.bz != 1 {
                return Err(ModelError::OutOfRange {
                    what: "blocking size bz (pinned to 1 for 2-D stencils)",
                    value: t.bz as i64,
                    lo: 1,
                    hi: 1,
                });
            }
        } else {
            block("blocking size bz", t.bz)?;
        }
        if t.u > self.unroll_max {
            return Err(ModelError::OutOfRange {
                what: "unroll factor u",
                value: t.u as i64,
                lo: 0,
                hi: self.unroll_max as i64,
            });
        }
        if !(self.chunk_min..=self.chunk_max).contains(&t.c) {
            return Err(ModelError::OutOfRange {
                what: "chunk size c",
                value: t.c as i64,
                lo: self.chunk_min as i64,
                hi: self.chunk_max as i64,
            });
        }
        Ok(())
    }

    /// Clamps every component of `t` into the space.
    pub fn clamp(&self, t: &TuningVector) -> TuningVector {
        let cb = |b: u32| b.clamp(self.block_min, self.block_max);
        TuningVector {
            bx: cb(t.bx),
            by: cb(t.by),
            bz: if self.dim == 2 { 1 } else { cb(t.bz) },
            u: t.u.min(self.unroll_max),
            c: t.c.clamp(self.chunk_min, self.chunk_max),
        }
    }

    /// Draws a uniform random tuning vector. Block and chunk sizes are drawn
    /// log-uniformly (so that small and large tiles are equally likely), the
    /// unroll factor uniformly, mirroring how the paper's training tuning
    /// vectors are "randomly generated".
    pub fn random<R: Rng + ?Sized>(&self, rng: &mut R) -> TuningVector {
        let log_uniform = |rng: &mut R, lo: u32, hi: u32| -> u32 {
            let (llo, lhi) = ((lo as f64).ln(), (hi as f64).ln());
            let v = (rng.random_range(llo..=lhi)).exp().round() as u32;
            v.clamp(lo, hi)
        };
        TuningVector {
            bx: log_uniform(rng, self.block_min, self.block_max),
            by: log_uniform(rng, self.block_min, self.block_max),
            bz: if self.dim == 2 { 1 } else { log_uniform(rng, self.block_min, self.block_max) },
            u: rng.random_range(0..=self.unroll_max),
            c: log_uniform(rng, self.chunk_min, self.chunk_max),
        }
    }

    /// The predefined, hierarchically sampled configuration set the paper
    /// ranks with the ordinal-regression model: all combinations of
    /// power-of-two parameter values, sized 1600 for 2-D stencils and 8640
    /// for 3-D ones (Section VI-A), bx-major and c-minor.
    pub fn predefined_set(&self) -> Vec<TuningVector> {
        self.predefined_axes().candidates().collect()
    }

    /// The axes of the predefined grid. 2-D: 10 x 10 blocks (`bz` = 1) x 4
    /// unrolls x 4 chunks = 1600. 3-D: 10 x 9 x 6 blocks x 4 x 4 = 8640;
    /// inner blocks get the full range, outer blocks a progressively
    /// narrower one, which is the "hierarchical" sampling the paper
    /// describes.
    pub(crate) fn predefined_axes(&self) -> PredefinedAxes {
        let (by, bz): (&'static [u32], &'static [u32]) =
            if self.dim == 2 { (&BLOCKS, &[1]) } else { (&BLOCKS[..9], &BLOCKS[..6]) };
        PredefinedAxes { bx: &BLOCKS, by, bz, u: [0, 2, 4, 8], c: [1, 4, 16, 64] }
    }

    // ---- Genome mapping (used by the search engines) -----------------------

    /// Per-gene inclusive bounds in the integer search domain.
    pub fn genome_bounds(&self) -> Vec<(i64, i64)> {
        let b = (self.block_min as i64, self.block_max as i64);
        let mut v = vec![b, b];
        if self.dim == 3 {
            v.push(b);
        }
        v.push((0, self.unroll_max as i64));
        v.push((self.chunk_min as i64, self.chunk_max as i64));
        v
    }

    /// Per-gene flag: should mutation/recombination act on a log scale?
    pub fn genome_log_scaled(&self) -> Vec<bool> {
        let mut v = vec![true, true];
        if self.dim == 3 {
            v.push(true);
        }
        v.push(false); // unroll factor is small and linear
        v.push(true); // chunk size
        v
    }

    /// Encodes a tuning vector as a search genome.
    pub fn to_genome(&self, t: &TuningVector) -> Vec<i64> {
        let mut g = vec![t.bx as i64, t.by as i64];
        if self.dim == 3 {
            g.push(t.bz as i64);
        }
        g.push(t.u as i64);
        g.push(t.c as i64);
        g
    }

    /// Decodes a search genome back into a (clamped) tuning vector.
    pub fn from_genome(&self, g: &[i64]) -> Result<TuningVector, ModelError> {
        if g.len() != self.genome_len() {
            return Err(ModelError::DecodeError(format!(
                "genome length {} does not match space ({})",
                g.len(),
                self.genome_len()
            )));
        }
        let cast = |v: i64| v.clamp(0, u32::MAX as i64) as u32;
        let t = if self.dim == 2 {
            TuningVector::new(cast(g[0]), cast(g[1]), 1, cast(g[2]), cast(g[3]))
        } else {
            TuningVector::new(cast(g[0]), cast(g[1]), cast(g[2]), cast(g[3]), cast(g[4]))
        };
        Ok(self.clamp(&t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> impl Rng {
        rand_chacha::ChaCha8Rng::seed_from_u64(42)
    }

    #[test]
    fn paper_space_bounds() {
        let s = TuningSpace::d3();
        assert_eq!(s.block_min, 2);
        assert_eq!(s.block_max, 1024);
        assert_eq!(s.unroll_max, 8);
        assert!(TuningSpace::for_dim(4).is_err());
        assert!(TuningSpace::for_dim(1).is_err());
    }

    #[test]
    fn contains_and_clamp() {
        let s = TuningSpace::d3();
        assert!(s.contains(&TuningVector::new(2, 1024, 64, 8, 1)));
        assert!(!s.contains(&TuningVector::new(1, 1024, 64, 8, 1)));
        assert!(!s.contains(&TuningVector::new(2, 2048, 64, 8, 1)));
        assert!(!s.contains(&TuningVector::new(2, 4, 4, 9, 1)));
        assert!(!s.contains(&TuningVector::new(2, 4, 4, 0, 0)));
        let clamped = s.clamp(&TuningVector::new(1, 4096, 0, 99, 0));
        assert!(s.contains(&clamped));
        assert_eq!(clamped, TuningVector::new(2, 1024, 2, 8, 1));
    }

    #[test]
    fn validate_names_the_offending_field() {
        let s3 = TuningSpace::d3();
        let err = |t: TuningVector| s3.validate(&t).unwrap_err().to_string();
        assert!(err(TuningVector::new(1, 8, 8, 0, 1)).contains("bx"));
        assert!(err(TuningVector::new(8, 2048, 8, 0, 1)).contains("by"));
        assert!(err(TuningVector::new(8, 8, 2048, 0, 1)).contains("bz"));
        assert!(err(TuningVector::new(8, 8, 8, 9, 1)).contains("unroll factor u"));
        assert!(err(TuningVector::new(8, 8, 8, 0, 0)).contains("chunk size c"));
        assert!(err(TuningVector::new(8, 8, 8, 0, 300)).contains("chunk size c"));
        // Bounds in the message are the actual admissible range.
        assert!(err(TuningVector::new(1, 8, 8, 0, 1)).contains("[2, 1024]"));
        assert!(err(TuningVector::new(8, 8, 8, 9, 1)).contains("[0, 8]"));

        let s2 = TuningSpace::d2();
        let msg = s2.validate(&TuningVector::new(8, 8, 8, 0, 1)).unwrap_err().to_string();
        assert!(msg.contains("bz"), "2-D bz error must name bz: {msg}");
        assert!(msg.contains("[1, 1]"), "2-D bz error must show its pinned bounds: {msg}");
        assert!(s2.validate(&TuningVector::new(8, 8, 1, 0, 1)).is_ok());
        assert!(s3.validate(&TuningVector::new(8, 8, 8, 0, 1)).is_ok());
    }

    #[test]
    fn two_d_space_pins_bz() {
        let s = TuningSpace::d2();
        assert!(s.contains(&TuningVector::new(4, 4, 1, 0, 1)));
        assert!(!s.contains(&TuningVector::new(4, 4, 2, 0, 1)));
        assert_eq!(s.clamp(&TuningVector::new(4, 4, 64, 0, 1)).bz, 1);
    }

    #[test]
    fn random_samples_stay_inside() {
        let mut r = rng();
        for space in [TuningSpace::d2(), TuningSpace::d3()] {
            for _ in 0..500 {
                let t = space.random(&mut r);
                assert!(space.contains(&t), "{t} outside {space:?}");
            }
        }
    }

    #[test]
    fn random_samples_cover_small_and_large_blocks() {
        let mut r = rng();
        let space = TuningSpace::d3();
        let mut small = 0;
        let mut large = 0;
        for _ in 0..1000 {
            let t = space.random(&mut r);
            if t.bx <= 8 {
                small += 1;
            }
            if t.bx >= 256 {
                large += 1;
            }
        }
        // Log-uniform sampling should hit both ends of the range often.
        assert!(small > 100, "small blocks undersampled: {small}");
        assert!(large > 100, "large blocks undersampled: {large}");
    }

    #[test]
    fn predefined_set_sizes_match_paper() {
        assert_eq!(TuningSpace::d2().predefined_set().len(), 1600);
        assert_eq!(TuningSpace::d3().predefined_set().len(), 8640);
    }

    #[test]
    fn predefined_set_is_the_axes_product_in_index_order() {
        for space in [TuningSpace::d2(), TuningSpace::d3()] {
            let a = space.predefined_axes();
            let set = space.predefined_set();
            assert_eq!(set.len(), a.len());
            let (ny, nz) = (a.by.len(), a.bz.len());
            for (ix, &bx) in a.bx.iter().enumerate() {
                for (iy, &by) in a.by.iter().enumerate() {
                    for (iz, &bz) in a.bz.iter().enumerate() {
                        for (iu, &u) in a.u.iter().enumerate() {
                            for (ic, &c) in a.c.iter().enumerate() {
                                let i = (((ix * ny + iy) * nz + iz) * 4 + iu) * 4 + ic;
                                assert_eq!(set[i], TuningVector::new(bx, by, bz, u, c));
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn predefined_set_is_valid_and_unique() {
        for space in [TuningSpace::d2(), TuningSpace::d3()] {
            let set = space.predefined_set();
            let mut dedup = set.clone();
            dedup.sort_by_key(|t| t.as_array());
            dedup.dedup();
            assert_eq!(dedup.len(), set.len(), "duplicates in predefined set");
            for t in &set {
                assert!(space.contains(t), "{t}");
                assert!(t.bx.is_power_of_two());
                assert!(t.by.is_power_of_two());
            }
        }
    }

    #[test]
    fn genome_roundtrip() {
        let mut r = rng();
        for space in [TuningSpace::d2(), TuningSpace::d3()] {
            for _ in 0..200 {
                let t = space.random(&mut r);
                let g = space.to_genome(&t);
                assert_eq!(g.len(), space.genome_len());
                let back = space.from_genome(&g).unwrap();
                assert_eq!(back, t);
            }
        }
    }

    #[test]
    fn genome_length_mismatch_is_error() {
        let s = TuningSpace::d3();
        assert!(s.from_genome(&[2, 2, 2]).is_err());
    }

    #[test]
    fn genome_bounds_align_with_genome_len() {
        for space in [TuningSpace::d2(), TuningSpace::d3()] {
            assert_eq!(space.genome_bounds().len(), space.genome_len());
            assert_eq!(space.genome_log_scaled().len(), space.genome_len());
        }
    }

    #[test]
    fn from_genome_clamps_out_of_range_values() {
        let s = TuningSpace::d3();
        let t = s.from_genome(&[-5, 1 << 40, 3, 100, 0]).unwrap();
        assert!(s.contains(&t));
    }

    #[test]
    fn tile_points() {
        assert_eq!(TuningVector::new(16, 8, 4, 0, 1).tile_points(), 512);
    }
}
