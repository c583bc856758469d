//! Feature encoding of stencil executions (paper Section III).
//!
//! A [`StencilExecution`] `(k, s, t)` is mapped to a real vector whose
//! components are all normalized to `[0, 1]`:
//!
//! * the dense pattern occupancy matrix of side `2R + 1` (R = maximum
//!   supported offset, 3 by default, giving `7^3 = 343` cells) with per-cell
//!   access counts,
//! * the buffer count and the element type,
//! * the input size (log2-scaled per axis),
//! * the five tuning parameters.
//!
//! This *concatenated* layout is the paper's encoding
//! ([`EncodingKind::PaperConcat`]) and is invertible ([`FeatureEncoder::decode`]).
//!
//! With a linear ranking function, concatenated features give every stencil
//! instance the same induced ordering over tunings (instance features are
//! constant within an instance, so they cancel in pairwise comparisons).
//! [`EncodingKind::Interaction`] therefore additionally emits the outer
//! product of a compact instance descriptor with a tuning descriptor — the
//! standard joint feature map of structural SVMs (and of the click-through
//! ranking work the paper builds on), which lets a *linear* model express
//! instance-conditional tuning preferences. `Interaction` is the default;
//! `PaperConcat` is kept for the ablation experiment.

use serde::{Deserialize, Serialize};

use crate::dtype::DType;
use crate::error::ModelError;
use crate::execution::StencilExecution;
use crate::instance::StencilInstance;
use crate::kernel::StencilKernel;
use crate::size::GridSize;
use crate::tuning::{TuningSpace, TuningVector};

/// Which feature layout to emit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EncodingKind {
    /// The paper's flat concatenation: pattern + buffers + dtype + size + tuning.
    PaperConcat,
    /// `PaperConcat` plus instance/tuning interaction terms (default).
    Interaction,
}

/// Normalization constants and layout choices of the encoder.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FeatureConfig {
    /// Maximum representable neighbour offset (pattern box side `2R + 1`).
    pub max_offset: u32,
    /// Feature layout.
    pub encoding: EncodingKind,
    /// Normalization cap for per-cell access counts.
    pub count_cap: u16,
    /// Normalization cap for the buffer count.
    pub max_buffers: u8,
    /// `log2` of the largest representable grid extent.
    pub size_log2_max: f64,
    /// `log2` of the largest blocking size.
    pub block_log2_max: f64,
    /// `log2` of the largest chunk size.
    pub chunk_log2_max: f64,
    /// Largest unroll factor.
    pub unroll_max: u32,
}

impl Default for FeatureConfig {
    fn default() -> Self {
        FeatureConfig {
            max_offset: 3,
            encoding: EncodingKind::Interaction,
            count_cap: 8,
            max_buffers: 4,
            size_log2_max: 12.0,  // up to 4096 per axis
            block_log2_max: 10.0, // up to 1024
            chunk_log2_max: 8.0,  // up to 256
            unroll_max: 8,
        }
    }
}

impl FeatureConfig {
    /// The paper-faithful configuration (concatenated layout).
    pub fn paper() -> Self {
        FeatureConfig { encoding: EncodingKind::PaperConcat, ..Default::default() }
    }
}

/// Number of components in the instance descriptor `sigma`.
const SIGMA_LEN: usize = 13;
/// Number of components in the tuning descriptor `pi`.
const PI_LEN: usize = 14;

// Each `pi` entry depends on one part of the tuning vector only, which is
// what lets `FeatureEncoder::fold_predefined` evaluate a query's whole
// predefined grid from a few thousand separable terms.
/// `pi` entries that depend on the block triple alone: the three block
/// norms, then the six terms of the triple clipped to the grid
/// ([`clipped_block`]).
const PI_BLOCK: [usize; 9] = [0, 1, 2, 5, 6, 7, 8, 9, 10];
/// The `pi` entry that depends on the unroll factor alone.
const PI_UNROLL: usize = 3;
/// The `pi` entry that depends on the chunk size alone.
const PI_CHUNK: usize = 4;
/// `pi` entries that depend on the block triple with the chunk size.
const PI_TILES: [usize; 2] = [11, 12];
/// The `pi` entry that depends on the clipped x block with the unroll factor.
const PI_CLEANUP: usize = 13;

/// Encodes stencil executions into normalized feature vectors and decodes
/// them back.
///
/// ```
/// use stencil_model::*;
///
/// let encoder = FeatureEncoder::paper_concat();
/// let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap();
/// let exec = StencilExecution::new(q, TuningVector::new(64, 16, 8, 2, 4)).unwrap();
///
/// let features = encoder.encode(&exec);
/// assert!(features.iter().all(|v| (0.0..=1.0).contains(v)));
///
/// // The encoding is invertible (paper Section III).
/// let back = encoder.decode(&features).unwrap();
/// assert_eq!(back.tuning(), exec.tuning());
/// assert_eq!(back.instance().size(), exec.instance().size());
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureEncoder {
    config: FeatureConfig,
}

impl FeatureEncoder {
    /// Creates an encoder for the given configuration.
    pub fn new(config: FeatureConfig) -> Self {
        FeatureEncoder { config }
    }

    /// Encoder with the default (interaction) configuration.
    pub fn default_interaction() -> Self {
        Self::new(FeatureConfig::default())
    }

    /// Encoder with the paper's concatenated configuration.
    pub fn paper_concat() -> Self {
        Self::new(FeatureConfig::paper())
    }

    /// The active configuration.
    pub fn config(&self) -> &FeatureConfig {
        &self.config
    }

    /// Side of the dense pattern box.
    fn pattern_side(&self) -> usize {
        (2 * self.config.max_offset + 1) as usize
    }

    /// Number of pattern cells in the flat block.
    fn pattern_cells(&self) -> usize {
        let s = self.pattern_side();
        s * s * s
    }

    /// Length of the concatenated (paper) block.
    fn concat_len(&self) -> usize {
        // pattern + buffers + dtype + size (3) + tuning (5)
        self.pattern_cells() + 1 + 1 + 3 + 5
    }

    /// Total feature dimensionality for this configuration.
    pub fn dim(&self) -> usize {
        match self.config.encoding {
            EncodingKind::PaperConcat => self.concat_len(),
            EncodingKind::Interaction => self.concat_len() + SIGMA_LEN * PI_LEN,
        }
    }

    /// Encodes `exec` into a fresh vector.
    pub fn encode(&self, exec: &StencilExecution) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.dim());
        self.encode_into(exec, &mut out);
        out
    }

    /// Encodes `exec`, reusing `out` (cleared first). Every emitted value is
    /// clamped to `[0, 1]`.
    pub fn encode_into(&self, exec: &StencilExecution, out: &mut Vec<f64>) {
        out.clear();
        let q = exec.instance();
        let t = exec.tuning();
        self.write_instance_prefix(q, out);
        self.write_tuning_block(t, out);
        if self.config.encoding == EncodingKind::Interaction {
            let sigma = self.instance_descriptor(q);
            let pi = self.tuning_descriptor(&InstanceFacts::of(q), t);
            write_interactions(&sigma, &pi, out);
        }
        debug_assert_eq!(out.len(), self.dim());
        debug_assert!(out.iter().all(|v| (0.0..=1.0).contains(v)), "feature out of [0,1]");
    }

    /// Precomputes everything about `q` that candidate encoding needs:
    /// the instance feature prefix, the `sigma` descriptor and the scalar
    /// kernel/size facts feeding the per-tuning `pi` descriptor. Build this
    /// once per query, then call [`append_candidate`](Self::append_candidate)
    /// per tuning vector — the batch hot path pays neither a
    /// [`StencilInstance`] clone nor a [`TuningSpace`] construction per
    /// candidate.
    pub fn query_features(&self, q: &StencilInstance) -> QueryFeatures {
        let mut prefix = Vec::with_capacity(self.concat_len() - 5);
        self.write_instance_prefix(q, &mut prefix);
        QueryFeatures {
            prefix,
            sigma: self.instance_descriptor(q),
            facts: InstanceFacts::of(q),
            space: TuningSpace::for_dim(q.dim()).expect("instances are 2-D or 3-D"),
        }
    }

    /// Completes a precomputed query block with one tuning vector,
    /// appending the row to `out` — every full row a tuning session scores
    /// is written by this, one reused row at a time (perfbench's per-layer
    /// decomposition also packs such rows into blocks for
    /// `LinearRanker::score_rows_into`). The row is bit-for-bit identical
    /// to [`encode_into`](Self::encode_into) on `StencilExecution::new(q, t)`.
    ///
    /// Admissibility is *not* checked here — validate the batch up front
    /// with [`QueryFeatures::space`].
    pub fn append_candidate(&self, qf: &QueryFeatures, t: TuningVector, out: &mut Vec<f64>) {
        out.extend_from_slice(&qf.prefix);
        self.write_tuning_block(t, out);
        if self.config.encoding == EncodingKind::Interaction {
            let pi = self.tuning_descriptor(&qf.facts, t);
            write_interactions(&qf.sigma, &pi, out);
        }
    }

    /// Folds the score the linear weights `w` give every candidate of
    /// `qf`'s predefined set into `out`, per query instead of row by row.
    ///
    /// A row is `[prefix(q), tau(t), sigma(q) x pi(q, t)]` (the paper
    /// layout has no product block), and `tau = pi[0..5]`. While every
    /// `sigma` entry lies in `[0, 1]`, so does every product (`pi` always
    /// does), the interaction clamp never fires, and
    /// `w . row = c + u . pi(t)` with `c = w_prefix . prefix(q)` and
    /// `u = W_int^T sigma + [w_tau, 0, ...]`. Each `pi` entry depends on
    /// one part of `t` only, so a candidate's value is `(p + e) + d` from
    /// per-triple, per-(triple, chunk) and per-(x block, unroll) terms
    /// (540, 2160 and 40 in 3-D; see [`FoldedScores`]). Each term is
    /// computed once per distinct input: a block norm per axis value, the
    /// clipped-block and chunk terms per distinct triple of blocks clipped
    /// to the grid.
    ///
    /// The values equal the full-row dot products in real arithmetic, not
    /// bit for bit: the two differ by rounding only. A caller that needs
    /// the full-row bits rescores the candidates it keeps with
    /// [`append_candidate`](Self::append_candidate).
    ///
    /// Returns `false`, leaving `out` empty, when some `sigma` entry lies
    /// outside `[0, 1]` (a pattern wider than `max_offset`) or some term
    /// is not finite.
    ///
    /// # Panics
    /// Panics when `w.len() != self.dim()`.
    pub fn fold_predefined(&self, qf: &QueryFeatures, w: &[f64], out: &mut FoldedScores) -> bool {
        assert_eq!(w.len(), self.dim(), "weight dimension mismatch");
        out.clear();
        if !qf.sigma.iter().all(|v| (0.0..=1.0).contains(v)) {
            return false;
        }
        let (c, u) = self.fold_coefficients(qf, w);
        let f = &qf.facts;
        let axes = qf.space.predefined_axes();

        // Per block axis: `u_j` times each block's norm (an axis holds at
        // most 10 blocks), and how many values its blocks take clipped to
        // the grid. The axis ascends, so block `i` clips to the
        // `min(i, distinct - 1)`-th of them.
        let max = self.config.block_log2_max;
        let axis_terms = |axis: &[u32], n: u32, j: usize| {
            let terms: [f64; 10] =
                std::array::from_fn(|i| axis.get(i).map_or(0.0, |&b| u[j] * norm_log2(b, max)));
            (terms, axis.iter().position(|&b| b >= n).map_or(axis.len(), |i| i + 1))
        };
        let (size, chunks) = (f.size, axes.c.map(|ch| u[PI_CHUNK] * self.pi_chunk(ch)));
        let (ux, nx) = axis_terms(axes.bx, size.x, PI_BLOCK[0]);
        let (uy, ny) = axis_terms(axes.by, size.y, PI_BLOCK[1]);
        let (uz, nz) = axis_terms(axes.bz, size.z, PI_BLOCK[2]);
        for (ix, &bx) in axes.bx.iter().enumerate() {
            let unroll = axes.u.map(|un| {
                u[PI_UNROLL] * self.pi_unroll(un) + u[PI_CLEANUP] * pi_cleanup(bx.min(size.x), un)
            });
            let unroll_max = largest(unroll);
            out.unroll.push(unroll);
            for (iy, &by) in axes.by.iter().enumerate() {
                for (iz, &bz) in axes.bz.iter().enumerate() {
                    // A clipped triple first occurs at its own indices, in
                    // index order: its terms are computed there.
                    let ci = (ix.min(nx - 1) * ny + iy.min(ny - 1)) * nz + iz.min(nz - 1);
                    if ci == out.chunks.len() {
                        let (pi, tiles) =
                            clipped_block(f, bx.min(size.x), by.min(size.y), bz.min(size.z));
                        let chunk = std::array::from_fn(|i| {
                            let [t0, t1] = pi_tiles(tiles, axes.c[i]);
                            chunks[i] + u[PI_TILES[0]] * t0 + u[PI_TILES[1]] * t1
                        });
                        let products = std::array::from_fn(|i| u[PI_BLOCK[3 + i]] * pi[i]);
                        out.products.push(products);
                        out.chunks.push(chunk);
                    }
                    let p =
                        out.products[ci].iter().fold(c + ux[ix] + uy[iy] + uz[iz], |a, v| a + v);
                    // Rounded addition is monotone, so this is the largest
                    // of the triple's values, bit for bit.
                    out.maxima.push(p + largest(out.chunks[ci]) + unroll_max);
                    out.triples.push((p, ci));
                }
            }
        }
        debug_assert_eq!(out.len(), axes.len(), "every candidate folded");
        let mut terms =
            out.maxima.iter().chain(out.chunks.iter().flatten()).chain(out.unroll.iter().flatten());
        let finite = terms.all(|v| v.is_finite());
        if !finite {
            out.clear();
        }
        finite
    }

    /// The query's `c = w_prefix . prefix(q)` and
    /// `u = W_int^T sigma + [w_tau, 0, ...]` (no `W_int` in the paper layout).
    fn fold_coefficients(&self, qf: &QueryFeatures, w: &[f64]) -> (f64, [f64; PI_LEN]) {
        let p = qf.prefix.len();
        let c = w[..p].iter().zip(&qf.prefix).fold(0.0, |acc, (w, x)| acc + w * x);
        let mut u = [0.0; PI_LEN];
        u[..5].copy_from_slice(&w[p..p + 5]);
        if self.config.encoding == EncodingKind::Interaction {
            for (i, &s) in qf.sigma.iter().enumerate() {
                for (uj, wij) in u.iter_mut().zip(&w[p + 5 + i * PI_LEN..][..PI_LEN]) {
                    *uj += wij * s;
                }
            }
        }
        (c, u)
    }

    /// Writes the instance-dependent concat prefix: pattern occupancy block,
    /// buffer count, element type and (log2-normalized) grid size.
    fn write_instance_prefix(&self, q: &StencilInstance, out: &mut Vec<f64>) {
        let k = q.kernel();
        let cfg = &self.config;

        // Pattern block. Patterns wider than the supported offset are
        // clipped per-cell (the paper constrains patterns to the considered
        // offset up front; clipping keeps the encoder total).
        let r = cfg.max_offset as i32;
        let side = self.pattern_side();
        let start = out.len();
        out.resize(start + self.pattern_cells(), 0.0);
        for (o, c) in k.pattern().iter() {
            if o.dx.abs() > r || o.dy.abs() > r || o.dz.abs() > r {
                continue;
            }
            let ix = (o.dx + r) as usize;
            let iy = (o.dy + r) as usize;
            let iz = (o.dz + r) as usize;
            out[start + (iz * side + iy) * side + ix] =
                (c.min(cfg.count_cap) as f64) / cfg.count_cap as f64;
        }

        // Buffers and dtype.
        out.push((k.buffers().min(cfg.max_buffers) as f64) / cfg.max_buffers as f64);
        out.push(k.dtype().feature());

        // Size (log2-normalized; sz = 1 encodes to 0 for 2-D stencils).
        for extent in q.size().as_array() {
            out.push(norm_log2(extent, cfg.size_log2_max));
        }
    }

    /// Writes the five normalized tuning components (`pi[0..5]`).
    fn write_tuning_block(&self, t: TuningVector, out: &mut Vec<f64>) {
        let max = self.config.block_log2_max;
        out.extend([norm_log2(t.bx, max), norm_log2(t.by, max), norm_log2(t.bz, max)]);
        out.push(self.pi_unroll(t.u));
        out.push(self.pi_chunk(t.c));
    }

    /// Compact per-instance descriptor `sigma` (constant within an instance).
    fn instance_descriptor(&self, q: &StencilInstance) -> [f64; SIGMA_LEN] {
        let k = q.kernel();
        let p = k.pattern();
        let (rx, ry, rz) = p.radius_per_axis();
        let rmax = self.config.max_offset as f64;
        let s = q.size();
        let log_points = (s.points() as f64).log2() / 33.0; // 2048^3 = 2^33
        [
            1.0,
            (p.len() as f64 / 64.0).min(1.0),
            rx as f64 / rmax,
            ry as f64 / rmax,
            rz as f64 / rmax,
            p.density().min(1.0),
            (k.buffers().min(self.config.max_buffers) as f64) / self.config.max_buffers as f64,
            k.dtype().feature(),
            if s.is_2d() { 0.0 } else { 1.0 },
            log_points.clamp(0.0, 1.0),
            norm_log2(s.x, self.config.size_log2_max),
            norm_log2(s.y, self.config.size_log2_max),
            norm_log2(s.z, self.config.size_log2_max),
        ]
    }

    /// Compact per-execution tuning descriptor `pi`. All components are
    /// static functions of `(k, s, t)`; none requires running the stencil.
    /// Assembled from the per-dependency parts below, which
    /// [`fold_predefined`](Self::fold_predefined) calls too.
    fn tuning_descriptor(&self, f: &InstanceFacts, t: TuningVector) -> [f64; PI_LEN] {
        let max = self.config.block_log2_max;
        let norms = [norm_log2(t.bx, max), norm_log2(t.by, max), norm_log2(t.bz, max)];
        let (clipped, tiles) =
            clipped_block(f, t.bx.min(f.size.x), t.by.min(f.size.y), t.bz.min(f.size.z));
        let mut pi = [0.0; PI_LEN];
        for (&j, &v) in PI_BLOCK.iter().zip(norms.iter().chain(&clipped)) {
            pi[j] = v;
        }
        pi[PI_UNROLL] = self.pi_unroll(t.u);
        pi[PI_CHUNK] = self.pi_chunk(t.c);
        let [t0, t1] = pi_tiles(tiles, t.c);
        (pi[PI_TILES[0]], pi[PI_TILES[1]]) = (t0, t1);
        pi[PI_CLEANUP] = pi_cleanup(t.bx.min(f.size.x), t.u);
        pi
    }

    /// `pi[PI_UNROLL]`: the normalized unroll factor.
    fn pi_unroll(&self, u: u32) -> f64 {
        u.min(self.config.unroll_max) as f64 / self.config.unroll_max as f64
    }

    /// `pi[PI_CHUNK]`: the log-normalized chunk size.
    fn pi_chunk(&self, c: u32) -> f64 {
        norm_log2(c, self.config.chunk_log2_max)
    }

    /// Reconstructs a stencil execution from a feature vector (the inverse
    /// mapping the paper requires of its framework). Works on the
    /// concatenated prefix, so vectors from either encoding decode. The
    /// kernel name is not part of the features and is synthesized.
    pub fn decode(&self, features: &[f64]) -> Result<StencilExecution, ModelError> {
        if features.len() < self.concat_len() {
            return Err(ModelError::DecodeError(format!(
                "need at least {} features, got {}",
                self.concat_len(),
                features.len()
            )));
        }
        let cfg = &self.config;
        let cells = self.pattern_cells();
        let mut dense = vec![0u16; cells];
        for (i, d) in dense.iter_mut().enumerate() {
            *d = (features[i].clamp(0.0, 1.0) * cfg.count_cap as f64).round() as u16;
        }
        let pattern = crate::pattern::StencilPattern::from_dense(&dense, cfg.max_offset)?;
        let mut idx = cells;
        let mut next = || {
            let v = features[idx];
            idx += 1;
            v
        };
        let buffers = ((next() * cfg.max_buffers as f64).round() as u8).clamp(1, cfg.max_buffers);
        let dtype = DType::from_feature(next());
        let sx = denorm_log2(next(), cfg.size_log2_max);
        let sy = denorm_log2(next(), cfg.size_log2_max);
        let sz = denorm_log2(next(), cfg.size_log2_max);
        let size = GridSize { x: sx, y: sy, z: sz };
        let bx = denorm_log2(next(), cfg.block_log2_max);
        let by = denorm_log2(next(), cfg.block_log2_max);
        let bz = denorm_log2(next(), cfg.block_log2_max);
        let u = (next() * cfg.unroll_max as f64).round() as u32;
        let c = denorm_log2(next(), cfg.chunk_log2_max);

        let kernel = StencilKernel::new("decoded", pattern, buffers, dtype)
            .map_err(|e| ModelError::DecodeError(e.to_string()))?;
        let instance = StencilInstance::new(kernel, size)
            .map_err(|e| ModelError::DecodeError(e.to_string()))?;
        let space = TuningSpace::for_dim(instance.dim())
            .map_err(|e| ModelError::DecodeError(e.to_string()))?;
        let tuning = space.clamp(&TuningVector::new(bx, by, bz, u, c));
        StencilExecution::new(instance, tuning).map_err(|e| ModelError::DecodeError(e.to_string()))
    }
}

/// Precomputed per-instance encoding state: the concat feature prefix plus
/// the scalar facts the per-candidate completion needs. Produced by
/// [`FeatureEncoder::query_features`]; consumed by
/// [`FeatureEncoder::append_candidate`].
#[derive(Debug, Clone, PartialEq)]
pub struct QueryFeatures {
    /// Instance-dependent concat prefix (pattern + buffers + dtype + size).
    prefix: Vec<f64>,
    /// Instance descriptor `sigma` (only used by the interaction layout).
    sigma: [f64; SIGMA_LEN],
    facts: InstanceFacts,
    space: TuningSpace,
}

impl QueryFeatures {
    /// The tuning space of the instance's dimensionality — borrow this for
    /// per-candidate admissibility checks instead of constructing a fresh
    /// space (or a [`StencilExecution`]) in the loop.
    pub fn space(&self) -> &TuningSpace {
        &self.space
    }

    /// Dimensionality of the underlying instance (2 or 3).
    pub fn dim(&self) -> u8 {
        self.space.dim
    }

    /// Whether `t` is admissible for the underlying instance.
    pub fn is_admissible(&self, t: &TuningVector) -> bool {
        self.space.contains(t)
    }

    /// The grid size of the underlying instance.
    pub fn size(&self) -> GridSize {
        self.facts.size
    }
}

/// The instance facts the tuning descriptor `pi` reads.
#[derive(Debug, Clone, Copy, PartialEq)]
struct InstanceFacts {
    size: GridSize,
    radius: (u32, u32, u32),
    buffers: u8,
    dtype: DType,
}

impl InstanceFacts {
    fn of(q: &StencilInstance) -> Self {
        let k = q.kernel();
        InstanceFacts {
            size: q.size(),
            radius: k.pattern().radius_per_axis(),
            buffers: k.buffers(),
            dtype: k.dtype(),
        }
    }
}

/// A query's folded scores over its predefined set
/// ([`FeatureEncoder::fold_predefined`]) as separable terms: candidate
/// `16 t + 4 i + j` (block triple `t`, unroll `i`, chunk `j`, in
/// [`TuningSpace::predefined_set`] order) is `(p + e) + d`, from its
/// triple's `p`, its clipped triple's chunk term `e` and its x block's
/// unroll term `d`. Each triple also keeps the largest of its 16 values,
/// bit for bit, so the k-th largest value and the band are found without
/// visiting every value. Reusing one value across queries keeps its
/// buffers.
#[derive(Debug, Default)]
pub struct FoldedScores {
    /// Per block triple: `p`, and its clipped triple's index in `chunks`.
    triples: Vec<(f64, usize)>,
    /// Per block triple: the largest of its values.
    maxima: Vec<f64>,
    /// Per distinct clipped block triple: `u_j pi_j` for the clipped-block
    /// entries of [`PI_BLOCK`], in order.
    products: Vec<[f64; 6]>,
    /// Per distinct clipped block triple: `e` for each chunk size.
    chunks: Vec<[f64; 4]>,
    /// Per x block: `d` for each unroll factor.
    unroll: Vec<[f64; 4]>,
}

impl FoldedScores {
    /// Number of candidates folded: 0 after [`clear`](Self::clear) or a
    /// fold that did not apply.
    pub fn len(&self) -> usize {
        self.triples.len() * 16
    }

    /// Whether no candidate is folded.
    pub fn is_empty(&self) -> bool {
        self.triples.is_empty()
    }

    /// Drops every value, keeping the buffers.
    pub fn clear(&mut self) {
        self.triples.clear();
        self.maxima.clear();
        self.products.clear();
        self.chunks.clear();
        self.unroll.clear();
    }

    /// Every candidate's value, in order.
    pub fn values(&self) -> impl Iterator<Item = f64> + '_ {
        (0..self.triples.len()).flat_map(|t| self.triple(t))
    }

    /// The `k`-th largest value (`1 <= k <= self.len()`), reusing
    /// `scratch`. At least `k` values reach the `k`-th largest triple
    /// maximum `t0` (minus infinity past the triple count), so the `k`
    /// largest values all lie in triples whose maximum reaches `t0`: only
    /// those are expanded.
    pub fn kth_largest(&self, k: usize, scratch: &mut Vec<f64>) -> f64 {
        let maxima = &self.maxima;
        let t0 = (k <= maxima.len()).then(|| nth_largest(scratch, maxima.iter().copied(), k));
        let t0 = t0.unwrap_or(f64::NEG_INFINITY);
        let triples = (0..maxima.len()).filter(|&t| maxima[t] >= t0);
        nth_largest(scratch, triples.flat_map(|t| self.triple(t)), k)
    }

    /// Appends to `band`, ascending, every candidate whose value reaches
    /// `floor`. A triple whose maximum is under the floor holds none, so
    /// only the others are expanded.
    pub fn band(&self, floor: f64, band: &mut Vec<usize>) {
        for t in (0..self.maxima.len()).filter(|&t| self.maxima[t] >= floor) {
            let values = self.triple(t);
            band.extend((0..16).filter(|&j| values[j] >= floor).map(|j| 16 * t + j));
        }
    }

    /// The values of block triple `t`'s 16 candidates, in order.
    fn triple(&self, t: usize) -> [f64; 16] {
        let (p, ci) = self.triples[t];
        let e = self.chunks[ci];
        let d = self.unroll[t / (self.triples.len() / self.unroll.len())];
        std::array::from_fn(|j| p + e[j % 4] + d[j / 4])
    }
}

/// The `k`-th largest of `values` (`1 <= k <= ` their count), collected
/// into `scratch`.
fn nth_largest(scratch: &mut Vec<f64>, values: impl Iterator<Item = f64>, k: usize) -> f64 {
    scratch.clear();
    scratch.extend(values);
    *scratch.select_nth_unstable_by(k - 1, |a, b| b.total_cmp(a)).1
}

/// The largest of `values` in `f64::total_cmp` order.
fn largest(values: [f64; 4]) -> f64 {
    values.into_iter().max_by(f64::total_cmp).expect("four values")
}

/// The `pi` entries [`PI_BLOCK`]`[3..]` of blocks already clipped to the
/// grid, in that order, and the tiles they cut the grid into. They mirror
/// the arithmetic of `StencilExecution` exactly (bit-for-bit).
fn clipped_block(f: &InstanceFacts, bx: u32, by: u32, bz: u32) -> ([f64; 6], u64) {
    let size = f.size;
    let (rx, ry, rz) = f.radius;
    let tiles_of = |n: u32, b: u32| n.div_ceil(b) as u64;
    let tiles = tiles_of(size.x, bx) * tiles_of(size.y, by) * tiles_of(size.z, bz);

    let tile_volume = bx as f64 * by as f64 * bz as f64;
    // Redundant halo loads per tile relative to its interior, total and
    // per axis (the per-axis terms let a linear model penalize thin
    // tiles along exactly the axes where the stencil is wide).
    let halo_x = 1.0 + 2.0 * rx as f64 / bx as f64;
    let halo_y = 1.0 + 2.0 * ry as f64 / by as f64;
    let halo_z = 1.0 + 2.0 * rz as f64 / bz as f64;
    let halo_ratio = halo_x * halo_y * halo_z;
    // Tile working set vs. a 256 KiB L2 (the paper's testbed), log-scaled.
    let bytes = f.dtype.bytes() as f64;
    let ws = bytes
        * (f.buffers as f64
            * (bx as f64 + 2.0 * rx as f64)
            * (by as f64 + 2.0 * ry as f64)
            * (bz as f64 + 2.0 * rz as f64)
            + tile_volume);
    let ws_ratio = ((ws / (256.0 * 1024.0)).log2() + 10.0) / 20.0;
    let pi = [
        (tile_volume.log2() / 30.0).clamp(0.0, 1.0),
        ((halo_ratio - 1.0) / 7.0).clamp(0.0, 1.0),
        ((halo_x - 1.0) / 2.0).clamp(0.0, 1.0),
        ((halo_y - 1.0) / 2.0).clamp(0.0, 1.0),
        ((halo_z - 1.0) / 2.0).clamp(0.0, 1.0),
        ws_ratio.clamp(0.0, 1.0),
    ];
    (pi, tiles)
}

/// `pi[PI_TILES]`: tiles per thread and chunk balance (12 threads, the
/// paper's testbed) for a tile count and chunk size.
fn pi_tiles(tiles: u64, c: u32) -> [f64; 2] {
    let chunk_count = tiles.div_ceil(c as u64);
    let (tiles, chunks) = (tiles as f64, chunk_count as f64);
    let tiles_per_thread = ((tiles / (12.0 * c as f64)) + 1.0).log2() / 20.0;
    let chunk_balance = ((chunks / 12.0).log2() + 8.0) / 20.0;
    [tiles_per_thread.clamp(0.0, 1.0), chunk_balance.clamp(0.0, 1.0)]
}

/// `pi[PI_CLEANUP]`: vector/unroll cleanup pressure on short x blocks,
/// for the x block clipped to the grid.
fn pi_cleanup(clipped_bx: u32, u: u32) -> f64 {
    ((u + 1) as f64 * 8.0 / clipped_bx as f64).min(1.0)
}

/// Appends the `sigma x pi` outer product, clamped to `[0, 1]`.
fn write_interactions(sigma: &[f64; SIGMA_LEN], pi: &[f64; PI_LEN], out: &mut Vec<f64>) {
    for &sv in sigma {
        for &pv in pi {
            out.push((sv * pv).clamp(0.0, 1.0));
        }
    }
}

/// `log2(v) / log2max`, clamped to `[0, 1]`; `v = 1` maps to 0.
fn norm_log2(v: u32, log2max: f64) -> f64 {
    if v <= 1 {
        return 0.0;
    }
    ((v as f64).log2() / log2max).clamp(0.0, 1.0)
}

/// Inverse of [`norm_log2`] with integer rounding.
fn denorm_log2(f: f64, log2max: f64) -> u32 {
    (f.clamp(0.0, 1.0) * log2max).exp2().round() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};

    fn executions_for_tests() -> Vec<StencilExecution> {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
        let mut out = Vec::new();
        for k in StencilKernel::table3_kernels() {
            let sizes: Vec<GridSize> = if k.dim() == 2 {
                vec![GridSize::square(512), GridSize::d2(1024, 768)]
            } else {
                vec![GridSize::cube(64), GridSize::cube(128)]
            };
            let space = TuningSpace::for_dim(k.dim()).unwrap();
            for s in sizes {
                let q = StencilInstance::new(k.clone(), s).unwrap();
                for _ in 0..5 {
                    let t = space.random(&mut rng);
                    out.push(StencilExecution::new(q.clone(), t).unwrap());
                }
            }
        }
        out
    }

    #[test]
    fn dims_match_layouts() {
        let paper = FeatureEncoder::paper_concat();
        assert_eq!(paper.dim(), 343 + 1 + 1 + 3 + 5);
        let inter = FeatureEncoder::default_interaction();
        assert_eq!(inter.dim(), 353 + 13 * 14);
    }

    #[test]
    fn encode_len_matches_dim_and_range() {
        for enc in [FeatureEncoder::paper_concat(), FeatureEncoder::default_interaction()] {
            for e in executions_for_tests() {
                let f = enc.encode(&e);
                assert_eq!(f.len(), enc.dim());
                for (i, v) in f.iter().enumerate() {
                    assert!((0.0..=1.0).contains(v), "feature {i} = {v} out of range for {e}");
                }
            }
        }
    }

    #[test]
    fn interaction_prefix_equals_paper_concat() {
        let paper = FeatureEncoder::paper_concat();
        let inter = FeatureEncoder::default_interaction();
        for e in executions_for_tests().into_iter().take(20) {
            let fp = paper.encode(&e);
            let fi = inter.encode(&e);
            assert_eq!(&fi[..fp.len()], &fp[..]);
        }
    }

    #[test]
    fn decode_roundtrips_table3_executions() {
        for enc in [FeatureEncoder::paper_concat(), FeatureEncoder::default_interaction()] {
            for e in executions_for_tests() {
                let f = enc.encode(&e);
                let back = enc.decode(&f).unwrap();
                assert_eq!(back.instance().kernel().pattern(), e.instance().kernel().pattern());
                assert_eq!(back.instance().kernel().buffers(), e.instance().kernel().buffers());
                assert_eq!(back.instance().kernel().dtype(), e.instance().kernel().dtype());
                assert_eq!(back.instance().size(), e.instance().size());
                assert_eq!(back.tuning(), e.tuning(), "tuning mismatch for {e}");
            }
        }
    }

    #[test]
    fn decode_rejects_short_vectors() {
        let enc = FeatureEncoder::paper_concat();
        assert!(enc.decode(&[0.0; 10]).is_err());
    }

    #[test]
    fn decode_rejects_empty_pattern() {
        let enc = FeatureEncoder::paper_concat();
        let f = vec![0.0; enc.dim()];
        assert!(enc.decode(&f).is_err());
    }

    #[test]
    fn within_instance_only_tuning_features_vary_in_concat() {
        let enc = FeatureEncoder::paper_concat();
        let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(64)).unwrap();
        let a = enc
            .encode(&StencilExecution::new(q.clone(), TuningVector::new(8, 8, 8, 0, 1)).unwrap());
        let b = enc.encode(&StencilExecution::new(q, TuningVector::new(64, 16, 4, 4, 8)).unwrap());
        let tuning_start = enc.dim() - 5;
        assert_eq!(&a[..tuning_start], &b[..tuning_start]);
        assert_ne!(&a[tuning_start..], &b[tuning_start..]);
    }

    #[test]
    fn interaction_features_vary_within_instance() {
        let enc = FeatureEncoder::default_interaction();
        let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(64)).unwrap();
        let a = enc
            .encode(&StencilExecution::new(q.clone(), TuningVector::new(8, 8, 8, 0, 1)).unwrap());
        let b = enc.encode(&StencilExecution::new(q, TuningVector::new(64, 16, 4, 4, 8)).unwrap());
        let ndiff = a.iter().zip(&b).filter(|(x, y)| x != y).count();
        // Tuning block (5) plus a healthy share of the 143 interaction terms.
        assert!(ndiff > 40, "only {ndiff} features vary");
    }

    #[test]
    fn norm_log2_properties() {
        assert_eq!(norm_log2(1, 10.0), 0.0);
        assert_eq!(norm_log2(0, 10.0), 0.0);
        assert!((norm_log2(1024, 10.0) - 1.0).abs() < 1e-12);
        assert!((norm_log2(32, 10.0) - 0.5).abs() < 1e-12);
        // Clamps above the max.
        assert_eq!(norm_log2(4096, 10.0), 1.0);
    }

    #[test]
    fn denorm_log2_inverts_norm_for_all_block_sizes() {
        for b in 2..=1024u32 {
            let f = norm_log2(b, 10.0);
            assert_eq!(denorm_log2(f, 10.0), b, "block {b}");
        }
    }

    #[test]
    fn encode_into_reuses_buffer() {
        let enc = FeatureEncoder::default_interaction();
        let execs = executions_for_tests();
        let mut buf = Vec::new();
        enc.encode_into(&execs[0], &mut buf);
        let first = buf.clone();
        enc.encode_into(&execs[1], &mut buf);
        assert_eq!(buf.len(), enc.dim());
        enc.encode_into(&execs[0], &mut buf);
        assert_eq!(buf, first);
    }

    #[test]
    fn append_candidate_matches_encode_into_bit_for_bit() {
        for enc in [FeatureEncoder::paper_concat(), FeatureEncoder::default_interaction()] {
            let (mut fast, mut slow) = (Vec::new(), Vec::new());
            for e in executions_for_tests() {
                let qf = enc.query_features(e.instance());
                fast.clear();
                enc.append_candidate(&qf, e.tuning(), &mut fast);
                enc.encode_into(&e, &mut slow);
                assert_eq!(fast, slow, "mismatch for {e}");
            }
        }
    }

    #[test]
    fn append_candidate_builds_row_major_matrices() {
        let enc = FeatureEncoder::default_interaction();
        let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(64)).unwrap();
        let qf = enc.query_features(&q);
        let cands = [TuningVector::new(8, 8, 8, 0, 1), TuningVector::new(64, 16, 4, 4, 8)];
        let mut matrix = Vec::new();
        for &t in &cands {
            enc.append_candidate(&qf, t, &mut matrix);
        }
        assert_eq!(matrix.len(), 2 * enc.dim());
        for (i, &t) in cands.iter().enumerate() {
            let exec = StencilExecution::new(q.clone(), t).unwrap();
            assert_eq!(&matrix[i * enc.dim()..(i + 1) * enc.dim()], &enc.encode(&exec)[..]);
        }
    }

    /// Each folded value is `c + u . pi(t)` summed in the fold's order,
    /// `(p + e) + d`, from `tuning_descriptor`'s parts, bit for bit, and
    /// each triple's maximum is the largest of its 16 values: under both
    /// encodings with random weights, for every Table III kernel at sizes
    /// where most blocks clip to the grid and where none or few do.
    #[test]
    fn folded_values_are_the_per_candidate_sums_bit_for_bit() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xF01D);
        let mut folded = FoldedScores::default();
        for enc in [FeatureEncoder::paper_concat(), FeatureEncoder::default_interaction()] {
            let w: Vec<f64> = (0..enc.dim()).map(|_| rng.random_range(-1.0..1.0)).collect();
            for k in StencilKernel::table3_kernels() {
                let mut axis = |lo: u32, hi: u32| rng.random_range(lo..=hi);
                let sizes = if k.dim() == 2 {
                    [GridSize::square(64), GridSize::d2(axis(16, 64), axis(16, 64))]
                        .into_iter()
                        .chain([GridSize::d2(4096, 2048), GridSize::d2(axis(65, 4096), 1024)])
                        .collect::<Vec<_>>()
                } else {
                    [GridSize::cube(64), GridSize::d3(axis(16, 64), axis(16, 64), axis(16, 64))]
                        .into_iter()
                        .chain([GridSize::d3(2048, 1024, 512), GridSize::d3(1024, 512, 64)])
                        .chain([GridSize::d3(axis(65, 2048), axis(65, 1024), axis(16, 512))])
                        .collect()
                };
                for size in sizes {
                    let q = StencilInstance::new(k.clone(), size).unwrap();
                    let qf = enc.query_features(&q);
                    assert!(enc.fold_predefined(&qf, &w, &mut folded), "{q}: the fold ran");
                    let (c, u) = enc.fold_coefficients(&qf, &w);
                    let set = qf.space().predefined_set();
                    assert_eq!(folded.len(), set.len(), "{q}");
                    for (i, (got, &t)) in folded.values().zip(&set).enumerate() {
                        let pi = enc.tuning_descriptor(&qf.facts, t);
                        let p = PI_BLOCK.iter().fold(c, |acc, &j| acc + u[j] * pi[j]);
                        let e = u[PI_CHUNK] * pi[PI_CHUNK]
                            + u[PI_TILES[0]] * pi[PI_TILES[0]]
                            + u[PI_TILES[1]] * pi[PI_TILES[1]];
                        let d = u[PI_UNROLL] * pi[PI_UNROLL] + u[PI_CLEANUP] * pi[PI_CLEANUP];
                        assert_eq!(got.to_bits(), (p + e + d).to_bits(), "{q}, candidate {i} {t}");
                    }
                    for (t, &max) in folded.maxima.iter().enumerate() {
                        let largest = folded.triple(t).into_iter().max_by(f64::total_cmp);
                        assert_eq!(Some(max.to_bits()), largest.map(f64::to_bits), "{q}, {t}");
                    }
                }
            }
        }
    }

    /// `kth_largest` and `band` agree with a sort and a scan over every
    /// value, at `k` around the triple count and with floors equal to a
    /// value (the top one is a triple's maximum).
    #[test]
    fn kth_largest_and_band_match_a_scan_over_every_value() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xBA4D);
        let enc = FeatureEncoder::default_interaction();
        let w: Vec<f64> = (0..enc.dim()).map(|_| rng.random_range(-1.0..1.0)).collect();
        let (mut folded, mut scratch, mut band) = (FoldedScores::default(), Vec::new(), Vec::new());
        for q in [
            StencilInstance::new(StencilKernel::blur(), GridSize::square(96)).unwrap(),
            StencilInstance::new(StencilKernel::laplacian(), GridSize::d3(48, 200, 33)).unwrap(),
        ] {
            assert!(enc.fold_predefined(&enc.query_features(&q), &w, &mut folded), "{q}");
            let values: Vec<f64> = folded.values().collect();
            let mut sorted = values.clone();
            sorted.sort_by(|a, b| b.total_cmp(a));
            for k in [1, 2, 8, 100, 101, 540, 541, values.len() - 1, values.len()] {
                let kth = folded.kth_largest(k, &mut scratch);
                assert_eq!(kth.to_bits(), sorted[k - 1].to_bits(), "{q}, k = {k}");
                band.clear();
                folded.band(kth, &mut band);
                let expected: Vec<usize> =
                    (0..values.len()).filter(|&i| values[i] >= kth).collect();
                assert_eq!(band, expected, "{q}, k = {k}");
            }
        }
    }

    #[test]
    fn query_features_admissibility_matches_space() {
        let enc = FeatureEncoder::default_interaction();
        let q2 = StencilInstance::new(StencilKernel::blur(), GridSize::square(512)).unwrap();
        let qf = enc.query_features(&q2);
        assert_eq!(qf.dim(), 2);
        assert!(qf.is_admissible(&TuningVector::new(8, 8, 1, 0, 1)));
        assert!(!qf.is_admissible(&TuningVector::new(8, 8, 8, 0, 1)));
        assert_eq!(*qf.space(), TuningSpace::d2());
        assert_eq!(qf.size(), GridSize::square(512));
    }

    #[test]
    fn random_generic_patterns_encode_in_range() {
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(99);
        let enc = FeatureEncoder::default_interaction();
        for _ in 0..50 {
            let npts = rng.random_range(1..=30);
            let mut pat = crate::pattern::StencilPattern::new();
            pat.add(crate::pattern::Offset::ORIGIN);
            for _ in 0..npts {
                pat.add(crate::pattern::Offset::new(
                    rng.random_range(-3..=3),
                    rng.random_range(-3..=3),
                    rng.random_range(-3..=3),
                ));
            }
            let k = StencilKernel::new("rnd", pat, rng.random_range(1..=4), DType::F64).unwrap();
            let q = StencilInstance::new(k, GridSize::cube(rng.random_range(16..=256))).unwrap();
            let space = TuningSpace::d3();
            let t = space.random(&mut rng);
            let f = enc.encode(&StencilExecution::new(q, t).unwrap());
            assert!(f.iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }
}
