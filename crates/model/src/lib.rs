//! Stencil modeling framework (paper Section III).
//!
//! This crate defines the algebraic representation of a stencil computation
//! used throughout the workspace:
//!
//! * [`StencilPattern`] — the geometric access pattern (*shape*) of a stencil,
//!   a sparse occupancy map of neighbour offsets with access counts,
//! * [`StencilKernel`] — pattern + number of input buffers + element type,
//! * [`GridSize`] / [`StencilInstance`] — a kernel applied to a concrete
//!   input size `q = (k, s)`,
//! * [`TuningVector`] / [`TuningSpace`] — the PATUS-style transformation
//!   parameters `t = (bx, by, bz, u, c)` and their admissible ranges,
//! * [`StencilExecution`] — the triple `(k, s, t)`,
//! * [`InstanceKey`] — the canonical hashable projection of an instance onto
//!   its feature-relevant fields (what serving-layer decision caches key on),
//! * [`FeatureEncoder`] — the invertible mapping from an execution to a
//!   real-valued feature vector normalized to `[0, 1]`, which enables the
//!   structural (ordinal-regression) learning of the paper.
//!
//! Everything here is pure data modeling: no code is executed and no
//! hardware is touched. The execution engine lives in `stencil-exec`, the
//! simulated testbed in `stencil-machine`.

pub mod dtype;
pub mod error;
pub mod execution;
pub mod features;
pub mod fingerprint;
pub mod instance;
pub mod kernel;
pub mod key;
pub mod matrix;
pub mod pattern;
pub mod shape;
pub mod size;
pub mod stats;
pub mod tuning;

pub use dtype::DType;
pub use error::ModelError;
pub use execution::StencilExecution;
pub use features::{EncodingKind, FeatureConfig, FeatureEncoder, FoldedScores, QueryFeatures};
pub use instance::StencilInstance;
pub use kernel::StencilKernel;
pub use key::InstanceKey;
pub use matrix::CandidateMatrix;
pub use pattern::{Offset, StencilPattern};
pub use shape::ShapeFamily;
pub use size::GridSize;
pub use tuning::{TuningSpace, TuningVector};
