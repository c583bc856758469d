//! Training corpus and training-set generation (paper Section V-B, Fig. 3).
//!
//! The paper trains on 60 automatically generated stencil codes drawn from
//! the four Fig. 1 shape families (line, hyperplane, hypercube, laplacian)
//! with varying offsets, buffer counts and element types: 20 two-dimensional
//! and 40 three-dimensional kernels. Crossing them with the training input
//! sizes (256^2..2048^2 for 2-D, 64^3..256^3 for 3-D) yields exactly 200
//! stencil instances; each instance is executed with randomly drawn tuning
//! vectors — twice as many for 3-D kernels — and the measurements are
//! organized into per-instance partial rankings.
//!
//! [`corpus`] builds the kernels and instances, [`trainingset`] runs them on
//! the simulated machine and emits a ready-to-train
//! [`ranksvm::RankingDataset`], and [`codegen`] is a PATUS-like C emitter
//! that makes the "double compilation" phase tangible. Table II's "TS
//! Comp." column comes from `stencil_machine::CompileModel`, an analytic
//! model of that phase's cost, not from the emitted code.

pub mod codegen;
pub mod corpus;
pub mod trainingset;

pub use codegen::emit_c_kernel;
pub use corpus::{Corpus, CorpusConfig};
pub use trainingset::{SamplingStrategy, TrainingExecution, TrainingSet, TrainingSetBuilder};
