//! Real multi-threaded stencil execution engine.
//!
//! This crate is the runnable counterpart of the simulated machine: it
//! actually applies stencil kernels to grids, honouring the same tuning
//! parameters the paper exposes through PATUS:
//!
//! * **loop blocking** — the iteration space is decomposed into
//!   `(bx, by, bz)` tiles ([`tiles`]),
//! * **loop unrolling** — the innermost (x) loop is specialized for unroll
//!   factors 0..=8 via const generics ([`engine`]),
//! * **chunked multi-threading** — `c` consecutive tiles form a chunk;
//!   chunks are claimed dynamically by the workers of the persistent
//!   thread pool each [`Engine`] owns ([`pool`]).
//!
//! The nine Table III benchmark kernels are implemented in [`kernels`],
//! together with a [`kernels::WeightedKernel`] for arbitrary linear
//! stencils. [`mod@reference`] provides a naive single-threaded interpreter
//! used by the test-suite to verify that no combination of tiling,
//! unrolling and chunking ever skips, duplicates or reorders a grid point
//! update.
//!
//! The engine is what examples and integration tests run; the large-scale
//! experiments use `stencil-machine` instead: they take on the order of
//! 10^5 executions at sizes up to 256^3, and its deterministic model of
//! the paper's Xeon stands in for that hardware on any host.

pub mod engine;
pub mod grid;
pub mod kernels;
pub mod pool;
pub mod reference;
pub mod tiles;

pub use engine::{Engine, MeasureConfig};
pub use grid::Grid;
pub use kernels::{
    BenchmarkKernel, Blur, Divergence, Edge, GameOfLife, Gradient, Laplacian, Laplacian6,
    StencilFn, Tricubic, Wave, WeightedKernel,
};
pub use pool::ThreadPool;
pub use tiles::{Tile, TileGrid};
