//! Structural Ordinal Regression Learning (SORL) for stencil autotuning —
//! the paper's contribution assembled from the workspace substrates.
//!
//! # Overview
//!
//! The tuner learns, once per target machine, a *ranking function* over
//! stencil executions: given an unseen stencil instance `q = (kernel,
//! size)` and a set of candidate tuning vectors, it orders the candidates
//! by predicted performance **without executing any of them**, then returns
//! the top-ranked configuration. Training data comes from a generated
//! corpus of stencil codes whose executions are grouped into per-instance
//! partial rankings and fed to a pairwise linear ranking SVM.
//!
//! ```
//! use sorl::pipeline::{PipelineConfig, TrainingPipeline};
//! use stencil_model::{GridSize, StencilInstance, StencilKernel};
//!
//! // Train a small model (a few seconds; larger sizes rank better).
//! let outcome = TrainingPipeline::new(PipelineConfig {
//!     training_size: 960,
//!     ..Default::default()
//! })
//! .run();
//!
//! // Tune an unseen stencil: rank the predefined candidate set.
//! let mut session = sorl::TuningSession::new(outcome.ranker);
//! let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap();
//! let decision = session.tune(&q);
//! println!("run {} with {}", q, decision.tuning);
//! ```
//!
//! # Modules
//!
//! * [`pipeline`] — training-set generation + model fitting with phase
//!   timings (Table II),
//! * [`ranker`] — the trained model: feature encoding + linear scoring,
//!   with JSON persistence,
//! * [`session`] — [`session::TuningSession`], the one way to rank: the
//!   standalone tuner's top-1 over the hierarchical predefined
//!   configuration sets (1600 / 8640 candidates, scored from a per-query
//!   fold with near-ties rescored exactly), top-k, batches of queries,
//!   and explicit candidate lists (full feature rows, optionally
//!   multi-threaded) — with cached candidate sets and zero steady-state
//!   allocation,
//! * [`tuner`] — the tuner's answers ([`TunerDecision`], [`TopK`]),
//! * [`hybrid`] — ranker-seeded iterative search (the paper's future-work
//!   coupling of the model with search),
//! * [`benchmarks`] — the 17 Table III evaluation benchmarks,
//! * [`objective`] — adapters exposing simulated machines as search
//!   objectives,
//! * [`experiments`] — shared measurement helpers for the experiment
//!   binaries in `sorl-bench`.

pub mod benchmarks;
pub mod experiments;
pub mod hybrid;
pub mod objective;
pub mod pipeline;
pub mod ranker;
pub mod session;
pub mod tuner;

pub use benchmarks::{table3_benchmarks, Benchmark};
pub use hybrid::HybridTuner;
pub use objective::MachineObjective;
pub use pipeline::{PhaseTimings, PipelineConfig, PipelineOutcome, TrainingPipeline};
pub use ranker::{synthetic_ranker, StencilRanker};
pub use session::{predefined_candidates, TuningSession};
pub use tuner::{TopK, TunerDecision};
