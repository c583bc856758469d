//! # stencil-autotune
//!
//! A complete Rust implementation of *"Autotuning Stencil Computations with
//! Structural Ordinal Regression Learning"* (Cosenza, Durillo, Ermon,
//! Juurlink — IPDPS 2017): a machine-learning autotuner that learns to
//! *rank* stencil code variants and picks high-performance loop-blocking /
//! unrolling / thread-chunking configurations for unseen stencils without
//! executing a single candidate.
//!
//! This facade crate re-exports the whole workspace:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`model`]   | `stencil-model`   | patterns, kernels, instances, tuning vectors, feature encoding |
//! | [`exec`]    | `stencil-exec`    | real multi-threaded tiled execution engine |
//! | [`machine`] | `stencil-machine` | simulated Xeon E5 testbed (cost model + noise) |
//! | [`ranking`] | `ranksvm`         | linear ranking SVM, Kendall τ, baseline learners |
//! | [`search`]  | `stencil-search`  | GA, steady-state GA, differential evolution, ES |
//! | [`gen`]     | `stencil-gen`     | training corpus, C emitter, training-set builder |
//! | [`sorl`]    | `sorl`            | the autotuner: pipeline, ranker, tuning sessions, benchmarks |
//! | [`serve`]   | `sorl-serve`      | multi-tenant tuning service: micro-batching, top-k, decision cache |
//! | [`shard`]   | `sorl-shard`      | fingerprint-sharded fleet: rendezvous routing, warm cache shipping |
//! | [`obs`]     | `sorl-obs`        | observability: traces, flight recorder, Prometheus metrics |
//!
//! ## Quickstart
//!
//! ```no_run
//! use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
//! use stencil_autotune::sorl::session::TuningSession;
//! use stencil_autotune::model::{GridSize, StencilInstance, StencilKernel};
//!
//! // One-off training phase (pre-processing; seconds on the simulator).
//! let outcome = TrainingPipeline::new(PipelineConfig::default()).run();
//! let mut session = TuningSession::new(outcome.ranker);
//!
//! // Tune any unseen stencil instantly.
//! let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(256)).unwrap();
//! let decision = session.tune(&q);
//! println!("{} -> {} ({} candidates in {:.2} ms)",
//!          q, decision.tuning, decision.candidates, decision.seconds * 1e3);
//! ```
//!
//! Every ranking query is a [`sorl::session::TuningSession`] call: the
//! paper's top-1 (`tune`), top-k, and explicit candidate lists.
//! Predefined-set queries fold the linear score per query and rescore only
//! the near-ties on full feature rows, so every answer has the full-row
//! bits. A session caches the predefined candidate sets and reuses scratch
//! buffers (zero per-candidate heap allocation in steady state); one loop
//! scores every full row, one reused row at a time, on the calling thread.
//!
//! When many *concurrent* callers tune many (often repeated) instances,
//! run a [`serve::TuneService`]: queued requests are micro-batched and
//! deduplicated by instance, answers are the top-k configurations with
//! scores, and a decision cache keyed on the canonical
//! [`model::InstanceKey`] absorbs repeated traffic entirely (see
//! `examples/serve_demo.rs`).
//!
//! See `examples/` for runnable end-to-end scenarios and `crates/bench` for
//! the binaries regenerating every table and figure of the paper.

pub use sorl;
pub use sorl_obs as obs;
pub use sorl_serve as serve;
pub use sorl_shard as shard;
pub use stencil_exec as exec;
pub use stencil_gen as gen;
pub use stencil_machine as machine;
pub use stencil_model as model;
pub use stencil_search as search;

/// The learning-to-rank machinery (re-exported under a clearer name).
pub use ranksvm as ranking;
