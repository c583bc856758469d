//! Iterative-compilation search engines (paper Section VI-A).
//!
//! The paper compares its ordinal-regression tuner against four stochastic
//! search techniques, each run for a fixed budget of 1024 evaluations:
//!
//! * a **generational genetic algorithm** ([`ga::GenerationalGa`]) — also
//!   the source of the paper's base configuration for speedups,
//! * a **steady-state genetic algorithm** ([`ssga::SteadyStateGa`], "sGA"),
//! * **differential evolution** ([`de::DifferentialEvolution`]),
//! * an **evolution strategy** ([`es::EvolutionStrategy`]).
//!
//! All algorithms are generic over an integer box space ([`space::IntSpace`])
//! with per-dimension log-scale annotations (blocking and chunk sizes move
//! in powers of two, the unroll factor linearly), minimize a black-box
//! [`objective::Objective`] (simulated or measured runtime), respect an
//! exact evaluation budget, record best-so-far traces per evaluation
//! ([`trace::EvalTrace`], the Fig. 5 curves) and are fully deterministic
//! given a seed.

pub mod bandit;
pub mod de;
pub mod es;
pub mod ga;
pub mod objective;
pub mod random;
pub mod runner;
pub mod space;
pub mod ssga;
pub mod trace;

pub use bandit::BanditSearch;
pub use de::DifferentialEvolution;
pub use es::EvolutionStrategy;
pub use ga::GenerationalGa;
pub use objective::{FnObjective, Objective};
pub use random::RandomSearch;
pub use runner::{paper_baselines, SearchAlgorithm, SearchResult};
pub use space::IntSpace;
pub use trace::{EvalTrace, Evaluator};
