//! Model-guided iterative search (the paper's Section VII future work).
//!
//! The ranker's top-ranked predefined configurations are injected into the
//! initial population of the generational GA, so the search starts from
//! model-predicted good regions instead of random points. The ablation
//! experiment (`sorl-bench`, A2) compares seeded vs. unseeded searches in
//! evaluations-to-target.

use stencil_machine::Machine;
use stencil_model::{StencilInstance, TuningSpace};
use stencil_search::{GenerationalGa, SearchResult};

use crate::objective::MachineObjective;
use crate::ranker::StencilRanker;
use crate::session::TuningSession;

/// Ranker-seeded genetic search.
#[derive(Debug, Clone)]
pub struct HybridTuner {
    ranker: StencilRanker,
    /// Number of top-ranked configurations injected into the population.
    pub seeds: usize,
    /// The GA used for the search part.
    pub ga: GenerationalGa,
}

impl HybridTuner {
    /// Wraps a trained ranker with default GA parameters and 8 seeds.
    pub fn new(ranker: StencilRanker) -> Self {
        HybridTuner { ranker, seeds: 8, ga: GenerationalGa::default() }
    }

    /// Runs a seeded GA of `budget` evaluations against `machine`.
    pub fn search(
        &self,
        machine: &Machine,
        instance: &StencilInstance,
        budget: usize,
        seed: u64,
    ) -> SearchResult {
        let space = TuningSpace::for_dim(instance.dim()).expect("valid dims");
        // Partial select: seeding needs the top handful, not a full sort of
        // the 1600/8640-candidate set.
        let top = TuningSession::new(self.ranker.clone()).top_k_predefined(instance, self.seeds);
        let seeds: Vec<Vec<i64>> = top.tunings().map(|t| space.to_genome(&t)).collect();
        let mut objective = MachineObjective::new(machine, instance.clone());
        let search_space = objective.search_space();
        self.ga.run_with_seeds(&search_space, &mut objective, budget, seed, &seeds)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{PipelineConfig, TrainingPipeline};
    use stencil_model::{GridSize, StencilKernel};
    use stencil_search::SearchAlgorithm;

    fn hybrid() -> HybridTuner {
        let out =
            TrainingPipeline::new(PipelineConfig { training_size: 1920, ..Default::default() })
                .run();
        HybridTuner::new(out.ranker)
    }

    #[test]
    fn seeded_search_runs_and_respects_budget() {
        let machine = Machine::xeon_e5_2680_v3();
        let lap = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap();
        let h = hybrid();
        let res = h.search(&machine, &lap, 96, 7);
        assert_eq!(res.trace.len(), 96);
        assert!(res.best_f > 0.0);
    }

    #[test]
    fn seeding_helps_early_search() {
        // After the initial population, the seeded GA should be at least as
        // good as the unseeded one on average (it starts from the model's
        // best guesses).
        let machine = Machine::xeon_e5_2680_v3();
        let lap = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap();
        let h = hybrid();
        let mut seeded_best = 0.0;
        let mut unseeded_best = 0.0;
        for seed in 0..3u64 {
            let res = h.search(&machine, &lap, 40, seed);
            seeded_best += res.trace.best_after(40).unwrap();
            let mut obj = MachineObjective::new(&machine, lap.clone());
            let space = obj.search_space();
            let res = h.ga.run(&space, &mut obj, 40, seed);
            unseeded_best += res.trace.best_after(40).unwrap();
        }
        assert!(
            seeded_best <= unseeded_best * 1.05,
            "seeded {seeded_best} vs unseeded {unseeded_best}"
        );
    }
}
