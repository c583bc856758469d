//! Shared measurement helpers for the experiment binaries (`sorl-bench`).

use stencil_machine::Machine;
use stencil_model::{StencilExecution, StencilInstance, TuningSpace, TuningVector};
use stencil_search::runner::paper_baselines;
use stencil_search::SearchResult;

use crate::objective::MachineObjective;
use crate::session::TuningSession;

/// Denoised runtime of one configuration: median of 5 simulated
/// repetitions — what a careful harness would report when validating a
/// chosen configuration.
pub fn measure_config(machine: &Machine, instance: &StencilInstance, t: TuningVector) -> f64 {
    let exec = StencilExecution::new(instance.clone(), t).expect("admissible tuning");
    machine.execute_median(&exec, 5).seconds
}

/// Fixed per-evaluation harness cost of iterative compilation on the
/// simulated testbed, seconds: launching the variant, allocating and
/// initializing grids, one warmup sweep. This is what makes a
/// 1024-evaluation search a minutes-to-hours affair even when individual
/// sweeps are milliseconds (Luo et al. report hours to days).
pub const EVAL_OVERHEAD_SECONDS: f64 = 0.5;

/// Simulated time-to-solution of a search run: every evaluation pays the
/// measured sweep time plus [`EVAL_OVERHEAD_SECONDS`].
pub fn search_time_to_solution(result: &SearchResult) -> f64 {
    result.trace.values().iter().sum::<f64>() + result.trace.len() as f64 * EVAL_OVERHEAD_SECONDS
}

/// Runs the paper's four search baselines for `budget` evaluations each and
/// returns `(name, result, simulated_seconds)` per engine. Each engine gets
/// a distinct RNG stream derived from `seed` so their initial samples are
/// uncorrelated.
pub fn run_baselines(
    machine: &Machine,
    instance: &StencilInstance,
    budget: usize,
    seed: u64,
) -> Vec<(&'static str, SearchResult, f64)> {
    paper_baselines()
        .iter()
        .enumerate()
        .map(|(i, algo)| {
            let mut objective = MachineObjective::new(machine, instance.clone());
            let space = objective.search_space();
            let res = algo.run(&space, &mut objective, budget, seed ^ (0x9E37 * (i as u64 + 1)));
            let tts = search_time_to_solution(&res);
            (algo.name(), res, tts)
        })
        .collect()
}

/// The tuning the ordinal-regression tuner picks, its denoised runtime and
/// the ranking latency in seconds.
pub fn orl_choice(
    session: &mut TuningSession,
    machine: &Machine,
    instance: &StencilInstance,
) -> (TuningVector, f64, f64) {
    let decision = session.tune(instance);
    let runtime = measure_config(machine, instance, decision.tuning);
    (decision.tuning, runtime, decision.seconds)
}

/// Exhaustive oracle over the predefined set: the best configuration the
/// ORL tuner could possibly return (its quality bound, Section VI-A).
pub fn best_in_predefined(machine: &Machine, instance: &StencilInstance) -> (TuningVector, f64) {
    let space = TuningSpace::for_dim(instance.dim()).expect("valid dims");
    let mut best: Option<(TuningVector, f64)> = None;
    for t in space.predefined_set() {
        let exec = StencilExecution::new(instance.clone(), t).expect("predefined admissible");
        // Noiseless cost: this is an oracle, not a measurement.
        let secs = machine.cost(&exec).total;
        if best.is_none_or(|(_, b)| secs < b) {
            best = Some((t, secs));
        }
    }
    best.expect("predefined set non-empty")
}

/// GFlop/s of an instance for a given runtime (Fig. 5's y axis).
pub fn gflops(instance: &StencilInstance, seconds: f64) -> f64 {
    if seconds <= 0.0 {
        return 0.0;
    }
    instance.total_flops() as f64 / seconds / 1e9
}

/// Simple descriptive statistics of a sample (used by the Fig. 7 box/violin
/// summaries).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub min: f64,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub max: f64,
    pub mean: f64,
}

/// Computes min/quartiles/max/mean.
///
/// # Panics
/// Panics on an empty sample.
pub fn quartiles(values: &[f64]) -> Quartiles {
    assert!(!values.is_empty(), "quartiles of empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = |p: f64| -> f64 {
        let pos = p * (v.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        let frac = pos - lo as f64;
        v[lo] * (1.0 - frac) + v[hi] * frac
    };
    Quartiles {
        min: v[0],
        q1: q(0.25),
        median: q(0.5),
        q3: q(0.75),
        max: v[v.len() - 1],
        mean: values.iter().sum::<f64>() / values.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_model::{GridSize, StencilKernel};

    fn lap() -> StencilInstance {
        StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(64)).unwrap()
    }

    #[test]
    fn measure_config_is_deterministic() {
        let m = Machine::xeon_e5_2680_v3();
        let t = TuningVector::new(32, 16, 8, 2, 2);
        assert_eq!(measure_config(&m, &lap(), t), measure_config(&m, &lap(), t));
    }

    #[test]
    fn baselines_run_with_small_budget() {
        let m = Machine::xeon_e5_2680_v3();
        let results = run_baselines(&m, &lap(), 40, 1);
        assert_eq!(results.len(), 4);
        for (name, res, wall) in &results {
            assert_eq!(res.trace.len(), 40, "{name}");
            assert!(*wall >= 0.0);
        }
    }

    #[test]
    fn oracle_beats_or_matches_any_predefined_config() {
        let m = Machine::xeon_e5_2680_v3();
        let (best_t, best_s) = best_in_predefined(&m, &lap());
        let space = TuningSpace::d3();
        assert!(space.contains(&best_t));
        for t in space.predefined_set().into_iter().step_by(500) {
            let exec = StencilExecution::new(lap(), t).unwrap();
            assert!(m.cost(&exec).total >= best_s - 1e-15);
        }
    }

    #[test]
    fn quartiles_of_known_sample() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(q.min, 1.0);
        assert_eq!(q.median, 3.0);
        assert_eq!(q.q1, 2.0);
        assert_eq!(q.q3, 4.0);
        assert_eq!(q.max, 5.0);
        assert_eq!(q.mean, 3.0);
    }

    #[test]
    fn quartiles_interpolate() {
        let q = quartiles(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(q.q1, 1.75);
        assert_eq!(q.median, 2.5);
        assert_eq!(q.q3, 3.25);
    }

    #[test]
    #[should_panic(expected = "empty sample")]
    fn quartiles_reject_empty() {
        quartiles(&[]);
    }

    #[test]
    fn gflops_positive() {
        let g = gflops(&lap(), 1e-3);
        assert!(g > 0.0);
        assert_eq!(gflops(&lap(), 0.0), 0.0);
    }
}
