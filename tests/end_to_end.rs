//! End-to-end integration: training pipeline -> ranker -> tuners, across
//! crate boundaries.

use stencil_autotune::machine::Machine;
use stencil_autotune::model::{GridSize, StencilInstance, StencilKernel, TuningSpace};
use stencil_autotune::sorl::benchmarks::table3_benchmarks;
use stencil_autotune::sorl::experiments::measure_config;
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_autotune::sorl::ranker::StencilRanker;
use stencil_autotune::sorl::session::TuningSession;

fn small_pipeline() -> stencil_autotune::sorl::pipeline::PipelineOutcome {
    TrainingPipeline::new(PipelineConfig { training_size: 960, ..Default::default() }).run()
}

#[test]
fn pipeline_to_tuner_produces_admissible_configs_for_all_benchmarks() {
    let out = small_pipeline();
    let mut tuner = TuningSession::new(out.ranker);
    for b in table3_benchmarks() {
        let d = tuner.tune(&b.instance);
        let space = TuningSpace::for_dim(b.instance.dim()).unwrap();
        assert!(space.contains(&d.tuning), "{}: {}", b.name, d.tuning);
        let expected = if b.instance.dim() == 2 { 1600 } else { 8640 };
        assert_eq!(d.candidates, expected, "{}", b.name);
    }
}

#[test]
fn whole_experiment_stack_is_deterministic() {
    let machine = Machine::xeon_e5_2680_v3();
    let q = StencilInstance::new(StencilKernel::gradient(), GridSize::cube(128)).unwrap();

    let run = || {
        let out = small_pipeline();
        let mut tuner = TuningSession::new(out.ranker);
        let d = tuner.tune(&q);
        (d.tuning, measure_config(&machine, &q, d.tuning))
    };
    let (t1, s1) = run();
    let (t2, s2) = run();
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);
}

#[test]
fn tuned_configs_beat_the_median_random_config() {
    // The model's top-1 must be solidly better than a typical configuration
    // on every benchmark (a much weaker, but robust, version of Fig. 4).
    use rand::SeedableRng;
    let machine = Machine::xeon_e5_2680_v3();
    let out =
        TrainingPipeline::new(PipelineConfig { training_size: 1920, ..Default::default() }).run();
    let mut tuner = TuningSession::new(out.ranker);
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(7);
    for b in table3_benchmarks() {
        let tuned = measure_config(&machine, &b.instance, tuner.tune(&b.instance).tuning);
        let space = TuningSpace::for_dim(b.instance.dim()).unwrap();
        let mut randoms: Vec<f64> = (0..15)
            .map(|_| measure_config(&machine, &b.instance, space.random(&mut rng)))
            .collect();
        randoms.sort_by(f64::total_cmp);
        let median_random = randoms[randoms.len() / 2];
        assert!(
            tuned < median_random,
            "{}: tuned {tuned} not better than median random {median_random}",
            b.name
        );
    }
}

#[test]
fn model_persistence_survives_the_full_decision_path() {
    let out = small_pipeline();
    let dir = std::env::temp_dir().join("sorl-e2e");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("model.json");
    out.ranker.save_json(&path).unwrap();
    let loaded = StencilRanker::load_json(&path).unwrap();

    let mut a = TuningSession::new(out.ranker);
    let mut b = TuningSession::new(loaded);
    for bench in table3_benchmarks().into_iter().take(5) {
        assert_eq!(
            a.tune(&bench.instance).tuning,
            b.tune(&bench.instance).tuning,
            "{}",
            bench.name
        );
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn phase_timings_are_sane() {
    let out = small_pipeline();
    let t = out.timings;
    // Compile model: the paper's corpus takes ~32 real hours.
    assert!(t.ts_compile_modelled > 3600.0 * 10.0);
    // Training-set generation: simulated minutes, real milliseconds.
    assert!(t.ts_generation_simulated > 1.0);
    assert!(t.ts_generation_wall < 60.0);
    // Training happens in (fractions of) seconds at size 960.
    assert!(t.training_wall < 30.0);
}

#[test]
fn hybrid_search_uses_and_respects_budget() {
    let machine = Machine::xeon_e5_2680_v3();
    let out = small_pipeline();
    let hybrid = stencil_autotune::sorl::hybrid::HybridTuner::new(out.ranker);
    let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(64)).unwrap();
    let res = hybrid.search(&machine, &q, 64, 3);
    assert_eq!(res.trace.len(), 64);
    let space = TuningSpace::d3();
    assert!(space.from_genome(&res.best_x).is_ok());
}
