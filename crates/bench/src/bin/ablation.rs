//! Ablation experiments (ours, motivated by the paper's Section IV):
//!
//! * **A1 — problem formulation**: ordinal regression (rank SVM) vs. the
//!   regression formulation (ridge on log-runtime) vs. a classification
//!   formulation (nearest-centroid over a fixed set of candidate classes),
//!   all trained on identical data and evaluated by per-instance Kendall τ
//!   and top-1 regret on held-out executions.
//! * **C sensitivity**: the trade-off constant sweep the paper mentions.
//! * **Encoding**: the paper's flat concatenation (which, with a linear
//!   model, ranks every instance identically) vs. the interaction joint
//!   feature map.
//! * **Solver**: the SGD solver vs. exact dual coordinate descent.
//! * **Sampling**: random training draws (the paper) vs. guided draws
//!   mixing in the structured candidate grid (the paper's future work).
//! * **Bandit ensemble**: the OpenTuner-style technique bandit vs. the
//!   individual search engines at equal budget.

use ranksvm::baselines::{NearestCentroidClassifier, RidgeRegression};
use ranksvm::metrics::kendall_per_group;
use ranksvm::{kendall_tau, top1_regret, RankSvmTrainer, TrainConfig};
use sorl::experiments::quartiles;
use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_gen::TrainingSetBuilder;
use stencil_machine::Machine;
use stencil_model::{EncodingKind, FeatureConfig, FeatureEncoder, StencilExecution, TuningSpace};

const TRAIN_SIZE: usize = 3840;
const HOLDOUT_SEED: u64 = 0xDEAD_BEEF;

fn main() {
    println!("Ablation A1: ranking vs. regression vs. classification (size {TRAIN_SIZE})\n");
    let encoder = FeatureEncoder::default_interaction();
    let builder = TrainingSetBuilder::paper().with_encoder(encoder.clone());
    let train = builder.build_size(TRAIN_SIZE);
    // Held-out executions: same instances, fresh tuning draws.
    let holdout = builder.clone().with_seed(HOLDOUT_SEED).build_size(TRAIN_SIZE);

    let mut rows = Vec::new();

    // Ordinal regression.
    let (rank_model, report) = RankSvmTrainer::new(TrainConfig::paper()).train(&train.dataset);
    let rank_scores: Vec<f64> =
        (0..holdout.dataset.len()).map(|i| rank_model.score(&holdout.dataset.row(i))).collect();
    summarize("rank-svm (ordinal regression)", &holdout, &rank_scores, &mut rows);
    println!("    (training pair accuracy {:.3})", report.train_pair_accuracy);

    // Regression on log runtime.
    let ridge = RidgeRegression::fit(&train.dataset, 1e-3, true).expect("ridge fits");
    let ridge_scores: Vec<f64> =
        (0..holdout.dataset.len()).map(|i| ridge.score(&holdout.dataset.row(i))).collect();
    summarize("ridge regression (log runtime)", &holdout, &ridge_scores, &mut rows);

    // Classification: classes = 16 representative tunings; per training
    // instance the label is its best-measured class; prediction picks the
    // class by instance-feature similarity, scores candidates by distance
    // to the predicted class configuration.
    let class_scores = classification_scores(&train, &holdout);
    summarize("nearest-centroid classification", &holdout, &class_scores, &mut rows);

    println!("\nAblation: C sensitivity (size {TRAIN_SIZE}, interaction encoding)\n");
    for c in [0.01, 0.1, 1.0, 10.0, 100.0] {
        let (model, rep) =
            RankSvmTrainer::new(TrainConfig::paper().with_c(c)).train(&train.dataset);
        let taus: Vec<f64> =
            kendall_per_group(&holdout.dataset, &model).iter().map(|(_, t)| *t).collect();
        let q = quartiles(&taus);
        println!(
            "  C={c:<6} pair-acc={:.3}  holdout tau q1/med/q3 = {:+.2}/{:+.2}/{:+.2}",
            rep.train_pair_accuracy, q.q1, q.median, q.q3
        );
        rows.push(vec![
            format!("c-sweep C={c}"),
            format!("{:.4}", q.median),
            format!("{:.4}", rep.train_pair_accuracy),
        ]);
    }

    println!("\nAblation: feature encoding (size {TRAIN_SIZE})\n");
    for encoding in [EncodingKind::Interaction, EncodingKind::PaperConcat] {
        let out = TrainingPipeline::new(PipelineConfig {
            training_size: TRAIN_SIZE,
            encoding,
            ..Default::default()
        })
        .run();
        let enc = FeatureEncoder::new(FeatureConfig { encoding, ..Default::default() });
        let holdout_enc = TrainingSetBuilder::paper()
            .with_encoder(enc)
            .with_seed(HOLDOUT_SEED)
            .build_size(TRAIN_SIZE);
        let taus: Vec<f64> = kendall_per_group(&holdout_enc.dataset, out.ranker.model())
            .iter()
            .map(|(_, t)| *t)
            .collect();
        let q = quartiles(&taus);
        println!(
            "  {encoding:?}: holdout tau q1/med/q3 = {:+.2}/{:+.2}/{:+.2}",
            q.q1, q.median, q.q3
        );
        rows.push(vec![
            format!("encoding {encoding:?}"),
            format!("{:.4}", q.median),
            String::new(),
        ]);
    }

    println!("\nAblation: solver (size {TRAIN_SIZE})\n");
    for solver in [ranksvm::Solver::Sgd, ranksvm::Solver::DualCoordinateDescent] {
        let cfg = TrainConfig::paper().with_solver(solver).with_epochs(10);
        let t0 = std::time::Instant::now();
        let (model, rep) = RankSvmTrainer::new(cfg).train(&train.dataset);
        let wall = t0.elapsed().as_secs_f64();
        let taus: Vec<f64> =
            kendall_per_group(&holdout.dataset, &model).iter().map(|(_, t)| *t).collect();
        let q = quartiles(&taus);
        println!(
            "  {solver:?}: objective={:.1} acc={:.3} train={:.2}s holdout tau med={:+.2}",
            rep.objective, rep.train_pair_accuracy, wall, q.median
        );
        rows.push(vec![
            format!("solver {solver:?}"),
            format!("{:.4}", q.median),
            format!("{wall:.3}"),
        ]);
    }

    println!("\nAblation: training-set sampling (size {TRAIN_SIZE})\n");
    for strategy in [stencil_gen::SamplingStrategy::Random, stencil_gen::SamplingStrategy::Guided] {
        let ts = TrainingSetBuilder::paper()
            .with_encoder(encoder.clone())
            .with_sampling(strategy)
            .build_size(TRAIN_SIZE);
        let (model, _) = RankSvmTrainer::new(TrainConfig::paper()).train(&ts.dataset);
        let taus: Vec<f64> =
            kendall_per_group(&holdout.dataset, &model).iter().map(|(_, t)| *t).collect();
        let q = quartiles(&taus);
        // Top-1 quality over the predefined set for a probe benchmark.
        let mut tuner =
            sorl::TuningSession::new(sorl::ranker::StencilRanker::new(encoder.clone(), model));
        let machine = Machine::xeon_e5_2680_v3();
        let probe = sorl::benchmarks::table3_benchmarks();
        let mean_regret: f64 = probe
            .iter()
            .map(|b| {
                let chosen = tuner.tune(&b.instance).tuning;
                let chosen_s = sorl::experiments::measure_config(&machine, &b.instance, chosen);
                let (_, oracle_s) = sorl::experiments::best_in_predefined(&machine, &b.instance);
                chosen_s / oracle_s - 1.0
            })
            .sum::<f64>()
            / probe.len() as f64;
        println!(
            "  {strategy:?}: holdout tau med={:+.2}  mean top-1 regret vs oracle {:+.1}%",
            q.median,
            mean_regret * 100.0
        );
        rows.push(vec![
            format!("sampling {strategy:?}"),
            format!("{:.4}", q.median),
            format!("{mean_regret:.4}"),
        ]);
    }

    println!("\nAblation: bandit ensemble vs. single engines (gradient 128^3, 256 evals)\n");
    {
        use stencil_search::SearchAlgorithm;
        let machine = Machine::xeon_e5_2680_v3();
        let q = stencil_model::StencilInstance::new(
            stencil_model::StencilKernel::gradient(),
            stencil_model::GridSize::cube(128),
        )
        .expect("valid instance");
        let mut engines: Vec<Box<dyn SearchAlgorithm>> = stencil_search::paper_baselines();
        engines.push(Box::new(stencil_search::BanditSearch::default()));
        for algo in &engines {
            let mean_best: f64 = (0..5u64)
                .map(|seed| {
                    let mut obj = sorl::objective::MachineObjective::new(&machine, q.clone());
                    let space = obj.search_space();
                    algo.run(&space, &mut obj, 256, seed).best_f
                })
                .sum::<f64>()
                / 5.0;
            println!("  {:<26} mean best over 5 seeds: {:.3} ms", algo.name(), mean_best * 1e3);
            rows.push(vec![
                format!("engine {}", algo.name()),
                format!("{mean_best:.6}"),
                String::new(),
            ]);
        }
    }

    let path = sorl_bench::results_dir().join("ablation.csv");
    sorl_bench::write_csv(&path, &["experiment", "tau_median_or_value", "extra"], &rows);
}

/// Per-instance τ and mean top-1 regret of a scored holdout set.
fn summarize(
    name: &str,
    holdout: &stencil_gen::TrainingSet,
    scores: &[f64],
    rows: &mut Vec<Vec<String>>,
) {
    let ds = &holdout.dataset;
    let mut taus = Vec::new();
    let mut regrets = Vec::new();
    for g in ds.group_ids() {
        let idx = ds.group_indices(g);
        if idx.len() < 3 {
            continue;
        }
        let s: Vec<f64> = idx.iter().map(|&i| scores[i]).collect();
        let neg_t: Vec<f64> = idx.iter().map(|&i| -ds.target(i)).collect();
        let t: Vec<f64> = idx.iter().map(|&i| ds.target(i)).collect();
        taus.push(kendall_tau(&s, &neg_t));
        regrets.push(top1_regret(&s, &t));
    }
    let q = quartiles(&taus);
    let regret = regrets.iter().sum::<f64>() / regrets.len().max(1) as f64;
    println!(
        "  {name:<34} tau med={:+.2} (q1 {:+.2}, q3 {:+.2})   mean top-1 regret {:>6.1}%",
        q.median,
        q.q1,
        q.q3,
        regret * 100.0
    );
    rows.push(vec![name.to_string(), format!("{:.4}", q.median), format!("{regret:.4}")]);
}

/// Classification-formulation scores (Section IV-A1 baseline).
fn classification_scores(
    train: &stencil_gen::TrainingSet,
    holdout: &stencil_gen::TrainingSet,
) -> Vec<f64> {
    let machine = Machine::xeon_e5_2680_v3();
    let corpus = stencil_gen::Corpus::paper();
    // 16 representative classes: a coarse power-of-four grid.
    let classes: Vec<stencil_model::TuningVector> = {
        let mut v = Vec::new();
        for &b in &[8u32, 64] {
            for &u in &[0u32, 4] {
                for &c in &[1u32, 16] {
                    v.push(stencil_model::TuningVector::new(b, b, b, u, c));
                    v.push(stencil_model::TuningVector::new(b * 4, b, b / 2, u, c));
                }
            }
        }
        v
    };
    // Label each training instance with its best class (measured once).
    let mut rows_feat: Vec<Vec<f64>> = Vec::new();
    let mut labels = Vec::new();
    let encoder = FeatureEncoder::paper_concat();
    for (idx, q) in corpus.instances().iter().enumerate() {
        if !train.executions.iter().any(|e| e.instance == idx) {
            continue;
        }
        let space = TuningSpace::for_dim(q.dim()).expect("valid");
        let (mut best, mut best_s) = (0usize, f64::INFINITY);
        for (ci, cand) in classes.iter().enumerate() {
            let t = space.clamp(cand);
            let exec = StencilExecution::new(q.clone(), t).expect("clamped");
            let s = machine.cost(&exec).total;
            if s < best_s {
                best_s = s;
                best = ci;
            }
        }
        // Instance features: the encoding of the instance with a fixed
        // neutral tuning, so only instance information distinguishes rows.
        let neutral = space.clamp(&stencil_model::TuningVector::new(16, 16, 16, 0, 1));
        let exec = StencilExecution::new(q.clone(), neutral).expect("neutral admissible");
        rows_feat.push(encoder.encode(&exec));
        labels.push(best);
    }
    let refs: Vec<&[f64]> = rows_feat.iter().map(|r| r.as_slice()).collect();
    let clf = NearestCentroidClassifier::fit(&refs, &labels, classes.len());

    // Score holdout executions: candidates matching the predicted class's
    // configuration get high scores (negative distance in genome space).
    let corpus_instances = corpus.instances();
    holdout
        .executions
        .iter()
        .map(|e| {
            let q = &corpus_instances[e.instance];
            let space = TuningSpace::for_dim(q.dim()).expect("valid");
            let neutral = space.clamp(&stencil_model::TuningVector::new(16, 16, 16, 0, 1));
            let exec = StencilExecution::new(q.clone(), neutral).expect("admissible");
            let label = clf.predict(&encoder.encode(&exec)).expect("classes non-empty");
            let target = space.clamp(&classes[label]);
            // Distance in log-genome space between candidate and class rep.
            let a = space.to_genome(&e.tuning);
            let b = space.to_genome(&target);
            let d2: f64 = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| {
                    let lx = (x.max(1) as f64).log2();
                    let ly = (y.max(1) as f64).log2();
                    (lx - ly) * (lx - ly)
                })
                .sum();
            -d2
        })
        .collect()
}
