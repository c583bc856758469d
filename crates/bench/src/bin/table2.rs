//! Table II — computing time of the autotuner phases for different training
//! set sizes.
//!
//! Columns, as in the paper:
//! * **TS Comp.**: compiling the 60-code corpus (PATUS + gcc; modelled —
//!   the paper measured ~32 h on real tools). One value for all sizes.
//! * **TS Generation**: executing the training set on the machine
//!   (simulated machine seconds) plus the wall time this process spent.
//! * **Training**: wall time of the ranking-SVM fit (paper: 0.01 s–0.36 s
//!   with svm_rank; our SGD solver is within the same regime).
//! * **Regression**: wall time to rank tuning candidates with the trained
//!   model — reported per predefined set (8640 candidates) and per single
//!   candidate; the paper reports < 1 ms for scoring.

use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::session::TuningSession;
use sorl_bench::{fmt_seconds, write_csv, TABLE2_SIZES};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

fn main() {
    println!("Table II: computing time of phases vs. training set size\n");
    let probe = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap();

    println!(
        "{:>8}  {:>12}  {:>26}  {:>10}  {:>22}",
        "TS Size", "TS Comp.", "TS Generation (sim/wall)", "Training", "Regression (set/cand)"
    );
    let mut rows = Vec::new();
    for size in TABLE2_SIZES {
        let out =
            TrainingPipeline::new(PipelineConfig { training_size: size, ..Default::default() })
                .run();
        let mut tuner = TuningSession::new(out.ranker);

        // Regression latency: median of several rank-the-predefined-set
        // calls, and the per-candidate cost derived from it.
        let mut times: Vec<f64> = (0..5).map(|_| tuner.tune(&probe).seconds).collect();
        times.sort_by(f64::total_cmp);
        let set_seconds = times[times.len() / 2];
        let per_candidate = set_seconds / 8640.0;

        println!(
            "{:>8}  {:>12}  {:>13} /{:>10}  {:>10}  {:>11} /{:>9}",
            size,
            fmt_seconds(out.timings.ts_compile_modelled),
            fmt_seconds(out.timings.ts_generation_simulated),
            fmt_seconds(out.timings.ts_generation_wall),
            fmt_seconds(out.timings.training_wall),
            fmt_seconds(set_seconds),
            fmt_seconds(per_candidate),
        );
        rows.push(vec![
            size.to_string(),
            format!("{:.1}", out.timings.ts_compile_modelled),
            format!("{:.3}", out.timings.ts_generation_simulated),
            format!("{:.3}", out.timings.ts_generation_wall),
            format!("{:.4}", out.timings.training_wall),
            format!("{:.6}", set_seconds),
            format!("{:.9}", per_candidate),
        ]);
    }

    println!(
        "\nAll phases except Regression are pre-processing. TS Comp. is the\n\
         modelled PATUS+gcc corpus compilation (paper: ~32 h); TS Generation\n\
         'sim' is simulated machine time (paper: 4 m - 145 m)."
    );
    let path = sorl_bench::results_dir().join("table2.csv");
    write_csv(
        &path,
        &[
            "ts_size",
            "ts_compile_modelled_s",
            "ts_generation_simulated_s",
            "ts_generation_wall_s",
            "training_wall_s",
            "regression_set_s",
            "regression_per_candidate_s",
        ],
        &rows,
    );
}
