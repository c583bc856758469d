//! Quickstart: train a ranking model, tune an unseen stencil, and verify
//! the choice both on the simulated machine and on the real execution
//! engine.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use stencil_autotune::exec::{BenchmarkKernel, Engine, MeasureConfig};
use stencil_autotune::machine::Machine;
use stencil_autotune::model::{
    GridSize, StencilExecution, StencilInstance, StencilKernel, TuningVector,
};
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_autotune::sorl::session::TuningSession;

fn main() {
    // 1. Pre-processing: generate the training corpus, "run" it on the
    //    simulated Xeon and fit the ranking SVM. Larger training sizes rank
    //    better; 3840 is a good default (see Fig. 7 of the paper).
    println!("training the ordinal-regression model (size 3840)...");
    let outcome =
        TrainingPipeline::new(PipelineConfig { training_size: 3840, ..Default::default() }).run();
    println!(
        "  {} samples, {} preference pairs, pair accuracy {:.3}, trained in {:.2}s\n",
        outcome.samples,
        outcome.report.pairs,
        outcome.report.train_pair_accuracy,
        outcome.timings.training_wall
    );

    // 2. Tune an unseen stencil: a 7-point laplacian on a 256^3 grid.
    let mut tuner = TuningSession::new(outcome.ranker);
    let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(256)).unwrap();
    let decision = tuner.tune(&q);
    println!(
        "tuned {q}: {} (ranked {} candidates in {:.2} ms)",
        decision.tuning,
        decision.candidates,
        decision.seconds * 1e3
    );

    // 3. Compare against untuned code on the simulated machine. The
    //    untuned configuration is what a plain triple loop does: no
    //    blocking (one whole-domain tile), no unrolling, one chunk.
    let machine = Machine::xeon_e5_2680_v3();
    let default_tuning = TuningVector::new(1024, 1024, 1024, 0, 1);
    let tuned =
        machine.execute_median(&StencilExecution::new(q.clone(), decision.tuning).unwrap(), 5);
    let naive =
        machine.execute_median(&StencilExecution::new(q.clone(), default_tuning).unwrap(), 5);
    println!("\nsimulated Xeon E5-2680 v3:");
    println!(
        "  untuned {default_tuning}: {:8.2} ms  ({:.2} GFlop/s)",
        naive.seconds * 1e3,
        naive.gflops
    );
    println!(
        "  tuned   {}: {:8.2} ms  ({:.2} GFlop/s)",
        decision.tuning,
        tuned.seconds * 1e3,
        tuned.gflops
    );
    println!("  speedup: {:.2}x", naive.seconds / tuned.seconds);

    // 4. The tuning vector drives a *real* engine too: run both
    //    configurations on this machine (small grid, real threads).
    let size = GridSize::cube(96);
    let mut engine = Engine::with_default_threads();
    let cfg = MeasureConfig { warmup: 1, reps: 3 };
    let kernel = BenchmarkKernel::Laplacian;
    let t_tuned = kernel.measure(&mut engine, size, &decision.tuning, cfg);
    let t_naive = kernel.measure(&mut engine, size, &default_tuning, cfg);
    println!("\nreal engine on this machine ({} threads, {size} grid):", engine.threads());
    println!("  untuned: {:8.3} ms/sweep", t_naive * 1e3);
    println!("  tuned:   {:8.3} ms/sweep", t_tuned * 1e3);
}
