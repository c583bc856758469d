//! Model lifecycle: train once, persist to JSON, reload in a "different
//! deployment" and verify the reloaded model makes identical decisions —
//! the knowledge-base workflow that lets the expensive pre-processing phase
//! be paid once per machine.
//!
//! ```sh
//! cargo run --release --example train_and_save
//! ```

use stencil_autotune::model::{GridSize, StencilInstance, StencilKernel};
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_autotune::sorl::ranker::StencilRanker;
use stencil_autotune::sorl::session::TuningSession;

fn main() {
    let path = std::env::temp_dir().join("sorl-model.json");

    // Phase 1 (once per target machine): train and persist.
    println!("training (size 1920)...");
    let outcome =
        TrainingPipeline::new(PipelineConfig { training_size: 1920, ..Default::default() }).run();
    outcome.ranker.save_json(&path).expect("save model");
    let bytes = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    println!("saved model to {} ({} KiB)\n", path.display(), bytes / 1024);

    // Phase 2 (every compile): load and tune — no training data needed.
    let loaded = StencilRanker::load_json(&path).expect("load model");
    let mut tuner_fresh = TuningSession::new(outcome.ranker);
    let mut tuner_loaded = TuningSession::new(loaded);

    for kernel in [StencilKernel::laplacian(), StencilKernel::wave(), StencilKernel::blur()] {
        let size = if kernel.dim() == 2 { GridSize::square(1024) } else { GridSize::cube(128) };
        let q = StencilInstance::new(kernel, size).unwrap();
        let a = tuner_fresh.tune(&q);
        let b = tuner_loaded.tune(&q);
        assert_eq!(a.tuning, b.tuning, "reloaded model must decide identically");
        println!("{q:<28} -> {} ({:.2} ms)", b.tuning, b.seconds * 1e3);
    }
    println!("\nreloaded model reproduces every decision bit-for-bit.");
    std::fs::remove_file(&path).ok();
}
