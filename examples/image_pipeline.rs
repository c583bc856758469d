//! Image-processing pipeline: blur then edge detection on a 2-D image
//! (the Halide-style workload the paper cites), each stage autotuned
//! independently — different shapes get different configurations.
//!
//! ```sh
//! cargo run --release --example image_pipeline
//! ```

use stencil_autotune::exec::{Blur, Edge, Engine, Grid, StencilFn};
use stencil_autotune::model::{GridSize, StencilInstance};
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_autotune::sorl::session::TuningSession;

const W: usize = 1024;
const H: usize = 768;

/// A deterministic synthetic photograph: soft gradients plus hard edges.
fn synthetic_image(x: i64, y: i64) -> f32 {
    let fx = x as f32 / W as f32;
    let fy = y as f32 / H as f32;
    let soft = 0.5 + 0.3 * (fx * 6.3).sin() * (fy * 4.7).cos();
    let blocks = if ((x / 64) + (y / 64)) % 2 == 0 { 0.2 } else { 0.0 };
    soft + blocks
}

fn main() {
    println!("training the autotuner...");
    let outcome =
        TrainingPipeline::new(PipelineConfig { training_size: 1920, ..Default::default() }).run();
    let mut tuner = TuningSession::new(outcome.ranker);

    let size = GridSize::d2(W as u32, H as u32);
    let blur = Blur::new();
    let edge = Edge::new();

    // Each stage is tuned for its own shape: the 5x5 blur and the 3x3 edge
    // kernel generally get different blockings.
    let blur_cfg = tuner.tune(&StencilInstance::new(blur.model().clone(), size).unwrap());
    let edge_cfg = tuner.tune(&StencilInstance::new(edge.model().clone(), size).unwrap());
    println!("blur 5x5  -> {}", blur_cfg.tuning);
    println!("edge 3x3  -> {}\n", edge_cfg.tuning);

    // Stage buffers: image -> blurred -> edges. Blur has radius 2, edge 1;
    // grids share the wider halo so the pipeline can chain.
    let radius = (2, 2, 0);
    let mut image: Grid<f32> = Grid::for_size(size, radius);
    image.fill_with(|x, y, _| synthetic_image(x, y));
    let mut blurred: Grid<f32> = Grid::for_size(size, radius);
    let mut edges: Grid<f32> = Grid::for_size(size, radius);

    let mut engine = Engine::with_default_threads();
    let t0 = std::time::Instant::now();
    engine.sweep(&blur, &[&image], &mut blurred, &blur_cfg.tuning);
    engine.sweep(&edge, &[&blurred], &mut edges, &edge_cfg.tuning);
    let elapsed = t0.elapsed().as_secs_f64();

    // Simple statistics stand in for writing an image file.
    let (mut strong, mut sum) = (0usize, 0.0f64);
    for y in 0..H {
        for x in 0..W {
            let e = edges.get(x, y, 0).abs();
            sum += e as f64;
            if e > 0.5 {
                strong += 1;
            }
        }
    }
    println!(
        "pipeline on {}x{} image: {:.2} ms total ({} threads)",
        W,
        H,
        elapsed * 1e3,
        engine.threads()
    );
    println!(
        "edge response: mean |e| = {:.4}, {} strong edge pixels ({:.2}%)",
        sum / (W * H) as f64,
        strong,
        100.0 * strong as f64 / (W * H) as f64
    );
    // The block pattern has predictable edge structure; sanity-check it.
    assert!(strong > 1000, "block boundaries must produce strong edges");
}
