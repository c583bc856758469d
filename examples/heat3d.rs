//! Heat-equation solver: a time-stepped 3-D diffusion simulation (the PDE
//! workload class the paper's introduction motivates), with the stencil
//! sweep autotuned by the ordinal-regression model and verified against the
//! naive reference interpreter.
//!
//! ```sh
//! cargo run --release --example heat3d
//! ```

use stencil_autotune::exec::reference::reference_sweep;
use stencil_autotune::exec::{Engine, Grid, WeightedKernel};
use stencil_autotune::model::{DType, GridSize, StencilInstance, TuningVector};
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_autotune::sorl::session::TuningSession;

const N: usize = 64;
const STEPS: usize = 20;
const ALPHA: f64 = 0.1; // diffusion coefficient * dt / dx^2

fn heat_kernel() -> WeightedKernel {
    // u' = u + alpha * (6-neighbour laplacian)
    WeightedKernel::new(
        "heat3d",
        vec![
            (0, 0, 0, 0, 1.0 - 6.0 * ALPHA),
            (1, 0, 0, 0, ALPHA),
            (-1, 0, 0, 0, ALPHA),
            (0, 1, 0, 0, ALPHA),
            (0, -1, 0, 0, ALPHA),
            (0, 0, 1, 0, ALPHA),
            (0, 0, -1, 0, ALPHA),
        ],
        1,
        DType::F64,
    )
    .expect("valid heat kernel")
}

fn hot_spot(x: i64, y: i64, z: i64) -> f64 {
    let c = (N / 2) as i64;
    let d2 = (x - c).pow(2) + (y - c).pow(2) + (z - c).pow(2);
    if d2 < 25 {
        100.0
    } else {
        0.0
    }
}

fn main() {
    let kernel = heat_kernel();
    let size = GridSize::cube(N as u32);
    let instance = StencilInstance::new(kernel.model().clone(), size).unwrap();

    // Autotune the sweep. The model has never seen this kernel; it ranks
    // the 8640 predefined configurations from its training on the corpus.
    println!("training the autotuner...");
    let outcome =
        TrainingPipeline::new(PipelineConfig { training_size: 1920, ..Default::default() }).run();
    let mut tuner = TuningSession::new(outcome.ranker);
    let decision = tuner.tune(&instance);
    println!("autotuned {instance}: {}\n", decision.tuning);

    // Time-step the PDE with the real engine, ping-ponging two grids.
    let radius = (1, 1, 1);
    let mut u: Grid<f64> = Grid::for_size(size, radius);
    u.fill_with(hot_spot);
    let initial_heat: f64 = (0..N)
        .flat_map(|z| (0..N).flat_map(move |y| (0..N).map(move |x| (x, y, z))))
        .map(|(x, y, z)| u.get(x, y, z))
        .sum();
    let mut next: Grid<f64> = Grid::for_size(size, radius);

    let mut engine = Engine::with_default_threads();
    let t0 = std::time::Instant::now();
    for _ in 0..STEPS {
        engine.sweep(&kernel, &[&u], &mut next, &decision.tuning);
        std::mem::swap(&mut u, &mut next);
    }
    let tuned_time = t0.elapsed().as_secs_f64();

    // Verify the tuned run against the reference interpreter.
    let mut v: Grid<f64> = Grid::for_size(size, radius);
    v.fill_with(hot_spot);
    let mut vnext: Grid<f64> = Grid::for_size(size, radius);
    for _ in 0..STEPS {
        reference_sweep(&kernel, &[&v], &mut vnext);
        std::mem::swap(&mut v, &mut vnext);
    }
    let diff = u.max_abs_diff(&v);
    println!("verification vs. reference after {STEPS} steps: max |diff| = {diff:e}");
    assert_eq!(diff, 0.0, "tuned schedule must be bit-identical to the reference");

    // Compare against untuned code: a plain triple loop (one whole-domain
    // tile, so no parallel chunks either).
    let mut w: Grid<f64> = Grid::for_size(size, radius);
    w.fill_with(hot_spot);
    let mut wnext: Grid<f64> = Grid::for_size(size, radius);
    let baseline = TuningVector::new(1024, 1024, 1024, 0, 1);
    let t1 = std::time::Instant::now();
    for _ in 0..STEPS {
        engine.sweep(&kernel, &[&w], &mut wnext, &baseline);
        std::mem::swap(&mut w, &mut wnext);
    }
    let naive_time = t1.elapsed().as_secs_f64();

    // Energy conservation sanity: total heat is preserved by the scheme
    // away from the boundary (the halo is cold and the hot spot central).
    let total: f64 = (0..N)
        .flat_map(|z| (0..N).flat_map(move |y| (0..N).map(move |x| (x, y, z))))
        .map(|(x, y, z)| u.get(x, y, z))
        .sum();
    println!("total heat after {STEPS} steps: {total:.1} (initial {initial_heat:.1})");
    assert!((total - initial_heat).abs() / initial_heat < 1e-9, "heat must be conserved");

    println!("\n{STEPS} steps of {N}^3 heat diffusion on {} threads:", engine.threads());
    println!("  tuned   {}: {:7.2} ms", decision.tuning, tuned_time * 1e3);
    println!("  untuned {baseline}: {:7.2} ms", naive_time * 1e3);
    println!("  speedup: {:.2}x", naive_time / tuned_time);
}
