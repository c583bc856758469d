//! Performance portability: the paper's motivation that tuned
//! configurations do not carry across architectures, while the autotuner
//! does — it is simply retrained per machine (Section V-B: "this eases the
//! porting of our model to any system supported by the ... compiler").
//!
//! Three simulated machines (a 12-core Xeon, a 60-core wide-SIMD
//! accelerator, an embedded quad-core) each get their own trained model;
//! we then cross-apply every model's chosen configuration to every machine
//! and report the slowdown of mismatched pairs.
//!
//! ```sh
//! cargo run --release --example portability
//! ```

use stencil_autotune::machine::{Machine, MachineSpec, NoiseModel};
use stencil_autotune::model::{GridSize, StencilInstance, StencilKernel, TuningVector};
use stencil_autotune::sorl::experiments::measure_config;
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};
use stencil_autotune::sorl::session::TuningSession;

fn main() {
    let machines: Vec<(&str, Machine)> = vec![
        ("xeon", Machine::new(MachineSpec::xeon_e5_2680_v3(), NoiseModel::default())),
        ("phi", Machine::new(MachineSpec::phi_like(), NoiseModel::default())),
        ("quad", Machine::new(MachineSpec::embedded_quad(), NoiseModel::default())),
    ];
    let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(256)).unwrap();

    // Retrain the model per machine (the whole point: the pipeline is
    // automatic, so porting = re-running it against the new target).
    println!("training one model per machine (size 3840 each)...\n");
    let choices: Vec<(&str, TuningVector)> = machines
        .iter()
        .map(|(name, machine)| {
            let out =
                TrainingPipeline::new(PipelineConfig { training_size: 3840, ..Default::default() })
                    .with_machine(machine.clone())
                    .run();
            let mut tuner = TuningSession::new(out.ranker);
            let t = tuner.tune(&q).tuning;
            println!("  model[{name}] picks {t} for {q}");
            (*name, t)
        })
        .collect();

    // Cross-application matrix: rows = configuration source, cols = target.
    println!("\nruntime (ms) of each model's configuration on each machine:");
    print!("{:>14}", "config \\ on");
    for (name, _) in &machines {
        print!("{name:>10}");
    }
    println!();
    let mut native: Vec<f64> = vec![f64::INFINITY; machines.len()];
    let mut cross_worst: Vec<f64> = vec![0.0; machines.len()];
    for (src, tuning) in &choices {
        print!("{src:>14}");
        for (m, (tgt, machine)) in machines.iter().enumerate() {
            let ms = measure_config(machine, &q, *tuning) * 1e3;
            print!("{ms:>10.2}");
            if src == tgt {
                native[m] = ms;
            } else {
                cross_worst[m] = cross_worst[m].max(ms);
            }
        }
        println!();
    }

    println!("\nworst cross-machine slowdown vs. the natively tuned configuration:");
    for (m, (name, _)) in machines.iter().enumerate() {
        println!("  on {name:>5}: {:.2}x", cross_worst[m] / native[m]);
    }
    println!("\nretraining recovers the native configuration automatically;");
    println!("no feature of the model depends on the hardware (Section III-A).");
}
