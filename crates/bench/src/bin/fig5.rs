//! Fig. 5 — best-so-far search trajectories (GFlop/s vs. evaluations) for
//! four stencils, with the ordinal-regression results as horizontal lines
//! and a time-to-solution comparison.
//!
//! Stencils, as in the paper: gradient 256^3, tricubic 256^3,
//! blur 1024x768, divergence 128^3. The x axis is logarithmic
//! (2^0 .. 2^10 evaluations).

use sorl::benchmarks::table3_benchmarks;
use sorl::experiments::{gflops, orl_choice, run_baselines};
use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::session::TuningSession;
use sorl_bench::{fmt_seconds, FIG4_SIZES};
use stencil_machine::Machine;

const BUDGET: usize = 1024;
const SEED: u64 = 42;
const PANELS: [&str; 4] =
    ["gradient 256x256x256", "tricubic 256x256x256", "blur 1024x768", "divergence 128x128x128"];

fn main() {
    let machine = Machine::xeon_e5_2680_v3();
    let benchmarks = table3_benchmarks();

    eprintln!("training ORL models at sizes {FIG4_SIZES:?}...");
    let mut tuners: Vec<(usize, TuningSession)> = FIG4_SIZES
        .iter()
        .map(|&size| {
            let out =
                TrainingPipeline::new(PipelineConfig { training_size: size, ..Default::default() })
                    .run();
            (size, TuningSession::new(out.ranker))
        })
        .collect();

    let mut rows = Vec::new();
    for panel in PANELS {
        let b = benchmarks.iter().find(|b| b.name == panel).expect("panel benchmark exists");
        println!("=== {} ===", b.name);

        // Searches with full traces.
        let searches = run_baselines(&machine, &b.instance, BUDGET, SEED);

        // ORL horizontal lines + their time-to-solution.
        let orl: Vec<(usize, f64, f64)> = tuners
            .iter_mut()
            .map(|(size, tuner)| {
                let (_t, runtime, rank_seconds) = orl_choice(tuner, &machine, &b.instance);
                (*size, gflops(&b.instance, runtime), rank_seconds)
            })
            .collect();

        // GFlop/s at power-of-two evaluation counts.
        println!(
            "{:>6}  {}",
            "evals",
            searches.iter().map(|(n, _, _)| format!("{n:>24}")).collect::<String>()
        );
        for p in 0..=10u32 {
            let e = 1usize << p;
            print!("{e:>6}  ");
            for (name, res, _) in &searches {
                let best = res.trace.best_after(e).expect("trace covers budget");
                let gf = gflops(&b.instance, best);
                print!("{gf:>24.2}");
                rows.push(vec![
                    b.name.clone(),
                    name.to_string(),
                    e.to_string(),
                    format!("{gf:.4}"),
                ]);
            }
            println!();
        }
        for (size, gf, _) in &orl {
            println!("  ord.regression size={size:<6} ------------------------- {gf:.2} GFlop/s");
            rows.push(vec![
                b.name.clone(),
                format!("ord.regression size={size}"),
                String::new(),
                format!("{gf:.4}"),
            ]);
        }

        // Time-to-solution side chart (log scale in the paper): searches
        // pay compile-and-run per evaluation (simulated machine seconds);
        // the regression pays only its ranking latency.
        println!("\n  time-to-solution:");
        for (name, _res, tts) in &searches {
            println!("    {name:<26} {:>12}", fmt_seconds(*tts));
        }
        for (size, _gf, rank_s) in &orl {
            println!("    ord.regression size={size:<6} {:>12}", fmt_seconds(*rank_s));
        }
        println!();
    }

    let path = sorl_bench::results_dir().join("fig5.csv");
    sorl_bench::write_csv(&path, &["benchmark", "method", "evaluations", "gflops"], &rows);
}
