//! Fig. 4 — speedup of every method on the 17 test benchmarks, relative to
//! the base configuration found by a generational GA after 1024
//! evaluations.
//!
//! Methods: the four iterative search engines (1024 evaluations each) and
//! the ordinal-regression tuner trained at four training-set sizes (960,
//! 3840, 6720, 16000), ranking the predefined configuration sets (1600 2-D
//! / 8640 3-D candidates) without any execution.
//!
//! The shapes to reproduce from the paper: ORL's top-ranked configuration
//! performs close to the searches on most benchmarks, can win on some
//! (gradient), and bottoms out around ~0.75 in the worst case; its
//! time-to-solution is 3-4 orders of magnitude smaller.

use sorl::benchmarks::table3_benchmarks;
use sorl::experiments::{measure_config, orl_choice, run_baselines};
use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::session::TuningSession;
use sorl_bench::FIG4_SIZES;
use stencil_machine::Machine;
use stencil_model::TuningSpace;

const BUDGET: usize = 1024;
const SEED: u64 = 42;

fn main() {
    let machine = Machine::xeon_e5_2680_v3();
    let benchmarks = table3_benchmarks();

    // Train the four ORL models once; they serve all benchmarks.
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

    let mut method_names: Vec<String> = Vec::new();
    let mut rows = Vec::new();
    println!("Fig. 4: speedup vs. GA-1024 base configuration\n");

    for b in &benchmarks {
        let space = TuningSpace::for_dim(b.instance.dim()).expect("valid dims");
        // Search baselines.
        let searches = run_baselines(&machine, &b.instance, BUDGET, SEED);
        let mut entries: Vec<(String, f64)> = searches
            .iter()
            .map(|(name, res, _wall)| {
                let t = space.from_genome(&res.best_x).expect("genome fits");
                (format!("{name} {BUDGET} evaluations"), measure_config(&machine, &b.instance, t))
            })
            .collect();
        // The base configuration: the generational GA's result.
        let base = entries[0].1;

        // ORL models.
        for (size, tuner) in &mut tuners {
            let (_t, runtime, _rank_s) = orl_choice(tuner, &machine, &b.instance);
            entries.push((format!("ord.regression size={size}"), runtime));
        }

        if method_names.is_empty() {
            method_names = entries.iter().map(|(n, _)| n.clone()).collect();
        }

        println!("{}", b.name);
        let mut row = vec![b.name.clone()];
        for (name, runtime) in &entries {
            let speedup = base / runtime;
            println!(
                "  {:<34} {:>6.3}  |{}",
                name,
                speedup,
                sorl_bench::ascii_bar(speedup, 1.4, 42)
            );
            row.push(format!("{speedup:.4}"));
        }
        rows.push(row);
        println!();
    }

    // Summary: per-method geometric mean across benchmarks.
    println!("geometric mean speedup across the 17 benchmarks:");
    for (m, name) in method_names.iter().enumerate() {
        let logs: f64 = rows
            .iter()
            .map(|r| r[m + 1].parse::<f64>().expect("speedup parses").max(1e-9).ln())
            .sum();
        let gm = (logs / rows.len() as f64).exp();
        println!("  {name:<34} {gm:>6.3}");
    }

    let mut header: Vec<&str> = vec!["benchmark"];
    let owned: Vec<String> = method_names.clone();
    header.extend(owned.iter().map(|s| s.as_str()));
    let path = sorl_bench::results_dir().join("fig4.csv");
    sorl_bench::write_csv(&path, &header, &rows);
}
