//! The paper's Table I worked example: how raw runtimes of different
//! stencil instances become *partial rankings*, why cross-instance
//! comparisons are never generated, and how a ranking function trained on
//! those pairs reproduces the per-instance orderings.
//!
//! ```sh
//! cargo run --release --example ranking_basics
//! ```

use stencil_autotune::ranking::{kendall_tau, RankSvmTrainer, RankingDataset, TrainConfig};

fn main() {
    // Table I: 2 kernels x 2 input sizes = 4 instances q1..q4, each
    // executed with 3 tuning settings. Features here are a toy encoding of
    // (kernel, size, tuning) — in the real system the FeatureEncoder
    // produces them from the stencil model.
    #[rustfmt::skip]
    let rows: [(&str, [f64; 3], f64, u32); 12] = [
        // instance, [toy features],          runtime(ms), group
        ("q1 te1", [0.1, 0.1, 0.9], 12.0, 1),
        ("q1 te2", [0.1, 0.1, 0.5], 13.0, 1),
        ("q1 te3", [0.1, 0.1, 0.1], 20.0, 1),
        ("q2 te4", [0.1, 0.9, 0.9], 10.0, 2),
        ("q2 te5", [0.1, 0.9, 0.1], 36.0, 2),
        ("q2 te6", [0.1, 0.9, 0.4], 35.0, 2),
        ("q3 te7", [0.9, 0.1, 0.8], 30.0, 3),
        ("q3 te8", [0.9, 0.1, 0.5], 45.0, 3),
        ("q3 te9", [0.9, 0.1, 0.2], 47.0, 3),
        ("q4 te10", [0.9, 0.9, 0.2], 25.0, 4),
        ("q4 te11", [0.9, 0.9, 0.5], 21.0, 4),
        ("q4 te12", [0.9, 0.9, 0.9], 12.0, 4),
    ];

    println!("Table I: stencil instance executions");
    println!("{:<9} {:>12} {:>6}", "exec", "runtime(ms)", "rank");
    let mut ds = RankingDataset::new(3);
    for (name, features, runtime, group) in &rows {
        ds.push(features, *runtime, *group);
        let _ = name;
    }
    let ranks = ds.ranks();
    for (i, (name, _, runtime, _)) in rows.iter().enumerate() {
        println!("{:<9} {:>12.0} {:>6}", name, runtime, ranks[i] + 1);
    }

    // The partial-ranking pairs (paper Section IV-B): only within-instance
    // inequalities exist; te4 (10 ms) and te1 (12 ms) are NOT compared.
    let pairs = ds.pairs(0.0);
    println!("\n{} preference pairs (transitive closure of the paper's 8):", pairs.len());
    for (better, worse) in &pairs {
        println!("  {} < {}", rows[*better as usize].0, rows[*worse as usize].0);
    }
    assert!(!pairs.contains(&(3, 0)), "cross-instance pairs must not exist");

    // Train the ranking function r (Eq. 3) on those pairs.
    let (model, report) = RankSvmTrainer::new(TrainConfig::default().with_c(10.0)).train(&ds);
    println!(
        "\ntrained r(q, t): {} pairs, pairwise accuracy {:.0}%",
        report.pairs,
        report.train_pair_accuracy * 100.0
    );

    // r reproduces every per-instance ordering (Kendall tau = 1).
    for g in ds.group_ids() {
        let idx = ds.group_indices(g);
        let scores: Vec<f64> = idx.iter().map(|&i| model.score(&ds.row(i))).collect();
        let neg_rt: Vec<f64> = idx.iter().map(|&i| -ds.target(i)).collect();
        let tau = kendall_tau(&scores, &neg_rt);
        println!("  instance q{g}: Kendall tau = {tau:+.2}");
    }
}
