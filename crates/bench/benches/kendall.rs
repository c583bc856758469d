//! Kendall τ computation cost: the naive O(n^2) counter vs. the
//! O(n log n) merge-sort variant, at the group sizes the experiments see.
//!
//! The run writes a machine-readable `BENCH_kendall.json` snapshot (see
//! `sorl_bench::perf`). Set `SORL_BENCH_QUICK=1` for the quick sample
//! budget.

use std::hint::black_box;

use rand::seq::SliceRandom;
use rand::SeedableRng;
use ranksvm::kendall::{tau_a, tau_a_fast, tau_b};
use sorl_bench::perf::{quick_mode, PerfReport};

fn main() {
    let samples = if quick_mode() { 20 } else { 60 };
    let mut report = PerfReport::new("kendall");
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
    for n in [100usize, 1000] {
        let a: Vec<f64> = (0..n).map(|i| i as f64).collect();
        let mut b: Vec<f64> = a.clone();
        b.shuffle(&mut rng);
        let (a, b) = (a.as_slice(), b.as_slice());
        report.record(&format!("tau_a_naive_{n}"), samples, || {
            black_box(tau_a(black_box(a), black_box(b)));
        });
        report.record(&format!("tau_b_naive_{n}"), samples, || {
            black_box(tau_b(black_box(a), black_box(b)));
        });
        report.record(&format!("tau_a_mergesort_{n}"), samples, || {
            black_box(tau_a_fast(black_box(a), black_box(b)));
        });
    }
    report.write();
}
