//! Training-phase throughput (Table II, Training column): ranking-SVM fits
//! at two training-set sizes, measured over prebuilt datasets so only the
//! solver is timed.
//!
//! The run writes a machine-readable `BENCH_train_throughput.json`
//! snapshot (see `sorl_bench::perf`) so the repo's perf trajectory covers
//! the training phase too. Set `SORL_BENCH_QUICK=1` for the CI sample
//! budget.

use std::hint::black_box;

use ranksvm::{RankSvmTrainer, TrainConfig};
use sorl_bench::perf::{quick_mode, PerfReport};
use stencil_gen::TrainingSetBuilder;

fn main() {
    let samples = if quick_mode() { 3 } else { 10 };
    let mut report = PerfReport::new("train_throughput");
    let trainer = RankSvmTrainer::new(TrainConfig::paper());
    for size in [960usize, 3840] {
        let ts = TrainingSetBuilder::paper().build_size(size);
        report.record(&format!("rank_svm_{size}"), samples, || {
            black_box(trainer.train(&ts.dataset));
        });
    }
    let ts = TrainingSetBuilder::paper().build_size(3840);
    report.record("pair_generation_3840", samples, || {
        black_box(ts.dataset.pairs(1e-4).len());
    });
    report.write();
}
