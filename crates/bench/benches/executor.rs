//! Real execution engine throughput: one sweep of representative kernels
//! on small grids under different tunings. This is the measured (not
//! simulated) counterpart of the machine model, demonstrating that the
//! tuning parameters act on a real runtime.
//!
//! The run writes a machine-readable `BENCH_executor.json` snapshot (see
//! `sorl_bench::perf`) so the repo's perf trajectory covers the engine,
//! not just ranking. Set `SORL_BENCH_QUICK=1` for the CI sample budget.

use std::hint::black_box;

use sorl_bench::perf::{quick_mode, PerfReport};
use stencil_exec::{BenchmarkKernel, Engine, MeasureConfig};
use stencil_model::{GridSize, TuningVector};

const CASES: [(&str, BenchmarkKernel, GridSize, TuningVector); 4] = [
    (
        "laplacian_64_blocked",
        BenchmarkKernel::Laplacian,
        GridSize::cube(64),
        TuningVector::new(32, 16, 8, 2, 2),
    ),
    (
        "laplacian_64_tiny_tiles",
        BenchmarkKernel::Laplacian,
        GridSize::cube(64),
        TuningVector::new(2, 2, 2, 0, 1),
    ),
    (
        "blur_256_blocked",
        BenchmarkKernel::Blur,
        GridSize::square(256),
        TuningVector::new(128, 16, 1, 4, 2),
    ),
    (
        "tricubic_32_blocked",
        BenchmarkKernel::Tricubic,
        GridSize::cube(32),
        TuningVector::new(32, 8, 4, 2, 1),
    ),
];

fn main() {
    let samples = if quick_mode() { 8 } else { 25 };
    let mut report = PerfReport::new("executor");
    let mut engine = Engine::new(4);
    let cfg = MeasureConfig { warmup: 1, reps: 1 };
    for (name, kernel, size, tuning) in CASES {
        report.record(name, samples, || {
            black_box(kernel.measure(&mut engine, size, &tuning, cfg));
        });
    }
    report.write();
}
