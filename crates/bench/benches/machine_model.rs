//! Simulated machine throughput: cost-model evaluations per second. The
//! whole evaluation methodology rests on the simulator being orders of
//! magnitude cheaper than real execution, so regressions here matter.
//!
//! The run writes a machine-readable `BENCH_machine_model.json` snapshot
//! (see `sorl_bench::perf`). Set `SORL_BENCH_QUICK=1` for the quick sample
//! budget.

use std::hint::black_box;

use sorl_bench::perf::{quick_mode, PerfReport};
use stencil_machine::Machine;
use stencil_model::{GridSize, StencilExecution, StencilInstance, StencilKernel, TuningVector};

fn main() {
    let machine = Machine::xeon_e5_2680_v3();
    let sparse = StencilExecution::new(
        StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(256)).unwrap(),
        TuningVector::new(64, 16, 8, 2, 2),
    )
    .unwrap();
    let dense = StencilExecution::new(
        StencilInstance::new(StencilKernel::tricubic(), GridSize::cube(256)).unwrap(),
        TuningVector::new(64, 16, 8, 2, 2),
    )
    .unwrap();

    let samples = if quick_mode() { 20 } else { 60 };
    let mut report = PerfReport::new("machine_model");
    report.record("simulate_sparse_7pt", samples, || {
        black_box(machine.execute(black_box(&sparse)));
    });
    report.record("simulate_dense_64pt", samples, || {
        black_box(machine.execute(black_box(&dense)));
    });
    report.record("cost_breakdown_noiseless", samples, || {
        black_box(machine.cost(black_box(&sparse)));
    });
    report.write();
}
