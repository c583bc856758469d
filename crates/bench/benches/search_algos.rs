//! Search-engine overhead: the four baselines at a 256-evaluation budget on
//! a simulated laplacian 64^3 objective. Measures the full search loop, so
//! it reflects both algorithm bookkeeping and cost-model calls.
//!
//! The run writes a machine-readable `BENCH_search_algos.json` snapshot
//! (see `sorl_bench::perf`), one variant per engine under its name. Set
//! `SORL_BENCH_QUICK=1` for the quick sample budget.

use std::hint::black_box;

use sorl::objective::MachineObjective;
use sorl_bench::perf::{quick_mode, PerfReport};
use stencil_machine::Machine;
use stencil_model::{GridSize, StencilInstance, StencilKernel};
use stencil_search::paper_baselines;

fn main() {
    let machine = Machine::xeon_e5_2680_v3();
    let instance = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(64)).unwrap();

    let samples = if quick_mode() { 20 } else { 60 };
    let mut report = PerfReport::new("search_algos");
    for algo in paper_baselines() {
        report.record(algo.name(), samples, || {
            let mut obj = MachineObjective::new(&machine, instance.clone());
            let space = obj.search_space();
            black_box(algo.run(&space, &mut obj, 256, 42));
        });
    }
    report.write();
}
