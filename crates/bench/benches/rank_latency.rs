//! Ranking (regression-phase) latency — the paper's "< 1 ms" claim
//! (Table II, Regression column).
//!
//! Granularities, before/after comparable:
//!
//! * scoring a single already-encoded candidate (the number comparable to
//!   svm_rank's per-example cost),
//! * the *legacy* per-candidate path (instance clone + `StencilExecution`
//!   plus a fresh `TuningSpace` per candidate — the pre-batching baseline,
//!   reproduced inline so the speedup stays measurable),
//! * the session path (a sequential `TuningSession::tune` over the cached
//!   predefined set: the per-query fold plus the exact rescoring of its
//!   band); the perf snapshot trips if the 3-D tune's median is not under
//!   the paper's 1 ms,
//! * the full-row fallback as the session serves it: a top-8 over the 3-D
//!   set for a pattern wider than `max_offset` (radius 4), where the fold
//!   does not apply and all 8640 rows are encoded and scored one reused
//!   row at a time.
//!
//! The run writes a machine-readable `BENCH_rank_latency.json` snapshot
//! (see `sorl_bench::perf`) so the repo accumulates a perf trajectory; CI
//! archives one per run. Set `SORL_BENCH_QUICK=1` for the CI sample
//! budget.

use std::hint::black_box;

use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::session::{predefined_candidates, TuningSession};
use sorl::StencilRanker;
use sorl_bench::perf::{quick_mode, PerfReport};
use stencil_model::{
    DType, GridSize, Offset, StencilExecution, StencilInstance, StencilKernel, StencilPattern,
    TuningVector,
};

/// The pre-batching hot path, reproduced verbatim as the baseline.
fn legacy_tune(
    ranker: &StencilRanker,
    instance: &StencilInstance,
    candidates: &[TuningVector],
) -> (TuningVector, f64) {
    let mut features = Vec::with_capacity(ranker.encoder().dim());
    let mut best = 0usize;
    let mut best_score = f64::NEG_INFINITY;
    for (i, &t) in candidates.iter().enumerate() {
        let exec = StencilExecution::new(instance.clone(), t).expect("admissible");
        ranker.encoder().encode_into(&exec, &mut features);
        let s = ranker.model().score(&features);
        if s > best_score {
            best = i;
            best_score = s;
        }
    }
    (candidates[best], best_score)
}

struct Ctx {
    ranker: StencilRanker,
    q3: StencilInstance,
    q2: StencilInstance,
    /// A 3-D pattern of radius 4, wider than `max_offset`: its queries take
    /// the full-row path.
    wide3: StencilInstance,
}

impl Ctx {
    fn new() -> Self {
        let out =
            TrainingPipeline::new(PipelineConfig { training_size: 960, ..Default::default() })
                .run();
        let mut pattern = StencilPattern::new();
        for o in [Offset::ORIGIN, Offset::new(4, 0, 0), Offset::new(0, -1, 1)] {
            pattern.add(o);
        }
        let wide = StencilKernel::new("wide", pattern, 2, DType::F64).unwrap();
        Ctx {
            ranker: out.ranker,
            q3: StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap(),
            q2: StencilInstance::new(StencilKernel::blur(), GridSize::square(1024)).unwrap(),
            wide3: StencilInstance::new(wide, GridSize::cube(96)).unwrap(),
        }
    }
}

fn main() {
    let ctx = &Ctx::new();
    let samples = if quick_mode() { 15 } else { 60 };
    let mut report = PerfReport::new("rank_latency");
    let set3 = predefined_candidates(3);
    let set2 = predefined_candidates(2);

    report.record("tune_3d_legacy_per_candidate", samples, || {
        black_box(legacy_tune(&ctx.ranker, &ctx.q3, set3));
    });
    let mut seq = TuningSession::new(ctx.ranker.clone());
    report.record("tune_3d_session_batched", samples, || {
        black_box(seq.tune(&ctx.q3));
    });
    report.record("tune_2d_legacy_per_candidate", samples, || {
        black_box(legacy_tune(&ctx.ranker, &ctx.q2, set2));
    });
    report.record("tune_2d_session_batched", samples, || {
        black_box(seq.tune(&ctx.q2));
    });

    report.record("top8_wide_3d_full_row", samples, || {
        black_box(seq.top_k_predefined(&ctx.wide3, 8));
    });

    // Kernel-level samples are microseconds each; take plenty.
    let ksamples = if quick_mode() { 100 } else { 400 };
    // Single-candidate scoring on a pre-encoded feature row, and encoding
    // plus scoring one candidate: the numbers comparable to svm_rank's
    // per-example cost.
    let exec = StencilExecution::new(ctx.q3.clone(), TuningVector::new(64, 16, 8, 2, 2)).unwrap();
    let features = ctx.ranker.encoder().encode(&exec);
    report.record("score_single_candidate", ksamples, || {
        black_box(ctx.ranker.model().score(black_box(&features)));
    });
    report.record("encode_and_score_single", ksamples, || {
        black_box(ctx.ranker.score(black_box(&exec)));
    });

    let legacy = report.median_of("tune_3d_legacy_per_candidate").unwrap();
    let batched = report.median_of("tune_3d_session_batched").unwrap();
    let full_row = report.median_of("top8_wide_3d_full_row").unwrap();
    println!(
        "  3-D tune: {:.2}x faster than legacy; full-row 3-D top-8: {:.3} ms",
        legacy / batched,
        full_row * 1e3
    );
    report.write();

    // The paper's Table II bound: ranking the 8640 predefined 3-D
    // candidates for an unseen instance takes under 1 ms.
    assert!(
        batched < 1e-3,
        "a 3-D session tune must take under 1 ms (paper Table II): median {batched} s"
    );
}
