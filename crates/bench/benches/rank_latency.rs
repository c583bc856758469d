//! Ranking (regression-phase) latency — the paper's "< 1 ms" claim
//! (Table II, Regression column).
//!
//! Granularities, before/after comparable:
//!
//! * scoring a single already-encoded candidate (the number comparable to
//!   svm_rank's per-example cost),
//! * the raw scoring kernel over the packed 8640-row candidate matrix —
//!   dispatched (AVX2 where available) vs. the portable loop; the kernel
//!   still serves `TuningSession::scores`, the full-row fallbacks and the
//!   band rescoring, and the perf snapshot trips if active SIMD is not
//!   >= 1.2x the portable loop,
//! * the *legacy* per-candidate path (instance clone + `StencilExecution`
//!   plus a fresh `TuningSpace` per candidate — the pre-batching baseline,
//!   reproduced inline so the speedup stays measurable),
//! * the session path (a sequential `TuningSession::tune` over the cached
//!   predefined set: the per-query fold plus the exact rescoring of its
//!   band); the perf snapshot trips if the 3-D tune's median is not under
//!   the paper's 1 ms,
//! * the same query on a session with a thread pool (folded queries run
//!   on the calling thread, so this tracks the sequential one).
//!
//! The run writes a machine-readable `BENCH_rank_latency.json` snapshot
//! (see `sorl_bench::perf`) so the repo accumulates a perf trajectory; CI
//! archives one per run. Set `SORL_BENCH_QUICK=1` for the CI sample
//! budget.

use std::hint::black_box;

use ranksvm::kernel;
use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::session::{predefined_candidates, TuningSession};
use sorl::StencilRanker;
use sorl_bench::perf::{quick_mode, PerfReport};
use stencil_model::{
    CandidateMatrix, GridSize, StencilExecution, StencilInstance, StencilKernel, TuningVector,
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
}

/// The packed 3-D candidate matrix for one query — the exact operand the
/// steady-state serving path hands the scoring kernel.
fn packed_matrix(ctx: &Ctx) -> (CandidateMatrix, Vec<f64>) {
    let encoder = ctx.ranker.encoder();
    let set3 = predefined_candidates(3);
    let qf = encoder.query_features(&ctx.q3);
    let mut matrix = CandidateMatrix::with_row_capacity(encoder.dim(), set3.len());
    for &t in set3 {
        matrix.push_row_with(|out| encoder.append_candidate(&qf, t, out));
    }
    (matrix, ctx.ranker.model().weights().to_vec())
}

impl Ctx {
    fn new() -> Self {
        let out =
            TrainingPipeline::new(PipelineConfig { training_size: 960, ..Default::default() })
                .run();
        Ctx {
            ranker: out.ranker,
            q3: StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap(),
            q2: StencilInstance::new(StencilKernel::blur(), GridSize::square(1024)).unwrap(),
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
    let threads = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut par = TuningSession::parallel(ctx.ranker.clone(), threads);
    report.record("tune_3d_session_parallel", samples, || {
        black_box(par.tune(&ctx.q3));
    });
    report.record("tune_2d_legacy_per_candidate", samples, || {
        black_box(legacy_tune(&ctx.ranker, &ctx.q2, set2));
    });
    report.record("tune_2d_session_batched", samples, || {
        black_box(seq.tune(&ctx.q2));
    });
    report.record("tune_2d_session_parallel", samples, || {
        black_box(par.tune(&ctx.q2));
    });

    // Kernel-level samples are microseconds each; take plenty.
    let ksamples = if quick_mode() { 100 } else { 400 };
    let (matrix, w) = packed_matrix(ctx);
    let mut scores = vec![0.0f64; matrix.rows()];
    report.record("score_matrix_8640_kernel", ksamples, || {
        kernel::score_rows_into(&w, matrix.rows_data(), matrix.stride(), &mut scores);
        black_box(scores[0]);
    });
    report.record("score_matrix_8640_portable", ksamples, || {
        kernel::score_rows_portable(&w, matrix.rows_data(), matrix.stride(), &mut scores);
        black_box(scores[0]);
    });

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
    let parallel = report.median_of("tune_3d_session_parallel").unwrap();
    println!(
        "  speedup over legacy: batched {:.2}x, parallel {:.2}x ({} threads)",
        legacy / batched,
        legacy / parallel,
        threads
    );
    let kernel_s = report.median_of("score_matrix_8640_kernel").unwrap();
    let portable_s = report.median_of("score_matrix_8640_portable").unwrap();
    println!(
        "  scoring kernel: {} at {:.2}x the portable loop ({} rows)",
        kernel::active_kernel(),
        portable_s / kernel_s,
        matrix.rows()
    );
    report.write();

    // The paper's Table II bound: ranking the 8640 predefined 3-D
    // candidates for an unseen instance takes under 1 ms.
    assert!(
        batched < 1e-3,
        "a 3-D session tune must take under 1 ms (paper Table II): median {batched} s"
    );

    // The SIMD contract: on wide batches the dispatched AVX2 kernel must
    // beat the portable loop by >= 1.2x. Guarded on dispatch — a host
    // without AVX2 runs the portable loop on both sides.
    if kernel::simd_active() {
        assert!(
            kernel_s * 1.2 <= portable_s,
            "SIMD kernel must be >= 1.2x the portable loop on wide batches: \
             {kernel_s} vs {portable_s}"
        );
    }
}
