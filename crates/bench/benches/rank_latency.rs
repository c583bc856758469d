//! Ranking (regression-phase) latency — the paper's "< 1 ms" claim
//! (Table II, Regression column).
//!
//! Granularities, before/after comparable:
//!
//! * scoring a single already-encoded candidate (the number comparable to
//!   svm_rank's per-example cost),
//! * the raw scoring kernel over the packed 8640-row candidate matrix —
//!   dispatched (AVX2 where available) vs. the portable loop; the perf
//!   snapshot trips if active SIMD is not >= 1.2x the portable loop,
//! * the *legacy* per-candidate path (instance clone + `StencilExecution`
//!   plus a fresh `TuningSpace` per candidate — the pre-batching baseline,
//!   reproduced inline so the speedup stays measurable),
//! * the batched path (a sequential `TuningSession` over the cached
//!   predefined set),
//! * the batched + parallel path (`TuningSession` with a persistent
//!   thread pool).
//!
//! Besides the criterion output, the run writes a machine-readable
//! `BENCH_rank_latency.json` snapshot (see `sorl_bench::perf`) so the
//! repo accumulates a perf trajectory; CI archives one per run. Set
//! `SORL_BENCH_QUICK=1` for the CI sample budget.

use criterion::Criterion;
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

fn bench_rank_latency(c: &mut Criterion, ctx: &Ctx) {
    let mut g = c.benchmark_group("rank_latency");
    let set3 = predefined_candidates(3);

    // Single-candidate scoring on a pre-encoded feature row.
    let exec = StencilExecution::new(ctx.q3.clone(), TuningVector::new(64, 16, 8, 2, 2)).unwrap();
    let features = ctx.ranker.encoder().encode(&exec);
    g.bench_function("score_single_candidate", |b| {
        b.iter(|| black_box(ctx.ranker.model().score(black_box(&features))))
    });

    // Encoding + scoring one candidate.
    g.bench_function("encode_and_score_single", |b| {
        b.iter(|| black_box(ctx.ranker.score(black_box(&exec))))
    });

    // The raw scoring kernel over the packed 8640-row matrix: dispatched
    // (AVX2 where the host has it) vs. the portable reference loop.
    let (matrix, w) = packed_matrix(ctx);
    let mut scores = vec![0.0f64; matrix.rows()];
    g.bench_function("score_matrix_8640_kernel", |b| {
        b.iter(|| {
            kernel::score_rows_into(&w, matrix.rows_data(), matrix.stride(), &mut scores);
            black_box(scores[0])
        })
    });
    g.bench_function("score_matrix_8640_portable", |b| {
        b.iter(|| {
            kernel::score_rows_portable(&w, matrix.rows_data(), matrix.stride(), &mut scores);
            black_box(scores[0])
        })
    });

    // Legacy per-candidate baseline on the 3-D set.
    g.bench_function("tune_3d_legacy_per_candidate", |b| {
        b.iter(|| black_box(legacy_tune(&ctx.ranker, &ctx.q3, set3)))
    });

    // Batched session, sequential and parallel.
    let mut seq = TuningSession::new(ctx.ranker.clone());
    g.bench_function("tune_3d_session_batched", |b| b.iter(|| black_box(seq.tune(&ctx.q3))));
    let mut par = TuningSession::parallel(
        ctx.ranker.clone(),
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
    );
    g.bench_function("tune_3d_session_parallel", |b| b.iter(|| black_box(par.tune(&ctx.q3))));

    // The 2-D set (1600 candidates), batched vs. parallel.
    g.bench_function("tune_2d_session_batched", |b| b.iter(|| black_box(seq.tune(&ctx.q2))));
    g.bench_function("tune_2d_session_parallel", |b| b.iter(|| black_box(par.tune(&ctx.q2))));

    g.finish();
}

/// JSON snapshot pass: fixed sample counts (independent of criterion's
/// adaptive iteration sizing) so medians are comparable run-over-run.
fn emit_perf_snapshot(ctx: &Ctx) {
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

fn main() {
    let ctx = Ctx::new();
    let samples = if quick_mode() { 5 } else { 20 };
    let mut criterion = Criterion::default().sample_size(samples);
    bench_rank_latency(&mut criterion, &ctx);
    emit_perf_snapshot(&ctx);
}
