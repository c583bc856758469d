//! Serving-layer throughput: micro-batched service vs. a per-request
//! `TuningSession::tune` loop, and the decision cache's hot path.
//!
//! The workload is the serving pattern the `sorl-serve` crate is built
//! for: a burst of 8 concurrent requests over 4 distinct 3-D instances
//! (each appearing twice — repeated queries dominate real tuning traffic).
//! Variants:
//!
//! * `tune_loop_8x3d` — the pre-service baseline: answer each request with
//!   its own sequential `TuningSession::tune` pass.
//! * `session_tune_batch_8x3d` — the session's batch call without the
//!   service (one `TuningSession::top_k_batch` call: eight folded queries,
//!   no dedup).
//! * `service_microbatch_8x3d_cold` — the full service with the decision
//!   cache disabled: queue → micro-batch → within-batch dedup → one folded
//!   query per unique instance → top-k replies.
//! * `service_cache_hot_8x3d` — the same workload after warmup with the
//!   cache enabled: 100% hits, no scoring at all.
//!
//! The run writes a machine-readable `BENCH_serve_throughput.json`
//! snapshot (see `sorl_bench::perf`). Set `SORL_BENCH_QUICK=1` for the CI
//! sample budget.

use std::hint::black_box;
use std::time::Duration;

use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::session::TuningSession;
use sorl_bench::perf::{quick_mode, PerfReport};
use sorl_serve::{ServeConfig, TuneRequest, TuneService};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

/// 8 requests over 4 distinct 3-D instances, each instance twice.
fn workload() -> Vec<TuneRequest> {
    let sizes = [96u32, 112, 128, 160];
    (0..8)
        .map(|i| {
            let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(sizes[i % 4]))
                .unwrap();
            TuneRequest::new(q, 1)
        })
        .collect()
}

/// Service config for the benches: inline scoring (the comparison against
/// the sequential loop must not be confounded by extra threads) and a
/// short gather window — `tune_many` enqueues the whole burst before the
/// worker drains, so the window only needs to cover submission jitter. The
/// cache-hot variant never waits it out: hits skip the window.
fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig {
        threads: 1,
        max_batch: 64,
        gather_window: Duration::from_micros(200),
        cache_capacity,
        cache_k_floor: 8,
        ..Default::default()
    }
}

fn per_request_loop(session: &mut TuningSession, requests: &[TuneRequest]) -> f64 {
    let mut acc = 0.0;
    for r in requests {
        acc += session.tune(&r.instance).score;
    }
    acc
}

/// The requests as one `top_k_batch` call's queries.
fn batch_queries(requests: &[TuneRequest]) -> Vec<(&StencilInstance, usize)> {
    requests.iter().map(|r| (&r.instance, r.k)).collect()
}

fn main() {
    let ranker = TrainingPipeline::new(PipelineConfig { training_size: 960, ..Default::default() })
        .run()
        .ranker;
    let requests = workload();
    let samples = if quick_mode() { 12 } else { 40 };
    let mut report = PerfReport::new("serve_throughput");

    let mut loop_session = TuningSession::new(ranker.clone());
    report.record("tune_loop_8x3d", samples, || {
        black_box(per_request_loop(&mut loop_session, &requests));
    });

    let mut batch_session = TuningSession::new(ranker.clone());
    let queries = batch_queries(&requests);
    report.record("session_tune_batch_8x3d", samples, || {
        black_box(batch_session.top_k_batch(&queries));
    });

    let cold = TuneService::spawn(ranker.clone(), serve_config(0));
    let cold_client = cold.client();
    report.record("service_microbatch_8x3d_cold", samples, || {
        black_box(cold_client.tune_many(requests.clone()).unwrap());
    });
    let cold_stats = cold.stats();
    println!("  cold service: {cold_stats}");

    let hot = TuneService::spawn(ranker.clone(), serve_config(1024));
    let hot_client = hot.client();
    hot_client.tune_many(requests.clone()).unwrap();
    report.record("service_cache_hot_8x3d", samples, || {
        black_box(hot_client.tune_many(requests.clone()).unwrap());
    });
    let hot_stats = hot.stats();
    println!("  hot service:  {hot_stats}");

    let loop_s = report.median_of("tune_loop_8x3d").unwrap();
    let cold_s = report.median_of("service_microbatch_8x3d_cold").unwrap();
    let hot_s = report.median_of("service_cache_hot_8x3d").unwrap();
    println!(
        "  micro-batched service over per-request loop: {:.2}x (cold), cache hot over cold: {:.1}x",
        loop_s / cold_s,
        cold_s / hot_s
    );
    report.write();

    // The serving contracts this bench exists to witness (generous slack:
    // the JSON numbers are the record, this is a tripwire).
    assert!(
        cold_s <= loop_s * 1.10,
        "micro-batched service must not lose to the per-request loop: {cold_s} vs {loop_s}"
    );
    assert!(
        hot_s * 10.0 <= cold_s,
        "a 100% cache-hit workload must be >= 10x faster than cold: {hot_s} vs {cold_s}"
    );
}
