//! Overload behavior of the serving layer: how fast the admission
//! controller rejects when saturated, and what goodput survives a burst at
//! well past the worker's drain rate.
//!
//! The point of load shedding is that *saying no is nearly free*: a shed
//! must cost nanoseconds on the submitter's thread (two atomic loads and
//! an error return), never a queue wait or a timeout. Variants:
//!
//! * `submit_reject_1k_saturated` — 1000 `submit` calls against a service
//!   whose bounded queue is full behind a busy worker: the pure fast-path
//!   rejection latency. The perf snapshot trips if a rejection costs more
//!   than 100µs — the acceptance bar is "sheds under 1ms p99", this
//!   enforces it with a 10x margin on the median.
//! * `burst_200req_tiny_queue` — 200 distinct requests submitted
//!   back-to-back into a 16-deep queue (the producer runs far ahead of the
//!   single-threaded worker, i.e. >2x saturation): measures the time to
//!   shed the excess AND fully drain every admitted request. Every
//!   admitted ticket must resolve; counters must balance exactly
//!   (`requests == admitted`, `sheds == shed_queue`, depth back to 0).
//!
//! The ranker is synthetic (dense pinned-PRNG weights): overload dynamics
//! do not depend on how the weights were obtained.
//!
//! The run writes a machine-readable `BENCH_serve_overload.json` snapshot
//! (see `sorl_bench::perf`). Set `SORL_BENCH_QUICK=1` for the CI sample
//! budget.

use sorl::StencilRanker;
use sorl_bench::perf::{quick_mode, PerfReport};
use sorl_serve::{ServeConfig, ServeError, TuneService, TuneTicket};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

/// Deterministic dense synthetic ranker (no training run needed).
fn dense_ranker() -> StencilRanker {
    sorl::synthetic_ranker(0x2545_f491_4f6c_dd1d)
}

/// Distinct 3-D instances (cache/dedup never short-circuits the work).
fn inst(i: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(48 + i % 160)).unwrap()
}

/// A single-threaded worker behind a tiny bounded queue: the shape that
/// saturates instantly under a submission burst.
fn overload_config(max_queue: usize) -> ServeConfig {
    ServeConfig { cache_capacity: 0, max_queue, ..Default::default() }
}

/// Tops the queue up to its bound (keeping the worker busy), returning the
/// tickets so the caller controls when the backlog drains.
fn saturate(service: &TuneService, salt: u32, tickets: &mut Vec<TuneTicket>) {
    let client = service.client();
    for i in 0..64u32 {
        match client.submit(inst(salt.wrapping_add(i)), 1) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded(_)) => return, // queue is full again
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
}

/// 1000 submissions against the saturated service; returns how many were
/// rejected (the rest joined the backlog and are pushed onto `tickets`).
fn reject_1k(service: &TuneService, salt: u32, tickets: &mut Vec<TuneTicket>) -> u64 {
    let client = service.client();
    let mut rejected = 0u64;
    for i in 0..1000u32 {
        match client.submit(inst(salt.wrapping_add(i)), 1) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded(_)) => rejected += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    rejected
}

/// One overload burst: 200 distinct submissions against a fresh service,
/// then a full drain of everything admitted. Returns `(admitted, sheds)`.
fn burst_200(service: &TuneService) -> (u64, u64) {
    let client = service.client();
    let mut tickets = Vec::new();
    let mut sheds = 0u64;
    for i in 0..200u32 {
        match client.submit(inst(i), 1) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded(_)) => sheds += 1,
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    let admitted = tickets.len() as u64;
    for t in tickets {
        t.wait().expect("admitted request answered");
    }
    (admitted, sheds)
}

fn main() {
    let ranker = dense_ranker();
    let samples = if quick_mode() { 10 } else { 30 };
    let mut report = PerfReport::new("serve_overload");

    let saturated = TuneService::spawn(ranker.clone(), overload_config(4));
    let mut backlog = Vec::new();
    let mut salt = 1u32;
    let mut rejected_total = 0u64;
    report.record("submit_reject_1k_saturated", samples, || {
        saturate(&saturated, salt, &mut backlog);
        salt = salt.wrapping_add(2000);
        rejected_total += reject_1k(&saturated, salt.wrapping_add(1000), &mut backlog);
    });
    assert!(
        rejected_total >= samples as u64 * 900,
        "the saturated service barely shed ({rejected_total} rejections) — \
         the measurement is not exercising the fast-reject path"
    );
    for t in backlog.drain(..) {
        t.wait().expect("backlogged request answered");
    }

    let mut last = (0u64, 0u64);
    report.record("burst_200req_tiny_queue", samples, || {
        let service = TuneService::spawn(ranker.clone(), overload_config(16));
        last = burst_200(&service);
        // The ledger must balance every round: what was admitted reached
        // the worker, what was shed was shed at the queue, nothing is in
        // flight afterwards.
        let stats = service.stats();
        assert_eq!(stats.requests, last.0, "admitted == served");
        assert_eq!(stats.shed_queue, last.1, "sheds counted at the queue");
        assert_eq!(stats.queue_depth, 0, "queue drained");
        assert_eq!(last.0 + last.1, 200, "every submission accounted for");
    });
    let (admitted, sheds) = last;
    let burst_s = report.median_of("burst_200req_tiny_queue").unwrap();
    println!(
        "  burst: {admitted} admitted / {sheds} shed of 200; goodput {:.0} answers/s",
        admitted as f64 / burst_s
    );
    assert!(sheds > 0, "a 200-burst into a 16-deep queue must shed");

    let reject_s = report.median_of("submit_reject_1k_saturated").unwrap() / 1000.0;
    println!("  rejection fast path: {:.2} µs per shed (median)", reject_s * 1e6);
    report.write();

    // The admission-control contract: a shed is a fast rejection on the
    // submitter's thread — 100µs is 10x slack over the <1ms acceptance
    // bar, and ~1000x a healthy atomic fast path.
    assert!(
        reject_s < 100e-6,
        "shedding must be a fast path: {:.2} µs per rejection",
        reject_s * 1e6
    );
}
