//! Admission-control and non-blocking-ticket tests against a live
//! service: bounded-queue sheds, latency sheds (and recovery), and the
//! callback ticket path.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use sorl::session::TuningSession;
use sorl::StencilRanker;
use sorl_serve::{ServeConfig, ServeError, ShedReason, TuneService};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

/// Deterministic dense synthetic ranker (no training run needed).
fn dense_ranker() -> StencilRanker {
    sorl::synthetic_ranker(0x2545_f491_4f6c_dd1d)
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

#[test]
fn bounded_queue_sheds_with_queue_full_and_counters_balance() {
    // A queue capped at 2 with single-request batches: a tight submission
    // loop outruns the worker (each batch is a real scoring pass), so most
    // submissions must fast-reject with QueueFull.
    let cfg = ServeConfig {
        threads: 2,
        max_batch: 1,
        cache_capacity: 0,
        max_queue: 2,
        ..Default::default()
    };
    let service = TuneService::spawn(dense_ranker(), cfg);
    let client = service.client();

    let mut tickets = Vec::new();
    let mut sheds = 0u64;
    for i in 0..200u32 {
        // Distinct instances so the (disabled) cache or dedup cannot turn
        // the work into no-ops.
        match client.submit(lap(32 + i % 96), 1) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded(reason)) => {
                assert_eq!(reason, ShedReason::QueueFull);
                sheds += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(sheds > 0, "200 rapid submissions against a 2-deep queue must shed");
    let admitted = tickets.len() as u64;

    // Every admitted request is answered — sheds lose nothing that was
    // accepted, and nothing is double-answered (each ticket resolves once).
    for t in tickets {
        let top = t.wait().expect("admitted request answered");
        assert_eq!(top.entries.len(), 1);
    }
    let stats = service.stats();
    assert_eq!(stats.requests, admitted, "only admitted requests reach the worker");
    assert_eq!(stats.shed_queue, sheds);
    assert_eq!(stats.shed_latency, 0);
    assert_eq!(stats.sheds(), sheds);
    assert_eq!(stats.queue_depth, 0, "queue drains back to empty: {stats}");
}

#[test]
fn latency_shedding_trips_under_backlog_and_recovers() {
    // A 1µs p99 threshold is below any real scoring pass, so the latency
    // shedder arms after the first served batch. It still only fires while
    // the queue is backed up past one batch — so after the backlog drains,
    // admission must recover even though the rolling p99 stays high.
    let cfg = ServeConfig {
        threads: 2,
        max_batch: 1,
        cache_capacity: 0,
        max_queue: 0, // unbounded: isolate the latency shedder
        shed_p99: Duration::from_micros(1),
        ..Default::default()
    };
    let service = TuneService::spawn(dense_ranker(), cfg);
    let client = service.client();

    // Prime the rolling p99 with one served batch.
    client.tune(lap(64), 1).unwrap();
    assert!(
        service.stats().recent_batch_latency_p99_s > 1e-6,
        "a scoring pass takes longer than the shed threshold"
    );

    let mut tickets = Vec::new();
    let mut sheds = 0u64;
    for i in 0..200u32 {
        match client.submit(lap(32 + i % 96), 1) {
            Ok(t) => tickets.push(t),
            Err(ServeError::Overloaded(reason)) => {
                assert_eq!(reason, ShedReason::BatchLatency);
                sheds += 1;
            }
            Err(other) => panic!("unexpected submit error: {other}"),
        }
    }
    assert!(sheds > 0, "backlogged slow service must shed on latency");
    for t in tickets {
        t.wait().expect("admitted request answered");
    }

    // Recovery: the queue is empty again, so despite the high rolling p99
    // a fresh submission is admitted (the depth guard is the hysteresis).
    let stats = service.stats();
    assert_eq!(stats.queue_depth, 0);
    assert_eq!(stats.shed_latency, sheds);
    client.tune(lap(48), 1).expect("admission recovers once the backlog drains");
}

#[test]
fn tickets_run_callbacks_against_a_live_service() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let service = TuneService::spawn(ranker, ServeConfig { threads: 2, ..Default::default() });
    let client = service.client();

    // The waker-style path: the hook hands the outcome to a channel the
    // test's "event loop" is parked on.
    let (tx, rx) = mpsc::channel();
    let fired = Arc::new(AtomicU64::new(0));
    let count = Arc::clone(&fired);
    client.submit(lap(96), 2).unwrap().on_ready(move |outcome| {
        count.fetch_add(1, Ordering::SeqCst);
        let _ = tx.send(outcome);
    });
    let top = rx.recv_timeout(Duration::from_secs(30)).unwrap().unwrap();
    assert_eq!(top.entries, reference.top_k_predefined(&lap(96), 2).entries);
    assert_eq!(fired.load(Ordering::SeqCst), 1, "hook runs exactly once");
}
