//! End-to-end tests of the tuning service: answers must be bit-for-bit
//! identical to direct `TuningSession` queries, under concurrency, caching
//! and shutdown.

use std::time::Duration;

use sorl::session::TuningSession;
use sorl::StencilRanker;
use sorl_obs::{EventKind, TraceId};
use sorl_serve::{ServeConfig, TuneRequest, TuneService};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

/// Deterministic dense synthetic ranker (no training run needed).
fn dense_ranker() -> StencilRanker {
    sorl::synthetic_ranker(0x2545_f491_4f6c_dd1d)
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

fn blur(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::blur(), GridSize::square(n)).unwrap()
}

fn config() -> ServeConfig {
    // Modest threads so CI machines are not oversubscribed.
    ServeConfig { threads: 2, ..Default::default() }
}

#[test]
fn service_answers_match_direct_session_queries() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let service = TuneService::spawn(ranker, config());
    let client = service.client();
    for (q, k) in [(lap(128), 1), (blur(1024), 3), (lap(96), 17), (blur(640), 0)] {
        let got = client.tune(q.clone(), k).unwrap();
        let want = reference.top_k_predefined(&q, k);
        assert_eq!(got.entries, want.entries, "{q} k = {k}");
        assert_eq!(got.candidates, want.candidates, "{q} k = {k}");
        assert_eq!(got.len(), k.min(want.candidates));
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 4);
    assert_eq!(stats.cache_misses, 4);
}

#[test]
fn repeated_queries_hit_the_decision_cache() {
    let service = TuneService::spawn(dense_ranker(), config());
    let client = service.client();
    let first = client.tune(lap(128), 3).unwrap();
    for _ in 0..5 {
        let again = client.tune(lap(128), 3).unwrap();
        assert_eq!(again.entries, first.entries);
    }
    // Smaller k on the same instance: still a hit (prefix of the cached
    // entries), thanks to the cache k-floor.
    let one = client.tune(lap(128), 1).unwrap();
    assert_eq!(one.entries[..], first.entries[..1]);
    let stats = service.stats();
    assert_eq!(stats.requests, 7);
    assert_eq!(stats.cache_hits, 6);
    assert_eq!(stats.cache_misses, 1);
    assert_eq!(stats.scored_instances, 1);
    assert_eq!(stats.cache_entries, 1);
}

#[test]
fn structurally_identical_kernels_share_one_cache_entry() {
    // Same pattern/buffers/dtype/size under a different name must be the
    // same decision — the cache keys on InstanceKey, not on the kernel id.
    let service = TuneService::spawn(dense_ranker(), config());
    let client = service.client();
    let k = StencilKernel::laplacian();
    let renamed =
        StencilKernel::new("renamed", k.pattern().clone(), k.buffers(), k.dtype()).unwrap();
    let a = client.tune(lap(128), 2).unwrap();
    let b = client.tune(StencilInstance::new(renamed, GridSize::cube(128)).unwrap(), 2).unwrap();
    assert_eq!(a.entries, b.entries);
    let stats = service.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.scored_instances, 1);
}

#[test]
fn within_batch_duplicates_are_scored_once() {
    // Cache disabled: the dedup must come from micro-batch grouping alone.
    let service = TuneService::spawn(dense_ranker(), ServeConfig { cache_capacity: 0, ..config() });
    let client = service.client();
    // A query for the whole 3-D set takes the full-row path and holds the
    // worker for milliseconds. Once the worker has taken it as a batch of
    // one, the 8 requests queue behind it and drain as one batch.
    let slow = client.submit(lap(96), 8640).unwrap();
    while service.stats().batches == 0 {
        std::thread::sleep(Duration::from_micros(100));
    }
    let requests: Vec<TuneRequest> = (0..8)
        .map(|i| TuneRequest::new(if i % 2 == 0 { lap(128) } else { blur(1024) }, 2))
        .collect();
    let answers = client.tune_many(requests).unwrap();
    slow.wait().unwrap();
    assert_eq!(answers.len(), 8);
    for pair in answers.chunks(2) {
        assert_eq!(answers[0].entries, pair[0].entries);
        assert_eq!(answers[1].entries, pair[1].entries);
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 9);
    assert_eq!(stats.cache_hits, 0, "cache is disabled");
    assert_eq!(stats.batches, 2, "{stats}");
    // 8 requests over 2 unique instances in one batch: two passes.
    assert_eq!(stats.scored_instances, 1 + 2, "{stats}");
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let expected: Vec<_> =
        [64u32, 96, 128].iter().map(|&n| reference.top_k_predefined(&lap(n), 2).entries).collect();

    let service = TuneService::spawn(ranker, config());
    let workers: Vec<_> = (0..4)
        .map(|w| {
            let client = service.client();
            let expected = expected.clone();
            std::thread::spawn(move || {
                for round in 0..6 {
                    let idx = (w + round) % 3;
                    let top = client.tune(lap([64, 96, 128][idx]), 2).unwrap();
                    assert_eq!(top.entries, expected[idx], "worker {w} round {round}");
                }
            })
        })
        .collect();
    for h in workers {
        h.join().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 24);
    assert_eq!(stats.scored_instances, 3, "three unique instances, each scored once");
    assert!(stats.hit_rate() > 0.5, "{stats}");
}

#[test]
fn a_mixed_burst_of_hits_misses_and_duplicates_matches_direct_queries() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let service = TuneService::spawn(ranker, config());
    let client = service.client();
    client.tune(lap(96), 4).unwrap();
    client.tune(blur(640), 4).unwrap();
    let burst = [
        (lap(96), 2),    // hit
        (lap(128), 1),   // miss
        (blur(640), 4),  // hit
        (lap(128), 5),   // duplicate miss, deeper k
        (blur(1024), 3), // miss
        (lap(96), 1),    // hit
        (blur(1024), 3), // duplicate miss
        (lap(96), 20),   // deeper than the cached depth: a miss
    ];
    let requests = burst.iter().map(|(q, k)| TuneRequest::new(q.clone(), *k)).collect();
    let answers = client.tune_many(requests).unwrap();
    for ((q, k), got) in burst.iter().zip(&answers) {
        let want = reference.top_k_predefined(q, *k);
        assert_eq!(got.entries, want.entries, "{q} k = {k}");
        assert_eq!(got.candidates, want.candidates, "{q} k = {k}");
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 2 + burst.len() as u64);
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests, "one lookup per request");
}

#[test]
fn a_lone_miss_is_not_held() {
    let service = TuneService::spawn(dense_ranker(), config());
    let client = service.client();
    let miss = TraceId::fresh();
    client.submit_traced(lap(64), 2, miss).unwrap().wait().unwrap();

    let events = service.flight_recorder().snapshot();
    // A span's (begin, end) on the recorder's clock, in nanoseconds.
    let span = |name: &str| -> Option<(u64, u64)> {
        let begin = events
            .iter()
            .find(|e| e.trace == miss && e.name == name && e.kind == EventKind::SpanBegin)?;
        let end = events.iter().find(|e| e.span == begin.span && e.kind == EventKind::SpanEnd)?;
        Some((begin.t_ns, end.t_ns))
    };
    let (_, dequeued) = span("queue_wait").expect("the miss recorded its queue wait");
    let (scored, _) = span("score_batch").expect("the miss recorded its scoring");
    let held = Duration::from_nanos(scored.saturating_sub(dequeued));
    assert!(held < Duration::from_millis(10), "a lone miss waited {held:?} for company");
}

#[test]
fn latency_percentiles_and_size_histogram_are_published_with_answers() {
    let service = TuneService::spawn(dense_ranker(), config());
    let client = service.client();
    client.tune(lap(128), 2).unwrap();
    // The no-read-race contract: right after an answer arrives, stats()
    // already reflects that batch — histograms included.
    let stats = service.stats();
    assert_eq!(stats.batch_size_hist.iter().sum::<u64>(), stats.batches);
    assert!(stats.batch_latency_p50_s > 0.0, "{stats}");
    assert!(
        stats.batch_latency_p50_s <= stats.batch_latency_p95_s
            && stats.batch_latency_p95_s <= stats.batch_latency_p99_s,
        "percentiles are monotone: {stats}"
    );
    // A burst lands in the histogram too (some batch of size >= 2, or at
    // worst more single-request batches — either way the total matches).
    let requests: Vec<TuneRequest> =
        (0..6).map(|i| TuneRequest::new(lap(64 + 16 * i), 1)).collect();
    client.tune_many(requests).unwrap();
    let stats = service.stats();
    assert_eq!(stats.batch_size_hist.iter().sum::<u64>(), stats.batches);
    assert_eq!(stats.requests, 7);
}

#[test]
fn shutdown_rejects_later_submissions() {
    let service = TuneService::spawn(dense_ranker(), config());
    let client = service.client();
    assert!(client.tune(lap(64), 1).is_ok());
    drop(service);
    assert!(client.tune(lap(64), 1).is_err());
    assert!(client.submit(lap(64), 1).is_err());
}

#[test]
fn eviction_counters_surface_in_stats() {
    let cfg = ServeConfig { cache_capacity: 2, ..config() };
    let service = TuneService::spawn(dense_ranker(), cfg);
    let client = service.client();
    for n in [64u32, 80, 96, 112] {
        client.tune(lap(n), 1).unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.cache_entries, 2);
    assert!(stats.cache_evictions >= 2, "{stats}");
}
