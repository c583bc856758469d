//! End-to-end tests of the tuning service: answers must be bit-for-bit
//! identical to direct `TuningSession` queries, under concurrency, caching
//! and shutdown.

use std::sync::{mpsc, Arc};
use std::time::Duration;

use sorl::session::TuningSession;
use sorl::StencilRanker;
use sorl_obs::{EventKind, FlightRecorder, TraceId};
use sorl_serve::{ServeConfig, ServeError, ShedReason, TuneRequest, TuneService};
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

#[test]
fn service_answers_match_direct_session_queries() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let service = TuneService::spawn(ranker, ServeConfig::default());
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
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
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
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
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
    // However the 8 requests split into batches, each of the 2 keys misses
    // once and is cached before its next lookup, so the other 6 hit.
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
    let client = service.client();
    let requests: Vec<TuneRequest> = (0..8)
        .map(|i| TuneRequest::new(if i % 2 == 0 { lap(128) } else { blur(1024) }, 2))
        .collect();
    let answers = client.tune_many(requests).unwrap();
    assert_eq!(answers.len(), 8);
    for pair in answers.chunks(2) {
        assert_eq!(answers[0].entries, pair[0].entries);
        assert_eq!(answers[1].entries, pair[1].entries);
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 8);
    assert_eq!(stats.scored_instances, 2, "{stats}");
    assert_eq!(stats.cache_hits, 6, "{stats}");
}

#[test]
fn cache_control_does_not_wait_behind_queued_tunes() {
    // 32 distinct whole-set 3-D queries take the full-row path, milliseconds
    // each: a backlog of well over 100 ms. With one request per batch, a
    // snapshot queued behind them would hold every one of their answers.
    const BACKLOG: usize = 32;
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
    let client = service.client();
    let tickets: Vec<_> =
        (0..BACKLOG as u32).map(|i| client.submit(lap(64 + 8 * i), 8640).unwrap()).collect();
    let snapshot = service.cache_snapshot().unwrap();
    assert!(snapshot.len() < BACKLOG, "the snapshot waited for all {BACKLOG} queued tunes");
    for ticket in tickets {
        ticket.wait().unwrap();
    }
    assert_eq!(service.cache_snapshot().unwrap().len(), BACKLOG);
}

#[test]
fn concurrent_clients_all_get_correct_answers() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let expected: Vec<_> =
        [64u32, 96, 128].iter().map(|&n| reference.top_k_predefined(&lap(n), 2).entries).collect();

    let service = TuneService::spawn(ranker, ServeConfig::default());
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
    let service = TuneService::spawn(ranker, ServeConfig::default());
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
    // Hits answered at submit and passes of the worker count alike: one
    // pass each, and only a miss scores.
    assert_eq!(stats.batches, stats.requests, "{stats}");
    assert_eq!(stats.batch_latency_hist.iter().sum::<u64>(), stats.requests, "{stats}");
    assert_eq!(stats.scored_instances, stats.cache_misses, "{stats}");
}

#[test]
fn a_lone_miss_is_not_held() {
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
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
fn a_hit_is_not_held_behind_a_later_miss() {
    // A whole-set 3-D query scores every full row: milliseconds on the
    // worker, long enough to queue a hit and a second miss behind it.
    const WHOLE_SET: usize = 8640;
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
    let client = service.client();
    let recorder = Arc::clone(service.flight_recorder());
    let missed = |recorder: &FlightRecorder, trace: TraceId| {
        recorder.snapshot().iter().any(|e| e.trace == trace && e.name == "cache_miss")
    };
    let warm = client.tune(lap(128), 2).unwrap();

    let busy = TraceId::fresh();
    let busy_ticket = client.submit_traced(lap(96), WHOLE_SET, busy).unwrap();
    while !missed(&recorder, busy) {
        std::thread::yield_now();
    }
    // The worker is scoring: queue the hit, then the second miss. The
    // hit's answer must go out before that miss is even looked up.
    let miss = TraceId::fresh();
    let (tx, rx) = mpsc::channel();
    client.submit(lap(128), 2).unwrap().on_ready(move |outcome| {
        let _ = tx.send((outcome, missed(&recorder, miss)));
    });
    let miss_ticket = client.submit_traced(lap(80), WHOLE_SET, miss).unwrap();

    let (outcome, miss_looked_up) = rx.recv_timeout(Duration::from_secs(30)).unwrap();
    assert_eq!(outcome.unwrap().entries, warm.entries);
    assert!(!miss_looked_up, "the hit's reply waited for the miss queued behind it");
    busy_ticket.wait().unwrap();
    miss_ticket.wait().unwrap();
}

#[test]
fn latency_percentiles_and_size_histogram_are_published_with_answers() {
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
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
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
    let client = service.client();
    assert!(client.tune(lap(64), 1).is_ok());
    drop(service);
    assert!(client.tune(lap(64), 1).is_err());
    assert!(client.submit(lap(64), 1).is_err());
}

#[test]
fn eviction_counters_surface_in_stats() {
    let cfg = ServeConfig { cache_capacity: 2, ..Default::default() };
    let service = TuneService::spawn(dense_ranker(), cfg);
    let client = service.client();
    for n in [64u32, 80, 96, 112] {
        client.tune(lap(n), 1).unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.cache_entries, 2);
    assert!(stats.cache_evictions >= 2, "{stats}");
}

/// Whether `recorder` holds a `cache_miss` event under `trace`: the
/// worker has dequeued that request and is scoring it.
fn scoring(recorder: &FlightRecorder, trace: TraceId) -> bool {
    recorder.snapshot().iter().any(|e| e.trace == trace && e.name == "cache_miss")
}

#[test]
fn a_hit_is_answered_before_submit_returns_while_the_worker_scores() {
    const WHOLE_SET: usize = 8640;
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
    let client = service.client();
    let warm = client.tune(lap(128), 2).unwrap();

    let busy = TraceId::fresh();
    let busy_ticket = client.submit_traced(lap(96), WHOLE_SET, busy).unwrap();
    while !scoring(service.flight_recorder(), busy) {
        std::thread::yield_now();
    }
    let hit = client.submit(lap(128), 2).unwrap().ready().expect("a hit's ticket is complete");
    assert_eq!(hit.unwrap().entries, warm.entries);
    // A miss still queues: its ticket is not complete at submit.
    let miss = client.submit(lap(80), 2).unwrap().ready().expect_err("a miss is queued");
    assert_eq!(miss.wait().unwrap().len(), 2);
    busy_ticket.wait().unwrap();
}

#[test]
fn a_hit_records_an_empty_queue_wait_and_a_scoring_span_with_its_hit() {
    let service = TuneService::spawn(dense_ranker(), ServeConfig::default());
    let client = service.client();
    client.tune(lap(128), 2).unwrap();
    let trace = TraceId::fresh();
    client.submit_traced(lap(128), 2, trace).unwrap().ready().unwrap().unwrap();

    let events: Vec<_> =
        service.flight_recorder().snapshot().into_iter().filter(|e| e.trace == trace).collect();
    let span = |name: &str| {
        let begin = events
            .iter()
            .find(|e| e.name == name && e.kind == EventKind::SpanBegin)
            .unwrap_or_else(|| panic!("no {name} span in {events:?}"));
        let end = events.iter().find(|e| e.span == begin.span && e.kind == EventKind::SpanEnd);
        (begin.span, end.expect("the span is closed").t_ns - begin.t_ns)
    };
    let (_, waited) = span("queue_wait");
    assert!(Duration::from_nanos(waited) < Duration::from_millis(1), "a hit waited {waited} ns");
    let (scored, _) = span("score_batch");
    assert!(events.iter().any(|e| e.span == scored && e.name == "cache_hit"), "{events:?}");
    assert!(!events.iter().any(|e| e.name == "cache_miss"), "{events:?}");
}

#[test]
fn with_caching_off_every_request_is_queued_scored_and_sheddable() {
    const WHOLE_SET: usize = 8640;
    let ranker = dense_ranker();
    let want = TuningSession::new(ranker.clone()).top_k_predefined(&lap(96), 2).entries;
    let cfg = ServeConfig { cache_capacity: 0, max_queue: 1, ..Default::default() };
    let service = TuneService::spawn(ranker, cfg);
    let client = service.client();
    for _ in 0..3 {
        assert_eq!(client.tune(lap(96), 2).unwrap().entries, want);
    }
    let busy = TraceId::fresh();
    let busy_ticket = client.submit_traced(lap(64), WHOLE_SET, busy).unwrap();
    while !scoring(service.flight_recorder(), busy) {
        std::thread::yield_now();
    }
    // The worker is busy: a repeated key queues, and past the queue's cap
    // it is shed, like any other miss.
    let queued = client.submit(lap(96), 2).unwrap().ready().expect_err("nothing answers at submit");
    let shed = client.submit(lap(96), 2).unwrap_err();
    assert_eq!(shed, ServeError::Overloaded(ShedReason::QueueFull));
    assert_eq!(queued.wait().unwrap().entries, want);
    busy_ticket.wait().unwrap();

    let stats = service.stats();
    assert_eq!(stats.requests, 5);
    assert_eq!((stats.cache_hits, stats.cache_misses), (0, 5), "{stats}");
    assert_eq!(stats.scored_instances, 5, "{stats}");
    assert_eq!(stats.shed_queue, 1, "{stats}");
}

#[test]
fn concurrent_hits_during_the_insert_get_the_reference_bits() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let sizes = [64u32, 72, 80, 88];
    let want: Vec<_> = sizes.iter().map(|&n| reference.top_k_predefined(&lap(n), 3)).collect();
    let service = TuneService::spawn(ranker, ServeConfig::default());
    let barrier = Arc::new(std::sync::Barrier::new(4));
    let submitters: Vec<_> = (0..4)
        .map(|t| {
            let (client, barrier, want) = (service.client(), Arc::clone(&barrier), want.clone());
            std::thread::spawn(move || {
                // Every thread starts on the same cold key: the first
                // submissions queue, the rest race the worker's insert.
                for round in 0..40 {
                    let i = round / 10;
                    if round % 10 == 0 {
                        barrier.wait();
                    }
                    let got = client.tune(lap(sizes[i]), 3).unwrap();
                    assert_eq!(got.entries, want[i].entries, "thread {t} round {round}");
                    assert_eq!(got.candidates, want[i].candidates);
                }
            })
        })
        .collect();
    for s in submitters {
        s.join().unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.requests, 160);
    assert_eq!(stats.scored_instances, sizes.len() as u64, "each key scored once: {stats}");
    assert_eq!(stats.cache_hits + stats.cache_misses, stats.requests, "{stats}");
}
