//! Cache-persistence coverage: snapshot/restore round-trips over random
//! caches, stale-snapshot rejection, and a restarted service answering
//! repeat queries warm — without a scoring pass.

use proptest::prelude::*;

use sorl::StencilRanker;
use sorl_serve::{
    CacheSnapshot, DecisionCache, ServeConfig, ServeError, SnapshotError, TuneService,
    SNAPSHOT_FORMAT_VERSION,
};
use stencil_model::{GridSize, StencilInstance, StencilKernel, TuningVector};

/// Deterministic dense synthetic ranker (no training run needed).
fn dense_ranker(seed: u64) -> StencilRanker {
    sorl::synthetic_ranker(seed | 1)
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

/// Builds a cache from a compact random description: each `(size_step,
/// depth, score_salt, touch)` becomes one decision with `depth` entries,
/// optionally re-touched to scramble the LRU order.
fn build_cache(capacity: usize, spec: &[(u32, usize, i32, bool)]) -> DecisionCache {
    let mut cache = DecisionCache::new(capacity);
    for &(size_step, depth, score_salt, _) in spec {
        let key = lap(32 + 8 * (size_step % 64)).key();
        let entries: Vec<(TuningVector, f64)> = (0..depth.max(1))
            .map(|i| {
                let t = TuningVector::new(
                    1 << (i % 8),
                    1 << ((i + 3) % 8),
                    1 << ((i + 5) % 8),
                    (i % 9) as u32,
                    1 + (i % 4) as u32,
                );
                (t, score_salt as f64 / 7.0 - i as f64)
            })
            .collect();
        cache.insert(key, entries, 8640);
    }
    // Second pass: touch some keys so last_used ordering differs from
    // insertion ordering.
    for &(size_step, _, _, touch) in spec {
        if touch {
            let key = lap(32 + 8 * (size_step % 64)).key();
            cache.lookup(&key, 1);
        }
    }
    cache
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Snapshot -> JSON -> parse -> restore is bit-for-bit: the JSON
    /// round-trip reproduces the snapshot exactly, and the restored cache
    /// holds every decision (payloads and candidate counts identical) in
    /// the same LRU order.
    #[test]
    fn snapshot_restore_roundtrip_is_bit_for_bit(
        fingerprint in 1u64..u64::MAX,
        capacity in 1usize..64,
        spec in proptest::collection::vec((0u32..64, 1usize..12, -100i32..100, proptest::prelude::any::<bool>()), 0..24),
    ) {
        let cache = build_cache(capacity, &spec);
        let snap = cache.snapshot(fingerprint);
        prop_assert_eq!(snap.len(), cache.len());

        // The serialized form round-trips exactly.
        let parsed = CacheSnapshot::from_json(&snap.to_json()).unwrap();
        prop_assert_eq!(&parsed, &snap);

        // The restored cache holds identical decisions...
        let mut restored = DecisionCache::new(capacity.max(snap.len()));
        prop_assert_eq!(restored.restore(&parsed, fingerprint), Ok(snap.len()));
        for e in &snap.entries {
            let (entries, candidates) =
                restored.lookup(&e.key, e.entries.len()).expect("restored key hits");
            prop_assert_eq!(&entries, &e.entries, "payload must be bit-for-bit");
            prop_assert_eq!(candidates, e.candidates);
        }

        // ...and re-snapshotting an *untouched* restore preserves the LRU
        // order and payloads (ticks are fresh, order is the contract).
        let mut fresh = DecisionCache::new(capacity.max(snap.len()));
        fresh.restore(&parsed, fingerprint).unwrap();
        let resnap = fresh.snapshot(fingerprint);
        prop_assert_eq!(resnap.len(), snap.len());
        for (a, b) in resnap.entries.iter().zip(&snap.entries) {
            prop_assert_eq!(&a.key, &b.key, "LRU order survived the round-trip");
            prop_assert_eq!(&a.entries, &b.entries);
            prop_assert_eq!(a.candidates, b.candidates);
        }
    }

    /// Restores under any other fingerprint or format version are
    /// rejected, leaving the target cache untouched.
    #[test]
    fn stale_snapshots_are_always_rejected(
        fingerprint in 1u64..u64::MAX,
        other in 1u64..u64::MAX,
        version_bump in 1u32..5,
        spec in proptest::collection::vec((0u32..64, 1usize..6, -100i32..100, proptest::prelude::any::<bool>()), 1..8),
    ) {
        let cache = build_cache(32, &spec);
        let mut snap = cache.snapshot(fingerprint);

        let mut target = DecisionCache::new(32);
        if other != fingerprint {
            prop_assert_eq!(
                target.restore(&snap, other),
                Err(SnapshotError::RankerMismatch { found: fingerprint, expected: other })
            );
            prop_assert!(target.is_empty(), "rejected restore must not touch the cache");
        }
        snap.format_version = SNAPSHOT_FORMAT_VERSION + version_bump;
        prop_assert!(matches!(
            target.restore(&snap, fingerprint),
            Err(SnapshotError::FormatVersion { .. })
        ));
        prop_assert!(target.is_empty());
    }
}

#[test]
fn restarted_service_answers_repeats_from_the_warm_cache() {
    let ranker = dense_ranker(7);
    let queries = [lap(96), lap(128), lap(160)];

    // First incarnation: serve, then snapshot to a file.
    let dir = std::env::temp_dir().join("sorl-serve-persistence-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("decisions.json");
    let (first_answers, fingerprint) = {
        let service = TuneService::spawn(ranker.clone(), ServeConfig::default());
        let client = service.client();
        let answers: Vec<_> = queries.iter().map(|q| client.tune(q.clone(), 3).unwrap()).collect();
        let snap = service.cache_snapshot().unwrap();
        assert_eq!(snap.len(), queries.len());
        assert_eq!(snap.ranker_fingerprint, service.ranker_fingerprint());
        snap.save_json(&path).unwrap();
        (answers, service.ranker_fingerprint())
        // Dropping the service here is the "shutdown".
    };

    // Second incarnation: load, import, and answer repeats warm.
    let service = TuneService::spawn(ranker, ServeConfig::default());
    assert_eq!(service.ranker_fingerprint(), fingerprint, "same model, same fingerprint");
    let snap = CacheSnapshot::load_json(&path).unwrap();
    assert_eq!(service.import_cache(snap).unwrap(), queries.len());
    assert_eq!(service.stats().cache_entries, queries.len() as u64, "import published");

    let client = service.client();
    for (q, want) in queries.iter().zip(&first_answers) {
        let got = client.tune(q.clone(), 3).unwrap();
        assert_eq!(got.entries, want.entries, "restored decision is bit-for-bit");
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, queries.len() as u64, "every repeat was a warm hit");
    assert_eq!(stats.scored_instances, 0, "no scoring pass after the restart");
    std::fs::remove_file(&path).ok();
}

#[test]
fn retrained_service_rejects_the_old_snapshot() {
    let queries = [lap(96), lap(128)];
    let snap = {
        let service = TuneService::spawn(dense_ranker(7), ServeConfig::default());
        let client = service.client();
        for q in &queries {
            client.tune(q.clone(), 2).unwrap();
        }
        service.cache_snapshot().unwrap()
    };

    // A retrained model (different weights) must reject the decisions.
    let service = TuneService::spawn(dense_ranker(8), ServeConfig::default());
    let err = service.import_cache(snap).unwrap_err();
    assert!(matches!(err, ServeError::Snapshot(SnapshotError::RankerMismatch { .. })), "{err}");
    assert_eq!(service.stats().cache_entries, 0);
    // And it re-scores the queries itself, from scratch.
    let client = service.client();
    client.tune(queries[0].clone(), 2).unwrap();
    assert_eq!(service.stats().cache_misses, 1);
}

#[test]
fn export_and_extract_move_slices_between_live_services() {
    let ranker = dense_ranker(7);
    let a = TuneService::spawn(ranker.clone(), ServeConfig::default());
    let client = a.client();
    let queries = [lap(96), lap(128), lap(160), lap(192)];
    for q in &queries {
        client.tune(q.clone(), 2).unwrap();
    }
    let moving_fp = queries[1].key().fingerprint();

    // Export copies; extract removes.
    let copy = a.export_cache(move |fp| fp == moving_fp).unwrap();
    assert_eq!(copy.len(), 1);
    assert_eq!(a.stats().cache_entries, queries.len() as u64, "export kept the original");
    let slice = a.extract_cache(move |fp| fp == moving_fp).unwrap();
    assert_eq!(slice.len(), 1);
    assert_eq!(a.stats().cache_entries, queries.len() as u64 - 1, "extract removed it");

    // The extracted slice warms a second service.
    let b = TuneService::spawn(ranker, ServeConfig::default());
    assert_eq!(b.import_cache(slice).unwrap(), 1);
    b.client().tune(queries[1].clone(), 2).unwrap();
    let stats = b.stats();
    assert_eq!(stats.cache_hits, 1);
    assert_eq!(stats.scored_instances, 0);
}

#[test]
fn torn_snapshot_file_is_rejected_without_touching_the_live_cache() {
    let ranker = dense_ranker(7);
    let queries = [lap(96), lap(128), lap(160)];
    let service = TuneService::spawn(ranker, ServeConfig::default());
    let client = service.client();
    for q in &queries {
        client.tune(q.clone(), 2).unwrap();
    }

    // Persist, then tear the file the way a crash mid-write would have
    // (the atomic temp+rename save makes this scenario an operator
    // accident — e.g. a partial copy — rather than a crash artifact, but
    // the loader must reject it either way).
    let dir = std::env::temp_dir().join("sorl-serve-torn-snapshot-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("decisions.json");
    service.cache_snapshot().unwrap().save_json(&path).unwrap();
    let bytes = std::fs::read(&path).unwrap();
    std::fs::write(&path, &bytes[..bytes.len() * 2 / 3]).unwrap();

    // The torn file fails at load — before any import could run — so the
    // live cache is untouched and keeps serving warm.
    let err = CacheSnapshot::load_json(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
    assert_eq!(service.stats().cache_entries, queries.len() as u64);
    for q in &queries {
        client.tune(q.clone(), 2).unwrap();
    }
    let stats = service.stats();
    assert_eq!(stats.cache_hits, queries.len() as u64, "live cache still answers warm");
    assert_eq!(stats.scored_instances, queries.len() as u64, "only the original cold passes");
    std::fs::remove_file(&path).ok();
}
