//! End-to-end tests of the sharded fleet: routing correctness, warm-up
//! shipping on topology changes, and warm restarts from snapshots.

use ranksvm::LinearRanker;
use sorl::session::TuningSession;
use sorl::StencilRanker;
use sorl_serve::ServeConfig;
use sorl_shard::{LocalShard, ShardError, ShardRouter};
use stencil_model::{FeatureEncoder, GridSize, StencilInstance, StencilKernel};

/// Deterministic dense synthetic ranker (no training run needed).
fn dense_ranker() -> StencilRanker {
    sorl::synthetic_ranker(0x2545_f491_4f6c_dd1d)
}

/// Single-threaded scoring: these tests exercise routing and cache
/// plumbing, not throughput.
fn config() -> ServeConfig {
    ServeConfig { threads: 1, ..Default::default() }
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

fn blur(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::blur(), GridSize::square(n)).unwrap()
}

/// A spread of distinct instances across both dimensionalities.
fn workload() -> Vec<StencilInstance> {
    let mut qs = Vec::new();
    for i in 0..20u32 {
        qs.push(lap(48 + 8 * i));
        qs.push(blur(256 + 64 * i));
    }
    qs
}

fn three_shard_router(ranker: &StencilRanker) -> ShardRouter {
    let mut router = ShardRouter::new();
    for id in ["alpha", "beta", "gamma"] {
        let report = router.add_shard(id, LocalShard::spawn(ranker.clone(), config())).unwrap();
        assert_eq!(report.shipped, 0, "fresh shards have nothing to ship");
    }
    router
}

#[test]
fn routed_answers_match_direct_session_queries() {
    let ranker = dense_ranker();
    let mut reference = TuningSession::new(ranker.clone());
    let router = three_shard_router(&ranker);
    for q in [lap(96), blur(512), lap(128), blur(1024)] {
        let got = router.tune(q.clone(), 3).unwrap();
        let want = reference.top_k_predefined(&q, 3);
        assert_eq!(got.entries, want.entries, "{q}");
        assert_eq!(got.candidates, want.candidates, "{q}");
    }
}

#[test]
fn traffic_spreads_over_the_fleet_and_routing_is_stable() {
    let ranker = dense_ranker();
    let router = three_shard_router(&ranker);
    let qs = workload();
    for q in &qs {
        router.tune(q.clone(), 1).unwrap();
    }
    // Every shard took some traffic (40 distinct keys over 3 shards).
    let mut served = 0;
    for (id, stats) in router.stats() {
        let stats = stats.unwrap();
        assert_eq!(stats.cache_hits, 0, "{id}: all queries distinct");
        if stats.requests > 0 {
            served += 1;
        }
    }
    assert_eq!(served, 3, "40 keys left a shard idle");
    // Re-asking every query routes identically: all hits, no new scoring.
    for q in &qs {
        router.tune(q.clone(), 1).unwrap();
    }
    let total_hits: u64 = router.stats().iter().map(|(_, s)| s.as_ref().unwrap().cache_hits).sum();
    assert_eq!(total_hits as usize, qs.len(), "every repeat was a cache hit on its owner");
}

#[test]
fn adding_a_shard_ships_exactly_the_remapped_slice() {
    let ranker = dense_ranker();
    let mut router = three_shard_router(&ranker);
    let qs = workload();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    // Deterministic accounting: the keys whose owner changes under the
    // grown topology are exactly what must ship to the new shard.
    let old_topo = router.topology();
    let new_topo = old_topo.with("delta");
    let expected_moves =
        qs.iter().filter(|q| new_topo.owner_of(&q.key()) != old_topo.owner_of(&q.key())).count();
    assert!(expected_moves > 0, "workload too small to exercise shipping");

    let report = router.add_shard("delta", LocalShard::spawn(ranker.clone(), config())).unwrap();
    assert_eq!(report.shipped, expected_moves);
    assert_eq!(report.rejected, 0);
    assert_eq!(report.dropped, 0, "the default cache capacity fits the whole slice");

    // Every query — moved or not — is now a cache hit somewhere.
    let scored_before: u64 =
        router.stats().iter().map(|(_, s)| s.as_ref().unwrap().scored_instances).sum();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    let scored_after: u64 =
        router.stats().iter().map(|(_, s)| s.as_ref().unwrap().scored_instances).sum();
    assert_eq!(scored_after, scored_before, "warm shipping kept every decision hot");
}

#[test]
fn removing_a_shard_redistributes_its_decisions() {
    let ranker = dense_ranker();
    let mut router = three_shard_router(&ranker);
    let qs = workload();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    let old_topo = router.topology();
    let departing = qs.iter().filter(|q| old_topo.owner_of(&q.key()) == Some("beta")).count();
    assert!(departing > 0, "workload too small to give beta any keys");

    let report = router.remove_shard("beta").unwrap();
    assert_eq!(report.shipped, departing, "all of beta's decisions found a new home");
    assert_eq!(router.len(), 2);

    let scored_before: u64 =
        router.stats().iter().map(|(_, s)| s.as_ref().unwrap().scored_instances).sum();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    let scored_after: u64 =
        router.stats().iter().map(|(_, s)| s.as_ref().unwrap().scored_instances).sum();
    assert_eq!(scored_after, scored_before, "survivors answer beta's keys from shipped cache");
}

#[test]
fn killed_shard_restarts_warm_from_its_snapshot() {
    let ranker = dense_ranker();
    let mut router = three_shard_router(&ranker);
    let qs = workload();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    // Pick an instance owned by alpha so the restart test has a witness.
    let topo = router.topology();
    let witness = qs
        .iter()
        .find(|q| topo.owner_of(&q.key()) == Some("alpha"))
        .expect("alpha owns something")
        .clone();

    // Persist alpha's cache (as a periodic persistence daemon would) —
    // through a JSON file, like a real deployment.
    let dir = std::env::temp_dir().join("sorl-shard-fleet-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("alpha.cache.json");
    let snapshot = router.snapshot_shard("alpha").unwrap();
    assert!(!snapshot.is_empty(), "alpha served queries, so it has decisions");
    snapshot.save_json(&path).unwrap();

    // "Crash": detach without any graceful handoff (dropping the
    // transport kills the in-process service).
    router.detach_shard("alpha").unwrap();
    assert_eq!(router.len(), 2);
    // The fleet still answers alpha-owned keys — cold, by rescoring. This
    // must be a FRESH instance the survivors never saw: the witness itself
    // must stay uncached everywhere except in alpha's snapshot, so the
    // final hit can only come from the snapshot restore (re-joining ships
    // survivor-cached alpha keys — like this one — back to alpha, which
    // must not be able to mask a broken restore).
    let fresh = (1000..1100u32)
        .map(lap)
        .find(|q| topo.owner_of(&q.key()) == Some("alpha"))
        .expect("some fresh key was alpha's");
    assert!(!qs.contains(&fresh), "fresh key is not part of the workload");
    router.tune(fresh.clone(), 2).unwrap();

    // Restart warm from the persisted snapshot and rejoin.
    let loaded = sorl_serve::CacheSnapshot::load_json(&path).unwrap();
    let expected_restored = loaded.len();
    let (reborn, restored) = LocalShard::spawn_warm(ranker.clone(), config(), loaded).unwrap();
    assert_eq!(restored, expected_restored);
    let report = router.add_shard("alpha", reborn).unwrap();
    assert_eq!(report.shipped, 1, "only the outage-era `fresh` decision ships back");

    // The witness routes back to alpha and is answered from the restored
    // cache: a hit, with no scoring pass — verified via ServeStats. (The
    // witness was never cached on a survivor, so warm shipping cannot
    // have supplied this answer — only the snapshot restore can.)
    let direct = TuningSession::new(ranker.clone()).top_k_predefined(&witness, 2);
    let got = router.tune(witness.clone(), 2).unwrap();
    assert_eq!(got.entries, direct.entries, "restored decision is bit-for-bit correct");
    let stats: std::collections::HashMap<String, _> = router.stats().into_iter().collect();
    let alpha = stats["alpha"].clone().unwrap();
    assert_eq!(alpha.cache_hits, 1, "answered from the warm cache");
    assert_eq!(alpha.scored_instances, 0, "no scoring pass after the warm restart");
    std::fs::remove_file(&path).ok();
}

#[test]
fn undersized_newcomer_accounts_for_capacity_dropped_decisions() {
    // A joining shard whose cache cannot hold its whole slice must not
    // silently lose the overflow: every moved decision is either shipped
    // (applied to the newcomer) or reported dropped.
    let ranker = dense_ranker();
    let mut router = three_shard_router(&ranker);
    let qs = workload();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    let old_topo = router.topology();
    let new_topo = old_topo.with("tiny");
    let moves =
        qs.iter().filter(|q| new_topo.owner_of(&q.key()) != old_topo.owner_of(&q.key())).count();
    assert!(moves > 0, "workload too small to exercise shipping");

    let tiny_cfg = ServeConfig { cache_capacity: 1, ..config() };
    let report = router.add_shard("tiny", LocalShard::spawn(ranker.clone(), tiny_cfg)).unwrap();
    // The slices merge into one import, so the capacity cap applies once:
    // exactly one decision fits, the rest is dropped — and the books
    // balance exactly.
    assert_eq!(report.shipped, 1, "capacity 1: exactly one decision is resident");
    assert_eq!(report.dropped, moves - 1);
    assert_eq!(report.rejected, 0);
}

#[test]
fn mismatched_ranker_is_rejected_on_join() {
    let ranker = dense_ranker();
    let mut router = three_shard_router(&ranker);
    // A retrained (different-weight) model must not join the fleet.
    let encoder = FeatureEncoder::default_interaction();
    let other = StencilRanker::new(encoder.clone(), LinearRanker::zeros(encoder.dim()));
    let err = router.add_shard("rogue", LocalShard::spawn(other, config())).unwrap_err();
    assert!(matches!(err, ShardError::RankerMismatch { .. }), "{err}");
    assert_eq!(router.len(), 3, "topology unchanged after rejection");
    assert!(matches!(router.remove_shard("rogue").unwrap_err(), ShardError::UnknownShard(_)));
}

#[test]
fn duplicate_ids_are_rejected() {
    let ranker = dense_ranker();
    let mut router = three_shard_router(&ranker);
    let err = router.add_shard("alpha", LocalShard::spawn(ranker.clone(), config())).unwrap_err();
    assert!(matches!(err, ShardError::DuplicateShard(_)), "{err}");
}
