//! Sharding-layer throughput: a routed fleet vs. one service, and the
//! cost of the durability machinery (snapshot, restore, warm-up
//! shipping).
//!
//! The workload is fleet traffic in miniature: 24 requests over 12
//! distinct 3-D instances (each appearing twice). Variants:
//!
//! * `single_service_24x3d` — the whole workload on one `TuneService`
//!   (cold cache): the pre-sharding baseline.
//! * `fleet_3shards_24x3d_cold` — the same workload through a
//!   `ShardRouter` over 3 in-process shards, cold caches. Routing adds a
//!   rendezvous hash per query; the win on one host is isolation, not
//!   speed — this variant exists to show the router's overhead is noise.
//! * `fleet_3shards_24x3d_hot` — the same workload after warmup: every
//!   answer comes from a shard's decision cache.
//! * `route_only_1k` — 1000 pure ownership decisions (hash + argmax over
//!   3 shards), no serving at all: the router's intrinsic cost.
//! * `snapshot_roundtrip_256` — a 256-decision cache through
//!   snapshot → JSON → parse → restore: the persistence path a shard pays
//!   on checkpoint and warm restart.
//! * `snapshot_ship_binary_256` — the same cache through the wire's
//!   binary chunk codec (encode → chunk → reassemble → restore): the
//!   warm-up shipping path between shards. The perf snapshot also trips
//!   if the binary chunk stream is not <= 0.5x the bytes of the entries
//!   serialized as one JSON array.
//! * `tcp_lockstep_24x3d_hot` / `tcp_pipelined_24x3d_hot` — the warmed
//!   workload over ONE loopback TCP connection, 4 concurrent callers: a
//!   link capped at one request in flight (each caller waits for the
//!   previous answer — lock-step) vs. the default cap (requests pipeline
//!   with ids, the server batches and answers out of order). Cache-hot on
//!   purpose: the comparison measures the wire, not scoring, and the perf
//!   snapshot trips if pipelining is not at least 1.3x the lock-step
//!   rate.
//!
//! The ranker is synthetic (dense pinned-PRNG weights): this bench
//! measures the serving and sharding layers, whose cost is independent of
//! how the weights were obtained, so no training run is needed.
//!
//! The run writes a machine-readable `BENCH_shard_throughput.json`
//! snapshot (see `sorl_bench::perf`). Set `SORL_BENCH_QUICK=1` for the CI
//! sample budget.

use std::hint::black_box;

use sorl::StencilRanker;
use sorl_bench::perf::{quick_mode, PerfReport};
use sorl_serve::{DecisionCache, ServeConfig, TuneService};
use sorl_shard::wire::{self, bin};
use sorl_shard::{LocalShard, ShardRouter, ShardServer, ShardTransport, TcpShard, Topology};
use stencil_model::{GridSize, StencilInstance, StencilKernel, TuningVector};

/// Deterministic dense synthetic ranker (no training run needed).
fn dense_ranker() -> StencilRanker {
    sorl::synthetic_ranker(0x2545_f491_4f6c_dd1d)
}

/// 24 requests over 12 distinct 3-D instances, each instance twice.
fn workload() -> Vec<StencilInstance> {
    let sizes = [64u32, 72, 80, 88, 96, 104, 112, 120, 128, 144, 160, 176];
    (0..24)
        .map(|i| {
            StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(sizes[i % 12])).unwrap()
        })
        .collect()
}

/// Inline scoring (the comparison against the single service must not be
/// confounded by thread counts).
fn serve_config(cache_capacity: usize) -> ServeConfig {
    ServeConfig { threads: 1, cache_capacity, ..Default::default() }
}

fn spawn_fleet(ranker: &StencilRanker, cache_capacity: usize) -> ShardRouter {
    let mut router = ShardRouter::new();
    for id in ["alpha", "beta", "gamma"] {
        router
            .add_shard(id, LocalShard::spawn(ranker.clone(), serve_config(cache_capacity)))
            .expect("spawn shard");
    }
    router
}

fn run_single(service: &TuneService, queries: &[StencilInstance]) -> f64 {
    let client = service.client();
    let mut acc = 0.0;
    for q in queries {
        acc += client.tune(q.clone(), 1).unwrap().entries[0].1;
    }
    acc
}

fn run_fleet(router: &ShardRouter, queries: &[StencilInstance]) -> f64 {
    let mut acc = 0.0;
    for q in queries {
        acc += router.tune(q.clone(), 1).unwrap().entries[0].1;
    }
    acc
}

/// A 256-decision cache for the persistence variant.
fn populated_cache() -> DecisionCache {
    let mut cache = DecisionCache::new(512);
    for i in 0..256u32 {
        let key =
            StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(32 + i)).unwrap().key();
        let entries: Vec<(TuningVector, f64)> =
            (0..8).map(|j| (TuningVector::new(8, 8, 8, j % 9, 1), -(j as f64))).collect();
        cache.insert(key, entries, 8640);
    }
    cache
}

/// A warmed loopback shard server for the wire variants: every answer is
/// a cache hit, so lockstep-vs-pipelined measures the wire itself.
fn spawn_warm_tcp_server(ranker: &StencilRanker, queries: &[StencilInstance]) -> ShardServer {
    let service = TuneService::spawn(ranker.clone(), serve_config(1024));
    let server = ShardServer::spawn(service, "127.0.0.1:0").expect("bind loopback");
    let warm = TcpShard::connect(server.local_addr()).expect("connect loopback");
    for q in queries {
        warm.tune(q.clone(), 1).unwrap();
    }
    server
}

/// The workload through ONE TCP connection with `threads` concurrent
/// callers pulling from a shared work queue. On a link capped at one
/// request in flight the callers serialize; otherwise they pipeline.
fn run_tcp(shard: &TcpShard, queries: &[StencilInstance], threads: usize) -> f64 {
    use std::sync::atomic::{AtomicUsize, Ordering};
    let next = AtomicUsize::new(0);
    let total = std::sync::Mutex::new(0.0f64);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut acc = 0.0;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(q) = queries.get(i) else { break };
                    acc += shard.tune(q.clone(), 1).unwrap().entries[0].1;
                }
                *total.lock().unwrap() += acc;
            });
        }
    });
    total.into_inner().unwrap()
}

/// A link that admits one request at a time: lock-step on the one
/// protocol, the baseline pipelining is measured against.
fn lockstep_link(server: &ShardServer) -> TcpShard {
    TcpShard::connect(server.local_addr()).expect("connect loopback").with_max_in_flight(1)
}

fn snapshot_roundtrip(cache: &DecisionCache) -> usize {
    let snap = cache.snapshot(42);
    let parsed = sorl_serve::CacheSnapshot::from_json(&snap.to_json()).unwrap();
    let mut restored = DecisionCache::new(512);
    restored.restore(&parsed, 42).unwrap()
}

/// The wire's shipping path: binary chunk encode → reassemble → restore.
fn snapshot_ship_binary(cache: &DecisionCache) -> usize {
    let snap = cache.snapshot(42);
    let (header, chunks) = bin::snapshot_to_chunks(&snap, wire::CHUNK_ENTRIES);
    let parsed = bin::snapshot_from_chunks(&header, &chunks).unwrap();
    let mut restored = DecisionCache::new(512);
    restored.restore(&parsed, 42).unwrap()
}

fn main() {
    let ranker = &dense_ranker();
    let queries = &workload();
    let samples = if quick_mode() { 10 } else { 30 };
    let mut report = PerfReport::new("shard_throughput");

    // The routing contract below compares these two, so their samples
    // alternate: a slow stretch of the shared host lands on both sides
    // instead of on whichever variant happened to run through it.
    let single = TuneService::spawn(ranker.clone(), serve_config(0));
    let cold = spawn_fleet(ranker, 0);
    report.record_alternating(
        ["single_service_24x3d", "fleet_3shards_24x3d_cold"],
        samples,
        || {
            black_box(run_single(&single, queries));
        },
        || {
            black_box(run_fleet(&cold, queries));
        },
    );

    let hot = spawn_fleet(ranker, 1024);
    run_fleet(&hot, queries);
    report.record("fleet_3shards_24x3d_hot", samples, || {
        black_box(run_fleet(&hot, queries));
    });
    for (id, stats) in hot.stats() {
        println!("  {id}: {}", stats.unwrap());
    }

    let topo = Topology::new(["alpha", "beta", "gamma"]);
    report.record("route_only_1k", samples, || {
        let mut owned = 0usize;
        for fp in 0..1000u64 {
            owned += topo.owner_of_fingerprint(black_box(fp)).unwrap().len();
        }
        black_box(owned);
    });

    let cache = populated_cache();
    report.record("snapshot_roundtrip_256", samples, || {
        black_box(snapshot_roundtrip(&cache));
    });
    report.record("snapshot_ship_binary_256", samples, || {
        black_box(snapshot_ship_binary(&cache));
    });

    // The multiplexing contract below compares these two, so their
    // samples alternate; a hot pass takes ~2 ms, so ten times the samples
    // still cost well under a second and steady both medians.
    let server = spawn_warm_tcp_server(ranker, queries);
    let lockstep = lockstep_link(&server);
    let pipelined = TcpShard::connect(server.local_addr()).expect("connect loopback");
    report.record_alternating(
        ["tcp_lockstep_24x3d_hot", "tcp_pipelined_24x3d_hot"],
        10 * samples,
        || {
            black_box(run_tcp(&lockstep, queries, 4));
        },
        || {
            black_box(run_tcp(&pipelined, queries, 4));
        },
    );

    let single_s = report.median_of("single_service_24x3d").unwrap();
    let cold_s = report.median_of("fleet_3shards_24x3d_cold").unwrap();
    let hot_s = report.median_of("fleet_3shards_24x3d_hot").unwrap();
    let lock_s = report.median_of("tcp_lockstep_24x3d_hot").unwrap();
    let pipe_s = report.median_of("tcp_pipelined_24x3d_hot").unwrap();
    println!(
        "  fleet cold vs single service: {:.2}x, fleet hot over cold: {:.1}x, \
         tcp pipelined over lockstep: {:.1}x",
        single_s / cold_s,
        cold_s / hot_s,
        lock_s / pipe_s
    );
    report.write();

    // The multiplexing contract: with 4 concurrent callers on one warmed
    // link, pipelining must beat the lock-step rate by at least 1.3x.
    // The gain is the overlap of round trips alone: 1.60-1.67x over six
    // quick-mode runs on a 2-vCPU host, where a pipelined link capped at
    // one request in flight reads 0.98-1.02x.
    assert!(
        pipe_s * 1.3 <= lock_s,
        "pipelined wire must be >= 1.3x lock-step on a hot link: {pipe_s} vs {lock_s}"
    );

    // The sharding contracts this bench exists to witness (generous
    // slack: the JSON numbers are the record, this is a tripwire).
    assert!(
        cold_s <= single_s * 1.50,
        "routing overhead must stay in the noise: {cold_s} vs {single_s}"
    );
    assert!(
        hot_s * 5.0 <= cold_s,
        "a 100% cache-hit fleet must be >= 5x faster than cold: {hot_s} vs {cold_s}"
    );

    // The binary-payload contract: on a realistic 256-decision snapshot,
    // the binary chunk stream must be at most half the bytes of the
    // entries' JSON.
    let snap = cache.snapshot(42);
    let (_, bin_chunks) = bin::snapshot_to_chunks(&snap, wire::CHUNK_ENTRIES);
    let json_bytes = serde_json::to_string(&snap.entries).unwrap().len();
    let bin_bytes: usize = bin_chunks.iter().map(|c| c.payload.len()).sum();
    println!(
        "  snapshot chunk bytes: binary {bin_bytes} vs JSON {json_bytes} ({:.2}x smaller)",
        json_bytes as f64 / bin_bytes as f64
    );
    assert!(
        bin_bytes * 2 <= json_bytes,
        "binary snapshot chunks must be <= 0.5x the JSON bytes: {bin_bytes} vs {json_bytes}"
    );
}
