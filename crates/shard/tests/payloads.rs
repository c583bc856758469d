//! Binary payload integration tests: snapshot streams ship binary chunks
//! in both directions over live sockets, and every binary payload kind
//! round-trips generated values exactly as its JSON rendition does.
//!
//! Everything binds `127.0.0.1:0` only. The raw halves speak hand-rolled
//! frames over a plain `TcpStream`, so these tests pin what the *bytes*
//! say, not just two library halves agreeing with each other.

use std::io::Read;
use std::net::TcpStream;
use std::time::Duration;

use proptest::prelude::*;
use sorl::tuner::TopK;
use sorl_serve::{ServeConfig, TuneService};
use sorl_shard::wire::{self, bin, FrameKind};
use sorl_shard::{CacheSlice, ShardServer, ShardTransport, TcpShard};
use stencil_model::{GridSize, StencilInstance, StencilKernel, TuningVector};

fn spawn_server(seed: u64) -> ShardServer {
    let service = TuneService::spawn(sorl_shard::synthetic_ranker(seed), ServeConfig::default());
    ShardServer::spawn(service, "127.0.0.1:0").unwrap()
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

fn raw_connect(server: &ShardServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// A snapshot export streams a JSON header frame followed by binary chunk
/// frames; read off a raw socket by the stream reader they equal what the
/// client returns, in under half the bytes of the entries' JSON.
#[test]
fn snapshot_export_ships_binary_chunks_that_reassemble_exactly() {
    let server = spawn_server(0x5a45_b00c);
    let shard = TcpShard::connect(server.local_addr()).unwrap();
    for n in [40u32, 48, 56, 64] {
        shard.tune(lap(n), 2).unwrap();
    }
    let slice = CacheSlice::everything("solo");
    let exported = shard.export_cache(&slice).unwrap();
    assert_eq!(exported.entries.len(), 4, "every tune left a cached decision");

    // At the byte level: a JSON header (the stream prologue stays
    // inspectable), then binary chunks whose bytes stay under half of the
    // entries' JSON (the bench tripwire pins the same bound).
    let mut raw = raw_connect(&server);
    wire::write_frame(&mut raw, FrameKind::ExportCache, 3, 0, &wire::to_payload(&slice)).unwrap();
    let header_frame = wire::read_frame(&mut raw).unwrap();
    assert_eq!((header_frame.kind, header_frame.request_id), (FrameKind::SnapshotHeader, 3));
    let header: wire::SnapshotHeader = wire::from_payload(&header_frame.payload).unwrap();
    // `take` counts down the bytes the stream reader consumes.
    let mut chunks = raw.take(u64::MAX);
    assert_eq!(wire::read_snapshot_chunks(&mut chunks, header, 3).unwrap(), exported);
    let frame_bytes = usize::try_from(u64::MAX - chunks.limit()).unwrap();
    let binary_bytes = frame_bytes - header.chunks * wire::HEADER_LEN;
    let json_bytes = serde_json::to_string(&exported.entries).unwrap().len();
    assert!(binary_bytes * 2 <= json_bytes, "binary {binary_bytes}B vs JSON {json_bytes}B");
}

/// The import direction ships binary chunks too: a snapshot exported
/// from one shard imports into a second, the applied count matches, and
/// the warmed cache answers the imported instances without rescoring
/// them.
#[test]
fn import_ships_binary_chunks_the_server_applies() {
    let source = spawn_server(0x1345_0044);
    let shard_a = TcpShard::connect(source.local_addr()).unwrap();
    for n in [40u32, 48, 56] {
        shard_a.tune(lap(n), 2).unwrap();
    }
    let snapshot = shard_a.export_cache(&CacheSlice::everything("solo")).unwrap();

    let target = spawn_server(0x1345_0044); // same seed: same ranker fingerprint
    let shard_b = TcpShard::connect(target.local_addr()).unwrap();
    let applied = shard_b.import_cache(snapshot.clone()).unwrap();
    assert_eq!(applied, snapshot.entries.len());

    shard_b.tune(lap(48), 2).unwrap();
    let stats = shard_b.stats().unwrap();
    assert_eq!(stats.cache_hits, 1, "the imported decision served the repeat tune");
    assert_eq!(stats.cache_misses, 0, "nothing was rescored");
}

// ---------------------------------------------------------------------------
// Generated binary↔JSON equivalence, one property per binary payload kind
// ---------------------------------------------------------------------------

/// Deterministic xorshift64* for case-local value generation.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    /// A finite, JSON-representable f64 with a wide dynamic range and
    /// both signs (including a shot at -0.0).
    fn score(&mut self) -> f64 {
        let mantissa = (self.next() % 2_000_001) as f64 - 1_000_000.0;
        let scale = [1.0, 1e-6, 1e-3, 1e3, 1e6][(self.next() % 5) as usize];
        let v = mantissa * scale;
        if self.next().is_multiple_of(16) {
            -0.0
        } else {
            v
        }
    }

    /// A tuning component of any magnitude, up to `u32::MAX`.
    fn component(&mut self) -> u32 {
        (self.next() as u32) >> (self.next() % 32)
    }

    fn tuning(&mut self) -> TuningVector {
        TuningVector::new(
            self.component(),
            self.component(),
            self.component(),
            self.component(),
            self.component(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// `TopK`: the binary roundtrip is bit-for-bit, and agrees with the
    /// JSON roundtrip of the same value.
    #[test]
    fn top_k_binary_and_json_roundtrips_agree(seed in 1u64..u64::MAX, n in 0usize..24) {
        let mut rng = XorShift(seed);
        let top = TopK {
            entries: (0..n).map(|_| (rng.tuning(), rng.score())).collect(),
            candidates: (rng.next() % 10_000) as usize,
            seconds: rng.score().abs(),
        };
        let via_bin = bin::decode_top_k(&bin::encode_top_k(&top)).unwrap();
        let via_json: TopK = wire::from_payload(&wire::to_payload(&top)).unwrap();
        prop_assert_eq!(via_bin.candidates, top.candidates);
        prop_assert_eq!(via_bin.entries.len(), n);
        prop_assert_eq!(via_bin.seconds.to_bits(), top.seconds.to_bits());
        for (((tb, sb), (tj, sj)), (t0, s0)) in
            via_bin.entries.iter().zip(&via_json.entries).zip(&top.entries)
        {
            prop_assert_eq!(tb, t0);
            prop_assert_eq!(tj, t0);
            prop_assert_eq!(sb.to_bits(), s0.to_bits(), "binary must carry exact bits");
            prop_assert_eq!(sj.to_bits(), s0.to_bits(), "JSON shortest-roundtrip agrees");
        }
    }

    /// `ServeStats`: arbitrary counters and histograms survive the binary
    /// roundtrip exactly and match the JSON twin.
    #[test]
    fn stats_binary_and_json_roundtrips_agree(seed in 1u64..u64::MAX) {
        let mut rng = XorShift(seed);
        let mut stats = sorl_serve::ServeStats {
            requests: rng.next(),
            batches: rng.next(),
            max_batch: rng.next(),
            scored_instances: rng.next(),
            cache_hits: rng.next(),
            cache_misses: rng.next(),
            cache_evictions: rng.next(),
            cache_entries: rng.next(),
            queue_depth: rng.next(),
            shed_queue: rng.next(),
            shed_latency: rng.next(),
            recent_batch_latency_p99_s: rng.score().abs(),
            batch_size_hist: Default::default(),
            batch_latency_p50_s: rng.score().abs(),
            batch_latency_p95_s: rng.score().abs(),
            batch_latency_p99_s: rng.score().abs(),
            batch_latency_hist: [0; sorl_serve::stats::LATENCY_BUCKETS],
        };
        for slot in stats.batch_size_hist.iter_mut() {
            *slot = rng.next();
        }
        for slot in stats.batch_latency_hist.iter_mut() {
            *slot = rng.next();
        }
        let via_bin = bin::decode_stats(&bin::encode_stats(&stats)).unwrap();
        prop_assert_eq!(&via_bin, &stats);
        let via_json: sorl_serve::ServeStats =
            wire::from_payload(&wire::to_payload(&stats)).unwrap();
        prop_assert_eq!(&via_json, &stats);
    }

    /// Snapshot chunks: generated snapshots chunk at the entry-count
    /// limit and reassemble exactly, as their entries' JSON does, and the
    /// binary chunks are never larger than that JSON.
    #[test]
    fn snapshot_binary_chunks_roundtrip_under_the_json_bytes(
        seed in 1u64..u64::MAX,
        entries in 0usize..12,
        per_chunk in 1usize..6,
    ) {
        let mut rng = XorShift(seed);
        let snap = sorl_serve::CacheSnapshot {
            format_version: sorl_serve::snapshot::SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: rng.next(),
            entries: (0..entries)
                .map(|i| {
                    let n = 32 + 8 * (rng.next() % 12) as u32;
                    let key = lap(n.max(8)).key();
                    sorl_serve::SnapshotEntry {
                        key,
                        entries: (0..1 + rng.next() % 4)
                            .map(|_| (rng.tuning(), rng.score()))
                            .collect(),
                        candidates: (rng.next() % 10_000) as usize,
                        last_used: i as u64,
                    }
                })
                .collect(),
        };
        let (header, chunks) = bin::snapshot_to_chunks(&snap, per_chunk);
        prop_assert_eq!((header.entries, header.chunks), (entries, entries.div_ceil(per_chunk)));
        let back = bin::snapshot_from_chunks(&header, &chunks).unwrap();
        prop_assert_eq!(&back, &snap);
        let json = serde_json::to_string(&snap.entries).unwrap();
        let via_json: Vec<sorl_serve::SnapshotEntry> = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(&via_json, &snap.entries);
        let json_bytes = json.len();
        let bin_bytes: usize = chunks.iter().map(|c| c.payload.len()).sum();
        prop_assert!(bin_bytes <= json_bytes, "binary {} vs JSON {}", bin_bytes, json_bytes);
    }
}
