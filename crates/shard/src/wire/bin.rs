//! The binary payload codec: compact little-endian encodings for the
//! wire's hottest payloads — [`TopK`] ([`FrameKind::TuneOk`]),
//! [`ServeStats`] ([`FrameKind::StatsOk`]) and snapshot-chunk entry blocks
//! ([`FrameKind::SnapshotChunk`]). These frame kinds always carry this
//! codec; there is no second encoding to fall back to.
//!
//! Design rules, in order:
//!
//! * **Total and exact.** Every value encodes. `f64` values travel as
//!   their IEEE bit pattern and `u64` counters and count prefixes as
//!   fixed-width little-endian integers; tuning components ride as
//!   LEB128 varints and stencil offsets as zigzag varints, so the full
//!   `u32`/`i32` ranges round-trip bit for bit while the small values
//!   real tunings and stencils hold take one byte each. The property
//!   tests pit every codec against its JSON twin on identical values.
//! * **Fault, never panic.** Decoders consume a `Reader` whose every
//!   step is bounds-checked; truncated or garbage payloads produce a
//!   decode error (surfaced as [`ServeError::Transport`] /
//!   [`SnapshotError::Parse`]), and trailing bytes are rejected too. No
//!   input can index out of bounds, and a lying count prefix fails on the
//!   missing bytes rather than provoking a giant allocation.
//! * **Canonical.** Varints must be minimal and fit `u32`, pattern cells
//!   must come in strictly increasing offset order with nonzero counts,
//!   so a payload a decoder accepts re-encodes to exactly its bytes.
//!
//! Snapshot chunks use [`CacheSnapshot::to_chunks_with`] /
//! [`CacheSnapshot::from_chunks_with`], so chunk boundaries, the byte
//! budget and FNV-1a checksumming are byte-for-byte the same machinery as
//! the JSON rendition on disk — only the entry encoding differs: a binary
//! chunk is `u32 entry count ‖ concatenated entry encodings`.
//!
//! [`FrameKind::TuneOk`]: super::FrameKind::TuneOk
//! [`FrameKind::StatsOk`]: super::FrameKind::StatsOk
//! [`FrameKind::SnapshotChunk`]: super::FrameKind::SnapshotChunk

use sorl::TopK;
use sorl_serve::stats::{BATCH_SIZE_BUCKETS, LATENCY_BUCKETS};
use sorl_serve::{
    CacheSnapshot, ServeError, ServeStats, SnapshotChunk, SnapshotEntry, SnapshotError,
    SnapshotHeader,
};
use stencil_model::{DType, GridSize, InstanceKey, Offset, StencilPattern, TuningVector};

// ---------------------------------------------------------------------------
// TopK
// ---------------------------------------------------------------------------

/// Encodes a [`TopK`]:
/// `u32 n ‖ n × (tuning ‖ f64 score) ‖ u64 candidates ‖ f64 seconds`.
pub fn encode_top_k(top: &TopK) -> Vec<u8> {
    let mut out = Vec::with_capacity(20 + top.entries.len() * 18);
    put_u32_len(&mut out, top.entries.len());
    for (t, score) in &top.entries {
        put_tuning(&mut out, t);
        out.extend_from_slice(&score.to_le_bytes());
    }
    out.extend_from_slice(&u64::try_from(top.candidates).unwrap_or(u64::MAX).to_le_bytes());
    out.extend_from_slice(&top.seconds.to_le_bytes());
    out
}

/// Decodes an [`encode_top_k`] payload. Truncated or trailing bytes fault.
pub fn decode_top_k(payload: &[u8]) -> Result<TopK, ServeError> {
    let mut r = Reader::new(payload);
    let top = read_top_k(&mut r).map_err(|m| transport("TuneOk", &m))?;
    r.finish().map_err(|m| transport("TuneOk", &m))?;
    Ok(top)
}

fn read_top_k(r: &mut Reader<'_>) -> Result<TopK, String> {
    let n = r.len()?;
    let mut entries = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        let t = read_tuning(r)?;
        let score = r.f64()?;
        entries.push((t, score));
    }
    let candidates =
        usize::try_from(r.u64()?).map_err(|_| "candidate count overflow".to_owned())?;
    let seconds = r.f64()?;
    Ok(TopK { entries, candidates, seconds })
}

// ---------------------------------------------------------------------------
// ServeStats
// ---------------------------------------------------------------------------

/// Encodes a [`ServeStats`]: the eleven `u64` counters in declaration
/// order, the recent-p99 gauge, the length-prefixed batch-size histogram,
/// the three all-time latency percentiles, then the length-prefixed
/// latency histogram.
pub fn encode_stats(stats: &ServeStats) -> Vec<u8> {
    let mut out = Vec::with_capacity(136 + 8 * (BATCH_SIZE_BUCKETS + LATENCY_BUCKETS));
    for counter in [
        stats.requests,
        stats.batches,
        stats.max_batch,
        stats.scored_instances,
        stats.cache_hits,
        stats.cache_misses,
        stats.cache_evictions,
        stats.cache_entries,
        stats.queue_depth,
        stats.shed_queue,
        stats.shed_latency,
    ] {
        out.extend_from_slice(&counter.to_le_bytes());
    }
    out.extend_from_slice(&stats.recent_batch_latency_p99_s.to_le_bytes());
    put_u32_len(&mut out, stats.batch_size_hist.len());
    for v in stats.batch_size_hist {
        out.extend_from_slice(&v.to_le_bytes());
    }
    for p in [stats.batch_latency_p50_s, stats.batch_latency_p95_s, stats.batch_latency_p99_s] {
        out.extend_from_slice(&p.to_le_bytes());
    }
    put_u32_len(&mut out, stats.batch_latency_hist.len());
    for v in stats.batch_latency_hist {
        out.extend_from_slice(&v.to_le_bytes());
    }
    out
}

/// Decodes an [`encode_stats`] payload. Histogram length prefixes must
/// match this build's bucket counts — a peer with different buckets gets
/// a clean fault, never a misparse.
pub fn decode_stats(payload: &[u8]) -> Result<ServeStats, ServeError> {
    let mut r = Reader::new(payload);
    let stats = read_stats(&mut r).map_err(|m| transport("StatsOk", &m))?;
    r.finish().map_err(|m| transport("StatsOk", &m))?;
    Ok(stats)
}

fn read_stats(r: &mut Reader<'_>) -> Result<ServeStats, String> {
    let requests = r.u64()?;
    let batches = r.u64()?;
    let max_batch = r.u64()?;
    let scored_instances = r.u64()?;
    let cache_hits = r.u64()?;
    let cache_misses = r.u64()?;
    let cache_evictions = r.u64()?;
    let cache_entries = r.u64()?;
    let queue_depth = r.u64()?;
    let shed_queue = r.u64()?;
    let shed_latency = r.u64()?;
    let recent_batch_latency_p99_s = r.f64()?;
    let mut batch_size_hist = [0u64; BATCH_SIZE_BUCKETS];
    read_hist(r, &mut batch_size_hist, "batch size histogram")?;
    let batch_latency_p50_s = r.f64()?;
    let batch_latency_p95_s = r.f64()?;
    let batch_latency_p99_s = r.f64()?;
    let mut batch_latency_hist = [0u64; LATENCY_BUCKETS];
    read_hist(r, &mut batch_latency_hist, "latency histogram")?;
    Ok(ServeStats {
        requests,
        batches,
        max_batch,
        scored_instances,
        cache_hits,
        cache_misses,
        cache_evictions,
        cache_entries,
        queue_depth,
        shed_queue,
        shed_latency,
        recent_batch_latency_p99_s,
        batch_size_hist,
        batch_latency_p50_s,
        batch_latency_p95_s,
        batch_latency_p99_s,
        batch_latency_hist,
    })
}

fn read_hist(r: &mut Reader<'_>, out: &mut [u64], what: &str) -> Result<(), String> {
    let n = r.len()?;
    if n != out.len() {
        return Err(format!("{what} has {n} buckets, this build expects {}", out.len()));
    }
    for slot in out.iter_mut() {
        *slot = r.u64()?;
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Snapshot entries and chunks
// ---------------------------------------------------------------------------

/// Whether `snapshot` can travel in this codec: always — the codec is
/// total. Kept for callers that still ask.
pub fn snapshot_fits(_snapshot: &CacheSnapshot) -> bool {
    true
}

/// Chunks `snapshot` with binary entry payloads — same chunk boundaries,
/// byte budget and FNV-1a checksums as [`CacheSnapshot::to_chunks`], only
/// the rendition differs.
pub fn snapshot_to_chunks(
    snapshot: &CacheSnapshot,
    entries_per_chunk: usize,
) -> (SnapshotHeader, Vec<SnapshotChunk>) {
    snapshot.to_chunks_with(entries_per_chunk, encode_entry, seal_chunk)
}

/// Reassembles a snapshot from binary-codec chunks, with the same
/// count/order/checksum validation as [`CacheSnapshot::from_chunks`].
pub fn snapshot_from_chunks(
    header: &SnapshotHeader,
    chunks: &[SnapshotChunk],
) -> Result<CacheSnapshot, SnapshotError> {
    CacheSnapshot::from_chunks_with(header, chunks, |i, payload| {
        decode_chunk(payload).map_err(|m| SnapshotError::Parse(format!("binary chunk {i}: {m}")))
    })
}

/// One chunk payload: `u32 entry count ‖ concatenated entry encodings`.
fn seal_chunk(pending: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = pending.iter().map(|p| p.len()).sum();
    let mut out = Vec::with_capacity(4 + total);
    put_u32_len(&mut out, pending.len());
    for rendered in pending {
        out.extend_from_slice(rendered);
    }
    out
}

fn decode_chunk(payload: &[u8]) -> Result<Vec<SnapshotEntry>, String> {
    let mut r = Reader::new(payload);
    let n = r.len()?;
    let mut entries = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        entries.push(read_entry(&mut r)?);
    }
    r.finish()?;
    Ok(entries)
}

/// One entry:
/// `key (pattern ‖ buffers u8 ‖ dtype u8 ‖ size 3×u32) ‖
///  u32 n ‖ n × (tuning ‖ f64 score) ‖ u64 candidates ‖ u64 last_used`.
fn encode_entry(entry: &SnapshotEntry) -> Vec<u8> {
    let pattern = entry.key.pattern();
    let mut out = Vec::with_capacity(40 + pattern.len() * 5 + entry.entries.len() * 13);
    put_pattern(&mut out, pattern);
    out.push(entry.key.buffers());
    out.push(match entry.key.dtype() {
        DType::F32 => 0,
        DType::F64 => 1,
    });
    let size = entry.key.size();
    out.extend_from_slice(&size.x.to_le_bytes());
    out.extend_from_slice(&size.y.to_le_bytes());
    out.extend_from_slice(&size.z.to_le_bytes());
    put_u32_len(&mut out, entry.entries.len());
    for (t, score) in &entry.entries {
        put_tuning(&mut out, t);
        out.extend_from_slice(&score.to_le_bytes());
    }
    out.extend_from_slice(&u64::try_from(entry.candidates).unwrap_or(u64::MAX).to_le_bytes());
    out.extend_from_slice(&entry.last_used.to_le_bytes());
    out
}

fn read_entry(r: &mut Reader<'_>) -> Result<SnapshotEntry, String> {
    let pattern = read_pattern(r)?;
    let buffers = r.u8()?;
    let dtype = match r.u8()? {
        0 => DType::F32,
        1 => DType::F64,
        other => return Err(format!("unknown dtype byte {other:#04x}")),
    };
    let size = GridSize { x: r.u32()?, y: r.u32()?, z: r.u32()? };
    let key = InstanceKey::from_parts(pattern, buffers, dtype, size);
    let n = r.len()?;
    let mut entries = Vec::with_capacity(r.capacity_for(n));
    for _ in 0..n {
        let t = read_tuning(r)?;
        let score = r.f64()?;
        entries.push((t, score));
    }
    let candidates =
        usize::try_from(r.u64()?).map_err(|_| "candidate count overflow".to_owned())?;
    let last_used = r.u64()?;
    Ok(SnapshotEntry { key, entries, candidates, last_used })
}

/// `u32 cells ‖ cells × (zigzag dx ‖ zigzag dy ‖ zigzag dz ‖ u16 count)`,
/// in the pattern's ascending offset order.
fn put_pattern(out: &mut Vec<u8>, pattern: &StencilPattern) {
    put_u32_len(out, pattern.len());
    for (o, count) in pattern.iter() {
        for v in [o.dx, o.dy, o.dz] {
            // Zigzag: 0, -1, 1, -2, … become 0, 1, 2, 3, …
            put_varint(out, (v.wrapping_shl(1) ^ (v >> 31)).cast_unsigned());
        }
        out.extend_from_slice(&count.to_le_bytes());
    }
}

fn read_pattern(r: &mut Reader<'_>) -> Result<StencilPattern, String> {
    let cells = r.len()?;
    let mut pattern = StencilPattern::new();
    let mut last: Option<Offset> = None;
    for _ in 0..cells {
        let offset = Offset::new(r.zigzag()?, r.zigzag()?, r.zigzag()?);
        let count = r.u16()?;
        // Strictly ascending, nonzero cells are what `put_pattern` writes;
        // anything else would merge or drop cells on the way in.
        if last.is_some_and(|prev| prev >= offset) {
            return Err(format!("pattern offset {offset:?} out of order"));
        }
        if count == 0 {
            return Err(format!("pattern offset {offset:?} has a zero count"));
        }
        pattern.add_count(offset, count);
        last = Some(offset);
    }
    Ok(pattern)
}

// ---------------------------------------------------------------------------
// Shared pieces
// ---------------------------------------------------------------------------

/// Five LEB128 varints in canonical `(bx, by, bz, u, c)` order.
fn put_tuning(out: &mut Vec<u8>, t: &TuningVector) {
    for v in t.as_array() {
        put_varint(out, v);
    }
}

fn read_tuning(r: &mut Reader<'_>) -> Result<TuningVector, String> {
    Ok(TuningVector::new(r.varint()?, r.varint()?, r.varint()?, r.varint()?, r.varint()?))
}

/// Minimal unsigned LEB128: seven bits per byte, low bits first, the high
/// bit set on every byte but the last.
fn put_varint(out: &mut Vec<u8>, mut v: u32) {
    while v >= 0x80 {
        out.push(u8::try_from(v & 0x7f).unwrap_or(0) | 0x80);
        v >>= 7;
    }
    out.push(u8::try_from(v).unwrap_or(0));
}

fn put_u32_len(out: &mut Vec<u8>, len: usize) {
    out.extend_from_slice(&u32::try_from(len).unwrap_or(u32::MAX).to_le_bytes());
}

fn transport(kind: &str, msg: &str) -> ServeError {
    ServeError::Transport(format!("binary {kind} payload: {msg}"))
}

/// A bounds-checked cursor over a decode payload: every read either
/// yields bytes that exist or a description of the truncation. The
/// split-based `take` keeps the whole decoder free of panicking indexing.
struct Reader<'a> {
    buf: &'a [u8],
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Reader { buf }
    }

    fn take<const N: usize>(&mut self) -> Result<[u8; N], String> {
        let Some((head, tail)) = self.buf.split_first_chunk::<N>() else {
            return Err(format!("truncated: wanted {N} more bytes, {} left", self.buf.len()));
        };
        self.buf = tail;
        Ok(*head)
    }

    fn u8(&mut self) -> Result<u8, String> {
        let [b] = self.take::<1>()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take::<2>()?))
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take::<4>()?))
    }

    /// A `u32` count/length prefix widened to `usize` — `try_from`, not
    /// `as`, so a 16-bit `usize` would fail loudly instead of wrapping.
    fn len(&mut self) -> Result<usize, String> {
        let n = self.u32()?;
        usize::try_from(n).map_err(|_| format!("count {n} does not fit usize"))
    }

    /// How many of `n` claimed items to reserve room for: every item
    /// takes at least one of the bytes left, so a lying count cannot
    /// reserve more than the payload could hold.
    fn capacity_for(&self, n: usize) -> usize {
        n.min(self.buf.len())
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take::<8>()?))
    }

    fn f64(&mut self) -> Result<f64, String> {
        Ok(f64::from_le_bytes(self.take::<8>()?))
    }

    /// One minimal LEB128 varint of at most five bytes that fits `u32`.
    fn varint(&mut self) -> Result<u32, String> {
        let mut value = 0u32;
        for shift in [0u32, 7, 14, 21, 28] {
            let byte = self.u8()?;
            let bits = u32::from(byte & 0x7f);
            if shift == 28 && bits > 0x0f {
                return Err("varint exceeds u32".into());
            }
            value |= bits << shift;
            if byte & 0x80 == 0 {
                if byte == 0 && shift > 0 {
                    return Err("overlong varint".into());
                }
                return Ok(value);
            }
        }
        Err("varint longer than 5 bytes".into())
    }

    /// A zigzag varint (see [`put_pattern`]).
    fn zigzag(&mut self) -> Result<i32, String> {
        let z = self.varint()?;
        Ok((z >> 1).cast_signed() ^ (z & 1).cast_signed().wrapping_neg())
    }

    /// Rejects trailing bytes — a payload must decode exactly.
    fn finish(&self) -> Result<(), String> {
        if self.buf.is_empty() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after the payload", self.buf.len()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorl_serve::snapshot::SNAPSHOT_FORMAT_VERSION;
    use stencil_model::{StencilInstance, StencilKernel};

    fn sample_top_k() -> TopK {
        TopK {
            entries: vec![
                (TuningVector::new(64, 16, 8, 4, 2), -1.25),
                (TuningVector::new(1024, 2, 1, 0, 256), f64::MIN_POSITIVE),
                (TuningVector::new(2, 2, 2, 8, 1), -0.0),
            ],
            candidates: 8640,
            seconds: 0.004_375,
        }
    }

    fn sample_entry(n: u32, last_used: u64) -> SnapshotEntry {
        let key =
            StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap().key();
        SnapshotEntry {
            key,
            entries: vec![
                (TuningVector::new(8, 8, 8, 2, 1), 0.5),
                (TuningVector::new(16, 4, 2, 0, 3), -2.625),
            ],
            candidates: 8640,
            last_used,
        }
    }

    fn sample_snapshot() -> CacheSnapshot {
        CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 0xfeed_f00d_dead_beef,
            entries: (0..7).map(|i| sample_entry(64 + 8 * i, u64::from(i))).collect(),
        }
    }

    fn sample_stats() -> ServeStats {
        let mut batch_size_hist = [0u64; BATCH_SIZE_BUCKETS];
        batch_size_hist[0] = 3;
        batch_size_hist[BATCH_SIZE_BUCKETS - 1] = 9;
        let mut batch_latency_hist = [0u64; LATENCY_BUCKETS];
        batch_latency_hist[7] = 1234;
        ServeStats {
            requests: u64::MAX,
            batches: 41,
            max_batch: 17,
            scored_instances: 29,
            cache_hits: 1000,
            cache_misses: 77,
            cache_evictions: 3,
            cache_entries: 74,
            queue_depth: 5,
            shed_queue: 2,
            shed_latency: 1,
            recent_batch_latency_p99_s: 0.012_8,
            batch_size_hist,
            batch_latency_p50_s: 6.4e-5,
            batch_latency_p95_s: 1.28e-4,
            batch_latency_p99_s: 2.56e-4,
            batch_latency_hist,
        }
    }

    #[test]
    fn top_k_roundtrips_bit_for_bit() {
        let top = sample_top_k();
        let back = decode_top_k(&encode_top_k(&top)).unwrap();
        assert_eq!(back.candidates, top.candidates);
        assert_eq!(back.seconds.to_bits(), top.seconds.to_bits());
        assert_eq!(back.entries.len(), top.entries.len());
        for ((t, s), (bt, bs)) in top.entries.iter().zip(&back.entries) {
            assert_eq!(t, bt);
            assert_eq!(s.to_bits(), bs.to_bits(), "scores must survive bitwise (−0.0 included)");
        }
    }

    #[test]
    fn stats_roundtrip_exactly() {
        let stats = sample_stats();
        let back = decode_stats(&encode_stats(&stats)).unwrap();
        assert_eq!(back, stats);
    }

    #[test]
    fn snapshot_chunks_roundtrip_and_match_json_semantics() {
        let snap = sample_snapshot();
        for per_chunk in [1, 2, 3, 100] {
            let (header, chunks) = snapshot_to_chunks(&snap, per_chunk);
            assert_eq!(header, snap.to_chunks(per_chunk).0, "chunk boundaries must not fork");
            for c in &chunks {
                assert!(c.verify(), "binary chunks carry real FNV-1a checksums");
            }
            let back = snapshot_from_chunks(&header, &chunks).unwrap();
            assert_eq!(back, snap, "per_chunk={per_chunk}");
        }
    }

    #[test]
    fn binary_chunks_are_less_than_half_the_json_bytes() {
        // The codec exists for exactly this; the benchmark tripwire pins
        // the same bound on the live transport.
        let snap = sample_snapshot();
        let json: usize = snap.to_chunks(64).1.iter().map(|c| c.payload.len()).sum();
        let bin: usize = snapshot_to_chunks(&snap, 64).1.iter().map(|c| c.payload.len()).sum();
        assert!(bin * 2 <= json, "binary {bin} bytes vs JSON {json} bytes");
    }

    #[test]
    fn extreme_components_and_offsets_round_trip() {
        // Values far outside the paper's tuning space and stencil radii
        // travel in the same codec as everything else.
        let wide = TuningVector::new(u32::MAX, 0, 1 << 31, 127, 128);
        let top = TopK { entries: vec![(wide, -0.0)], candidates: usize::MAX, seconds: 1.5 };
        let back = decode_top_k(&encode_top_k(&top)).unwrap();
        assert_eq!(back.entries[0].0, wide);
        assert_eq!(back.entries[0].1.to_bits(), (-0.0f64).to_bits());
        assert_eq!(back.candidates, usize::MAX);

        let far = StencilPattern::from_points([
            (i32::MIN, 0, i32::MAX),
            (0, 0, 0),
            (i32::MAX, -1, i32::MIN),
        ]);
        let mut snap = sample_snapshot();
        snap.entries[0].key =
            InstanceKey::from_parts(far, 1, DType::F64, GridSize { x: u32::MAX, y: 1, z: 1 });
        snap.entries[0].entries.push((wide, f64::MAX));
        let (header, chunks) = snapshot_to_chunks(&snap, 3);
        assert_eq!(snapshot_from_chunks(&header, &chunks).unwrap(), snap);
    }

    #[test]
    fn varints_are_minimal_for_small_values() {
        for (v, len) in [(0, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u32::MAX, 5)] {
            let mut out = Vec::new();
            put_varint(&mut out, v);
            assert_eq!(out.len(), len, "{v}");
            assert_eq!(Reader::new(&out).varint().unwrap(), v);
        }
        // Zigzag keeps small magnitudes of either sign in one byte.
        let mut p = StencilPattern::new();
        p.add_count(Offset::new(-1, 1, 0), 1);
        let mut out = Vec::new();
        put_pattern(&mut out, &p);
        assert_eq!(out.len(), 4 + 3 + 2);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut top = encode_top_k(&sample_top_k());
        top.push(0);
        let err = decode_top_k(&top).unwrap_err();
        assert!(matches!(err, ServeError::Transport(ref m) if m.contains("trailing")), "{err}");
    }

    #[test]
    fn malformed_keys_fault() {
        let entry = sample_entry(64, 1);
        let mut pattern = Vec::new();
        put_pattern(&mut pattern, entry.key.pattern());
        // The dtype byte sits right after the pattern and buffer count.
        let mut bytes = encode_entry(&entry);
        bytes[pattern.len() + 1] = 9;
        let err = read_entry(&mut Reader::new(&bytes)).unwrap_err();
        assert!(err.contains("dtype"), "{err}");

        // Two cells in descending order, then a zero-count cell.
        for cells in [&[0x00, 0x00, 0x02, 1, 0, 0x00, 0x00, 0x00, 1, 0][..], &[0, 0, 0, 0, 0]] {
            let mut bytes = u32::try_from(cells.len() / 5).unwrap().to_le_bytes().to_vec();
            bytes.extend_from_slice(cells);
            assert!(read_pattern(&mut Reader::new(&bytes)).is_err(), "{cells:?}");
        }
    }

    #[test]
    fn empty_top_k_and_snapshot_encode() {
        let top = TopK { entries: Vec::new(), candidates: 0, seconds: 0.0 };
        assert_eq!(decode_top_k(&encode_top_k(&top)).unwrap().entries.len(), 0);
        let snap = CacheSnapshot::empty(3);
        let (header, chunks) = snapshot_to_chunks(&snap, 64);
        assert!(chunks.is_empty());
        assert_eq!(snapshot_from_chunks(&header, &chunks).unwrap(), snap);
    }
}
