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
//! This module is also the one snapshot chunker and chunk validator:
//! [`snapshot_to_chunks`] cuts a snapshot into checksummed
//! [`SnapshotChunk`]s of `u32 entry count ‖ concatenated entry encodings`,
//! and [`snapshot_from_chunks`] checks a received stream's counts, order
//! and FNV-1a checksums before it decodes a byte. The durable JSON file
//! ([`CacheSnapshot::save_json`]) is the only other snapshot form.
//!
//! [`FrameKind::TuneOk`]: super::FrameKind::TuneOk
//! [`FrameKind::StatsOk`]: super::FrameKind::StatsOk
//! [`FrameKind::SnapshotChunk`]: super::FrameKind::SnapshotChunk

use sorl::TopK;
use sorl_serve::stats::{BATCH_SIZE_BUCKETS, LATENCY_BUCKETS};
use sorl_serve::{CacheSnapshot, ServeError, ServeStats, SnapshotEntry, SnapshotError};
use stencil_model::{DType, GridSize, InstanceKey, Offset, StencilPattern, TuningVector};

use super::{SnapshotChunk, SnapshotHeader, CHUNK_BYTE_BUDGET};

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
/// total. Kept only because perfbench still calls it.
pub fn snapshot_fits(_snapshot: &CacheSnapshot) -> bool {
    true
}

/// Splits `snapshot` into a [`SnapshotHeader`] plus checksummed
/// [`SnapshotChunk`]s, the streaming wire form for shipping caches: no
/// single giant payload is materialized, and a receiver verifies each
/// chunk before it decodes anything.
///
/// A chunk closes at `entries_per_chunk` entries *or* at
/// [`CHUNK_BYTE_BUDGET`] encoded entry bytes, whichever comes first (one
/// entry minimum): entry counts alone would let a cache of deep top-k
/// decisions produce a chunk bigger than the frame cap, wedging cache
/// shipping for that shard. An empty snapshot yields zero chunks (the
/// header alone carries the version and fingerprint).
pub fn snapshot_to_chunks(
    snapshot: &CacheSnapshot,
    entries_per_chunk: usize,
) -> (SnapshotHeader, Vec<SnapshotChunk>) {
    let per = entries_per_chunk.max(1);
    let mut chunks = Vec::new();
    // The open chunk's entries, already encoded, and how many there are.
    let mut pending = Vec::new();
    let mut count = 0;
    let mut entry = Vec::new();
    for e in &snapshot.entries {
        entry.clear();
        put_entry(&mut entry, e);
        if count > 0 && (count >= per || pending.len() + entry.len() > CHUNK_BYTE_BUDGET) {
            push_chunk(&mut chunks, &pending, count);
            pending.clear();
            count = 0;
        }
        pending.extend_from_slice(&entry);
        count += 1;
    }
    push_chunk(&mut chunks, &pending, count);
    let header = SnapshotHeader {
        format_version: snapshot.format_version,
        ranker_fingerprint: snapshot.ranker_fingerprint,
        entries: snapshot.entries.len(),
        chunks: chunks.len(),
    };
    (header, chunks)
}

/// Seals `count` encoded entries into the next checksummed chunk.
fn push_chunk(chunks: &mut Vec<SnapshotChunk>, entries: &[u8], count: usize) {
    if count == 0 {
        return;
    }
    let mut payload = Vec::with_capacity(4 + entries.len());
    put_u32_len(&mut payload, count);
    payload.extend_from_slice(entries);
    let checksum = SnapshotChunk::digest(&payload);
    chunks.push(SnapshotChunk { index: chunks.len(), checksum, payload });
}

/// Reassembles a snapshot from a header and its chunks, verifying the
/// transfer *before* constructing anything: the chunk count must match
/// the header, the chunks must arrive in index order, every chunk's
/// FNV-1a checksum must verify before its bytes are decoded, and the
/// total entry count must match the header. A torn or corrupted transfer
/// is rejected deterministically ([`SnapshotError::ChunkChecksum`] /
/// [`SnapshotError::Truncated`]), never assembled partially.
pub fn snapshot_from_chunks(
    header: &SnapshotHeader,
    chunks: &[SnapshotChunk],
) -> Result<CacheSnapshot, SnapshotError> {
    if chunks.len() != header.chunks {
        return Err(SnapshotError::Truncated {
            what: "chunks",
            found: chunks.len(),
            expected: header.chunks,
        });
    }
    // `header.entries` is peer-supplied and unvalidated at this point —
    // cap the pre-allocation so a garbage count cannot provoke a giant
    // allocation (the real count is enforced against the header below).
    let mut entries = Vec::with_capacity(header.entries.min(4096));
    for (i, chunk) in chunks.iter().enumerate() {
        if chunk.index != i {
            return Err(SnapshotError::Truncated {
                what: "chunk index",
                found: chunk.index,
                expected: i,
            });
        }
        if !chunk.verify() {
            return Err(SnapshotError::ChunkChecksum { index: i });
        }
        read_chunk(&chunk.payload, &mut entries)
            .map_err(|m| SnapshotError::Parse(format!("binary chunk {i}: {m}")))?;
    }
    if entries.len() != header.entries {
        return Err(SnapshotError::Truncated {
            what: "entries",
            found: entries.len(),
            expected: header.entries,
        });
    }
    Ok(CacheSnapshot {
        format_version: header.format_version,
        ranker_fingerprint: header.ranker_fingerprint,
        entries,
    })
}

/// Decodes one verified chunk payload, appending its entries to `out`.
fn read_chunk(payload: &[u8], out: &mut Vec<SnapshotEntry>) -> Result<(), String> {
    let mut r = Reader::new(payload);
    let n = r.len()?;
    out.reserve(r.capacity_for(n));
    for _ in 0..n {
        out.push(read_entry(&mut r)?);
    }
    r.finish()
}

/// One entry:
/// `key (pattern ‖ buffers u8 ‖ dtype u8 ‖ size 3×u32) ‖
///  u32 n ‖ n × (tuning ‖ f64 score) ‖ u64 candidates ‖ u64 last_used`.
fn put_entry(out: &mut Vec<u8>, entry: &SnapshotEntry) {
    let pattern = entry.key.pattern();
    out.reserve(40 + pattern.len() * 5 + entry.entries.len() * 13);
    put_pattern(out, pattern);
    out.push(entry.key.buffers());
    out.push(match entry.key.dtype() {
        DType::F32 => 0,
        DType::F64 => 1,
    });
    let size = entry.key.size();
    out.extend_from_slice(&size.x.to_le_bytes());
    out.extend_from_slice(&size.y.to_le_bytes());
    out.extend_from_slice(&size.z.to_le_bytes());
    put_u32_len(out, entry.entries.len());
    for (t, score) in &entry.entries {
        put_tuning(out, t);
        out.extend_from_slice(&score.to_le_bytes());
    }
    out.extend_from_slice(&u64::try_from(entry.candidates).unwrap_or(u64::MAX).to_le_bytes());
    out.extend_from_slice(&entry.last_used.to_le_bytes());
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
    fn chunk_roundtrip_is_exact() {
        let snap = sample_snapshot();
        for per_chunk in [1, 2, 3, 7, 100] {
            let (header, chunks) = snapshot_to_chunks(&snap, per_chunk);
            assert_eq!(header.entries, 7);
            assert_eq!(header.chunks, chunks.len());
            assert_eq!(chunks.len(), 7usize.div_ceil(per_chunk));
            for (i, c) in chunks.iter().enumerate() {
                assert_eq!(c.index, i);
                assert!(c.verify(), "chunks carry real FNV-1a checksums");
            }
            let back = snapshot_from_chunks(&header, &chunks).unwrap();
            assert_eq!(back, snap, "per_chunk={per_chunk}");
        }
    }

    #[test]
    fn chunk_stream_bytes_are_pinned() {
        // Values recorded from the protocol-5 chunker: any change here is
        // a wire change and needs a protocol version bump.
        let (header, chunks) = snapshot_to_chunks(&sample_snapshot(), 3);
        assert_eq!(
            String::from_utf8(crate::wire::to_payload(&header)).unwrap(),
            r#"{"format_version":1,"ranker_fingerprint":18369602397475290863,"entries":7,"chunks":3}"#
        );
        let pinned = [
            (0x2062_95c2_c96d_54dd, 301),
            (0x8171_5e38_4858_6632, 301),
            (0xfcf4_e8ac_69cd_bd78, 103),
        ];
        assert_eq!(chunks.len(), pinned.len());
        for (c, (checksum, len)) in chunks.iter().zip(pinned) {
            assert_eq!((c.checksum, c.payload.len()), (checksum, len), "chunk {}", c.index);
            assert_eq!(SnapshotChunk::digest(&c.payload), checksum, "chunk {}", c.index);
        }
    }

    #[test]
    fn chunking_splits_on_byte_budget_before_entry_count() {
        // Deep top-k decisions (the candidate-set-sized worst case) must
        // not produce chunks beyond the byte budget just because the
        // entry-count limit was not reached — an oversized chunk would
        // exceed a transport's frame cap and wedge cache shipping. One
        // deep entry encodes to ~112 KB, so 40 of them cross the budget.
        let deep = |n: u32, last_used: u64| {
            let mut e = sample_entry(n, last_used);
            e.entries = (0..8640u32)
                .map(|i| (TuningVector::new(8, 8, 8, i % 9, 1 + i % 4), -f64::from(i)))
                .collect();
            e
        };
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 21,
            entries: (0..40).map(|i| deep(64 + 8 * i, u64::from(i))).collect(),
        };
        let (header, chunks) = snapshot_to_chunks(&snap, 256);
        assert!(chunks.len() > 1, "byte budget must split despite the 256-entry limit");
        for c in &chunks {
            assert!(
                c.payload.len() <= 4 + CHUNK_BYTE_BUDGET,
                "chunk {} is {} bytes — past the budget",
                c.index,
                c.payload.len()
            );
        }
        // The split point is part of the wire: pinned like the golden stream.
        let pinned: Vec<_> = chunks.iter().map(|c| (c.checksum, c.payload.len())).collect();
        assert_eq!(pinned, [(0x6ef5_1ddf_c0d6_4857, 4_158_545), (0x5f11_9166_5ffe_b12b, 337_183)]);
        assert_eq!(snapshot_from_chunks(&header, &chunks).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_chunks_to_header_only() {
        let snap = CacheSnapshot::empty(9);
        let (header, chunks) = snapshot_to_chunks(&snap, 64);
        assert_eq!((header.entries, header.chunks), (0, 0));
        assert!(chunks.is_empty());
        assert_eq!(snapshot_from_chunks(&header, &chunks).unwrap(), snap);
    }

    #[test]
    fn corrupted_chunk_is_rejected_by_checksum() {
        let (header, mut chunks) = snapshot_to_chunks(&sample_snapshot(), 1);
        // Flip one byte in the middle chunk's payload.
        let mid = chunks[1].payload.len() / 2;
        chunks[1].payload[mid] ^= 0x40;
        assert_eq!(
            snapshot_from_chunks(&header, &chunks),
            Err(SnapshotError::ChunkChecksum { index: 1 })
        );
    }

    #[test]
    fn torn_chunk_streams_are_rejected() {
        let (header, chunks) = snapshot_to_chunks(&sample_snapshot(), 3);
        // Missing chunk.
        assert!(matches!(
            snapshot_from_chunks(&header, &chunks[..2]),
            Err(SnapshotError::Truncated { what: "chunks", .. })
        ));
        // Out-of-order chunks.
        let swapped = vec![chunks[1].clone(), chunks[0].clone(), chunks[2].clone()];
        assert!(matches!(
            snapshot_from_chunks(&header, &swapped),
            Err(SnapshotError::Truncated { what: "chunk index", .. })
        ));
        // Header promising more entries than the chunks carry.
        let lying = SnapshotHeader { entries: 99, ..header };
        assert!(matches!(
            snapshot_from_chunks(&lying, &chunks),
            Err(SnapshotError::Truncated { what: "entries", .. })
        ));
    }

    #[test]
    fn binary_chunks_are_less_than_half_the_json_bytes() {
        // The codec exists for exactly this; the benchmark tripwire pins
        // the same bound on the live transport.
        let snap = sample_snapshot();
        let json = serde_json::to_string(&snap.entries).unwrap().len();
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
        let mut bytes = Vec::new();
        put_entry(&mut bytes, &entry);
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
    fn empty_top_k_encodes() {
        let top = TopK { entries: Vec::new(), candidates: 0, seconds: 0.0 };
        assert_eq!(decode_top_k(&encode_top_k(&top)).unwrap().entries.len(), 0);
    }
}
