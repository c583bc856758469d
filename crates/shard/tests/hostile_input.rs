//! Hostile input for every wire decoder that meets peer bytes: the frame
//! reader, the snapshot-stream assembler and the binary payload decoders.
//!
//! One deterministic seeded test (nothing shrinks offline, so a fixed
//! seed keeps any failure reproducible) feeds them random bytes, every
//! truncation and every single-bit flip of valid encodings, lying counts
//! and malformed varints. Pure codec code, no sockets — Miri runs it too,
//! on a sample of the flips.

use sorl::TopK;
use sorl_serve::snapshot::SNAPSHOT_FORMAT_VERSION;
use sorl_serve::{
    CacheSnapshot, DecisionCache, ServeError, ServeStats, SnapshotChunk, SnapshotEntry,
    SnapshotError, SnapshotHeader,
};
use sorl_shard::wire::{
    bin, read_frame, read_snapshot_chunks, write_chunk_frames, write_frame, Frame, FrameKind,
    SnapshotAssembler, WireError, MAGIC, MAX_PAYLOAD, PROTOCOL_VERSION,
};
use stencil_model::{
    DType, GridSize, InstanceKey, Offset, StencilInstance, StencilKernel, StencilPattern,
    TuningVector,
};

/// Deterministic xorshift64*.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn bytes(&mut self, n: usize) -> Vec<u8> {
        (0..n).map(|_| self.next().to_le_bytes()[7]).collect()
    }

    /// A u32 of uniformly drawn bit length, so every varint length shows
    /// up.
    fn wide_u32(&mut self) -> u32 {
        let bits = self.below(33) as u32;
        (self.next() as u32).checked_shr(32 - bits).unwrap_or(0)
    }

    fn wide_i32(&mut self) -> i32 {
        let v = self.wide_u32() as i32;
        if self.below(2) == 0 {
            v
        } else {
            v.wrapping_neg()
        }
    }

    fn tuning(&mut self) -> TuningVector {
        let mut c = [0u32; 5];
        c.iter_mut().for_each(|v| *v = self.wide_u32());
        TuningVector::new(c[0], c[1], c[2], c[3], c[4])
    }

    fn top_k(&mut self) -> TopK {
        let n = self.below(5) as usize;
        TopK {
            entries: (0..n).map(|_| (self.tuning(), f64::from_bits(self.next()))).collect(),
            candidates: self.next() as usize,
            seconds: f64::from_bits(self.next()),
        }
    }

    fn stats(&mut self) -> ServeStats {
        let mut stats = ServeStats {
            requests: self.next(),
            recent_batch_latency_p99_s: f64::from_bits(self.next()),
            batch_latency_p99_s: f64::from_bits(self.next()),
            ..ServeStats::default()
        };
        stats.batch_size_hist.iter_mut().for_each(|v| *v = self.next());
        stats.batch_latency_hist.iter_mut().for_each(|v| *v = self.next());
        stats
    }

    fn snapshot(&mut self, entries: usize) -> CacheSnapshot {
        let entries = (0..entries)
            .map(|i| {
                let mut pattern = StencilPattern::new();
                for _ in 0..=self.below(4) {
                    let o = Offset::new(self.wide_i32(), self.wide_i32(), self.wide_i32());
                    pattern.add_count(o, 1 + self.below(3) as u16);
                }
                let dtype = if self.below(2) == 0 { DType::F32 } else { DType::F64 };
                let size = GridSize { x: self.wide_u32(), y: self.wide_u32(), z: 1 };
                SnapshotEntry {
                    key: InstanceKey::from_parts(pattern, 1 + self.below(3) as u8, dtype, size),
                    entries: (0..=self.below(3))
                        .map(|_| (self.tuning(), f64::from_bits(self.next())))
                        .collect(),
                    candidates: self.next() as usize,
                    last_used: i as u64,
                }
            })
            .collect();
        CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: self.next(),
            entries,
        }
    }
}

/// Decodes `payload` as one whole-snapshot chunk of a stream that
/// declares `entries` entries, re-sealing its checksum so the binary
/// decoder — not the FNV check — is what meets the bytes.
fn decode_chunk(payload: &[u8], entries: usize) -> Result<CacheSnapshot, SnapshotError> {
    let header = SnapshotHeader {
        format_version: SNAPSHOT_FORMAT_VERSION,
        ranker_fingerprint: 0,
        entries,
        chunks: 1,
    };
    let chunk = SnapshotChunk {
        index: 0,
        checksum: SnapshotChunk::digest(payload),
        payload: payload.to_vec(),
    };
    bin::snapshot_from_chunks(&header, &[chunk])
}

/// A one-decision snapshot built through the public cache API.
fn one_entry_snapshot() -> CacheSnapshot {
    let mut cache = DecisionCache::new(4);
    let key = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(64)).unwrap().key();
    cache.insert(key, vec![(TuningVector::new(8, 8, 8, 2, 1), 0.5)], 8640);
    cache.snapshot(7)
}

/// The one chunk payload of `snap` (every generated snapshot fits one).
fn chunk_payload(snap: &CacheSnapshot) -> Vec<u8> {
    let (_, chunks) = bin::snapshot_to_chunks(snap, usize::MAX);
    assert_eq!(chunks.len(), 1);
    chunks.into_iter().next().unwrap().payload
}

/// Drives every decoder that meets peer bytes — the frame reader, the
/// snapshot assembler and the three binary payload decoders — with
/// random bytes, every truncation and every single-bit flip of valid
/// encodings, lying counts and malformed varints. No call may panic,
/// malformed input must be an `Err`, and whatever a binary decoder
/// accepts must re-encode to exactly the bytes it read (the codec is
/// canonical, so every encoded value round-trips bit for bit).
#[test]
fn hostile_input_never_panics_and_valid_encodings_round_trip() {
    // Miri interprets every byte; a sample of the flips keeps it fast.
    let (rounds, flip_stride) = if cfg!(miri) { (2, 97) } else { (48, 1) };
    let mut rng = XorShift(0x5eed_0b5e_55ed_f00d);

    for _ in 0..rounds {
        let top = rng.top_k();
        let stats = rng.stats();
        let entries = 1 + rng.below(3) as usize;
        let snap = rng.snapshot(entries);
        let n = snap.entries.len();
        let encodings: [(&str, Vec<u8>); 3] = [
            ("top_k", bin::encode_top_k(&top)),
            ("stats", bin::encode_stats(&stats)),
            ("chunk", chunk_payload(&snap)),
        ];
        // Re-encodes whatever a decoder accepted; `None` = rejected.
        let decode = |what: &str, bytes: &[u8]| -> Option<Vec<u8>> {
            match what {
                "top_k" => bin::decode_top_k(bytes).ok().map(|t| bin::encode_top_k(&t)),
                "stats" => bin::decode_stats(bytes).ok().map(|s| bin::encode_stats(&s)),
                _ => decode_chunk(bytes, n).ok().map(|s| chunk_payload(&s)),
            }
        };
        for (what, bytes) in &encodings {
            assert_eq!(decode(what, bytes).as_ref(), Some(bytes), "{what} round-trips");
            for cut in 0..bytes.len() {
                assert_eq!(decode(what, &bytes[..cut]), None, "{what} cut at {cut}");
            }
            for bit in (0..bytes.len() * 8).step_by(flip_stride) {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                if let Some(back) = decode(what, &flipped) {
                    assert_eq!(back, flipped, "{what} bit {bit}: accepted bytes re-encode");
                }
            }
            let noise = rng.bytes(bytes.len());
            if let Some(back) = decode(what, &noise) {
                assert_eq!(back, noise, "{what}: accepted noise re-encodes");
            }
        }

        // Frames: truncations fail, flips either fail or re-encode to
        // a prefix of what was read, random bytes never panic.
        let mut frame = Vec::new();
        let len = rng.below(40) as usize;
        let payload = rng.bytes(len);
        write_frame(&mut frame, FrameKind::TuneOk, rng.next(), rng.next(), &payload).unwrap();
        for cut in 0..frame.len() {
            let err = read_frame(&mut &frame[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Io(_)), "frame cut at {cut}: {err}");
        }
        for bit in (0..frame.len() * 8).step_by(flip_stride) {
            let mut flipped = frame.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            if let Ok(f) = read_frame(&mut flipped.as_slice()) {
                let mut again = Vec::new();
                write_frame(&mut again, f.kind, f.request_id, f.trace_id, &f.payload).unwrap();
                assert!(flipped.starts_with(&again), "frame bit {bit}");
            }
        }
        let mut noise = MAGIC.to_vec();
        noise.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        noise.extend(rng.bytes(64));
        let _ = read_frame(&mut noise.as_slice());
        let _ = read_frame(&mut rng.bytes(64).as_slice());
    }

    // A frame whose length field claims the whole payload cap, with
    // nothing behind it: fails on the missing bytes.
    let mut frame = Vec::new();
    write_frame(&mut frame, FrameKind::Tune, 1, 0, b"").unwrap();
    frame[7..11].copy_from_slice(&MAX_PAYLOAD.to_le_bytes());
    assert!(matches!(read_frame(&mut frame.as_slice()), Err(WireError::Io(_))));

    // Count prefixes of u32::MAX fail on the missing bytes instead of
    // allocating for four billion entries.
    let mut lying = u32::MAX.to_le_bytes().to_vec();
    lying.extend_from_slice(&[0u8; 64]);
    assert!(bin::decode_top_k(&lying).is_err());
    assert!(bin::decode_stats(&lying).is_err());
    assert!(decode_chunk(&lying, 1).is_err());

    // Malformed varints in a tuning component: overlong (a padded
    // zero continuation), wider than u32, longer than five bytes.
    let valid = bin::encode_top_k(&TopK {
        entries: vec![(TuningVector::new(8, 1, 1, 0, 1), 0.5)],
        candidates: 1,
        seconds: 0.0,
    });
    for bad in [&[0x88, 0x00][..], &[0xff, 0xff, 0xff, 0xff, 0x1f], &[0x80; 6]] {
        let mut payload = valid[..4].to_vec();
        payload.extend_from_slice(bad);
        payload.extend_from_slice(&valid[5..]);
        let err = bin::decode_top_k(&payload).unwrap_err();
        assert!(matches!(err, ServeError::Transport(ref m) if m.contains("varint")), "{err}");
    }

    // The assembler: lying chunk counts, short chunks, foreign ids,
    // wrong kinds — each an `Err`, never a panic.
    let snap = one_entry_snapshot();
    let (header, chunks) = bin::snapshot_to_chunks(&snap, 1);
    let chunk_frame = |id: u64, payload: Vec<u8>| Frame {
        kind: FrameKind::SnapshotChunk,
        request_id: id,
        trace_id: 0,
        payload,
    };
    let mut sealed = chunks[0].checksum.to_le_bytes().to_vec();
    sealed.extend_from_slice(&chunks[0].payload);
    let fresh = |chunks: usize, entries: usize| {
        SnapshotAssembler::new(SnapshotHeader { chunks, entries, ..header }, 9).unwrap()
    };

    let mut a = fresh(1, 1);
    assert!(a.push(&chunk_frame(10, sealed.clone())).is_err(), "foreign request id");
    assert!(a.push(&Frame { kind: FrameKind::TuneOk, ..chunk_frame(9, sealed.clone()) }).is_err());
    assert!(a.push(&chunk_frame(9, sealed[..7].to_vec())).is_err(), "short chunk");
    a.push(&chunk_frame(9, sealed.clone())).unwrap();
    assert!(a.push(&chunk_frame(9, sealed.clone())).is_err(), "chunk past the count");
    assert_eq!(a.finish().unwrap(), snap);

    let mut a = fresh(1, 2);
    a.push(&chunk_frame(9, sealed.clone())).unwrap();
    assert!(a.finish().is_err(), "header claims more entries than arrived");
    assert!(fresh(2, 1).finish().is_err(), "header claims more chunks than arrived");
    let mut bytes = Vec::new();
    write_chunk_frames(&mut bytes, 9, &chunks).unwrap();
    let short = SnapshotHeader { chunks: 2, ..header };
    assert!(read_snapshot_chunks(&mut bytes.as_slice(), short, 9).is_err(), "torn stream");
    // A header claiming a giant chunk count is rejected up front — not
    // honored one frame at a time until memory runs out.
    let absurd = SnapshotHeader { chunks: usize::MAX, entries: usize::MAX, ..header };
    let err = SnapshotAssembler::new(absurd, 9).unwrap_err();
    assert!(matches!(err, ServeError::Transport(ref m) if m.contains("bound")), "{err}");
}
