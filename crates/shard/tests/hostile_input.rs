//! Hostile input for every decoder that meets bytes from a peer or from
//! disk: the frame readers, the snapshot-stream reader and the binary
//! payload decoders, then every JSON decoder — wire requests and replies,
//! error frames, snapshot files and ranker files.
//!
//! Two deterministic seeded tests (nothing shrinks offline, so a fixed
//! seed keeps any failure reproducible) feed them random bytes,
//! truncations and single-bit flips of valid encodings, lying counts,
//! malformed varints, deep nesting and inputs large enough to expose
//! superlinear cost. Pure codec code, no sockets — Miri runs the binary
//! test too, on a sample of the flips.

use std::hint::black_box;
use std::time::Instant;

use serde::de::DeserializeOwned;
use serde::Serialize;
use sorl::{StencilRanker, TopK};
use sorl_obs::{RecorderDump, WireEvent};
use sorl_serve::snapshot::SNAPSHOT_FORMAT_VERSION;
use sorl_serve::{
    CacheSnapshot, DecisionCache, Exemplar, ServeError, ServeStats, ShedReason, SnapshotEntry,
    SnapshotError, TuneRequest,
};
use sorl_shard::wire::{
    self, bin, next_frame, read_frame, read_snapshot_chunks, write_chunk_frames, write_frame,
    FrameKind, SnapshotChunk, SnapshotHeader, WireError, WireFault, MAGIC, MAX_PAYLOAD,
    PROTOCOL_VERSION,
};
use sorl_shard::{CacheSlice, Topology, TraceDumpReply, TraceQuery};
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

/// Drives every decoder that meets peer bytes — the frame readers, the
/// snapshot-stream reader and the three binary payload decoders — with
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
        // a prefix of what was read, random bytes never panic. The wait
        // for a frame reads a whole one, and fails on an empty or cut one
        // (a byte slice never times out, so it never reports idle).
        let mut frame = Vec::new();
        let len = rng.below(40) as usize;
        let payload = rng.bytes(len);
        write_frame(&mut frame, FrameKind::TuneOk, rng.next(), rng.next(), &payload).unwrap();
        let whole = next_frame(&mut frame.as_slice()).unwrap().unwrap();
        assert_eq!(whole, read_frame(&mut frame.as_slice()).unwrap());
        for cut in 0..frame.len() {
            let err = read_frame(&mut &frame[..cut]).unwrap_err();
            assert!(matches!(err, WireError::Io(_)), "frame cut at {cut}: {err}");
            let err = next_frame(&mut &frame[..cut]).unwrap_err();
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
        let _ = next_frame(&mut noise.as_slice());
        let noise = rng.bytes(64);
        let _ = read_frame(&mut noise.as_slice());
        let _ = next_frame(&mut noise.as_slice());
        // Noise that cannot start a frame is an error, never an idle link.
        let mut noise = rng.bytes(64);
        noise[0] = !MAGIC[0];
        assert!(matches!(next_frame(&mut noise.as_slice()), Err(WireError::BadMagic(_))));
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

    // The stream reader: lying chunk counts, short chunks, foreign ids,
    // wrong kinds — each an `Err`, never a panic. It reads exactly the
    // chunk count the header declares, so no chunk can arrive past it.
    let snap = one_entry_snapshot();
    let (header, chunks) = bin::snapshot_to_chunks(&snap, 1);
    let mut sealed = chunks[0].checksum.to_le_bytes().to_vec();
    sealed.extend_from_slice(&chunks[0].payload);
    let read = |kind: FrameKind, id: u64, payload: &[u8], chunks: usize, entries: usize| {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, kind, id, 0, payload).unwrap();
        let header = SnapshotHeader { chunks, entries, ..header };
        read_snapshot_chunks(&mut bytes.as_slice(), header, 9)
    };

    assert!(read(FrameKind::SnapshotChunk, 10, &sealed, 1, 1).is_err(), "foreign request id");
    assert!(read(FrameKind::TuneOk, 9, &sealed, 1, 1).is_err(), "wrong kind");
    assert!(read(FrameKind::SnapshotChunk, 9, &sealed[..7], 1, 1).is_err(), "short chunk");
    assert_eq!(read(FrameKind::SnapshotChunk, 9, &sealed, 1, 1).unwrap(), snap);
    let err = read(FrameKind::SnapshotChunk, 9, &sealed, 1, 2).unwrap_err();
    assert!(matches!(err, ServeError::Transport(_)), "more entries than arrived: {err}");
    let header_only = SnapshotHeader { chunks: 2, ..header };
    assert!(read_snapshot_chunks(&mut &[][..], header_only, 9).is_err(), "no chunk arrived");
    let mut bytes = Vec::new();
    write_chunk_frames(&mut bytes, 9, &chunks).unwrap();
    let short = SnapshotHeader { chunks: 2, ..header };
    assert!(read_snapshot_chunks(&mut bytes.as_slice(), short, 9).is_err(), "torn stream");
    // A header claiming a giant chunk count is rejected up front — not
    // honored one frame at a time until memory runs out.
    let absurd = SnapshotHeader { chunks: usize::MAX, entries: usize::MAX, ..header };
    let err = read_snapshot_chunks(&mut bytes.as_slice(), absurd, 9).unwrap_err();
    assert!(matches!(err, ServeError::Transport(ref m) if m.contains("bound")), "{err}");
}

// ---------------------------------------------------------------------------
// JSON decoders
// ---------------------------------------------------------------------------

impl XorShift {
    /// A short string over characters JSON must escape or encode as
    /// multi-byte UTF-8.
    fn text(&mut self) -> String {
        const CHARS: [char; 10] = ['a', 'Z', '7', '"', '\\', '\n', '\u{1}', 'é', '✓', '😀'];
        (0..self.below(12)).map(|_| CHARS[self.below(CHARS.len() as u64) as usize]).collect()
    }

    /// A finite float: JSON cannot write NaN or infinity.
    fn finite(&mut self) -> f64 {
        let f = f64::from_bits(self.next());
        if f.is_finite() {
            f
        } else {
            self.below(1000) as f64 / 8.0
        }
    }

    fn events(&mut self) -> Vec<WireEvent> {
        (0..self.below(4))
            .map(|_| WireEvent {
                ticket: self.next(),
                t_unix_ns: self.next(),
                trace: self.next(),
                span: self.next(),
                kind: self.below(8),
                name: self.text(),
            })
            .collect()
    }
}

/// The JSON text of `value`, compact or pretty, as the encoders under test
/// write it. Empty when JSON cannot represent the value: a float read as
/// `1e999` parses to infinity and has no encoding to compare against.
fn json<T: Serialize>(value: &T, pretty: bool) -> Vec<u8> {
    let text =
        if pretty { serde_json::to_string_pretty(value) } else { serde_json::to_string(value) };
    text.map(String::into_bytes).unwrap_or_default()
}

/// A decoder under test: the JSON it re-encodes what it accepted to, or
/// `None` when it rejected the bytes.
type Decode = Box<dyn Fn(&[u8]) -> Option<Vec<u8>>>;

/// `wire::from_payload::<T>`, the decoder of every JSON frame payload.
fn payload<T: DeserializeOwned + Serialize>() -> Decode {
    Box::new(|bytes| wire::from_payload::<T>(bytes).ok().map(|v| json(&v, false)))
}

/// Every JSON decoder that reads bytes from a peer or from disk, each
/// with one valid encoding drawn from `rng`.
fn json_decoders(
    rng: &mut XorShift,
    ranker_path: &std::path::Path,
) -> Vec<(&'static str, Decode, Vec<u8>)> {
    let kernels = StencilKernel::table3_kernels();
    let kernel = kernels[rng.below(kernels.len() as u64) as usize].clone();
    let n = 8 + rng.below(2048) as u32;
    let instance = StencilInstance::new(kernel.clone(), GridSize::cube(n))
        .or_else(|_| StencilInstance::new(kernel, GridSize::square(n)))
        .unwrap();
    let tune = TuneRequest { instance, k: rng.next() as usize };
    let ids: Vec<String> = (0..1 + rng.below(4)).map(|_| rng.text()).collect();
    let slice = CacheSlice::owned_by(Topology::new(ids.clone()), ids[0].clone());
    let header = SnapshotHeader {
        format_version: rng.next() as u32,
        ranker_fingerprint: rng.next(),
        entries: rng.next() as usize,
        chunks: rng.next() as usize,
    };
    let dump = TraceDumpReply {
        dump: RecorderDump {
            source: rng.text(),
            anchor_unix_ns: rng.next(),
            recorded: rng.next(),
            dropped: rng.next(),
            events: rng.events(),
        },
        exemplars: (0..rng.below(3))
            .map(|_| Exemplar {
                trace: rng.next(),
                latency_us: rng.next(),
                captured_unix_ns: rng.next(),
                events: rng.events(),
            })
            .collect(),
    };
    let faults = [
        ServeError::Closed,
        ServeError::Overloaded(ShedReason::BatchLatency),
        ServeError::Snapshot(SnapshotError::RankerMismatch { found: rng.next(), expected: 1 }),
        ServeError::Snapshot(SnapshotError::Parse(rng.text())),
        ServeError::Transport(rng.text()),
    ];
    let fault = faults[rng.below(faults.len() as u64) as usize].clone();
    let wire_fault = WireFault {
        code: rng.text(),
        found: rng.next(),
        expected: rng.next(),
        message: rng.text(),
    };
    let entries = 1 + rng.below(3) as usize;
    let mut snap = rng.snapshot(entries);
    for entry in &mut snap.entries {
        entry.entries.iter_mut().for_each(|(_, score)| *score = rng.finite());
    }
    let ranker = sorl_shard::synthetic_ranker(rng.next());

    // `decode_fault` never fails: bytes it cannot decode become this
    // transport fault, which stands for `None`.
    let undecodable = wire::decode_fault(b"");
    let path = ranker_path.to_path_buf();
    vec![
        ("TuneRequest", payload::<TuneRequest>(), wire::to_payload(&tune)),
        (
            "TraceQuery",
            payload::<TraceQuery>(),
            wire::to_payload(&TraceQuery { trace: rng.next() }),
        ),
        ("CacheSlice", payload::<CacheSlice>(), wire::to_payload(&slice)),
        ("SnapshotHeader", payload::<SnapshotHeader>(), wire::to_payload(&header)),
        ("FingerprintOk", payload::<u64>(), wire::to_payload(&rng.next())),
        ("ImportOk", payload::<usize>(), wire::to_payload(&(rng.next() as usize))),
        ("TraceDumpOk", payload::<TraceDumpReply>(), wire::to_payload(&dump)),
        ("Error", payload::<WireFault>(), wire::to_payload(&wire_fault)),
        (
            "decode_fault",
            Box::new(move |bytes| {
                let fault = wire::decode_fault(bytes);
                (fault != undecodable).then(|| wire::encode_fault(&fault))
            }),
            wire::encode_fault(&fault),
        ),
        (
            "CacheSnapshot::from_json",
            Box::new(|bytes| {
                let text = std::str::from_utf8(bytes).ok()?;
                CacheSnapshot::from_json(text).ok().map(|s| json(&s, true))
            }),
            snap.to_json().into_bytes(),
        ),
        (
            "StencilRanker::load_json",
            Box::new(move |bytes| {
                std::fs::write(&path, bytes).unwrap();
                StencilRanker::load_json(&path).ok().map(|r| json(&r, true))
            }),
            json(&ranker, true),
        ),
    ]
}

/// Every position below `len` when there are at most `cap`, else `cap`
/// of them drawn from `rng`.
fn positions(rng: &mut XorShift, len: usize, cap: usize) -> Vec<usize> {
    if len <= cap {
        (0..len).collect()
    } else {
        (0..cap).map(|_| rng.below(len as u64) as usize).collect()
    }
}

/// Asserts that whatever `decode` accepted is a value that round-trips:
/// its encoding decodes back to the same encoding.
fn assert_stable(decode: &Decode, accepted: Option<Vec<u8>>, what: &str) {
    if let Some(encoded) = accepted.filter(|e| !e.is_empty()) {
        assert_eq!(decode(&encoded).as_ref(), Some(&encoded), "{what}: accepted value round-trips");
    }
}

/// `valid` with `members` spliced in as the leading members of its first
/// object, or `alone` when it holds no object. The decoders ignore
/// unknown keys, so a splice into an object must decode to `valid`.
fn splice(valid: &[u8], members: &str, alone: &str) -> Vec<u8> {
    match valid.iter().position(|&b| b == b'{') {
        Some(at) => [&valid[..=at], members.as_bytes(), &valid[at + 1..]].concat(),
        None => alone.as_bytes().to_vec(),
    }
}

/// Builds a large input of `n` units: the members to splice into an
/// object, and the value to send alone.
type Build<'a> = &'a dyn Fn(usize) -> (String, String);

/// Seconds `decode` takes on `small` and on `large`: the least of five
/// runs each, taken in turns, so a scheduler hiccup or a busy neighbour
/// cannot pass for superlinear cost.
fn costs(decode: &Decode, small: &[u8], large: &[u8]) -> (f64, f64) {
    let time = |input: &[u8]| {
        let start = Instant::now();
        black_box(decode(black_box(input)));
        start.elapsed().as_secs_f64()
    };
    (0..5)
        .fold((f64::INFINITY, f64::INFINITY), |(s, l), _| (s.min(time(small)), l.min(time(large))))
}

/// Drives every JSON decoder that reads bytes from a peer or from disk —
/// `from_payload` for each JSON frame payload, `decode_fault`, snapshot
/// files and ranker files — with random bytes,
/// truncations and single-bit flips of valid encodings (all of them for
/// small encodings, a sample for large ones), deep nesting, and long
/// strings, long arrays and objects with 100k unknown keys. No call may
/// panic or abort, malformed input is rejected, valid encodings
/// round-trip, and doubling a large input costs under 3x.
#[test]
#[cfg_attr(miri, ignore = "times megabyte inputs; the parser's own tests cover it")]
fn hostile_json_never_panics_and_costs_linear_time() {
    let mut rng = XorShift(0x0b5e_55ed_15ea_50f7);
    let ranker_path =
        std::env::temp_dir().join(format!("sorl-hostile-ranker-{}.json", std::process::id()));

    for _ in 0..4 {
        for (what, decode, valid) in json_decoders(&mut rng, &ranker_path) {
            assert_eq!(decode(&valid).as_ref(), Some(&valid), "{what} round-trips");
            // A cut object or array never closes; a cut number may still
            // be a number.
            let closed = matches!(valid.first(), Some(b'{' | b'['));
            for cut in positions(&mut rng, valid.len(), 512) {
                let got = decode(&valid[..cut]);
                if closed {
                    assert_eq!(got, None, "{what} cut at {cut}");
                } else {
                    assert_stable(&decode, got, what);
                }
            }
            // Bytes that are not UTF-8 are malformed JSON, whatever else
            // they hold; other mutants may still be valid documents.
            let check = |bytes: &[u8], what: &str| {
                let got = decode(bytes);
                if std::str::from_utf8(bytes).is_err() {
                    assert_eq!(got, None, "{what}: not UTF-8");
                }
                assert_stable(&decode, got, what);
            };
            for bit in positions(&mut rng, valid.len() * 8, 1024) {
                let mut flipped = valid.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                check(&flipped, &format!("{what} bit {bit}"));
            }
            // Random bytes are almost never UTF-8; bytes drawn from JSON's
            // own punctuation, digits and literals reach the parser.
            const JSONISH: &[u8] = b"{}[]\":,-.e0123456789 nul\\";
            let noise = rng.bytes(valid.len());
            check(&noise, what);
            let ascii: Vec<u8> =
                noise.iter().map(|b| JSONISH[*b as usize % JSONISH.len()]).collect();
            check(&ascii, what);
        }
    }

    for (what, decode, valid) in json_decoders(&mut rng, &ranker_path) {
        // Deep nesting: past the parser's 128 levels is an `Err`, even
        // when the nest is balanced, and a megabyte of `[` does not
        // overflow this default-stack thread.
        let deep = 200;
        let nest = format!("{}{}", "[".repeat(deep), "]".repeat(deep));
        assert_eq!(decode(&splice(&valid, &format!("\"pad\":{nest},"), &nest)), None, "{what}");
        assert_eq!(decode("[".repeat(1 << 20).as_bytes()), None, "{what}");

        // Large inputs: a 256 KiB string, a 128k-element array and an
        // object with 100k unknown keys. Spliced into an object they
        // decode to the valid value; doubling any of them costs under 3x.
        let string = |n: usize| format!("\"{}\"", "ab\\\"é😀".repeat(n / 10));
        let array = |n: usize| format!("[{}0]", "0,".repeat(n - 1));
        let keys = |n: usize| (0..n).map(|i| format!("\"u{i:08}\":0,")).collect::<String>();
        let shapes: [(&str, usize, Build); 3] = [
            ("long string", 1 << 18, &|n| (format!("\"pad\":{},", string(n)), string(n))),
            ("long array", 1 << 17, &|n| (format!("\"pad\":{},", array(n)), array(n))),
            ("wide object", 100_000, &|n| {
                let members = keys(n);
                let alone = format!("{{{}}}", members.trim_end_matches(','));
                (members, alone)
            }),
        ];
        let expect = valid.contains(&b'{').then(|| valid.clone());
        for (shape, n, build) in shapes {
            let input = |n: usize| {
                let (members, alone) = build(n);
                splice(&valid, &members, &alone)
            };
            let (small, large) = (input(n), input(2 * n));
            assert_eq!(decode(&small), expect, "{what}, {shape}");
            // A superlinear decoder misses on every attempt; a busy host
            // rarely spoils three in a row.
            let mut took = (0.0, 0.0);
            let linear = (0..3).any(|_| {
                took = costs(&decode, &small, &large);
                took.1 < 3.0 * took.0
            });
            let (t1, t2) = took;
            assert!(linear, "{what}, {shape}: doubling took {t1:.4} s -> {t2:.4} s");
        }
    }
    std::fs::remove_file(&ranker_path).ok();
}
