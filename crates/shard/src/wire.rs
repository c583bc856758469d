//! The cross-host shard wire protocol: length-prefixed frames under one
//! checked header, one payload codec per frame kind, and chunked,
//! per-chunk-checksummed snapshot streaming.
//!
//! Every frame starts with the same 27-byte header:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  — b"SORL"
//! 4       2     protocol version (little endian; must equal PROTOCOL_VERSION)
//! 6       1     frame kind (see [`FrameKind`])
//! 7       4     payload length (little endian)
//! 11      8     request id (little endian)
//! 19      8     trace id (little endian; 0 = untraced)
//! 27      len   payload
//! ```
//!
//! Both ends of the wire ship from this workspace, so there is exactly one
//! protocol version, [`PROTOCOL_VERSION`]. A reader checks it on every
//! frame, straight after the magic and before it trusts any later header
//! byte (a peer on another version may lay its header out differently):
//! a mismatch is a [`WireError::Version`] naming the peer's version, and
//! the connection is dead. Nothing downgrades or redials.
//!
//! The request id multiplexes a connection: a response carries the id of
//! the request it answers, and every frame of a snapshot stream carries
//! the id of the request that opened it. A request carries the submitting
//! client's trace id (0 when untraced); the server stamps its own spans
//! with it and echoes it on the response.
//!
//! The frame kind fixes the payload codec — there is no codec byte and no
//! fallback:
//!
//! | frame kinds | payload codec |
//! |---|---|
//! | every request, [`FrameKind::FingerprintOk`], [`FrameKind::ImportOk`], [`FrameKind::TraceDumpOk`], [`FrameKind::SnapshotHeader`], [`FrameKind::Error`] | JSON ([`to_payload`] / [`from_payload`]) |
//! | [`FrameKind::TuneOk`], [`FrameKind::StatsOk`], [`FrameKind::SnapshotChunk`] entries | binary ([`bin`]) |
//!
//! The tracing pair [`FrameKind::TraceDump`] → [`FrameKind::TraceDumpOk`]
//! carries a JSON [`TraceQuery`] (a raw trace id, `0` = everything) and a
//! JSON [`TraceDumpReply`] — the server's flight recorder export plus its
//! resident slow-request exemplars — which is what
//! `ShardRouter::fleet_trace` and the `sorl-trace` CLI assemble into
//! cross-process waterfalls. Snapshots never travel as one giant frame: a
//! snapshot stream is a [`FrameKind::SnapshotHeader`] frame (JSON
//! [`SnapshotHeader`], so the stream prologue stays humanly inspectable)
//! followed by `header.chunks` [`FrameKind::SnapshotChunk`] frames, each
//! `8-byte FNV-1a checksum ‖ binary chunk` (see [`SnapshotChunk`] — the
//! checksum is the pinned [`stencil_model::fingerprint::Fnv1a`] over
//! exactly the chunk bytes). This module owns the stream's types and
//! limits; [`bin::snapshot_to_chunks`] and [`bin::snapshot_from_chunks`]
//! are its one chunker and validator. Big caches stream chunk by chunk,
//! and a torn or corrupted transfer is rejected deterministically before
//! anything is assembled.
//!
//! A stream's header and chunk frames are **contiguous** on the wire, in
//! both directions: a writer sends the whole stream under one hold of its
//! connection's write lock, so no other frame comes between them. That is
//! what lets [`read_snapshot_chunks`], the one stream reader, read a
//! stream inline right after its header. Inside a stream, any frame but
//! the stream's own chunks, or an error frame ending it, is a protocol
//! violation.
//!
//! Each connection end reads through one buffered reader held for the
//! connection's life, and waits for the next frame with [`next_frame`]; a
//! second reader on the same socket would lose the bytes the first one
//! buffered. [`write_frame`] writes a frame with one `write_all`, so a
//! frame typically costs one socket read and one socket write.
//!
//! Failures travel as [`FrameKind::Error`] frames whose payload is a
//! [`WireFault`] — a flat encoding of [`ServeError`] that reconstructs the
//! variant (including snapshot-rejection details) on the other side.
//!
//! Anything malformed — wrong magic, version or kind, oversized length,
//! short reads — is a [`WireError`]; transports surface it as
//! [`ServeError::Transport`] and treat the connection as dead.

use std::io::{self, BufRead, Read, Write};

use serde::{Deserialize, Serialize};
use sorl_obs::RecorderDump;
use sorl_serve::{Exemplar, ServeError, ShedReason, SnapshotError};

pub mod bin;

/// Leading bytes of every frame.
pub const MAGIC: [u8; 4] = *b"SORL";

/// The protocol version this build speaks — the only one it reads or
/// writes. Bump it on any change to the header or to a frame kind's
/// payload.
pub const PROTOCOL_VERSION: u16 = 5;

/// Size of the frame header.
pub const HEADER_LEN: usize = 27;

/// Upper bound on a single frame's payload. Chunked snapshot streaming
/// keeps real frames far below this; the cap exists so garbage bytes in
/// the length field cannot provoke a giant allocation.
pub const MAX_PAYLOAD: u32 = 64 * 1024 * 1024;

/// Entries per snapshot chunk used by the TCP transport and server.
pub const CHUNK_ENTRIES: usize = 256;

/// Encoded entry bytes at which [`bin::snapshot_to_chunks`] closes a chunk
/// even below its entry-count limit. Far under [`MAX_PAYLOAD`], with
/// one-entry chunks as the floor — a single decision is bounded by the
/// candidate-set size (≤ 8640 entries, well under a megabyte).
pub const CHUNK_BYTE_BUDGET: usize = 4 * 1024 * 1024;

/// Upper bound on the total payload bytes of one snapshot stream. The
/// per-frame [`MAX_PAYLOAD`] cap alone would still let a peer stream an
/// unbounded *number* of chunks into the receiver's reassembly buffer;
/// this bounds the whole transfer (decision caches encode to a few hundred
/// bytes per entry — a quarter GiB is far beyond any real fleet handoff).
pub const MAX_SNAPSHOT_BYTES: usize = 256 * 1024 * 1024;

/// Payload bytes a frame reader reserves before the bytes arrive; larger
/// payloads grow as they are read, so a lying length field costs memory
/// only in proportion to the bytes actually sent.
const PAYLOAD_RESERVE: usize = 64 * 1024;

/// What a frame carries. The discriminant byte is part of the wire
/// contract — append, never renumber.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// Request: tune one instance (JSON [`sorl_serve::TuneRequest`]).
    Tune = 0x01,
    /// Request: serving counters (empty payload).
    Stats = 0x02,
    /// Request: ranker fingerprint (empty payload).
    Fingerprint = 0x03,
    /// Request: copy a cache slice out (JSON [`crate::CacheSlice`]);
    /// answered with a snapshot stream.
    ExportCache = 0x04,
    /// Request: remove and return a cache slice (JSON
    /// [`crate::CacheSlice`]); answered with a snapshot stream.
    ExtractCache = 0x05,
    /// Request: replay a snapshot into the cache. The payload is the JSON
    /// [`SnapshotHeader`]; `header.chunks` [`FrameKind::SnapshotChunk`]
    /// frames follow. Answered with [`FrameKind::ImportOk`].
    ImportCache = 0x06,
    /// Request: export the flight recorder, optionally filtered to one
    /// trace (JSON [`TraceQuery`]). Answered with
    /// [`FrameKind::TraceDumpOk`].
    TraceDump = 0x07,
    /// Snapshot stream prologue (JSON [`SnapshotHeader`]).
    SnapshotHeader = 0x10,
    /// One snapshot chunk: `checksum (8 bytes LE) ‖ binary chunk`
    /// ([`bin::snapshot_to_chunks`]).
    SnapshotChunk = 0x11,
    /// Response to [`FrameKind::Tune`] (binary [`sorl::tuner::TopK`],
    /// [`bin::encode_top_k`]).
    TuneOk = 0x20,
    /// Response to [`FrameKind::Stats`] (binary
    /// [`sorl_serve::ServeStats`], [`bin::encode_stats`]).
    StatsOk = 0x21,
    /// Response to [`FrameKind::Fingerprint`] (JSON `u64`).
    FingerprintOk = 0x22,
    /// Response to [`FrameKind::ImportCache`] (JSON `usize`: entries
    /// applied).
    ImportOk = 0x23,
    /// Response to [`FrameKind::TraceDump`] (JSON [`TraceDumpReply`]).
    TraceDumpOk = 0x24,
    /// Any request's failure response (JSON [`WireFault`]).
    Error = 0x2f,
}

impl FrameKind {
    fn from_byte(b: u8) -> Option<FrameKind> {
        Some(match b {
            0x01 => FrameKind::Tune,
            0x02 => FrameKind::Stats,
            0x03 => FrameKind::Fingerprint,
            0x04 => FrameKind::ExportCache,
            0x05 => FrameKind::ExtractCache,
            0x06 => FrameKind::ImportCache,
            0x07 => FrameKind::TraceDump,
            0x10 => FrameKind::SnapshotHeader,
            0x11 => FrameKind::SnapshotChunk,
            0x20 => FrameKind::TuneOk,
            0x21 => FrameKind::StatsOk,
            0x22 => FrameKind::FingerprintOk,
            0x23 => FrameKind::ImportOk,
            0x24 => FrameKind::TraceDumpOk,
            0x2f => FrameKind::Error,
            _ => None?,
        })
    }
}

/// Why reading or writing a frame failed.
#[derive(Debug)]
pub enum WireError {
    /// The underlying socket failed (includes EOF mid-frame — a peer that
    /// closed the connection with a request in flight).
    Io(std::io::Error),
    /// The frame did not start with [`MAGIC`] — the peer is not speaking
    /// this protocol (or the stream lost sync).
    BadMagic([u8; 4]),
    /// The peer speaks a different protocol version.
    Version {
        /// Version in the received header.
        found: u16,
    },
    /// The frame kind byte is not one this build knows.
    UnknownKind(u8),
    /// The declared payload length exceeds [`MAX_PAYLOAD`].
    Oversized(u32),
    /// A frame of an unexpected kind arrived (protocol state violation —
    /// e.g. a tune reply inside a snapshot stream).
    Unexpected {
        /// The kind that arrived.
        found: FrameKind,
        /// What the state machine was waiting for.
        wanted: &'static str,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "socket error: {e}"),
            WireError::BadMagic(m) => write!(f, "bad magic {m:02x?} (not a SORL peer)"),
            WireError::Version { found } => write!(
                f,
                "peer speaks protocol version {found}, this build speaks {PROTOCOL_VERSION}"
            ),
            WireError::UnknownKind(b) => write!(f, "unknown frame kind {b:#04x}"),
            WireError::Oversized(len) => {
                write!(f, "frame payload of {len} bytes exceeds the {MAX_PAYLOAD}-byte cap")
            }
            WireError::Unexpected { found, wanted } => {
                write!(f, "unexpected {found:?} frame (wanted {wanted})")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e)
    }
}

impl From<WireError> for ServeError {
    fn from(e: WireError) -> Self {
        ServeError::Transport(e.to_string())
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the payload carries (and so how it is encoded).
    pub kind: FrameKind,
    /// The request this frame belongs to.
    pub request_id: u64,
    /// The trace the request belongs to; `0` means "absent", which the
    /// observability layer degrades to a fresh local trace.
    pub trace_id: u64,
    /// The frame body.
    pub payload: Vec<u8>,
}

/// Writes one frame: header and payload in one buffer, sent with one
/// `write_all`.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    request_id: u64,
    trace_id: u64,
    payload: &[u8],
) -> Result<(), WireError> {
    let len = u32::try_from(payload.len()).map_err(|_| WireError::Oversized(u32::MAX))?;
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let mut frame = Vec::with_capacity(HEADER_LEN + payload.len());
    frame.extend_from_slice(&MAGIC);
    frame.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
    // sorl-lint: allow(cast, "FrameKind is a unit enum with discriminants < 256")
    frame.push(kind as u8);
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&request_id.to_le_bytes());
    frame.extend_from_slice(&trace_id.to_le_bytes());
    frame.extend_from_slice(payload);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Waits for the next frame on a connection's buffered reader: blocks
/// until the frame's first byte arrives, then reads the whole frame.
///
/// `Ok(None)` means the read timed out before any byte of a frame: the
/// link is idle, which is healthy, and the caller checks whatever keeps
/// it alive and waits again. A hang-up, or a stall once a frame has
/// begun, is an error.
pub fn next_frame(r: &mut impl BufRead) -> Result<Option<Frame>, WireError> {
    match r.fill_buf() {
        Ok([]) => Err(WireError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed by peer",
        ))),
        Ok(_) => read_frame(r).map(Some),
        Err(e)
            if matches!(
                e.kind(),
                io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut | io::ErrorKind::Interrupted
            ) =>
        {
            Ok(None)
        }
        Err(e) => Err(WireError::Io(e)),
    }
}

/// Reads one frame, validating magic, version, kind and length.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    // Destructuring the fixed-size reads into named bytes keeps the whole
    // parse free of panicking indexing — the pattern *is* the bounds
    // proof. Magic and version are read and checked before the rest of
    // the header.
    let mut prefix = [0u8; 6];
    r.read_exact(&mut prefix)?;
    let [m0, m1, m2, m3, v0, v1] = prefix;
    let magic = [m0, m1, m2, m3];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = u16::from_le_bytes([v0, v1]);
    if version != PROTOCOL_VERSION {
        return Err(WireError::Version { found: version });
    }
    let mut rest = [0u8; HEADER_LEN - 6];
    r.read_exact(&mut rest)?;
    let [kind_b, l0, l1, l2, l3, i0, i1, i2, i3, i4, i5, i6, i7, t0, t1, t2, t3, t4, t5, t6, t7] =
        rest;
    let kind = FrameKind::from_byte(kind_b).ok_or(WireError::UnknownKind(kind_b))?;
    let len = u32::from_le_bytes([l0, l1, l2, l3]);
    if len > MAX_PAYLOAD {
        return Err(WireError::Oversized(len));
    }
    let request_id = u64::from_le_bytes([i0, i1, i2, i3, i4, i5, i6, i7]);
    let trace_id = u64::from_le_bytes([t0, t1, t2, t3, t4, t5, t6, t7]);
    let len = usize::try_from(len).map_err(|_| WireError::Oversized(u32::MAX))?;
    let mut payload = Vec::with_capacity(len.min(PAYLOAD_RESERVE));
    r.take(u64::try_from(len).unwrap_or(u64::MAX)).read_to_end(&mut payload)?;
    if payload.len() != len {
        return Err(WireError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("frame payload cut at {} of {len} bytes", payload.len()),
        )));
    }
    Ok(Frame { kind, request_id, trace_id, payload })
}

/// Parses a frame's JSON payload.
pub fn from_payload<T: serde::de::DeserializeOwned>(payload: &[u8]) -> Result<T, ServeError> {
    let text = std::str::from_utf8(payload)
        .map_err(|e| ServeError::Transport(format!("payload is not UTF-8: {e}")))?;
    serde_json::from_str(text)
        .map_err(|e| ServeError::Transport(format!("payload does not parse: {e}")))
}

/// Serializes a value into a JSON frame payload.
pub fn to_payload<T: Serialize>(value: &T) -> Vec<u8> {
    // sorl-lint: allow(panic, "serializing our own derive(Serialize) types cannot fail")
    serde_json::to_string(value).expect("wire value serializes").into_bytes()
}

// ---------------------------------------------------------------------------
// Snapshot streaming
// ---------------------------------------------------------------------------

/// The prologue of a chunked snapshot stream: everything a receiver needs
/// to validate the chunks that follow.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SnapshotHeader {
    /// Entry-layout version of the snapshot being shipped.
    pub format_version: u32,
    /// Fingerprint of the ranking function the decisions came from.
    pub ranker_fingerprint: u64,
    /// Total entries across all chunks.
    pub entries: usize,
    /// Number of chunks that follow.
    pub chunks: usize,
}

/// One checksummed slice of a chunked snapshot stream.
///
/// The payload is a binary chunk ([`bin::snapshot_to_chunks`]); the
/// checksum is FNV-1a ([`stencil_model::fingerprint::Fnv1a`] — pinned, so
/// sender and receiver agree across builds and hosts) over exactly those
/// payload bytes. A flipped bit anywhere in transit fails
/// [`verify`](Self::verify) deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotChunk {
    /// Position of this chunk in the stream (`0..header.chunks`).
    pub index: usize,
    /// FNV-1a digest of `payload`.
    pub checksum: u64,
    /// The binary chunk: `u32 entry count ‖ concatenated entries`.
    pub payload: Vec<u8>,
}

impl SnapshotChunk {
    /// Whether the payload still matches the stamped checksum.
    pub fn verify(&self) -> bool {
        Self::digest(&self.payload) == self.checksum
    }

    /// The pinned FNV-1a digest of a chunk payload.
    pub fn digest(payload: &[u8]) -> u64 {
        let mut h = stencil_model::fingerprint::Fnv1a::new();
        h.write_bytes(payload);
        h.finish()
    }
}

/// Streams a snapshot answering (or, for imports, opening) request
/// `request_id`: a JSON header frame, then binary chunk frames.
pub fn write_snapshot_stream(
    w: &mut impl Write,
    request_id: u64,
    snapshot: &sorl_serve::CacheSnapshot,
) -> Result<(), WireError> {
    let (header, chunks) = bin::snapshot_to_chunks(snapshot, CHUNK_ENTRIES);
    write_frame(w, FrameKind::SnapshotHeader, request_id, 0, &to_payload(&header))?;
    write_chunk_frames(w, request_id, &chunks)
}

/// Writes snapshot chunks as [`FrameKind::SnapshotChunk`] frames, each
/// `checksum (8 bytes LE) ‖ chunk bytes`. *The* one encoder of the chunk
/// frame layout — the import side of a transport sends its chunks through
/// here too, so the layout cannot fork between directions.
pub fn write_chunk_frames(
    w: &mut impl Write,
    request_id: u64,
    chunks: &[SnapshotChunk],
) -> Result<(), WireError> {
    for chunk in chunks {
        let mut payload = Vec::with_capacity(8 + chunk.payload.len());
        payload.extend_from_slice(&chunk.checksum.to_le_bytes());
        payload.extend_from_slice(&chunk.payload);
        write_frame(w, FrameKind::SnapshotChunk, request_id, 0, &payload)?;
    }
    Ok(())
}

/// Memory charged per buffered chunk on top of its payload bytes — see
/// [`read_snapshot_chunks`].
const CHUNK_CHARGE: usize = 64;

/// Reads the `header.chunks` chunk frames that follow a snapshot header of
/// stream `request_id` and reassembles the snapshot, verifying every chunk
/// checksum and the header's counts. The chunks are contiguous on the
/// wire, so every frame read must be a [`FrameKind::SnapshotChunk`] of
/// this stream with a `checksum (8 bytes LE) ‖ chunk bytes` payload; an
/// error frame of this stream ends it with the peer's fault instead. A
/// corrupted, torn or foreign stream yields `Err` without assembling
/// anything.
///
/// The header is peer-supplied and unverified: the chunk count, and the
/// memory accumulated as chunks arrive, are bounded so a rogue peer cannot
/// balloon the reassembly buffer one valid-sized frame at a time. Each
/// buffered chunk costs its payload bytes PLUS the `SnapshotChunk` struct
/// — charging only payload would let ~34M near-empty chunks through with
/// gigabytes of struct overhead, so every chunk is charged at least
/// `CHUNK_CHARGE`.
pub fn read_snapshot_chunks(
    r: &mut impl Read,
    header: SnapshotHeader,
    request_id: u64,
) -> Result<sorl_serve::CacheSnapshot, ServeError> {
    if header.chunks > MAX_SNAPSHOT_BYTES / CHUNK_CHARGE {
        return Err(ServeError::Transport(format!(
            "snapshot header claims {} chunks — over the stream bound",
            header.chunks
        )));
    }
    let mut chunks = Vec::with_capacity(header.chunks.min(1024));
    let mut total = 0usize;
    for index in 0..header.chunks {
        let frame = read_frame(r)?;
        if frame.request_id != request_id {
            return Err(ServeError::Transport(format!(
                "{:?} frame carries request id {} inside snapshot stream {request_id}",
                frame.kind, frame.request_id
            )));
        }
        match frame.kind {
            FrameKind::SnapshotChunk => {}
            FrameKind::Error => return Err(decode_fault(&frame.payload)),
            found => return Err(WireError::Unexpected { found, wanted: "snapshot chunk" }.into()),
        }
        let Some((checksum, body)) = frame.payload.split_first_chunk::<8>() else {
            return Err(ServeError::Transport(format!(
                "snapshot chunk {index} too short for its checksum"
            )));
        };
        total = total.saturating_add(frame.payload.len().max(CHUNK_CHARGE));
        if total > MAX_SNAPSHOT_BYTES {
            return Err(ServeError::Transport(format!(
                "snapshot stream exceeded {MAX_SNAPSHOT_BYTES} bytes at chunk {index}"
            )));
        }
        let checksum = u64::from_le_bytes(*checksum);
        chunks.push(SnapshotChunk { index, checksum, payload: body.to_vec() });
    }
    bin::snapshot_from_chunks(&header, &chunks).map_err(|e| match e {
        // Wire-level damage (flipped bits, torn stream) is a transport
        // failure; semantic snapshot problems keep their own variant.
        SnapshotError::ChunkChecksum { .. } | SnapshotError::Truncated { .. } => {
            ServeError::Transport(format!("snapshot stream rejected: {e}"))
        }
        other => ServeError::Snapshot(other),
    })
}

// ---------------------------------------------------------------------------
// Trace dumps
// ---------------------------------------------------------------------------

/// Payload of a [`FrameKind::TraceDump`] request: which trace to export.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TraceQuery {
    /// Raw trace id to filter the recorder export to; `0` means "the
    /// whole ring" (plus, either way, the resident exemplars).
    #[serde(default)]
    pub trace: u64,
}

/// Payload of a [`FrameKind::TraceDumpOk`] response: one process's
/// tracing evidence.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TraceDumpReply {
    /// The shard's flight-recorder export (filtered when the query asked
    /// for one trace), `source` set to the shard's listen address.
    pub dump: RecorderDump,
    /// The shard's resident slow-request exemplars, slowest first. Their
    /// event chains survive even after the ring overwrote the trace.
    pub exemplars: Vec<Exemplar>,
}

// ---------------------------------------------------------------------------
// Fault encoding
// ---------------------------------------------------------------------------

/// Flat wire encoding of a [`ServeError`]: a code string plus the numeric
/// context the richer variants carry, so the receiving side reconstructs
/// the exact variant (tests match on it; routers branch on it).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct WireFault {
    /// Which error: `closed`, `overloaded_queue`, `overloaded_latency`,
    /// `overloaded_link`, `snapshot_format`, `snapshot_ranker`,
    /// `snapshot_parse`, `snapshot_checksum`, `snapshot_truncated`,
    /// `transport`.
    pub code: String,
    /// Variant-specific numeric context (`found` value, chunk index).
    #[serde(default)]
    pub found: u64,
    /// Variant-specific numeric context (`expected` value).
    #[serde(default)]
    pub expected: u64,
    /// Human-readable detail (parse errors, transport messages, the
    /// `what` of a truncation).
    #[serde(default)]
    pub message: String,
}

/// Encodes a [`ServeError`] into an [`FrameKind::Error`] payload.
pub fn encode_fault(e: &ServeError) -> Vec<u8> {
    let fault = match e {
        ServeError::Closed => {
            WireFault { code: "closed".into(), found: 0, expected: 0, message: String::new() }
        }
        ServeError::Overloaded(reason) => WireFault {
            code: match reason {
                ShedReason::QueueFull => "overloaded_queue",
                ShedReason::BatchLatency => "overloaded_latency",
                ShedReason::LinkInFlight => "overloaded_link",
            }
            .into(),
            found: 0,
            expected: 0,
            message: String::new(),
        },
        ServeError::Snapshot(s) => match s {
            SnapshotError::FormatVersion { found, expected } => WireFault {
                code: "snapshot_format".into(),
                found: u64::from(*found),
                expected: u64::from(*expected),
                message: String::new(),
            },
            SnapshotError::RankerMismatch { found, expected } => WireFault {
                code: "snapshot_ranker".into(),
                found: *found,
                expected: *expected,
                message: String::new(),
            },
            SnapshotError::Parse(m) => WireFault {
                code: "snapshot_parse".into(),
                found: 0,
                expected: 0,
                message: m.clone(),
            },
            SnapshotError::ChunkChecksum { index } => WireFault {
                code: "snapshot_checksum".into(),
                found: u64::try_from(*index).unwrap_or(u64::MAX),
                expected: 0,
                message: String::new(),
            },
            SnapshotError::Truncated { what, found, expected } => WireFault {
                code: "snapshot_truncated".into(),
                found: u64::try_from(*found).unwrap_or(u64::MAX),
                expected: u64::try_from(*expected).unwrap_or(u64::MAX),
                message: (*what).to_string(),
            },
        },
        ServeError::Transport(m) => {
            WireFault { code: "transport".into(), found: 0, expected: 0, message: m.clone() }
        }
    };
    to_payload(&fault)
}

/// Decodes an [`FrameKind::Error`] payload back into a [`ServeError`].
pub fn decode_fault(payload: &[u8]) -> ServeError {
    let fault: WireFault = match from_payload(payload) {
        Ok(f) => f,
        Err(_) => return ServeError::Transport("peer sent an undecodable error frame".into()),
    };
    match fault.code.as_str() {
        "closed" => ServeError::Closed,
        "overloaded_queue" => ServeError::Overloaded(ShedReason::QueueFull),
        "overloaded_latency" => ServeError::Overloaded(ShedReason::BatchLatency),
        "overloaded_link" => ServeError::Overloaded(ShedReason::LinkInFlight),
        "snapshot_format" => ServeError::Snapshot(SnapshotError::FormatVersion {
            found: u32::try_from(fault.found).unwrap_or(u32::MAX),
            expected: u32::try_from(fault.expected).unwrap_or(u32::MAX),
        }),
        "snapshot_ranker" => ServeError::Snapshot(SnapshotError::RankerMismatch {
            found: fault.found,
            expected: fault.expected,
        }),
        "snapshot_parse" => ServeError::Snapshot(SnapshotError::Parse(fault.message)),
        "snapshot_checksum" => ServeError::Transport(format!(
            "remote rejected snapshot chunk {}: checksum mismatch",
            fault.found
        )),
        "snapshot_truncated" => ServeError::Transport(format!(
            "remote rejected torn snapshot stream: {} = {}, expected {}",
            fault.message, fault.found, fault.expected
        )),
        "transport" => ServeError::Transport(fault.message),
        other => ServeError::Transport(format!("peer sent unknown fault code {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorl_serve::CacheSnapshot;
    use stencil_model::{GridSize, TuningVector};

    /// Reads a whole snapshot stream: the header frame, then its chunks.
    fn read_snapshot_stream(r: &mut impl Read) -> Result<CacheSnapshot, ServeError> {
        let frame = read_frame(r)?;
        if frame.kind != FrameKind::SnapshotHeader {
            return Err(
                WireError::Unexpected { found: frame.kind, wanted: "snapshot header" }.into()
            );
        }
        read_snapshot_chunks(r, from_payload(&frame.payload)?, frame.request_id)
    }

    /// A one-decision snapshot built through the public cache API.
    fn one_entry_snapshot() -> CacheSnapshot {
        let mut cache = sorl_serve::DecisionCache::new(4);
        let instance = stencil_model::StencilInstance::new(
            stencil_model::StencilKernel::laplacian(),
            GridSize::cube(64),
        )
        .unwrap();
        cache.insert(instance.key(), vec![(TuningVector::new(8, 8, 8, 2, 1), 0.5)], 8640);
        cache.snapshot(7)
    }

    #[test]
    fn fault_counts_saturate_instead_of_truncating() {
        // Encode: usize counts ride the wire as u64 — a torn-stream
        // fault near usize::MAX must come out pinned at the type's max,
        // never wrapped to a small number.
        let torn = ServeError::Snapshot(SnapshotError::Truncated {
            what: "entries",
            found: usize::MAX,
            expected: 3,
        });
        let decoded = decode_fault(&encode_fault(&torn));
        match decoded {
            ServeError::Transport(m) => {
                assert!(m.contains(&u64::MAX.to_string()), "saturated count survives: {m}");
                assert!(m.contains("expected 3"), "small count is exact: {m}");
            }
            other => panic!("expected Transport, got {other:?}"),
        }

        // Decode: a peer claiming a format version beyond u32 must pin
        // to u32::MAX (a guaranteed mismatch), not truncate to a value
        // that could alias a *valid* local version.
        let fault = WireFault {
            code: "snapshot_format".into(),
            found: u64::from(u32::MAX) + 2, // would truncate to 1
            expected: 1,
            message: String::new(),
        };
        match decode_fault(&to_payload(&fault)) {
            ServeError::Snapshot(SnapshotError::FormatVersion { found, expected }) => {
                assert_eq!(found, u32::MAX);
                assert_eq!(expected, 1);
            }
            other => panic!("expected FormatVersion, got {other:?}"),
        }
    }

    #[test]
    fn frame_roundtrip_is_exact() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Tune, 0x0123_4567_89ab_cdef, 0xfeed_face, b"{\"k\":3}")
            .unwrap();
        write_frame(&mut buf, FrameKind::TuneOk, u64::MAX, 0, b"").unwrap();
        assert_eq!(buf.len(), 2 * HEADER_LEN + 7);
        let mut r = buf.as_slice();
        let frame = read_frame(&mut r).unwrap();
        assert_eq!(frame.kind, FrameKind::Tune);
        assert_eq!(frame.request_id, 0x0123_4567_89ab_cdef);
        assert_eq!(frame.trace_id, 0xfeed_face);
        assert_eq!(frame.payload, b"{\"k\":3}");
        let frame = read_frame(&mut r).unwrap();
        assert_eq!(
            (frame.kind, frame.request_id, frame.trace_id),
            (FrameKind::TuneOk, u64::MAX, 0)
        );
        assert!(frame.payload.is_empty());
        assert!(r.is_empty());
    }

    #[test]
    fn trace_dump_frames_roundtrip() {
        use sorl_obs::WireEvent;
        let query = TraceQuery { trace: 0xabcd };
        let reply = TraceDumpReply {
            dump: RecorderDump {
                source: "127.0.0.1:7000".into(),
                anchor_unix_ns: 1_700_000_000_000_000_000,
                recorded: 12,
                dropped: 0,
                events: vec![WireEvent {
                    ticket: 3,
                    t_unix_ns: 1_700_000_000_000_001_000,
                    trace: 0xabcd,
                    span: 9,
                    kind: 0,
                    name: "rpc_tune".into(),
                }],
            },
            exemplars: vec![sorl_serve::Exemplar {
                trace: 0xabcd,
                latency_us: 42_000,
                captured_unix_ns: 1_700_000_000_000_002_000,
                events: Vec::new(),
            }],
        };
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::TraceDump, 5, 0, &to_payload(&query)).unwrap();
        write_frame(&mut buf, FrameKind::TraceDumpOk, 5, 0, &to_payload(&reply)).unwrap();
        let mut r = buf.as_slice();
        let frame = read_frame(&mut r).unwrap();
        assert_eq!(frame.kind, FrameKind::TraceDump);
        assert_eq!(from_payload::<TraceQuery>(&frame.payload).unwrap(), query);
        let frame = read_frame(&mut r).unwrap();
        assert_eq!(frame.kind, FrameKind::TraceDumpOk);
        let back: TraceDumpReply = from_payload(&frame.payload).unwrap();
        assert_eq!(back.dump.source, "127.0.0.1:7000");
        assert_eq!(back.dump.events, reply.dump.events);
        assert_eq!(back.exemplars.len(), 1);
        assert_eq!(back.exemplars[0].latency_us, 42_000);
        assert!(r.is_empty());
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Stats, 1, 0, b"").unwrap();
        buf[0] = b'X';
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(WireError::BadMagic(_))));
    }

    #[test]
    fn wrong_version_is_rejected_before_the_rest_of_the_header() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Stats, 1, 0, b"").unwrap();
        buf[4..6].copy_from_slice(&99u16.to_le_bytes());
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(WireError::Version { found: 99 })));
        // Magic plus a foreign version is all a reader needs to fail: a
        // peer on another version may lay the rest of its header out
        // differently, so none of it is read.
        let mut prefix = MAGIC.to_vec();
        prefix.extend_from_slice(&4u16.to_le_bytes());
        let err = read_frame(&mut prefix.as_slice()).unwrap_err();
        assert!(matches!(err, WireError::Version { found: 4 }), "{err}");
        assert!(err.to_string().contains("version 4"), "{err}");
    }

    #[test]
    fn unknown_kind_and_oversized_length_are_rejected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, FrameKind::Stats, 1, 0, b"").unwrap();
        buf[6] = 0x7e;
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(WireError::UnknownKind(0x7e))));
        buf[6] = FrameKind::Stats as u8;
        buf[7..11].copy_from_slice(&(MAX_PAYLOAD + 1).to_le_bytes());
        assert!(matches!(read_frame(&mut buf.as_slice()), Err(WireError::Oversized(_))));
    }

    #[test]
    fn empty_snapshot_streams_roundtrip() {
        let snap = CacheSnapshot::empty(42);
        let mut buf = Vec::new();
        write_snapshot_stream(&mut buf, 3, &snap).unwrap();
        let back = read_snapshot_stream(&mut buf.as_slice()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn snapshot_streams_are_checked_against_their_request_id() {
        let snap = one_entry_snapshot();
        let mut buf = Vec::new();
        write_snapshot_stream(&mut buf, 55, &snap).unwrap();
        let mut r = buf.as_slice();
        let frame = read_frame(&mut r).unwrap();
        assert_eq!((frame.kind, frame.request_id), (FrameKind::SnapshotHeader, 55));
        let header: SnapshotHeader = from_payload(&frame.payload).unwrap();
        let back = read_snapshot_chunks(&mut r, header, 55).unwrap();
        assert_eq!(back, snap);

        // The same stream read under a different expected id is rejected
        // chunk by chunk.
        let mut r = buf.as_slice();
        let frame = read_frame(&mut r).unwrap();
        let header: SnapshotHeader = from_payload(&frame.payload).unwrap();
        let err = read_snapshot_chunks(&mut r, header, 56).unwrap_err();
        assert!(
            matches!(err, ServeError::Transport(ref m) if m.contains("request id 55")),
            "{err}"
        );
    }

    #[test]
    fn corrupted_chunk_byte_fails_the_stream() {
        let snap = one_entry_snapshot();
        let mut buf = Vec::new();
        write_snapshot_stream(&mut buf, 1, &snap).unwrap();
        // Flip a byte inside the chunk payload (past its header+checksum).
        let n = buf.len();
        buf[n - 3] ^= 0x20;
        let err = read_snapshot_stream(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::Transport(_)), "{err}");
    }

    #[test]
    fn faults_roundtrip_their_variant() {
        let faults = [
            ServeError::Closed,
            ServeError::Overloaded(ShedReason::QueueFull),
            ServeError::Overloaded(ShedReason::BatchLatency),
            ServeError::Overloaded(ShedReason::LinkInFlight),
            ServeError::Snapshot(SnapshotError::FormatVersion { found: 9, expected: 1 }),
            ServeError::Snapshot(SnapshotError::RankerMismatch { found: 1, expected: 2 }),
            ServeError::Snapshot(SnapshotError::Parse("bad".into())),
            ServeError::Transport("connection reset".into()),
        ];
        for fault in faults {
            assert_eq!(decode_fault(&encode_fault(&fault)), fault);
        }
        // Chunk damage decodes as Transport (a torn transfer, not a stale
        // snapshot) — the variant is not preserved, the rejection is.
        let e = decode_fault(&encode_fault(&ServeError::Snapshot(SnapshotError::ChunkChecksum {
            index: 3,
        })));
        assert!(matches!(e, ServeError::Transport(m) if m.contains("chunk 3")));
    }
}
