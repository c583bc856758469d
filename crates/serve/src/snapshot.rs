//! Durable decision-cache snapshots: the wire/disk format that makes a
//! tuning service restartable *warm* and lets shards ship cache slices to
//! each other on topology changes.
//!
//! A [`CacheSnapshot`] carries three things:
//!
//! * a **format version** ([`SNAPSHOT_FORMAT_VERSION`]) — bumped whenever
//!   the entry layout changes, so an old binary never misreads a new file,
//! * the **ranker fingerprint** the decisions were computed under
//!   ([`StencilRanker::fingerprint`](sorl::StencilRanker) — encoder config
//!   plus weight hash): cached decisions are *model outputs*, so a snapshot
//!   is only valid for the exact ranking function that produced it. Restoring
//!   under any other fingerprint is rejected with
//!   [`SnapshotError::RankerMismatch`] — a retrained model silently serving
//!   a predecessor's decisions would be a correctness bug, not a cache
//!   miss,
//! * the **entries**, each a cached top-k decision plus its LRU tick, in
//!   least-recently-used-first order so a restore replays them oldest
//!   first and the restored cache evicts in the same order the live one
//!   would have.
//!
//! The serialized form on disk is JSON (everything in the workspace
//! persists as JSON — rankers, perf snapshots). Over the wire the chunked
//! form is codec-generic: [`CacheSnapshot::to_chunks_with`] /
//! [`CacheSnapshot::from_chunks_with`] parameterize the per-entry
//! encoding while keeping chunk boundaries, checksumming and torn-transfer
//! validation identical — the shard transport's binary payload codec
//! (`sorl_shard::wire::bin`) plugs in there for every snapshot stream on
//! the wire.

use std::path::Path;

use serde::{Deserialize, Serialize};
use stencil_model::{InstanceKey, TuningVector};

/// Version of the snapshot entry layout. Bump on any incompatible change
/// to [`SnapshotEntry`] or [`CacheSnapshot`]; restores check it first.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

/// Byte budget at which [`CacheSnapshot::to_chunks`] closes a chunk even
/// below its entry-count limit. Far under any transport frame cap (the
/// TCP wire caps frames at 64 MiB), with one-entry chunks as the floor —
/// a single decision is bounded by the candidate-set size (≤ 8640
/// entries, well under a megabyte).
pub const CHUNK_BYTE_BUDGET: usize = 4 * 1024 * 1024;

/// One persisted decision: everything the cache knows about a key.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SnapshotEntry {
    /// Canonical instance identity.
    pub key: InstanceKey,
    /// Best-first `(tuning, score)` pairs, exactly as cached.
    pub entries: Vec<(TuningVector, f64)>,
    /// Size of the candidate set the entries were selected from.
    pub candidates: usize,
    /// The source cache's LRU tick at the entry's last use (snapshot
    /// entries are ordered by it; only the *order* survives a restore).
    pub last_used: u64,
}

/// A serializable image of a [`DecisionCache`](crate::DecisionCache),
/// versioned by the ranker that computed its decisions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheSnapshot {
    /// Entry-layout version ([`SNAPSHOT_FORMAT_VERSION`] at write time).
    pub format_version: u32,
    /// Fingerprint of the ranking function the decisions came from.
    pub ranker_fingerprint: u64,
    /// Cached decisions, least recently used first.
    pub entries: Vec<SnapshotEntry>,
}

impl CacheSnapshot {
    /// An empty snapshot for the given ranking function.
    pub fn empty(ranker_fingerprint: u64) -> Self {
        CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint,
            entries: Vec::new(),
        }
    }

    /// Number of persisted decisions.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot holds no decisions.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Splits the snapshot by a key-fingerprint predicate: entries whose
    /// [`InstanceKey::fingerprint`] satisfies `pred` stay, the rest are
    /// returned as a second snapshot (same version and ranker). This is
    /// how a router partitions a departing shard's cache among the
    /// remaining owners.
    pub fn split_off(&mut self, pred: impl Fn(u64) -> bool) -> CacheSnapshot {
        let mut other = CacheSnapshot::empty(self.ranker_fingerprint);
        other.format_version = self.format_version;
        let mut kept = Vec::with_capacity(self.entries.len());
        for e in self.entries.drain(..) {
            if pred(e.key.fingerprint()) {
                kept.push(e);
            } else {
                other.entries.push(e);
            }
        }
        self.entries = kept;
        other
    }

    /// Serializes the snapshot as pretty JSON.
    pub fn to_json(&self) -> String {
        // sorl-lint: allow(panic, "serializing our own derive(Serialize) types cannot fail")
        serde_json::to_string_pretty(self).expect("cache snapshot serializes")
    }

    /// Parses a snapshot serialized by [`to_json`](Self::to_json). The
    /// version and fingerprint checks happen at *restore* time, not here —
    /// parsing a stale snapshot is fine (a router may still inspect it).
    pub fn from_json(json: &str) -> Result<Self, SnapshotError> {
        serde_json::from_str(json).map_err(|e| SnapshotError::Parse(e.to_string()))
    }

    /// Writes the snapshot to `path` as JSON, **atomically**: the bytes go
    /// to a sibling temp file first (synced to disk before the rename), and
    /// only a complete file is renamed into place. A crash mid-write can
    /// leave a stray `*.tmp.*` sibling, never a torn snapshot at `path` —
    /// so the next warm start either sees the previous complete snapshot
    /// or the new one, nothing in between.
    pub fn save_json(&self, path: &Path) -> std::io::Result<()> {
        use std::io::Write;
        // Unique per process AND per call: two concurrent saves to the
        // same path must not share a temp file, or one could rename the
        // other's half-written bytes into place.
        static SAVE_SEQ: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        // sorl-lint: allow(atomic, "uniqueness comes from the atomic RMW itself; no other memory is published through this counter")
        let seq = SAVE_SEQ.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let mut file_name = path.file_name().unwrap_or_default().to_os_string();
        file_name.push(format!(".tmp.{}.{seq}", std::process::id()));
        let tmp = path.with_file_name(file_name);
        let result = (|| {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(self.to_json().as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, path)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp);
        }
        result
    }

    /// Loads a snapshot written by [`save_json`](Self::save_json).
    pub fn load_json(path: &Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        Self::from_json(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))
    }

    /// Splits the snapshot into a [`SnapshotHeader`] plus per-chunk
    /// checksummed [`SnapshotChunk`]s — the streaming wire format for
    /// shipping big caches: no single giant JSON string is materialized,
    /// and a receiver can verify each chunk independently before
    /// assembling anything.
    ///
    /// A chunk closes at `entries_per_chunk` entries *or* at
    /// [`CHUNK_BYTE_BUDGET`] serialized bytes, whichever comes first (one
    /// entry minimum) — entry counts alone would let a cache of deep
    /// top-k decisions produce a chunk bigger than a transport's frame
    /// cap, wedging cache shipping for that shard permanently.
    ///
    /// An empty snapshot yields zero chunks (the header alone carries the
    /// version and fingerprint). Reassemble with
    /// [`from_chunks`](Self::from_chunks).
    pub fn to_chunks(&self, entries_per_chunk: usize) -> (SnapshotHeader, Vec<SnapshotChunk>) {
        self.to_chunks_with(
            entries_per_chunk,
            |entry| {
                // sorl-lint: allow(panic, "serializing our own derive(Serialize) types cannot fail")
                serde_json::to_string(entry).expect("snapshot entry serializes").into_bytes()
            },
            seal_json_chunk,
        )
    }

    /// Codec-generic core of [`to_chunks`](Self::to_chunks): `render`
    /// serializes one entry, `seal` turns a chunk's rendered entries into
    /// one payload (the JSON path wraps them into a JSON array; a binary
    /// codec would count-prefix and concatenate). Chunk boundaries (the
    /// entry-count limit and [`CHUNK_BYTE_BUDGET`]) and checksumming are
    /// identical for every codec — the checksum is always the pinned
    /// FNV-1a over the sealed payload bytes, whatever the encoding.
    ///
    /// Each entry is rendered exactly once and peak memory is one chunk's
    /// worth of rendered entries, never the whole snapshot.
    pub fn to_chunks_with(
        &self,
        entries_per_chunk: usize,
        render: impl Fn(&SnapshotEntry) -> Vec<u8>,
        seal: impl Fn(&[Vec<u8>]) -> Vec<u8>,
    ) -> (SnapshotHeader, Vec<SnapshotChunk>) {
        let per = entries_per_chunk.max(1);
        let mut chunks: Vec<SnapshotChunk> = Vec::new();
        let mut pending: Vec<Vec<u8>> = Vec::new();
        let mut bytes = 0usize;
        for entry in &self.entries {
            let rendered = render(entry);
            if !pending.is_empty()
                && (pending.len() >= per || bytes + rendered.len() > CHUNK_BYTE_BUDGET)
            {
                close_chunk(&mut chunks, &mut pending, &seal);
                bytes = 0;
            }
            bytes += rendered.len();
            pending.push(rendered);
        }
        close_chunk(&mut chunks, &mut pending, &seal);
        let header = SnapshotHeader {
            format_version: self.format_version,
            ranker_fingerprint: self.ranker_fingerprint,
            entries: self.entries.len(),
            chunks: chunks.len(),
        };
        (header, chunks)
    }

    /// Reassembles a snapshot from a header and its chunks, verifying the
    /// transfer *before* constructing anything: the chunk count must match
    /// the header, the chunks must arrive in index order, every chunk's
    /// FNV-1a checksum must verify, and the total entry count must match
    /// the header. A torn or corrupted transfer is rejected
    /// deterministically ([`SnapshotError::ChunkChecksum`] /
    /// [`SnapshotError::Truncated`]) — never assembled partially.
    pub fn from_chunks(
        header: &SnapshotHeader,
        chunks: &[SnapshotChunk],
    ) -> Result<Self, SnapshotError> {
        Self::from_chunks_with(header, chunks, |i, payload| {
            let text = std::str::from_utf8(payload)
                .map_err(|e| SnapshotError::Parse(format!("chunk {i}: {e}")))?;
            serde_json::from_str(text).map_err(|e| SnapshotError::Parse(format!("chunk {i}: {e}")))
        })
    }

    /// Codec-generic core of [`from_chunks`](Self::from_chunks):
    /// `parse_chunk(index, payload)` decodes one verified chunk payload
    /// back into its entries. Count/order/checksum validation happens here,
    /// identically for every codec, *before* `parse_chunk` ever sees a
    /// byte — a decoder only runs on payloads whose FNV-1a digest checked
    /// out.
    pub fn from_chunks_with(
        header: &SnapshotHeader,
        chunks: &[SnapshotChunk],
        parse_chunk: impl Fn(usize, &[u8]) -> Result<Vec<SnapshotEntry>, SnapshotError>,
    ) -> Result<Self, SnapshotError> {
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
            entries.extend(parse_chunk(i, &chunk.payload)?);
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
}

/// Seals the pending entry renditions into one checksummed chunk.
fn close_chunk(
    chunks: &mut Vec<SnapshotChunk>,
    pending: &mut Vec<Vec<u8>>,
    seal: &impl Fn(&[Vec<u8>]) -> Vec<u8>,
) {
    if pending.is_empty() {
        return;
    }
    let payload = seal(pending);
    let checksum = SnapshotChunk::digest(&payload);
    chunks.push(SnapshotChunk { index: chunks.len(), checksum, payload });
    pending.clear();
}

/// The JSON chunk seal: joins the per-entry renditions into one JSON array
/// — byte-identical input to what `from_chunks` parses, without
/// re-serializing the entries.
fn seal_json_chunk(pending: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = pending.iter().map(|p| p.len()).sum();
    let mut payload = Vec::with_capacity(total + pending.len() + 1);
    payload.push(b'[');
    for (i, rendered) in pending.iter().enumerate() {
        if i > 0 {
            payload.push(b',');
        }
        payload.extend_from_slice(rendered);
    }
    payload.push(b']');
    payload
}

/// The fixed-size prologue of a chunked snapshot transfer: everything a
/// receiver needs to validate the stream that follows.
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

/// One checksummed slice of a chunked snapshot transfer.
///
/// The payload is the JSON serialization of a `Vec<SnapshotEntry>`; the
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
    /// JSON bytes of this chunk's `Vec<SnapshotEntry>`.
    pub payload: Vec<u8>,
}

impl SnapshotChunk {
    /// Serializes `entries` into a chunk, stamping the checksum.
    pub fn encode(index: usize, entries: &[SnapshotEntry]) -> Self {
        // sorl-lint: allow(panic, "serializing our own derive(Serialize) types cannot fail")
        let json = serde_json::to_string(entries).expect("snapshot entries serialize");
        let payload = json.into_bytes();
        let checksum = Self::digest(&payload);
        SnapshotChunk { index, checksum, payload }
    }

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

/// Why a snapshot could not be restored.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SnapshotError {
    /// The snapshot was written under a different entry layout.
    FormatVersion {
        /// Version found in the snapshot.
        found: u32,
        /// Version this binary writes and reads.
        expected: u32,
    },
    /// The snapshot's decisions came from a different ranking function.
    RankerMismatch {
        /// Fingerprint found in the snapshot.
        found: u64,
        /// Fingerprint of the live ranker.
        expected: u64,
    },
    /// The snapshot could not be parsed at all.
    Parse(String),
    /// A chunk of a chunked transfer failed its FNV-1a checksum — the
    /// bytes were corrupted in transit (or the stream was reassembled
    /// wrong). The whole transfer is rejected; nothing is applied.
    ChunkChecksum {
        /// Index of the failing chunk.
        index: usize,
    },
    /// A chunked transfer was torn: a count does not match its header
    /// (missing/extra chunks, out-of-order indices, or a wrong total
    /// entry count).
    Truncated {
        /// Which count mismatched (`"chunks"`, `"chunk index"`,
        /// `"entries"`).
        what: &'static str,
        /// The count observed.
        found: usize,
        /// The count the header promised.
        expected: usize,
    },
}

impl std::fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotError::FormatVersion { found, expected } => {
                write!(f, "snapshot format version {found} (this binary reads {expected})")
            }
            SnapshotError::RankerMismatch { found, expected } => write!(
                f,
                "snapshot was computed by ranker {found:#018x}, live ranker is {expected:#018x} \
                 — stale decisions rejected"
            ),
            SnapshotError::Parse(e) => write!(f, "snapshot does not parse: {e}"),
            SnapshotError::ChunkChecksum { index } => {
                write!(f, "snapshot chunk {index} failed its checksum — transfer corrupted")
            }
            SnapshotError::Truncated { what, found, expected } => {
                write!(f, "snapshot transfer torn: {what} = {found}, header promised {expected}")
            }
        }
    }
}

impl std::error::Error for SnapshotError {}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_model::{GridSize, StencilInstance, StencilKernel};

    fn entry(n: u32, last_used: u64) -> SnapshotEntry {
        let key =
            StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap().key();
        SnapshotEntry {
            key,
            entries: vec![(TuningVector::new(8, 8, 8, 2, 1), 0.5)],
            candidates: 8640,
            last_used,
        }
    }

    #[test]
    fn json_roundtrip_is_exact() {
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 0xdead_beef_cafe_f00d,
            entries: vec![entry(64, 3), entry(96, 7)],
        };
        let back = CacheSnapshot::from_json(&snap.to_json()).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn file_roundtrip() {
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 17,
            entries: vec![entry(128, 1)],
        };
        let dir = std::env::temp_dir().join("sorl-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        snap.save_json(&path).unwrap();
        assert_eq!(CacheSnapshot::load_json(&path).unwrap(), snap);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_does_not_parse() {
        assert!(matches!(CacheSnapshot::from_json("not json"), Err(SnapshotError::Parse(_))));
        assert!(CacheSnapshot::load_json(Path::new("/definitely/missing.json")).is_err());
    }

    #[test]
    fn split_off_partitions_by_key_fingerprint() {
        let mut snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 5,
            entries: vec![entry(64, 1), entry(96, 2), entry(128, 3)],
        };
        let keep_fp = snap.entries[1].key.fingerprint();
        let moved = snap.split_off(|fp| fp == keep_fp);
        assert_eq!(snap.len(), 1);
        assert_eq!(snap.entries[0].key.fingerprint(), keep_fp);
        assert_eq!(moved.len(), 2);
        assert_eq!(moved.ranker_fingerprint, 5);
        // Relative order preserved on both sides.
        assert!(moved.entries[0].last_used < moved.entries[1].last_used);
    }

    #[test]
    fn save_json_is_atomic_and_leaves_no_temp_behind() {
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 11,
            entries: vec![entry(64, 1), entry(96, 2)],
        };
        let dir = std::env::temp_dir().join("sorl-snapshot-atomic-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        // Seed the path with a previous (different) snapshot, then save
        // over it — the replacement must be complete and temp-free.
        CacheSnapshot::empty(11).save_json(&path).unwrap();
        snap.save_json(&path).unwrap();
        assert_eq!(CacheSnapshot::load_json(&path).unwrap(), snap);
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "temp files left behind: {leftovers:?}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_snapshot_file_is_rejected() {
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 3,
            entries: vec![entry(64, 1), entry(96, 2)],
        };
        let dir = std::env::temp_dir().join("sorl-snapshot-torn-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.json");
        snap.save_json(&path).unwrap();
        // Tear the file the way a crash mid-`std::fs::write` would have:
        // keep a prefix, drop the tail.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        let err = CacheSnapshot::load_json(&path).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_roundtrip_is_exact() {
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 0x1234_5678_9abc_def0,
            entries: vec![entry(64, 1), entry(96, 2), entry(128, 3), entry(160, 4), entry(192, 5)],
        };
        for per_chunk in [1, 2, 3, 5, 100] {
            let (header, chunks) = snap.to_chunks(per_chunk);
            assert_eq!(header.entries, 5);
            assert_eq!(header.chunks, chunks.len());
            assert_eq!(chunks.len(), 5usize.div_ceil(per_chunk));
            let back = CacheSnapshot::from_chunks(&header, &chunks).unwrap();
            assert_eq!(back, snap, "per_chunk={per_chunk}");
        }
    }

    #[test]
    fn chunking_splits_on_byte_budget_before_entry_count() {
        // Deep top-k decisions (the candidate-set-sized worst case) must
        // not produce chunks beyond the byte budget just because the
        // entry-count limit was not reached — an oversized chunk would
        // exceed a transport's frame cap and wedge cache shipping.
        let deep = |n: u32, last_used: u64| {
            let mut e = entry(n, last_used);
            e.entries = (0..8640u32)
                .map(|i| (TuningVector::new(8, 8, 8, i % 9, 1 + i % 4), -f64::from(i)))
                .collect();
            e
        };
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 21,
            entries: (0..12).map(|i| deep(64 + 8 * i, u64::from(i))).collect(),
        };
        let (header, chunks) = snap.to_chunks(256);
        assert!(chunks.len() > 1, "byte budget must split despite the 256-entry limit");
        for c in &chunks {
            assert!(
                c.payload.len() < 2 * CHUNK_BYTE_BUDGET,
                "chunk {} is {} bytes — way past the budget",
                c.index,
                c.payload.len()
            );
        }
        assert_eq!(CacheSnapshot::from_chunks(&header, &chunks).unwrap(), snap);
    }

    #[test]
    fn empty_snapshot_chunks_to_header_only() {
        let snap = CacheSnapshot::empty(9);
        let (header, chunks) = snap.to_chunks(64);
        assert_eq!(header.chunks, 0);
        assert!(chunks.is_empty());
        assert_eq!(CacheSnapshot::from_chunks(&header, &chunks).unwrap(), snap);
    }

    #[test]
    fn corrupted_chunk_is_rejected_by_checksum() {
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 7,
            entries: vec![entry(64, 1), entry(96, 2), entry(128, 3)],
        };
        let (header, mut chunks) = snap.to_chunks(1);
        // Flip one byte in the middle chunk's payload.
        let mid = chunks[1].payload.len() / 2;
        chunks[1].payload[mid] ^= 0x40;
        assert_eq!(
            CacheSnapshot::from_chunks(&header, &chunks),
            Err(SnapshotError::ChunkChecksum { index: 1 })
        );
    }

    #[test]
    fn torn_chunk_streams_are_rejected() {
        let snap = CacheSnapshot {
            format_version: SNAPSHOT_FORMAT_VERSION,
            ranker_fingerprint: 7,
            entries: vec![entry(64, 1), entry(96, 2), entry(128, 3)],
        };
        let (header, chunks) = snap.to_chunks(1);
        // Missing chunk.
        assert!(matches!(
            CacheSnapshot::from_chunks(&header, &chunks[..2]),
            Err(SnapshotError::Truncated { what: "chunks", .. })
        ));
        // Out-of-order chunks.
        let swapped = vec![chunks[1].clone(), chunks[0].clone(), chunks[2].clone()];
        assert!(matches!(
            CacheSnapshot::from_chunks(&header, &swapped),
            Err(SnapshotError::Truncated { what: "chunk index", .. })
        ));
        // Header promising more entries than the chunks carry.
        let mut lying = header;
        lying.entries = 99;
        assert!(matches!(
            CacheSnapshot::from_chunks(&lying, &chunks),
            Err(SnapshotError::Truncated { what: "entries", .. })
        ));
    }

    #[test]
    fn errors_render_their_context() {
        let e = SnapshotError::RankerMismatch { found: 1, expected: 2 };
        let s = e.to_string();
        assert!(s.contains("stale"), "{s}");
        let e = SnapshotError::FormatVersion { found: 9, expected: SNAPSHOT_FORMAT_VERSION };
        assert!(e.to_string().contains('9'));
    }
}
