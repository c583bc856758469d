//! Durable decision-cache snapshots: the image that makes a tuning
//! service restartable *warm* and lets shards ship cache slices to each
//! other on topology changes.
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
//! This module owns the one durable form: a JSON file (everything in the
//! workspace persists as JSON — rankers, perf snapshots), written
//! atomically by [`CacheSnapshot::save_json`]. Snapshots cross the wire
//! in the shard transport's binary chunk stream
//! (`sorl_shard::wire::bin::snapshot_to_chunks`), whose torn or corrupted
//! transfers are reported with this module's [`SnapshotError`] variants.

use std::path::Path;

use serde::{Deserialize, Serialize};
use stencil_model::{InstanceKey, TuningVector};

/// Version of the snapshot entry layout. Bump on any incompatible change
/// to [`SnapshotEntry`] or [`CacheSnapshot`]; restores check it first.
pub const SNAPSHOT_FORMAT_VERSION: u32 = 1;

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
    fn errors_render_their_context() {
        let e = SnapshotError::RankerMismatch { found: 1, expected: 2 };
        let s = e.to_string();
        assert!(s.contains("stale"), "{s}");
        let e = SnapshotError::FormatVersion { found: 9, expected: SNAPSHOT_FORMAT_VERSION };
        assert!(e.to_string().contains('9'));
    }
}
