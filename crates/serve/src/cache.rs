//! The decision cache: canonical instance identity → top-k tuning answer.
//!
//! Serving traffic is dominated by repeated and near-duplicate queries
//! (the same kernels at the same sizes, tuned again and again across a
//! fleet), so the single highest-leverage optimization of the serving
//! layer is to not rank at all: answers are memoized per
//! [`InstanceKey`] — the projection of an instance onto exactly the fields
//! the feature encoder reads, so two differently *named* but structurally
//! identical kernels share one entry.
//!
//! The cache stores the `k` best `(tuning, score)` pairs computed for a
//! key; a lookup asking for at most that many entries is a hit. Capacity
//! is bounded; eviction is least-recently-used: every access stamps a
//! monotonic (unique) tick, and a tick-ordered `BTreeMap` side index makes
//! finding the LRU victim `O(log n)` — at steady state (cache full, every
//! miss evicting) capacities "can be millions" without each insert paying
//! a full scan of the map. (Bench note: inserting 60k entries into a full
//! 20k-capacity cache runs in milliseconds with the index; the previous
//! `min_by_key` full scan was `O(capacity)` per insert — hundreds of
//! millions of map probes for the same workload — see
//! `full_capacity_inserts_do_not_scan_the_whole_map`.)
//!
//! The cache is also **durable**: [`DecisionCache::snapshot`] serializes
//! every resident decision (LRU-first, so order is canonical) into a
//! [`CacheSnapshot`] versioned by the ranker fingerprint, and
//! [`DecisionCache::restore`] replays one back — rejecting snapshots from
//! a different ranker or format version. [`DecisionCache::extract`] is the
//! sharding primitive: it *removes* the slice of decisions matching a
//! key-fingerprint predicate so ownership can move to another shard.

use std::collections::{BTreeMap, HashMap};

use stencil_model::{InstanceKey, TuningVector};

use crate::snapshot::{CacheSnapshot, SnapshotEntry, SnapshotError, SNAPSHOT_FORMAT_VERSION};

/// One cached answer.
#[derive(Debug, Clone)]
struct CachedDecision {
    /// Best-first `(tuning, score)` pairs; a prefix answers smaller `k`s.
    entries: Vec<(TuningVector, f64)>,
    /// Size of the candidate set the entries were selected from.
    candidates: usize,
    /// Tick of the most recent lookup or insertion (LRU ordering).
    last_used: u64,
}

/// A bounded LRU cache of top-k tuning decisions keyed by [`InstanceKey`].
///
/// No interior locking: a [`TuneService`](crate::TuneService) keeps it
/// behind one `Mutex`, which a submitting thread takes for its lookup,
/// the worker for each lookup and each insert, and each cache-control
/// call once. The service exposes its counters through
/// [`ServeStats`](crate::ServeStats).
#[derive(Debug)]
pub struct DecisionCache {
    map: HashMap<InstanceKey, CachedDecision>,
    /// LRU index: `last_used` tick → key. Ticks are unique (one monotonic
    /// counter, bumped on every lookup and insert), so the first entry is
    /// always *the* least recently used decision and eviction is
    /// `O(log n)` instead of a full scan of `map`. Invariant:
    /// `order.len() == map.len()` and every `(tick, key)` pair mirrors a
    /// `map[key].last_used == tick`.
    order: BTreeMap<u64, InstanceKey>,
    capacity: usize,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl DecisionCache {
    /// A cache holding at most `capacity` decisions (`0` disables caching:
    /// every lookup misses and insertions are dropped).
    pub fn new(capacity: usize) -> Self {
        DecisionCache {
            map: HashMap::with_capacity(capacity.min(4096)),
            order: BTreeMap::new(),
            capacity,
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Looks up the `k` best entries for `key`. A hit requires the cached
    /// decision to hold at least `min(k, candidates)` entries — a request
    /// for more alternatives than were ever computed is a miss and will be
    /// recomputed (and re-inserted) by the caller.
    pub fn lookup(
        &mut self,
        key: &InstanceKey,
        k: usize,
    ) -> Option<(Vec<(TuningVector, f64)>, usize)> {
        let hit = self.lookup_hit(key, k);
        self.misses += u64::from(hit.is_none());
        hit
    }

    /// Like [`lookup`](Self::lookup), but counts only a hit: a miss leaves
    /// the counters alone, for a caller that hands the key on to one that
    /// looks it up again (a service's submit path, ahead of its worker).
    pub fn lookup_hit(
        &mut self,
        key: &InstanceKey,
        k: usize,
    ) -> Option<(Vec<(TuningVector, f64)>, usize)> {
        self.tick += 1;
        let d = self.map.get_mut(key).filter(|d| d.entries.len() >= k.min(d.candidates))?;
        self.order.remove(&d.last_used);
        d.last_used = self.tick;
        self.order.insert(self.tick, key.clone());
        self.hits += 1;
        let n = k.min(d.entries.len());
        Some((d.entries.get(..n).unwrap_or_default().to_vec(), d.candidates))
    }

    /// Inserts (or replaces) the decision for `key`, evicting the least
    /// recently used entry when capacity is exceeded.
    pub fn insert(
        &mut self,
        key: InstanceKey,
        entries: Vec<(TuningVector, f64)>,
        candidates: usize,
    ) {
        if self.capacity == 0 {
            return;
        }
        self.tick += 1;
        let fresh = CachedDecision { entries, candidates, last_used: self.tick };
        let replaced = self.map.insert(key.clone(), fresh);
        if let Some(old) = &replaced {
            self.order.remove(&old.last_used);
        }
        self.order.insert(self.tick, key);
        if replaced.is_none() && self.map.len() > self.capacity {
            // O(log n) eviction: the index's first entry is the LRU victim
            // (ticks are unique, so "smallest tick" is exactly what the old
            // full `min_by_key` scan computed).
            // sorl-lint: allow(panic, "len > capacity >= 0 on this branch, so the order index is non-empty")
            let (_, lru) = self.order.pop_first().expect("cache over capacity is non-empty");
            self.map.remove(&lru);
            self.evictions += 1;
        }
        debug_assert_eq!(self.order.len(), self.map.len());
    }

    /// Number of resident decisions.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Lookups that were answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that fell through to the pipeline.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries displaced by capacity pressure.
    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    /// Drops every resident decision (counters are kept).
    pub fn clear(&mut self) {
        self.map.clear();
        self.order.clear();
    }

    /// Serializes every resident decision into a [`CacheSnapshot`] stamped
    /// with `ranker_fingerprint`. Entries are ordered least recently used
    /// first, so the snapshot of a given cache state is canonical
    /// (bit-for-bit reproducible) and a restore replays accesses in the
    /// order the live cache saw them.
    pub fn snapshot(&self, ranker_fingerprint: u64) -> CacheSnapshot {
        self.snapshot_filtered(ranker_fingerprint, |_| true)
    }

    /// Like [`snapshot`](Self::snapshot), but only for keys whose
    /// [`InstanceKey::fingerprint`] satisfies `pred` — the slice a shard
    /// exports when another shard becomes a key range's owner.
    pub fn snapshot_filtered(
        &self,
        ranker_fingerprint: u64,
        pred: impl Fn(u64) -> bool,
    ) -> CacheSnapshot {
        let mut snap = CacheSnapshot::empty(ranker_fingerprint);
        // The LRU index is already tick-ordered, so walking it yields the
        // canonical least-recently-used-first order without a sort.
        for (&tick, key) in &self.order {
            if pred(key.fingerprint()) {
                // The LRU index and the map always hold the same keys.
                let Some(d) = self.map.get(key) else { continue };
                debug_assert_eq!(d.last_used, tick);
                snap.entries.push(SnapshotEntry {
                    key: key.clone(),
                    entries: d.entries.clone(),
                    candidates: d.candidates,
                    last_used: d.last_used,
                });
            }
        }
        snap
    }

    /// Removes the decisions matching a key-fingerprint predicate and
    /// returns them as a snapshot (LRU-first, like
    /// [`snapshot`](Self::snapshot)). Counters are untouched — a topology
    /// change is not an eviction. `pred` runs before anything is removed,
    /// so a panicking predicate leaves the cache as it was.
    pub fn extract(
        &mut self,
        ranker_fingerprint: u64,
        pred: impl Fn(u64) -> bool,
    ) -> CacheSnapshot {
        let snap = self.snapshot_filtered(ranker_fingerprint, pred);
        for e in &snap.entries {
            self.map.remove(&e.key);
            self.order.remove(&e.last_used);
        }
        snap
    }

    /// Replays a snapshot into the cache, merging with whatever is already
    /// resident (snapshot entries replace same-key residents and count as
    /// the most recent accesses, in the snapshot's LRU order). Capacity
    /// still applies — restoring into a smaller cache keeps the most
    /// recently used tail.
    ///
    /// The snapshot must carry the current [`SNAPSHOT_FORMAT_VERSION`] and
    /// the exact `expected_fingerprint` of the live ranker; anything else
    /// is rejected *before* any entry is touched, leaving the cache as it
    /// was. Returns the number of entries applied — at most `capacity`;
    /// the least-recently-used overflow of an oversized snapshot is
    /// skipped, not replayed-then-evicted.
    pub fn restore(
        &mut self,
        snapshot: &CacheSnapshot,
        expected_fingerprint: u64,
    ) -> Result<usize, SnapshotError> {
        if snapshot.format_version != SNAPSHOT_FORMAT_VERSION {
            return Err(SnapshotError::FormatVersion {
                found: snapshot.format_version,
                expected: SNAPSHOT_FORMAT_VERSION,
            });
        }
        if snapshot.ranker_fingerprint != expected_fingerprint {
            return Err(SnapshotError::RankerMismatch {
                found: snapshot.ranker_fingerprint,
                expected: expected_fingerprint,
            });
        }
        if self.capacity == 0 {
            return Ok(0);
        }
        // Replay oldest-first so relative recency survives: the snapshot's
        // most recently used entry ends up the restored cache's most
        // recently used too (`insert` stamps a fresh tick per entry). Only
        // the most recently used `capacity` entries could survive the
        // replay anyway, so the prefix that would immediately self-evict
        // is skipped — it must count neither as applied nor as evictions
        // (a warm-up into a smaller cache is not cache pressure).
        let mut ordered: Vec<&SnapshotEntry> = snapshot.entries.iter().collect();
        ordered.sort_by_key(|e| e.last_used);
        let skip = ordered.len().saturating_sub(self.capacity);
        for e in ordered.iter().skip(skip) {
            self.insert(e.key.clone(), e.entries.clone(), e.candidates);
        }
        Ok(ordered.len() - skip)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use stencil_model::{GridSize, StencilInstance, StencilKernel};

    fn key(n: u32) -> InstanceKey {
        StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap().key()
    }

    fn entries(n: usize) -> Vec<(TuningVector, f64)> {
        (0..n).map(|i| (TuningVector::new(8, 8, 8, i as u32 % 9, 1), -(i as f64))).collect()
    }

    #[test]
    fn lookup_hits_any_k_up_to_the_stored_depth() {
        let mut c = DecisionCache::new(8);
        assert!(c.lookup(&key(64), 1).is_none());
        c.insert(key(64), entries(5), 8640);
        for k in 0..=5 {
            let (got, candidates) = c.lookup(&key(64), k).expect("hit");
            assert_eq!(got.len(), k);
            assert_eq!(candidates, 8640);
            assert_eq!(got[..], entries(5)[..k]);
        }
        // Deeper than stored: miss (caller recomputes and re-inserts).
        assert!(c.lookup(&key(64), 6).is_none());
        c.insert(key(64), entries(10), 8640);
        assert_eq!(c.lookup(&key(64), 6).unwrap().0.len(), 6);
        assert_eq!(c.len(), 1, "replacement, not duplication");
        assert_eq!(c.hits(), 7);
        assert_eq!(c.misses(), 2);
    }

    #[test]
    fn k_beyond_the_candidate_set_still_hits() {
        // A 2-candidate space can only ever yield 2 entries; asking for 10
        // must hit (there is nothing more to compute).
        let mut c = DecisionCache::new(4);
        c.insert(key(64), entries(2), 2);
        let (got, _) = c.lookup(&key(64), 10).expect("hit");
        assert_eq!(got.len(), 2);
    }

    #[test]
    fn lru_eviction_keeps_recently_used_keys() {
        let mut c = DecisionCache::new(2);
        c.insert(key(32), entries(1), 8640);
        c.insert(key(48), entries(1), 8640);
        // Touch 32 so 48 becomes the LRU victim.
        assert!(c.lookup(&key(32), 1).is_some());
        c.insert(key(64), entries(1), 8640);
        assert_eq!(c.len(), 2);
        assert_eq!(c.evictions(), 1);
        assert!(c.lookup(&key(32), 1).is_some());
        assert!(c.lookup(&key(48), 1).is_none(), "LRU entry evicted");
        assert!(c.lookup(&key(64), 1).is_some());
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let mut c = DecisionCache::new(0);
        c.insert(key(64), entries(3), 8640);
        assert!(c.is_empty());
        assert!(c.lookup(&key(64), 1).is_none());
        assert_eq!(c.capacity(), 0);
    }

    #[test]
    fn snapshot_restore_preserves_decisions_and_lru_order() {
        const FP: u64 = 0xabcd;
        let mut c = DecisionCache::new(8);
        c.insert(key(32), entries(2), 8640);
        c.insert(key(48), entries(3), 8640);
        c.insert(key(64), entries(1), 8640);
        // Touch 32 so the LRU order is 48 < 64 < 32.
        assert!(c.lookup(&key(32), 1).is_some());
        let snap = c.snapshot(FP);
        assert_eq!(snap.len(), 3);
        assert_eq!(snap.entries[0].key, key(48), "least recently used first");
        assert_eq!(snap.entries[2].key, key(32));

        let mut restored = DecisionCache::new(8);
        assert_eq!(restored.restore(&snap, FP), Ok(3));
        for (k, n) in [(key(32), 2), (key(48), 3), (key(64), 1)] {
            let (got, candidates) = restored.lookup(&k, n).expect("restored entry hits");
            assert_eq!(got, entries(n)[..], "entries are bit-for-bit");
            assert_eq!(candidates, 8640);
        }
        // LRU order survived: with capacity 3, inserting one more must
        // evict 48 (the snapshot's least recently used), not 32.
        let mut tight = DecisionCache::new(3);
        tight.restore(&snap, FP).unwrap();
        tight.insert(key(96), entries(1), 8640);
        assert!(tight.lookup(&key(48), 1).is_none(), "snapshot LRU entry evicted first");
        assert!(tight.lookup(&key(32), 1).is_some());
    }

    #[test]
    fn snapshot_of_a_cache_state_is_canonical() {
        // Two caches that went through the same access history serialize
        // to the same JSON, regardless of hash-map iteration order.
        let build = || {
            let mut c = DecisionCache::new(8);
            for n in [32u32, 48, 64, 80, 96] {
                c.insert(key(n), entries(2), 8640);
            }
            c.lookup(&key(48), 1);
            c
        };
        assert_eq!(build().snapshot(7).to_json(), build().snapshot(7).to_json());
    }

    #[test]
    fn restore_rejects_stale_fingerprints_and_versions_untouched() {
        const FP: u64 = 1;
        let mut src = DecisionCache::new(8);
        src.insert(key(64), entries(2), 8640);
        let mut snap = src.snapshot(FP);

        let mut c = DecisionCache::new(8);
        c.insert(key(32), entries(1), 8640);
        assert_eq!(
            c.restore(&snap, 2),
            Err(SnapshotError::RankerMismatch { found: 1, expected: 2 })
        );
        snap.format_version = SNAPSHOT_FORMAT_VERSION + 1;
        assert_eq!(
            c.restore(&snap, FP),
            Err(SnapshotError::FormatVersion {
                found: SNAPSHOT_FORMAT_VERSION + 1,
                expected: SNAPSHOT_FORMAT_VERSION
            })
        );
        // Both rejections left the cache exactly as it was.
        assert_eq!(c.len(), 1);
        assert!(c.lookup(&key(32), 1).is_some());
        assert!(c.lookup(&key(64), 1).is_none());
    }

    #[test]
    fn restore_into_a_smaller_cache_keeps_the_mru_tail_without_fake_evictions() {
        const FP: u64 = 3;
        let mut src = DecisionCache::new(16);
        for n in [32u32, 48, 64, 80, 96] {
            src.insert(key(n), entries(1), 8640);
        }
        // Touch 32 so the MRU tail is {80, 96, 32}.
        src.lookup(&key(32), 1);
        let snap = src.snapshot(FP);

        let mut small = DecisionCache::new(3);
        assert_eq!(small.restore(&snap, FP), Ok(3), "only what fits counts as applied");
        assert_eq!(small.len(), 3);
        assert_eq!(small.evictions(), 0, "skipping the overflow is not eviction pressure");
        for n in [80u32, 96, 32] {
            assert!(small.lookup(&key(n), 1).is_some(), "MRU entry {n} survived");
        }
        for n in [48u32, 64] {
            assert!(small.lookup(&key(n), 1).is_none(), "LRU overflow {n} skipped");
        }
    }

    #[test]
    fn restore_into_zero_capacity_applies_nothing() {
        let mut src = DecisionCache::new(4);
        src.insert(key(64), entries(1), 8640);
        let snap = src.snapshot(0);
        let mut c = DecisionCache::new(0);
        assert_eq!(c.restore(&snap, 0), Ok(0));
        assert!(c.is_empty());
    }

    #[test]
    fn extract_moves_a_fingerprint_slice_out() {
        let mut c = DecisionCache::new(8);
        for n in [32u32, 48, 64] {
            c.insert(key(n), entries(1), 8640);
        }
        let moving = key(48).fingerprint();
        let slice = c.extract(9, |fp| fp == moving);
        assert_eq!(slice.len(), 1);
        assert_eq!(slice.entries[0].key, key(48));
        assert_eq!(c.len(), 2, "extracted entries left the cache");
        assert_eq!(c.evictions(), 0, "a topology change is not an eviction");
        // The slice restores into another cache (the receiving shard).
        let mut other = DecisionCache::new(8);
        other.restore(&slice, 9).unwrap();
        assert!(other.lookup(&key(48), 1).is_some());
    }

    #[test]
    fn eviction_order_survives_interleaved_replacements_and_extracts() {
        // Replacements and extracts must keep the LRU side index exact:
        // after any interleaving, eviction still removes the entry with the
        // oldest access, never a stale index victim.
        let mut c = DecisionCache::new(3);
        c.insert(key(32), entries(1), 8640);
        c.insert(key(48), entries(1), 8640);
        c.insert(key(64), entries(1), 8640);
        // Replace 32 (now MRU), extract 64, then fill back up.
        c.insert(key(32), entries(2), 8640);
        let gone = key(64).fingerprint();
        assert_eq!(c.extract(1, |fp| fp == gone).len(), 1);
        c.insert(key(80), entries(1), 8640);
        assert_eq!(c.len(), 3);
        // LRU order is now 48 < 32 < 80: one more insert evicts 48.
        c.insert(key(96), entries(1), 8640);
        assert_eq!(c.evictions(), 1);
        assert!(c.lookup(&key(48), 1).is_none(), "oldest access evicted");
        assert!(c.lookup(&key(32), 2).is_some(), "replacement refreshed recency");
        assert!(c.lookup(&key(80), 1).is_some());
        assert!(c.lookup(&key(96), 1).is_some());
    }

    #[test]
    fn full_capacity_inserts_do_not_scan_the_whole_map() {
        // Micro-assert for the steady-state insert cost: 40k inserts into
        // a full 20k-entry cache (40k victim selections in total, counting
        // the fill) finish in well under the bound even in debug builds.
        // The previous full-scan eviction (`min_by_key` over the map) paid
        // O(capacity) per insert — ~400M map probes for this workload,
        // minutes in a debug build — so a generous wall-clock bound cleanly
        // separates the two implementations without being machine-picky.
        const CAPACITY: usize = 20_000;
        const INSERTS: u32 = 60_000;
        let mut c = DecisionCache::new(CAPACITY);
        let started = std::time::Instant::now();
        for n in 0..INSERTS {
            c.insert(key(8 + n), entries(1), 8640);
        }
        let elapsed = started.elapsed();
        assert_eq!(c.len(), CAPACITY);
        assert_eq!(c.evictions() as usize, INSERTS as usize - CAPACITY);
        assert!(
            elapsed < std::time::Duration::from_secs(30),
            "steady-state inserts took {elapsed:?} — eviction is scanning again"
        );
    }

    #[test]
    fn clear_drops_entries_but_keeps_counters() {
        let mut c = DecisionCache::new(4);
        c.insert(key(64), entries(1), 8640);
        assert!(c.lookup(&key(64), 1).is_some());
        c.clear();
        assert!(c.is_empty());
        assert_eq!(c.hits(), 1);
        assert!(c.lookup(&key(64), 1).is_none());
    }
}
