//! The shard router: deterministic query routing plus cache warm-up
//! shipping on topology changes.

use sorl::tuner::TopK;
use sorl_obs::{assemble, RecorderDump, TraceId, Waterfall};
use sorl_serve::{Exemplar, ServeError, ServeStats};
use stencil_model::{InstanceKey, StencilInstance};

use crate::routing::{CacheSlice, Topology};
use crate::transport::ShardTransport;
use crate::wire::TraceDumpReply;

/// Why a fleet operation failed.
#[derive(Debug)]
pub enum ShardError {
    /// The router has no shards to route to.
    NoShards,
    /// The named shard is not part of the fleet.
    UnknownShard(String),
    /// A shard with this id is already attached.
    DuplicateShard(String),
    /// A joining shard serves a different ranking function than the
    /// fleet. Decisions must be interchangeable across shards, so this is
    /// a deployment error, not a warning.
    RankerMismatch {
        /// The joining shard.
        shard: String,
        /// Its ranker fingerprint.
        found: u64,
        /// The fleet's ranker fingerprint.
        expected: u64,
    },
    /// A transport call to a shard failed.
    Transport {
        /// The shard the call went to.
        shard: String,
        /// The underlying error.
        source: ServeError,
    },
}

impl std::fmt::Display for ShardError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShardError::NoShards => write!(f, "router has no shards"),
            ShardError::UnknownShard(id) => write!(f, "no shard named {id:?}"),
            ShardError::DuplicateShard(id) => write!(f, "shard {id:?} already attached"),
            ShardError::RankerMismatch { shard, found, expected } => write!(
                f,
                "shard {shard:?} serves ranker {found:#018x}, fleet serves {expected:#018x}"
            ),
            ShardError::Transport { shard, source } => {
                write!(f, "transport to shard {shard:?} failed: {source}")
            }
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ShardError::Transport { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// A fleet-wide stats sweep ([`ShardRouter::fleet_stats`]): every shard's
/// counters plus their merge. Unreachable shards keep their error in
/// `per_shard` and simply contribute nothing to `merged` — a stats sweep
/// never fails the fleet.
#[derive(Debug, Clone)]
pub struct FleetStats {
    /// All reachable shards' counters summed ([`ServeStats::merge`]:
    /// counters and histograms add, `max_batch` takes the max, latency
    /// percentiles are recomputed from the summed histogram).
    pub merged: ServeStats,
    /// Per-shard counters, id-sorted; errors are per-shard, not fatal.
    pub per_shard: Vec<(String, Result<ServeStats, ServeError>)>,
}

impl FleetStats {
    /// How many shards answered the sweep.
    pub fn reachable(&self) -> usize {
        self.per_shard.iter().filter(|(_, r)| r.is_ok()).count()
    }

    /// The spread between the best and worst per-shard cache hit rate
    /// (0.0 for a uniform — or empty — fleet). A large skew means the
    /// keyspace is hot-spotting: some shards answer from cache while
    /// others recompute.
    pub fn hit_rate_skew(&self) -> f64 {
        let rates: Vec<f64> = self
            .per_shard
            .iter()
            .filter_map(|(_, r)| r.as_ref().ok())
            .filter(|s| s.cache_hits + s.cache_misses > 0)
            .map(|s| s.cache_hits as f64 / (s.cache_hits + s.cache_misses) as f64)
            .collect();
        let max = rates.iter().copied().fold(f64::NAN, f64::max);
        let min = rates.iter().copied().fold(f64::NAN, f64::min);
        if max.is_nan() || min.is_nan() {
            0.0
        } else {
            max - min
        }
    }

    /// A one-line-per-shard text table (plus a totals row) — what
    /// `sorl-top` and the demo binaries print.
    pub fn summary_table(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<16} {:>9} {:>8} {:>7} {:>6} {:>6} {:>10}",
            "shard", "requests", "hit-rate", "queue", "shed", "cache", "p99"
        );
        let row = |out: &mut String, id: &str, s: &ServeStats| {
            let lookups = s.cache_hits + s.cache_misses;
            let hit_rate = if lookups == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", 100.0 * s.cache_hits as f64 / lookups as f64)
            };
            let _ = writeln!(
                out,
                "{:<16} {:>9} {:>8} {:>7} {:>6} {:>6} {:>9.1}ms",
                id,
                s.requests,
                hit_rate,
                s.queue_depth,
                s.shed_queue + s.shed_latency,
                s.cache_entries,
                s.batch_latency_p99_s * 1e3,
            );
        };
        for (id, stats) in &self.per_shard {
            match stats {
                Ok(s) => row(&mut out, id, s),
                Err(e) => {
                    let _ = writeln!(out, "{id:<16} unreachable: {e}");
                }
            }
        }
        row(&mut out, "TOTAL", &self.merged);
        out
    }
}

/// A fleet-wide flight-recorder sweep ([`ShardRouter::fleet_trace`]):
/// every shard's recorder dump — optionally filtered to one trace — plus
/// its resident slow-request exemplars. Like a stats sweep, unreachable
/// shards keep their error in `per_shard` and the sweep never fails the
/// fleet: a waterfall assembled from the survivors is still evidence.
#[derive(Debug)]
pub struct FleetTrace {
    /// The trace the sweep filtered to (`None` = whole rings).
    pub trace: Option<TraceId>,
    /// Per-shard dumps, id-sorted; errors are per-shard, not fatal.
    pub per_shard: Vec<(String, Result<TraceDumpReply, ServeError>)>,
}

impl FleetTrace {
    /// How many shards answered the sweep.
    pub fn reachable(&self) -> usize {
        self.per_shard.iter().filter(|(_, r)| r.is_ok()).count()
    }

    /// Every reachable shard's recorder dump, in sweep order.
    pub fn dumps(&self) -> Vec<&RecorderDump> {
        self.per_shard.iter().filter_map(|(_, r)| r.as_ref().ok()).map(|r| &r.dump).collect()
    }

    /// Every reachable shard's resident exemplars, slowest first, tagged
    /// with the shard id they live on.
    pub fn exemplars(&self) -> Vec<(&str, &Exemplar)> {
        let mut out: Vec<(&str, &Exemplar)> = self
            .per_shard
            .iter()
            .filter_map(|(id, r)| r.as_ref().ok().map(|reply| (id, reply)))
            .flat_map(|(id, reply)| reply.exemplars.iter().map(move |e| (id.as_str(), e)))
            .collect();
        out.sort_by_key(|e| std::cmp::Reverse(e.1.latency_us));
        out
    }

    /// Assembles the sweep into one waterfall for `trace`. `client_dumps`
    /// go first, so a client-side request span (when present) anchors the
    /// fleet clock — see [`sorl_obs::assemble()`] for the alignment rules.
    pub fn assemble(&self, trace: TraceId, client_dumps: &[RecorderDump]) -> Waterfall {
        let mut dumps: Vec<RecorderDump> = client_dumps.to_vec();
        dumps.extend(self.dumps().into_iter().cloned());
        assemble(trace, &dumps)
    }
}

/// What a topology change shipped between caches.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WarmupReport {
    /// Decisions applied to their new owner's cache.
    pub shipped: usize,
    /// Decisions the new owner rejected (stale ranker fingerprint or
    /// format) or, on a graceful removal, could not receive (unreachable
    /// survivor) — they are dropped and recomputed on demand.
    pub rejected: usize,
    /// Decisions that exceeded the new owner's cache capacity — the LRU
    /// overflow of an oversized handoff, dropped (not resident anywhere)
    /// and recomputed on demand.
    pub dropped: usize,
}

struct ShardEntry {
    id: String,
    /// The id's pinned routing seed ([`crate::routing::shard_seed`]),
    /// computed once at attach so the per-query hot path never re-hashes
    /// id strings.
    seed: u64,
    transport: Box<dyn ShardTransport>,
}

/// Routes tuning queries over a fleet of shards by rendezvous hashing of
/// [`InstanceKey::fingerprint`], shipping warm cache slices when the
/// topology changes.
///
/// Routing is a pure function of `(key fingerprint, shard id set)` — see
/// [`Topology`] — so any number of router instances (in any process)
/// agree on ownership without coordination. The router's own value-add is
/// *liveness*: it holds the transports, enforces that every shard serves
/// the same ranking function, and on [`add_shard`](Self::add_shard) /
/// [`remove_shard`](Self::remove_shard) moves exactly the decision-cache
/// entries whose ownership changed (an expected `1/N` fraction — the
/// property tests pin `< 2/N`).
pub struct ShardRouter {
    shards: Vec<ShardEntry>,
}

impl ShardRouter {
    /// An empty router (attach shards with [`add_shard`](Self::add_shard)).
    pub fn new() -> Self {
        ShardRouter { shards: Vec::new() }
    }

    /// Number of attached shards.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether no shard is attached.
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// The attached shard ids, sorted.
    pub fn shard_ids(&self) -> Vec<&str> {
        self.shards.iter().map(|s| s.id.as_str()).collect()
    }

    /// The current routing topology (plain data — shippable to any other
    /// process that needs to agree on ownership).
    pub fn topology(&self) -> Topology {
        Topology::new(self.shards.iter().map(|s| s.id.clone()))
    }

    /// The shard that owns `key` (`None` with no shards attached).
    pub fn owner_of(&self, key: &InstanceKey) -> Option<&str> {
        let i = self.owner_index(key.fingerprint())?;
        self.shards.get(i).map(|s| s.id.as_str())
    }

    /// Routes one tuning query to its owning shard.
    pub fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ShardError> {
        let fp = instance.key().fingerprint();
        let i = self.owner_index(fp).ok_or(ShardError::NoShards)?;
        let shard = self.shards.get(i).ok_or(ShardError::NoShards)?;
        shard
            .transport
            .tune(instance, k)
            .map_err(|source| ShardError::Transport { shard: shard.id.clone(), source })
    }

    /// Per-shard serving counters (id-sorted, one entry per shard).
    pub fn stats(&self) -> Vec<(String, Result<ServeStats, ServeError>)> {
        self.shards.iter().map(|s| (s.id.clone(), s.transport.stats())).collect()
    }

    /// Sweeps [`stats`](Self::stats) across the fleet and merges every
    /// reachable shard's counters into one fleet-wide [`FleetStats`] view
    /// (hit-rate skew, queue depths, shed totals, true fleet latency
    /// percentiles recomputed from the summed histogram).
    pub fn fleet_stats(&self) -> FleetStats {
        let per_shard = self.stats();
        let merged = ServeStats::merge(per_shard.iter().filter_map(|(_, r)| r.as_ref().ok()));
        FleetStats { merged, per_shard }
    }

    /// Sweeps every shard's flight recorder (and exemplar store),
    /// optionally filtered to one trace — the gather half of fleet trace
    /// assembly ([`FleetTrace::assemble`]). Unreachable shards record
    /// their error and the sweep proceeds.
    pub fn fleet_trace(&self, trace: Option<TraceId>) -> FleetTrace {
        let per_shard =
            self.shards.iter().map(|s| (s.id.clone(), s.transport.trace_dump(trace))).collect();
        FleetTrace { trace, per_shard }
    }

    /// Exports one shard's full decision cache (without removing it) — the
    /// periodic-persistence path: save the snapshot to disk, and after a
    /// crash restart the shard warm from it
    /// ([`LocalShard::spawn_warm`](crate::LocalShard::spawn_warm)).
    pub fn snapshot_shard(&self, id: &str) -> Result<sorl_serve::CacheSnapshot, ShardError> {
        let shard = self
            .shards
            .iter()
            .find(|s| s.id == id)
            .ok_or_else(|| ShardError::UnknownShard(id.to_string()))?;
        shard
            .transport
            .export_cache(&CacheSlice::everything(id))
            .map_err(|source| ShardError::Transport { shard: id.to_string(), source })
    }

    /// Attaches a shard and warms it up: every existing shard hands over
    /// the cache slice the newcomer now owns (copied first, removed from
    /// the old owners only once the newcomer holds everything — so a
    /// failure mid-join never loses a decision). Fails without changing
    /// the topology (or any fleet cache) when the id is taken, the
    /// shard's ranker fingerprint differs from the fleet's, or a
    /// transport call fails.
    pub fn add_shard(
        &mut self,
        id: impl Into<String>,
        transport: impl ShardTransport + 'static,
    ) -> Result<WarmupReport, ShardError> {
        self.add_shard_boxed(id.into(), Box::new(transport))
    }

    fn add_shard_boxed(
        &mut self,
        id: String,
        transport: Box<dyn ShardTransport>,
    ) -> Result<WarmupReport, ShardError> {
        if self.shards.iter().any(|s| s.id == id) {
            return Err(ShardError::DuplicateShard(id));
        }
        let joining_fp = transport
            .ranker_fingerprint()
            .map_err(|source| ShardError::Transport { shard: id.clone(), source })?;
        if let Some(first) = self.shards.first() {
            let fleet_fp = first
                .transport
                .ranker_fingerprint()
                .map_err(|source| ShardError::Transport { shard: first.id.clone(), source })?;
            if joining_fp != fleet_fp {
                return Err(ShardError::RankerMismatch {
                    shard: id,
                    found: joining_fp,
                    expected: fleet_fp,
                });
            }
        }

        // Warm-up shipping: under the grown topology the newcomer owns a
        // slice of every existing shard's key range; move those decisions
        // over so they stay warm. (Keys that don't move keep their owner —
        // the rendezvous minimal-disruption property.) Two phases so a
        // failure can never lose decisions: first *copy* every slice into
        // the newcomer (an error here aborts the join with the fleet's
        // caches untouched — the newcomer holds at most harmless copies),
        // and only once the import succeeded *remove* the moved slices
        // from their old owners. The copies are merged into ONE import so
        // the newcomer's capacity cap applies once: per-source imports
        // would evict each other's entries while still counting them as
        // shipped.
        let grown = self.topology().with(&id);
        let slice = CacheSlice::owned_by(grown, &id);
        let mut moving: Option<sorl_serve::CacheSnapshot> = None;
        for old in &self.shards {
            let part = old
                .transport
                .export_cache(&slice)
                .map_err(|source| ShardError::Transport { shard: old.id.clone(), source })?;
            if part.is_empty() {
                continue;
            }
            match &mut moving {
                None => moving = Some(part),
                Some(m) => m.entries.extend(part.entries),
            }
        }
        let mut report = WarmupReport::default();
        if let Some(moving) = moving {
            let n = moving.len();
            match transport.import_cache(moving) {
                Ok(applied) => {
                    report.shipped = applied;
                    // `restore` skips the LRU overflow of an undersized
                    // cache; those decisions still leave the old owners
                    // in phase 2, so account for them honestly.
                    report.dropped = n - applied;
                }
                Err(ServeError::Snapshot(_)) => report.rejected = n,
                Err(source) => {
                    return Err(ShardError::Transport { shard: id.clone(), source });
                }
            }
        }
        for old in &self.shards {
            // The join is committed. Anything a live client cached into
            // the moving slice between the phase-1 copy and this extract
            // is forwarded to the newcomer rather than discarded (for
            // unchanged entries the forward is an idempotent same-key
            // replace). A shard that fails the cleanup merely keeps stale
            // copies of keys it no longer owns (never queried again, aged
            // out by LRU) — not worth failing the join over.
            if let Ok(extra) = old.transport.extract_cache(&slice) {
                if !extra.is_empty() {
                    let _ = transport.import_cache(extra);
                }
            }
        }

        self.shards.push(ShardEntry { seed: crate::routing::shard_seed(&id), id, transport });
        self.shards.sort_by(|a, b| a.id.cmp(&b.id));
        Ok(report)
    }

    /// Gracefully removes a shard: its whole cache is extracted and
    /// redistributed to the keys' new owners before the transport is
    /// dropped. The error path is side-effect-free — the cache is
    /// extracted *before* the shard leaves the topology, so a failed
    /// extract (dead worker, transient transport error) returns with the
    /// fleet exactly as it was and the removal can be retried (or the
    /// shard [`detach_shard`](Self::detach_shard)ed, accepting the cache
    /// loss).
    pub fn remove_shard(&mut self, id: &str) -> Result<WarmupReport, ShardError> {
        let pos = self
            .shards
            .iter()
            .position(|s| s.id == id)
            .ok_or_else(|| ShardError::UnknownShard(id.to_string()))?;
        let everything = CacheSlice::everything(id);
        let snap = self
            .shards
            .get(pos)
            .ok_or_else(|| ShardError::UnknownShard(id.to_string()))?
            .transport
            .extract_cache(&everything)
            .map_err(|source| ShardError::Transport { shard: id.to_string(), source })?;
        self.shards.remove(pos);

        // Partition the departing cache by new owner and import each
        // slice. With no survivors the decisions are simply dropped (the
        // fleet is gone; there is nobody to keep them warm for).
        let topo = self.topology();
        let mut report = WarmupReport::default();
        let mut rest = snap;
        for survivor in &self.shards {
            let keep = CacheSlice::owned_by(topo.clone(), survivor.id.clone()).into_matcher();
            let mut mine = rest;
            rest = mine.split_off(keep);
            if mine.is_empty() {
                continue;
            }
            let n = mine.len();
            match survivor.transport.import_cache(mine) {
                Ok(applied) => {
                    report.shipped += applied;
                    report.dropped += n - applied;
                }
                // A survivor that rejects its slice (or cannot be
                // reached) drops it — those decisions are recomputed on
                // demand. Keep going: aborting here would also drop
                // everything destined for the *other* survivors.
                Err(_) => report.rejected += n,
            }
        }
        Ok(report)
    }

    /// Detaches a shard *without* shipping its cache — for a shard whose
    /// process is already gone (its decisions are lost and will be
    /// recomputed, or restored from a snapshot by a warm restart).
    pub fn detach_shard(&mut self, id: &str) -> Result<(), ShardError> {
        let pos = self
            .shards
            .iter()
            .position(|s| s.id == id)
            .ok_or_else(|| ShardError::UnknownShard(id.to_string()))?;
        self.shards.remove(pos);
        Ok(())
    }

    fn owner_index(&self, key_fingerprint: u64) -> Option<usize> {
        crate::routing::rendezvous_owner(
            self.shards.iter().map(|s| (s.id.as_str(), s.seed)),
            key_fingerprint,
        )
    }
}

impl Default for ShardRouter {
    fn default() -> Self {
        Self::new()
    }
}
