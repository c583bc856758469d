//! The shard transport abstraction: how the router talks to one shard.
//!
//! [`ShardTransport`] is the seam between routing policy and deployment
//! topology. There are two implementations: [`LocalShard`], an in-process
//! [`TuneService`], and [`TcpShard`](crate::TcpShard), a multiplexed link
//! to a [`ShardServer`](crate::ShardServer) in another process. Every
//! method is built to cross that boundary: requests and answers are plain
//! data, and cache filters are [`CacheSlice`] values (serializable
//! ownership descriptions) rather than closures, which the TCP transport
//! forwards verbatim.
//! Fallibility is part of the contract — a local shard only fails when its
//! worker is gone, a remote one can fail for all the usual reasons.

use sorl::tuner::TopK;
use sorl::StencilRanker;
use sorl_obs::TraceId;
use sorl_serve::{CacheSnapshot, ServeConfig, ServeError, ServeStats, TuneClient, TuneService};
use stencil_model::StencilInstance;

use crate::routing::CacheSlice;
use crate::wire::TraceDumpReply;

/// A router's connection to one shard of the tuning fleet.
///
/// `Send + Sync` is part of the contract: a router is shared across the
/// client threads of a saturating workload, so every transport must take
/// concurrent calls (the multiplexing [`TcpShard`](crate::TcpShard)
/// pipelines them over one connection; [`LocalShard`] hands each caller a
/// queue submission).
pub trait ShardTransport: Send + Sync {
    /// Answers one tuning query (the `k` best configurations).
    fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ServeError>;

    /// Fingerprint of the ranking function the shard serves with. The
    /// router requires every shard of a fleet to agree — decisions are
    /// model outputs and must be interchangeable across shards.
    fn ranker_fingerprint(&self) -> Result<u64, ServeError>;

    /// The shard's serving counters.
    fn stats(&self) -> Result<ServeStats, ServeError>;

    /// Copies the decisions in `slice` out of the shard's cache (the
    /// cache keeps them).
    fn export_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError>;

    /// Removes and returns the decisions in `slice` — the ownership
    /// handoff of a topology change.
    fn extract_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError>;

    /// Replays a snapshot into the shard's cache. Rejected (with
    /// [`ServeError::Snapshot`]) when the snapshot's ranker fingerprint or
    /// format version does not match. Returns the entries applied.
    fn import_cache(&self, snapshot: CacheSnapshot) -> Result<usize, ServeError>;

    /// Exports the shard's flight recorder (optionally filtered to one
    /// trace) and its resident slow-request exemplars — the per-shard
    /// half of fleet trace assembly.
    fn trace_dump(&self, trace: Option<TraceId>) -> Result<TraceDumpReply, ServeError>;
}

/// An in-process shard: a [`TuneService`] owned by this transport.
///
/// Dropping the `LocalShard` shuts the service down (this is how a demo —
/// or a test — "kills" a shard).
#[derive(Debug)]
pub struct LocalShard {
    service: TuneService,
    client: TuneClient,
}

impl LocalShard {
    /// Spawns a fresh in-process shard.
    pub fn spawn(ranker: StencilRanker, config: ServeConfig) -> Self {
        let service = TuneService::spawn(ranker, config);
        let client = service.client();
        LocalShard { service, client }
    }

    /// Spawns a shard and immediately warms its cache from `snapshot`
    /// (e.g. one saved by a previous incarnation before it went down).
    /// Returns the shard and the number of restored decisions.
    pub fn spawn_warm(
        ranker: StencilRanker,
        config: ServeConfig,
        snapshot: CacheSnapshot,
    ) -> Result<(Self, usize), ServeError> {
        let shard = Self::spawn(ranker, config);
        let restored = shard.service.import_cache(snapshot)?;
        Ok((shard, restored))
    }

    /// The underlying service (for snapshots, stats, extra clients).
    pub fn service(&self) -> &TuneService {
        &self.service
    }
}

impl ShardTransport for LocalShard {
    fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ServeError> {
        self.client.tune(instance, k)
    }

    fn ranker_fingerprint(&self) -> Result<u64, ServeError> {
        Ok(self.service.ranker_fingerprint())
    }

    fn stats(&self) -> Result<ServeStats, ServeError> {
        Ok(self.service.stats())
    }

    fn export_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.service.export_cache(slice.clone().into_matcher())
    }

    fn extract_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.service.extract_cache(slice.clone().into_matcher())
    }

    fn import_cache(&self, snapshot: CacheSnapshot) -> Result<usize, ServeError> {
        self.service.import_cache(snapshot)
    }

    fn trace_dump(&self, trace: Option<TraceId>) -> Result<TraceDumpReply, ServeError> {
        Ok(TraceDumpReply {
            dump: self.service.flight_recorder().dump("local", trace),
            exemplars: self.service.exemplars().exemplars(),
        })
    }
}
