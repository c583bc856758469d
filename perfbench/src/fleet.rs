//! The fleet under test: `ShardRouter` → `TcpShard` → in-process
//! `ShardServer` → `TuneService` → `TuningSession`, two shards on
//! loopback, plus the checkpoint / kill / warm-restart cycle of shard `b`.

use std::collections::HashSet;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::{Duration, Instant};

use sorl::tuner::TopK;
use sorl::StencilRanker;
use sorl_obs::TraceId;
use sorl_serve::{CacheSnapshot, ServeConfig, ServeError, ServeStats, TuneService};
use sorl_shard::wire::{self, bin};
use sorl_shard::{CacheSlice, ShardRouter, ShardServer, ShardTransport, TcpShard, TraceDumpReply};
use stencil_model::StencilInstance;

use crate::trace::{Origin, RecorderSampler, Tracer};
use crate::workload::{Plan, SHARDS};

/// Answers per request.
pub const K: usize = 3;

/// The shard service configuration: scoring inline on the worker thread,
/// every other knob at its default.
pub fn serve_config() -> ServeConfig {
    ServeConfig { threads: 1, ..ServeConfig::default() }
}

/// A router-side handle on a `TcpShard` that the harness can still read
/// (link counters, client flight recorder) after the router owns it.
struct Link(Arc<TcpShard>);

impl ShardTransport for Link {
    fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ServeError> {
        self.0.tune(instance, k)
    }
    fn ranker_fingerprint(&self) -> Result<u64, ServeError> {
        self.0.ranker_fingerprint()
    }
    fn stats(&self) -> Result<ServeStats, ServeError> {
        self.0.stats()
    }
    fn export_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.0.export_cache(slice)
    }
    fn extract_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.0.extract_cache(slice)
    }
    fn import_cache(&self, snapshot: CacheSnapshot) -> Result<usize, ServeError> {
        self.0.import_cache(snapshot)
    }
    fn trace_dump(&self, trace: Option<TraceId>) -> Result<TraceDumpReply, ServeError> {
        self.0.trace_dump(trace)
    }
}

/// One shard incarnation. The link is declared first so it drops first:
/// the connection closes before its server goes away.
struct Node {
    /// Names this incarnation's flight recorders for the whole run.
    id: u64,
    link: Arc<TcpShard>,
    server: ShardServer,
}

impl Node {
    fn spawn(id: u64, service: TuneService) -> Result<Node, String> {
        let server =
            ShardServer::spawn(service, "127.0.0.1:0").map_err(|e| format!("bind shard: {e}"))?;
        let link =
            TcpShard::connect(server.local_addr()).map_err(|e| format!("connect to shard: {e}"))?;
        Ok(Node { id, link: Arc::new(link), server })
    }

    fn sample(&self, sampler: &mut RecorderSampler) {
        sampler.sample(2 * self.id, Origin::Client, self.link.flight_recorder());
        sampler.sample(2 * self.id + 1, Origin::Server, self.server.service().flight_recorder());
    }
}

/// Counters of killed incarnations, so fleet totals stay monotone.
#[derive(Default)]
struct Retired {
    stats: Vec<ServeStats>,
    reconnects: u64,
    poisoned: u64,
}

/// What one restart of shard `b` cost.
pub struct Restart {
    /// Kill to first warm answer.
    pub recovery: Duration,
    pub snapshot_shard: Duration,
    pub save: Duration,
    pub load: Duration,
    pub import: Duration,
    pub add_shard: Duration,
    pub shipped: usize,
    pub json_bytes: usize,
    pub bin_bytes: usize,
    /// The first read of `b` after the restart: its instance index and
    /// answer.
    pub probe: (u32, Result<TopK, String>),
}

pub struct Fleet {
    ranker: StencilRanker,
    b_config: ServeConfig,
    router: RwLock<ShardRouter>,
    /// Requests pass through this before taking the router's read lock,
    /// and a topology change holds it while it waits for the write lock:
    /// `RwLock` alone let a reader in a closed loop keep a waiting writer
    /// out for hundreds of milliseconds.
    gate: Mutex<()>,
    a: Node,
    b: Mutex<Option<Node>>,
    retired: Mutex<Retired>,
    next_node: AtomicU64,
    tracer: Arc<Tracer>,
    sampler: Mutex<RecorderSampler>,
}

impl Fleet {
    /// Spawns shards `a` (default cache) and `b` (`b_config`) and routes
    /// over both. Each server is listening when `spawn` returns, so the
    /// links connect on the first dial.
    pub fn spawn(
        ranker: StencilRanker,
        b_config: ServeConfig,
        tracer: Arc<Tracer>,
    ) -> Result<Fleet, String> {
        let a = Node::spawn(0, TuneService::spawn(ranker.clone(), serve_config()))?;
        let b = Node::spawn(1, TuneService::spawn(ranker.clone(), b_config))?;
        let mut router = ShardRouter::new();
        for (id, node) in SHARDS.iter().zip([&a, &b]) {
            router.add_shard(*id, Link(Arc::clone(&node.link))).map_err(|e| e.to_string())?;
        }
        Ok(Fleet {
            ranker,
            b_config,
            router: RwLock::new(router),
            gate: Mutex::new(()),
            a,
            b: Mutex::new(Some(b)),
            retired: Mutex::new(Retired::default()),
            next_node: AtomicU64::new(2),
            tracer,
            sampler: Mutex::new(RecorderSampler::default()),
        })
    }

    pub fn router(&self) -> RwLockReadGuard<'_, ShardRouter> {
        drop(self.gate.lock().expect("router gate poisoned by a panicking thread"));
        self.router.read().expect("router lock poisoned by a panicking thread")
    }

    fn router_mut(&self) -> RwLockWriteGuard<'_, ShardRouter> {
        let _gate = self.gate.lock().expect("router gate poisoned by a panicking thread");
        self.router.write().expect("router lock poisoned by a panicking thread")
    }

    fn b(&self) -> std::sync::MutexGuard<'_, Option<Node>> {
        self.b.lock().expect("shard b slot poisoned by a panicking thread")
    }

    fn retired(&self) -> std::sync::MutexGuard<'_, Retired> {
        self.retired.lock().expect("retired counters poisoned by a panicking thread")
    }

    /// One request through the whole stack.
    pub fn tune(&self, instance: StencilInstance) -> Result<TopK, String> {
        self.router().tune(instance, K).map_err(|e| e.to_string())
    }

    /// Serving counters summed over every incarnation of every shard.
    pub fn serve_totals(&self) -> ServeStats {
        let mut all = vec![self.a.server.service().stats()];
        all.extend(self.b().as_ref().map(|b| b.server.service().stats()));
        all.extend(self.retired().stats.iter().copied());
        ServeStats::merge(&all)
    }

    /// Link reconnects and poisoned links over every link of the run.
    pub fn link_totals(&self) -> (u64, u64) {
        let retired = self.retired();
        let (mut reconnects, mut poisoned) = (retired.reconnects, retired.poisoned);
        drop(retired);
        let a = self.a.link.link_stats();
        let b = self.b().as_ref().map(|b| b.link.link_stats()).unwrap_or_default();
        reconnects += a.reconnects + b.reconnects;
        poisoned += a.poisoned + b.poisoned;
        (reconnects, poisoned)
    }

    /// Reads the flight recorders of every live shard and link (tracing
    /// on only).
    pub fn sample_recorders(&self) {
        if !self.tracer.is_on() {
            return;
        }
        let mut sampler = self.sampler.lock().expect("sampler poisoned by a panicking thread");
        self.a.sample(&mut sampler);
        if let Some(b) = self.b().as_ref() {
            b.sample(&mut sampler);
        }
    }

    /// Hands every span sampled from the flight recorders to the tracer.
    pub fn adopt_recorder_spans(&self) {
        self.sample_recorders();
        self.tracer.adopt(&self.sampler.lock().expect("sampler poisoned by a panicking thread"));
    }

    /// Checkpoints shard `b` to `path`, kills it, restarts it warm from
    /// the file and reads one of its keys. The checkpoint keeps every
    /// decision of `b`, or with `keep` only those of the instances in it;
    /// the read asks for the most recently used one kept.
    pub fn restart_b(
        &self,
        plan: &Plan,
        path: &Path,
        keep: Option<&HashSet<u32>>,
        trace: u64,
    ) -> Result<Restart, String> {
        let t = &*self.tracer;
        let (restart, _) = t.span(trace, 0, "restart", |root| {
            let (snap, snapshot_shard) =
                t.span(trace, root, "router.snapshot_shard", |_| self.router().snapshot_shard("b"));
            let mut snap = snap.map_err(|e| e.to_string())?;
            if let Some(keep) = keep {
                snap.entries.retain(|e| plan.index_of(&e.key).is_some_and(|i| keep.contains(&i)));
            }
            let probe = snap
                .entries
                .last()
                .and_then(|e| plan.index_of(&e.key))
                .ok_or("shard b has no checkpointed key of this run to read")?;
            let bin_bytes = if bin::snapshot_fits(&snap) {
                let (_, chunks) = bin::snapshot_to_chunks(&snap, wire::CHUNK_ENTRIES);
                chunks.iter().map(|c| c.payload.len()).sum()
            } else {
                0
            };
            let (saved, save) = t.span(trace, root, "snapshot.save", |_| snap.save_json(path));
            saved.map_err(|e| format!("save checkpoint: {e}"))?;
            drop(snap);
            let json_bytes = std::fs::metadata(path).map_err(|e| e.to_string())?.len() as usize;

            let killed = t.span(trace, root, "kill", |_| self.kill_b()).0?;

            let (loaded, load) =
                t.span(trace, root, "snapshot.load", |_| CacheSnapshot::load_json(path));
            let loaded = loaded.map_err(|e| format!("load checkpoint: {e}"))?;
            let service = TuneService::spawn(self.ranker.clone(), self.b_config);
            let (imported, import) =
                t.span(trace, root, "snapshot.import", |_| service.import_cache(loaded));
            imported.map_err(|e| e.to_string())?;
            let id = self.next_node.fetch_add(1, Ordering::Relaxed);
            let node = t.span(trace, root, "spawn", |_| Node::spawn(id, service)).0?;
            let link = Link(Arc::clone(&node.link));
            let (report, add_shard) =
                t.span(trace, root, "router.add_shard", |_| self.router_mut().add_shard("b", link));
            let report = report.map_err(|e| e.to_string())?;
            *self.b() = Some(node);
            let q = plan.instances[probe as usize].clone();
            let (answer, _) = t.span(trace, root, "probe", |_| self.tune(q));
            Ok(Restart {
                recovery: killed.elapsed(),
                snapshot_shard,
                save,
                load,
                import,
                add_shard,
                shipped: report.shipped,
                json_bytes,
                bin_bytes,
                probe: (probe, answer),
            })
        });
        restart
    }

    /// Detaches shard `b` and drops its server, keeping its counters.
    /// Returns when `b` left the topology: requests in flight before that
    /// were still `b`'s to answer.
    fn kill_b(&self) -> Result<Instant, String> {
        let mut router = self.router_mut();
        let killed = Instant::now();
        router.detach_shard("b").map_err(|e| e.to_string())?;
        drop(router);
        let old = self.b().take().ok_or("shard b is not running")?;
        if self.tracer.is_on() {
            old.sample(&mut self.sampler.lock().expect("sampler poisoned by a panicking thread"));
        }
        let link = old.link.link_stats();
        let mut retired = self.retired();
        retired.stats.push(old.server.service().stats());
        retired.reconnects += link.reconnects;
        retired.poisoned += link.poisoned;
        Ok(killed)
    }
}

/// Counter deltas between two [`ServeStats`] readings, with the latency
/// percentiles recomputed over the delta histogram.
pub fn stats_delta(after: &ServeStats, before: &ServeStats) -> ServeStats {
    let mut d = ServeStats {
        requests: after.requests.saturating_sub(before.requests),
        batches: after.batches.saturating_sub(before.batches),
        scored_instances: after.scored_instances.saturating_sub(before.scored_instances),
        cache_hits: after.cache_hits.saturating_sub(before.cache_hits),
        cache_misses: after.cache_misses.saturating_sub(before.cache_misses),
        shed_queue: after.shed_queue.saturating_sub(before.shed_queue),
        shed_latency: after.shed_latency.saturating_sub(before.shed_latency),
        ..ServeStats::default()
    };
    for (o, (a, b)) in d
        .batch_latency_hist
        .iter_mut()
        .zip(after.batch_latency_hist.iter().zip(&before.batch_latency_hist))
    {
        *o = a.saturating_sub(*b);
    }
    ServeStats::merge([&d])
}
