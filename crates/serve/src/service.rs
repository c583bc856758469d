//! The tuning service: an MPSC request queue, a worker that answers one
//! request per pass, cloneable client handles, and admission control.
//!
//! One worker thread owns the [`TuningSession`] (its scratch buffers); the
//! [`DecisionCache`] sits behind one lock shared by the worker, the
//! service handle and every client. Clients submit [`TuneRequest`]s
//! through a cloneable [`TuneClient`], which looks each key up first: a
//! hit is answered on the submitting thread, its ticket complete before
//! [`TuneClient::submit`] returns, and never enters the queue. A miss is
//! queued; the worker takes requests off the queue one at a time, in
//! queue order, and answers each before it takes the next. It looks the
//! key up again, so a key queued twice is scored once: a miss is answered
//! with one [`TuningSession::top_k_predefined`] call (one folded query)
//! with the lock released, and inserted before the next lookup, and the
//! later copies hit. Every answer is a [`TopK`]: the k best tuning
//! vectors with scores, from a partial select. With caching off
//! ([`ServeConfig::cache_capacity`] `0`) submission takes no cache lock
//! and every request is queued.
//!
//! Submission is non-blocking: [`TuneClient::submit`] returns a
//! [`TuneTicket`] (a completion slot to wait on or hang a callback on —
//! see [`crate::ticket`]) without ever parking on the tuning work, and the
//! blocking [`TuneClient::tune`] is a thin `submit + wait` wrapper.
//!
//! Queueing is also *bounded*: the queue has a configurable depth cap
//! ([`ServeConfig::max_queue`]) and a latency shed threshold
//! ([`ServeConfig::shed_p99`]). When either trips, [`TuneClient::submit`]
//! fast-rejects a miss with [`ServeError::Overloaded`] — a few atomic
//! reads, no queueing, no worker involvement — so overload degrades to
//! cheap, immediate rejections instead of timeout pile-ups deep in the
//! queue. A hit is answered before admission and is never shed.
//!
//! The cache is durable: [`TuneService::cache_snapshot`] exports it as a
//! [`CacheSnapshot`] (versioned by the ranker fingerprint) and
//! [`TuneService::import_cache`] replays one into a running service, so a
//! restarted process starts warm. [`TuneService::export_cache`] /
//! [`TuneService::extract_cache`] move key-fingerprint slices between
//! services — the warm-up shipping primitive of the shard router. All
//! four take the cache lock on the calling thread and never queue behind
//! tunes, so they are not ordered after them either: an import can land
//! before a tune queued earlier, which then hits.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sorl::session::TuningSession;
use sorl::tuner::TopK;
use sorl::StencilRanker;
use sorl_obs::{EventKind, FlightRecorder, SloConfig, SloTracker, SpanGuard, SpanId, TraceId};
use stencil_model::{InstanceKey, StencilInstance};

use crate::cache::DecisionCache;
use crate::exemplar::ExemplarStore;
use crate::snapshot::{CacheSnapshot, SnapshotError};
use crate::stats::{Counters, RecentLatencies, ServeStats};
use crate::ticket::{self, TicketCompleter, TuneTicket};

/// One tuning query: an instance plus how many ranked alternatives the
/// caller wants back. Serializable, so shard transports can forward it
/// across processes verbatim.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TuneRequest {
    /// The stencil instance to tune.
    pub instance: StencilInstance,
    /// Number of best configurations to return (capped at the candidate
    /// set size; `0` is answered with an empty `TopK`).
    pub k: usize,
}

impl TuneRequest {
    /// A request for the `k` best configurations of `instance`.
    pub fn new(instance: StencilInstance, k: usize) -> Self {
        TuneRequest { instance, k }
    }
}

/// Which admission-control limit fast-rejected a submission. The service
/// sheds only misses: a cache hit is answered before admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded submission queue is at its configured depth cap
    /// ([`ServeConfig::max_queue`]).
    QueueFull,
    /// The rolling p99 latency of the worker's passes (one pass serves one
    /// queued request) crossed [`ServeConfig::shed_p99`] while the queue
    /// was backed up — the
    /// service is falling behind, so new work is rejected before it can
    /// pile onto the queue.
    BatchLatency,
    /// A transport link refused the request at its per-connection
    /// in-flight cap. Local services never produce this; multiplexing
    /// shard transports do.
    LinkInFlight,
}

impl std::fmt::Display for ShedReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ShedReason::QueueFull => write!(f, "submission queue at its depth cap"),
            ShedReason::BatchLatency => write!(f, "p99 batch latency over the shed threshold"),
            ShedReason::LinkInFlight => write!(f, "connection at its in-flight cap"),
        }
    }
}

/// Why a request could not be answered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The service worker has shut down (or shut down before replying).
    Closed,
    /// Admission control fast-rejected the submission: the service (or the
    /// link to it) is overloaded. The request was **not** queued — retry
    /// against another shard, back off, or surface the pressure upstream.
    Overloaded(ShedReason),
    /// A cache snapshot was rejected (stale ranker, wrong format).
    Snapshot(SnapshotError),
    /// A transport carrying the request failed (connection refused or
    /// dropped, malformed or wrong-version wire traffic, corrupted
    /// transfer). Local services never produce this; remote shard
    /// transports do. The message names what went wrong.
    Transport(String),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Closed => write!(f, "tuning service is closed"),
            ServeError::Overloaded(reason) => write!(f, "service overloaded: {reason}"),
            ServeError::Snapshot(e) => write!(f, "cache snapshot rejected: {e}"),
            ServeError::Transport(e) => write!(f, "transport failed: {e}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<SnapshotError> for ServeError {
    fn from(e: SnapshotError) -> Self {
        ServeError::Snapshot(e)
    }
}

/// Minimum `k` a caching service computes (and caches) per miss
/// (see [`ServeConfig::cache_capacity`]).
const CACHE_K_FLOOR: usize = 8;

/// Service tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServeConfig {
    /// Accepted and unused: every scoring pass, folded or full-row, runs
    /// on the worker thread. The field stays only because the end-to-end
    /// benchmark sets it, and goes once it stops (ROADMAP item 10b).
    pub threads: usize,
    /// Decision-cache capacity in entries (`0` disables caching). With
    /// caching on, each miss computes and caches at least 8 alternatives,
    /// so follow-up requests asking for a few more than the first one
    /// still hit the cache.
    pub cache_capacity: usize,
    /// Bounded submission queue: a miss finding this many requests
    /// already waiting is fast-rejected with
    /// [`ServeError::Overloaded`]`(`[`ShedReason::QueueFull`]`)` instead
    /// of queued (a hit never queues). `0` means unbounded.
    pub max_queue: usize,
    /// Latency shed threshold: when the p99 over the worker's last 64
    /// passes (each serves one queued request; hits answered at submit
    /// are not among them) exceeds this *and* more than 64 requests are
    /// already queued, misses are fast-rejected with
    /// [`ShedReason::BatchLatency`]. The queue-depth guard gives the
    /// shedder hysteresis — a briefly slow pass with a short queue never
    /// sheds, and once the backlog drains admission resumes.
    /// `Duration::ZERO` disables latency shedding.
    pub shed_p99: Duration,
    /// Absolute latency at/above which a request is exemplar-worthy: the
    /// service keeps the full span chain of its 8 slowest recent worthy
    /// requests (see [`crate::ExemplarStore`]).
    /// `Duration::ZERO` switches to the rolling-p99 trigger: any request
    /// slower than the p99 of recent request latencies is captured.
    pub exemplar_threshold: Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            cache_capacity: 1024,
            max_queue: 4096,
            shed_p99: Duration::ZERO,
            exemplar_threshold: Duration::ZERO,
        }
    }
}

/// Queued requests a latency shed requires: below this depth a slow p99
/// alone never sheds (see [`ServeConfig::shed_p99`]).
const LATENCY_SHED_FLOOR: u64 = 64;

/// The admission check run on every submitting thread: a handful of
/// relaxed atomic reads against the thresholds, so a shed costs nanoseconds
/// and touches neither the queue nor the worker.
#[derive(Debug)]
struct Admission {
    /// [`ServeConfig::max_queue`] (0 = unbounded).
    max_queue: u64,
    /// [`ServeConfig::shed_p99`] in µs (0 = disabled).
    shed_p99_us: u64,
}

impl Admission {
    fn new(config: &ServeConfig) -> Self {
        Admission {
            max_queue: u64::try_from(config.max_queue).unwrap_or(u64::MAX),
            shed_p99_us: u64::try_from(config.shed_p99.as_micros()).unwrap_or(u64::MAX),
        }
    }

    /// Admits (incrementing the queue-depth gauge) or sheds one
    /// submission.
    fn try_admit(&self, counters: &Counters) -> Result<(), ServeError> {
        let depth = counters.queue_depth.load(Ordering::Relaxed);
        if self.max_queue > 0 && depth >= self.max_queue {
            counters.shed_queue.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded(ShedReason::QueueFull));
        }
        if self.shed_p99_us > 0
            && depth > LATENCY_SHED_FLOOR
            && counters.recent_p99_us.load(Ordering::Relaxed) > self.shed_p99_us
        {
            counters.shed_latency.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded(ShedReason::BatchLatency));
        }
        counters.queue_depth.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// Events the service's flight recorder can hold. Sized for "the last
/// few seconds of a busy service": at 3 events per request, 4096 slots
/// cover the most recent ~1300 requests.
const FLIGHT_RECORDER_EVENTS: usize = 4096;

/// Slow-request exemplars a service keeps: the full span chains of its
/// slowest recent worthy requests (see [`ServeConfig::exemplar_threshold`]).
const EXEMPLAR_SLOTS: usize = 8;

enum Msg {
    Tune {
        req: TuneRequest,
        key: InstanceKey,
        reply: TicketCompleter,
        trace: TraceId,
        span: SpanId,
        submitted: Instant,
    },
    Shutdown,
}

/// What the service handle, its clients and its worker share.
#[derive(Debug)]
struct Shared {
    cache: Mutex<DecisionCache>,
    /// Whether submissions look keys up ([`ServeConfig::cache_capacity`]
    /// `> 0`); with caching off they take no cache lock.
    caching: bool,
    /// Raised when the service is dropped: a client then answers nothing
    /// from the cache.
    closed: AtomicBool,
    counters: Counters,
    admission: Admission,
    recorder: Arc<FlightRecorder>,
    exemplars: Arc<ExemplarStore>,
    slo: Arc<SloTracker>,
}

impl Shared {
    /// Publishes one answered request, then completes its ticket: the one
    /// path for a hit answered at submit and for a worker pass. The
    /// counters, the pass histogram and the scoring span land before the
    /// reply, so a client that reads `stats()` right after its answer
    /// sees its own request. The SLO and exemplar accounting run after
    /// it: `on_ready` hooks fire inside `complete`, so a transport's reply
    /// span has closed by the time an exemplar's chain is captured.
    fn answer(
        &self,
        reply: TicketCompleter,
        answer: TopK,
        trace: TraceId,
        score_span: SpanGuard<'_>,
        pass: Duration,
        submitted: Instant,
    ) {
        self.counters.requests.fetch_add(1, Ordering::Relaxed);
        self.counters.record_pass(pass);
        drop(score_span);
        reply.complete(Ok(answer));
        let latency = submitted.elapsed();
        self.slo.record(latency, true);
        if self.exemplars.observe(latency) {
            let chain = self.recorder.dump("service", Some(trace)).events;
            self.exemplars.capture(trace, latency, chain);
        }
    }
}

/// A running tuning service: one worker thread, an MPSC queue, any number
/// of clients.
///
/// ```no_run
/// use sorl::pipeline::{PipelineConfig, TrainingPipeline};
/// use sorl_serve::{ServeConfig, TuneService};
/// use stencil_model::{GridSize, StencilInstance, StencilKernel};
///
/// let out = TrainingPipeline::new(PipelineConfig::default()).run();
/// let service = TuneService::spawn(out.ranker, ServeConfig::default());
/// let client = service.client();
/// let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap();
/// let top = client.tune(q, 3).unwrap();
/// for (t, score) in &top.entries {
///     println!("{t} (score {score:.3})");
/// }
/// println!("{}", service.stats());
/// ```
///
/// Dropping the service shuts the worker down; requests already queued at
/// that point are still answered, later submissions fail with
/// [`ServeError::Closed`].
#[derive(Debug)]
pub struct TuneService {
    tx: mpsc::Sender<Msg>,
    worker: Option<JoinHandle<()>>,
    shared: Arc<Shared>,
    fingerprint: u64,
}

impl TuneService {
    /// Spawns a service whose worker thread owns one scoring session.
    pub fn spawn(ranker: StencilRanker, config: ServeConfig) -> Self {
        let (tx, rx) = mpsc::channel();
        let recorder = Arc::new(FlightRecorder::new(FLIGHT_RECORDER_EVENTS));
        let shared = Arc::new(Shared {
            cache: Mutex::new(DecisionCache::new(config.cache_capacity)),
            caching: config.cache_capacity > 0,
            closed: AtomicBool::new(false),
            counters: Counters::default(),
            admission: Admission::new(&config),
            exemplars: Arc::new(ExemplarStore::new(EXEMPLAR_SLOTS, config.exemplar_threshold)),
            // SLO threshold crossings land in the same recorder as the
            // request spans, so a trace dump shows when the budget started
            // burning next to the requests that burned it.
            slo: Arc::new(SloTracker::with_recorder(SloConfig::default(), Arc::clone(&recorder))),
            recorder,
        });
        let worker_shared = Arc::clone(&shared);
        let fingerprint = ranker.fingerprint();
        let session = TuningSession::new(ranker);
        let worker = std::thread::Builder::new()
            .name("sorl-serve-worker".into())
            .spawn(move || worker_loop(rx, session, config, &worker_shared))
            // sorl-lint: allow(panic, "spawn fails only on thread-resource exhaustion at service construction; there is no service to degrade gracefully yet")
            .expect("spawn sorl-serve worker");
        TuneService { tx, worker: Some(worker), shared, fingerprint }
    }

    /// A new client handle (cheap, cloneable, usable from any thread).
    pub fn client(&self) -> TuneClient {
        TuneClient { tx: self.tx.clone(), shared: Arc::clone(&self.shared) }
    }

    /// A point-in-time snapshot of the service counters, with the cache's
    /// own hit, miss, eviction and residency counts read under its lock.
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.shared.counters.snapshot();
        let cache = lock(&self.shared.cache);
        stats.cache_hits = cache.hits();
        stats.cache_misses = cache.misses();
        stats.cache_evictions = cache.evictions();
        stats.cache_entries = cache.len() as u64;
        stats
    }

    /// The service's flight recorder: the most recent queue-wait /
    /// scoring spans and cache events, joinable on [`TraceId`] with a
    /// remote client's recorder ([`FlightRecorder::snapshot`]).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.shared.recorder
    }

    /// The service's slow-request exemplar store: full span chains of
    /// the slowest recent requests (see [`crate::ExemplarStore`]).
    pub fn exemplars(&self) -> &Arc<ExemplarStore> {
        &self.shared.exemplars
    }

    /// The service's SLO burn-rate tracker (see [`sorl_obs::SloTracker`]).
    pub fn slo(&self) -> &Arc<SloTracker> {
        &self.shared.slo
    }

    /// Fingerprint of the ranking function this service answers with
    /// ([`StencilRanker::fingerprint`]): the version every cache snapshot
    /// it produces is stamped with, and the only version it accepts back.
    pub fn ranker_fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Exports the whole decision cache as a durable [`CacheSnapshot`]
    /// (least recently used first, stamped with the ranker fingerprint).
    /// Save it with [`CacheSnapshot::save_json`] and feed it to
    /// [`import_cache`](Self::import_cache) after a restart to start warm.
    pub fn cache_snapshot(&self) -> Result<CacheSnapshot, ServeError> {
        Ok(lock(&self.shared.cache).snapshot(self.fingerprint))
    }

    /// Exports the cache slice whose key fingerprints
    /// ([`InstanceKey::fingerprint`](stencil_model::InstanceKey::fingerprint))
    /// satisfy `filter`, leaving the cache untouched — what a shard hands
    /// to a new owner that is *also* keeping its own copy warm.
    pub fn export_cache(&self, filter: impl Fn(u64) -> bool) -> Result<CacheSnapshot, ServeError> {
        Ok(lock(&self.shared.cache).snapshot_filtered(self.fingerprint, filter))
    }

    /// Removes and returns the cache slice whose key fingerprints satisfy
    /// `filter` — the ownership handoff of a topology change (the keys now
    /// route elsewhere, so keeping the decisions here would only waste
    /// capacity).
    pub fn extract_cache(&self, filter: impl Fn(u64) -> bool) -> Result<CacheSnapshot, ServeError> {
        Ok(lock(&self.shared.cache).extract(self.fingerprint, filter))
    }

    /// Replays a snapshot into the live cache (merging with resident
    /// decisions). The snapshot must have been produced under this
    /// service's exact [`ranker_fingerprint`](Self::ranker_fingerprint)
    /// and the current format version; anything else is rejected with
    /// [`ServeError::Snapshot`] without touching the cache. Returns the
    /// number of entries applied.
    pub fn import_cache(&self, snapshot: CacheSnapshot) -> Result<usize, ServeError> {
        Ok(lock(&self.shared.cache).restore(&snapshot, self.fingerprint)?)
    }

    /// Shuts the worker down, answering everything already queued first.
    /// Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {}
}

impl Drop for TuneService {
    fn drop(&mut self) {
        self.shared.closed.store(true, Ordering::Release);
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
        // A client may outlive the service; it answers nothing from the
        // cache any more, so it need not keep the decisions alive.
        lock(&self.shared.cache).clear();
    }
}

/// A handle for submitting tuning queries to a [`TuneService`].
#[derive(Debug, Clone)]
pub struct TuneClient {
    tx: mpsc::Sender<Msg>,
    shared: Arc<Shared>,
}

impl TuneClient {
    /// Answers a cache hit, or enqueues a miss, and returns a ticket to
    /// wait on (or hang a callback on — see [`TuneTicket`]). A hit's
    /// ticket is complete before this returns. Submitting never blocks
    /// on the tuning work itself, and never queues past the admission
    /// limits: an overloaded service answers a miss here, immediately,
    /// with [`ServeError::Overloaded`].
    pub fn submit(&self, instance: StencilInstance, k: usize) -> Result<TuneTicket, ServeError> {
        self.submit_traced(instance, k, TraceId::fresh())
    }

    /// [`submit`](Self::submit) under a caller-provided trace — the entry
    /// point for transports that carried a trace id across the wire. The
    /// request's queue wait and scoring events are recorded under `trace`,
    /// so the submitter's recorder and this service's recorder join on
    /// one id.
    pub fn submit_traced(
        &self,
        instance: StencilInstance,
        k: usize,
        trace: TraceId,
    ) -> Result<TuneTicket, ServeError> {
        let shared = &*self.shared;
        let mut key = None;
        if shared.caching {
            if shared.closed.load(Ordering::Acquire) {
                shared.slo.record_rejected();
                return Err(ServeError::Closed);
            }
            let started = Instant::now();
            let looked_up = instance.key();
            // A miss is not counted here: the worker looks the key up
            // again, and counts the hit or the miss it finds.
            let hit = lock(&shared.cache).lookup_hit(&looked_up, k);
            if let Some((entries, candidates)) = hit {
                let pass = started.elapsed();
                // A hit never waits: its queue-wait span is empty, and its
                // pass is the lookup.
                drop(shared.recorder.span(trace, "queue_wait"));
                let score_span = shared.recorder.span(trace, "score_batch");
                score_span.event("cache_hit");
                let (ticket, reply) = ticket::pair();
                let answer = TopK { entries, candidates, seconds: 0.0 };
                shared.answer(reply, answer, trace, score_span, pass, started);
                return Ok(ticket);
            }
            key = Some(looked_up);
        }
        if let Err(e) = shared.admission.try_admit(&shared.counters) {
            // A shed request never ran, but the caller still experienced
            // it: it spends error budget.
            shared.slo.record_rejected();
            return Err(e);
        }
        let (ticket, reply) = ticket::pair();
        // The queue-wait span opens at admission and is closed by the
        // worker at dequeue; its duration IS the queue delay.
        let span = SpanId::fresh();
        shared.recorder.record(EventKind::SpanBegin, trace, span, "queue_wait");
        let msg = Msg::Tune {
            key: key.unwrap_or_else(|| instance.key()),
            req: TuneRequest::new(instance, k),
            reply,
            trace,
            span,
            submitted: Instant::now(),
        };
        if self.tx.send(msg).is_err() {
            // Nothing was queued; hand the admission slot back and close
            // the span. (The completer we just dropped fails `ticket`
            // with `Closed` too, but the caller never sees that ticket.)
            shared.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            shared.recorder.record(EventKind::SpanEnd, trace, span, "queue_wait");
            shared.slo.record_rejected();
            return Err(ServeError::Closed);
        }
        Ok(ticket)
    }

    /// Submits one query and blocks for its answer.
    pub fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ServeError> {
        self.submit(instance, k)?.wait()
    }

    /// Submits every request up front, then collects every answer in
    /// order.
    pub fn tune_many(&self, requests: Vec<TuneRequest>) -> Result<Vec<TopK>, ServeError> {
        let tickets: Result<Vec<TuneTicket>, ServeError> =
            requests.into_iter().map(|r| self.submit(r.instance, r.k)).collect();
        tickets?.into_iter().map(TuneTicket::wait).collect()
    }
}

/// Locks the decision cache, recovering from poisoning like the crate's
/// other locks. No panic can leave the cache torn: the only caller code
/// run under the lock is a slice filter, and it runs before anything in
/// the cache changes.
fn lock(cache: &Mutex<DecisionCache>) -> MutexGuard<'_, DecisionCache> {
    cache.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Serves the queue one request per pass, in queue order, until a
/// shutdown message or a disconnected queue: everything queued before
/// the shutdown is answered first.
fn worker_loop(
    rx: mpsc::Receiver<Msg>,
    mut session: TuningSession,
    config: ServeConfig,
    shared: &Shared,
) {
    let k_floor = if config.cache_capacity == 0 { 0 } else { CACHE_K_FLOOR };
    let mut recent = RecentLatencies::new();
    while let Ok(Msg::Tune { req, key, reply, trace, span, submitted }) = rx.recv() {
        let started = Instant::now();
        // Dequeue releases one admission slot (the depth gauge counts
        // requests admitted but not yet dequeued) and closes the
        // submitter's queue-wait span.
        shared.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
        shared.recorder.record(EventKind::SpanEnd, trace, span, "queue_wait");
        let score_span = shared.recorder.span(trace, "score_batch");

        // The lock is held for one lookup or one insert, never across the
        // scoring pass, and a miss is inserted before the next request is
        // looked up: a key queued twice is scored once. Bound first: in an
        // `if let` scrutinee the guard would live on through the scoring.
        let hit = lock(&shared.cache).lookup(&key, req.k);
        let answer = if let Some((entries, candidates)) = hit {
            score_span.event("cache_hit");
            TopK { entries, candidates, seconds: 0.0 }
        } else {
            score_span.event("cache_miss");
            let mut top = session.top_k_predefined(&req.instance, req.k.max(k_floor));
            shared.counters.scored_instances.fetch_add(1, Ordering::Relaxed);
            lock(&shared.cache).insert(key, top.entries.clone(), top.candidates);
            top.entries.truncate(req.k);
            top
        };
        let pass = started.elapsed();
        // The rolling p99 the latency shedder reads: unlike the all-time
        // histogram it *recovers* once slow passes age out of the window,
        // so a past overload episode does not shed forever.
        shared.counters.recent_p99_us.store(recent.record_p99_us(pass), Ordering::Relaxed);
        shared.answer(reply, answer, trace, score_span, pass, submitted);
    }
}
