//! The tuning service: an MPSC request queue, a micro-batching worker,
//! cloneable client handles, and admission control.
//!
//! One worker thread owns the [`TuningSession`] (its scratch buffers) and
//! the [`DecisionCache`]. Clients submit
//! [`TuneRequest`]s through a cloneable [`TuneClient`]; the worker drains
//! the queue into a micro-batch, answers what it can from the cache,
//! deduplicates the remaining requests by [`InstanceKey`], and answers
//! each unique instance with one [`TuningSession::top_k_predefined`] call
//! (one folded query). Every answer is a [`TopK`]: the k best tuning
//! vectors with scores, from a partial select.
//!
//! Submission is non-blocking: [`TuneClient::submit`] returns a
//! [`TuneTicket`] (a completion slot to wait on or hang a callback on —
//! see [`crate::ticket`]) without ever parking on the tuning work, and the
//! blocking [`TuneClient::tune`] is a thin `submit + wait` wrapper.
//!
//! Submission is also *bounded*: the queue has a configurable depth cap
//! ([`ServeConfig::max_queue`]) and a latency shed threshold
//! ([`ServeConfig::shed_p99`]). When either trips, [`TuneClient::submit`]
//! fast-rejects with [`ServeError::Overloaded`] — a few atomic reads, no
//! queueing, no worker involvement — so overload degrades to cheap,
//! immediate rejections instead of timeout pile-ups deep in the queue.
//!
//! The cache is durable: [`TuneService::cache_snapshot`] exports it as a
//! [`CacheSnapshot`] (versioned by the ranker fingerprint) and
//! [`TuneService::import_cache`] replays one into a running service, so a
//! restarted process starts warm. [`TuneService::export_cache`] /
//! [`TuneService::extract_cache`] move key-fingerprint slices between
//! services — the warm-up shipping primitive of the shard router.

use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};
use sorl::session::TuningSession;
use sorl::tuner::TopK;
use sorl::StencilRanker;
use sorl_obs::{EventKind, FlightRecorder, SloConfig, SloTracker, SpanId, TraceId};
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

/// Which admission-control limit fast-rejected a submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The bounded submission queue is at its configured depth cap
    /// ([`ServeConfig::max_queue`]).
    QueueFull,
    /// The rolling p99 batch latency crossed [`ServeConfig::shed_p99`]
    /// while the queue was backed up — the service is falling behind, so
    /// new work is rejected before it can pile onto the queue.
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
    /// Largest micro-batch drained from the queue in one pass. The worker
    /// takes what is queued when it looks and never waits for more.
    pub max_batch: usize,
    /// Decision-cache capacity in entries (`0` disables caching). With
    /// caching on, each miss computes and caches at least 8 alternatives,
    /// so follow-up requests asking for a few more than the first one
    /// still hit the cache.
    pub cache_capacity: usize,
    /// Bounded submission queue: a submission finding this many requests
    /// already waiting is fast-rejected with
    /// [`ServeError::Overloaded`]`(`[`ShedReason::QueueFull`]`)` instead
    /// of queued. `0` means unbounded (the pre-admission-control
    /// behavior).
    pub max_queue: usize,
    /// Latency shed threshold: when the p99 over the most recent batches
    /// exceeds this *and* more than one full micro-batch is already
    /// queued, submissions are fast-rejected with
    /// [`ShedReason::BatchLatency`]. The queue-depth guard gives the
    /// shedder hysteresis — a briefly slow batch with an empty queue
    /// never sheds, and once the backlog drains admission resumes.
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
            max_batch: 64,
            cache_capacity: 1024,
            max_queue: 4096,
            shed_p99: Duration::ZERO,
            exemplar_threshold: Duration::ZERO,
        }
    }
}

/// The admission check run on every submitting thread: a handful of
/// relaxed atomic reads against the thresholds, so a shed costs nanoseconds
/// and touches neither the queue nor the worker.
#[derive(Debug)]
struct Admission {
    /// [`ServeConfig::max_queue`] (0 = unbounded).
    max_queue: u64,
    /// [`ServeConfig::shed_p99`] in µs (0 = disabled).
    shed_p99_us: u64,
    /// Latency sheds require more than one full micro-batch queued.
    latency_floor: u64,
}

impl Admission {
    fn new(config: &ServeConfig) -> Self {
        Admission {
            max_queue: u64::try_from(config.max_queue).unwrap_or(u64::MAX),
            shed_p99_us: u64::try_from(config.shed_p99.as_micros()).unwrap_or(u64::MAX),
            latency_floor: u64::try_from(config.max_batch.max(1)).unwrap_or(u64::MAX),
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
            && depth > self.latency_floor
            && counters.recent_p99_us.load(Ordering::Relaxed) > self.shed_p99_us
        {
            counters.shed_latency.fetch_add(1, Ordering::Relaxed);
            return Err(ServeError::Overloaded(ShedReason::BatchLatency));
        }
        counters.queue_depth.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }
}

/// A key-fingerprint predicate selecting a cache slice (see
/// [`InstanceKey::fingerprint`]).
pub type KeyFilter = Box<dyn Fn(u64) -> bool + Send>;

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
        reply: TicketCompleter,
        trace: TraceId,
        span: SpanId,
        submitted: Instant,
    },
    Export {
        filter: Option<KeyFilter>,
        reply: mpsc::Sender<CacheSnapshot>,
    },
    Extract {
        filter: KeyFilter,
        reply: mpsc::Sender<CacheSnapshot>,
    },
    Import {
        snapshot: Box<CacheSnapshot>,
        reply: mpsc::Sender<Result<usize, ServeError>>,
    },
    Shutdown,
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
    counters: Arc<Counters>,
    admission: Arc<Admission>,
    recorder: Arc<FlightRecorder>,
    exemplars: Arc<ExemplarStore>,
    slo: Arc<SloTracker>,
    fingerprint: u64,
}

impl TuneService {
    /// Spawns a service whose worker thread owns one scoring session.
    pub fn spawn(ranker: StencilRanker, config: ServeConfig) -> Self {
        let (tx, rx) = mpsc::channel();
        let counters = Arc::new(Counters::default());
        let admission = Arc::new(Admission::new(&config));
        let recorder = Arc::new(FlightRecorder::new(FLIGHT_RECORDER_EVENTS));
        let exemplars = Arc::new(ExemplarStore::new(EXEMPLAR_SLOTS, config.exemplar_threshold));
        // SLO threshold crossings land in the same recorder as the
        // request spans, so a trace dump shows when the budget started
        // burning next to the requests that burned it.
        let slo = Arc::new(SloTracker::with_recorder(SloConfig::default(), Arc::clone(&recorder)));
        let worker_counters = Arc::clone(&counters);
        let worker_recorder = Arc::clone(&recorder);
        let worker_exemplars = Arc::clone(&exemplars);
        let worker_slo = Arc::clone(&slo);
        let fingerprint = ranker.fingerprint();
        let session = TuningSession::new(ranker);
        let worker = std::thread::Builder::new()
            .name("sorl-serve-worker".into())
            .spawn(move || {
                worker_loop(
                    rx,
                    session,
                    config,
                    &worker_counters,
                    &worker_recorder,
                    &worker_exemplars,
                    &worker_slo,
                    fingerprint,
                )
            })
            // sorl-lint: allow(panic, "spawn fails only on thread-resource exhaustion at service construction; there is no service to degrade gracefully yet")
            .expect("spawn sorl-serve worker");
        TuneService {
            tx,
            worker: Some(worker),
            counters,
            admission,
            recorder,
            exemplars,
            slo,
            fingerprint,
        }
    }

    /// A new client handle (cheap, cloneable, usable from any thread).
    pub fn client(&self) -> TuneClient {
        TuneClient {
            tx: self.tx.clone(),
            counters: Arc::clone(&self.counters),
            admission: Arc::clone(&self.admission),
            recorder: Arc::clone(&self.recorder),
            slo: Arc::clone(&self.slo),
        }
    }

    /// A point-in-time snapshot of the service counters.
    pub fn stats(&self) -> ServeStats {
        self.counters.snapshot()
    }

    /// The service's flight recorder: the most recent queue-wait /
    /// scoring spans and cache events, joinable on [`TraceId`] with a
    /// remote client's recorder ([`FlightRecorder::snapshot`]).
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    /// The service's slow-request exemplar store: full span chains of
    /// the slowest recent requests (see [`crate::ExemplarStore`]).
    pub fn exemplars(&self) -> &Arc<ExemplarStore> {
        &self.exemplars
    }

    /// The service's SLO burn-rate tracker (see [`sorl_obs::SloTracker`]).
    pub fn slo(&self) -> &Arc<SloTracker> {
        &self.slo
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
        self.export(None)
    }

    /// Exports the cache slice whose [`InstanceKey::fingerprint`]s satisfy
    /// `filter`, leaving the cache untouched — what a shard hands to a new
    /// owner that is *also* keeping its own copy warm.
    pub fn export_cache(
        &self,
        filter: impl Fn(u64) -> bool + Send + 'static,
    ) -> Result<CacheSnapshot, ServeError> {
        self.export(Some(Box::new(filter)))
    }

    /// Removes and returns the cache slice whose
    /// [`InstanceKey::fingerprint`]s satisfy `filter` — the ownership
    /// handoff of a topology change (the keys now route elsewhere, so
    /// keeping the decisions here would only waste capacity).
    pub fn extract_cache(
        &self,
        filter: impl Fn(u64) -> bool + Send + 'static,
    ) -> Result<CacheSnapshot, ServeError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(Msg::Extract { filter: Box::new(filter), reply })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Replays a snapshot into the live cache (merging with resident
    /// decisions). The snapshot must have been produced under this
    /// service's exact [`ranker_fingerprint`](Self::ranker_fingerprint)
    /// and the current format version; anything else is rejected with
    /// [`ServeError::Snapshot`] without touching the cache. Returns the
    /// number of entries applied.
    pub fn import_cache(&self, snapshot: CacheSnapshot) -> Result<usize, ServeError> {
        let (reply, rx) = mpsc::channel();
        self.tx
            .send(Msg::Import { snapshot: Box::new(snapshot), reply })
            .map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)?
    }

    fn export(&self, filter: Option<KeyFilter>) -> Result<CacheSnapshot, ServeError> {
        let (reply, rx) = mpsc::channel();
        self.tx.send(Msg::Export { filter, reply }).map_err(|_| ServeError::Closed)?;
        rx.recv().map_err(|_| ServeError::Closed)
    }

    /// Shuts the worker down, answering everything already queued first.
    /// Equivalent to dropping the service, but explicit.
    pub fn shutdown(self) {}
}

impl Drop for TuneService {
    fn drop(&mut self) {
        let _ = self.tx.send(Msg::Shutdown);
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// A handle for submitting tuning queries to a [`TuneService`].
#[derive(Debug, Clone)]
pub struct TuneClient {
    tx: mpsc::Sender<Msg>,
    counters: Arc<Counters>,
    admission: Arc<Admission>,
    recorder: Arc<FlightRecorder>,
    slo: Arc<SloTracker>,
}

impl TuneClient {
    /// Enqueues a query and returns a ticket to wait on (or hang a callback
    /// on — see [`TuneTicket`]). Submitting never blocks on the
    /// tuning work itself, and never queues past the admission limits: an
    /// overloaded service answers here, immediately, with
    /// [`ServeError::Overloaded`].
    pub fn submit(&self, instance: StencilInstance, k: usize) -> Result<TuneTicket, ServeError> {
        self.submit_traced(instance, k, TraceId::fresh())
    }

    /// [`submit`](Self::submit) under a caller-provided trace — the entry
    /// point for transports that carried a trace id across the wire. The
    /// request's queue wait and batch events are recorded under `trace`,
    /// so the submitter's recorder and this service's recorder join on
    /// one id.
    pub fn submit_traced(
        &self,
        instance: StencilInstance,
        k: usize,
        trace: TraceId,
    ) -> Result<TuneTicket, ServeError> {
        if let Err(e) = self.admission.try_admit(&self.counters) {
            // A shed request never ran, but the caller still experienced
            // it: it spends error budget.
            self.slo.record_rejected();
            return Err(e);
        }
        let (ticket, reply) = ticket::pair();
        // The queue-wait span opens at admission and is closed by the
        // worker at dequeue; its duration IS the queue delay.
        let span = SpanId::fresh();
        self.recorder.record(EventKind::SpanBegin, trace, span, "queue_wait");
        let msg = Msg::Tune {
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
            self.counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
            self.recorder.record(EventKind::SpanEnd, trace, span, "queue_wait");
            self.slo.record_rejected();
            return Err(ServeError::Closed);
        }
        Ok(ticket)
    }

    /// Submits one query and blocks for its answer.
    pub fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ServeError> {
        self.submit(instance, k)?.wait()
    }

    /// Submits a whole batch up front (giving the worker one coalesced
    /// micro-batch to chew on), then collects every answer in order.
    pub fn tune_many(&self, requests: Vec<TuneRequest>) -> Result<Vec<TopK>, ServeError> {
        let tickets: Result<Vec<TuneTicket>, ServeError> =
            requests.into_iter().map(|r| self.submit(r.instance, r.k)).collect();
        tickets?.into_iter().map(TuneTicket::wait).collect()
    }
}

/// A dequeued tuning request: its canonical key (built once, at dequeue),
/// its completion slot, its trace, and its submission time (for
/// end-to-end latency accounting).
struct Queued {
    req: TuneRequest,
    key: InstanceKey,
    reply: TicketCompleter,
    trace: TraceId,
    submitted: Instant,
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    rx: mpsc::Receiver<Msg>,
    mut session: TuningSession,
    config: ServeConfig,
    counters: &Counters,
    recorder: &FlightRecorder,
    exemplars: &ExemplarStore,
    slo: &SloTracker,
    fingerprint: u64,
) {
    let mut cache = DecisionCache::new(config.cache_capacity);
    let max_batch = config.max_batch.max(1);
    let mut recent = RecentLatencies::new();
    let mut live = true;
    while live {
        let mut batch: Vec<Queued> = Vec::new();
        let mut started = Instant::now();
        while batch.len() < max_batch {
            // Block for the first tuning request, then drain what is
            // queued. A disconnected queue means the same as a shutdown:
            // answer what is drained, then stop.
            let msg = if batch.is_empty() {
                rx.recv().unwrap_or(Msg::Shutdown)
            } else {
                match rx.try_recv() {
                    Ok(msg) => msg,
                    Err(mpsc::TryRecvError::Disconnected) => Msg::Shutdown,
                    Err(mpsc::TryRecvError::Empty) => break,
                }
            };
            match msg {
                Msg::Tune { req, reply, trace, span, submitted } => {
                    // Dequeue releases one admission slot (the depth gauge
                    // counts requests admitted but not yet drained into a
                    // batch) and closes the submitter's queue-wait span.
                    counters.queue_depth.fetch_sub(1, Ordering::Relaxed);
                    recorder.record(EventKind::SpanEnd, trace, span, "queue_wait");
                    if batch.is_empty() {
                        started = Instant::now();
                    }
                    batch.push(Queued { key: req.instance.key(), req, reply, trace, submitted });
                }
                Msg::Shutdown => {
                    live = false;
                    break;
                }
                // Cache-control messages are handled inline; they never
                // join a batch.
                control => handle_control(control, &mut cache, counters, fingerprint),
            }
        }
        serve_batch(
            &mut session,
            &mut cache,
            &config,
            counters,
            recorder,
            exemplars,
            slo,
            &mut recent,
            batch,
            started,
        );
    }
}

/// Handles a cache-control message (export / extract / import) on the
/// worker thread, where the cache lives.
fn handle_control(msg: Msg, cache: &mut DecisionCache, counters: &Counters, fingerprint: u64) {
    match msg {
        Msg::Export { filter, reply } => {
            let snap = match filter {
                Some(f) => cache.snapshot_filtered(fingerprint, f),
                None => cache.snapshot(fingerprint),
            };
            let _ = reply.send(snap);
        }
        Msg::Extract { filter, reply } => {
            let snap = cache.extract(fingerprint, filter);
            counters.cache_entries.store(cache.len() as u64, Ordering::Relaxed);
            let _ = reply.send(snap);
        }
        Msg::Import { snapshot, reply } => {
            let result = cache.restore(&snapshot, fingerprint).map_err(ServeError::from);
            counters.cache_entries.store(cache.len() as u64, Ordering::Relaxed);
            counters.cache_evictions.store(cache.evictions(), Ordering::Relaxed);
            let _ = reply.send(result);
        }
        // Tune and Shutdown are consumed by the worker loop itself.
        // sorl-lint: allow(panic, "the worker loop matches Tune/Shutdown before calling here; reaching this arm is a dispatch bug")
        Msg::Tune { .. } | Msg::Shutdown => unreachable!("not a control message"),
    }
}

/// Requests of one micro-batch sharing an [`InstanceKey`]: scored once,
/// answered many times.
struct Group {
    /// Index (into the batch) of the request whose instance is encoded.
    representative: usize,
    /// Depth to compute: max requested `k` of the members, at least the
    /// cache floor.
    k: usize,
    /// Batch indices answered by this group.
    members: Vec<usize>,
}

#[allow(clippy::too_many_arguments)]
fn serve_batch(
    session: &mut TuningSession,
    cache: &mut DecisionCache,
    config: &ServeConfig,
    counters: &Counters,
    recorder: &FlightRecorder,
    exemplars: &ExemplarStore,
    slo: &SloTracker,
    recent: &mut RecentLatencies,
    batch: Vec<Queued>,
    started: Instant,
) {
    if batch.is_empty() {
        return;
    }
    counters.requests.fetch_add(batch.len() as u64, Ordering::Relaxed);
    counters.batches.fetch_add(1, Ordering::Relaxed);
    counters.max_batch.fetch_max(batch.len() as u64, Ordering::Relaxed);

    // One scoring span per batch, recorded under the first request's
    // trace (a joined timeline shows which batch carried the request);
    // per-request cache hits/misses are instants inside it, each under
    // its own request's trace.
    let batch_trace = batch.first().map(|q| q.trace).unwrap_or_else(TraceId::fresh);
    let batch_span = recorder.span(batch_trace, "score_batch");

    // Pass 1: answer from the cache; group the misses by canonical key so
    // every unique instance is encoded and scored exactly once.
    let k_floor = if config.cache_capacity == 0 { 0 } else { CACHE_K_FLOOR };
    let mut answers: Vec<Option<TopK>> = batch.iter().map(|_| None).collect();
    let mut groups: Vec<Group> = Vec::new();
    let mut group_of: HashMap<&InstanceKey, usize> = HashMap::new();
    for (i, Queued { req, key, trace, .. }) in batch.iter().enumerate() {
        if let Some((entries, candidates)) = cache.lookup(key, req.k) {
            recorder.event(*trace, batch_span.span_id(), "cache_hit");
            if let Some(slot) = answers.get_mut(i) {
                *slot = Some(TopK { entries, candidates, seconds: 0.0 });
            }
            continue;
        }
        recorder.event(*trace, batch_span.span_id(), "cache_miss");
        match group_of.get(key).and_then(|&g| groups.get_mut(g)) {
            Some(group) => {
                group.k = group.k.max(req.k);
                group.members.push(i);
            }
            None => {
                group_of.insert(key, groups.len());
                groups.push(Group { representative: i, k: req.k.max(k_floor), members: vec![i] });
            }
        }
    }

    // Pass 2: one session query per unique instance. Every representative
    // is a batch index recorded by pass 1, so the `get` never misses.
    for g in &groups {
        let Some(rep) = batch.get(g.representative) else { continue };
        let top = session.top_k_predefined(&rep.req.instance, g.k);
        cache.insert(rep.key.clone(), top.entries.clone(), top.candidates);
        for &i in &g.members {
            let Some(q) = batch.get(i) else { continue };
            let Some(slot) = answers.get_mut(i) else { continue };
            *slot = Some(TopK {
                entries: top.entries.iter().take(q.req.k).cloned().collect(),
                candidates: top.candidates,
                seconds: top.seconds,
            });
        }
    }
    counters.scored_instances.fetch_add(groups.len() as u64, Ordering::Relaxed);

    // Publish the counters and histograms BEFORE replying: a client that
    // reads `stats()` right after its answer arrives must see this batch.
    counters.cache_hits.store(cache.hits(), Ordering::Relaxed);
    counters.cache_misses.store(cache.misses(), Ordering::Relaxed);
    counters.cache_evictions.store(cache.evictions(), Ordering::Relaxed);
    counters.cache_entries.store(cache.len() as u64, Ordering::Relaxed);
    let latency = started.elapsed();
    counters.record_batch(batch.len(), latency);
    // The rolling p99 the latency shedder reads: unlike the all-time
    // histogram it *recovers* once slow batches age out of the window, so
    // a past overload episode does not shed forever.
    counters.recent_p99_us.store(recent.record_p99_us(latency), Ordering::Relaxed);

    // Close the scoring span before the replies go out, mirroring the
    // publish-before-reply contract for the counters above.
    drop(batch_span);

    // Pass 3: complete the tickets (a dropped ticket is fine — the client
    // gave up; completing it is a no-op nobody observes), then account
    // each request's end-to-end latency. Accounting runs AFTER the
    // completion because `on_ready` callbacks fire on this thread — a
    // transport's reply span has already closed by the time the
    // exemplar snapshot is taken, so the captured chain is complete.
    for (Queued { reply, trace, submitted, .. }, answer) in batch.into_iter().zip(answers) {
        // sorl-lint: allow(panic, "pass 1 or pass 2 filled every slot: each miss joined a group and every group was scored")
        reply.complete(Ok(answer.expect("every request answered")));
        let latency = submitted.elapsed();
        slo.record(latency, true);
        if exemplars.observe(latency) {
            exemplars.capture(trace, latency, recorder.dump("service", Some(trace)).events);
        }
    }
}
