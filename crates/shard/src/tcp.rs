//! The cross-host shard transport: [`TcpShard`] (a router's connection to
//! a shard in another process or on another host) and [`ShardServer`] (the
//! accept loop that fronts a [`TuneService`] with the wire protocol).
//!
//! Both ends speak the one framed protocol of [`crate::wire`], and both
//! ends **multiplex**: a link carries many in-flight requests at once,
//! each stamped with a request id. The client keeps a pending-request
//! table and one reader thread per link that routes response frames back
//! to their waiting callers, reading a snapshot stream inline when its
//! header arrives (a stream's frames are contiguous on the wire). Each end
//! reads its socket through one buffered reader held for the connection's
//! life, and waits for a frame with [`wire::next_frame`]. The server's
//! reader writes every reply it has at hand (a cache hit, answered at
//! submit, every fault, shed and control reply) under the connection's
//! write lock; a writer thread writes the tune replies the service worker
//! completes later, so the worker never blocks on a socket and a single
//! connection pipelines instead of lock-stepping call/response. Each frame
//! kind has one payload codec, so neither side negotiates anything: the
//! link is ready the moment the dial succeeds, and a peer on another
//! protocol version fails the first frame it reads with a version fault.
//!
//! Observability: every [`TcpShard`] keeps [`LinkStats`] (dials,
//! reconnects, poisoned links) and a client-side [`FlightRecorder`] whose
//! `tune` spans carry the [`TraceId`] that request frames ship to the
//! server; [`ShardServer::metrics_source`] exposes the fronted service's
//! counters plus the per-server link aggregates as one Prometheus page
//! ([`ShardServer::serve_metrics`] serves it over HTTP).
//!
//! Overload surfaces as backpressure, not timeouts: the client caps its
//! own in-flight requests per link (submitters wait), and the server caps
//! the tunes a connection holds until their replies are written,
//! fast-rejecting past the cap with an [`ShedReason::LinkInFlight`] fault
//! — on top of whatever admission control the fronted service applies. A
//! peer that stops reading stalls only its own reader, which then stops
//! reading its requests.
//!
//! Anything malformed — wrong magic or version, garbage bytes, a peer
//! closing mid-request, a response for a request id that was never issued,
//! a corrupted snapshot chunk, another frame inside a snapshot stream —
//! surfaces as [`ServeError::Transport`] on the caller without touching
//! any cache or topology (the router's error paths are side-effect-free
//! by construction).
//!
//! A `TcpShard` holds **one** connection (the router's link to that
//! shard). A failed dial is retried four times, after pauses of 25, 50,
//! 100 and 200 ms ([`TcpShard::without_redial_backoff`] dials once);
//! after a transport error the connection is dropped and the next call
//! redials (again with the pauses), so a restarted shard server is picked
//! up without router surgery. There is still no retry of a *request* — a
//! call that failed in flight fails its caller.
//!
//! Handlers hold the service only weakly, so dropping the [`ShardServer`]
//! shuts the underlying service down even while connections are open
//! (subsequent requests on them are answered with a `closed` fault).

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, MutexGuard, PoisonError, Weak};
use std::time::{Duration, Instant};

use sorl::tuner::TopK;
use sorl_obs::{
    EventKind, FlightRecorder, MetricsServer, MetricsSource, PromWriter, SpanId, TraceId,
};
use sorl_serve::{CacheSnapshot, ServeError, ServeStats, ShedReason, TuneRequest, TuneService};
use stencil_model::StencilInstance;

use crate::routing::CacheSlice;
use crate::transport::ShardTransport;
use crate::wire::{self, bin, FrameKind, WireError};

/// Locks `m`, recovering from poisoning instead of panicking: every
/// state these mutexes protect (the connection slot, [`MuxState`],
/// writer/stream handles) is structurally valid at every step, and a
/// link whose protocol state actually desynced marks itself dead via
/// `MuxState::dead` — so a panic on some other thread must surface as a
/// transport error and a redial, not cascade through every client.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// The socket timeout of every link a [`TcpShard`] dials (each read and
/// write), and the cap on how long a multiplexed caller waits for its
/// response. A tuning pass is milliseconds; a peer silent this long is
/// treated as gone.
pub const DEFAULT_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// Default cap on a [`TcpShard`]'s own in-flight requests per link.
pub const DEFAULT_CLIENT_IN_FLIGHT: usize = 64;

/// The pauses before each retry of a failed dial (never of a request):
/// 25 ms doubling over four retries rides out a shard restart without
/// masking a dead host for long.
const REDIAL_BACKOFF: [Duration; 4] = [
    Duration::from_millis(25),
    Duration::from_millis(50),
    Duration::from_millis(100),
    Duration::from_millis(200),
];

// ---------------------------------------------------------------------------
// Client
// ---------------------------------------------------------------------------

/// Events the client-side flight recorder holds (one `tune` span is two
/// events; 1024 covers the most recent ~500 remote tunes).
const CLIENT_FLIGHT_RECORDER_EVENTS: usize = 1024;

/// A point-in-time view of one [`TcpShard`]'s link health
/// ([`TcpShard::link_stats`]): how often it dialed or abandoned a
/// poisoned connection, plus the live in-flight count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkStats {
    /// Successful TCP connects (the initial dial included).
    pub dials: u64,
    /// Links re-established after the initial one (a restart ridden out,
    /// or a poisoned link replaced).
    pub reconnects: u64,
    /// Connections abandoned after a transport failure (the next call
    /// redials).
    pub poisoned: u64,
    /// Requests currently in flight on the live link (0 when
    /// disconnected).
    pub in_flight: usize,
}

/// Internal [`LinkStats`] cells. Relaxed everywhere: diagnostics, never
/// synchronization.
#[derive(Debug, Default)]
struct LinkCounters {
    dials: AtomicU64,
    reconnects: AtomicU64,
    poisoned: AtomicU64,
}

/// A [`ShardTransport`] over one TCP connection to a [`ShardServer`].
#[derive(Debug)]
pub struct TcpShard {
    addr: SocketAddr,
    /// The pauses before each redial: [`REDIAL_BACKOFF`], or none.
    redial_backoff: &'static [Duration],
    max_in_flight: usize,
    /// The live link; `None` before the first dial of a lazy shard and
    /// after a transport failure poisoned the previous link.
    conn: Mutex<Option<Arc<MuxLink>>>,
    counters: LinkCounters,
    recorder: Arc<FlightRecorder>,
}

impl TcpShard {
    /// Connects to a shard server, verifying reachability eagerly (the
    /// connection is then kept for subsequent calls).
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let shard = Self::connect_lazy(addr)?;
        let link = MuxLink::open(shard.dial()?)?;
        *lock_recover(&shard.conn) = Some(link);
        Ok(shard)
    }

    /// Like [`connect`](Self::connect), but without the eager dial: the
    /// first call dials (with the redial pauses). For tools that
    /// must come up while some shards are still down (`sorl-top`).
    pub fn connect_lazy(addr: impl ToSocketAddrs) -> io::Result<Self> {
        let addr = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address resolved"))?;
        Ok(TcpShard {
            addr,
            redial_backoff: &REDIAL_BACKOFF,
            max_in_flight: DEFAULT_CLIENT_IN_FLIGHT,
            conn: Mutex::new(None),
            counters: LinkCounters::default(),
            recorder: Arc::new(FlightRecorder::new(CLIENT_FLIGHT_RECORDER_EVENTS)),
        })
    }

    /// Dials once, with no pause and no retry (builder style): for a
    /// dashboard that must fail fast on a dead shard (`sorl-top`).
    pub fn without_redial_backoff(mut self) -> Self {
        self.redial_backoff = &[];
        self
    }

    /// Replaces the per-link in-flight cap (builder style; min 1).
    /// Submitting callers past the cap *wait* — backpressure, not a shed.
    /// A cap of 1 makes the link lock-step: one request at a time.
    pub fn with_max_in_flight(mut self, max_in_flight: usize) -> Self {
        self.max_in_flight = max_in_flight.max(1);
        self
    }

    /// The server address this shard dials.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// This link's dial / poison counters and live in-flight count — the
    /// per-link half of a fleet metrics page.
    pub fn link_stats(&self) -> LinkStats {
        // sorl-lint: allow(atomic, "diagnostic counter reads; no ordering required")
        let relaxed = Ordering::Relaxed;
        let in_flight =
            lock_recover(&self.conn).as_ref().map_or(0, |link| lock_recover(&link.state).in_flight);
        LinkStats {
            dials: self.counters.dials.load(relaxed),
            reconnects: self.counters.reconnects.load(relaxed),
            poisoned: self.counters.poisoned.load(relaxed),
            in_flight,
        }
    }

    /// The client-side flight recorder: one `tune` span per remote call,
    /// under the same [`TraceId`] the server's recorder sees.
    pub fn flight_recorder(&self) -> &Arc<FlightRecorder> {
        &self.recorder
    }

    fn dial(&self) -> io::Result<TcpStream> {
        let stream = TcpStream::connect_timeout(&self.addr, DEFAULT_IO_TIMEOUT)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        stream.set_write_timeout(Some(DEFAULT_IO_TIMEOUT))?;
        // sorl-lint: allow(atomic, "diagnostic counter; no ordering required")
        self.counters.dials.fetch_add(1, Ordering::Relaxed);
        Ok(stream)
    }

    /// Dials, sleeping out the redial pauses between failed attempts
    /// before the error finally surfaces.
    fn dial_retrying(&self) -> Result<TcpStream, ServeError> {
        let mut pauses = self.redial_backoff.iter();
        let mut attempts = 1;
        loop {
            match (self.dial(), pauses.next()) {
                (Ok(stream), _) => return Ok(stream),
                (Err(_), Some(pause)) => {
                    std::thread::sleep(*pause);
                    attempts += 1;
                }
                (Err(e), None) => {
                    return Err(ServeError::Transport(format!(
                        "connect to {} failed after {attempts} attempt(s): {e}",
                        self.addr
                    )));
                }
            }
        }
    }

    /// Returns the live link, redialing if the slot is empty or its link
    /// is poisoned.
    fn link(&self) -> Result<Arc<MuxLink>, ServeError> {
        let mut slot = lock_recover(&self.conn);
        if let Some(link) = &*slot {
            if !link.is_dead() {
                return Ok(Arc::clone(link));
            }
            // sorl-lint: allow(atomic, "diagnostic counter; no ordering required")
            self.counters.poisoned.fetch_add(1, Ordering::Relaxed);
        }
        *slot = None;
        let stream = self.dial_retrying()?;
        // sorl-lint: allow(atomic, "diagnostic counter; no ordering required")
        self.counters.reconnects.fetch_add(1, Ordering::Relaxed);
        let link = MuxLink::open(stream)
            .map_err(|e| ServeError::Transport(format!("open link to {}: {e}", self.addr)))?;
        *slot = Some(Arc::clone(&link));
        Ok(link)
    }

    /// Runs one exchange on the live link — register, `write` the request
    /// frames, await the outcome — and decodes the answer. On a
    /// transport-level failure (an undecodable answer included) the
    /// connection is dropped, so the next call redials (e.g. against a
    /// restarted server).
    fn call<T>(
        &self,
        expect: FrameKind,
        write: impl FnOnce(&mut TcpStream, u64) -> Result<(), WireError>,
        decode: impl FnOnce(Outcome) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        let link = self.link()?;
        let result = link.call(expect, self.max_in_flight, write).and_then(decode);
        if matches!(result, Err(ServeError::Transport(_))) {
            let mut slot = lock_recover(&self.conn);
            if slot.as_ref().is_some_and(|current| Arc::ptr_eq(current, &link)) {
                *slot = None;
                // sorl-lint: allow(atomic, "diagnostic counter; no ordering required")
                self.counters.poisoned.fetch_add(1, Ordering::Relaxed);
            }
        }
        result
    }

    /// One request frame answered by one `reply` frame.
    fn request<T>(
        &self,
        kind: FrameKind,
        payload: &[u8],
        reply: FrameKind,
        trace_id: u64,
        decode: impl FnOnce(&[u8]) -> Result<T, ServeError>,
    ) -> Result<T, ServeError> {
        self.call(
            reply,
            |stream, id| wire::write_frame(stream, kind, id, trace_id, payload),
            |outcome| decode(&outcome.into_payload()?),
        )
    }

    /// One request frame answered by a snapshot stream.
    fn request_snapshot(
        &self,
        kind: FrameKind,
        payload: &[u8],
    ) -> Result<CacheSnapshot, ServeError> {
        self.call(
            FrameKind::SnapshotHeader,
            |stream, id| wire::write_frame(stream, kind, id, 0, payload),
            Outcome::into_snapshot,
        )
    }
}

impl ShardTransport for TcpShard {
    fn tune(&self, instance: StencilInstance, k: usize) -> Result<TopK, ServeError> {
        // The whole remote call is one client-side span; the request
        // frame ships its trace id, so the server's recorder stamps its
        // queue-wait and scoring spans with the same trace.
        let span = self.recorder.span(TraceId::fresh(), "tune");
        let trace_id = span.trace().as_u64();
        let payload = wire::to_payload(&TuneRequest::new(instance, k));
        let result =
            self.request(FrameKind::Tune, &payload, FrameKind::TuneOk, trace_id, bin::decode_top_k);
        if result.is_err() {
            span.event("error");
        }
        result
    }

    fn ranker_fingerprint(&self) -> Result<u64, ServeError> {
        self.request(FrameKind::Fingerprint, &[], FrameKind::FingerprintOk, 0, wire::from_payload)
    }

    fn stats(&self) -> Result<ServeStats, ServeError> {
        self.request(FrameKind::Stats, &[], FrameKind::StatsOk, 0, bin::decode_stats)
    }

    fn export_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.request_snapshot(FrameKind::ExportCache, &wire::to_payload(slice))
    }

    fn extract_cache(&self, slice: &CacheSlice) -> Result<CacheSnapshot, ServeError> {
        self.request_snapshot(FrameKind::ExtractCache, &wire::to_payload(slice))
    }

    fn import_cache(&self, snapshot: CacheSnapshot) -> Result<usize, ServeError> {
        let (header, chunks) = bin::snapshot_to_chunks(&snapshot, wire::CHUNK_ENTRIES);
        let header = wire::to_payload(&header);
        // Header and chunks go out contiguously under the writer lock, so
        // the server can read the stream inline.
        self.call(
            FrameKind::ImportOk,
            |stream, id| {
                wire::write_frame(stream, FrameKind::ImportCache, id, 0, &header)?;
                wire::write_chunk_frames(stream, id, &chunks)
            },
            |outcome| wire::from_payload(&outcome.into_payload()?),
        )
    }

    fn trace_dump(&self, trace: Option<TraceId>) -> Result<wire::TraceDumpReply, ServeError> {
        let query = wire::TraceQuery { trace: trace.map(TraceId::as_u64).unwrap_or(0) };
        let payload = wire::to_payload(&query);
        self.request(FrameKind::TraceDump, &payload, FrameKind::TraceDumpOk, 0, wire::from_payload)
    }
}

/// What a completed request resolved to.
#[derive(Debug)]
enum Outcome {
    Payload(Vec<u8>),
    Snapshot(Box<CacheSnapshot>),
}

impl Outcome {
    fn into_payload(self) -> Result<Vec<u8>, ServeError> {
        match self {
            Outcome::Payload(payload) => Ok(payload),
            Outcome::Snapshot(_) => {
                Err(ServeError::Transport("snapshot stream answered a plain request".into()))
            }
        }
    }

    fn into_snapshot(self) -> Result<CacheSnapshot, ServeError> {
        match self {
            Outcome::Snapshot(snapshot) => Ok(*snapshot),
            Outcome::Payload(_) => {
                Err(ServeError::Transport("plain frame answered a snapshot request".into()))
            }
        }
    }
}

#[derive(Debug)]
struct PendingRequest {
    /// The reply's frame kind; [`FrameKind::SnapshotHeader`] for a
    /// snapshot stream.
    expect: FrameKind,
    done: Option<Result<Outcome, ServeError>>,
}

#[derive(Debug)]
struct MuxState {
    next_id: u64,
    in_flight: usize,
    pending: HashMap<u64, PendingRequest>,
    /// Set once the link is unusable; every pending and future request on
    /// it fails with this message.
    dead: Option<String>,
}

/// One connection: callers register in a pending table keyed by request
/// id and write under one writer lock; a reader thread routes response
/// frames back and wakes them.
#[derive(Debug)]
struct MuxLink {
    writer: Mutex<TcpStream>,
    state: Mutex<MuxState>,
    ready: Condvar,
}

impl MuxLink {
    /// Wraps a freshly dialed stream and starts its reader thread, which
    /// holds the link only weakly so dropping the last caller's handle
    /// closes the connection.
    fn open(stream: TcpStream) -> io::Result<Arc<MuxLink>> {
        let reader = stream.try_clone()?;
        let link = Arc::new(MuxLink {
            writer: Mutex::new(stream),
            state: Mutex::new(MuxState {
                next_id: 1,
                in_flight: 0,
                pending: HashMap::new(),
                dead: None,
            }),
            ready: Condvar::new(),
        });
        let weak = Arc::downgrade(&link);
        std::thread::Builder::new()
            .name("sorl-shard-link".into())
            .spawn(move || mux_reader(reader, &weak))?;
        Ok(link)
    }

    fn is_dead(&self) -> bool {
        lock_recover(&self.state).dead.is_some()
    }

    /// Admits one request: waits (backpressure) while the link is at
    /// `max_in_flight`, then registers a fresh id in the pending table.
    fn begin(&self, expect: FrameKind, max_in_flight: usize) -> Result<u64, ServeError> {
        let deadline = Instant::now() + DEFAULT_IO_TIMEOUT;
        let mut state = lock_recover(&self.state);
        loop {
            if let Some(reason) = &state.dead {
                return Err(ServeError::Transport(reason.clone()));
            }
            if state.in_flight < max_in_flight {
                break;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ServeError::Transport(format!(
                    "link backpressure: {} requests in flight for longer than {:?}",
                    state.in_flight, DEFAULT_IO_TIMEOUT
                )));
            }
            let (guard, _) = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
        let id = state.next_id;
        state.next_id += 1;
        state.in_flight += 1;
        state.pending.insert(id, PendingRequest { expect, done: None });
        Ok(id)
    }

    /// One full exchange: register, write, await.
    fn call(
        &self,
        expect: FrameKind,
        max_in_flight: usize,
        write: impl FnOnce(&mut TcpStream, u64) -> Result<(), WireError>,
    ) -> Result<Outcome, ServeError> {
        let id = self.begin(expect, max_in_flight)?;
        {
            let mut stream = lock_recover(&self.writer);
            if let Err(e) = write(&mut stream, id) {
                // A half-written frame desyncs the whole link, not just
                // this request.
                drop(stream);
                self.fail_all(&format!("send failed: {e}"));
            }
        }
        self.await_done(id)
    }

    /// Blocks until the reader resolves request `id` (or the wait times
    /// out, which poisons the link — its socket state is unknowable).
    fn await_done(&self, id: u64) -> Result<Outcome, ServeError> {
        let deadline = Instant::now() + DEFAULT_IO_TIMEOUT;
        let mut state = lock_recover(&self.state);
        loop {
            let entry = state.pending.get_mut(&id);
            if let Some(done) = entry.and_then(|p| p.done.take()) {
                state.pending.remove(&id);
                state.in_flight -= 1;
                // Wake both backpressure waiters and other awaiting
                // callers.
                self.ready.notify_all();
                return done;
            }
            let now = Instant::now();
            if now >= deadline {
                state.pending.remove(&id);
                state.in_flight -= 1;
                let reason = format!("no response within {DEFAULT_IO_TIMEOUT:?}");
                Self::poison(&mut state, &reason);
                self.ready.notify_all();
                return Err(ServeError::Transport(reason));
            }
            let (guard, _) = self
                .ready
                .wait_timeout(state, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            state = guard;
        }
    }

    /// Marks the link dead and fails every pending request. Idempotent —
    /// the first reason wins.
    fn fail_all(&self, reason: &str) {
        let mut state = lock_recover(&self.state);
        Self::poison(&mut state, reason);
        self.ready.notify_all();
    }

    fn poison(state: &mut MuxState, reason: &str) {
        if state.dead.is_none() {
            state.dead = Some(reason.to_string());
        }
        for pending in state.pending.values_mut() {
            if pending.done.is_none() {
                pending.done = Some(Err(ServeError::Transport(reason.to_string())));
            }
        }
    }
}

impl Drop for MuxLink {
    fn drop(&mut self) {
        // Wake the reader thread out of its blocking read so it exits now:
        // the shutdown ends the read with an EOF or an error.
        let _ = lock_recover(&self.writer).shutdown(Shutdown::Both);
    }
}

/// The per-link reader: routes every incoming frame to its pending
/// request. Exits when the peer hangs up, the protocol is violated (after
/// failing all pending requests), or the owning link is dropped. Reads
/// run under the dial's [`DEFAULT_IO_TIMEOUT`]; a read that times out
/// while idle only checks, as a backstop to the socket shutdown in
/// `MuxLink`'s `Drop`, that the link is still alive.
fn mux_reader(stream: TcpStream, link: &Weak<MuxLink>) {
    let mut reader = BufReader::new(stream);
    loop {
        let frame = match wire::next_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            Ok(None) if link.strong_count() > 0 => continue,
            Ok(None) => return,
            Err(e) => {
                fail_link(link, &e.to_string());
                break;
            }
        };
        let Some(mux) = link.upgrade() else { return };
        if route_frame(&mux, frame, &mut reader).is_err() {
            break;
        }
    }
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// Routes one incoming frame, reading a snapshot stream inline when its
/// header arrives. `Err` means the link is poisoned and the reader must
/// exit.
fn route_frame(
    mux: &MuxLink,
    frame: wire::Frame,
    reader: &mut BufReader<TcpStream>,
) -> Result<(), ()> {
    let id = frame.request_id;
    let mut state = lock_recover(&mux.state);
    let expect = state.pending.get(&id).map(|pending| pending.expect);
    let done = match (expect, frame.kind) {
        // A response for a request never issued (or long abandoned): the
        // stream can no longer be trusted. An Error frame is the one
        // exception worth decoding — a server announcing shutdown or a
        // protocol fault uses id 0 — but it still kills the link.
        (None, FrameKind::Error) => {
            Err(format!("server fault: {}", wire::decode_fault(&frame.payload)))
        }
        (None, kind) => Err(format!("server sent {kind:?} for unknown request id {id}")),
        (Some(_), FrameKind::Error) => Ok(Err(wire::decode_fault(&frame.payload))),
        (Some(FrameKind::SnapshotHeader), FrameKind::SnapshotHeader) => {
            // The chunks follow the header contiguously. They are read
            // with the state unlocked, so callers can register meanwhile.
            drop(state);
            let read = wire::from_payload(&frame.payload)
                .and_then(|header| wire::read_snapshot_chunks(reader, header, id));
            state = lock_recover(&mux.state);
            match read {
                // Torn, corrupted, foreign or over a bound: the stream's
                // framing may be anywhere, so the link is poisoned. A
                // stream that verifies but does not decode fails only its
                // call.
                Err(ServeError::Transport(reason)) => Err(reason),
                read => Ok(read.map(|snapshot| Outcome::Snapshot(Box::new(snapshot)))),
            }
        }
        (Some(want), kind) if kind == want => Ok(Ok(Outcome::Payload(frame.payload))),
        (Some(_), kind) => Err(format!("unexpected {kind:?} frame for request {id}")),
    };
    let routed = match done {
        Ok(done) => {
            if let Some(pending) = state.pending.get_mut(&id) {
                pending.done = Some(done);
            }
            Ok(())
        }
        Err(reason) => {
            MuxLink::poison(&mut state, &reason);
            Err(())
        }
    };
    mux.ready.notify_all();
    routed
}

fn fail_link(link: &Weak<MuxLink>, reason: &str) {
    if let Some(mux) = link.upgrade() {
        mux.fail_all(reason);
    }
}

// ---------------------------------------------------------------------------
// Server
// ---------------------------------------------------------------------------

/// [`ShardServer`] knobs.
#[derive(Debug, Clone, Copy)]
pub struct ShardServerConfig {
    /// Cap on the tunes a connection holds, each from admission until its
    /// reply is written: so also on the worker's replies a slow reader
    /// makes it hold. A request past the cap is fast-rejected with an
    /// [`ServeError::Overloaded`]`(`[`ShedReason::LinkInFlight`]`)` fault.
    pub max_in_flight: usize,
}

impl Default for ShardServerConfig {
    fn default() -> Self {
        ShardServerConfig { max_in_flight: 256 }
    }
}

/// Per-server connection aggregates, shared by every handler thread and
/// readable by the metrics endpoint. Relaxed everywhere: diagnostics,
/// never synchronization.
#[derive(Debug, Default)]
struct ServerCounters {
    /// Router links ever accepted.
    accepted: AtomicU64,
    /// Router links currently open (gauge).
    open: AtomicU64,
    /// Tunes whose replies are not yet written, across connections (gauge).
    in_flight: AtomicU64,
}

/// A TCP server fronting one [`TuneService`] — the in-process half of
/// `sorl-shardd`.
///
/// [`spawn`](Self::spawn) binds, then accepts on a background thread; each
/// accepted connection gets a reader thread (parses requests, submits
/// non-blocking tickets, writes every reply at hand) and a writer thread
/// (writes the replies the worker completes, in whatever order it
/// finishes them, which lets one connection pipeline). The server owns
/// the service; handlers only hold it weakly, so dropping the
/// `ShardServer` shuts the service down even while router links are open.
#[derive(Debug)]
pub struct ShardServer {
    service: Arc<TuneService>,
    addr: SocketAddr,
    closing: Arc<std::sync::atomic::AtomicBool>,
    counters: Arc<ServerCounters>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl ShardServer {
    /// Binds `addr` (use port 0 for an OS-assigned port) and starts
    /// accepting router links, with default [`ShardServerConfig`].
    pub fn spawn(service: TuneService, addr: impl ToSocketAddrs) -> io::Result<Self> {
        Self::spawn_with(service, addr, ShardServerConfig::default())
    }

    /// Like [`spawn`](Self::spawn) with explicit knobs.
    pub fn spawn_with(
        service: TuneService,
        addr: impl ToSocketAddrs,
        config: ShardServerConfig,
    ) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let service = Arc::new(service);
        let weak = Arc::downgrade(&service);
        let closing = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let closing_flag = Arc::clone(&closing);
        let counters = Arc::new(ServerCounters::default());
        let accept_counters = Arc::clone(&counters);
        let accept_thread =
            std::thread::Builder::new().name("sorl-shardd-accept".into()).spawn(move || {
                accept_loop(&listener, &weak, &closing_flag, &accept_counters, config)
            })?;
        Ok(ShardServer { service, addr, closing, counters, accept_thread: Some(accept_thread) })
    }

    /// The bound address (with the OS-assigned port resolved).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The underlying service (for local snapshots, stats, warm imports).
    pub fn service(&self) -> &TuneService {
        &self.service
    }

    /// A [`MetricsSource`] rendering this server's whole story per
    /// scrape: the fronted service's counters and latency histograms
    /// (`sorl_serve_*`), connection-level aggregates (`sorl_link_*`),
    /// and the service flight recorder's depth. The source holds the
    /// service only weakly, so it never keeps a dropped server alive.
    pub fn metrics_source(&self) -> Arc<dyn MetricsSource> {
        Arc::new(ShardServerMetrics {
            service: Arc::downgrade(&self.service),
            counters: Arc::clone(&self.counters),
        })
    }

    /// Spawns a [`MetricsServer`] on `bind` (e.g. `"127.0.0.1:9091"`)
    /// serving [`metrics_source`](Self::metrics_source) until dropped:
    /// `curl http://bind/metrics`.
    pub fn serve_metrics(&self, bind: impl ToSocketAddrs) -> io::Result<MetricsServer> {
        MetricsServer::spawn(bind, self.metrics_source())
    }
}

/// The [`MetricsSource`] behind [`ShardServer::metrics_source`].
struct ShardServerMetrics {
    service: Weak<TuneService>,
    counters: Arc<ServerCounters>,
}

impl MetricsSource for ShardServerMetrics {
    fn collect(&self, w: &mut PromWriter) {
        if let Some(service) = self.service.upgrade() {
            service.stats().collect_prometheus(w);
            let recorder = service.flight_recorder();
            w.gauge(
                "sorl_flight_recorder_depth",
                "Events resident in the service flight recorder.",
                recorder.depth() as f64,
            );
            w.counter(
                "sorl_flight_recorder_dropped_total",
                "Flight-recorder events lost to claim races.",
                recorder.dropped(),
            );
            service.exemplars().collect_prometheus(w);
            service.slo().collect_prometheus(w);
        }
        // sorl-lint: allow(atomic, "diagnostic counter reads; no ordering required")
        let relaxed = Ordering::Relaxed;
        w.counter(
            "sorl_link_connections_accepted_total",
            "Router links ever accepted.",
            self.counters.accepted.load(relaxed),
        );
        w.gauge(
            "sorl_link_connections_open",
            "Router links currently open.",
            self.counters.open.load(relaxed) as f64,
        );
        w.gauge(
            "sorl_link_in_flight",
            "Tuning requests in flight across all connections.",
            self.counters.in_flight.load(relaxed) as f64,
        );
    }
}

impl Drop for ShardServer {
    fn drop(&mut self) {
        // Stop the accept loop deterministically so the listener (and its
        // port) is released now, not at process exit: raise the closing
        // flag, then poke the listener with a throwaway connection to wake
        // the blocking `accept`. Joining only makes sense if the poke
        // landed — otherwise the loop may still be parked in `accept` and
        // the join would hang (it then dies with the process, the
        // pre-existing behavior).
        self.closing.store(true, std::sync::atomic::Ordering::SeqCst);
        let mut poke_addr = self.addr;
        if poke_addr.ip().is_unspecified() {
            poke_addr.set_ip(match poke_addr {
                SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
            });
        }
        let poked = TcpStream::connect_timeout(&poke_addr, Duration::from_secs(1)).is_ok();
        if let Some(thread) = self.accept_thread.take() {
            if poked {
                let _ = thread.join();
            }
        }
        // `service` drops next, shutting the worker down; open connection
        // handlers notice the dead Weak within one idle poll and exit.
    }
}

fn accept_loop(
    listener: &TcpListener,
    service: &Weak<TuneService>,
    closing: &std::sync::atomic::AtomicBool,
    counters: &Arc<ServerCounters>,
    config: ShardServerConfig,
) {
    for stream in listener.incoming() {
        if closing.load(std::sync::atomic::Ordering::SeqCst) {
            return; // drops the listener, releasing the port
        }
        let Ok(stream) = stream else {
            // Persistent accept errors (EMFILE when the fd limit is hit,
            // ECONNABORTED storms) would otherwise spin this loop at 100%
            // CPU; a short sleep sheds load until the condition clears.
            std::thread::sleep(Duration::from_millis(50));
            continue;
        };
        let service = Weak::clone(service);
        counters.accepted.fetch_add(1, Ordering::AcqRel);
        counters.open.fetch_add(1, Ordering::AcqRel);
        let conn_counters = Arc::clone(counters);
        let name = "sorl-shardd-conn".to_string();
        let spawned = std::thread::Builder::new().name(name).spawn(move || {
            handle_connection(stream, &service, &conn_counters, config);
            conn_counters.open.fetch_sub(1, Ordering::AcqRel);
        });
        if spawned.is_err() {
            counters.open.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// The read and write timeout of every accepted connection. A read that
/// times out before a frame's first byte only re-checks the service: an
/// idle link is healthy and waits forever. A peer that stalls once a
/// frame has begun, or stops reading the replies, is gone.
const SERVER_IO_TIMEOUT: Duration = Duration::from_secs(30);

/// What one connection's reader thread, writer thread and pending ticket
/// hooks share: the write half behind one lock, and the count of tunes
/// whose replies the connection still holds.
struct Conn {
    writer: Mutex<TcpStream>,
    in_flight: AtomicUsize,
    counters: Arc<ServerCounters>,
}

impl Conn {
    /// Writes under the write lock. A failed write (the peer stopped
    /// reading for the I/O timeout, or is gone) may have left half a
    /// frame, so it shuts the connection down.
    fn write(&self, write: impl FnOnce(&mut TcpStream) -> Result<(), WireError>) -> LinkState {
        let mut stream = lock_recover(&self.writer);
        let wrote = write(&mut stream);
        if wrote.is_err() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        wrote.map_err(|_| ())
    }

    fn frame(&self, request_id: u64, trace_id: u64, kind: FrameKind, payload: &[u8]) -> LinkState {
        self.write(|stream| wire::write_frame(stream, kind, request_id, trace_id, payload))
    }

    fn fault(&self, request_id: u64, trace_id: u64, fault: &ServeError) -> LinkState {
        self.frame(request_id, trace_id, FrameKind::Error, &wire::encode_fault(fault))
    }

    fn tune_reply(&self, id: u64, trace: u64, outcome: Result<TopK, ServeError>) -> LinkState {
        match outcome {
            Ok(top) => self.frame(id, trace, FrameKind::TuneOk, &bin::encode_top_k(&top)),
            Err(fault) => self.fault(id, trace, &fault),
        }
    }
}

/// A tune's in-flight slot on its connection and in the server gauge,
/// released on drop: once its reply is written, or dropped unwritten.
struct InFlight(Arc<Conn>);

impl Drop for InFlight {
    fn drop(&mut self) {
        self.0.in_flight.fetch_sub(1, Ordering::AcqRel);
        self.0.counters.in_flight.fetch_sub(1, Ordering::AcqRel);
    }
}

/// A tune reply the worker completed, queued for the connection's writer
/// thread; it holds the tune's in-flight slot until it is written.
struct WriteJob {
    request_id: u64,
    trace_id: u64,
    outcome: Result<TopK, ServeError>,
    _slot: InFlight,
}

/// The per-connection writer: writes the tune replies the worker
/// completes, in completion order, so the worker never blocks on a peer's
/// socket. Exits once every sender (the reader plus the hooks of pending
/// tickets) is gone; after a failed write the socket is shut down, and
/// the replies still to come fail at once and release their slots.
fn write_loop(conn: &Conn, jobs: mpsc::Receiver<WriteJob>) {
    for job in jobs {
        let _ = conn.tune_reply(job.request_id, job.trace_id, job.outcome);
    }
}

/// Serves one router link until the peer goes away or violates the
/// protocol. Well-framed application errors are answered with an error
/// frame and the link stays up; anything that desyncs the stream gets a
/// best-effort error frame and the connection is closed. The socket
/// timeouts only bite *mid-frame* (or on stalled writes): waiting for the
/// start of the next request is untimed, so idle router links stay up.
/// Every read of the socket goes through one buffered reader.
fn handle_connection(
    stream: TcpStream,
    service: &Weak<TuneService>,
    counters: &Arc<ServerCounters>,
    config: ShardServerConfig,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(SERVER_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(SERVER_IO_TIMEOUT));
    let Ok(write_half) = stream.try_clone() else { return };
    let conn = Arc::new(Conn {
        writer: Mutex::new(write_half),
        in_flight: AtomicUsize::new(0),
        counters: Arc::clone(counters),
    });
    let (jobs, jobs_rx) = mpsc::channel::<WriteJob>();
    let writer_conn = Arc::clone(&conn);
    let Ok(writer) = std::thread::Builder::new()
        .name("sorl-shardd-write".into())
        .spawn(move || write_loop(&writer_conn, jobs_rx))
    else {
        return;
    };
    let farewell = |id, trace, fault: ServeError| conn.fault(id, trace, &fault).and(Err(()));
    let mut reader = BufReader::new(stream);
    loop {
        let served = match (wire::next_frame(&mut reader), service.upgrade()) {
            // Idle: healthy while the service lives. Once it is gone the
            // link gets one `Closed` fault, then the hang-up.
            (Ok(None), Some(_)) => continue,
            (Ok(None), None) => farewell(0, 0, ServeError::Closed),
            (Err(WireError::Io(_)), _) => break, // peer hung up (or stalled mid-frame)
            // Bad magic, a foreign protocol version, an unknown kind or an
            // oversized length: the request id is unknowable, so the
            // farewell fault goes out under id 0.
            (Err(violation), _) => farewell(0, 0, ServeError::Transport(violation.to_string())),
            (Ok(Some(frame)), None) => {
                farewell(frame.request_id, frame.trace_id, ServeError::Closed)
            }
            (Ok(Some(frame)), Some(service)) => {
                serve_request(&mut reader, frame, &service, &conn, &jobs, config)
            }
        };
        if served.is_err() {
            let _ = reader.get_ref().shutdown(Shutdown::Both);
            break;
        }
    }
    // The reader is done; the writer writes the replies still to come from
    // the worker and exits once the last sender is gone.
    drop(jobs);
    let _ = writer.join();
    let _ = reader.get_ref().shutdown(Shutdown::Both);
}

/// Outcome of one request: `Ok` keeps the link, `Err` closes it.
type LinkState = Result<(), ()>;

/// Answers one request. Every reply at hand is written here, on the
/// reader thread: a cache hit's (its ticket is complete when `submit`
/// returns), every fault and shed, and every non-tune reply. Only a tune
/// the worker completes later is handed to the writer thread.
fn serve_request(
    reader: &mut BufReader<TcpStream>,
    frame: wire::Frame,
    service: &TuneService,
    conn: &Arc<Conn>,
    jobs: &mpsc::Sender<WriteJob>,
    config: ShardServerConfig,
) -> LinkState {
    let wire::Frame { kind, request_id, trace_id, payload } = frame;
    let reply = |kind, payload: Vec<u8>| conn.frame(request_id, trace_id, kind, &payload);
    let fault = |fault: &ServeError| conn.fault(request_id, trace_id, fault);
    match kind {
        FrameKind::Tune => {
            let parsed = wire::from_payload::<TuneRequest>(&payload).and_then(|req| {
                // Deserialization bypasses `StencilInstance::new`'s
                // invariants (positive extents, kernel/grid dimension
                // agreement); re-validate so a malformed wire instance
                // is rejected here instead of poisoning the scoring
                // pipeline and the cache.
                let instance =
                    StencilInstance::new(req.instance.kernel().clone(), req.instance.size())
                        .map_err(|e| ServeError::Transport(format!("invalid instance: {e}")))?;
                Ok((instance, req.k))
            });
            let (instance, k) = match parsed {
                Ok(parts) => parts,
                Err(e) => return fault(&e),
            };
            // The per-connection backpressure cap: a link holding more
            // tunes than configured, answered or not, gets cheap
            // rejections, not a growing reply backlog.
            if conn.in_flight.load(Ordering::Acquire) >= config.max_in_flight {
                return fault(&ServeError::Overloaded(ShedReason::LinkInFlight));
            }
            conn.in_flight.fetch_add(1, Ordering::AcqRel);
            conn.counters.in_flight.fetch_add(1, Ordering::AcqRel);
            let slot = InFlight(Arc::clone(conn));
            // The server-side half of the remote call: one span covering
            // dispatch to answer, in the *service* recorder under the
            // peer's trace id — this is what makes an assembled fleet
            // waterfall show the request inside the shard process. An
            // untraced request (trace 0) gets a fresh trace so the
            // server-side spans still land somewhere coherent.
            let trace = TraceId::from_wire(trace_id);
            let rpc_span = SpanId::fresh();
            let recorder = service.flight_recorder();
            recorder.record(EventKind::SpanBegin, trace, rpc_span, "rpc_tune");
            let outcome = match service.client().submit_traced(instance, k, trace) {
                Ok(ticket) => match ticket.ready() {
                    Ok(outcome) => outcome,
                    Err(ticket) => {
                        // Queued: the worker completes it — out of arrival
                        // order if it finishes another request first — and
                        // the writer thread writes the reply.
                        let jobs = jobs.clone();
                        let recorder = Arc::clone(recorder);
                        ticket.on_ready(move |outcome| {
                            recorder.record(EventKind::SpanEnd, trace, rpc_span, "rpc_tune");
                            let _ =
                                jobs.send(WriteJob { request_id, trace_id, outcome, _slot: slot });
                        });
                        return Ok(());
                    }
                },
                Err(fault) => Err(fault),
            };
            // A hit answered at submit, or a shed: written here, and the
            // slot is released once it is.
            recorder.record(EventKind::SpanEnd, trace, rpc_span, "rpc_tune");
            conn.tune_reply(request_id, trace_id, outcome)
        }
        FrameKind::Stats => reply(FrameKind::StatsOk, bin::encode_stats(&service.stats())),
        FrameKind::TraceDump => match wire::from_payload::<wire::TraceQuery>(&payload) {
            Ok(query) => {
                // The dump's `source` names this shard process in the
                // assembled waterfall; the connection's local address is
                // the listen address every peer knows it by.
                let source = reader
                    .get_ref()
                    .local_addr()
                    .map(|a| a.to_string())
                    .unwrap_or_else(|_| "shardd".to_string());
                let filter = (query.trace != 0).then(|| TraceId::from_wire(query.trace));
                let dump = service.flight_recorder().dump(&source, filter);
                let exemplars = service.exemplars().exemplars();
                let answer = wire::TraceDumpReply { dump, exemplars };
                reply(FrameKind::TraceDumpOk, wire::to_payload(&answer))
            }
            Err(e) => fault(&e),
        },
        FrameKind::Fingerprint => {
            reply(FrameKind::FingerprintOk, wire::to_payload(&service.ranker_fingerprint()))
        }
        FrameKind::ExportCache | FrameKind::ExtractCache => {
            let snapshot = wire::from_payload::<CacheSlice>(&payload).and_then(|slice| {
                if kind == FrameKind::ExportCache {
                    service.export_cache(slice.into_matcher())
                } else {
                    service.extract_cache(slice.into_matcher())
                }
            });
            match snapshot {
                Ok(snapshot) => {
                    conn.write(|stream| wire::write_snapshot_stream(stream, request_id, &snapshot))
                }
                Err(e) => fault(&e),
            }
        }
        FrameKind::ImportCache => {
            // The chunk frames follow contiguously on the read half (the
            // client writes the whole stream under its writer lock).
            // Assemble and verify the WHOLE stream before importing: a
            // corrupted or torn transfer is rejected here and nothing
            // reaches the cache — a partial import is impossible by
            // construction.
            let assembled = wire::from_payload(&payload)
                .and_then(|header| wire::read_snapshot_chunks(reader, header, request_id));
            match assembled.map(|snapshot| service.import_cache(snapshot)) {
                Ok(Ok(applied)) => reply(FrameKind::ImportOk, wire::to_payload(&applied)),
                Ok(Err(e)) => fault(&e),
                // The chunk stream may be desynced — answer, then close.
                Err(e) => fault(&e).and(Err(())),
            }
        }
        // A response or stream frame arriving as a request desyncs the
        // conversation: answer with a fault and drop the link.
        FrameKind::SnapshotHeader
        | FrameKind::SnapshotChunk
        | FrameKind::TuneOk
        | FrameKind::StatsOk
        | FrameKind::FingerprintOk
        | FrameKind::ImportOk
        | FrameKind::TraceDumpOk
        | FrameKind::Error => {
            fault(&ServeError::Transport(format!("{kind:?} is not a request frame"))).and(Err(()))
        }
    }
}
