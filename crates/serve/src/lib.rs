//! # sorl-serve — the multi-tenant stencil tuning service
//!
//! The paper's ranker answers one stencil instance at a time; this crate
//! is the layer that turns it into a *service* for heavy traffic, where
//! many concurrent callers tune many (often repeated) instances:
//!
//! ```text
//!   clients ──submit──▶ decision cache (InstanceKey → top-k), one lock:
//!      │                a hit is answered on the submitting thread
//!      └─ a miss ──▶ MPSC queue ──▶ one request per pass, in queue order,
//!                                  │  looked up again (a queued duplicate hits)
//!                                  ▼
//!                        a miss, lock released: one session query (fold
//!                        its score, rescore the near-ties on full rows,
//!                        partial-select the k best), then a cache insert
//!                        before the next request is looked up
//!                                  │
//!                                  ▼
//!                        counters, then the reply ticket
//! ```
//!
//! Three mechanisms carry the throughput:
//!
//! * **One request per pass** ([`TuneService`]) — a hit is answered on
//!   the thread that submits it and never queues; the worker takes the
//!   misses off the queue one at a time, in queue order, and answers
//!   each before it takes the next; a miss is one
//!   [`TuningSession::top_k_predefined`](sorl::session::TuningSession::top_k_predefined)
//!   call. A miss is cached before the next request is looked up, so
//!   queued requests that share a canonical
//!   [`InstanceKey`](stencil_model::InstanceKey) are scored once and the
//!   rest hit (with the cache on). No answer waits for another request:
//!   each miss is its own folded query, so holding answers back to serve
//!   them together would share no scoring work.
//! * **Top-k answers** ([`sorl::tuner::TopK`]) — callers get the `k` best
//!   vectors with scores via a partial select, never a full sort of the
//!   1600/8640-candidate sets.
//! * **A decision cache** ([`DecisionCache`]) — answers are memoized per
//!   canonical instance identity with LRU eviction;
//!   [`ServeStats`] exposes hit/miss/eviction counters plus per-pass
//!   latency percentiles.
//!
//! A further mechanism makes the service fleet-ready:
//!
//! * **Durable decisions** ([`CacheSnapshot`]) — the cache snapshots to
//!   JSON (versioned by the ranker fingerprint, so a retrained model
//!   rejects stale decisions) and restores warm after a restart; slices
//!   selected by key fingerprint can be exported/extracted and imported
//!   across services, which is how the `sorl-shard` router ships warm-up
//!   state on topology changes. Each of these takes the cache lock on the
//!   caller's thread; none waits behind queued tunes.
//!
//! And two keep it standing under overload:
//!
//! * **Non-blocking tickets** ([`TuneTicket`]) — a submission returns a
//!   completion slot the caller can block on ([`TuneTicket::wait`]) or
//!   hang a callback/waker on ([`TuneTicket::on_ready`]), so event-loop
//!   embedders never park a thread per pending answer.
//! * **Admission control** ([`ServeConfig::max_queue`] /
//!   [`ServeConfig::shed_p99`]) — the submission queue is bounded and a
//!   rolling p99 pass-latency threshold sheds load early; both
//!   fast-reject a miss with [`ServeError::Overloaded`]`(`[`ShedReason`]`)`
//!   in nanoseconds instead of letting requests pile up into timeouts. A
//!   hit is answered before admission and is never shed.
//!   [`ServeStats`] reports shed counts, live queue depth, and the
//!   rolling p99 the shedder acts on.
//!
//! Per-request observability rides on top of the counters:
//!
//! * **Slow-request exemplars** ([`ExemplarStore`]) — the full span
//!   chain of the slowest recent requests (over
//!   [`ServeConfig::exemplar_threshold`] or the rolling p99), exported
//!   as `sorl_exemplar_*` metrics and shipped in wire trace dumps.
//! * **SLO burn rates** ([`sorl_obs::SloTracker`], with the default
//!   [`sorl_obs::SloConfig`]) — multi-window error-budget burn over a
//!   latency+error SLO, exported as `sorl_slo_*` gauges; sheds count as
//!   budget spent.

pub mod cache;
pub mod exemplar;
pub mod service;
pub mod snapshot;
pub mod stats;
pub mod ticket;

pub use cache::DecisionCache;
pub use exemplar::{Exemplar, ExemplarStore};
pub use service::{ServeConfig, ServeError, ShedReason, TuneClient, TuneRequest, TuneService};
pub use snapshot::{CacheSnapshot, SnapshotEntry, SnapshotError, SNAPSHOT_FORMAT_VERSION};
pub use stats::ServeStats;
pub use ticket::TuneTicket;
