//! `sorl-obs` — fleet observability for the stencil-autotune serving
//! stack: trace identities, a lock-free flight recorder, cross-process
//! trace assembly, SLO burn-rate tracking, and a Prometheus-text scrape
//! endpoint that renders snapshots.
//!
//! Pure std plus the workspace's in-tree serde shim (recorder dumps
//! must cross the wire): this crate is linked into every daemon and
//! must never become the reason the build grows an external supply
//! chain.
//!
//! The pieces:
//!
//! * [`trace`] — [`TraceId`]/[`SpanId`]: 64-bit identities that follow
//!   one request from the submitting client across the wire (every
//!   frame header carries the raw trace id) to the shard worker.
//! * [`recorder`] — [`FlightRecorder`]: a fixed-capacity,
//!   overwrite-oldest ring of span begin/end + instant events with
//!   monotonic timestamps, wait-free to write and snapshottable while
//!   hot. [`RecorderDump`] is the serializable export (wall-clock
//!   re-anchored) that leaves the process.
//! * [`assemble()`] — merges dumps from N processes into one per-trace
//!   span [`Waterfall`], tolerating clock skew and ring overwrite.
//! * [`slo`] — [`SloTracker`]: multi-window rolling burn-rate tracking
//!   over a latency+error SLO, exported as `sorl_slo_*` gauges.
//! * [`metrics`] + [`http`] — the log2-µs latency buckets
//!   ([`latency_bucket`]) the serving stack records with,
//!   [`PromWriter`] for rendering point-in-time snapshots through a
//!   [`MetricsSource`], and [`MetricsServer`], a blocking HTTP/1.0
//!   responder for `curl http://host:port/metrics`.

pub mod assemble;
pub mod http;
pub mod metrics;
pub mod recorder;
pub mod slo;
pub mod trace;

pub use assemble::{assemble, AssembledSpan, Waterfall};
pub use http::MetricsServer;
pub use metrics::{
    escape_label, latency_bucket, latency_bucket_upper_s, unescape_label, MetricsSource,
    PromWriter, LATENCY_BUCKETS,
};
pub use recorder::{Event, EventKind, FlightRecorder, RecorderDump, SpanGuard, WireEvent};
pub use slo::{BurnReading, SloConfig, SloTracker};
pub use trace::{SpanId, TraceId};
