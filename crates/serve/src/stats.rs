//! Service observability: lock-free counters, a pass-latency histogram,
//! and their public snapshot.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};
use sorl_obs::{latency_bucket, latency_bucket_upper_s, PromWriter};

/// The latency histogram's bucket count: `sorl-obs`'s log2-µs scheme, the
/// one the metrics page labels its buckets with.
pub use sorl_obs::LATENCY_BUCKETS;

/// Number of batch-size histogram buckets: `1`, `2`, `3-4`, `5-8`, `9-16`,
/// `17-32`, `33-64`, `>64`. A pass serves one request, so only the first
/// is ever filled; the buckets stay for the wire layout.
pub const BATCH_SIZE_BUCKETS: usize = 8;

/// Number of passes the rolling shed-control latency window spans.
pub(crate) const RECENT_WINDOW: usize = 64;
const _: () = assert!(RECENT_WINDOW < 100, "the window's p99 is its maximum");

/// A ring over the last [`RECENT_WINDOW`] pass latencies (µs), owned by
/// the worker thread. Its p99 is what admission control sheds on: unlike
/// the all-time histogram it *recovers* — once an overload episode ends,
/// fresh fast passes push the slow ones out of the window and shedding
/// stops.
#[derive(Debug)]
pub(crate) struct RecentLatencies {
    buf: [u64; RECENT_WINDOW],
    len: usize,
    next: usize,
}

impl RecentLatencies {
    pub(crate) fn new() -> Self {
        RecentLatencies { buf: [0; RECENT_WINDOW], len: 0, next: 0 }
    }

    /// Records one pass latency and returns the window's current p99.
    pub(crate) fn record_p99_us(&mut self, latency: Duration) -> u64 {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        if let Some(slot) = self.buf.get_mut(self.next) {
            *slot = us;
        }
        self.next = (self.next + 1) % RECENT_WINDOW;
        self.len = (self.len + 1).min(RECENT_WINDOW);
        // The p99, the ceil(0.99 * len)-th order statistic, of fewer than
        // 100 samples is their largest (the ring fills front to back, so
        // `buf[..len]` is exactly the recorded samples).
        self.buf.get(..self.len).and_then(|window| window.iter().max()).copied().unwrap_or(us)
    }
}

/// Internal counter cells, shared between the worker thread and the
/// submitting threads (writers: a hit is answered at submit, and every
/// admission check runs there), and any number of snapshot readers. All
/// updates are relaxed — the numbers are diagnostics and shed
/// heuristics, not synchronization. Every cell (the histogram included)
/// is published *before* the reply, so a client that reads `stats()`
/// right after its answer arrives sees its own request. The
/// cache's own counters are not here: `stats()` reads them from the
/// cache, under its lock.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub requests: AtomicU64,
    pub scored_instances: AtomicU64,
    /// Live gauge: tuning requests admitted but not yet drained by the
    /// worker (incremented by submitters, decremented on dequeue).
    pub queue_depth: AtomicU64,
    /// Submissions fast-rejected because the queue hit its depth cap.
    pub shed_queue: AtomicU64,
    /// Submissions fast-rejected because the rolling p99 pass latency
    /// crossed the configured shed threshold.
    pub shed_latency: AtomicU64,
    /// p99 over the last [`RECENT_WINDOW`] pass latencies, µs — published
    /// by the worker, read by every admission check.
    pub recent_p99_us: AtomicU64,
    pub batch_latency: [AtomicU64; LATENCY_BUCKETS],
}

impl Counters {
    /// Records one pass's latency: dequeue to answer, or a hit's lookup.
    pub(crate) fn record_pass(&self, latency: Duration) {
        // The bucket function clamps to the last bucket; `get` keeps the
        // serving path panic-free even if the bucket math ever regresses.
        if let Some(cell) = self.batch_latency.get(latency_bucket(latency)) {
            cell.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Everything but the cache fields, which stay 0 here.
    pub(crate) fn snapshot(&self) -> ServeStats {
        let mut latency = [0u64; LATENCY_BUCKETS];
        for (o, c) in latency.iter_mut().zip(&self.batch_latency) {
            *o = c.load(Ordering::Relaxed);
        }
        // A pass serves one request, so the batch fields restate it.
        let requests = self.requests.load(Ordering::Relaxed);
        let mut batch_size_hist = [0u64; BATCH_SIZE_BUCKETS];
        if let Some(singles) = batch_size_hist.first_mut() {
            *singles = requests;
        }
        ServeStats {
            requests,
            batches: requests,
            max_batch: u64::from(requests > 0),
            scored_instances: self.scored_instances.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            shed_queue: self.shed_queue.load(Ordering::Relaxed),
            shed_latency: self.shed_latency.load(Ordering::Relaxed),
            recent_batch_latency_p99_s: self.recent_p99_us.load(Ordering::Relaxed) as f64 * 1e-6,
            batch_size_hist,
            batch_latency_p50_s: histogram_percentile(&latency, 0.50),
            batch_latency_p95_s: histogram_percentile(&latency, 0.95),
            batch_latency_p99_s: histogram_percentile(&latency, 0.99),
            batch_latency_hist: latency,
            ..ServeStats::default()
        }
    }
}

/// The `q`-quantile of a latency histogram: the upper bound of the first
/// bucket at which the cumulative count reaches `q` of the total (0 when
/// the histogram is empty). Resolution is the bucket width (2x), which is
/// the right fidelity for a lock-free histogram — these are diagnostics,
/// not benchmark numbers.
fn histogram_percentile(hist: &[u64], q: f64) -> f64 {
    let total: u64 = hist.iter().sum();
    if total == 0 {
        return 0.0;
    }
    // sorl-lint: allow(cast, "float-to-int `as` saturates; value is clamped to [1, total]")
    let target = (q * total as f64).ceil().max(1.0) as u64;
    let mut seen = 0u64;
    for (i, &count) in hist.iter().enumerate() {
        seen += count;
        if seen >= target {
            return latency_bucket_upper_s(i);
        }
    }
    latency_bucket_upper_s(hist.len() - 1)
}

/// A point-in-time snapshot of a [`TuneService`](crate::TuneService)'s
/// counters (taken with [`TuneService::stats`](crate::TuneService::stats)).
/// Serializable, so shard transports can ship it across processes.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ServeStats {
    /// Requests answered (cache hits included).
    pub requests: u64,
    /// Passes run: one per answered request, a worker pass for a queued
    /// request or the lookup of a hit answered at submit, so this equals
    /// [`requests`](Self::requests).
    pub batches: u64,
    /// Most requests one pass served: 1 once any request was served, else
    /// 0.
    pub max_batch: u64,
    /// Scoring passes run, one per cache miss. A miss is cached before the
    /// next lookup, so duplicates queued together count as hits; only a
    /// deeper `k` than the cached one, or a disabled cache, scores a key
    /// twice.
    pub scored_instances: u64,
    /// Requests answered from the decision cache.
    pub cache_hits: u64,
    /// Requests that needed a pipeline pass.
    pub cache_misses: u64,
    /// Cache entries displaced by capacity pressure.
    pub cache_evictions: u64,
    /// Entries currently resident in the cache.
    pub cache_entries: u64,
    /// Requests admitted but not yet drained by the worker — a live gauge
    /// of queue pressure (the other half of the admission-control signal).
    #[serde(default)]
    pub queue_depth: u64,
    /// Submissions fast-rejected with
    /// [`ServeError::Overloaded`](crate::ServeError::Overloaded) because
    /// the submission queue was at its configured depth cap.
    #[serde(default)]
    pub shed_queue: u64,
    /// Submissions fast-rejected because the rolling p99 pass latency
    /// crossed the configured shed threshold while the queue was backed
    /// up.
    #[serde(default)]
    pub shed_latency: u64,
    /// p99 latency of the worker's most recent passes (a short rolling
    /// window; hits answered at submit are not in it), seconds — the
    /// latency signal admission control sheds on.
    /// Unlike the all-time percentiles below, this recovers when an
    /// overload episode ends.
    #[serde(default)]
    pub recent_batch_latency_p99_s: f64,
    /// Passes by requests served: `1`, `2`, `3-4`, `5-8`, `9-16`, `17-32`,
    /// `33-64`, `>64`. A pass serves one request, so every pass counts in
    /// the first bucket.
    pub batch_size_hist: [u64; BATCH_SIZE_BUCKETS],
    /// Median per-pass latency, seconds: dequeue to answer ready for a
    /// queued request, the lookup alone for a hit answered at submit.
    ///
    /// # Resolution contract
    ///
    /// Every `batch_latency_*_s` percentile reports the **upper bound** of
    /// the log2-µs histogram bucket the quantile lands in (bucket `i`
    /// covers `(2^(i-1), 2^i]` µs). The reported value is therefore never
    /// below the true percentile, but can overstate it by up to 2x — a
    /// single 100 µs sample reports as exactly `128e-6` s, its bucket's
    /// upper bound. 0 until a request was served.
    pub batch_latency_p50_s: f64,
    /// 95th-percentile per-pass latency, seconds. Bucket upper bound —
    /// see the resolution contract on
    /// [`batch_latency_p50_s`](Self::batch_latency_p50_s).
    pub batch_latency_p95_s: f64,
    /// 99th-percentile per-pass latency, seconds. Bucket upper bound —
    /// see the resolution contract on
    /// [`batch_latency_p50_s`](Self::batch_latency_p50_s).
    pub batch_latency_p99_s: f64,
    /// Raw per-pass latency histogram the percentiles above are computed
    /// from: bucket `i` counts passes with latency in `(2^(i-1), 2^i]`
    /// µs. Shipping the buckets (not just the quantiles) lets fleet
    /// aggregation recompute true merged percentiles and lets a metrics
    /// endpoint expose a real Prometheus histogram.
    #[serde(default)]
    pub batch_latency_hist: [u64; LATENCY_BUCKETS],
}

impl ServeStats {
    /// Cache hit rate in `[0, 1]` (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    /// Mean requests per pass: 1 once any request was served, else 0.
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.requests as f64 / self.batches as f64
        }
    }

    /// Total submissions shed by admission control (queue-cap plus
    /// latency rejections). Sheds are *not* counted in
    /// [`requests`](Self::requests) — they never reached the worker.
    pub fn sheds(&self) -> u64 {
        self.shed_queue + self.shed_latency
    }

    /// Merges per-shard snapshots into one fleet-wide view.
    ///
    /// Counters and histograms sum; `max_batch` takes the fleet maximum;
    /// `queue_depth` sums (total queued work across the fleet); the
    /// rolling `recent_batch_latency_p99_s` takes the worst shard (a
    /// max-merge is the only sound combination for an admission signal).
    /// The all-time percentiles are **recomputed from the summed latency
    /// histogram**, so the merged p99 is a true fleet percentile, not an
    /// average of per-shard quantiles.
    pub fn merge<'a>(stats: impl IntoIterator<Item = &'a ServeStats>) -> ServeStats {
        let mut out = ServeStats::default();
        for s in stats {
            out.requests += s.requests;
            out.batches += s.batches;
            out.max_batch = out.max_batch.max(s.max_batch);
            out.scored_instances += s.scored_instances;
            out.cache_hits += s.cache_hits;
            out.cache_misses += s.cache_misses;
            out.cache_evictions += s.cache_evictions;
            out.cache_entries += s.cache_entries;
            out.queue_depth += s.queue_depth;
            out.shed_queue += s.shed_queue;
            out.shed_latency += s.shed_latency;
            out.recent_batch_latency_p99_s =
                out.recent_batch_latency_p99_s.max(s.recent_batch_latency_p99_s);
            for (o, c) in out.batch_size_hist.iter_mut().zip(&s.batch_size_hist) {
                *o += c;
            }
            for (o, c) in out.batch_latency_hist.iter_mut().zip(&s.batch_latency_hist) {
                *o += c;
            }
        }
        out.batch_latency_p50_s = histogram_percentile(&out.batch_latency_hist, 0.50);
        out.batch_latency_p95_s = histogram_percentile(&out.batch_latency_hist, 0.95);
        out.batch_latency_p99_s = histogram_percentile(&out.batch_latency_hist, 0.99);
        out
    }

    /// Renders this snapshot as Prometheus families in the
    /// `sorl_serve_*` namespace (exposition format 0.0.4).
    pub fn collect_prometheus(&self, w: &mut PromWriter) {
        w.counter(
            "sorl_serve_requests_total",
            "Tuning requests answered (cache hits included).",
            self.requests,
        );
        w.counter(
            "sorl_serve_scored_instances_total",
            "Unique instances that went through the scoring pipeline.",
            self.scored_instances,
        );
        w.counter(
            "sorl_serve_cache_hits_total",
            "Requests answered from the decision cache.",
            self.cache_hits,
        );
        w.counter(
            "sorl_serve_cache_misses_total",
            "Requests that needed a pipeline pass.",
            self.cache_misses,
        );
        w.counter(
            "sorl_serve_cache_evictions_total",
            "Cache entries displaced by capacity pressure.",
            self.cache_evictions,
        );
        w.gauge(
            "sorl_serve_cache_entries",
            "Entries resident in the decision cache.",
            self.cache_entries as f64,
        );
        w.gauge(
            "sorl_serve_queue_depth",
            "Requests admitted but not yet drained by the worker.",
            self.queue_depth as f64,
        );
        w.counter_per(
            "sorl_serve_shed_total",
            "Submissions fast-rejected by admission control, by reason.",
            &[
                (&[("reason", "queue")], self.shed_queue),
                (&[("reason", "latency")], self.shed_latency),
            ],
        );
        w.gauge(
            "sorl_serve_recent_batch_latency_p99_seconds",
            "Rolling-window p99 pass latency, the admission-control shed signal.",
            self.recent_batch_latency_p99_s,
        );
        w.histogram(
            "sorl_serve_batch_latency_seconds",
            "Per-request pass latency, dequeue to answer ready.",
            &self.batch_latency_hist,
        );
    }
}

impl fmt::Display for ServeStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} requests, cache {}/{} hit ({:.0}%), \
             {} scored, {} resident, {} evicted, {} shed ({} queue / {} latency), \
             batch latency p50/p95/p99 {:.3}/{:.3}/{:.3} ms",
            self.requests,
            self.cache_hits,
            self.cache_hits + self.cache_misses,
            self.hit_rate() * 100.0,
            self.scored_instances,
            self.cache_entries,
            self.cache_evictions,
            self.sheds(),
            self.shed_queue,
            self.shed_latency,
            self.batch_latency_p50_s * 1e3,
            self.batch_latency_p95_s * 1e3,
            self.batch_latency_p99_s * 1e3,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recent_p99_rank_is_exact_at_window_boundaries() {
        // One sample: rank must clamp to 1, not 0 (ceil(0.99*1) = 1).
        let mut w = RecentLatencies::new();
        assert_eq!(w.record_p99_us(Duration::from_micros(42)), 42);

        // A full window: ceil(0.99 * 64) = 64, so the p99 is the maximum
        // order statistic — the integer rank math must not round down to
        // the 63rd and hide the worst batch.
        let mut w = RecentLatencies::new();
        let mut last = 0;
        for i in 1..=RECENT_WINDOW as u64 {
            last = w.record_p99_us(Duration::from_micros(i));
        }
        assert_eq!(last, RECENT_WINDOW as u64);
    }

    #[test]
    fn recent_p99_saturates_on_absurd_latencies() {
        // Duration::MAX in micros overflows u64; the window must pin it
        // to u64::MAX instead of truncating to a small number (which
        // would silently disable the latency shedder).
        let mut w = RecentLatencies::new();
        assert_eq!(w.record_p99_us(Duration::MAX), u64::MAX);
    }

    #[test]
    fn rates_handle_zero_denominators() {
        let s = ServeStats::default();
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mean_batch(), 0.0);
        assert_eq!(s.batch_latency_p50_s, 0.0, "no batches, no percentile");
        assert_eq!(s.batch_latency_p99_s, 0.0);
    }

    #[test]
    fn snapshot_reflects_counter_updates() {
        let c = Counters::default();
        c.requests.fetch_add(10, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.requests, 10);
        assert_eq!(s.batches, 10, "a pass serves one request");
        assert_eq!(s.mean_batch(), 1.0);
        assert_eq!(s.max_batch, 1);
        // The cache fields come from the cache, not from `Counters`.
        let s = ServeStats { cache_hits: 6, cache_misses: 4, ..s };
        assert!((s.hit_rate() - 0.6).abs() < 1e-12);
        let line = s.to_string();
        assert!(line.contains("10 requests"), "{line}");
        assert!(line.contains("60%"), "{line}");
        assert!(line.contains("p50/p95/p99"), "{line}");
    }

    #[test]
    fn recent_window_p99_tracks_and_recovers() {
        let mut recent = RecentLatencies::new();
        // One slow batch in an empty window IS the p99.
        assert_eq!(recent.record_p99_us(Duration::from_millis(50)), 50_000);
        // A long run of fast batches pushes it out of the window — the
        // recovery property the all-time histogram cannot offer.
        let mut last = u64::MAX;
        for _ in 0..RECENT_WINDOW {
            last = recent.record_p99_us(Duration::from_micros(40));
        }
        assert_eq!(last, 40, "the slow batch aged out of the window");
        // One new slow batch among 63 fast ones is the p99 again (rank
        // ceil(0.99 * 64) = 64, the maximum).
        assert_eq!(recent.record_p99_us(Duration::from_millis(7)), 7_000);
    }

    #[test]
    fn shed_counters_surface_in_snapshot_and_display() {
        let c = Counters::default();
        c.queue_depth.fetch_add(3, Ordering::Relaxed);
        c.shed_queue.fetch_add(5, Ordering::Relaxed);
        c.shed_latency.fetch_add(2, Ordering::Relaxed);
        c.recent_p99_us.store(1500, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.queue_depth, 3);
        assert_eq!(s.sheds(), 7);
        assert!((s.recent_batch_latency_p99_s - 1.5e-3).abs() < 1e-12);
        let line = s.to_string();
        assert!(line.contains("7 shed (5 queue / 2 latency)"), "{line}");
    }

    #[test]
    fn stats_snapshot_serializes_roundtrip() {
        let c = Counters::default();
        c.requests.fetch_add(3, Ordering::Relaxed);
        c.record_pass(Duration::from_micros(40));
        let s = c.snapshot();
        let json = serde_json::to_string(&s).unwrap();
        let back: ServeStats = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn percentiles_come_from_the_recorded_distribution() {
        let c = Counters::default();
        // 98 fast batches (~4 us), 1 at ~1 ms, 1 at ~16 ms.
        for _ in 0..98 {
            c.record_pass(Duration::from_micros(3));
        }
        c.record_pass(Duration::from_micros(900));
        c.record_pass(Duration::from_micros(12_000));
        c.requests.fetch_add(100, Ordering::Relaxed);
        let s = c.snapshot();
        assert_eq!(s.batch_latency_p50_s, 4e-6, "median in the 4 us bucket");
        assert_eq!(s.batch_latency_p95_s, 4e-6);
        // p99 of 100 samples is the 99th: the ~1 ms one (1024 us bucket).
        assert_eq!(s.batch_latency_p99_s, 1024e-6);
        // Batch sizes: all 100 passes in the 1-request bucket.
        assert_eq!(s.batch_size_hist[0], 100);
        assert_eq!(s.batch_size_hist.iter().sum::<u64>(), 100);
    }

    #[test]
    fn percentile_of_single_sample_is_its_bucket() {
        let c = Counters::default();
        c.record_pass(Duration::from_micros(100));
        c.requests.fetch_add(1, Ordering::Relaxed);
        let s = c.snapshot();
        // Pinned literal, per the documented resolution contract: a
        // percentile reports its bucket's *upper bound*, so one 100 µs
        // sample reads as exactly 128 µs (the `(64, 128]` µs bucket) —
        // an overstatement of up to 2x, never an understatement.
        assert_eq!(s.batch_latency_p50_s, 128e-6);
        assert_eq!(s.batch_latency_p99_s, 128e-6);
        assert_eq!(s.batch_size_hist[0], 1);
        assert_eq!(s.batch_latency_hist.iter().sum::<u64>(), 1, "raw histogram ships too");
    }

    #[test]
    fn merge_recomputes_percentiles_from_the_summed_histogram() {
        // Shard A: 98 fast batches. Shard B: two slow ones. The fleet p99
        // (99th of 100 samples) is a slow batch; averaging per-shard p99s
        // would miss it. merge() must find it in the summed histogram.
        let a = Counters::default();
        for _ in 0..98 {
            a.record_pass(Duration::from_micros(3));
        }
        a.requests.fetch_add(98, Ordering::Relaxed);
        let b = Counters::default();
        b.record_pass(Duration::from_micros(12_000));
        b.record_pass(Duration::from_micros(12_000));
        b.requests.fetch_add(2, Ordering::Relaxed);
        b.shed_queue.fetch_add(5, Ordering::Relaxed);

        let (sa, sb) = (a.snapshot(), b.snapshot());
        let merged = ServeStats::merge([&sa, &sb]);
        assert_eq!(merged.requests, 100);
        assert_eq!(merged.batches, 100);
        assert_eq!(merged.max_batch, 1);
        assert_eq!(merged.sheds(), 5);
        assert_eq!(merged.batch_latency_p50_s, 4e-6, "fast shard dominates the median");
        assert_eq!(merged.batch_latency_p99_s, 16_384e-6, "slow shard owns the fleet p99");
        assert_eq!(
            merged.batch_latency_hist.iter().sum::<u64>(),
            sa.batch_latency_hist.iter().sum::<u64>() + sb.batch_latency_hist.iter().sum::<u64>(),
        );
    }

    #[test]
    fn prometheus_page_covers_counters_sheds_and_histogram() {
        let c = Counters::default();
        c.requests.fetch_add(10, Ordering::Relaxed);
        c.shed_queue.fetch_add(3, Ordering::Relaxed);
        c.queue_depth.fetch_add(4, Ordering::Relaxed);
        c.record_pass(Duration::from_micros(100));
        let mut w = PromWriter::new();
        c.snapshot().collect_prometheus(&mut w);
        let page = w.into_string();
        assert!(page.contains("# TYPE sorl_serve_requests_total counter"), "{page}");
        assert!(page.contains("sorl_serve_requests_total 10"), "{page}");
        assert!(page.contains("sorl_serve_shed_total{reason=\"queue\"} 3"), "{page}");
        assert!(page.contains("sorl_serve_shed_total{reason=\"latency\"} 0"), "{page}");
        assert!(page.contains("sorl_serve_queue_depth 4"), "{page}");
        assert!(
            page.contains("sorl_serve_batch_latency_seconds_bucket{le=\"0.000128\"} 1"),
            "{page}"
        );
        assert!(page.contains("sorl_serve_batch_latency_seconds_bucket{le=\"+Inf\"} 1"), "{page}");
    }
}
