//! Slow-request exemplars: bounded, evidence-carrying samples of the
//! worst recent requests.
//!
//! Aggregate latency histograms say *that* the p99 regressed; an
//! exemplar says *why*, by keeping the full span chain (queue wait,
//! scoring, cache events) of a request that actually blew the
//! budget. The store is bounded and keeps the slowest-N: a request is
//! exemplar-worthy when its end-to-end latency exceeds the configured
//! threshold ([`crate::ServeConfig::exemplar_threshold`]) or, with the
//! threshold disabled, the rolling p99 of recent request latencies.
//!
//! Capture is two-phase so the hot path stays cheap: [`observe`]
//! (a mutex'd ring update, every request) decides worthiness, and only
//! worthy requests pay for a filtered flight-recorder snapshot before
//! [`capture`] files it. Both run on the service worker thread.
//!
//! [`observe`]: ExemplarStore::observe
//! [`capture`]: ExemplarStore::capture

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, PoisonError};
use std::time::{Duration, SystemTime, UNIX_EPOCH};

use serde::{Deserialize, Serialize};
use sorl_obs::{PromWriter, TraceId, WireEvent};

use crate::stats::RecentLatencies;

/// One captured slow request: its trace, latency, and the span events
/// that were still resident in the flight recorder at capture time.
/// Serializable — `TraceDumpOk` ships these across the wire.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Exemplar {
    /// Raw trace id of the slow request.
    pub trace: u64,
    /// End-to-end latency (submit to reply), µs.
    pub latency_us: u64,
    /// When the exemplar was captured, ns since the unix epoch.
    pub captured_unix_ns: u64,
    /// The request's surviving span chain (wall-clock re-anchored).
    pub events: Vec<WireEvent>,
}

struct Inner {
    recent: RecentLatencies,
    exemplars: Vec<Exemplar>,
}

/// Bounded keep-the-slowest store of [`Exemplar`]s.
pub struct ExemplarStore {
    capacity: usize,
    threshold_us: u64,
    captured_total: AtomicU64,
    p99_us: AtomicU64,
    inner: Mutex<Inner>,
}

impl ExemplarStore {
    /// A store keeping the `capacity` slowest requests (`0` disables
    /// capture). `threshold` is the absolute worthiness cutoff;
    /// `Duration::ZERO` switches to the rolling-p99 trigger.
    pub fn new(capacity: usize, threshold: Duration) -> Self {
        ExemplarStore {
            capacity,
            threshold_us: u64::try_from(threshold.as_micros()).unwrap_or(u64::MAX),
            captured_total: AtomicU64::new(0),
            p99_us: AtomicU64::new(0),
            inner: Mutex::new(Inner { recent: RecentLatencies::new(), exemplars: Vec::new() }),
        }
    }

    /// Feeds one finished request's latency into the rolling window and
    /// reports whether it is worth the cost of a recorder snapshot:
    /// worthy per the trigger, *and* slow enough to displace a resident
    /// exemplar when the store is full.
    pub fn observe(&self, latency: Duration) -> bool {
        let lat_us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        // p99 is computed over the window *before* this sample joins it,
        // so a lone slow request in quiet traffic still triggers.
        // sorl-lint: allow(atomic, "read and written under the inner mutex; the atomic only feeds lock-free metric reads")
        let prior_p99 = self.p99_us.load(Ordering::Relaxed);
        // sorl-lint: allow(atomic, "written under the inner mutex; advisory trigger value")
        self.p99_us.store(inner.recent.record_p99_us(latency), Ordering::Relaxed);
        if self.capacity == 0 {
            return false;
        }
        let worthy = if self.threshold_us > 0 {
            lat_us >= self.threshold_us
        } else {
            prior_p99 > 0 && lat_us > prior_p99
        };
        if !worthy {
            return false;
        }
        if inner.exemplars.len() >= self.capacity {
            let floor = inner.exemplars.iter().map(|e| e.latency_us).min().unwrap_or(0);
            if lat_us <= floor {
                return false;
            }
        }
        true
    }

    /// Files an exemplar [`observe`](Self::observe) judged worthy,
    /// evicting the fastest resident one when over capacity.
    pub fn capture(&self, trace: TraceId, latency: Duration, events: Vec<WireEvent>) {
        if self.capacity == 0 {
            return;
        }
        let exemplar = Exemplar {
            trace: trace.as_u64(),
            latency_us: u64::try_from(latency.as_micros()).unwrap_or(u64::MAX),
            captured_unix_ns: SystemTime::now()
                .duration_since(UNIX_EPOCH)
                .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
                .unwrap_or(0),
            events,
        };
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        inner.exemplars.push(exemplar);
        // sorl-lint: allow(atomic, "diagnostic counter, never synchronizes")
        self.captured_total.fetch_add(1, Ordering::Relaxed);
        while inner.exemplars.len() > self.capacity {
            if let Some(fastest) =
                inner.exemplars.iter().enumerate().min_by_key(|(_, e)| e.latency_us).map(|(i, _)| i)
            {
                inner.exemplars.remove(fastest);
            }
        }
    }

    /// Resident exemplars, slowest first.
    pub fn exemplars(&self) -> Vec<Exemplar> {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = inner.exemplars.clone();
        out.sort_by_key(|e| std::cmp::Reverse(e.latency_us));
        out
    }

    /// The slowest resident exemplar, if any.
    pub fn slowest(&self) -> Option<Exemplar> {
        self.exemplars().into_iter().next()
    }

    /// Exemplars captured over the store's lifetime (including evicted).
    pub fn captured_total(&self) -> u64 {
        // sorl-lint: allow(atomic, "diagnostic counter read; no ordering required")
        self.captured_total.load(Ordering::Relaxed)
    }

    /// The rolling request-latency p99 the trigger compares against, µs.
    pub fn rolling_p99_us(&self) -> u64 {
        // sorl-lint: allow(atomic, "advisory metric read; no ordering required")
        self.p99_us.load(Ordering::Relaxed)
    }

    /// Renders the `sorl_exemplar_*` families onto a metrics page.
    pub fn collect_prometheus(&self, w: &mut PromWriter) {
        let resident = self.exemplars();
        w.counter(
            "sorl_exemplar_captured_total",
            "Slow-request exemplars captured (including since-evicted ones).",
            self.captured_total(),
        );
        w.gauge(
            "sorl_exemplar_resident",
            "Exemplars currently held in the bounded store.",
            resident.len() as f64,
        );
        w.gauge(
            "sorl_exemplar_slowest_seconds",
            "Latency of the slowest resident exemplar.",
            resident.first().map(|e| e.latency_us as f64 * 1e-6).unwrap_or(0.0),
        );
        w.gauge(
            "sorl_exemplar_threshold_seconds",
            "Configured absolute worthiness threshold (0 = rolling-p99 trigger).",
            self.threshold_us as f64 * 1e-6,
        );
        w.gauge(
            "sorl_exemplar_p99_trigger_seconds",
            "Rolling request-latency p99 the p99 trigger compares against.",
            self.rolling_p99_us() as f64 * 1e-6,
        );
    }
}

impl std::fmt::Debug for ExemplarStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExemplarStore")
            .field("capacity", &self.capacity)
            .field("threshold_us", &self.threshold_us)
            .field("captured_total", &self.captured_total())
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(n: u64) -> Duration {
        Duration::from_millis(n)
    }

    #[test]
    fn threshold_trigger_captures_and_keeps_the_slowest() {
        let store = ExemplarStore::new(2, ms(10));
        for (i, lat) in [5u64, 12, 30, 20, 8].into_iter().enumerate() {
            let worthy = store.observe(ms(lat));
            assert_eq!(worthy, lat >= 10, "latency {lat} ms");
            if worthy {
                store.capture(TraceId::from_wire(i as u64 + 1), ms(lat), Vec::new());
            }
        }
        let resident = store.exemplars();
        assert_eq!(store.captured_total(), 3);
        assert_eq!(resident.len(), 2, "bounded at capacity");
        assert_eq!(
            resident.iter().map(|e| e.latency_us).collect::<Vec<_>>(),
            [30_000, 20_000],
            "the 12 ms exemplar was evicted by slower ones"
        );
        assert_eq!(store.slowest().map(|e| e.trace), Some(3));
    }

    #[test]
    fn full_store_rejects_requests_no_slower_than_the_floor() {
        let store = ExemplarStore::new(1, ms(1));
        assert!(store.observe(ms(50)));
        store.capture(TraceId::from_wire(1), ms(50), Vec::new());
        assert!(!store.observe(ms(40)), "worthy but cannot displace the resident 50 ms");
        assert!(store.observe(ms(60)));
    }

    #[test]
    fn p99_trigger_fires_on_outliers_only() {
        let store = ExemplarStore::new(4, Duration::ZERO);
        assert!(!store.observe(ms(5)), "no p99 yet: never worthy");
        for _ in 0..20 {
            assert!(!store.observe(ms(5)), "steady traffic is not an outlier");
        }
        assert!(store.observe(ms(500)), "outlier over the rolling p99");
    }

    #[test]
    fn zero_capacity_disables_capture() {
        let store = ExemplarStore::new(0, ms(1));
        assert!(!store.observe(ms(100)));
        store.capture(TraceId::from_wire(1), ms(100), Vec::new());
        assert!(store.exemplars().is_empty());
    }

    #[test]
    fn prometheus_families_render() {
        let store = ExemplarStore::new(2, ms(10));
        store.observe(ms(25));
        store.capture(TraceId::from_wire(9), ms(25), Vec::new());
        let mut w = PromWriter::new();
        store.collect_prometheus(&mut w);
        let page = w.into_string();
        assert!(page.contains("sorl_exemplar_captured_total 1"), "{page}");
        assert!(page.contains("sorl_exemplar_resident 1"), "{page}");
        assert!(page.contains("sorl_exemplar_slowest_seconds 0.025"), "{page}");
        assert!(page.contains("sorl_exemplar_threshold_seconds 0.01"), "{page}");
    }
}
