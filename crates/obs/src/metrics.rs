//! Prometheus-text exposition and the log2-µs latency bucket scheme.
//!
//! Every page is rendered from snapshots: a [`MetricsSource`] (say, a
//! shard's `ServeStats` and link counters) writes point-in-time numbers
//! through a [`PromWriter`] in exposition format 0.0.4 on each scrape.
//! [`latency_bucket`] is the one bucket function — the serving stack
//! records its batch latencies with it, and [`PromWriter::histogram`]
//! labels the same buckets — so fleet dashboards see one latency axis.

use std::time::Duration;

/// Number of log2-µs latency histogram buckets. Bucket `i` covers
/// latencies up to `2^i` µs, so the range spans 1 µs to ~36 minutes with
/// 2x resolution — plenty for percentile diagnostics of a serving loop.
pub const LATENCY_BUCKETS: usize = 32;

/// The latency-histogram bucket of `d` (bucket upper bound `2^i` µs).
pub fn latency_bucket(d: Duration) -> usize {
    // Saturate the u128 microsecond count instead of truncating: a
    // pathological duration (> ~584k years) must land in the top bucket,
    // not wrap into a low one.
    let us = u64::try_from(d.as_micros()).unwrap_or(u64::MAX).max(1);
    // sorl-lint: allow(cast, "a bit count is at most 64; always fits usize")
    if us <= 1 { 0 } else { (u64::BITS - (us - 1).leading_zeros()) as usize }
        .min(LATENCY_BUCKETS - 1)
}

/// The latency a bucket index reports: its upper bound, in seconds.
pub fn latency_bucket_upper_s(bucket: usize) -> f64 {
    (1u64 << bucket.min(LATENCY_BUCKETS - 1)) as f64 * 1e-6
}

/// Anything that can contribute metrics to an exposition page. The
/// responder calls this once per scrape, so implementations should
/// snapshot their counters rather than hold locks across rendering.
pub trait MetricsSource: Send + Sync {
    /// Appends this source's metric families to the page.
    fn collect(&self, w: &mut PromWriter);
}

/// Incremental builder for one Prometheus text-format 0.0.4 page.
#[derive(Default)]
pub struct PromWriter {
    buf: String,
}

impl PromWriter {
    /// Creates an empty page.
    pub fn new() -> Self {
        Self::default()
    }

    /// Finishes the page.
    pub fn into_string(self) -> String {
        self.buf
    }

    /// Writes a `# HELP` / `# TYPE` family header.
    pub fn family(&mut self, name: &str, help: &str, kind: &str) {
        use std::fmt::Write;
        let _ = writeln!(self.buf, "# HELP {name} {}", escape_help(help));
        let _ = writeln!(self.buf, "# TYPE {name} {kind}");
    }

    /// Writes one sample line with optional labels.
    pub fn sample(&mut self, name: &str, labels: &[(&str, &str)], value: f64) {
        use std::fmt::Write;
        self.buf.push_str(name);
        if !labels.is_empty() {
            self.buf.push('{');
            for (i, (k, v)) in labels.iter().enumerate() {
                if i > 0 {
                    self.buf.push(',');
                }
                let _ = write!(self.buf, "{k}=\"{}\"", escape_label(v));
            }
            self.buf.push('}');
        }
        let _ = writeln!(self.buf, " {}", fmt_value(value));
    }

    /// A complete single-sample counter family.
    pub fn counter(&mut self, name: &str, help: &str, value: u64) {
        self.family(name, help, "counter");
        self.sample(name, &[], value as f64);
    }

    /// A complete single-sample gauge family.
    pub fn gauge(&mut self, name: &str, help: &str, value: f64) {
        self.family(name, help, "gauge");
        self.sample(name, &[], value);
    }

    /// A counter family with one sample per label set.
    pub fn counter_per(&mut self, name: &str, help: &str, samples: &[(&[(&str, &str)], u64)]) {
        self.family(name, help, "counter");
        for (labels, value) in samples {
            self.sample(name, labels, *value as f64);
        }
    }

    /// A complete histogram family from non-cumulative log2-µs bucket
    /// counts: cumulative `_bucket{le=...}` lines, `+Inf`, `_sum` and
    /// `_count`. Bucket counts carry no exact sum, so `_sum` is
    /// approximated by bucket upper bounds — an overestimate of at most
    /// 2x, consistent with the scheme's percentile resolution.
    pub fn histogram(&mut self, name: &str, help: &str, buckets: &[u64]) {
        use std::fmt::Write;
        self.family(name, help, "histogram");
        let mut cumulative = 0u64;
        let mut approx_sum = 0.0f64;
        for (i, &count) in buckets.iter().enumerate() {
            cumulative += count;
            approx_sum += count as f64 * latency_bucket_upper_s(i);
            let _ = writeln!(
                self.buf,
                "{name}_bucket{{le=\"{}\"}} {cumulative}",
                fmt_value(latency_bucket_upper_s(i))
            );
        }
        let _ = writeln!(self.buf, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
        let _ = writeln!(self.buf, "{name}_sum {}", fmt_value(approx_sum));
        let _ = writeln!(self.buf, "{name}_count {cumulative}");
    }
}

fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // sorl-lint: allow(cast, "an integral f64 below 1e15 in magnitude is exact in i64")
        return format!("{}", v as i64);
    }
    // Nanosecond-fixed, then trimmed: accumulated float error must not
    // leak 17-digit tails into the page (scrapers cope, humans do not).
    let mut s = format!("{v:.9}");
    while s.ends_with('0') {
        s.pop();
    }
    if s.ends_with('.') {
        s.pop();
    }
    s
}

fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value per the Prometheus text format: backslash,
/// double-quote and newline become `\\`, `\"` and `\n`. [`PromWriter`]
/// applies this to every label automatically; it is public so external
/// renderers (and [`unescape_label`]) can round-trip values.
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"").replace('\n', "\\n")
}

/// Inverse of [`escape_label`]. Unknown escape sequences are kept
/// verbatim (backslash included) rather than dropped, so a value that
/// was never escaped survives a spurious unescape.
pub fn unescape_label(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next() {
            Some('\\') => out.push('\\'),
            Some('"') => out.push('"'),
            Some('n') => out.push('\n'),
            Some(other) => {
                out.push('\\');
                out.push(other);
            }
            None => out.push('\\'),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn latency_buckets_are_log_scaled_upper_bounds() {
        assert_eq!(latency_bucket(Duration::ZERO), 0);
        assert_eq!(latency_bucket(Duration::from_micros(1)), 0);
        assert_eq!(latency_bucket(Duration::from_micros(2)), 1);
        assert_eq!(latency_bucket(Duration::from_micros(3)), 2);
        assert_eq!(latency_bucket(Duration::from_micros(1000)), 10, "1 ms in the 1024 us bucket");
        assert_eq!(latency_bucket(Duration::from_secs(3600)), LATENCY_BUCKETS - 1);
        assert_eq!(latency_bucket_upper_s(10), 1024e-6);
    }

    #[test]
    fn pathological_durations_saturate_into_the_top_bucket() {
        // `Duration::MAX.as_micros()` exceeds u64; a truncating `as` cast
        // would wrap it into a low bucket. It must saturate to the top.
        assert_eq!(latency_bucket(Duration::MAX), LATENCY_BUCKETS - 1);
        // A duration engineered so the low 64 bits of its microsecond
        // count are tiny (u64::MAX + 1 µs worth of time): wrapped, it
        // would land in bucket 0.
        let wrap = Duration::from_micros(u64::MAX)
            .checked_add(Duration::from_micros(1))
            .expect("fits in Duration");
        assert_eq!(latency_bucket(wrap), LATENCY_BUCKETS - 1);
    }

    #[test]
    fn labeled_samples_and_escaping() {
        let mut w = PromWriter::new();
        w.counter_per(
            "sorl_shard_requests_total",
            "Requests per shard.",
            &[(&[("shard", "alpha")], 75), (&[("shard", "we\"ird\\x")], 5)],
        );
        let page = w.into_string();
        assert!(page.contains("sorl_shard_requests_total{shard=\"alpha\"} 75"), "{page}");
        assert!(page.contains("shard=\"we\\\"ird\\\\x\""), "{page}");
    }

    #[test]
    fn histogram_from_raw_buckets_is_cumulative_with_approx_sum() {
        let mut buckets = [0u64; LATENCY_BUCKETS];
        buckets[0] = 2; // <= 1 us
        buckets[3] = 1; // <= 8 us
        let mut w = PromWriter::new();
        w.histogram("sorl_lat_seconds", "L.", &buckets);
        let page = w.into_string();
        assert!(page.contains("sorl_lat_seconds_bucket{le=\"0.000001\"} 2"), "{page}");
        assert!(page.contains("sorl_lat_seconds_bucket{le=\"0.000008\"} 3"), "{page}");
        assert!(page.contains("sorl_lat_seconds_bucket{le=\"+Inf\"} 3"), "{page}");
        assert!(page.contains("sorl_lat_seconds_count 3"), "{page}");
        // Approximate sum: 2*1us + 1*8us = 10 us.
        assert!(page.contains("sorl_lat_seconds_sum 0.00001"), "{page}");
    }

    #[test]
    fn label_escaping_round_trips() {
        let nasty = [
            "plain",
            "back\\slash",
            "quo\"te",
            "new\nline",
            "\\\"\n",
            "trailing\\",
            "mix \\n literal and \n real",
            "",
        ];
        for v in nasty {
            let escaped = escape_label(v);
            assert!(!escaped.contains('\n'), "escaped value leaks a raw newline: {escaped:?}");
            assert_eq!(unescape_label(&escaped), v, "round trip failed for {v:?}");
        }
        // A malformed label value must stay on one sample line.
        let mut w = PromWriter::new();
        w.counter_per("sorl_x", "X.", &[(&[("shard", "evil\"} 1\nsorl_forged 2")], 1)]);
        let page = w.into_string();
        assert!(!page.contains("sorl_forged 2\n"), "label injection forged a sample:\n{page}");
        assert_eq!(page.lines().count(), 3, "{page}");
    }

    #[test]
    fn unknown_escapes_survive_unescape() {
        assert_eq!(unescape_label("a\\tb"), "a\\tb");
        assert_eq!(unescape_label("end\\"), "end\\");
        assert_eq!(unescape_label("\\n\\\"\\\\"), "\n\"\\");
    }

    #[test]
    fn integer_valued_floats_render_without_a_point() {
        assert_eq!(fmt_value(3.0), "3");
        assert_eq!(fmt_value(0.75), "0.75");
        assert_eq!(fmt_value(1024e-6), "0.001024");
    }
}
