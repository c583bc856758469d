//! Machine-readable perf snapshots: `BENCH_*.json` files accumulating the
//! repo's performance trajectory.
//!
//! This module is the benches' one timing harness. Each bench under
//! `benches/` builds one [`PerfReport`], records every variant once with
//! [`PerfReport::record`] (or [`PerfReport::record_alternating`] for a pair
//! whose ratio it asserts), and writes the report as JSON next to the
//! workspace root, so CI can archive one snapshot per run and regressions
//! become diffable. Override the path with the `SORL_BENCH_JSON`
//! environment variable; set `SORL_BENCH_QUICK=1` to cut sample counts in
//! CI.
//!
//! A sample is one call of the measured closure, unless that call takes
//! less than a fixed 10 µs minimum: then every sample runs enough
//! back-to-back calls to span the minimum and records the mean per call,
//! so the clock's resolution and the cost of reading it stay small against
//! what is measured.

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Statistics for one measured benchmark variant (seconds per call).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Variant id, e.g. `"tune_3d_session_batched"`.
    pub id: String,
    /// Median seconds per call.
    pub median_s: f64,
    /// Fastest sample.
    pub min_s: f64,
    /// Slowest sample.
    pub max_s: f64,
    /// Number of timed samples.
    pub samples: usize,
}

/// One perf snapshot: a named collection of benchmark variants plus the
/// context needed to compare snapshots across machines and runs.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfReport {
    /// Snapshot family, e.g. `"rank_latency"`.
    pub name: String,
    /// Unix timestamp (seconds) of the run.
    pub created_unix_s: u64,
    /// Threads available on the machine that produced the snapshot.
    pub available_threads: usize,
    /// Whether the quick (CI) sample budget was used.
    pub quick: bool,
    /// `git describe --always --dirty` of the measured tree, or
    /// `"unknown"` where git is not available. Empty in snapshots that
    /// predate the stamp.
    #[serde(default)]
    pub git_rev: String,
    /// The measured variants.
    pub entries: Vec<PerfEntry>,
}

impl PerfReport {
    /// An empty report for a snapshot family.
    pub fn new(name: &str) -> Self {
        let created_unix_s = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0);
        PerfReport {
            name: name.to_string(),
            created_unix_s,
            available_threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            quick: quick_mode(),
            git_rev: git_rev(),
            entries: Vec::new(),
        }
    }

    /// The provenance stamp compared across snapshots: git revision and
    /// thread count, with `?` for a revision the snapshot predates.
    pub fn stamp(&self) -> String {
        let rev = if self.git_rev.is_empty() { "?" } else { &self.git_rev };
        format!("rev {rev}, {} threads", self.available_threads)
    }

    /// Takes `samples` samples of `f` (see [`measure`]) and records the
    /// statistics under `id`, echoing a one-line summary to stdout.
    pub fn record<F: FnMut()>(&mut self, id: &str, samples: usize, f: F) {
        self.push(measure(id, samples, f));
    }

    /// Like [`record`](Self::record) for two variants whose ratio is
    /// asserted: their samples alternate, so drifting host load lands on
    /// both alike instead of on whichever ran second.
    pub fn record_alternating<A: FnMut(), B: FnMut()>(
        &mut self,
        [id_a, id_b]: [&str; 2],
        samples: usize,
        a: A,
        b: B,
    ) {
        assert!(samples > 0, "need at least one sample");
        let (mut a, mut b) = (Sampler::new(a), Sampler::new(b));
        for _ in 1..samples {
            a.sample();
            b.sample();
        }
        self.push(entry(id_a, a.times));
        self.push(entry(id_b, b.times));
    }

    /// Adds a measured entry, echoing a one-line summary to stdout.
    fn push(&mut self, entry: PerfEntry) {
        println!(
            "  perf {}: median {:.3} µs (min {:.3}, max {:.3}, {} samples)",
            entry.id,
            entry.median_s * 1e6,
            entry.min_s * 1e6,
            entry.max_s * 1e6,
            entry.samples
        );
        self.entries.push(entry);
    }

    /// The median of a recorded entry, for cross-variant assertions.
    pub fn median_of(&self, id: &str) -> Option<f64> {
        self.entries.iter().find(|e| e.id == id).map(|e| e.median_s)
    }

    /// Serializes the report as pretty JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("perf report serializes")
    }

    /// Writes the report to [`json_path`] and returns the path.
    pub fn write(&self) -> PathBuf {
        let path = json_path(&self.name);
        std::fs::write(&path, self.to_json()).expect("write perf snapshot");
        println!("  -> {}", path.display());
        path
    }
}

/// Takes `samples` samples of `f` (see the module docs for how many calls
/// one sample is) and returns the per-call statistics.
pub fn measure<F: FnMut()>(id: &str, samples: usize, f: F) -> PerfEntry {
    assert!(samples > 0, "need at least one sample");
    let mut sampler = Sampler::new(f);
    for _ in 1..samples {
        sampler.sample();
    }
    entry(id, sampler.times)
}

/// The shortest span one sample times.
const MIN_SAMPLE_S: f64 = 10e-6;

/// Where the calls per sample stop doubling: a closure the optimizer
/// reduced to nothing never spans [`MIN_SAMPLE_S`].
const MAX_CALLS: u32 = 1 << 20;

/// One variant's samples, in seconds per call.
struct Sampler<F> {
    f: F,
    /// Back-to-back calls each sample times.
    calls: u32,
    times: Vec<f64>,
}

impl<F: FnMut()> Sampler<F> {
    /// Times one call of `f` as the first sample. A call shorter than
    /// [`MIN_SAMPLE_S`] doubles the calls per sample until one batch spans
    /// the minimum, and that batch is the first sample instead.
    fn new(mut f: F) -> Self {
        let mut calls = 1;
        let mut span = time(&mut f, calls);
        while span < MIN_SAMPLE_S && calls < MAX_CALLS {
            calls *= 2;
            span = time(&mut f, calls);
        }
        Sampler { f, calls, times: vec![span / f64::from(calls)] }
    }

    /// Takes one more sample.
    fn sample(&mut self) {
        self.times.push(time(&mut self.f, self.calls) / f64::from(self.calls));
    }
}

/// Seconds `calls` back-to-back calls of `f` take.
fn time(f: &mut impl FnMut(), calls: u32) -> f64 {
    let t0 = Instant::now();
    for _ in 0..calls {
        f();
    }
    t0.elapsed().as_secs_f64()
}

/// The statistics of a non-empty set of per-call times.
fn entry(id: &str, mut times: Vec<f64>) -> PerfEntry {
    times.sort_by(f64::total_cmp);
    PerfEntry {
        id: id.to_string(),
        median_s: stencil_model::stats::median_sorted(&times),
        min_s: times[0],
        max_s: times[times.len() - 1],
        samples: times.len(),
    }
}

/// `git describe --always --dirty` run in the current directory, or
/// `"unknown"` when git is missing or the directory is not a checkout.
pub fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["describe", "--always", "--dirty"])
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|rev| rev.trim().to_string())
        .filter(|rev| !rev.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Whether the quick (CI) sample budget is requested via
/// `SORL_BENCH_QUICK`.
pub fn quick_mode() -> bool {
    std::env::var_os("SORL_BENCH_QUICK").is_some_and(|v| v != "0" && !v.is_empty())
}

/// Output path for a snapshot family: `SORL_BENCH_JSON` when set, else
/// `BENCH_<name>.json` in the workspace root. Cargo runs benches with the
/// *package* directory as cwd, so the root is found by walking up to the
/// nearest directory containing a `Cargo.lock` (falling back to cwd).
pub fn json_path(name: &str) -> PathBuf {
    if let Some(p) = std::env::var_os("SORL_BENCH_JSON") {
        return PathBuf::from(p);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.as_path();
    loop {
        if dir.join("Cargo.lock").is_file() {
            return dir.join(format!("BENCH_{name}.json"));
        }
        match dir.parent() {
            Some(parent) => dir = parent,
            None => return cwd.join(format!("BENCH_{name}.json")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_collects_sane_statistics() {
        let mut n = 0u64;
        let e = measure("spin", 5, || {
            for i in 0..10_000u64 {
                n = n.wrapping_add(std::hint::black_box(i));
            }
        });
        assert_eq!(e.samples, 5);
        assert!(e.min_s <= e.median_s && e.median_s <= e.max_s);
        assert!(e.min_s > 0.0);
    }

    #[test]
    fn median_averages_even_sample_counts() {
        // With two samples the median must lie between them.
        let mut flip = false;
        let e = measure("alternate", 2, || {
            let spin = if flip { 40_000 } else { 10_000 };
            flip = !flip;
            let mut acc = 0u64;
            for i in 0..spin {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
        });
        assert!(e.min_s <= e.median_s && e.median_s <= e.max_s);
    }

    /// A busy-wait of about 100 ns, far under the sample minimum.
    fn spin_100ns() {
        let mut acc = 0u64;
        for i in 0..50u64 {
            acc = acc.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(acc);
    }

    #[test]
    fn calls_at_or_above_the_minimum_are_one_per_sample() {
        let mut calls = 0usize;
        let e = measure("slow", 4, || {
            calls += 1;
            std::thread::sleep(std::time::Duration::from_micros(20));
        });
        assert_eq!((calls, e.samples), (4, 4), "no extra call");
        assert!(e.min_s >= 20e-6);
    }

    #[test]
    fn calls_under_the_minimum_are_batched_per_sample() {
        let mut calls = 0usize;
        let e = measure("fast", 5, || {
            calls += 1;
            spin_100ns();
        });
        assert_eq!(e.samples, 5);
        assert!(calls > 2 * e.samples, "{calls} calls for {} samples", e.samples);
        assert!(e.median_s < MIN_SAMPLE_S, "the mean per call, not per batch");
    }

    #[test]
    fn alternating_variants_are_recorded_in_order() {
        // `a` outlasts the minimum, so each of its samples is one call;
        // `b` does not, so each of its samples is a run of calls.
        let calls = std::cell::RefCell::new(String::new());
        let mut r = PerfReport::new("unit_test");
        r.record_alternating(
            ["a", "b"],
            3,
            || {
                calls.borrow_mut().push('a');
                std::thread::sleep(std::time::Duration::from_micros(20));
            },
            || {
                calls.borrow_mut().push('b');
                spin_100ns();
            },
        );
        let calls = calls.into_inner();
        let runs: Vec<usize> = calls.split('a').skip(1).map(str::len).collect();
        assert!(calls.starts_with('a'), "{calls}");
        assert_eq!(runs.len(), 3, "one call of `a` per sample: {calls}");
        assert!(runs.iter().all(|&n| n > 1), "a run of `b` after each `a`: {calls}");
        let ids: Vec<_> = r.entries.iter().map(|e| (e.id.as_str(), e.samples)).collect();
        assert_eq!(ids, [("a", 3), ("b", 3)]);
    }

    #[test]
    fn report_roundtrips_through_json() {
        let mut r = PerfReport::new("unit_test");
        r.record("noop", 3, || {});
        assert_eq!(r.entries.len(), 1);
        assert!(r.median_of("noop").is_some());
        assert!(r.median_of("missing").is_none());
        let json = r.to_json();
        assert!(json.contains("\"unit_test\""));
        assert!(json.contains("\"noop\""));
        assert!(json.contains("\"samples\": 3"));
        assert!(json.contains("\"median_s\""));
        assert!(json.contains("\"available_threads\""));
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.git_rev, r.git_rev);
        assert!(!back.git_rev.is_empty(), "a fresh report is always stamped");
    }

    #[test]
    fn stampless_snapshots_still_parse() {
        // A snapshot written before the stamps existed.
        let json = r#"{"name": "old", "created_unix_s": 1, "available_threads": 1,
            "quick": true, "entries": []}"#;
        let old: PerfReport = serde_json::from_str(json).unwrap();
        assert_eq!(old.git_rev, "");
        assert_eq!(old.stamp(), "rev ?, 1 threads");
    }

    #[test]
    fn kernel_stamped_snapshots_still_parse() {
        // A snapshot written while reports carried a scoring-kernel stamp.
        let json = r#"{"name": "old", "created_unix_s": 1, "available_threads": 2,
            "quick": true, "git_rev": "7ec723f", "kernel": "avx2", "entries": []}"#;
        let old: PerfReport = serde_json::from_str(json).unwrap();
        assert_eq!(old.stamp(), "rev 7ec723f, 2 threads");
    }

    #[test]
    fn json_path_defaults_to_bench_prefix_at_workspace_root() {
        if std::env::var_os("SORL_BENCH_JSON").is_none() {
            let p = json_path("rank_latency");
            assert_eq!(p.file_name().unwrap(), "BENCH_rank_latency.json");
            // Anchored at the workspace root (the directory holding the
            // lock file), not at whatever cwd cargo handed the process.
            assert!(p.parent().unwrap().join("Cargo.lock").is_file());
        }
    }
}
