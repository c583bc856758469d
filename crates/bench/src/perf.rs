//! Machine-readable perf snapshots: `BENCH_*.json` files accumulating the
//! repo's performance trajectory.
//!
//! Criterion (and our offline shim) prints human-readable timings; this
//! module additionally records each benchmark's statistics as JSON so CI
//! can archive one snapshot per run and regressions become diffable. A
//! bench builds a [`PerfReport`], timing closures with [`measure`], and
//! writes it next to the workspace root (override the path with the
//! `SORL_BENCH_JSON` environment variable; set `SORL_BENCH_QUICK=1` to cut
//! sample counts in CI).

use std::path::PathBuf;
use std::time::Instant;

use serde::{Deserialize, Serialize};

/// Statistics for one measured benchmark variant (seconds per iteration).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PerfEntry {
    /// Variant id, e.g. `"tune_3d_session_parallel"`.
    pub id: String,
    /// Median seconds per iteration.
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
    /// The batch-scoring kernel the run dispatched to
    /// ([`ranksvm::kernel::active_kernel`]). Empty in snapshots that
    /// predate the stamp.
    #[serde(default)]
    pub kernel: String,
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
            kernel: ranksvm::kernel::active_kernel().to_string(),
            entries: Vec::new(),
        }
    }

    /// The provenance stamp compared across snapshots: git revision,
    /// scoring kernel and thread count, with `?` for a stamp the snapshot
    /// predates.
    pub fn stamp(&self) -> String {
        let or_unknown = |s: &str| if s.is_empty() { "?".to_string() } else { s.to_string() };
        format!(
            "rev {}, kernel {}, {} threads",
            or_unknown(&self.git_rev),
            or_unknown(&self.kernel),
            self.available_threads
        )
    }

    /// Times `f` for `samples` iterations and records the statistics under
    /// `id`, echoing a one-line summary to stdout.
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
        mut a: A,
        mut b: B,
    ) {
        assert!(samples > 0, "need at least one sample");
        let (mut times_a, mut times_b) = (Vec::with_capacity(samples), Vec::with_capacity(samples));
        for _ in 0..samples {
            times_a.push(time(&mut a));
            times_b.push(time(&mut b));
        }
        self.push(entry(id_a, times_a));
        self.push(entry(id_b, times_b));
    }

    /// Adds a measured entry, echoing a one-line summary to stdout.
    fn push(&mut self, entry: PerfEntry) {
        println!(
            "  perf {}: median {:.3} ms (min {:.3}, max {:.3}, {} samples)",
            entry.id,
            entry.median_s * 1e3,
            entry.min_s * 1e3,
            entry.max_s * 1e3,
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

/// Times `f` for `samples` iterations (each sample is one call) and
/// returns the per-iteration statistics.
pub fn measure<F: FnMut()>(id: &str, samples: usize, mut f: F) -> PerfEntry {
    assert!(samples > 0, "need at least one sample");
    entry(id, (0..samples).map(|_| time(&mut f)).collect())
}

/// Seconds one call of `f` takes.
fn time(f: &mut impl FnMut()) -> f64 {
    let t0 = Instant::now();
    f();
    t0.elapsed().as_secs_f64()
}

/// The statistics of a non-empty set of per-iteration times.
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

    #[test]
    fn alternating_variants_are_recorded_in_order() {
        let calls = std::cell::RefCell::new(String::new());
        let mut r = PerfReport::new("unit_test");
        r.record_alternating(
            ["a", "b"],
            3,
            || calls.borrow_mut().push('a'),
            || calls.borrow_mut().push('b'),
        );
        assert_eq!(calls.into_inner(), "ababab");
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
        assert_eq!(back.kernel, ranksvm::kernel::active_kernel());
        assert!(!back.git_rev.is_empty(), "a fresh report is always stamped");
    }

    #[test]
    fn stampless_snapshots_still_parse() {
        // A snapshot written before the stamps existed.
        let json = r#"{"name": "old", "created_unix_s": 1, "available_threads": 1,
            "quick": true, "entries": []}"#;
        let old: PerfReport = serde_json::from_str(json).unwrap();
        assert_eq!((old.git_rev.as_str(), old.kernel.as_str()), ("", ""));
        assert_eq!(old.stamp(), "rev ?, kernel ?, 1 threads");
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
