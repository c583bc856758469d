//! Diff two `BENCH_*.json` perf snapshots and flag median regressions.
//!
//! ```text
//! bench_diff <baseline.json> <fresh.json> [--threshold 0.25] [--fail]
//! ```
//!
//! Compares the median seconds of every variant id present in both
//! snapshots. A variant whose fresh median exceeds the baseline median by
//! more than `threshold` (default 25%) is a regression: it is reported as
//! a GitHub Actions annotation (`::warning::`, or `::error::` with
//! `--fail`) and, with `--fail`, makes the process exit non-zero. Without
//! `--fail` the tool only annotates — the right mode when baseline and
//! fresh snapshots come from different machines (committed dev-box
//! baseline vs. CI runner), where absolute medians are not comparable but
//! wild relative swings are still worth a look.
//!
//! Both snapshots' provenance stamps (git revision, thread count) are
//! printed first, with a note naming every stamp that differs: medians
//! from another thread count compare machines as well as code.
//!
//! A *missing baseline file* is the expected first-run state of a freshly
//! added bench, not an error: the tool prints how to start the trajectory
//! and exits successfully (`--fail` included — there is nothing to
//! regress against yet). A missing or unparsable *fresh* snapshot is
//! still an error: the bench that was supposed to produce it ran in this
//! very job.

use std::process::ExitCode;

use sorl_bench::perf::PerfReport;

/// One compared variant.
#[derive(Debug, PartialEq)]
struct DiffLine {
    id: String,
    base_s: f64,
    fresh_s: f64,
}

impl DiffLine {
    /// Relative change of the fresh median over the baseline median
    /// (+0.30 = 30% slower).
    fn change(&self) -> f64 {
        if self.base_s <= 0.0 {
            return 0.0;
        }
        self.fresh_s / self.base_s - 1.0
    }

    fn is_regression(&self, threshold: f64) -> bool {
        self.change() > threshold
    }
}

/// Pairs up the variants the two snapshots share (order of the baseline),
/// plus the ids only one side has.
fn diff(base: &PerfReport, fresh: &PerfReport) -> (Vec<DiffLine>, Vec<String>) {
    let mut lines = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for b in &base.entries {
        match fresh.entries.iter().find(|f| f.id == b.id) {
            Some(f) => {
                lines.push(DiffLine { id: b.id.clone(), base_s: b.median_s, fresh_s: f.median_s })
            }
            None => unmatched.push(format!("{} (baseline only)", b.id)),
        }
    }
    for f in &fresh.entries {
        if !base.entries.iter().any(|b| b.id == f.id) {
            unmatched.push(format!("{} (fresh only)", f.id));
        }
    }
    (lines, unmatched)
}

/// The stamps that differ between the two snapshots, one phrase each. A
/// stamp one snapshot predates is reported as unstamped, not as a
/// mismatch.
fn stamp_differences(base: &PerfReport, fresh: &PerfReport) -> Vec<String> {
    let mut out = Vec::new();
    let (b, f) = (&base.git_rev, &fresh.git_rev);
    if b.is_empty() || f.is_empty() {
        out.push("rev unstamped".to_string());
    } else if b != f {
        out.push(format!("rev {b} -> {f}"));
    }
    if base.available_threads != fresh.available_threads {
        out.push(format!("threads {} -> {}", base.available_threads, fresh.available_threads));
    }
    out
}

/// The friendly first-run message for a bench with no committed baseline
/// yet. Not a warning: a brand-new bench *cannot* have a trajectory, and
/// failing (or even annotating) would punish adding coverage.
fn missing_baseline_note(base_path: &str, fresh_path: &str) -> String {
    format!(
        "no baseline snapshot at {base_path} — first run of this bench.\n\
         Nothing to diff against yet; commit {fresh_path} as the baseline to \
         start its perf trajectory. (This is expected for a newly added \
         bench and exits successfully.)"
    )
}

fn load(path: &str) -> PerfReport {
    let json = std::fs::read_to_string(path)
        .unwrap_or_else(|e| panic!("cannot read snapshot {path}: {e}"));
    serde_json::from_str(&json).unwrap_or_else(|e| panic!("cannot parse snapshot {path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut paths: Vec<&str> = Vec::new();
    let mut threshold = 0.25f64;
    let mut fail = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--threshold" => {
                threshold = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--threshold needs a number, e.g. 0.25");
            }
            "--fail" => fail = true,
            p => paths.push(p),
        }
    }
    let [base_path, fresh_path] = paths[..] else {
        eprintln!("usage: bench_diff <baseline.json> <fresh.json> [--threshold 0.25] [--fail]");
        return ExitCode::from(2);
    };

    if !std::path::Path::new(base_path).exists() {
        // Even without a baseline, the fresh snapshot must exist and
        // parse — the bench that produces it ran in this very job, so a
        // missing/garbled one is a real failure, not a first-run case.
        let _ = load(fresh_path);
        println!("{}", missing_baseline_note(base_path, fresh_path));
        return ExitCode::SUCCESS;
    }

    let base = load(base_path);
    let fresh = load(fresh_path);
    println!("perf diff `{}`, threshold {:.0}%", fresh.name, threshold * 100.0);
    println!("  baseline {base_path}: {}", base.stamp());
    println!("  fresh    {fresh_path}: {}", fresh.stamp());
    let differences = stamp_differences(&base, &fresh);
    if differences.is_empty() {
        println!("  stamps match");
    } else {
        println!("  stamps differ: {}", differences.join(", "));
    }

    let (lines, unmatched) = diff(&base, &fresh);
    let mut regressions = 0usize;
    for l in &lines {
        let marker = if l.is_regression(threshold) { " <-- REGRESSION" } else { "" };
        println!(
            "  {:<36} {:>10.3} ms -> {:>10.3} ms  ({:+.1}%){}",
            l.id,
            l.base_s * 1e3,
            l.fresh_s * 1e3,
            l.change() * 100.0,
            marker
        );
        if l.is_regression(threshold) {
            regressions += 1;
            let level = if fail { "error" } else { "warning" };
            println!(
                "::{level}::perf regression in {} / {}: median {:.3} ms -> {:.3} ms ({:+.1}%)",
                fresh.name,
                l.id,
                l.base_s * 1e3,
                l.fresh_s * 1e3,
                l.change() * 100.0
            );
        }
    }
    for u in &unmatched {
        println!("  {u}");
    }
    println!(
        "  {} variant(s) compared, {} regression(s) past {:.0}%",
        lines.len(),
        regressions,
        threshold * 100.0
    );
    if fail && regressions > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sorl_bench::perf::PerfEntry;

    fn entry(id: &str, median_s: f64) -> PerfEntry {
        PerfEntry { id: id.into(), median_s, min_s: median_s, max_s: median_s, samples: 3 }
    }

    fn report(entries: Vec<PerfEntry>) -> PerfReport {
        PerfReport {
            name: "unit".into(),
            created_unix_s: 0,
            available_threads: 1,
            quick: true,
            git_rev: "0123abc".into(),
            entries,
        }
    }

    #[test]
    fn matching_ids_are_compared_and_strays_reported() {
        let base = report(vec![entry("a", 0.010), entry("gone", 0.5)]);
        let fresh = report(vec![entry("a", 0.012), entry("new", 0.1)]);
        let (lines, unmatched) = diff(&base, &fresh);
        assert_eq!(lines.len(), 1);
        assert_eq!(lines[0].id, "a");
        assert!((lines[0].change() - 0.2).abs() < 1e-9);
        assert_eq!(unmatched, vec!["gone (baseline only)", "new (fresh only)"]);
    }

    #[test]
    fn threshold_separates_noise_from_regression() {
        let l = DiffLine { id: "x".into(), base_s: 0.010, fresh_s: 0.012 };
        assert!(!l.is_regression(0.25), "20% is under a 25% threshold");
        assert!(l.is_regression(0.15));
        let faster = DiffLine { id: "y".into(), base_s: 0.010, fresh_s: 0.002 };
        assert!(!faster.is_regression(0.25), "speedups are never regressions");
    }

    #[test]
    fn zero_baseline_never_divides() {
        let l = DiffLine { id: "z".into(), base_s: 0.0, fresh_s: 1.0 };
        assert_eq!(l.change(), 0.0);
        assert!(!l.is_regression(0.25));
    }

    #[test]
    fn missing_baseline_note_explains_the_first_run() {
        let note = missing_baseline_note("BENCH_new.json", "fresh/BENCH_new.json");
        assert!(note.contains("BENCH_new.json"), "{note}");
        assert!(note.contains("first run"), "{note}");
        assert!(note.contains("commit fresh/BENCH_new.json"), "{note}");
        assert!(!note.contains("::warning::"), "first runs are not warnings: {note}");
    }

    #[test]
    fn identical_stamps_match() {
        assert!(stamp_differences(&report(vec![]), &report(vec![])).is_empty());
    }

    #[test]
    fn mismatched_stamps_are_each_named() {
        let base = report(vec![]);
        let fresh =
            PerfReport { git_rev: "a1b2c3d-dirty".into(), available_threads: 2, ..report(vec![]) };
        assert_eq!(
            stamp_differences(&base, &fresh),
            vec!["rev 0123abc -> a1b2c3d-dirty", "threads 1 -> 2"]
        );
    }

    #[test]
    fn a_stampless_baseline_is_unstamped_not_mismatched() {
        // A snapshot written before the stamps existed parses, and the
        // diff says what it cannot compare.
        let json = r#"{"name": "unit", "created_unix_s": 0, "available_threads": 1,
            "quick": true, "entries": [{"id": "a", "median_s": 0.01, "min_s": 0.01,
            "max_s": 0.01, "samples": 3}]}"#;
        let base: PerfReport = serde_json::from_str(json).unwrap();
        assert_eq!(base.stamp(), "rev ?, 1 threads");
        let fresh = report(vec![entry("a", 0.01)]);
        assert_eq!(stamp_differences(&base, &fresh), vec!["rev unstamped"]);
        assert_eq!(diff(&base, &fresh).0.len(), 1, "the medians still compare");
    }

    #[test]
    fn reports_roundtrip_for_the_diff_tool() {
        let r = report(vec![entry("a", 0.010)]);
        let json = serde_json::to_string_pretty(&r).unwrap();
        let back: PerfReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.entries.len(), 1);
        assert_eq!(back.entries[0].id, "a");
        assert_eq!(back.entries[0].median_s, 0.010);
    }
}
