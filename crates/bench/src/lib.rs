//! Shared infrastructure for the experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (the README's "Reproducing the paper's experiments" lists them):
//! it prints a human-readable rendition to stdout and writes
//! machine-readable CSV under `results/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

pub mod perf;

/// Directory where experiment binaries drop their CSV output; created on
/// demand. Honors `SORL_RESULTS_DIR`, defaulting to `./results`.
pub fn results_dir() -> PathBuf {
    let dir = std::env::var_os("SORL_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"));
    std::fs::create_dir_all(&dir).expect("create results directory");
    dir
}

/// Writes a CSV file with a header row.
///
/// # Panics
/// Panics when a row's width differs from the header's.
pub fn write_csv(path: &Path, header: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for row in rows {
        assert_eq!(row.len(), header.len(), "csv row width mismatch");
        out.push_str(&row.join(","));
        out.push('\n');
    }
    std::fs::write(path, out).expect("write csv");
    println!("  -> {}", path.display());
}

/// A fixed-width ASCII bar for quick visual comparison in terminals.
pub fn ascii_bar(value: f64, max: f64, width: usize) -> String {
    if !(value.is_finite() && max.is_finite()) || max <= 0.0 || value <= 0.0 {
        return String::new();
    }
    let n = ((value / max) * width as f64).round() as usize;
    "#".repeat(n.min(width))
}

/// Formats seconds with an adaptive unit (ns/us/ms/s/min/h).
pub fn fmt_seconds(s: f64) -> String {
    let mut out = String::new();
    if s < 1e-6 {
        let _ = write!(out, "{:.0} ns", s * 1e9);
    } else if s < 1e-3 {
        let _ = write!(out, "{:.1} us", s * 1e6);
    } else if s < 1.0 {
        let _ = write!(out, "{:.2} ms", s * 1e3);
    } else if s < 120.0 {
        let _ = write!(out, "{:.2} s", s);
    } else if s < 7200.0 {
        let _ = write!(out, "{:.1} min", s / 60.0);
    } else {
        let _ = write!(out, "{:.1} h", s / 3600.0);
    }
    out
}

/// The training sizes of the paper's Table II sweep.
pub const TABLE2_SIZES: [usize; 12] =
    [960, 1920, 2880, 3840, 4800, 5760, 6720, 7680, 8640, 9600, 16000, 32000];

/// The training sizes used for the ordinal-regression lines of Figs. 4/5.
pub const FIG4_SIZES: [usize; 4] = [960, 3840, 6720, 16000];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale() {
        assert_eq!(ascii_bar(5.0, 10.0, 10), "#####");
        assert_eq!(ascii_bar(10.0, 10.0, 10), "##########");
        assert_eq!(ascii_bar(20.0, 10.0, 10), "##########");
        assert_eq!(ascii_bar(0.0, 10.0, 10), "");
        assert_eq!(ascii_bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn seconds_formatting() {
        assert_eq!(fmt_seconds(5e-10), "1 ns".replace('1', "0")); // 0 ns rounds down
        assert!(fmt_seconds(2.5e-6).contains("us"));
        assert!(fmt_seconds(3.2e-3).contains("ms"));
        assert!(fmt_seconds(1.5).contains("s"));
        assert!(fmt_seconds(600.0).contains("min"));
        assert!(fmt_seconds(100_000.0).contains("h"));
    }

    #[test]
    fn table2_sizes_match_paper() {
        assert_eq!(TABLE2_SIZES.len(), 12);
        assert_eq!(TABLE2_SIZES[0], 960);
        assert_eq!(TABLE2_SIZES[11], 32000);
    }
}
