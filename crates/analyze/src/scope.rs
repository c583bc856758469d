//! Which rules watch which paths — the project-specific policy half of
//! the analyzer.
//!
//! Rules are deliberately scoped to where their bug class bites: a
//! truncating cast in a bench harness is noise, the same cast in the wire
//! fault encoder is the PR 5 `latency_bucket` bug waiting to recur.

/// Path classification for one file (workspace-relative, `/`-separated).
#[derive(Debug, Clone, Copy)]
pub struct Scope {
    /// SL002: wire/serve/ticket library code (panics become dropped
    /// requests or wedged links here).
    pub panic_path: bool,
    /// SL003: wire/serialization/stats code (casts feed the wire or the
    /// histograms).
    pub cast_path: bool,
    /// SL001 + SL004: the concurrent subsystems whose locks and atomics
    /// the fleet depends on.
    pub concurrency_path: bool,
    /// SL004 exemption: files whose relaxed atomics are documented
    /// wholesale (diagnostics counters, not synchronization).
    pub relaxed_allowlisted: bool,
    /// SL006: everywhere except the annotated kernel files — `unsafe`
    /// and raw pointers must not leak out of the fenced-off hot loops.
    pub unsafe_fence: bool,
}

/// Files whose `Ordering::Relaxed` uses are allowlisted as a whole. Keep
/// this list short and justified:
/// * `serve/src/stats.rs` — the `Counters` doc-contract says every cell
///   is a diagnostic or shed heuristic, never synchronization.
/// * `serve/src/service.rs` — every atomic it touches is a `Counters`
///   cell under that same contract (including the admission depth gauge,
///   which is explicitly an approximate shed heuristic).
const RELAXED_ALLOWLIST: &[&str] = &["crates/serve/src/stats.rs", "crates/serve/src/service.rs"];

/// Files allowed to contain `unsafe` / raw pointers — the performance
/// kernels whose module docs spell out their safety contracts. Everything
/// else is fenced (SL006): a stray `unsafe` outside this list is either
/// moved into a kernel file, rewritten safely, or line-justified.
/// * `exec/src/{engine,grid,pool}.rs` — the parallel stencil engine's
///   disjoint-tile writes and job channel.
/// * `ranksvm/src/kernel.rs` — the AVX2 scoring kernel (intrinsics).
/// * `obs/src/recorder.rs` — the flight recorder's name-pointer cell.
const KERNEL_UNSAFE_ALLOWLIST: &[&str] = &[
    "crates/exec/src/engine.rs",
    "crates/exec/src/grid.rs",
    "crates/exec/src/pool.rs",
    "crates/obs/src/recorder.rs",
    "crates/ranksvm/src/kernel.rs",
];

/// Classifies one workspace-relative path.
pub fn classify(path: &str) -> Scope {
    let lib = !path.contains("/bin/") && !path.contains("/tests/") && !path.contains("/benches/");
    let serve_or_shard =
        path.starts_with("crates/serve/src/") || path.starts_with("crates/shard/src/");
    let wire_or_stats = matches!(
        path,
        "crates/shard/src/wire.rs"
            | "crates/shard/src/wire/bin.rs"
            | "crates/shard/src/tcp.rs"
            | "crates/serve/src/stats.rs"
            | "crates/obs/src/metrics.rs"
            | "crates/serve/src/snapshot.rs"
            | "crates/serve/src/cache.rs"
            | "crates/serve/src/service.rs"
    );
    let concurrent = serve_or_shard || path.starts_with("crates/exec/src/");
    Scope {
        panic_path: serve_or_shard && lib,
        cast_path: wire_or_stats,
        concurrency_path: concurrent && lib,
        relaxed_allowlisted: RELAXED_ALLOWLIST.contains(&path),
        unsafe_fence: lib && !KERNEL_UNSAFE_ALLOWLIST.contains(&path),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_and_shard_lib_code_is_panic_scoped() {
        assert!(classify("crates/serve/src/ticket.rs").panic_path);
        assert!(classify("crates/shard/src/wire.rs").panic_path);
        assert!(!classify("crates/shard/src/bin/shardd.rs").panic_path, "daemons may panic");
        assert!(!classify("crates/ranksvm/src/model.rs").panic_path);
    }

    #[test]
    fn cast_scope_is_the_wire_stats_file_set() {
        assert!(classify("crates/shard/src/wire.rs").cast_path);
        assert!(classify("crates/shard/src/wire/bin.rs").cast_path, "the binary codec too");
        assert!(classify("crates/serve/src/stats.rs").cast_path);
        assert!(classify("crates/obs/src/metrics.rs").cast_path, "the one latency-bucket home");
        assert!(!classify("crates/exec/src/kernels.rs").cast_path);
    }

    #[test]
    fn unsafe_is_fenced_everywhere_but_the_kernel_files() {
        assert!(classify("crates/shard/src/tcp.rs").unsafe_fence);
        assert!(classify("crates/search/src/ga.rs").unsafe_fence, "fence is workspace-wide");
        assert!(classify("crates/core/src/session.rs").unsafe_fence, "the scatter is safe code");
        assert!(!classify("crates/ranksvm/src/kernel.rs").unsafe_fence, "the SIMD kernel");
        assert!(!classify("crates/exec/src/engine.rs").unsafe_fence, "the stencil engine");
        assert!(!classify("crates/shard/src/bin/shardd.rs").unsafe_fence, "lib code only");
    }

    #[test]
    fn stats_is_relaxed_allowlisted_and_documented() {
        assert!(classify("crates/serve/src/stats.rs").relaxed_allowlisted);
        assert!(classify("crates/serve/src/service.rs").relaxed_allowlisted);
        assert!(!classify("crates/serve/src/cache.rs").relaxed_allowlisted);
    }

    #[test]
    fn concurrency_scope_covers_serve_shard_exec() {
        assert!(classify("crates/exec/src/pool.rs").concurrency_path);
        assert!(classify("crates/shard/src/tcp.rs").concurrency_path);
        assert!(!classify("crates/search/src/ga.rs").concurrency_path);
    }
}
