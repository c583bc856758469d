//! SL006: `unsafe` and raw pointers outside the annotated kernel fence.
//!
//! The workspace's deliberate policy is that unsafety is *concentrated*:
//! the stencil engine and the flight recorder each carry a module-level
//! safety contract, and everything else stays 100% safe Rust. This rule
//! is the fence — an `unsafe` block, an `unsafe impl Send`, or a `*mut T`
//! field appearing in any other library file is flagged until it moves
//! behind the fence (see `scope::KERNEL_UNSAFE_ALLOWLIST`), is rewritten
//! safely, or carries a line justification:
//! `// sorl-lint: allow(unsafe, "why sound")`.

use crate::diag::{Finding, Rule};
use crate::parse::AnalyzedFile;
use crate::rules::finding;
use crate::scope::Scope;

/// Scans the whole token stream — not just function bodies, because
/// `unsafe impl Send` and raw-pointer struct fields live at item level —
/// skipping only test-function bodies.
pub fn check(file: &AnalyzedFile, scope: &Scope) -> Vec<Finding> {
    if !scope.unsafe_fence {
        return Vec::new();
    }
    let test_bodies: Vec<std::ops::Range<usize>> =
        file.functions.iter().filter(|f| f.is_test).map(|f| f.body.clone()).collect();
    let mut out = Vec::new();
    for (i, t) in file.code.iter().enumerate() {
        if test_bodies.iter().any(|r| r.contains(&i)) {
            continue;
        }
        if t.is_ident("unsafe") {
            out.push(finding(
                Rule::UnsafeFence,
                file,
                t.line,
                "`unsafe` outside the annotated kernel allowlist".to_string(),
                "move the unsafety into a fenced kernel file (exec engine, flight recorder) \
                 with its safety contract, rewrite safely, or justify: \
                 // sorl-lint: allow(unsafe, \"why sound\")",
            ));
        }
        // `*` directly followed by `const`/`mut` is a raw-pointer type:
        // neither keyword can follow a multiplication.
        if t.is_punct("*") {
            if let Some(next) =
                file.code.get(i + 1).filter(|n| n.is_ident("const") || n.is_ident("mut"))
            {
                out.push(finding(
                    Rule::UnsafeFence,
                    file,
                    t.line,
                    format!(
                        "raw pointer type `*{}` outside the annotated kernel allowlist",
                        next.text
                    ),
                    "raw pointers belong behind the kernel fence — use references/slices here, \
                     or justify: // sorl-lint: allow(unsafe, \"why sound\")",
                ));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rules::testutil::all_on;

    fn check_src(src: &str) -> Vec<Finding> {
        check(&AnalyzedFile::parse("crates/serve/src/x.rs", src), &all_on())
    }

    #[test]
    fn unsafe_blocks_impls_and_fns_are_flagged() {
        let src = r#"
struct P(usize);
unsafe impl Send for P {}
unsafe fn poke() { }
fn f() -> u8 { unsafe { std::mem::zeroed() } }
"#;
        let got = check_src(src);
        let lines: Vec<u32> = got.iter().map(|f| f.line).collect();
        assert_eq!(lines, [3, 4, 5]);
        assert!(got.iter().all(|f| f.rule == Rule::UnsafeFence));
    }

    #[test]
    fn raw_pointer_types_are_flagged_but_multiplication_is_not() {
        let src = r#"
struct P(*mut u8, *const u8);
fn f(a: usize, b: usize) -> usize { a * b }
fn g(c: usize) -> usize { c * const_like(c) }
fn const_like(x: usize) -> usize { x }
"#;
        let got = check_src(src);
        // Both fields on line 2; `a * b` is arithmetic. `c * const_like(c)`
        // tokenizes as `* const_like` — a different identifier, not the
        // `const` keyword — so it stays clean too.
        assert_eq!(got.len(), 2);
        assert!(got.iter().all(|f| f.line == 2));
        assert!(got[0].message.contains("*mut"));
        assert!(got[1].message.contains("*const"));
    }

    #[test]
    fn test_code_may_be_unsafe() {
        let src = r#"
fn lib() -> u8 { 0 }
#[cfg(test)]
mod tests {
    #[test]
    fn t() { let _ = unsafe { std::mem::zeroed::<u8>() }; }
}
"#;
        assert!(check_src(src).is_empty());
    }

    #[test]
    fn allowlisted_kernel_files_are_not_fenced() {
        let path = "crates/exec/src/engine.rs";
        let file = AnalyzedFile::parse(path, "unsafe fn score(p: *const f64) { }");
        assert!(check(&file, &crate::scope::classify(path)).is_empty());
    }
}
