//! Trace and span identities.
//!
//! A [`TraceId`] names one logical request end-to-end: the client that
//! submitted it, the TCP frame that carried it (every frame header carries
//! the raw `u64`) and the shard worker that scored it all
//! stamp their spans with the same id, so draining the flight recorders
//! on both sides of a link yields one joinable story. A [`SpanId`] names
//! one timed region within a trace (a `tune` call, a batch score pass).
//!
//! Ids are random-enough 64-bit values, not sequential: two processes
//! that never spoke must not mint colliding traces. Zero is reserved as
//! "absent" — it is what an untraced client sends, and
//! [`TraceId::from_wire`] maps it to a fresh trace so its requests still
//! get coherent server-side spans.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

/// Identity of one logical request, shared across processes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct TraceId(u64);

/// Identity of one timed region within a trace.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct SpanId(u64);

impl TraceId {
    /// Mints a fresh, never-zero trace id.
    pub fn fresh() -> Self {
        TraceId(next_id())
    }

    /// Reconstructs a trace id received in a wire frame header. Zero
    /// means the peer did not send one (an untraced client): degrade to a
    /// fresh local trace rather than lumping every untraced request into
    /// one giant trace 0.
    pub fn from_wire(raw: u64) -> Self {
        if raw == 0 {
            Self::fresh()
        } else {
            TraceId(raw)
        }
    }

    /// The raw value to place in a wire frame header.
    pub fn as_u64(self) -> u64 {
        self.0
    }
}

impl SpanId {
    /// Mints a fresh, never-zero span id.
    pub fn fresh() -> Self {
        SpanId(next_id())
    }

    /// The raw 64-bit value (used by the flight recorder slots).
    pub fn as_u64(self) -> u64 {
        self.0
    }

    /// Reconstructs a span id from its raw value (recorder drain path).
    pub fn from_u64(raw: u64) -> Self {
        SpanId(raw)
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl std::fmt::Display for SpanId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// Process-wide id generator: a splitmix64 walk seeded from wall-clock
/// nanos XOR a stack address, so concurrently started processes diverge.
/// splitmix64 is a bijection over `u64`, so the walk cannot cycle early;
/// the zero output (one point in 2^64) is skipped by construction.
fn next_id() -> u64 {
    static STATE: AtomicU64 = AtomicU64::new(0);
    let mut cur = STATE.load(Ordering::Relaxed);
    loop {
        let base = if cur == 0 { seed() } else { cur };
        let next = base.wrapping_add(0x9e37_79b9_7f4a_7c15);
        match STATE.compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => {
                let mixed = splitmix64(next);
                // 0 is the reserved "absent" value; remap that single point.
                return if mixed == 0 { 0x5eed_5eed_5eed_5eed } else { mixed };
            }
            Err(seen) => cur = seen,
        }
    }
}

fn seed() -> u64 {
    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0x00de_ad00_beef_0000);
    // sorl-lint: allow(unsafe, "address-of as ASLR entropy; the pointer is never dereferenced")
    let stack_entropy = &nanos as *const u64 as u64;
    nanos ^ stack_entropy.rotate_left(32) | 1
}

fn splitmix64(mut x: u64) -> u64 {
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn fresh_ids_are_distinct_and_nonzero() {
        let mut seen = HashSet::new();
        for _ in 0..10_000 {
            let t = TraceId::fresh();
            assert_ne!(t.as_u64(), 0);
            assert!(seen.insert(t), "duplicate trace id {t}");
        }
    }

    #[test]
    fn wire_zero_degrades_to_a_fresh_trace() {
        let a = TraceId::from_wire(0);
        let b = TraceId::from_wire(0);
        assert_ne!(a.as_u64(), 0);
        assert_ne!(a, b, "absent wire traces must not collapse into one");
        assert_eq!(TraceId::from_wire(42).as_u64(), 42);
    }

    #[test]
    fn ids_are_distinct_across_threads() {
        let handles: Vec<_> = (0..8)
            .map(|_| {
                std::thread::spawn(|| {
                    (0..1000).map(|_| SpanId::fresh().as_u64()).collect::<Vec<_>>()
                })
            })
            .collect();
        let mut seen = HashSet::new();
        for h in handles {
            for id in h.join().expect("id thread") {
                assert!(seen.insert(id), "duplicate span id across threads");
            }
        }
    }
}
