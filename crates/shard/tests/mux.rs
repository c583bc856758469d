//! Multiplexed-link integration tests: request-id routing under shuffled
//! completion orders, poisoning on responses for ids that were never
//! issued or of the wrong kind, the client's in-flight cap, and the
//! dial-retry backoff surface.
//!
//! Everything here binds `127.0.0.1:0` only — no external network. The
//! fake peers are raw `TcpListener` loops speaking hand-rolled frames, so
//! the tests pin the *wire* behavior, not just two library halves
//! agreeing with each other.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::{Duration, Instant};

use sorl::tuner::TopK;
use sorl::StencilRanker;
use sorl_serve::{ServeConfig, ServeError, TuneRequest, TuneService};
use sorl_shard::wire::{self, bin, FrameKind};
use sorl_shard::{ReconnectPolicy, ShardServer, ShardTransport, TcpShard};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

fn dense_ranker(seed: u64) -> StencilRanker {
    sorl_shard::synthetic_ranker(seed)
}

fn config() -> ServeConfig {
    ServeConfig { threads: 1, ..Default::default() }
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

/// A fabricated answer whose `candidates` field carries a marker the
/// client side can assert on — empty entries are a legal `TopK`.
fn marked_answer(marker: usize) -> TopK {
    TopK { entries: Vec::new(), candidates: marker, seconds: 0.0 }
}

/// Answers request `id` with a binary `TuneOk` carrying `marker`, like a
/// real server would.
fn answer_marked(stream: &mut TcpStream, id: u64, trace: u64, marker: usize) {
    let payload = bin::encode_top_k(&marked_answer(marker));
    wire::write_frame(stream, FrameKind::TuneOk, id, trace, &payload).unwrap();
}

/// Tiny deterministic xorshift64* — the vendored proptest shim has no
/// shuffle strategy, so the property test drives its own seeded shuffles.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = (self.next() % (i as u64 + 1)) as usize;
            items.swap(i, j);
        }
    }
}

/// Property: whatever order the server completes a batch of in-flight
/// requests in, every response lands at the caller that issued it. A fake
/// server reads `M` concurrent tunes off one link, then answers them in a
/// seeded-shuffled order, echoing each request's `k` as the marker.
#[test]
fn interleaved_completions_resolve_to_their_own_tickets() {
    const M: usize = 8;
    for seed in [1u64, 0xdead_beef, 0x2545_f491_4f6c_dd1d, 42, 7777] {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            // Gather the whole in-flight window before answering anything:
            // the link needs no handshake, so the first frame is a request.
            let mut pending = Vec::new();
            for _ in 0..M {
                let frame = wire::read_frame(&mut stream).unwrap();
                assert_eq!(frame.kind, FrameKind::Tune);
                let req: TuneRequest = wire::from_payload(&frame.payload).unwrap();
                pending.push((frame.request_id, frame.trace_id, req.k));
            }
            XorShift(seed).shuffle(&mut pending);
            for (id, trace, k) in pending {
                answer_marked(&mut stream, id, trace, k);
            }
        });

        let shard = std::sync::Arc::new(TcpShard::connect(addr).unwrap());
        let callers: Vec<_> = (0..M)
            .map(|i| {
                let shard = std::sync::Arc::clone(&shard);
                // Each caller's k is its marker; distinct instances keep
                // the requests distinguishable on the wire too.
                std::thread::spawn(move || {
                    let top = shard.tune(lap(32 + i as u32), i + 1).unwrap();
                    assert_eq!(top.candidates, i + 1, "seed {seed}: caller {i} got another answer");
                })
            })
            .collect();
        for caller in callers {
            caller.join().unwrap();
        }
        server.join().unwrap();
    }
}

/// A response stamped with an id that was never issued means the stream
/// can no longer be trusted: the link is poisoned and the caller sees a
/// transport error naming the stray id.
#[test]
fn response_for_an_unknown_request_id_poisons_the_link() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let frame = wire::read_frame(&mut stream).unwrap();
        // Reply to a request nobody made.
        answer_marked(&mut stream, frame.request_id + 999, frame.trace_id, 1);
    });
    let shard = TcpShard::connect(addr).unwrap();
    let err = shard.tune(lap(64), 1).unwrap_err();
    assert!(
        matches!(err, ServeError::Transport(ref m) if m.contains("unknown request id")),
        "{err}"
    );
    server.join().unwrap();
}

/// Mismatched frame kinds for a known id are just as fatal: a snapshot
/// header answering a plain tune desyncs the conversation.
#[test]
fn wrong_kind_for_a_known_request_id_poisons_the_link() {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        let frame = wire::read_frame(&mut stream).unwrap();
        // StatsOk is a fine frame kind — for somebody else's request.
        wire::write_frame(&mut stream, FrameKind::StatsOk, frame.request_id, frame.trace_id, &[])
            .unwrap();
    });
    let shard = TcpShard::connect(addr).unwrap();
    let err = shard.tune(lap(64), 1).unwrap_err();
    assert!(matches!(err, ServeError::Transport(ref m) if m.contains("StatsOk")), "{err}");
    server.join().unwrap();
}

/// Dial failures on *re*connect walk the exponential backoff schedule and
/// report how many attempts were spent; `NO_RETRY` fails on the first.
#[test]
fn redial_backoff_is_bounded_and_reported() {
    // Hold a live listener just long enough for the eager connect, then
    // free the port so every redial fails.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let policy = ReconnectPolicy {
        base: Duration::from_millis(5),
        factor: 2,
        max_delay: Duration::from_millis(20),
        attempts: 3,
    };
    let shard = TcpShard::connect(addr).unwrap().with_reconnect(policy);
    drop(listener);

    // First call: the pre-dialed link was reset with the listener, so the
    // call fails with a plain transport error and the link is dropped.
    let err = shard.tune(lap(64), 1).unwrap_err();
    assert!(matches!(err, ServeError::Transport(_)), "{err}");

    // Second call: the slot is empty, so the client redials — and must
    // sleep out the whole 5+10+20ms schedule before giving up.
    let started = Instant::now();
    let err = shard.tune(lap(64), 1).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ServeError::Transport(ref m) if m.contains("after 4 attempt(s)")),
        "{err}"
    );
    assert!(elapsed >= Duration::from_millis(35), "backoff not honored: {elapsed:?}");

    // NO_RETRY: one attempt, immediate failure.
    let dead: SocketAddr = addr;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let eager = listener.local_addr().unwrap();
    let shard = TcpShard::connect(eager).unwrap().with_reconnect(ReconnectPolicy::NO_RETRY);
    drop(listener);
    let _ = shard.tune(lap(64), 1).unwrap_err(); // drop the reset link
    let started = Instant::now();
    let err = shard.tune(lap(64), 1).unwrap_err();
    assert!(
        matches!(err, ServeError::Transport(ref m) if m.contains("after 1 attempt(s)")),
        "{err}"
    );
    assert!(started.elapsed() < Duration::from_secs(2), "NO_RETRY must not sleep");
    let _ = dead;
}

/// The client-side in-flight cap is backpressure, not a shed: with a cap
/// of 1 (a lock-step link), concurrent callers serialize but all
/// complete.
#[test]
fn client_in_flight_cap_serializes_instead_of_failing() {
    let ranker = dense_ranker(0xabcd_ef01);
    let server = ShardServer::spawn(TuneService::spawn(ranker, config()), "127.0.0.1:0").unwrap();
    let shard =
        std::sync::Arc::new(TcpShard::connect(server.local_addr()).unwrap().with_max_in_flight(1));
    let callers: Vec<_> = (0..6u32)
        .map(|i| {
            let shard = std::sync::Arc::clone(&shard);
            std::thread::spawn(move || shard.tune(lap(40 + i), 2).unwrap())
        })
        .collect();
    for caller in callers {
        assert_eq!(caller.join().unwrap().entries.len(), 2);
    }
}
