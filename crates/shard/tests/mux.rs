//! Multiplexed-link integration tests: request-id routing under shuffled
//! completion orders, poisoning on responses for ids that were never
//! issued or of the wrong kind, the client's in-flight cap, the dial-retry
//! backoff, and the one read path at both ends: frames split into pieces
//! or coalesced into one write, and snapshot streams contiguous on the
//! wire.
//!
//! Everything here binds `127.0.0.1:0` only — no external network. The
//! fake peers are raw `TcpListener` loops speaking hand-rolled frames, so
//! the tests pin the *wire* behavior, not just two library halves
//! agreeing with each other.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use sorl::tuner::TopK;
use sorl::StencilRanker;
use sorl_serve::{CacheSnapshot, ServeConfig, ServeError, TuneRequest, TuneService};
use sorl_shard::wire::{self, bin, FrameKind};
use sorl_shard::{CacheSlice, ShardServer, ShardTransport, TcpShard};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

fn dense_ranker(seed: u64) -> StencilRanker {
    sorl_shard::synthetic_ranker(seed)
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

/// Dial failures on *re*connect sleep out the fixed 25+50+100+200 ms
/// schedule and report how many attempts were spent; without the backoff
/// the first failure surfaces at once.
#[test]
fn redial_backoff_is_bounded_and_reported() {
    // Hold a live listener just long enough for the eager connect, then
    // free the port so every redial fails.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard = TcpShard::connect(listener.local_addr().unwrap()).unwrap();
    drop(listener);

    // First call: the pre-dialed link was reset with the listener, so the
    // call fails with a plain transport error and the link is dropped.
    let err = shard.tune(lap(64), 1).unwrap_err();
    assert!(matches!(err, ServeError::Transport(_)), "{err}");

    // Second call: the slot is empty, so the client redials — and must
    // sleep out the whole schedule before giving up.
    let started = Instant::now();
    let err = shard.tune(lap(64), 1).unwrap_err();
    let elapsed = started.elapsed();
    assert!(
        matches!(err, ServeError::Transport(ref m) if m.contains("after 5 attempt(s)")),
        "{err}"
    );
    assert!(elapsed >= Duration::from_millis(375), "backoff not honored: {elapsed:?}");

    // Without the backoff: one attempt, immediate failure.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let shard = TcpShard::connect(listener.local_addr().unwrap()).unwrap().without_redial_backoff();
    drop(listener);
    let _ = shard.tune(lap(64), 1).unwrap_err(); // drop the reset link
    let started = Instant::now();
    let err = shard.tune(lap(64), 1).unwrap_err();
    assert!(
        matches!(err, ServeError::Transport(ref m) if m.contains("after 1 attempt(s)")),
        "{err}"
    );
    assert!(started.elapsed() < Duration::from_secs(2), "a single dial must not sleep");
}

/// The client-side in-flight cap is backpressure, not a shed: with a cap
/// of 1 (a lock-step link), concurrent callers serialize but all
/// complete.
#[test]
fn client_in_flight_cap_serializes_instead_of_failing() {
    let ranker = dense_ranker(0xabcd_ef01);
    let server =
        ShardServer::spawn(TuneService::spawn(ranker, ServeConfig::default()), "127.0.0.1:0")
            .unwrap();
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

// ---------------------------------------------------------------------------
// One read path: split frames, coalesced frames, contiguous streams
// ---------------------------------------------------------------------------

/// A cache snapshot of `n` decisions for `ranker`'s fingerprint.
fn warm_snapshot(ranker: StencilRanker, n: u32) -> CacheSnapshot {
    let donor = TuneService::spawn(ranker, ServeConfig::default());
    for i in 0..n {
        donor.client().tune(lap(64 + 8 * i), 2).unwrap();
    }
    donor.cache_snapshot().unwrap()
}

fn raw_peer(server: &ShardServer) -> TcpStream {
    let stream = TcpStream::connect(server.local_addr()).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    stream
}

/// Asserts that no frame beyond those already read arrives.
fn assert_no_more_frames(stream: &mut TcpStream) {
    stream.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    assert!(wire::read_frame(stream).is_err(), "a reply nobody asked for");
}

/// A stream's frames are contiguous on the wire: a server that slips
/// another request's reply between an export's header and its chunks
/// fails the export with a transport error and poisons the link, instead
/// of the client routing the stray frame and returning the snapshot.
#[test]
fn a_reply_inside_a_snapshot_stream_fails_the_export() {
    let snapshot = warm_snapshot(dense_ranker(0x5e9a), 1);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sent = snapshot.clone();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        // Gather both requests, in whichever order they arrive.
        let (mut export, mut tune) = (0, (0, 0));
        for _ in 0..2 {
            let frame = wire::read_frame(&mut stream).unwrap();
            match frame.kind {
                FrameKind::ExportCache => export = frame.request_id,
                FrameKind::Tune => tune = (frame.request_id, frame.trace_id),
                other => panic!("unexpected {other:?} request"),
            }
        }
        let (header, chunks) = bin::snapshot_to_chunks(&sent, wire::CHUNK_ENTRIES);
        let header = wire::to_payload(&header);
        wire::write_frame(&mut stream, FrameKind::SnapshotHeader, export, 0, &header).unwrap();
        answer_marked(&mut stream, tune.0, tune.1, 1);
        wire::write_chunk_frames(&mut stream, export, &chunks).unwrap();
        let _ = wire::read_frame(&mut stream);
    });

    let shard = Arc::new(TcpShard::connect(addr).unwrap());
    let tuner = {
        let shard = Arc::clone(&shard);
        std::thread::spawn(move || shard.tune(lap(64), 1))
    };
    let err = shard.export_cache(&CacheSlice::everything("solo")).unwrap_err();
    assert!(matches!(err, ServeError::Transport(ref m) if m.contains("TuneOk")), "{err}");
    let tuned = tuner.join().unwrap();
    assert!(matches!(tuned, Err(ServeError::Transport(_))), "the link is poisoned: {tuned:?}");
    drop(shard);
    server.join().unwrap();
}

/// A snapshot stream that arrives a few bytes at a time, frames split at
/// every boundary, reassembles into the snapshot the server sent.
#[test]
fn a_snapshot_stream_dribbled_in_pieces_reassembles() {
    let snapshot = warm_snapshot(dense_ranker(0xd1bb), 3);
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let sent = snapshot.clone();
    let server = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().unwrap();
        stream.set_nodelay(true).unwrap();
        let id = wire::read_frame(&mut stream).unwrap().request_id;
        // One chunk per decision, so the stream holds several chunk frames.
        let (header, chunks) = bin::snapshot_to_chunks(&sent, 1);
        let mut bytes = Vec::new();
        wire::write_frame(&mut bytes, FrameKind::SnapshotHeader, id, 0, &wire::to_payload(&header))
            .unwrap();
        wire::write_chunk_frames(&mut bytes, id, &chunks).unwrap();
        for piece in bytes.chunks(7) {
            stream.write_all(piece).unwrap();
            std::thread::sleep(Duration::from_micros(300));
        }
        let _ = wire::read_frame(&mut stream);
    });
    let shard = TcpShard::connect(addr).unwrap();
    assert_eq!(shard.export_cache(&CacheSlice::everything("solo")).unwrap(), snapshot);
    drop(shard);
    server.join().unwrap();
}

/// A tune request written one byte at a time, with pauses, is read as one
/// request and answered exactly once.
#[test]
fn a_request_dribbled_byte_by_byte_is_answered_once() {
    let ranker = dense_ranker(0xb17e);
    let server =
        ShardServer::spawn(TuneService::spawn(ranker, ServeConfig::default()), "127.0.0.1:0")
            .unwrap();
    let mut raw = raw_peer(&server);
    let mut frame = Vec::new();
    let request = wire::to_payload(&TuneRequest::new(lap(48), 2));
    wire::write_frame(&mut frame, FrameKind::Tune, 7, 0, &request).unwrap();
    for byte in &frame {
        raw.write_all(std::slice::from_ref(byte)).unwrap();
        std::thread::sleep(Duration::from_micros(100));
    }
    let reply = wire::read_frame(&mut raw).unwrap();
    assert_eq!((reply.kind, reply.request_id), (FrameKind::TuneOk, 7));
    assert_eq!(bin::decode_top_k(&reply.payload).unwrap().len(), 2);
    assert_no_more_frames(&mut raw);
}

/// Two tunes, an import stream and a stats request sent in one write
/// land in one buffered read on the server: each request gets exactly one
/// reply, and the import is applied. Any read that bypassed the
/// connection's buffered reader would lose the frames behind it.
#[test]
fn coalesced_requests_and_an_import_stream_each_get_one_reply() {
    const SEED: u64 = 0xc0a1;
    let server = ShardServer::spawn(
        TuneService::spawn(dense_ranker(SEED), ServeConfig::default()),
        "127.0.0.1:0",
    )
    .unwrap();
    let snapshot = warm_snapshot(dense_ranker(SEED), 3);
    let (header, chunks) = bin::snapshot_to_chunks(&snapshot, 1);
    let tune = |n| wire::to_payload(&TuneRequest::new(lap(n), 2));
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, FrameKind::Tune, 1, 0, &tune(40)).unwrap();
    wire::write_frame(&mut bytes, FrameKind::Tune, 2, 0, &tune(48)).unwrap();
    let header = wire::to_payload(&header);
    wire::write_frame(&mut bytes, FrameKind::ImportCache, 3, 0, &header).unwrap();
    wire::write_chunk_frames(&mut bytes, 3, &chunks).unwrap();
    wire::write_frame(&mut bytes, FrameKind::Stats, 4, 0, &[]).unwrap();

    let mut raw = raw_peer(&server);
    raw.write_all(&bytes).unwrap();
    let mut replies: Vec<_> = (0..4).map(|_| wire::read_frame(&mut raw).unwrap()).collect();
    assert_no_more_frames(&mut raw);
    replies.sort_by_key(|frame| frame.request_id);
    let answered: Vec<_> = replies.iter().map(|frame| (frame.request_id, frame.kind)).collect();
    assert_eq!(
        answered,
        [
            (1, FrameKind::TuneOk),
            (2, FrameKind::TuneOk),
            (3, FrameKind::ImportOk),
            (4, FrameKind::StatsOk)
        ]
    );
    assert_eq!(wire::from_payload::<usize>(&replies[2].payload).unwrap(), snapshot.len());
    let resident = server.service().cache_snapshot().unwrap();
    for entry in &snapshot.entries {
        assert!(resident.entries.iter().any(|e| e.key == entry.key), "imported decision resident");
    }
}
