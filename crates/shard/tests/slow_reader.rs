//! The replies a connection makes the server hold are bounded: a peer
//! that pipelines requests and never reads stalls only its own
//! connection, and `ShardServerConfig::max_in_flight` caps the tunes a
//! connection holds until their replies are written.
//!
//! Everything here binds `127.0.0.1:0` only. The misbehaving peers are raw
//! sockets speaking hand-rolled frames.

use std::collections::HashSet;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use sorl_obs::PromWriter;
use sorl_serve::{ServeConfig, ServeError, ShedReason, TuneRequest, TuneService};
use sorl_shard::wire::{self, bin, FrameKind};
use sorl_shard::{ShardServer, ShardServerConfig, ShardTransport, TcpShard};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

/// Every predefined 2-D candidate: a reply of about 20 KB.
const WHOLE_2D: usize = 1600;
/// Every predefined 3-D candidate: milliseconds of scoring per miss.
const WHOLE_3D: usize = 8640;
/// Requests the slow peer sends before the test gives up on a stall: 32 MB
/// of requests. The server blocks after a few hundred: then its socket
/// buffers hold a few MB of replies, and the peer's its unread requests.
const MAX_PIPELINED: u64 = 2000;

fn spawn_server(config: ShardServerConfig) -> ShardServer {
    let service = TuneService::spawn(sorl_shard::synthetic_ranker(0x51_0e), ServeConfig::default());
    ShardServer::spawn_with(service, "127.0.0.1:0", config).unwrap()
}

fn tune_frame(instance: StencilInstance, k: usize) -> Vec<u8> {
    wire::to_payload(&TuneRequest::new(instance, k))
}

fn raw_peer(addr: SocketAddr) -> TcpStream {
    let stream = TcpStream::connect(addr).unwrap();
    stream.set_nodelay(true).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream
}

/// Reads `n` replies and returns them by request id, asserting that no id
/// is answered twice.
fn read_replies(stream: &mut TcpStream, n: u64) -> Vec<(u64, FrameKind, Vec<u8>)> {
    let mut seen = HashSet::new();
    (0..n)
        .map(|_| {
            let frame = wire::read_frame(stream).unwrap();
            assert!(seen.insert(frame.request_id), "request {} answered twice", frame.request_id);
            (frame.request_id, frame.kind, frame.payload)
        })
        .collect()
}

#[test]
fn a_peer_that_stops_reading_stalls_only_its_own_connection() {
    let server = spawn_server(ShardServerConfig::default());
    let blur = StencilKernel::blur();
    let warm = StencilInstance::new(blur.clone(), GridSize::square(512)).unwrap();
    server.service().client().tune(warm, WHOLE_2D).unwrap();
    // The cache keys on structure, not names: a 16 KB name pads each
    // request, so a few hundred fill the socket buffers.
    let padded = StencilKernel::new(
        "b".repeat(16 << 10),
        blur.pattern().clone(),
        blur.buffers(),
        blur.dtype(),
    );
    let padded = StencilInstance::new(padded.unwrap(), GridSize::square(512)).unwrap();
    let payload = tune_frame(padded, WHOLE_2D);

    // Pipeline warm whole-set hits and never read: once the replies fill
    // the socket buffers, the server's reader blocks on its write, stops
    // reading, and this peer's writes time out.
    let mut slow = raw_peer(server.local_addr());
    slow.set_write_timeout(Some(Duration::from_millis(300))).unwrap();
    let mut sent = 0u64;
    let stalled = loop {
        if sent == MAX_PIPELINED {
            break false;
        }
        match wire::write_frame(&mut slow, FrameKind::Tune, sent + 1, 0, &payload) {
            Ok(()) => sent += 1,
            Err(wire::WireError::Io(e)) => {
                assert!(
                    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut),
                    "{e}"
                );
                break true;
            }
            Err(e) => panic!("{e}"),
        }
    };
    assert!(stalled, "the server read all {sent} requests while holding every reply");

    // The stall is this connection's alone: another link is served.
    let other = TcpShard::connect(server.local_addr()).unwrap();
    let started = Instant::now();
    let lap = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(48)).unwrap();
    assert_eq!(other.tune(lap, 3).unwrap().len(), 3);
    let waited = started.elapsed();
    assert!(waited < Duration::from_secs(1), "a tune on another connection took {waited:?}");

    // Draining the socket unblocks the server: every request sent whole
    // is answered exactly once (the one cut by the timeout is not).
    let replies = read_replies(&mut slow, sent);
    for (id, kind, payload) in replies {
        assert!((1..=sent).contains(&id), "reply for request {id}, never sent");
        assert_eq!(kind, FrameKind::TuneOk, "request {id}");
        assert_eq!(bin::decode_top_k(&payload).unwrap().len(), WHOLE_2D);
    }
    slow.set_read_timeout(Some(Duration::from_millis(200))).unwrap();
    assert!(wire::read_frame(&mut slow).is_err(), "a reply beyond the {sent} requests sent");
}

/// The server's live count of tunes whose replies are not yet written.
fn held(server: &ShardServer) -> f64 {
    let mut page = PromWriter::new();
    server.metrics_source().collect(&mut page);
    let page = page.into_string();
    let line = page.lines().find(|l| l.starts_with("sorl_link_in_flight ")).unwrap();
    line.rsplit(' ').next().unwrap().parse().unwrap()
}

#[test]
fn the_in_flight_cap_sheds_pipelined_misses_until_replies_are_written() {
    const CAP: usize = 2;
    const PIPELINED: u64 = 8;
    let server = spawn_server(ShardServerConfig { max_in_flight: CAP });
    let mut peer = raw_peer(server.local_addr());
    let lap = |n| StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap();

    for round in 0..2u64 {
        // Distinct whole-set 3-D misses, each milliseconds on the worker:
        // the first `CAP` hold the connection's slots while the rest
        // arrive, and those are shed at once.
        for i in 0..PIPELINED {
            let id = round * PIPELINED + i + 1;
            let payload = tune_frame(lap(40 + 8 * id as u32), WHOLE_3D);
            wire::write_frame(&mut peer, FrameKind::Tune, id, 0, &payload).unwrap();
        }
        let mut answered = Vec::new();
        for (id, kind, payload) in read_replies(&mut peer, PIPELINED) {
            match kind {
                FrameKind::TuneOk => answered.push(id),
                FrameKind::Error => assert_eq!(
                    wire::decode_fault(&payload),
                    ServeError::Overloaded(ShedReason::LinkInFlight),
                    "request {id}"
                ),
                other => panic!("request {id} answered with {other:?}"),
            }
        }
        answered.sort_unstable();
        let first = round * PIPELINED + 1;
        assert_eq!(answered, (first..first + CAP as u64).collect::<Vec<_>>(), "round {round}");

        // Each slot comes back once its reply is written, so the next
        // round is admitted again.
        let deadline = Instant::now() + Duration::from_secs(10);
        while held(&server) > 0.0 {
            assert!(Instant::now() < deadline, "slots still held after their replies were read");
            std::thread::yield_now();
        }
    }
}
