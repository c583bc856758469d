//! Loopback integration tests of the TCP shard transport: a routed fleet
//! over `TcpShard`s must be indistinguishable from one over `LocalShard`s
//! (bit-for-bit answers, identical warm-up shipping), warm restarts must
//! work across the wire, and every wire fault — peer gone, garbage bytes,
//! wrong protocol version, corrupted snapshot chunks, JSON nested too
//! deep — must surface as a clean `ShardError::Transport` /
//! `ServeError::Transport`, never a panic or a partial cache mutation.
//!
//! Everything here binds `127.0.0.1:0` only — no external network.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

use sorl::StencilRanker;
use sorl_serve::{ServeConfig, ServeError, TuneService};
use sorl_shard::wire::{self, bin, FrameKind};
use sorl_shard::{LocalShard, ShardError, ShardRouter, ShardServer, ShardTransport, TcpShard};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

/// Deterministic dense synthetic ranker (no training run needed) — THE
/// construction `sorl-shardd --synthetic-ranker SEED` serves, so the
/// cross-process fingerprint assertions below cannot drift from the
/// daemon.
fn dense_ranker(seed: u64) -> StencilRanker {
    sorl_shard::synthetic_ranker(seed)
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

fn blur(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::blur(), GridSize::square(n)).unwrap()
}

fn workload() -> Vec<StencilInstance> {
    let mut qs = Vec::new();
    for i in 0..16u32 {
        qs.push(lap(48 + 8 * i));
        qs.push(blur(256 + 64 * i));
    }
    qs
}

/// Spawns a loopback shard server and a `TcpShard` linked to it.
fn tcp_shard(ranker: &StencilRanker) -> (ShardServer, TcpShard) {
    let server = ShardServer::spawn(
        TuneService::spawn(ranker.clone(), ServeConfig::default()),
        "127.0.0.1:0",
    )
    .expect("bind loopback");
    let shard = TcpShard::connect(server.local_addr()).expect("connect loopback");
    (server, shard)
}

#[test]
fn tcp_fleet_answers_bit_for_bit_like_a_local_fleet() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);

    let mut local = ShardRouter::new();
    let mut tcp = ShardRouter::new();
    let mut servers = Vec::new();
    for id in ["alpha", "beta", "gamma"] {
        local.add_shard(id, LocalShard::spawn(ranker.clone(), ServeConfig::default())).unwrap();
        let (server, shard) = tcp_shard(&ranker);
        tcp.add_shard(id, shard).unwrap();
        servers.push(server);
    }

    for q in workload() {
        for k in [1, 3] {
            let want = local.tune(q.clone(), k).unwrap();
            let got = tcp.tune(q.clone(), k).unwrap();
            assert_eq!(got.entries, want.entries, "{q} k={k}");
            assert_eq!(got.candidates, want.candidates, "{q} k={k}");
        }
    }
    // Same routing, same caches: per-shard counters agree across the two
    // transports (latency fields aside, which is why we compare counters).
    let local_stats: Vec<_> = local.stats();
    let tcp_stats: Vec<_> = tcp.stats();
    for ((id_a, a), (id_b, b)) in local_stats.iter().zip(&tcp_stats) {
        let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
        assert_eq!(id_a, id_b);
        assert_eq!(a.requests, b.requests, "{id_a}");
        assert_eq!(a.cache_hits, b.cache_hits, "{id_a}");
        assert_eq!(a.scored_instances, b.scored_instances, "{id_a}");
    }
}

#[test]
fn warm_shipping_crosses_the_wire_on_join() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let mut router = ShardRouter::new();
    let mut servers = Vec::new();
    for id in ["alpha", "beta", "gamma"] {
        let (server, shard) = tcp_shard(&ranker);
        router.add_shard(id, shard).unwrap();
        servers.push(server);
    }
    let qs = workload();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }

    let old_topo = router.topology();
    let new_topo = old_topo.with("delta");
    let expected_moves =
        qs.iter().filter(|q| new_topo.owner_of(&q.key()) != old_topo.owner_of(&q.key())).count();
    assert!(expected_moves > 0, "workload too small to exercise shipping");

    let (server, shard) = tcp_shard(&ranker);
    let report = router.add_shard("delta", shard).unwrap();
    servers.push(server);
    assert_eq!(report.shipped, expected_moves, "the remapped slice crossed the wire");
    assert_eq!(report.rejected, 0);
    assert_eq!(report.dropped, 0);

    // Every repeat is still warm somewhere — no query re-scores.
    let scored_before: u64 =
        router.stats().iter().map(|(_, s)| s.as_ref().unwrap().scored_instances).sum();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    let scored_after: u64 =
        router.stats().iter().map(|(_, s)| s.as_ref().unwrap().scored_instances).sum();
    assert_eq!(scored_after, scored_before);
}

#[test]
fn killed_tcp_shard_restarts_warm_from_its_snapshot_file() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let mut router = ShardRouter::new();
    let mut servers = Vec::new();
    for id in ["alpha", "beta", "gamma"] {
        let (server, shard) = tcp_shard(&ranker);
        router.add_shard(id, shard).unwrap();
        servers.push(server);
    }
    let qs = workload();
    for q in &qs {
        router.tune(q.clone(), 2).unwrap();
    }
    let topo = router.topology();
    let witness = qs
        .iter()
        .find(|q| topo.owner_of(&q.key()) == Some("beta"))
        .expect("beta owns something")
        .clone();

    // Persist beta's cache across the wire, then kill the process half.
    let dir = std::env::temp_dir().join("sorl-shard-tcp-fleet-test");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("beta.cache.json");
    let snapshot = router.snapshot_shard("beta").unwrap();
    assert!(!snapshot.is_empty());
    snapshot.save_json(&path).unwrap();
    drop(servers.remove(1)); // beta's server: service shuts down
    router.detach_shard("beta").unwrap();

    // Reincarnate beta: fresh service, warm import from the file, new
    // server (new port — the shard moved "hosts"), rejoin the fleet.
    let loaded = sorl_serve::CacheSnapshot::load_json(&path).unwrap();
    let expected = loaded.len();
    let service = TuneService::spawn(ranker.clone(), ServeConfig::default());
    assert_eq!(service.import_cache(loaded).unwrap(), expected);
    let server = ShardServer::spawn(service, "127.0.0.1:0").unwrap();
    let shard = TcpShard::connect(server.local_addr()).unwrap();
    router.add_shard("beta", shard).unwrap();
    servers.push(server);

    // The witness is a warm hit on the reborn shard — no scoring pass.
    let direct = sorl::session::TuningSession::new(ranker).top_k_predefined(&witness, 2);
    let got = router.tune(witness.clone(), 2).unwrap();
    assert_eq!(got.entries, direct.entries, "restored decision is bit-for-bit");
    let stats: std::collections::HashMap<String, _> = router.stats().into_iter().collect();
    let beta = stats["beta"].clone().unwrap();
    assert_eq!(beta.cache_hits, 1, "answered from the restored cache");
    assert_eq!(beta.scored_instances, 0, "zero scoring passes on the reborn shard");
    std::fs::remove_file(&path).ok();
}

#[test]
fn dead_shard_fails_remove_without_changing_the_topology() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let mut router = ShardRouter::new();
    let mut servers = Vec::new();
    for id in ["alpha", "beta"] {
        let (server, shard) = tcp_shard(&ranker);
        router.add_shard(id, shard).unwrap();
        servers.push(server);
    }
    for q in workload() {
        router.tune(q, 1).unwrap();
    }
    let alpha_entries = router.stats()[0].1.as_ref().unwrap().cache_entries;

    // Kill beta's process half; a graceful remove must now fail — and
    // leave the fleet exactly as it was (topology AND caches).
    drop(servers.remove(1));
    let err = router.remove_shard("beta").unwrap_err();
    assert!(matches!(err, ShardError::Transport { ref shard, .. } if shard == "beta"), "{err}");
    assert_eq!(router.len(), 2, "failed remove left the topology untouched");
    assert_eq!(
        router.stats()[0].1.as_ref().unwrap().cache_entries,
        alpha_entries,
        "failed remove left the survivor's cache untouched"
    );
    // The operator accepts the loss explicitly instead.
    router.detach_shard("beta").unwrap();
    assert_eq!(router.len(), 1);
}

#[test]
fn dropped_server_releases_its_port_for_a_successor() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let (server, shard) = tcp_shard(&ranker);
    let addr = server.local_addr();
    shard.ranker_fingerprint().unwrap(); // a live link existed
    drop(server);
    // The accept loop stopped and the listener closed on drop, so a
    // successor (same process, same address — the restart-in-place case)
    // can bind immediately instead of hitting AddrInUse.
    let successor =
        ShardServer::spawn(TuneService::spawn(ranker.clone(), ServeConfig::default()), addr)
            .expect("rebind");
    assert_eq!(successor.local_addr(), addr);
    // The old TcpShard re-dials lazily and reaches the successor — its
    // first call(s) may still observe the dying link's closed fault
    // before the connection poisons, so allow a few rounds.
    let mut reached = false;
    for _ in 0..20 {
        if shard.ranker_fingerprint() == Ok(ranker.fingerprint()) {
            reached = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(25));
    }
    assert!(reached, "old link never re-dialed the successor");
}

// ---------------------------------------------------------------------------
// The real daemon, across a process boundary
// ---------------------------------------------------------------------------

/// A spawned `sorl-shardd` child, killed on drop (panic-safe cleanup).
struct Daemon {
    child: std::process::Child,
    addr: std::net::SocketAddr,
}

impl Daemon {
    /// Spawns the actual `sorl-shardd` binary on a loopback port and
    /// parses its `LISTENING <addr>` handshake line.
    fn spawn(extra_args: &[&str]) -> Daemon {
        use std::io::BufRead;
        let mut child = std::process::Command::new(env!("CARGO_BIN_EXE_sorl-shardd"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra_args)
            .stdout(std::process::Stdio::piped())
            .spawn()
            .expect("spawn sorl-shardd");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut line = String::new();
        std::io::BufReader::new(stdout).read_line(&mut line).expect("read handshake");
        let addr = line
            .trim()
            .strip_prefix("LISTENING ")
            .unwrap_or_else(|| panic!("unexpected handshake {line:?}"))
            .parse()
            .expect("handshake address parses");
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn shardd_process_serves_identical_answers_and_restarts_warm() {
    const SEED: &str = "42";
    // The same synthetic construction the daemon uses for seed 42.
    let ranker = dense_ranker(42);
    let dir = std::env::temp_dir().join("sorl-shardd-process-test");
    std::fs::create_dir_all(&dir).unwrap();
    let snapshot_path = dir.join("shard.cache.json");
    std::fs::remove_file(&snapshot_path).ok();
    let snapshot_arg = snapshot_path.to_str().unwrap().to_string();

    let qs = [lap(96), blur(512), lap(160)];
    let persisted = {
        let daemon = Daemon::spawn(&["--synthetic-ranker", SEED]);
        let shard = TcpShard::connect(daemon.addr).expect("connect to daemon");
        assert_eq!(
            shard.ranker_fingerprint().unwrap(),
            ranker.fingerprint(),
            "same seed, same model, across the process boundary"
        );
        let mut reference = sorl::session::TuningSession::new(ranker.clone());
        for q in &qs {
            let got = shard.tune(q.clone(), 3).unwrap();
            let want = reference.top_k_predefined(q, 3);
            assert_eq!(got.entries, want.entries, "{q}: daemon answer is bit-for-bit");
        }
        // Persist the daemon's cache the way a supervisor would, then kill
        // the process without ceremony.
        let snapshot = shard.export_cache(&sorl_shard::CacheSlice::everything("solo")).unwrap();
        assert_eq!(snapshot.len(), qs.len());
        snapshot.save_json(&snapshot_path).unwrap();
        snapshot.len()
        // Daemon dropped here: SIGKILL.
    };

    // Reincarnation: a fresh process warm-starts from the snapshot file
    // and answers every repeat from cache — zero scoring passes.
    let daemon = Daemon::spawn(&["--synthetic-ranker", SEED, "--snapshot", &snapshot_arg]);
    let shard = TcpShard::connect(daemon.addr).unwrap();
    assert_eq!(shard.stats().unwrap().cache_entries as usize, persisted, "warm start");
    for q in &qs {
        shard.tune(q.clone(), 3).unwrap();
    }
    let stats = shard.stats().unwrap();
    assert_eq!(stats.cache_hits, qs.len() as u64, "every repeat was a warm hit");
    assert_eq!(stats.scored_instances, 0, "the reborn process never scored");
    std::fs::remove_file(&snapshot_path).ok();
}

// ---------------------------------------------------------------------------
// Fault injection
// ---------------------------------------------------------------------------

/// A loopback "server" that runs one closure per accepted connection.
fn rogue_server(behavior: impl Fn(TcpStream) + Send + 'static) -> std::net::SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for stream in listener.incoming().flatten() {
            behavior(stream);
        }
    });
    addr
}

#[test]
fn peer_closing_mid_request_is_a_clean_transport_error() {
    // Accept, read a little, close — the peer dies with a request in
    // flight.
    let addr = rogue_server(|mut stream| {
        let mut buf = [0u8; 4];
        let _ = stream.read(&mut buf);
    });
    let shard = TcpShard::connect(addr).unwrap();
    let err = shard.tune(lap(96), 2).unwrap_err();
    assert!(matches!(err, ServeError::Transport(_)), "{err}");

    // Routed through a router the same failure is a ShardError::Transport
    // — and a failing *join* leaves the topology untouched.
    let mut router = ShardRouter::new();
    let err = router.add_shard("dead", TcpShard::connect(addr).unwrap()).unwrap_err();
    assert!(matches!(err, ShardError::Transport { .. }), "{err}");
    assert!(router.is_empty(), "failed join left no half-attached shard");
}

#[test]
fn garbage_bytes_from_the_peer_are_rejected() {
    let addr = rogue_server(|mut stream| {
        // Read the request, then answer with noise.
        let _ = wire::read_frame(&mut stream);
        let _ = stream.write_all(&[0xde, 0xad, 0xbe, 0xef].repeat(16));
    });
    let shard = TcpShard::connect(addr).unwrap();
    let err = shard.tune(lap(96), 2).unwrap_err();
    assert!(matches!(err, ServeError::Transport(ref m) if m.contains("magic")), "{err}");
}

#[test]
fn wrong_protocol_version_from_the_peer_is_rejected() {
    let addr = rogue_server(|mut stream| {
        let _ = wire::read_frame(&mut stream);
        // A well-formed frame header stamped with a future version.
        let mut header = Vec::new();
        header.extend_from_slice(&wire::MAGIC);
        header.extend_from_slice(&7u16.to_le_bytes());
        header.push(0x21); // StatsOk
        header.extend_from_slice(&0u32.to_le_bytes());
        header.extend_from_slice(&[0u8; 16]); // request id, trace id
        let _ = stream.write_all(&header);
    });
    let shard = TcpShard::connect(addr).unwrap();
    let err = shard.stats().unwrap_err();
    assert!(matches!(err, ServeError::Transport(ref m) if m.contains("version 7")), "{err}");
    // A version mismatch fails the call outright: no redial follows.
    assert_eq!(shard.link_stats().dials, 1, "{:?}", shard.link_stats());
}

#[test]
fn server_rejects_wrong_version_and_garbage_without_panicking() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let (server, _shard) = tcp_shard(&ranker);

    // A well-formed frame of the previous protocol version (its 28-byte
    // header ends in a payload-codec byte): the server answers with one
    // error frame in the current layout naming the mismatch, then hangs up.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    let mut frame = Vec::new();
    frame.extend_from_slice(&wire::MAGIC);
    frame.extend_from_slice(&4u16.to_le_bytes());
    frame.push(0x02); // Stats
    frame.extend_from_slice(&0u32.to_le_bytes());
    frame.extend_from_slice(&1u64.to_le_bytes()); // request id
    frame.extend_from_slice(&0u64.to_le_bytes()); // trace id
    frame.push(0); // payload codec
    raw.write_all(&frame).unwrap();
    let reply = wire::read_frame(&mut raw).unwrap();
    assert_eq!((reply.kind, reply.request_id), (FrameKind::Error, 0));
    let fault = wire::decode_fault(&reply.payload);
    assert!(matches!(fault, ServeError::Transport(ref m) if m.contains("version 4")), "{fault}");
    let mut rest = [0u8; 1];
    assert!(!matches!(raw.read(&mut rest), Ok(n) if n > 0), "one fault, then the server hangs up");

    // Pure garbage: the connection is dropped (error frame best-effort);
    // the server survives and keeps serving real clients.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut sink = Vec::new();
    let _ = raw.read_to_end(&mut sink); // server closes on us
    let shard = TcpShard::connect(server.local_addr()).unwrap();
    assert!(shard.ranker_fingerprint().is_ok(), "server survived the garbage");
}

#[test]
fn deeply_nested_request_gets_a_fault_and_the_server_keeps_serving() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let (server, shard) = tcp_shard(&ranker);

    // A megabyte of `[` as a tune request: the JSON parser stops at its
    // depth limit instead of recursing until the connection thread's
    // stack overflows and takes the whole server process down.
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    wire::write_frame(&mut raw, FrameKind::Tune, 1, 0, &b"[".repeat(1 << 20)).unwrap();
    let reply = wire::read_frame(&mut raw).unwrap();
    assert_eq!((reply.kind, reply.request_id), (FrameKind::Error, 1));
    let fault = wire::decode_fault(&reply.payload);
    assert!(matches!(fault, ServeError::Transport(ref m) if m.contains("128 levels")), "{fault}");

    assert!(shard.tune(lap(96), 2).is_ok(), "a second connection still tunes");
}

#[test]
fn deeply_nested_error_frame_from_the_peer_is_a_transport_error() {
    // The client decodes error frames on its mux reader thread; a fault
    // nested 100k deep must fail the call, not overflow that thread.
    let addr = rogue_server(|mut stream| {
        let Ok(request) = wire::read_frame(&mut stream) else { return };
        let nest = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        let (id, trace) = (request.request_id, request.trace_id);
        let _ = wire::write_frame(&mut stream, FrameKind::Error, id, trace, nest.as_bytes());
    });
    let shard = TcpShard::connect(addr).unwrap();
    let err = shard.tune(lap(96), 2).unwrap_err();
    assert!(matches!(err, ServeError::Transport(ref m) if m.contains("undecodable")), "{err}");
}

#[test]
fn corrupted_snapshot_chunk_rejects_the_import_without_partial_apply() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let (server, shard) = tcp_shard(&ranker);

    // Warm the shard with one decision so "cache untouched" is observable.
    shard.tune(lap(96), 2).unwrap();
    assert_eq!(shard.stats().unwrap().cache_entries, 1);

    // Build a valid 3-entry snapshot for the same ranker, then corrupt one
    // chunk byte in flight.
    let donor = TuneService::spawn(ranker, ServeConfig::default());
    for q in [lap(128), lap(160), lap(192)] {
        donor.client().tune(q, 2).unwrap();
    }
    let snapshot = donor.cache_snapshot().unwrap();
    let (header, mut chunks) = bin::snapshot_to_chunks(&snapshot, 1);
    let mid = chunks[1].payload.len() / 2;
    chunks[1].payload[mid] ^= 0x08;

    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
    wire::write_frame(&mut raw, FrameKind::ImportCache, 1, 0, &wire::to_payload(&header)).unwrap();
    // The shipped encoder happily frames the corrupted chunk — its stored
    // checksum no longer matches the payload, which is exactly the damage
    // the receiver must catch.
    wire::write_chunk_frames(&mut raw, 1, &chunks).unwrap();
    let reply = wire::read_frame(&mut raw).unwrap();
    assert_eq!(reply.kind, FrameKind::Error, "corrupted chunk must be rejected");
    let fault = wire::decode_fault(&reply.payload);
    assert!(matches!(fault, ServeError::Transport(_)), "{fault}");

    // Nothing was applied: the cache still holds exactly the one original
    // decision — no entry of the corrupted snapshot leaked in.
    assert_eq!(shard.stats().unwrap().cache_entries, 1, "no partial import");
}

#[test]
fn import_then_export_preserves_decisions_and_order_across_the_wire() {
    let ranker = dense_ranker(0x2545_f491_4f6c_dd1d);
    let (_server, shard) = tcp_shard(&ranker);

    let donor = TuneService::spawn(ranker, ServeConfig::default());
    let qs: Vec<_> = (0..12u32).map(|i| lap(64 + 8 * i)).collect();
    for q in &qs {
        donor.client().tune(q.clone(), 2).unwrap();
    }
    let snapshot = donor.cache_snapshot().unwrap();
    assert_eq!(shard.import_cache(snapshot.clone()).unwrap(), qs.len());

    // Export it back over the wire: identical decisions in identical LRU
    // order. (The `last_used` ticks are re-stamped by the receiving cache
    // — only their *order* is contractual — so compare everything else.)
    let slice = sorl_shard::CacheSlice::everything("solo");
    let exported = shard.export_cache(&slice).unwrap();
    assert_eq!(exported.ranker_fingerprint, snapshot.ranker_fingerprint);
    assert_eq!(exported.len(), snapshot.len());
    for (back, orig) in exported.entries.iter().zip(&snapshot.entries) {
        assert_eq!(back.key, orig.key, "same decision order");
        assert_eq!(back.entries, orig.entries, "decision payload bit-for-bit");
        assert_eq!(back.candidates, orig.candidates);
    }
}
