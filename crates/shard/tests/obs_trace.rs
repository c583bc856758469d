//! Observability integration tests: trace propagation over the wire,
//! trace echo and fresh server traces for untraced requests, link stats,
//! and fleet-wide stats merging over a loopback TCP fleet.
//!
//! Everything binds `127.0.0.1:0` only. The raw-socket halves speak
//! hand-rolled frames, so the trace tests pin actual wire behavior.

use std::net::TcpStream;
use std::time::Duration;

use sorl_obs::{EventKind, TraceId};
use sorl_serve::{ServeConfig, TuneRequest, TuneService};
use sorl_shard::wire::{self, bin, FrameKind};
use sorl_shard::{ShardRouter, ShardServer, ShardTransport, TcpShard};
use stencil_model::{GridSize, StencilInstance, StencilKernel};

fn spawn_server(seed: u64) -> ShardServer {
    let service = TuneService::spawn(sorl_shard::synthetic_ranker(seed), ServeConfig::default());
    ShardServer::spawn(service, "127.0.0.1:0").unwrap()
}

fn lap(n: u32) -> StencilInstance {
    StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(n)).unwrap()
}

/// One tune over a link leaves client- and server-side spans that share a
/// single `TraceId` — the client's `tune` span and the server's
/// `queue_wait`/`score_batch` spans joined by the trace id the frame
/// carried.
#[test]
fn tune_round_trip_shares_one_trace_across_both_recorders() {
    let server = spawn_server(0x0b5e_7ace);
    let shard = TcpShard::connect(server.local_addr()).unwrap();
    shard.tune(lap(64), 2).unwrap();

    let client_events = shard.flight_recorder().snapshot();
    let tune_begin = client_events
        .iter()
        .find(|e| e.name == "tune" && e.kind == EventKind::SpanBegin)
        .expect("client recorded a tune span");
    let trace = tune_begin.trace;
    assert_ne!(trace.as_u64(), 0, "a live trace id is never the absent marker");
    assert!(
        client_events
            .iter()
            .any(|e| e.name == "tune" && e.kind == EventKind::SpanEnd && e.trace == trace),
        "the client tune span closed"
    );

    let server_events = server.service().flight_recorder().snapshot();
    for name in ["queue_wait", "score_batch"] {
        for kind in [EventKind::SpanBegin, EventKind::SpanEnd] {
            assert!(
                server_events.iter().any(|e| e.name == name && e.kind == kind && e.trace == trace),
                "server recorded {kind:?} of {name:?} under the client's trace\n{server_events:#?}"
            );
        }
    }
    // The cache verdict event rides the same trace, under the batch span.
    assert!(
        server_events.iter().any(|e| e.name == "cache_miss" && e.trace == trace),
        "first-touch tune is a recorded cache miss"
    );
}

/// Repeat tunes of one instance hit the decision cache; the hit is an
/// instant event on the *request's* trace, so per-request cache verdicts
/// are attributable even inside a shared batch span.
#[test]
fn cache_hits_are_recorded_under_the_requests_trace() {
    let server = spawn_server(0xcac4_e417);
    let shard = TcpShard::connect(server.local_addr()).unwrap();
    shard.tune(lap(48), 1).unwrap();
    shard.tune(lap(48), 1).unwrap();

    let client_traces: Vec<TraceId> = shard
        .flight_recorder()
        .snapshot()
        .iter()
        .filter(|e| e.name == "tune" && e.kind == EventKind::SpanBegin)
        .map(|e| e.trace)
        .collect();
    assert_eq!(client_traces.len(), 2);
    assert_ne!(client_traces[0], client_traces[1], "each tune gets its own trace");

    let server_events = server.service().flight_recorder().snapshot();
    assert!(
        server_events.iter().any(|e| e.name == "cache_hit" && e.trace == client_traces[1]),
        "the repeat tune's hit is recorded under its own trace"
    );
}

/// An untraced request (trace id 0) is answered, and the server's spans
/// still open and close — under a *fresh* trace (the absent wire trace
/// degrades to a local one, never to trace id 0).
#[test]
fn untraced_requests_get_answers_and_fresh_server_traces() {
    let server = spawn_server(0x0dd5_0c4e);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let req = TuneRequest { instance: lap(56), k: 1 };
    wire::write_frame(&mut raw, FrameKind::Tune, 9, 0, &wire::to_payload(&req)).unwrap();
    let reply = wire::read_frame(&mut raw).unwrap();
    assert_eq!(reply.kind, FrameKind::TuneOk);
    assert_eq!(reply.request_id, 9);
    assert_eq!(reply.trace_id, 0, "the reply echoes the absent trace");
    assert_eq!(bin::decode_top_k(&reply.payload).unwrap().entries.len(), 1);

    // The link is healthy, not poisoned: a second request still answers.
    wire::write_frame(&mut raw, FrameKind::Stats, 10, 0, &[]).unwrap();
    assert_eq!(wire::read_frame(&mut raw).unwrap().kind, FrameKind::StatsOk);

    let events = server.service().flight_recorder().snapshot();
    let begin = events
        .iter()
        .find(|e| e.name == "queue_wait" && e.kind == EventKind::SpanBegin)
        .expect("the untraced tune still opened a server span");
    assert_ne!(begin.trace.as_u64(), 0, "absent wire trace degrades to a fresh one");
    assert!(
        events.iter().any(|e| e.name == "queue_wait"
            && e.kind == EventKind::SpanEnd
            && e.trace == begin.trace),
        "the span closed under the same fresh trace\n{events:#?}"
    );
}

/// A frame round-trips its trace id through the real server: the reply
/// frame echoes the request's trace on the wire, and its binary answer is
/// the one the client returns.
#[test]
fn replies_echo_the_request_trace_on_the_wire() {
    let server = spawn_server(0xec40_7ace);
    let mut raw = TcpStream::connect(server.local_addr()).unwrap();
    raw.set_read_timeout(Some(Duration::from_secs(10))).unwrap();

    let req = TuneRequest { instance: lap(72), k: 2 };
    wire::write_frame(&mut raw, FrameKind::Tune, 5, 0xabad_cafe, &wire::to_payload(&req)).unwrap();
    let reply = wire::read_frame(&mut raw).unwrap();
    assert_eq!(reply.kind, FrameKind::TuneOk);
    assert_eq!(reply.request_id, 5);
    assert_eq!(reply.trace_id, 0xabad_cafe, "the reply echoes the request's trace");
    let on_the_wire = bin::decode_top_k(&reply.payload).unwrap();
    let via_client = TcpShard::connect(server.local_addr()).unwrap().tune(lap(72), 2).unwrap();
    assert_eq!(on_the_wire.entries, via_client.entries);
}

/// Fleet aggregation over loopback TCP: `fleet_stats()` merged totals
/// equal the sum of the per-shard stats, and the per-shard view carries
/// every shard.
#[test]
fn fleet_stats_merged_totals_equal_the_per_shard_sum() {
    let servers: Vec<ShardServer> = (0..3).map(|_| spawn_server(0xf1ee_7000)).collect();
    let mut router = ShardRouter::new();
    for (i, server) in servers.iter().enumerate() {
        let shard = TcpShard::connect(server.local_addr()).unwrap();
        router.add_shard(format!("shard-{i}"), shard).unwrap();
    }

    // A spread of instances so several shards see traffic; repeats so
    // cache hits show up in the merge too.
    for round in 0..2 {
        for n in 30..42 {
            router.tune(lap(n), 1).unwrap();
        }
        let _ = round;
    }

    let fleet = router.fleet_stats();
    assert_eq!(fleet.per_shard.len(), 3);
    assert_eq!(fleet.reachable(), 3);

    let per: Vec<_> =
        fleet.per_shard.iter().map(|(_, r)| r.as_ref().expect("loopback shard answers")).collect();
    let sum = |f: fn(&sorl_serve::ServeStats) -> u64| per.iter().map(|s| f(s)).sum::<u64>();
    assert_eq!(fleet.merged.requests, sum(|s| s.requests));
    assert_eq!(fleet.merged.requests, 24, "every tune accounted for exactly once");
    assert_eq!(fleet.merged.batches, sum(|s| s.batches));
    assert_eq!(fleet.merged.cache_hits, sum(|s| s.cache_hits));
    assert_eq!(fleet.merged.cache_hits, 12, "the second round repeats the first");
    assert_eq!(fleet.merged.cache_misses, sum(|s| s.cache_misses));
    assert_eq!(fleet.merged.cache_entries, sum(|s| s.cache_entries));
    assert_eq!(fleet.merged.shed_queue + fleet.merged.shed_latency, 0);
    assert_eq!(
        fleet.merged.max_batch,
        per.iter().map(|s| s.max_batch).max().unwrap(),
        "max_batch merges as a maximum, not a sum"
    );
    let hist_sum: u64 = fleet.merged.batch_latency_hist.iter().sum();
    assert_eq!(hist_sum, fleet.merged.batches, "one latency observation per batch");

    // The rendering surfaces hold together on live data.
    let table = fleet.summary_table();
    assert!(table.contains("shard-0") && table.contains("TOTAL"), "{table}");
    assert!(fleet.hit_rate_skew() >= 0.0 && fleet.hit_rate_skew() <= 1.0);
}

/// The fleet-trace acceptance test: one traced tune through a two-shard
/// TCP fleet assembles into a single waterfall holding client-side,
/// transport, and service spans — at least four spans, from both sides of
/// the wire, all under the one `TraceId` the frame carried.
#[test]
fn fleet_trace_assembles_one_waterfall_across_client_and_shard_processes() {
    let servers: Vec<ShardServer> = (0..2).map(|_| spawn_server(0xa55e_3b1e)).collect();
    let mut router = ShardRouter::new();
    for (i, server) in servers.iter().enumerate() {
        let shard = TcpShard::connect(server.local_addr()).unwrap();
        router.add_shard(format!("shard-{i}"), shard).unwrap();
    }

    // The traced tune rides a client link this test holds directly, so
    // the client-side recorder (the waterfall's clock anchor) is in hand;
    // the router then sweeps the same fleet for the server-side halves.
    let client = TcpShard::connect(servers[0].local_addr()).unwrap();
    client.tune(lap(64), 2).unwrap();
    let trace = client
        .flight_recorder()
        .snapshot()
        .into_iter()
        .find(|e| e.name == "tune" && e.kind == EventKind::SpanBegin)
        .expect("the client recorded its tune span")
        .trace;
    let clients = vec![client.flight_recorder().dump("client", Some(trace))];

    let sweep = router.fleet_trace(Some(trace));
    assert_eq!(sweep.reachable(), 2, "both shards answer the filtered sweep");
    let waterfall = sweep.assemble(trace, &clients);

    assert_eq!(waterfall.trace, trace);
    assert!(
        waterfall.spans.len() >= 4,
        "client + rpc + service spans assemble under one trace\n{}",
        waterfall.render()
    );
    let names: Vec<&str> = waterfall.spans.iter().map(|s| s.name.as_str()).collect();
    for expected in ["tune", "rpc_tune", "queue_wait", "score_batch"] {
        assert!(names.contains(&expected), "missing {expected:?} in {names:?}");
    }
    let sources = waterfall.sources();
    assert!(sources.contains(&"client"), "client process present: {sources:?}");
    assert!(sources.iter().any(|s| *s != "client"), "server process present: {sources:?}");
    assert_eq!(waterfall.anchor_source.as_deref(), Some("client"), "the client anchors the clock");

    // The client's tune span is the root; the server-side rpc span nests
    // inside it (both recorders are wall-anchored in this process, so the
    // alignment is real, not the skew fallback).
    let tune = waterfall.spans.iter().find(|s| s.name == "tune").unwrap();
    let rpc = waterfall.spans.iter().find(|s| s.name == "rpc_tune").unwrap();
    assert_eq!(tune.depth, 0, "the client span is the waterfall root");
    assert!(rpc.depth >= 1, "the server rpc span nests under the client span");
    assert!(rpc.start_unix_ns >= tune.start_unix_ns);

    let rendered = waterfall.render();
    assert!(rendered.contains("rpc_tune") && rendered.contains("tune"), "{rendered}");
}

/// The `sorl-trace` binary end to end against a live two-shard fleet:
/// `--trace` renders the server-side spans of a specific request,
/// `--slowest` finds the fleet's slowest exemplar and renders its span
/// chain, and the error paths (no args, unknown trace) exit non-zero
/// with the usage / try-`--slowest` hints.
#[test]
fn sorl_trace_cli_renders_waterfalls_for_a_live_fleet() {
    let traced_config = ServeConfig {
        // Sub-millisecond absolute trigger: every request is an exemplar.
        exemplar_threshold: Duration::from_micros(1),
        ..Default::default()
    };
    let servers: Vec<ShardServer> = (0..2)
        .map(|_| {
            let service =
                TuneService::spawn(sorl_shard::synthetic_ranker(0x7ace_c11e), traced_config);
            ShardServer::spawn(service, "127.0.0.1:0").unwrap()
        })
        .collect();
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();

    let client = TcpShard::connect(servers[0].local_addr()).unwrap();
    client.tune(lap(52), 1).unwrap();
    let trace = client
        .flight_recorder()
        .snapshot()
        .into_iter()
        .find(|e| e.name == "tune" && e.kind == EventKind::SpanBegin)
        .expect("the client recorded its tune span")
        .trace;
    // Exemplar capture runs on the worker thread *after* the reply is
    // sent, so the client can race ahead of it — wait for the capture.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while servers[0].service().exemplars().captured_total() == 0 {
        assert!(std::time::Instant::now() < deadline, "exemplar capture never landed");
        std::thread::sleep(Duration::from_millis(5));
    }

    let bin = env!("CARGO_BIN_EXE_sorl-trace");
    let run = |extra: &[&str]| {
        std::process::Command::new(bin)
            .args(["--shard", &addrs[0], "--shard", &addrs[1]])
            .args(extra)
            .output()
            .expect("sorl-trace spawns")
    };

    let by_id = run(&["--trace", &format!("{:x}", trace.as_u64())]);
    let stdout = String::from_utf8_lossy(&by_id.stdout);
    assert!(by_id.status.success(), "--trace failed: {}", String::from_utf8_lossy(&by_id.stderr));
    for name in ["rpc_tune", "queue_wait", "score_batch"] {
        assert!(stdout.contains(name), "missing {name:?} in rendered waterfall:\n{stdout}");
    }

    let by_slowest = run(&["--slowest"]);
    let stdout = String::from_utf8_lossy(&by_slowest.stdout);
    let stderr = String::from_utf8_lossy(&by_slowest.stderr);
    assert!(by_slowest.status.success(), "--slowest failed: {stderr}");
    assert!(stderr.contains("slowest exemplar"), "{stderr}");
    assert!(stdout.contains("rpc_tune"), "exemplar span chain rendered:\n{stdout}");

    let no_args = std::process::Command::new(bin).output().expect("sorl-trace spawns");
    assert!(!no_args.status.success(), "bare invocation must fail");
    assert!(String::from_utf8_lossy(&no_args.stderr).contains("usage:"));

    let unknown = run(&["--trace", "deadbeef"]);
    assert!(!unknown.status.success(), "an absent trace renders nothing");
    assert!(String::from_utf8_lossy(&unknown.stderr).contains("--slowest"));
}

/// Link stats on a healthy eager link: one dial, no redials, nothing
/// poisoned, and in-flight returns to zero.
#[test]
fn link_stats_count_a_healthy_links_lifecycle() {
    let server = spawn_server(0x11fe_c1c1);
    let shard = TcpShard::connect(server.local_addr()).unwrap();
    assert_eq!(shard.link_stats().dials, 1, "the eager connect dialed once");
    shard.tune(lap(36), 1).unwrap();
    let stats = shard.link_stats();
    assert_eq!(stats.dials, 1, "the first call rides the eager link");
    assert_eq!(stats.reconnects, 0);
    assert_eq!(stats.poisoned, 0);
    assert_eq!(stats.in_flight, 0, "the answered tune left the window");
}
