//! `sorl-shardd` — a standalone shard server process.
//!
//! Serves one `TuneService` behind the shard wire protocol so a
//! `ShardRouter` in another process (or on another host) can drive it via
//! `TcpShard`. This is the daemon a process supervisor spawns per shard;
//! see `examples/fleet_demo.rs` for the full fleet lifecycle.
//!
//! ```sh
//! sorl-shardd --addr 127.0.0.1:0 --ranker model.json [--snapshot cache.json]
//! ```
//!
//! On startup the daemon prints exactly one `LISTENING <addr>` line to
//! stdout (with the OS-assigned port resolved) — supervisors parse it to
//! learn where the shard listens — then serves until killed. With
//! `--snapshot PATH` it warm-starts by importing the cache snapshot at
//! `PATH` if one exists; a torn, stale or wrong-ranker snapshot is
//! rejected (logged to stderr) and the shard starts cold instead of
//! poisoned. Snapshots are written by the operator/router side
//! (`ShardRouter::snapshot_shard` + `CacheSnapshot::save_json`), not by
//! the daemon.
//!
//! `--max-queue N` bounds the service's submission queue, `--shed-p99-ms MS`
//! arms its rolling-p99 latency shedder (both shed with fast `overloaded`
//! faults instead of queueing into timeouts), and `--max-in-flight N` caps
//! concurrent tunes per router connection.
//!
//! `--metrics-addr HOST:PORT` additionally serves a Prometheus text
//! exposition page (`curl http://HOST:PORT/metrics`) with the shard's
//! serving counters, latency histograms, link aggregates and
//! flight-recorder depth; a second `LISTENING-METRICS <addr>` line on
//! stdout reports the resolved bind.
//!
//! `--synthetic-ranker SEED` serves a deterministic synthetic model
//! instead of a trained one — every process given the same seed serves the
//! same fingerprint, which is what demos, tests and load rigs need; real
//! deployments pass `--ranker` with a model trained once and shipped to
//! every shard (fleet joins are rejected on fingerprint mismatch).

use std::io::Write;
use std::path::PathBuf;
use std::process::ExitCode;

use sorl::StencilRanker;
use sorl_serve::{CacheSnapshot, ServeConfig, TuneService};
use sorl_shard::{synthetic_ranker, ShardServer, ShardServerConfig};

struct Options {
    addr: String,
    metrics_addr: Option<String>,
    ranker: Option<PathBuf>,
    synthetic_seed: Option<u64>,
    snapshot: Option<PathBuf>,
    cache_capacity: Option<usize>,
    max_queue: Option<usize>,
    shed_p99_ms: Option<u64>,
    max_in_flight: Option<usize>,
}

const USAGE: &str =
    "usage: sorl-shardd [--addr HOST:PORT] (--ranker MODEL.json | --synthetic-ranker SEED) \
     [--snapshot CACHE.json] [--cache-capacity N] [--max-queue N] \
     [--shed-p99-ms MS] [--max-in-flight N] [--metrics-addr HOST:PORT]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        addr: "127.0.0.1:0".to_string(),
        metrics_addr: None,
        ranker: None,
        synthetic_seed: None,
        snapshot: None,
        cache_capacity: None,
        max_queue: None,
        shed_p99_ms: None,
        max_in_flight: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next().ok_or_else(|| format!("{flag} needs a {what} argument\n{USAGE}"))
        };
        match flag.as_str() {
            "--addr" => opts.addr = value("HOST:PORT")?,
            "--metrics-addr" => opts.metrics_addr = Some(value("HOST:PORT")?),
            "--ranker" => opts.ranker = Some(PathBuf::from(value("path")?)),
            "--synthetic-ranker" => {
                let seed = value("seed")?;
                opts.synthetic_seed =
                    Some(seed.parse().map_err(|e| format!("bad seed {seed:?}: {e}"))?);
            }
            "--snapshot" => opts.snapshot = Some(PathBuf::from(value("path")?)),
            "--cache-capacity" => {
                let n = value("count")?;
                opts.cache_capacity =
                    Some(n.parse().map_err(|e| format!("bad capacity {n:?}: {e}"))?);
            }
            "--max-queue" => {
                let n = value("count")?;
                opts.max_queue = Some(n.parse().map_err(|e| format!("bad queue cap {n:?}: {e}"))?);
            }
            "--shed-p99-ms" => {
                let ms = value("milliseconds")?;
                opts.shed_p99_ms =
                    Some(ms.parse().map_err(|e| format!("bad p99 threshold {ms:?}: {e}"))?);
            }
            "--max-in-flight" => {
                let n = value("count")?;
                opts.max_in_flight =
                    Some(n.parse().map_err(|e| format!("bad in-flight cap {n:?}: {e}"))?);
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            other => return Err(format!("unknown flag {other:?}\n{USAGE}")),
        }
    }
    if opts.ranker.is_some() == opts.synthetic_seed.is_some() {
        return Err(format!("exactly one of --ranker / --synthetic-ranker is required\n{USAGE}"));
    }
    Ok(opts)
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    let ranker = match (&opts.ranker, opts.synthetic_seed) {
        (Some(path), _) => StencilRanker::load_json(path)
            .map_err(|e| format!("cannot load ranker {}: {e}", path.display()))?,
        (None, Some(seed)) => synthetic_ranker(seed),
        (None, None) => unreachable!("parse_args enforces one ranker source"),
    };

    let mut config = ServeConfig::default();
    if let Some(capacity) = opts.cache_capacity {
        config.cache_capacity = capacity;
    }
    // Admission control: bound the submission queue and/or arm the rolling
    // p99 latency shedder (0 keeps either disabled).
    if let Some(max_queue) = opts.max_queue {
        config.max_queue = max_queue;
    }
    if let Some(ms) = opts.shed_p99_ms {
        config.shed_p99 = std::time::Duration::from_millis(ms);
    }

    let service = TuneService::spawn(ranker, config);
    eprintln!("sorl-shardd: serving ranker {:#018x}", service.ranker_fingerprint());

    // Warm start: a missing snapshot is normal (first boot), a rejected
    // one (torn file, stale ranker) must not poison the shard — log and
    // serve cold.
    if let Some(path) = &opts.snapshot {
        if path.exists() {
            match CacheSnapshot::load_json(path)
                .map_err(|e| e.to_string())
                .and_then(|snapshot| service.import_cache(snapshot).map_err(|e| e.to_string()))
            {
                Ok(restored) => {
                    eprintln!("sorl-shardd: warm start, {restored} decisions restored");
                }
                Err(e) => eprintln!(
                    "sorl-shardd: snapshot {} rejected ({e}); starting cold",
                    path.display()
                ),
            }
        }
    }

    let mut server_config = ShardServerConfig::default();
    if let Some(cap) = opts.max_in_flight {
        server_config.max_in_flight = cap;
    }
    let server = ShardServer::spawn_with(service, opts.addr.as_str(), server_config)
        .map_err(|e| format!("cannot bind {}: {e}", opts.addr))?;
    // The supervisor contract: exactly one LISTENING line on stdout
    // (first), then — only with --metrics-addr — one LISTENING-METRICS
    // line for the scrape endpoint.
    println!("LISTENING {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let _metrics = match &opts.metrics_addr {
        Some(bind) => {
            let metrics = server
                .serve_metrics(bind.as_str())
                .map_err(|e| format!("cannot bind metrics endpoint {bind}: {e}"))?;
            println!("LISTENING-METRICS {}", metrics.local_addr());
            std::io::stdout().flush().map_err(|e| e.to_string())?;
            Some(metrics)
        }
        None => None,
    };

    // Serve until killed (the accept loop runs on its own thread).
    loop {
        std::thread::park();
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sorl-shardd: {e}");
            ExitCode::FAILURE
        }
    }
}
