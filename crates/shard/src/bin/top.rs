//! `sorl-top` — a terminal dashboard over a running tuning fleet.
//!
//! Polls each shard's `stats()` over the wire protocol and renders one
//! line per shard (requests, hit rate, queue depth, sheds, cache
//! residency, p99) plus a fleet totals row and the hit-rate skew — the
//! same merge [`ShardRouter::fleet_stats`](sorl_shard::ShardRouter)
//! performs, but addressed directly so it works against any reachable
//! `sorl-shardd` processes without attaching them to a router (no
//! fingerprint checks, no cache shipping — a dashboard must never mutate
//! the fleet it watches).
//!
//! ```sh
//! sorl-top 127.0.0.1:7001 127.0.0.1:7002 [--interval SECS] [--once]
//! ```
//!
//! `--once` prints a single snapshot and exits (scripts, tests); the
//! default loops forever, redrawing every `--interval` (default 2s).
//! Unreachable shards stay in the table with their error — a dashboard
//! that drops dead shards from view is how outages get missed.

use std::process::ExitCode;
use std::time::Duration;

use sorl_serve::ServeStats;
use sorl_shard::{FleetStats, ShardTransport, TcpShard};

struct Options {
    shards: Vec<String>,
    interval: Duration,
    once: bool,
}

const USAGE: &str = "usage: sorl-top HOST:PORT [HOST:PORT ...] [--interval SECS] [--once]";

fn parse_args() -> Result<Options, String> {
    let mut opts = Options { shards: Vec::new(), interval: Duration::from_secs(2), once: false };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--interval" => {
                let secs = args.next().ok_or_else(|| format!("--interval needs SECS\n{USAGE}"))?;
                let secs: f64 = secs.parse().map_err(|e| format!("bad interval {secs:?}: {e}"))?;
                // Also rejects NaN/inf, which `Duration::from_secs_f64`
                // would panic on.
                if !(secs.is_finite() && secs > 0.0) {
                    return Err(format!("--interval must be positive\n{USAGE}"));
                }
                opts.interval = Duration::from_secs_f64(secs);
            }
            "--once" => opts.once = true,
            "--help" | "-h" => return Err(USAGE.to_string()),
            flag if flag.starts_with('-') => return Err(format!("unknown flag {flag:?}\n{USAGE}")),
            addr => opts.shards.push(addr.to_string()),
        }
    }
    if opts.shards.is_empty() {
        return Err(format!("at least one shard address is required\n{USAGE}"));
    }
    Ok(opts)
}

/// One stats sweep over the fleet, shaped exactly like
/// `ShardRouter::fleet_stats` so the rendering is shared.
fn sweep(shards: &[(String, TcpShard)]) -> FleetStats {
    let per_shard: Vec<_> = shards.iter().map(|(id, shard)| (id.clone(), shard.stats())).collect();
    let merged = ServeStats::merge(per_shard.iter().filter_map(|(_, r)| r.as_ref().ok()));
    FleetStats { merged, per_shard }
}

fn run() -> Result<(), String> {
    let opts = parse_args()?;
    // A dashboard should fail fast on a dead shard, not sit in backoff:
    // each sweep that finds the link down redials exactly once.
    let shards: Vec<(String, TcpShard)> = opts
        .shards
        .iter()
        .map(|addr| {
            TcpShard::connect(addr.as_str())
                .map(|shard| (addr.clone(), shard.without_redial_backoff()))
                // An unreachable shard at startup still belongs on the
                // board; the lazy link keeps retrying per sweep.
                .or_else(|_| {
                    TcpShard::connect_lazy(addr.as_str())
                        .map(|shard| (addr.clone(), shard.without_redial_backoff()))
                        .map_err(|e| format!("bad shard address {addr:?}: {e}"))
                })
        })
        .collect::<Result<_, _>>()?;

    loop {
        let fleet = sweep(&shards);
        if !opts.once {
            // ANSI clear + home: redraw in place like top(1).
            print!("\x1b[2J\x1b[H");
        }
        print!("{}", fleet.summary_table());
        println!(
            "fleet: {}/{} shards reachable, hit-rate skew {:.1}%",
            fleet.reachable(),
            shards.len(),
            fleet.hit_rate_skew() * 100.0
        );
        if opts.once {
            return Ok(());
        }
        std::thread::sleep(opts.interval);
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("sorl-top: {e}");
            ExitCode::FAILURE
        }
    }
}
