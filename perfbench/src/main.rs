//! One benchmark process: trains the ranker, spawns the loopback fleet,
//! drives one workload closed-loop, verifies every answer it sampled and
//! prints its metrics as the last line of standard output. `run.py` runs
//! several of these per benchmark run and reports their medians.
//!
//! Usage: `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! --process <i> --out <dir>`

mod drive;
mod fleet;
mod layers;
mod trace;
mod verify;
mod workload;

use std::collections::{BTreeMap, HashSet};
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sorl::pipeline::{PipelineConfig, TrainingPipeline};
use sorl::tuner::TopK;
use sorl::{predefined_candidates, StencilRanker, TuningSession};
use sorl_serve::{ServeConfig, ServeStats};
use stencil_model::StencilInstance;

use drive::{run_phase, Load, Phase};
use fleet::{serve_config, stats_delta, Fleet, Restart};
use trace::{Origin, Span, Tracer};
use workload::{Plan, Workload, CHURN_RESTARTS};

/// Shard `b`'s decision cache on `churn_restart`, and the most decisions
/// any checkpoint keeps: two kernel blocks, about 200 KB of JSON, parsed
/// in well under 100 ms.
const CHECKPOINT_ENTRIES: usize = 48;
/// Restarts of shard `b` after the phase on workloads without churn.
const PROBE_RESTARTS: usize = 5;
/// Distinct instances compared with the reference session per process.
const VERIFY_SAMPLE: usize = 64;
/// Instances the quality oracle averages over.
const QUALITY_INSTANCES: usize = 128;
/// Distinct instances the traced run replays through each layer.
const LAYER_SAMPLE: usize = 32;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Which of a run's processes this is.
    process: u64,
    out: PathBuf,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut named: BTreeMap<String, String> = BTreeMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let name = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            named.insert(name.to_string(), value);
        }
        let get = |name: &str| named.get(name).ok_or(format!("missing --{name}"));
        let flag = |name: &str| match named.get(name).map(String::as_str) {
            None | Some("0") => Ok(false),
            Some("1") => Ok(true),
            Some(v) => Err(format!("--{name} takes 0 or 1, not {v:?}")),
        };
        let workload = get("workload")?;
        let seconds: f64 = get("seconds")?.parse().map_err(|e| format!("--seconds: {e}"))?;
        if !(seconds > 0.0 && seconds <= 600.0) {
            return Err(format!("--seconds must be in (0, 600], not {seconds}"));
        }
        Ok(Args {
            workload: Workload::parse(workload).ok_or(format!("unknown workload {workload:?}"))?,
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: flag("trace")?,
            process: named
                .get("process")
                .map_or(Ok(0), |c| c.parse())
                .map_err(|e| format!("--process: {e}"))?,
            out: PathBuf::from(named.get("out").map_or("perfbench/out", String::as_str)),
        })
    }
}

/// What a process prints: the run's verdict, its metrics, and how many
/// latency samples its percentiles rest on.
struct Report {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// Every value finite: a metric nothing measured fails the run.
    metrics: Vec<(&'static str, f64, &'static str)>,
    samples: usize,
}

impl Report {
    fn json(&self) -> String {
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct, self.attempted, self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(out, "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}");
        }
        let _ = write!(out, "}}, \"samples\": {}}}", self.samples);
        out
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(report) => {
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload.name());
            ExitCode::FAILURE
        }
    }
}

/// Nearest-rank percentile; `NaN` for no samples.
fn percentile(values: &[f64], p: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn run(args: &Args) -> Result<Report, String> {
    let w = args.workload;
    let tracer = Arc::new(Tracer::new(args.trace));
    let requests = ((w.planned_rate() * args.seconds).ceil() as usize).max(16);
    let plan = Plan::new(w, args.seed, requests);
    std::fs::create_dir_all(&args.out).map_err(|e| format!("create {:?}: {e}", args.out))?;
    let checkpoint = args.out.join(format!("checkpoint-{}-{}.json", w.name(), args.process));

    // Set-up: train, spawn the fleet, warm up.
    let setup = Instant::now();
    let (trained, train) = tracer
        .span(0, 0, "setup.train", |_| TrainingPipeline::new(PipelineConfig::default()).run());
    let ranker = trained.ranker;
    let b_config = match w {
        Workload::ChurnRestart => {
            ServeConfig { cache_capacity: CHECKPOINT_ENTRIES, ..serve_config() }
        }
        _ => serve_config(),
    };
    let fleet = Fleet::spawn(ranker.clone(), b_config, Arc::clone(&tracer))?;
    let (warm_answers, warm) = tracer.span(0, 0, "setup.warm", |_| warm_up(&fleet, &plan));
    let warm_answers = warm_answers?;
    let setup_s = setup.elapsed().as_secs_f64();

    // The measured phase. A traced run measures one half of every lane
    // untraced and the other traced; odd processes trace the first half,
    // so the median over processes cancels what drifts from half to half.
    let restarts = if w == Workload::ChurnRestart { CHURN_RESTARTS } else { 0 };
    let traced_half = usize::from(args.process.is_multiple_of(2));
    let before = fleet.serve_totals();
    let mut phases: Vec<Phase> = Vec::new();
    let parts: Vec<Vec<&[u32]>> = if args.trace {
        let halves: Vec<(&[u32], &[u32])> =
            plan.lanes.iter().map(|l| l.split_at(l.len() / 2)).collect();
        vec![halves.iter().map(|h| h.0).collect(), halves.iter().map(|h| h.1).collect()]
    } else {
        vec![plan.lanes.iter().map(Vec::as_slice).collect()]
    };
    let mut first_trace = 1;
    for (i, lanes) in parts.into_iter().enumerate() {
        tracer.set_on(args.trace && i == traced_half);
        let load = Load { plan: &plan, lanes, restarts, first_trace };
        phases.push(run_phase(&fleet, &load, &tracer, &checkpoint)?);
        first_trace += load.requests() as u64 + restarts as u64 + 1;
    }
    tracer.set_on(args.trace);
    let served = stats_delta(&fleet.serve_totals(), &before);
    let hit_skew = fleet.router().fleet_stats().hit_rate_skew();
    let mut restarted: Vec<Restart> =
        phases.iter_mut().flat_map(|p| std::mem::take(&mut p.restarts)).collect();
    if w != Workload::ChurnRestart {
        // Which keys `b` used last, and so their kernels, changes with the
        // seed, and a checkpoint's parse time grows with the square of its
        // size: these checkpoints keep two whole kernel blocks instead.
        let keep: HashSet<u32> = plan.b_blocks(CHECKPOINT_ENTRIES).into_iter().collect();
        for r in 0..PROBE_RESTARTS {
            restarted.push(fleet.restart_b(
                &plan,
                &checkpoint,
                Some(&keep),
                first_trace + r as u64,
            )?);
        }
    }
    let _ = std::fs::remove_file(&checkpoint);
    let peak_rss_mb = peak_rss_mib()?;

    // Verification, outside timing.
    let mut answers: Vec<(u32, &Result<TopK, String>)> =
        phases.iter().flat_map(|p| p.outcomes.iter().map(|o| (o.idx, &o.answer))).collect();
    answers.extend(restarted.iter().map(|r| (r.probe.0, &r.probe.1)));
    let mut reference = TuningSession::new(ranker.clone());
    let verdict = verify::verify(
        &mut reference,
        &plan,
        &answers,
        VERIFY_SAMPLE,
        args.seed ^ (args.process + 1).wrapping_mul(0x9e37_79b9),
    );
    let mut first: BTreeMap<u32, TopK> = warm_answers.into_iter().collect();
    for (idx, answer) in &answers {
        if let Ok(top) = answer {
            first.entry(*idx).or_insert_with(|| top.clone());
        }
    }
    let mut correct = verdict.failed == 0;
    println!(
        "{} process {}: {} requests, {} failed; {} distinct instances checked against the reference",
        w.name(),
        args.process,
        verdict.attempted,
        verdict.failed,
        verdict.checked
    );

    let recovery: Vec<f64> = restarted.iter().map(|r| ms(r.recovery)).collect();
    // A failed request misses every latency limit; JSON has no infinity,
    // so its latency reads as the largest finite number.
    let latencies_us: Vec<f64> = if args.trace {
        Vec::new()
    } else {
        phases[0]
            .outcomes
            .iter()
            .map(|o| if o.answer.is_ok() { o.latency.as_secs_f64() * 1e6 } else { f64::MAX })
            .collect()
    };
    let metrics = if args.trace {
        let ctx = LayerContext {
            tracer: &tracer,
            ranker: &ranker,
            plan: &plan,
            fleet: &fleet,
            first: &first,
            served: &served,
            hit_skew,
            restarted: &restarted,
            train,
            warm,
            untraced_rps: phases[1 - traced_half].throughput(),
            traced_rps: phases[traced_half].throughput(),
        };
        let metrics = layer_metrics(&ctx)?;
        let path = args.out.join(format!("spans-{}-{}.json", w.name(), args.process));
        trace::write_spans(&path, &tracer.spans()).map_err(|e| format!("write {path:?}: {e}"))?;
        println!("spans written to {}", path.display());
        metrics
    } else {
        println!(
            "{} process {}: {} latency samples, recovery over {} restarts",
            w.name(),
            args.process,
            latencies_us.len(),
            recovery.len()
        );
        let mut m = vec![
            ("setup_s", setup_s, "s"),
            ("throughput_rps", phases[0].throughput(), "1/s"),
            ("latency_p50_us", percentile(&latencies_us, 0.50), "us"),
            ("latency_p95_us", percentile(&latencies_us, 0.95), "us"),
            (
                "ok_ratio",
                (verdict.attempted - verdict.failed) as f64 / verdict.attempted as f64,
                "ratio",
            ),
            ("peak_rss_mb", peak_rss_mb, "MiB"),
            ("recovery_ms", percentile(&recovery, 0.5), "ms"),
        ];
        // The oracle is exact for a seed, so one process computes it.
        if args.process == 0 {
            let subset = plan.first_drawn(QUALITY_INSTANCES);
            match verify::quality_pct(&plan, &first, &subset) {
                Some(q) => m.push(("quality_pct_of_oracle", q, "%")),
                None => correct = false,
            }
        }
        m
    };
    if let Some((name, value, _)) = metrics.iter().find(|m| !m.1.is_finite()) {
        return Err(format!("{name} was not measured (it reads {value})"));
    }
    Ok(Report {
        correct,
        attempted: verdict.attempted,
        failed: verdict.failed,
        metrics,
        samples: latencies_us.len(),
    })
}

/// First-use costs (the predefined sets, the scoring-kernel dispatch), then
/// one tune of each warm instance from two threads, so both shards score.
fn warm_up(fleet: &Fleet, plan: &Plan) -> Result<Vec<(u32, TopK)>, String> {
    predefined_candidates(2);
    predefined_candidates(3);
    ranksvm::kernel::active_kernel();
    let warm: Vec<u32> = (0..plan.warm as u32).collect();
    let per_thread: Vec<Result<Vec<(u32, TopK)>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = warm
            .chunks(warm.len().div_ceil(2).max(1))
            .map(|part| {
                scope.spawn(move || {
                    part.iter()
                        .map(|&i| fleet.tune(plan.instances[i as usize].clone()).map(|t| (i, t)))
                        .collect()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("warm-up thread panicked")).collect()
    });
    let mut out = Vec::with_capacity(warm.len());
    for part in per_thread {
        out.extend(part.map_err(|e| format!("warm-up: {e}"))?);
    }
    Ok(out)
}

/// The process's peak resident set (`VmHWM`), MiB.
fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Everything the per-layer metrics are computed from.
struct LayerContext<'a> {
    tracer: &'a Tracer,
    ranker: &'a StencilRanker,
    plan: &'a Plan,
    fleet: &'a Fleet,
    /// The first answer per instance index.
    first: &'a BTreeMap<u32, TopK>,
    /// Fleet serving counters over the measured phases.
    served: &'a ServeStats,
    hit_skew: f64,
    restarted: &'a [Restart],
    train: Duration,
    warm: Duration,
    untraced_rps: f64,
    traced_rps: f64,
}

/// Span durations, grouped for metric lookups.
struct SpanIndex {
    /// Durations by span name, ns.
    by_name: BTreeMap<&'static str, Vec<f64>>,
    /// Per parent span, summed child durations by child name, ns.
    by_parent: BTreeMap<&'static str, BTreeMap<u64, f64>>,
    /// Per trace, summed durations by span name, ns.
    by_trace: BTreeMap<&'static str, BTreeMap<u64, f64>>,
}

impl SpanIndex {
    fn new(spans: &[Span]) -> Self {
        let mut idx = SpanIndex {
            by_name: BTreeMap::new(),
            by_parent: BTreeMap::new(),
            by_trace: BTreeMap::new(),
        };
        for s in spans {
            let d = s.duration_ns() as f64;
            idx.by_name.entry(s.name).or_default().push(d);
            *idx.by_trace.entry(s.name).or_default().entry(s.trace).or_default() += d;
            if s.parent != 0 {
                *idx.by_parent.entry(s.name).or_default().entry(s.parent).or_default() += d;
            }
        }
        idx
    }

    /// Per trace, the summed duration of spans named any of `names`, ns.
    fn per_trace(&self, names: &[&str]) -> BTreeMap<u64, f64> {
        let mut out = BTreeMap::new();
        for name in names {
            for (trace, d) in self.by_trace.get(name).into_iter().flatten() {
                *out.entry(*trace).or_default() += d;
            }
        }
        out
    }

    /// Median over the traces that have both of `a - b`, µs: a layer's
    /// share of a request, as the difference between adjacent depths.
    /// With `b` empty, the median of `a` alone.
    fn p50_diff_us(&self, a: &[&str], b: &[&str]) -> f64 {
        let (a, base) = (self.per_trace(a), self.per_trace(b));
        let diffs: Vec<f64> = a
            .iter()
            .filter_map(|(t, x)| if b.is_empty() { Some(*x) } else { base.get(t).map(|y| x - y) })
            .collect();
        percentile(&diffs, 0.5) / 1e3
    }

    /// Median duration of the spans named `name`, µs.
    fn p50_us(&self, name: &str) -> f64 {
        percentile(self.by_name.get(name).map_or(&[][..], Vec::as_slice), 0.5) / 1e3
    }

    /// Median over parents of the summed durations of their `name`
    /// children, µs.
    fn p50_per_parent_us(&self, name: &str) -> f64 {
        let sums: Vec<f64> =
            self.by_parent.get(name).map(|m| m.values().copied().collect()).unwrap_or_default();
        percentile(&sums, 0.5) / 1e3
    }
}

/// The traced run's layer replays and the per-layer metrics.
fn layer_metrics(ctx: &LayerContext<'_>) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let tracer = ctx.tracer;
    // Replay traces sit far above the measured requests' trace ids.
    let trace = u64::MAX / 2;
    let subset = ctx.plan.first_drawn(LAYER_SAMPLE);
    let sample: Vec<&StencilInstance> =
        subset.iter().map(|&i| &ctx.plan.instances[i as usize]).collect();
    layers::replay_depths(tracer, ctx.ranker, &sample, trace)?;
    let bytes_per_tune = layers::decompose(tracer, ctx.ranker, &sample, trace)?;
    let answered: Vec<(&StencilInstance, &TopK)> = subset
        .iter()
        .filter_map(|i| ctx.first.get(i).map(|t| (&ctx.plan.instances[*i as usize], t)))
        .collect();
    let (request_bytes, reply_bytes) = layers::codecs(tracer, &answered, trace)?;
    let keys: Vec<_> = sample.iter().map(|q| q.key()).collect();
    layers::route(tracer, &ctx.fleet.router(), &keys, trace);
    ctx.fleet.adopt_recorder_spans();

    let spans = tracer.spans();
    let idx = SpanIndex::new(&spans);
    let reps = layers::CODEC_REPS as f64;
    let (reconnects, poisoned) = ctx.fleet.link_totals();
    let restarts = ctx.restarted;
    let med =
        |f: &dyn Fn(&Restart) -> f64| percentile(&restarts.iter().map(f).collect::<Vec<_>>(), 0.5);
    let served = ctx.served;
    let local_hit = idx.p50_us("shard.local_hit");
    let tcp_hit = idx.p50_us("wire.tcp_hit");
    let metrics = vec![
        ("model.encode_us", idx.p50_per_parent_us("model.encode"), "us"),
        ("ranksvm.score_us", idx.p50_per_parent_us("ranksvm.score"), "us"),
        ("ranksvm.select_us", idx.p50_us("ranksvm.select"), "us"),
        ("ranksvm.bytes_per_tune", bytes_per_tune, "B"),
        ("session.tune_3d_us", idx.p50_us("session.tune_3d"), "us"),
        ("session.tune_2d_us", idx.p50_us("session.tune_2d"), "us"),
        ("serve.hit_us", idx.p50_us("serve.hit"), "us"),
        ("serve.miss_us", idx.p50_us("serve.miss"), "us"),
        ("serve.hit_ratio", served.hit_rate(), "ratio"),
        ("serve.batch_mean", served.mean_batch(), "count"),
        ("serve.batch_p50_us", served.batch_latency_p50_s * 1e6, "us"),
        (
            "serve.scored_per_request",
            served.scored_instances as f64 / served.requests.max(1) as f64,
            "ratio",
        ),
        ("serve.sheds", served.sheds() as f64, "count"),
        ("serve.queue_wait_us", origin_p50_us(&spans, Origin::Server, "queue_wait"), "us"),
        ("serve.score_batch_us", origin_p50_us(&spans, Origin::Server, "score_batch"), "us"),
        ("shard.route_ns", idx.p50_us("shard.route") * 1e3 / keys.len().max(1) as f64, "ns"),
        ("shard.local_hit_us", local_hit, "us"),
        ("shard.hit_skew", ctx.hit_skew, "ratio"),
        ("wire.request_bytes", request_bytes, "B"),
        ("wire.request_encode_us", idx.p50_us("wire.request_encode") / reps, "us"),
        ("wire.request_decode_us", idx.p50_us("wire.request_decode") / reps, "us"),
        ("wire.reply_bytes", reply_bytes, "B"),
        ("wire.reply_encode_us", idx.p50_us("wire.reply_encode") / reps, "us"),
        ("wire.reply_decode_us", idx.p50_us("wire.reply_decode") / reps, "us"),
        ("wire.tcp_hit_us", tcp_hit, "us"),
        ("wire.transport_us", tcp_hit - local_hit, "us"),
        ("link.reconnects", reconnects as f64, "count"),
        ("link.poisoned", poisoned as f64, "count"),
        ("snapshot.json_bytes", med(&|r| r.json_bytes as f64), "B"),
        ("snapshot.bin_bytes", med(&|r| r.bin_bytes as f64), "B"),
        ("snapshot.save_ms", med(&|r| ms(r.save)), "ms"),
        ("snapshot.load_ms", med(&|r| ms(r.load)), "ms"),
        ("snapshot.import_ms", med(&|r| ms(r.import)), "ms"),
        ("router.snapshot_shard_ms", med(&|r| ms(r.snapshot_shard)), "ms"),
        ("router.add_shard_ms", med(&|r| ms(r.add_shard)), "ms"),
        ("router.shipped", med(&|r| r.shipped as f64), "count"),
        ("setup.train_s", ctx.train.as_secs_f64(), "s"),
        ("setup.warm_s", ctx.warm.as_secs_f64(), "s"),
        (
            "obs.trace_overhead_pct",
            100.0 * (ctx.untraced_rps - ctx.traced_rps) / ctx.untraced_rps,
            "%",
        ),
    ];
    print_breakdowns(&idx, &spans);
    Ok(metrics)
}

fn origin_p50_us(spans: &[Span], origin: Origin, name: &str) -> f64 {
    let d: Vec<f64> = spans
        .iter()
        .filter(|s| s.origin == origin && s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect();
    percentile(&d, 0.5) / 1e3
}

/// Prints where a request's and a restart's time goes, layer by layer:
/// each layer's share is the median over the replayed instances of the
/// difference between adjacent stack depths. Then the median self time of
/// every span name.
fn print_breakdowns(idx: &SpanIndex, spans: &[Span]) {
    let session: &[&str] = &["session.tune_3d", "session.tune_2d"];
    let none: &[&str] = &[];
    print_breakdown(
        "miss (us)",
        &[
            ("scoring", idx.p50_diff_us(session, none)),
            ("serve", idx.p50_diff_us(&["serve.miss"], session)),
            ("router", idx.p50_diff_us(&["shard.local_miss"], &["serve.miss"])),
            ("wire", idx.p50_diff_us(&["wire.tcp_miss"], &["shard.local_miss"])),
        ],
    );
    print_breakdown(
        "hit (us)",
        &[
            ("serve", idx.p50_diff_us(&["serve.hit"], none)),
            ("router", idx.p50_diff_us(&["shard.local_hit"], &["serve.hit"])),
            ("wire", idx.p50_diff_us(&["wire.tcp_hit"], &["shard.local_hit"])),
        ],
    );
    print_breakdown(
        "restart, kill to first answer (ms)",
        &[
            ("kill", idx.p50_us("kill") / 1e3),
            ("snapshot.load", idx.p50_us("snapshot.load") / 1e3),
            ("snapshot.import", idx.p50_us("snapshot.import") / 1e3),
            ("spawn", idx.p50_us("spawn") / 1e3),
            ("router.add_shard", idx.p50_us("router.add_shard") / 1e3),
            ("probe", idx.p50_us("probe") / 1e3),
        ],
    );
    let selves = trace::self_times(spans);
    let mut by_name: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    for (s, own) in spans.iter().zip(selves) {
        by_name.entry((s.origin.name(), s.name)).or_default().push(own as f64 / 1e3);
    }
    let mut line = String::from("self time p50 (us):");
    for ((origin, name), v) in &by_name {
        let _ = write!(line, " {origin}/{name}={:.1} (n={})", percentile(v, 0.5), v.len());
    }
    println!("{line}");
}

fn print_breakdown(what: &str, parts: &[(&str, f64)]) {
    let total: f64 = parts.iter().map(|p| p.1.max(0.0)).sum();
    let mut line = format!("breakdown of a {what}:");
    for (name, v) in parts {
        let _ = write!(line, " {name} {v:.1} ({:.0}%)", 100.0 * v.max(0.0) / total);
    }
    let dominant = parts.iter().max_by(|a, b| a.1.total_cmp(&b.1)).map_or("-", |p| p.0);
    println!("{line}; dominant: {dominant}");
}
