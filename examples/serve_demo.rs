//! Serving demo: a multi-tenant tuning service under concurrent clients.
//!
//! Trains a model once, spawns a `TuneService`, then drives it from four
//! client threads issuing a skewed workload (a few hot instances queried
//! again and again, plus a tail of unique ones — the shape of real tuning
//! traffic). The worker answers one request at a time, in queue order,
//! and repeats, duplicates queued together included, are answered from
//! the decision cache without any scoring at all.
//!
//! ```sh
//! cargo run --release --example serve_demo
//! ```

use std::time::Instant;

use stencil_autotune::model::{GridSize, StencilInstance, StencilKernel};
use stencil_autotune::serve::{ServeConfig, TuneService};
use stencil_autotune::sorl::pipeline::{PipelineConfig, TrainingPipeline};

const CLIENTS: usize = 4;
const REQUESTS_PER_CLIENT: usize = 32;

fn main() {
    // One-off training phase (small size: this demo is about serving).
    println!("training the ordinal-regression model (size 960)...");
    let outcome =
        TrainingPipeline::new(PipelineConfig { training_size: 960, ..Default::default() }).run();

    // The service: one worker owning the session and the decision cache;
    // every client gets a cheap cloneable handle.
    let service = TuneService::spawn(outcome.ranker, ServeConfig::default());
    println!(
        "service up: {CLIENTS} clients x {REQUESTS_PER_CLIENT} requests, top-3 answers each\n"
    );

    let t0 = Instant::now();
    let clients: Vec<_> = (0..CLIENTS)
        .map(|c| {
            let client = service.client();
            std::thread::spawn(move || {
                let mut checksum = 0.0f64;
                for r in 0..REQUESTS_PER_CLIENT {
                    // Zipf-ish skew: half the traffic hits two hot sizes,
                    // the rest spreads over a tail of per-client sizes.
                    let q = match r % 4 {
                        0 => StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)),
                        1 => StencilInstance::new(StencilKernel::blur(), GridSize::square(1024)),
                        2 => StencilInstance::new(
                            StencilKernel::laplacian(),
                            GridSize::cube(64 + 16 * ((c + r) % 6) as u32),
                        ),
                        _ => StencilInstance::new(
                            StencilKernel::blur(),
                            GridSize::square(512 + 128 * ((c * 7 + r) % 5) as u32),
                        ),
                    }
                    .expect("valid instance");
                    let top = client.tune(q, 3).expect("service alive");
                    checksum += top.entries.first().map_or(0.0, |&(_, s)| s);
                }
                checksum
            })
        })
        .collect();

    let checksums: Vec<f64> = clients.into_iter().map(|h| h.join().unwrap()).collect();
    let wall = t0.elapsed().as_secs_f64();

    let total = CLIENTS * REQUESTS_PER_CLIENT;
    let stats = service.stats();
    println!("served {total} requests in {:.1} ms ({:.0} req/s)", wall * 1e3, total as f64 / wall);
    println!("  {stats}");
    println!(
        "  scoring passes avoided: {} of {} requests ({:.0}% via the cache)",
        total as u64 - stats.scored_instances,
        total,
        (total as u64 - stats.scored_instances) as f64 / total as f64 * 100.0
    );
    println!("  per-client score checksums: {checksums:.3?}");

    // A peek at one answer: the 3 best configurations with their scores.
    let q = StencilInstance::new(StencilKernel::laplacian(), GridSize::cube(128)).unwrap();
    let top = service.client().tune(q.clone(), 3).expect("service alive");
    println!("\ntop-3 for {q} ({} candidates ranked):", top.candidates);
    for (rank, (t, score)) in top.entries.iter().enumerate() {
        println!("  #{} {t}  (score {score:+.4})", rank + 1);
    }
}
