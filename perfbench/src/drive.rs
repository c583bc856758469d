//! The closed-loop load generator: each client thread sends its lane's
//! next request only after the previous answer arrived. `TcpShard::tune`
//! blocks its caller, so a client thread is one request in flight.

use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Duration;

use sorl::tuner::TopK;

use crate::fleet::{Fleet, Restart};
use crate::workload::Plan;

/// Flight-recorder rings hold about a thousand requests: with tracing on,
/// read them every this many completed requests.
const SAMPLE_EVERY: usize = 256;

/// One measured request.
pub struct Outcome {
    /// Index into `Plan::instances`.
    pub idx: u32,
    pub latency: Duration,
    pub answer: Result<TopK, String>,
}

pub struct Phase {
    pub wall: Duration,
    pub outcomes: Vec<Outcome>,
    pub restarts: Vec<Restart>,
}

impl Phase {
    pub fn throughput(&self) -> f64 {
        self.outcomes.len() as f64 / self.wall.as_secs_f64()
    }
}

/// How a phase drives the fleet.
pub struct Load<'a> {
    pub plan: &'a Plan,
    /// Measured requests, one lane per client thread, as indices into
    /// `plan.instances`.
    pub lanes: Vec<&'a [u32]>,
    /// Restarts of shard `b` spread evenly over the phase, each started
    /// once that share of the requests has completed.
    pub restarts: usize,
    /// Trace ids of the phase's requests start here.
    pub first_trace: u64,
}

impl Load<'_> {
    pub fn requests(&self) -> usize {
        self.lanes.iter().map(|l| l.len()).sum()
    }
}

/// Sends each lane closed-loop from its own client thread and, with
/// `load.restarts > 0`, restarts shard `b` from an operator thread while
/// the clients keep reading.
pub fn run_phase(
    fleet: &Fleet,
    load: &Load<'_>,
    tracer: &crate::trace::Tracer,
    checkpoint: &Path,
) -> Result<Phase, String> {
    let done = AtomicUsize::new(0);
    let total = load.requests();
    let lanes = load.lanes.len() as u64;
    let paired = load.plan.paired;
    assert!(
        !paired || load.lanes.iter().all(|l| l.len() == load.lanes[0].len()),
        "paired lanes must be equally long"
    );
    let pair = Barrier::new(load.lanes.len());
    let started = std::time::Instant::now();
    let (per_client, wall, restarts) = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..lanes)
            .zip(&load.lanes)
            .map(|(lane, requests)| {
                let (done, pair) = (&done, &pair);
                scope.spawn(move || {
                    let mut outcomes = Vec::with_capacity(requests.len());
                    for (i, &idx) in (0..).zip(requests.iter()) {
                        let q = load.plan.instances[idx as usize].clone();
                        if paired {
                            pair.wait();
                        }
                        let trace = load.first_trace + i * lanes + lane;
                        let (answer, latency) = tracer.span(trace, 0, "request", |_| fleet.tune(q));
                        outcomes.push(Outcome { idx, latency, answer });
                        if (done.fetch_add(1, Ordering::Relaxed) + 1).is_multiple_of(SAMPLE_EVERY) {
                            fleet.sample_recorders();
                        }
                    }
                    outcomes
                })
            })
            .collect();
        let operator = scope.spawn(|| {
            let mut restarts = Vec::with_capacity(load.restarts);
            for r in 1..=load.restarts {
                let due = r * total / (load.restarts + 1);
                while done.load(Ordering::Relaxed) < due {
                    std::thread::sleep(Duration::from_millis(1));
                }
                let trace = load.first_trace + total as u64 + r as u64;
                restarts.push(fleet.restart_b(load.plan, checkpoint, None, trace)?);
            }
            Ok::<_, String>(restarts)
        });
        let per_client: Vec<Vec<Outcome>> =
            clients.into_iter().map(|c| c.join().expect("client thread panicked")).collect();
        // The phase ends with its last answer, not with a restart still
        // in progress.
        let wall = started.elapsed();
        (per_client, wall, operator.join().expect("operator thread panicked"))
    });
    Ok(Phase { wall, outcomes: per_client.into_iter().flatten().collect(), restarts: restarts? })
}
