//! The harness's own span recorder. Every harness call into a layer runs
//! inside [`Tracer::span`]; with tracing on, the span (name, start, end,
//! parent, trace id) is kept in memory and written out once the run ends.
//! With tracing off the same call only reads the clock, so measured and
//! traced code paths are identical apart from the recording itself.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

use sorl_obs::{EventKind, FlightRecorder};

/// Who recorded a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Origin {
    /// The harness, around a call into a layer.
    Harness,
    /// A `TcpShard`'s client-side flight recorder.
    Client,
    /// A shard service's flight recorder.
    Server,
}

impl Origin {
    pub fn name(self) -> &'static str {
        match self {
            Origin::Harness => "harness",
            Origin::Client => "client",
            Origin::Server => "server",
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub trace: u64,
    pub name: &'static str,
    pub origin: Origin,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    on: AtomicBool,
    epoch: Instant,
    epoch_unix_ns: u64,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        let epoch = Instant::now();
        let epoch_unix_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
            .unwrap_or(0);
        Tracer {
            on: AtomicBool::new(on),
            epoch,
            epoch_unix_ns,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    /// Runs `f` inside a span named `name` and returns its result and
    /// duration. `f` receives the span's id, to parent spans it opens.
    pub fn span<T>(
        &self,
        trace: u64,
        parent: u64,
        name: &'static str,
        f: impl FnOnce(u64) -> T,
    ) -> (T, Duration) {
        let on = self.is_on();
        let id = if on { self.next_id.fetch_add(1, Ordering::Relaxed) } else { 0 };
        let start = Instant::now();
        let out = f(id);
        let end = Instant::now();
        if on {
            self.push(Span {
                id,
                parent,
                trace,
                name,
                origin: Origin::Harness,
                start_ns: self.ns(start),
                end_ns: self.ns(end),
            });
        }
        (out, end - start)
    }

    fn ns(&self, t: Instant) -> u64 {
        u64::try_from(t.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    fn push(&self, span: Span) {
        self.spans.lock().expect("span buffer poisoned by a panicking thread").push(span);
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned by a panicking thread").clone()
    }

    /// Adds the spans a flight-recorder sampler collected, linking them
    /// to their callers: a server span belongs to the client `tune` span
    /// of the same trace id, and a client `tune` span to the innermost
    /// harness `request` span whose interval contains it (the recorders
    /// do not know the harness thread, so interval nesting decides).
    pub fn adopt(&self, sampler: &RecorderSampler) {
        let mut spans = self.spans.lock().expect("span buffer poisoned by a panicking thread");
        let mut requests: Vec<(u64, u64, u64)> = spans
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| (s.start_ns, s.end_ns, s.id))
            .collect();
        requests.sort_unstable();
        let mut adopted: Vec<Span> = sampler
            .spans
            .iter()
            .map(|s| Span {
                id: self.next_id.fetch_add(1, Ordering::Relaxed),
                parent: 0,
                trace: s.trace,
                name: s.name,
                origin: s.origin,
                start_ns: s.start_unix_ns.saturating_sub(self.epoch_unix_ns),
                end_ns: s.end_unix_ns.saturating_sub(self.epoch_unix_ns),
            })
            .collect();
        let mut client_of_trace = HashMap::new();
        for s in adopted.iter_mut().filter(|s| s.origin == Origin::Client) {
            client_of_trace.insert(s.trace, s.id);
            let end = requests.partition_point(|r| r.0 <= s.start_ns);
            if let Some(r) = requests[..end].iter().rev().take(64).find(|r| r.1 >= s.end_ns) {
                s.parent = r.2;
            }
        }
        for s in adopted.iter_mut().filter(|s| s.origin == Origin::Server) {
            s.parent = client_of_trace.get(&s.trace).copied().unwrap_or(0);
        }
        spans.extend(adopted);
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its children cover. Returned in the order of `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get(&s.id) else { return s.duration_ns() };
            let mut covered: Vec<(u64, u64)> = kids
                .iter()
                .map(|&(a, b)| (a.max(s.start_ns), b.min(s.end_ns)))
                .filter(|(a, b)| a < b)
                .collect();
            covered.sort_unstable();
            let (mut total, mut reach) = (0u64, 0u64);
            for (a, b) in covered {
                let a = a.max(reach);
                if b > a {
                    total += b - a;
                    reach = b;
                }
            }
            s.duration_ns().saturating_sub(total)
        })
        .collect()
}

/// Writes every span, with its self time, as a JSON array.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let selves = self_times(spans);
    let mut out = String::with_capacity(spans.len() * 128 + 2);
    out.push_str("[\n");
    for (i, (s, self_ns)) in spans.iter().zip(&selves).enumerate() {
        let sep = if i + 1 == spans.len() { "" } else { "," };
        let _ = writeln!(
            out,
            "{{\"id\":{},\"parent\":{},\"trace\":{},\"name\":\"{}\",\"origin\":\"{}\",\
             \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}{sep}",
            s.id,
            s.parent,
            s.trace,
            s.name,
            s.origin.name(),
            s.start_ns,
            s.end_ns,
            self_ns
        );
    }
    out.push(']');
    std::fs::write(path, out)
}

/// A span read back from a flight recorder, in wall-clock time.
struct RecordedSpan {
    trace: u64,
    name: &'static str,
    origin: Origin,
    start_unix_ns: u64,
    end_unix_ns: u64,
}

/// Collects spans from flight recorders whose rings wrap within about a
/// thousand requests: sample them often, and each sample adds only the
/// events recorded since the previous one.
#[derive(Default)]
pub struct RecorderSampler {
    sources: HashMap<u64, Source>,
    spans: Vec<RecordedSpan>,
}

/// What a sampler remembers of one recorder.
#[derive(Default)]
struct Source {
    /// The first ticket not read yet.
    next: u64,
    /// Spans begun but not ended yet: span id → (trace, name, start).
    open: HashMap<u64, (u64, &'static str, u64)>,
}

impl RecorderSampler {
    /// Reads the events `recorder` gained since the last sample of
    /// `source` (a number naming that recorder for the whole run).
    pub fn sample(&mut self, source: u64, origin: Origin, recorder: &Arc<FlightRecorder>) {
        let anchor = recorder.wall_anchor_unix_ns();
        let Source { next, open } = self.sources.entry(source).or_default();
        for e in recorder.snapshot() {
            if e.ticket < *next {
                continue;
            }
            *next = e.ticket + 1;
            let at = anchor.saturating_add(e.t_ns);
            match e.kind {
                EventKind::SpanBegin => {
                    open.insert(e.span.as_u64(), (e.trace.as_u64(), e.name, at));
                }
                EventKind::SpanEnd => {
                    if let Some((trace, name, start)) = open.remove(&e.span.as_u64()) {
                        self.spans.push(RecordedSpan {
                            trace,
                            name,
                            origin,
                            start_unix_ns: start,
                            end_unix_ns: at,
                        });
                    }
                }
                EventKind::Instant => {}
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, trace: 1, name: "x", origin: Origin::Harness, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 1, 30, 60),  // overlaps 2: the union is 10..60
            span(4, 1, 90, 120), // sticks out: only 90..100 counts
            span(5, 2, 10, 20),
        ];
        assert_eq!(self_times(&spans), vec![40, 20, 30, 30, 10]);
    }

    #[test]
    fn tracing_off_records_nothing_but_still_times() {
        let tracer = Tracer::new(false);
        let (v, d) = tracer.span(1, 0, "x", |_| 7);
        assert_eq!(v, 7);
        assert!(d < Duration::from_secs(1));
        assert!(tracer.spans().is_empty());
        tracer.set_on(true);
        tracer.span(1, 0, "x", |id| assert_ne!(id, 0));
        assert_eq!(tracer.spans().len(), 1);
    }

    #[test]
    fn sampler_pairs_begins_with_ends_across_samples() {
        let recorder = Arc::new(FlightRecorder::new(64));
        let trace = sorl_obs::TraceId::fresh();
        let mut sampler = RecorderSampler::default();
        let guard = recorder.span(trace, "tune");
        sampler.sample(1, Origin::Client, &recorder);
        drop(guard);
        sampler.sample(1, Origin::Client, &recorder);
        sampler.sample(1, Origin::Client, &recorder);
        assert_eq!(sampler.spans.len(), 1);
        assert_eq!(sampler.spans[0].trace, trace.as_u64());
    }
}
