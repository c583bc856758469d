//! The traced run's layer measurements. The workload's distinct requests
//! are replayed through each depth of the stack (session alone, in-process
//! service, in-process router, one TCP link), so a layer's share is the
//! difference between adjacent depths; the scoring pipeline is re-run
//! call by call from the public `model` and `ranksvm` functions; and the
//! wire codecs are timed on the same requests. Every call is a span: the
//! metrics are read back from the spans by name.

use std::hint::black_box;

use sorl::tuner::TopK;
use sorl::{predefined_candidates, StencilRanker, TuningSession};
use sorl_serve::{ServeError, TuneRequest, TuneService};
use sorl_shard::wire::{self, bin};
use sorl_shard::{LocalShard, ShardRouter, ShardServer, ShardTransport, TcpShard};
use stencil_model::{CandidateMatrix, InstanceKey, StencilInstance};

use crate::fleet::{serve_config, K};
use crate::trace::Tracer;
use crate::workload::SHARDS;

/// Rows per scoring block, as in `TuningSession`.
const BLOCK_ROWS: usize = 64;
/// Depth a service scores per pass (`ServeConfig::cache_k_floor`).
pub const SELECT_K: usize = 8;
/// Codec calls per span: a reply encodes in well under a microsecond.
pub const CODEC_REPS: usize = 16;
/// Router passes over the sampled keys.
const ROUTE_PASSES: usize = 64;

/// Replays each instance twice (a miss, then a hit) through each depth.
/// Instance `j` of `sample` runs under trace `first_trace + j` at every
/// depth, and the depths take turns instance by instance, so a drift in
/// machine speed moves every depth alike and depths compare instance by
/// instance.
pub fn replay_depths(
    tracer: &Tracer,
    ranker: &StencilRanker,
    sample: &[&StencilInstance],
    first_trace: u64,
) -> Result<(), String> {
    let mut session = TuningSession::new(ranker.clone());
    let service = TuneService::spawn(ranker.clone(), serve_config());
    let client = service.client();
    let mut router = ShardRouter::new();
    for id in SHARDS {
        router
            .add_shard(id, LocalShard::spawn(ranker.clone(), serve_config()))
            .map_err(|e| e.to_string())?;
    }
    let server =
        ShardServer::spawn(TuneService::spawn(ranker.clone(), serve_config()), "127.0.0.1:0")
            .map_err(|e| format!("bind shard: {e}"))?;
    let link = TcpShard::connect(server.local_addr()).map_err(|e| e.to_string())?;
    link.ranker_fingerprint().map_err(|e| e.to_string())?; // negotiate before timing

    for (trace, q) in (first_trace..).zip(sample) {
        let name = if q.dim() == 3 { "session.tune_3d" } else { "session.tune_2d" };
        black_box(tracer.span(trace, 0, name, |_| session.top_k_predefined(q, K)));
        twice(tracer, trace, q, ["serve.miss", "serve.hit"], |q| client.tune(q, K))?;
        twice(tracer, trace, q, ["shard.local_miss", "shard.local_hit"], |q| {
            router.tune(q, K).map_err(|e| ServeError::Transport(e.to_string()))
        })?;
        twice(tracer, trace, q, ["wire.tcp_miss", "wire.tcp_hit"], |q| link.tune(q, K))?;
    }
    Ok(())
}

/// One depth of [`replay_depths`]: the instance as a miss, then as a hit.
fn twice(
    tracer: &Tracer,
    trace: u64,
    q: &StencilInstance,
    names: [&'static str; 2],
    tune: impl Fn(StencilInstance) -> Result<TopK, ServeError>,
) -> Result<(), String> {
    for name in names {
        let q = q.clone();
        tracer.span(trace, 0, name, |_| tune(q)).0.map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// Runs the scoring pipeline call by call: `query_features` and
/// `append_candidate` into 64-row `CandidateMatrix` blocks (`model`),
/// `score_rows_into` per block and `top_k_desc` (`ranksvm`). Checks that
/// the result equals `TuningSession::top_k_predefined`, and returns the
/// mean bytes of feature rows the scoring kernel reads per tune. Traces
/// as in [`replay_depths`].
pub fn decompose(
    tracer: &Tracer,
    ranker: &StencilRanker,
    sample: &[&StencilInstance],
    first_trace: u64,
) -> Result<f64, String> {
    let encoder = ranker.encoder();
    let model = ranker.model();
    let mut matrix = CandidateMatrix::with_row_capacity(encoder.dim(), BLOCK_ROWS);
    let mut scores: Vec<f64> = Vec::new();
    let mut reference = TuningSession::new(ranker.clone());
    let mut bytes = 0usize;
    for (trace, q) in (first_trace..).zip(sample) {
        let candidates = predefined_candidates(q.dim());
        scores.clear();
        scores.resize(candidates.len(), 0.0);
        let (top, _) = tracer.span(trace, 0, "decomposed_tune", |root| {
            let (qf, _) = tracer.span(trace, root, "model.encode", |_| encoder.query_features(q));
            for (block, out) in candidates.chunks(BLOCK_ROWS).zip(scores.chunks_mut(BLOCK_ROWS)) {
                tracer.span(trace, root, "model.encode", |_| {
                    matrix.clear();
                    for &t in block {
                        matrix.push_row_with(|row| encoder.append_candidate(&qf, t, row));
                    }
                });
                tracer.span(trace, root, "ranksvm.score", |_| {
                    model.score_rows_into(matrix.rows_data(), matrix.stride(), out)
                });
            }
            tracer.span(trace, root, "ranksvm.select", |_| ranksvm::top_k_desc(&scores, SELECT_K)).0
        });
        bytes += candidates.len() * matrix.stride() * std::mem::size_of::<f64>();
        let want = reference.top_k_predefined(q, SELECT_K);
        let same = top.len() == want.entries.len()
            && top
                .iter()
                .zip(&want.entries)
                .all(|(&i, (t, s))| candidates[i] == *t && scores[i].to_bits() == s.to_bits());
        if !same {
            return Err(format!("call-by-call scoring of {q} differs from the session's"));
        }
    }
    Ok(bytes as f64 / sample.len().max(1) as f64)
}

/// Times the request codec (JSON, every wire version) and the reply codec
/// (binary, wire v4) on the sampled requests and their answers. Returns
/// the mean request and reply sizes in bytes. Traces as in
/// [`replay_depths`].
pub fn codecs(
    tracer: &Tracer,
    sample: &[(&StencilInstance, &TopK)],
    first_trace: u64,
) -> Result<(f64, f64), String> {
    let (mut request_bytes, mut reply_bytes) = (0usize, 0usize);
    for (trace, (q, top)) in (first_trace..).zip(sample) {
        let req = TuneRequest::new((*q).clone(), K);
        let (payload, _) = tracer.span(trace, 0, "wire.request_encode", |_| {
            repeat(|| wire::to_payload(black_box(&req)))
        });
        let (decoded, _) = tracer.span(trace, 0, "wire.request_decode", |_| {
            repeat(|| wire::from_payload::<TuneRequest>(black_box(&payload)))
        });
        match decoded {
            Ok(back) if back.instance == **q && back.k == K => {}
            _ => return Err(format!("request for {q} does not survive its codec")),
        }
        let (reply, _) = tracer
            .span(trace, 0, "wire.reply_encode", |_| repeat(|| bin::encode_top_k(black_box(top))));
        let (back, _) = tracer.span(trace, 0, "wire.reply_decode", |_| {
            repeat(|| bin::decode_top_k(black_box(&reply)))
        });
        match back {
            Ok(back) if crate::verify::same_answer(&back, top) => {}
            _ => return Err(format!("answer for {q} does not survive its codec")),
        }
        request_bytes += payload.len();
        reply_bytes += reply.len();
    }
    let n = sample.len().max(1) as f64;
    Ok((request_bytes as f64 / n, reply_bytes as f64 / n))
}

/// Runs `f` [`CODEC_REPS`] times and returns its last result.
fn repeat<T>(mut f: impl FnMut() -> T) -> T {
    let mut out = f();
    for _ in 1..CODEC_REPS {
        out = black_box(f());
    }
    out
}

/// Times `ShardRouter::owner_of` over `keys`, one span per pass.
pub fn route(tracer: &Tracer, router: &ShardRouter, keys: &[InstanceKey], trace: u64) {
    for _ in 0..ROUTE_PASSES {
        tracer.span(trace, 0, "shard.route", |_| {
            for key in keys {
                black_box(router.owner_of(black_box(key)));
            }
        });
    }
}
