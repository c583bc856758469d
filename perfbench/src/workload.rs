//! Seeded workload generation: the instances a run sends and the order it
//! sends them in. Everything here is a pure function of the workload, the
//! seed and the request count, so the same seed gives the same inputs.

use std::collections::{HashMap, HashSet};
use std::ops::Range;

use sorl_shard::Topology;
use stencil_model::{GridSize, InstanceKey, StencilInstance, StencilKernel};

/// The fleet's shard ids. Shard `b` is the one that restarts.
pub const SHARDS: [&str; 2] = ["a", "b"];

/// Distinct keys of `hot_skewed`.
const HOT_KEYS: usize = 256;
/// Distinct hot keys of `churn_restart`.
const CHURN_HOT_KEYS: usize = 48;
/// Share of `churn_restart` reads that ask for a never-seen instance.
const CHURN_TAIL: f64 = 0.2;
/// Restarts of shard `b` spread over each `churn_restart` phase.
pub const CHURN_RESTARTS: usize = 4;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    ColdUnique,
    HotSkewed,
    ChurnRestart,
}

impl Workload {
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "cold_unique" => Some(Workload::ColdUnique),
            "hot_skewed" => Some(Workload::HotSkewed),
            "churn_restart" => Some(Workload::ChurnRestart),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::ColdUnique => "cold_unique",
            Workload::HotSkewed => "hot_skewed",
            Workload::ChurnRestart => "churn_restart",
        }
    }

    /// Requests per second a plan is sized for: roughly what the fleet
    /// completes on a 2-core host, so a phase lasts about its time budget.
    /// The request count comes from this constant and never from a
    /// measurement, so every run of a seed does the same work.
    pub fn planned_rate(self) -> f64 {
        match self {
            Workload::ColdUnique => 450.0,
            Workload::HotSkewed => 8000.0,
            Workload::ChurnRestart => 800.0,
        }
    }
}

/// SplitMix64: a tiny, well-mixed generator; enough for workload draws.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn extent(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }
}

/// Deals Table III kernels in shuffled blocks of 24 — each 3-D kernel 3
/// times, each 2-D kernel twice — so 3 draws in 4 are 3-D (8640
/// candidates) and the rest 2-D (1600). Every deck deals the same
/// sequence: the seed draws grid sizes and the request order, never which
/// kernel comes when. A hit's latency depends on its kernel (request
/// payloads range from 0.3 to 1.9 KB), so with the kernels dealt by the
/// seed, which kernels Zipf(1) put on its top ranks moved the median hit
/// from seed to seed by up to half.
struct KernelDeck {
    block: Vec<StencilKernel>,
    hand: Vec<StencilKernel>,
    order: Rng,
}

const BLOCK: usize = 24;
/// Seeds every deck's shuffle.
const DECK_ORDER: u64 = 0x4b45_524e_454c_5321;

impl KernelDeck {
    fn new() -> Self {
        let mut block = Vec::with_capacity(BLOCK);
        for k in StencilKernel::table3_kernels() {
            let copies = if k.dim() == 3 { 3 } else { 2 };
            block.extend(std::iter::repeat_n(k, copies));
        }
        KernelDeck { block, hand: Vec::new(), order: Rng::new(DECK_ORDER) }
    }

    fn deal(&mut self) -> StencilKernel {
        if self.hand.is_empty() {
            self.hand = self.block.clone();
        }
        let i = self.order.below(self.hand.len());
        self.hand.swap_remove(i)
    }

    fn deal_n(&mut self, n: usize) -> Vec<StencilKernel> {
        (0..n).map(|_| self.deal()).collect()
    }
}

/// A seeded grid size for `kernel`: 24–512 per axis in 3-D, 64–4096 in 2-D.
fn draw_size(rng: &mut Rng, kernel: &StencilKernel) -> GridSize {
    if kernel.dim() == 3 {
        GridSize::d3(rng.extent(24, 512), rng.extent(24, 512), rng.extent(24, 512))
    } else {
        GridSize::d2(rng.extent(64, 4096), rng.extent(64, 4096))
    }
}

/// Draws sizes for `kernel` until the instance's cache key is new to
/// `seen` and, with `shard` set, routes to that shard.
fn draw(
    rng: &mut Rng,
    kernel: &StencilKernel,
    seen: &mut HashSet<InstanceKey>,
    shard: Option<&str>,
) -> StencilInstance {
    let topology = Topology::new(SHARDS);
    loop {
        let q = StencilInstance::new(kernel.clone(), draw_size(rng, kernel))
            .expect("every extent exceeds every Table III footprint");
        if shard.is_none_or(|s| topology.owner_of(&q.key()) == Some(s)) && seen.insert(q.key()) {
            return q;
        }
    }
}

/// For each kernel, one new instance per shard, interleaved `a, b, a, b…`:
/// both shards get the same kernel sequence.
fn owned_pairs(
    rng: &mut Rng,
    kernels: &[StencilKernel],
    seen: &mut HashSet<InstanceKey>,
) -> Vec<StencilInstance> {
    kernels
        .iter()
        .flat_map(|k| SHARDS.map(|shard| (k, shard)))
        .map(|(k, shard)| draw(rng, k, seen, Some(shard)))
        .collect()
}

/// Zipf(1) over ranks `0..n`: rank `r` is drawn with weight `1 / (r + 1)`.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize) -> Self {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|r| {
                acc += 1.0 / r as f64;
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c <= u).min(self.cdf.len() - 1)
    }
}

/// What one run sends.
pub struct Plan {
    /// Every distinct instance of the run (distinct cache keys), each one
    /// warmed or requested.
    pub instances: Vec<StencilInstance>,
    /// `instances[..warm]` are tuned once during set-up.
    pub warm: usize,
    /// The measured requests, one lane per client thread, as indices into
    /// `instances`.
    pub lanes: Vec<Vec<u32>>,
    /// Whether the lanes send their requests in pairs: the clients start
    /// request `i` together and wait for each other's answer.
    pub paired: bool,
    /// The instances drawn in pairs from whole kernel blocks, `a, b, a,
    /// b…`.
    blocks: Range<usize>,
    by_key: HashMap<InstanceKey, u32>,
}

impl Plan {
    /// The plan of `workload` for `seed`, with about `requests` measured
    /// requests.
    pub fn new(workload: Workload, seed: u64, requests: usize) -> Plan {
        let mut rng = Rng::new(seed ^ 0x5045_5246_4245_4e43);
        let mut seen = HashSet::new();
        let mut deck = KernelDeck::new();
        let mut instances = Vec::new();
        let (warm, lanes, paired, blocks) = match workload {
            Workload::ColdUnique => {
                // Set-up tunes one throwaway 3-D instance per shard. Then
                // one lane per shard, the lanes sending new keys with the
                // same kernel sequence in pairs: both shards always score
                // at once, so a request's latency does not depend on
                // whether the other shard happened to be busy. Whole kernel
                // blocks, so each lane sends 3-D and 2-D keys 3 to 1.
                instances.extend(owned_pairs(&mut rng, &[StencilKernel::laplacian()], &mut seen));
                let per_lane = (requests / SHARDS.len()).div_ceil(BLOCK).max(1) * BLOCK;
                let kernels = deck.deal_n(per_lane);
                instances.extend(owned_pairs(&mut rng, &kernels, &mut seen));
                let lanes = (0..SHARDS.len() as u32)
                    .map(|lane| {
                        (1..=per_lane as u32).map(|i| SHARDS.len() as u32 * i + lane).collect()
                    })
                    .collect();
                (SHARDS.len(), lanes, true, SHARDS.len()..instances.len())
            }
            Workload::HotSkewed => {
                let kernels = deck.deal_n(HOT_KEYS / SHARDS.len());
                instances.extend(owned_pairs(&mut rng, &kernels, &mut seen));
                let zipf = Zipf::new(HOT_KEYS);
                let stream: Vec<u32> =
                    (0..requests).map(|_| zipf.sample(&mut rng) as u32).collect();
                let lanes = (0..SHARDS.len())
                    .map(|c| stream.iter().skip(c).step_by(SHARDS.len()).copied().collect())
                    .collect();
                (HOT_KEYS, lanes, false, 0..HOT_KEYS)
            }
            Workload::ChurnRestart => {
                let kernels = deck.deal_n(CHURN_HOT_KEYS / SHARDS.len());
                instances.extend(owned_pairs(&mut rng, &kernels, &mut seen));
                let zipf = Zipf::new(CHURN_HOT_KEYS);
                // New keys go to the shards in turn, each shard's kernels
                // dealt from a deck of its own, so `b`'s new keys come in
                // whole kernel blocks, the same on every seed: the size of
                // its checkpoint, and the time to parse it, hardly depend
                // on the seed.
                let mut tail_decks = SHARDS.map(|_| KernelDeck::new());
                let mut tails = 0;
                let lane = (0..requests)
                    .map(|_| {
                        if rng.unit() < CHURN_TAIL {
                            let shard = tails % SHARDS.len();
                            tails += 1;
                            let k = tail_decks[shard].deal();
                            instances.push(draw(&mut rng, &k, &mut seen, Some(SHARDS[shard])));
                            instances.len() as u32 - 1
                        } else {
                            zipf.sample(&mut rng) as u32
                        }
                    })
                    .collect();
                (CHURN_HOT_KEYS, vec![lane], false, 0..CHURN_HOT_KEYS)
            }
        };
        let by_key = instances.iter().enumerate().map(|(i, q)| (q.key(), i as u32)).collect();
        Plan { instances, warm, lanes, paired, blocks, by_key }
    }

    /// Shard `b`'s first `n` instances among those drawn in pairs from
    /// whole kernel blocks, in draw order. A multiple of 24 of them holds
    /// the same kernels whatever the seed.
    pub fn b_blocks(&self, n: usize) -> Vec<u32> {
        self.blocks.clone().skip(1).step_by(SHARDS.len()).take(n).map(|i| i as u32).collect()
    }

    /// The index of the run's instance with cache key `key`.
    pub fn index_of(&self, key: &InstanceKey) -> Option<u32> {
        self.by_key.get(key).copied()
    }

    /// The first `n` instances, in the order they were drawn. Every run of
    /// the seed answers each of them, so a metric over them repeats.
    pub fn first_drawn(&self, n: usize) -> Vec<u32> {
        (0..self.instances.len().min(n) as u32).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ALL: [Workload; 3] = [Workload::ColdUnique, Workload::HotSkewed, Workload::ChurnRestart];

    fn requests(plan: &Plan) -> Vec<u32> {
        plan.lanes.iter().flatten().copied().collect()
    }

    #[test]
    fn plans_repeat_for_a_seed_and_differ_across_seeds() {
        for w in ALL {
            let a = Plan::new(w, 7, 500);
            let b = Plan::new(w, 7, 500);
            let c = Plan::new(w, 8, 500);
            assert_eq!(a.lanes, b.lanes);
            assert_eq!(a.instances, b.instances);
            assert_ne!(a.instances, c.instances);
            let kernels = |p: &Plan| {
                p.instances.iter().take(48).map(|q| q.kernel().clone()).collect::<Vec<_>>()
            };
            assert_eq!(kernels(&a), kernels(&c), "{w:?}: the seed never picks the kernels");
            let n = requests(&a).len();
            assert!((500..=500 + 2 * BLOCK).contains(&n), "{n} requests");
        }
    }

    #[test]
    fn every_instance_is_warmed_or_requested() {
        for w in ALL {
            let plan = Plan::new(w, 11, 300);
            let asked: HashSet<u32> = requests(&plan).into_iter().collect();
            assert!((0..plan.instances.len() as u32)
                .all(|i| (i as usize) < plan.warm || asked.contains(&i)));
        }
    }

    #[test]
    fn cold_lanes_are_new_keys_of_one_shard_each() {
        let plan = Plan::new(Workload::ColdUnique, 3, 470);
        let keys: HashSet<InstanceKey> = plan.instances.iter().map(|q| q.key()).collect();
        assert_eq!(keys.len(), plan.instances.len());
        let topology = Topology::new(SHARDS);
        for (lane, shard) in plan.lanes.iter().zip(SHARDS) {
            assert_eq!(lane.len(), 240);
            assert!(lane.iter().all(|&i| i as usize >= plan.warm));
            assert!(lane
                .iter()
                .all(|&i| topology.owner_of(&plan.instances[i as usize].key()) == Some(shard)));
            let three_d = lane.iter().filter(|&&i| plan.instances[i as usize].dim() == 3).count();
            assert_eq!(three_d, 180, "whole kernel blocks give exactly 3/4 3-D");
        }
        let kernel = |lane: usize, i: usize| plan.instances[plan.lanes[lane][i] as usize].kernel();
        assert!((0..240).all(|i| kernel(0, i) == kernel(1, i)), "paired lanes share kernels");
    }

    #[test]
    fn hot_stream_is_skewed_over_warmed_keys() {
        let plan = Plan::new(Workload::HotSkewed, 5, 20_000);
        assert_eq!(plan.warm, plan.instances.len());
        let top = requests(&plan).iter().filter(|&&i| i == 0).count() as f64 / 20_000.0;
        // Zipf(1) over 256 ranks gives rank 0 about 16% of the draws.
        assert!((0.13..0.19).contains(&top), "rank-0 share {top}");
    }

    #[test]
    fn churn_has_a_new_key_tail() {
        let plan = Plan::new(Workload::ChurnRestart, 9, 5000);
        let tail = requests(&plan).iter().filter(|&&i| i as usize >= plan.warm).count() as f64;
        assert!((0.17..0.23).contains(&(tail / 5000.0)));
        let last = plan.instances.last().expect("a tail instance");
        assert_eq!(plan.index_of(&last.key()), Some(plan.instances.len() as u32 - 1));
        let topology = Topology::new(SHARDS);
        let owners: Vec<_> =
            plan.instances[plan.warm..].iter().map(|q| topology.owner_of(&q.key())).collect();
        assert!(owners
            .chunks(2)
            .all(|p| p[0] == Some("a") && p.get(1).is_none_or(|b| *b == Some("b"))));
    }

    #[test]
    fn b_blocks_are_whole_blocks_of_b_keys() {
        let topology = Topology::new(SHARDS);
        for w in [Workload::ColdUnique, Workload::HotSkewed] {
            let mix = |seed| {
                let plan = Plan::new(w, seed, 400);
                let picked = plan.b_blocks(2 * BLOCK);
                assert_eq!(picked.len(), 2 * BLOCK);
                let mut kernels: Vec<String> = picked
                    .iter()
                    .map(|&i| &plan.instances[i as usize])
                    .inspect(|q| assert_eq!(topology.owner_of(&q.key()), Some("b")))
                    .map(|q| format!("{:?}", q.kernel()))
                    .collect();
                kernels.sort();
                kernels
            };
            assert_eq!(mix(1), mix(2), "{w:?}: whole blocks hold every kernel alike");
        }
    }
}
