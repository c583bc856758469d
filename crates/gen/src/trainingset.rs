//! Training-set construction (paper Fig. 3).
//!
//! For every corpus instance, random tuning vectors are drawn (twice as
//! many for 3-D kernels, which expose a larger space), each execution is
//! "run" on the simulated machine, and the resulting `(features, runtime,
//! instance)` triples become a grouped [`RankingDataset`] whose groups are
//! the per-instance partial rankings of Section IV-D.
//!
//! Paper training-set sizes are multiples of 320 samples: with 80 2-D and
//! 120 3-D instances, one "round" of (1 tuning per 2-D instance, 2 per 3-D
//! instance) contributes `80 + 240 = 320` executions; the paper's sweep
//! {960, 1920, ..., 9600, 16000, 32000} corresponds to 3..100 rounds.

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

use ranksvm::RankingDataset;
use stencil_machine::Machine;
use stencil_model::{FeatureEncoder, StencilExecution, TuningSpace, TuningVector};

use crate::corpus::Corpus;

/// How tuning vectors are drawn for the training set.
///
/// The paper samples uniformly at random and names smarter schemes as
/// future work ("analyze different mechanisms for generating training
/// sets, such as the use of heuristic methods"). `Guided` implements one
/// such heuristic: a fraction of the draws come from the structured
/// power-of-two grid the tuner will later rank (the predefined set), so
/// the model sees the candidate distribution it will be queried on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SamplingStrategy {
    /// Uniform (log-scaled) random draws — the paper's scheme.
    #[default]
    Random,
    /// Every other draw comes from the predefined power-of-two set.
    Guided,
}

/// One raw training execution (before feature encoding).
#[derive(Debug, Clone, PartialEq)]
pub struct TrainingExecution {
    /// Index into [`Corpus::instances`] (also the ranking group id).
    pub instance: usize,
    /// The tuning vector applied.
    pub tuning: TuningVector,
    /// Simulated runtime in seconds.
    pub seconds: f64,
}

/// A complete training set: encoded dataset plus provenance and timings.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    /// The encoded, grouped dataset ready for the rank trainer.
    pub dataset: RankingDataset,
    /// Raw executions in dataset order.
    pub executions: Vec<TrainingExecution>,
    /// Sum of simulated runtimes — the machine time the paper's "TS
    /// Generation" column measures.
    pub simulated_seconds: f64,
    /// Wall-clock seconds this builder actually spent.
    pub wall_seconds: f64,
}

/// Builds [`TrainingSet`]s from a corpus on a simulated machine.
#[derive(Debug, Clone)]
pub struct TrainingSetBuilder {
    corpus: Corpus,
    machine: Machine,
    encoder: FeatureEncoder,
    seed: u64,
    sampling: SamplingStrategy,
}

impl TrainingSetBuilder {
    /// A builder over the paper corpus, the Xeon machine and the default
    /// (interaction) encoder.
    pub fn paper() -> Self {
        TrainingSetBuilder {
            corpus: Corpus::paper(),
            machine: Machine::xeon_e5_2680_v3(),
            encoder: FeatureEncoder::default_interaction(),
            seed: 0x7261_6E6B, // "rank"
            sampling: SamplingStrategy::Random,
        }
    }

    /// Replaces the corpus.
    pub fn with_corpus(mut self, corpus: Corpus) -> Self {
        self.corpus = corpus;
        self
    }

    /// Replaces the machine.
    pub fn with_machine(mut self, machine: Machine) -> Self {
        self.machine = machine;
        self
    }

    /// Replaces the feature encoder.
    pub fn with_encoder(mut self, encoder: FeatureEncoder) -> Self {
        self.encoder = encoder;
        self
    }

    /// Replaces the sampling seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the sampling strategy.
    pub fn with_sampling(mut self, sampling: SamplingStrategy) -> Self {
        self.sampling = sampling;
        self
    }

    /// The corpus in use.
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The encoder in use.
    pub fn encoder(&self) -> &FeatureEncoder {
        &self.encoder
    }

    /// Number of executions contributed by one sampling round
    /// (1 per 2-D instance + 2 per 3-D instance).
    pub fn round_size(&self) -> usize {
        self.corpus.instances().iter().map(|q| if q.dim() == 2 { 1 } else { 2 }).sum()
    }

    /// Builds a training set with `rounds` sampling rounds (total size =
    /// `rounds * round_size()`).
    pub fn build_rounds(&self, rounds: usize) -> TrainingSet {
        let wall_start = std::time::Instant::now();
        let mut rng = ChaCha8Rng::seed_from_u64(self.seed);
        let mut dataset = RankingDataset::new(self.encoder.dim());
        let mut executions = Vec::new();
        let mut simulated = 0.0f64;
        let mut features = Vec::with_capacity(self.encoder.dim());
        // Cached structured candidate pools for guided sampling.
        let predefined_2d = TuningSpace::d2().predefined_set();
        let predefined_3d = TuningSpace::d3().predefined_set();

        for round in 0..rounds {
            for (idx, q) in self.corpus.instances().iter().enumerate() {
                let space = TuningSpace::for_dim(q.dim()).expect("corpus dims are valid");
                let draws = if q.dim() == 2 { 1 } else { 2 };
                for draw in 0..draws {
                    let tuning = match self.sampling {
                        SamplingStrategy::Random => space.random(&mut rng),
                        SamplingStrategy::Guided => {
                            if (round + draw) % 2 == 0 {
                                let set =
                                    if q.dim() == 2 { &predefined_2d } else { &predefined_3d };
                                set[rng.random_range(0..set.len())]
                            } else {
                                space.random(&mut rng)
                            }
                        }
                    };
                    let exec = StencilExecution::new(q.clone(), tuning)
                        .expect("sampled tuning is admissible");
                    let meas = self.machine.execute_rep(&exec, round as u32);
                    self.encoder.encode_into(&exec, &mut features);
                    dataset.push(&features, meas.seconds, idx as u32);
                    executions.push(TrainingExecution {
                        instance: idx,
                        tuning,
                        seconds: meas.seconds,
                    });
                    simulated += meas.seconds;
                }
            }
        }
        TrainingSet {
            dataset,
            executions,
            simulated_seconds: simulated,
            wall_seconds: wall_start.elapsed().as_secs_f64(),
        }
    }

    /// Builds a training set of (at least) `total` samples, rounding the
    /// round count up. The paper's sizes are exact multiples.
    pub fn build_size(&self, total: usize) -> TrainingSet {
        let rounds = total.div_ceil(self.round_size().max(1)).max(1);
        let mut ts = self.build_rounds(rounds);
        // Trim overshoot so the reported size is exact.
        if ts.dataset.len() > total {
            ts.dataset = ts.dataset.truncated(total);
            ts.executions.truncate(total);
            ts.simulated_seconds = ts.executions.iter().map(|e| e.seconds).sum();
        }
        ts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus::CorpusConfig;

    fn small_builder() -> TrainingSetBuilder {
        let corpus = Corpus::generate(CorpusConfig { kernels_2d: 2, kernels_3d: 2 }).unwrap();
        TrainingSetBuilder::paper().with_corpus(corpus)
    }

    #[test]
    fn paper_round_size_is_320() {
        assert_eq!(TrainingSetBuilder::paper().round_size(), 320);
    }

    #[test]
    fn build_rounds_counts() {
        let b = small_builder();
        // 2 kernels_2d x 4 sizes x 1 + 2 kernels_3d x 3 sizes x 2 = 20/round.
        assert_eq!(b.round_size(), 20);
        let ts = b.build_rounds(3);
        assert_eq!(ts.dataset.len(), 60);
        assert_eq!(ts.executions.len(), 60);
        assert!(ts.simulated_seconds > 0.0);
    }

    #[test]
    fn three_d_instances_get_twice_the_tunings() {
        let b = small_builder();
        let ts = b.build_rounds(1);
        let counts: std::collections::HashMap<usize, usize> =
            ts.executions.iter().fold(Default::default(), |mut m, e| {
                *m.entry(e.instance).or_default() += 1;
                m
            });
        for (idx, q) in b.corpus().instances().iter().enumerate() {
            let expect = if q.dim() == 2 { 1 } else { 2 };
            assert_eq!(counts[&idx], expect, "{q}");
        }
    }

    #[test]
    fn paper_set_stores_its_instance_columns_once_per_group() {
        // 200 groups x 348 shared columns plus 3840 rows x 187 columns:
        // 6.3 MB of values instead of 16.4 MB of dense rows.
        let ds = TrainingSetBuilder::paper().build_size(3840).dataset;
        let (groups, shared) = (ds.group_ids().len(), ds.shared_columns());
        assert_eq!((groups, ds.dim(), shared), (200, 535, 348));
        assert_eq!(ds.dim() - shared, 187);
        assert!((groups * shared + ds.len() * (ds.dim() - shared)) * 8 < 6_400_000);
    }

    #[test]
    fn build_size_trims_exactly() {
        let b = small_builder();
        let ts = b.build_size(33);
        assert_eq!(ts.dataset.len(), 33);
        assert_eq!(ts.executions.len(), 33);
    }

    #[test]
    fn groups_match_instances() {
        let b = small_builder();
        let ts = b.build_rounds(2);
        for (i, e) in ts.executions.iter().enumerate() {
            assert_eq!(ts.dataset.group(i) as usize, e.instance);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let b = small_builder();
        let a = b.build_rounds(2);
        let c = b.build_rounds(2);
        assert_eq!(a.executions, c.executions);
        let d = small_builder().with_seed(99).build_rounds(2);
        assert_ne!(a.executions, d.executions);
    }

    #[test]
    fn features_are_normalized() {
        let b = small_builder();
        let ts = b.build_rounds(1);
        for i in 0..ts.dataset.len() {
            assert!(ts.dataset.row(i).iter().all(|v| (0.0..=1.0).contains(v)));
        }
    }

    #[test]
    fn guided_sampling_mixes_structured_draws() {
        let b = small_builder().with_sampling(SamplingStrategy::Guided);
        let ts = b.build_rounds(4);
        // About half the draws come from the power-of-two grid.
        let pow2 = ts
            .executions
            .iter()
            .filter(|e| {
                e.tuning.bx.is_power_of_two()
                    && e.tuning.by.is_power_of_two()
                    && [0, 2, 4, 8].contains(&e.tuning.u)
            })
            .count();
        let frac = pow2 as f64 / ts.executions.len() as f64;
        assert!(frac > 0.4, "structured fraction {frac}");
        // ... and the rest are random draws (not all structured).
        assert!(frac < 0.95, "structured fraction {frac}");
        // Strategy is deterministic.
        let ts2 = small_builder().with_sampling(SamplingStrategy::Guided).build_rounds(4);
        assert_eq!(ts.executions, ts2.executions);
    }

    #[test]
    fn rankable_pairs_exist_with_multiple_rounds() {
        let b = small_builder();
        let ts = b.build_rounds(3);
        let pairs = ts.dataset.pairs(1e-4);
        assert!(!pairs.is_empty());
        // Pairs stay within groups.
        for (i, j) in pairs {
            assert_eq!(ts.dataset.group(i as usize), ts.dataset.group(j as usize));
        }
    }
}
