//! Grouped ranking datasets.
//!
//! A [`RankingDataset`] stores feature rows together with a *target* (for
//! autotuning: the measured runtime, lower is better) and a *group id* (the
//! stencil instance). Pairwise preferences are generated only within groups,
//! which is exactly the paper's partial-ranking structure: executions of
//! different stencils or input sizes are never compared.

use serde::{Deserialize, Serialize};

/// Identifier of a comparability group (a "query" in ranking terms).
pub type GroupId = u32;

/// A dense, grouped learning-to-rank dataset.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankingDataset {
    dim: usize,
    features: Vec<f64>, // row-major, len = dim * n
    targets: Vec<f64>,
    groups: Vec<GroupId>,
}

impl RankingDataset {
    /// Creates an empty dataset for `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        RankingDataset { dim, features: Vec::new(), targets: Vec::new(), groups: Vec::new() }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.targets.len()
    }

    /// Whether the dataset holds no samples.
    pub fn is_empty(&self) -> bool {
        self.targets.is_empty()
    }

    /// Appends a sample.
    ///
    /// # Panics
    /// Panics when the feature length does not match the dataset dimension.
    pub fn push(&mut self, features: &[f64], target: f64, group: GroupId) {
        assert_eq!(features.len(), self.dim, "feature dimension mismatch");
        self.features.extend_from_slice(features);
        self.targets.push(target);
        self.groups.push(group);
    }

    /// The `i`-th feature row.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.features[i * self.dim..(i + 1) * self.dim]
    }

    /// The `i`-th target.
    pub fn target(&self, i: usize) -> f64 {
        self.targets[i]
    }

    /// All targets.
    pub fn targets(&self) -> &[f64] {
        &self.targets
    }

    /// The `i`-th group id.
    pub fn group(&self, i: usize) -> GroupId {
        self.groups[i]
    }

    /// Distinct group ids in first-appearance order.
    pub fn group_ids(&self) -> Vec<GroupId> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for &g in &self.groups {
            if seen.insert(g) {
                out.push(g);
            }
        }
        out
    }

    /// Sample indices belonging to group `g`.
    pub fn group_indices(&self, g: GroupId) -> Vec<usize> {
        (0..self.len()).filter(|&i| self.groups[i] == g).collect()
    }

    /// Takes the first `n` samples (used for the paper's training-size
    /// sweeps). Group structure is preserved.
    pub fn truncated(&self, n: usize) -> RankingDataset {
        let n = n.min(self.len());
        RankingDataset {
            dim: self.dim,
            features: self.features[..n * self.dim].to_vec(),
            targets: self.targets[..n].to_vec(),
            groups: self.groups[..n].to_vec(),
        }
    }

    /// Generates all within-group preference pairs `(better, worse)`.
    ///
    /// Targets closer than `tie_eps` (relative) are treated as ties and
    /// skipped: measured runtimes within noise must not generate
    /// constraints.
    pub fn pairs(&self, tie_eps: f64) -> Vec<(u32, u32)> {
        let mut by_group: std::collections::HashMap<GroupId, Vec<usize>> =
            std::collections::HashMap::new();
        for (i, &g) in self.groups.iter().enumerate() {
            by_group.entry(g).or_default().push(i);
        }
        let mut groups: Vec<_> = by_group.into_iter().collect();
        groups.sort_by_key(|(g, _)| *g); // deterministic order
        let mut pairs = Vec::new();
        for (_, idx) in groups {
            for a in 0..idx.len() {
                for b in (a + 1)..idx.len() {
                    let (i, j) = (idx[a], idx[b]);
                    let (yi, yj) = (self.targets[i], self.targets[j]);
                    let scale = yi.abs().min(yj.abs()).max(f64::MIN_POSITIVE);
                    if (yi - yj).abs() / scale <= tie_eps {
                        continue; // tie
                    }
                    if yi < yj {
                        pairs.push((i as u32, j as u32));
                    } else {
                        pairs.push((j as u32, i as u32));
                    }
                }
            }
        }
        pairs
    }

    /// Per-group dense ranks of the targets (0 = best within the group).
    /// Ties share the smaller rank.
    pub fn ranks(&self) -> Vec<u32> {
        let mut ranks = vec![0u32; self.len()];
        for g in self.group_ids() {
            let idx = self.group_indices(g);
            let mut order = idx.clone();
            order.sort_by(|&a, &b| self.targets[a].total_cmp(&self.targets[b]));
            let mut rank = 0u32;
            for (pos, &i) in order.iter().enumerate() {
                if pos > 0 && self.targets[i] > self.targets[order[pos - 1]] {
                    rank = pos as u32;
                }
                ranks[i] = rank;
            }
        }
        ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The paper's Table I example: 4 instances, 3 tunings each.
    pub(crate) fn table1() -> RankingDataset {
        let mut ds = RankingDataset::new(2);
        let rows: [(f64, f64, f64, GroupId); 12] = [
            (0.1, 0.2, 12.0, 1),
            (0.2, 0.3, 13.0, 1),
            (0.3, 0.1, 20.0, 1),
            (0.1, 0.2, 10.0, 2),
            (0.2, 0.3, 36.0, 2),
            (0.3, 0.1, 35.0, 2),
            (0.5, 0.2, 30.0, 3),
            (0.6, 0.3, 45.0, 3),
            (0.7, 0.1, 47.0, 3),
            (0.5, 0.2, 25.0, 4),
            (0.6, 0.3, 21.0, 4),
            (0.7, 0.1, 12.0, 4),
        ];
        for (a, b, y, g) in rows {
            ds.push(&[a, b], y, g);
        }
        ds
    }

    #[test]
    fn push_and_access() {
        let ds = table1();
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.dim(), 2);
        assert_eq!(ds.row(0), &[0.1, 0.2]);
        assert_eq!(ds.target(2), 20.0);
        assert_eq!(ds.group(11), 4);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn push_rejects_wrong_dim() {
        let mut ds = RankingDataset::new(3);
        ds.push(&[1.0], 0.0, 0);
    }

    #[test]
    fn group_ids_in_first_appearance_order() {
        let ds = table1();
        assert_eq!(ds.group_ids(), vec![1, 2, 3, 4]);
        assert_eq!(ds.group_indices(2), vec![3, 4, 5]);
    }

    #[test]
    fn pairs_match_table1_inequalities() {
        // The paper lists 8 non-transitive inequalities; with transitive
        // closure each group of 3 yields 3 pairs -> 12 total.
        let ds = table1();
        let pairs = ds.pairs(0.0);
        assert_eq!(pairs.len(), 12);
        // te1 < te2 (12ms < 13ms): pair (0, 1).
        assert!(pairs.contains(&(0, 1)));
        // te4 < te6: instance 2, 10ms vs 35ms -> (3, 5).
        assert!(pairs.contains(&(3, 5)));
        // te12 < te11: (11, 10).
        assert!(pairs.contains(&(11, 10)));
        // No cross-group pair: te4 (10ms) vs te1 (12ms) are incomparable.
        assert!(!pairs.contains(&(3, 0)));
        // Better sample always listed first.
        for &(i, j) in &pairs {
            assert!(ds.target(i as usize) < ds.target(j as usize));
            assert_eq!(ds.group(i as usize), ds.group(j as usize));
        }
    }

    #[test]
    fn ties_are_skipped() {
        let mut ds = RankingDataset::new(1);
        ds.push(&[0.0], 10.0, 0);
        ds.push(&[1.0], 10.0, 0);
        ds.push(&[2.0], 20.0, 0);
        // Exact equality is a tie even at eps = 0: equal targets are unorderable.
        assert_eq!(ds.pairs(0.0).len(), 2);
        let pairs = ds.pairs(1e-9);
        assert_eq!(pairs.len(), 2); // the 10 vs 10 pair is dropped
    }

    #[test]
    fn relative_tie_epsilon() {
        let mut ds = RankingDataset::new(1);
        ds.push(&[0.0], 1.000, 0);
        ds.push(&[1.0], 1.0005, 0); // within 0.1% -> tie at eps = 1e-3
        ds.push(&[2.0], 1.1, 0);
        assert_eq!(ds.pairs(1e-3).len(), 2);
        assert_eq!(ds.pairs(1e-6).len(), 3);
    }

    #[test]
    fn ranks_per_group() {
        let ds = table1();
        let r = ds.ranks();
        // Group 1: 12 < 13 < 20 -> ranks 0,1,2 at indices 0,1,2.
        assert_eq!(&r[0..3], &[0, 1, 2]);
        // Group 2: 10 < 35 < 36 -> te4 best, te6 (35ms, idx 5) second.
        assert_eq!(r[3], 0);
        assert_eq!(r[5], 1);
        assert_eq!(r[4], 2);
        // Group 4: 12 < 21 < 25 reversed order.
        assert_eq!(&r[9..12], &[2, 1, 0]);
    }

    #[test]
    fn ranks_share_rank_on_ties() {
        let mut ds = RankingDataset::new(1);
        ds.push(&[0.0], 5.0, 0);
        ds.push(&[1.0], 5.0, 0);
        ds.push(&[2.0], 7.0, 0);
        let r = ds.ranks();
        assert_eq!(r[0], 0);
        assert_eq!(r[1], 0);
        assert_eq!(r[2], 2);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let ds = table1();
        let t = ds.truncated(5);
        assert_eq!(t.len(), 5);
        assert_eq!(t.dim(), 2);
        assert_eq!(t.group_ids(), vec![1, 2]);
        assert_eq!(t.row(4), ds.row(4));
        // Truncating beyond the length is a no-op.
        assert_eq!(ds.truncated(100).len(), 12);
    }

    #[test]
    fn empty_dataset() {
        let ds = RankingDataset::new(4);
        assert!(ds.is_empty());
        assert!(ds.pairs(0.0).is_empty());
        assert!(ds.ranks().is_empty());
        assert!(ds.group_ids().is_empty());
    }

    #[test]
    fn serde_roundtrip() {
        let ds = table1();
        let json = serde_json::to_string(&ds).unwrap();
        let back: RankingDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(back.len(), ds.len());
        assert_eq!(back.row(7), ds.row(7));
    }
}
