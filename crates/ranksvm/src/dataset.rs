//! Grouped ranking datasets.
//!
//! A [`RankingDataset`] stores feature rows together with a *target* (for
//! autotuning: the measured runtime, lower is better) and a *group id* (the
//! stencil instance). Pairwise preferences are generated only within groups,
//! which is exactly the paper's partial-ranking structure: executions of
//! different stencils or input sizes are never compared.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

/// Identifier of a comparability group (a "query" in ranking terms).
pub type GroupId = u32;

/// A grouped learning-to-rank dataset.
///
/// Rows are stored in two parts. The leading [`shared_columns`] columns are
/// stored once per group, as its *head*, and each row stores the rest, its
/// *tail*, contiguously after the previous row's. A column is shared when,
/// on every row of every group, it holds the bits of the group's first row
/// (compared with `to_bits`, so `+0.0` and `-0.0` differ) and a finite
/// value. The shared width is the longest such prefix, worked out from the
/// rows pushed: a push that shortens it moves the dropped columns from each
/// head into the tails of its group's rows. Under either stencil encoding
/// the instance features lead the row, so the paper's 3840-sample set
/// stores 348 columns per group and 187 per row, 6.3 MB instead of 16.4 MB
/// of dense rows.
///
/// [`shared_columns`]: RankingDataset::shared_columns
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct RankingDataset {
    dim: usize,
    shared: usize,
    heads: BTreeMap<GroupId, Vec<f64>>, // len = shared each
    tails: Vec<f64>,                    // row-major, len = (dim - shared) * n
    targets: Vec<f64>,
    groups: Vec<GroupId>,
}

impl RankingDataset {
    /// Creates an empty dataset for `dim`-dimensional features.
    pub fn new(dim: usize) -> Self {
        RankingDataset { dim, shared: dim, ..RankingDataset::default() }
    }

    /// Feature dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of leading columns stored once per group.
    pub fn shared_columns(&self) -> usize {
        self.shared
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
        let head = self.heads.get(&group).map_or(features, Vec::as_slice);
        let same =
            |&k: &usize| features[k].is_finite() && features[k].to_bits() == head[k].to_bits();
        let keep = (0..self.shared).find(|k| !same(k)).unwrap_or(self.shared);
        self.narrow(keep);
        self.heads.entry(group).or_insert_with(|| features[..keep].to_vec());
        self.tails.extend_from_slice(&features[keep..]);
        self.targets.push(target);
        self.groups.push(group);
    }

    /// Shortens the shared prefix to `keep` columns, moving the dropped
    /// columns of each head into the tails of its group's rows.
    fn narrow(&mut self, keep: usize) {
        if keep == self.shared {
            return;
        }
        let mut tails = Vec::with_capacity((self.dim - keep) * self.len());
        for (i, g) in self.groups.iter().enumerate() {
            tails.extend_from_slice(&self.heads[g][keep..]);
            tails.extend_from_slice(self.tail(i));
        }
        self.tails = tails;
        for head in self.heads.values_mut() {
            head.truncate(keep);
        }
        self.shared = keep;
    }

    /// The `i`-th feature row: its group's head, then its tail.
    pub fn row(&self, i: usize) -> Vec<f64> {
        [&self.heads[&self.groups[i]][..], self.tail(i)].concat()
    }

    /// The columns of row `i` from [`RankingDataset::shared_columns`] on.
    pub(crate) fn tail(&self, i: usize) -> &[f64] {
        let width = self.dim - self.shared;
        &self.tails[i * width..(i + 1) * width]
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
    /// sweeps). Group structure and every bit are preserved; the shared
    /// width is worked out again from the rows kept.
    pub fn truncated(&self, n: usize) -> RankingDataset {
        let mut out = RankingDataset::new(self.dim);
        for i in 0..n.min(self.len()) {
            out.push(&self.row(i), self.targets[i], self.groups[i]);
        }
        out
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

    fn bits(ds: &RankingDataset) -> Vec<Vec<u64>> {
        (0..ds.len()).map(|i| ds.row(i).iter().map(|v| v.to_bits()).collect()).collect()
    }

    /// Interleaved groups 7, 3 and 9 whose leading columns hold signed
    /// zeros, subnormals, NaN and infinities. Columns 0 and 1 stay shared
    /// (bits equal within each group, values finite). Column 4 varies; then
    /// a new group's -inf in column 3 and a NaN in column 2 each drop the
    /// shared width by one.
    fn special() -> (RankingDataset, Vec<Vec<f64>>) {
        let (nan, inf, tiny) = (f64::NAN, f64::INFINITY, f64::from_bits(1));
        let rows = [
            (7, [-0.0, tiny, 1.0, 2.0, 0.1]),
            (3, [0.0, -tiny, 1.0, 2.0, 0.2]),
            (7, [-0.0, tiny, 1.0, 2.0, 0.3]),
            (9, [1.0, f64::MIN_POSITIVE / 4.0, 2.0, -inf, 0.5]),
            (3, [0.0, -tiny, nan, 2.0, 0.4]),
            (7, [-0.0, tiny, inf, -nan, 0.6]),
            (9, [1.0, f64::MIN_POSITIVE / 4.0, 2.0, -inf, 0.7]),
        ];
        let mut ds = RankingDataset::new(5);
        for (i, (g, x)) in rows.iter().enumerate() {
            ds.push(x, i as f64, *g);
        }
        (ds, rows.iter().map(|(_, x)| x.to_vec()).collect())
    }

    #[test]
    fn rows_keep_every_pushed_bit() {
        let (ds, rows) = special();
        assert_eq!(ds.shared_columns(), 2);
        let want: Vec<Vec<u64>> =
            rows.iter().map(|x| x.iter().map(|v| v.to_bits()).collect()).collect();
        assert_eq!(bits(&ds), want);
        for n in 0..=ds.len() {
            assert_eq!(bits(&ds.truncated(n)), want[..n], "first {n}");
        }
    }

    #[test]
    fn narrowing_keeps_stored_bits() {
        // Columns 0 and 1 are constant within each group until a late row
        // of group 2 flips column 1's +0.0 to -0.0, then a late row of
        // group 0 changes column 0.
        let mut ds = RankingDataset::new(4);
        let mut want = Vec::new();
        let mut push = |ds: &mut RankingDataset, x: [f64; 4], g: GroupId| {
            ds.push(&x, want.len() as f64, g);
            want.push(x.map(f64::to_bits).to_vec());
            assert_eq!(bits(ds), want);
        };
        for r in 0..4 {
            for g in 0..3 {
                push(&mut ds, [g as f64, 0.0, r as f64, 0.5 * g as f64], g);
            }
        }
        assert_eq!(ds.shared_columns(), 2);
        push(&mut ds, [2.0, -0.0, 9.0, 9.0], 2);
        assert_eq!(ds.shared_columns(), 1);
        push(&mut ds, [0.5, 0.0, 9.0, 9.0], 0);
        assert_eq!(ds.shared_columns(), 0);
        let json = serde_json::to_string(&ds).unwrap();
        let back: RankingDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(bits(&back), bits(&ds));
    }

    #[test]
    fn serde_keeps_every_bit() {
        // JSON holds no NaN or infinity: the finite rows of `special`.
        let (_, rows) = special();
        let mut ds = RankingDataset::new(5);
        for (i, x) in rows.iter().enumerate().filter(|(_, x)| x.iter().all(|v| v.is_finite())) {
            ds.push(x, i as f64 * 0.5, (i % 2) as GroupId);
        }
        let json = serde_json::to_string(&ds).unwrap();
        let back: RankingDataset = serde_json::from_str(&json).unwrap();
        assert_eq!(bits(&back), bits(&ds));
        assert_eq!(back.shared_columns(), ds.shared_columns());
        assert_eq!(back.targets(), ds.targets());
        assert_eq!((0..ds.len()).map(|i| back.group(i)).collect::<Vec<_>>(), ds.groups);
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
