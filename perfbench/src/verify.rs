//! Answer verification and the quality oracle, both run after the
//! measured phase so neither is timed.

use std::collections::{BTreeMap, HashSet};

use sorl::experiments::best_in_predefined;
use sorl::tuner::TopK;
use sorl::TuningSession;
use stencil_machine::Machine;
use stencil_model::StencilExecution;

use crate::fleet::K;
use crate::workload::{Plan, Rng};

/// Bit-for-bit equality of two answers (scores compared by their bits).
pub fn same_answer(a: &TopK, b: &TopK) -> bool {
    a.candidates == b.candidates
        && a.entries.len() == b.entries.len()
        && a.entries
            .iter()
            .zip(&b.entries)
            .all(|((ta, sa), (tb, sb))| ta == tb && sa.to_bits() == sb.to_bits())
}

/// How many answers failed: errors plus answers that differ from
/// `TuningSession::top_k_predefined`.
pub struct Verdict {
    pub attempted: usize,
    pub failed: usize,
    /// Distinct instances compared against the reference session.
    pub checked: usize,
}

/// Checks `answers` (instance index, answer) against a reference session.
/// Every instance's answers must agree with each other; a seeded sample of
/// `sample` instances, plus every instance whose answers disagree, is
/// compared with the reference, and each differing answer fails.
pub fn verify(
    reference: &mut TuningSession,
    plan: &Plan,
    answers: &[(u32, &Result<TopK, String>)],
    sample: usize,
    seed: u64,
) -> Verdict {
    let mut by_idx: BTreeMap<u32, Vec<&TopK>> = BTreeMap::new();
    let mut failed = 0;
    for (idx, answer) in answers {
        match answer {
            Ok(top) => by_idx.entry(*idx).or_default().push(top),
            Err(_) => failed += 1,
        }
    }
    let mut keys: Vec<u32> = by_idx.keys().copied().collect();
    let mut rng = Rng::new(seed);
    for i in 0..keys.len() {
        let j = i + rng.below(keys.len() - i);
        keys.swap(i, j);
    }
    let mut check: HashSet<u32> = keys.into_iter().take(sample).collect();
    for (idx, tops) in &by_idx {
        if tops.iter().any(|t| !same_answer(t, tops[0])) {
            check.insert(*idx);
        }
    }
    for idx in &check {
        let want = reference.top_k_predefined(&plan.instances[*idx as usize], K);
        failed += by_idx[idx].iter().filter(|t| !same_answer(t, &want)).count();
    }
    Verdict { attempted: answers.len(), failed, checked: check.len() }
}

/// Mean over `subset` of oracle-best runtime over the runtime of the
/// answered top-1 pick, in percent. Runtimes are noiseless simulated
/// costs over the predefined set, so the value is exact for a seed.
/// `None` when an instance of the subset has no answer.
pub fn quality_pct(plan: &Plan, answers: &BTreeMap<u32, TopK>, subset: &[u32]) -> Option<f64> {
    let machine = Machine::noiseless();
    let mut sum = 0.0;
    for idx in subset {
        let q = &plan.instances[*idx as usize];
        let pick = answers.get(idx)?.best()?;
        let (_, best) = best_in_predefined(&machine, q);
        let exec = StencilExecution::new(q.clone(), pick).ok()?;
        sum += best / machine.cost(&exec).total;
    }
    Some(100.0 * sum / subset.len() as f64)
}
