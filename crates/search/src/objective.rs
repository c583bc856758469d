//! Black-box objectives.

/// A black-box cost function over integer points; smaller is better.
///
/// In the autotuning setting one evaluation means compiling and running a
/// stencil variant — the expensive operation whose count the paper budgets.
pub trait Objective {
    /// Evaluates the cost at `x`.
    fn eval(&mut self, x: &[i64]) -> f64;
}

/// Wraps a closure as an [`Objective`].
pub struct FnObjective<F: FnMut(&[i64]) -> f64>(pub F);

impl<F: FnMut(&[i64]) -> f64> Objective for FnObjective<F> {
    fn eval(&mut self, x: &[i64]) -> f64 {
        (self.0)(x)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fn_objective_delegates() {
        let mut obj = FnObjective(|x: &[i64]| x.iter().map(|&v| v as f64).sum());
        assert_eq!(obj.eval(&[1, 2, 3]), 6.0);
    }
}
