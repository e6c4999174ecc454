//! Confidence intervals for the Monte-Carlo checks.
//!
//! Every stochastic check in the audit compares an empirical frequency
//! against an analytic prediction, and must neither flake (the audit is a
//! CI gate) nor rubber-stamp (a wrong formula must fail). Both needs are
//! met by score intervals at a very small nominal error: with `z = 5`
//! (two-sided tail mass ≈ 6·10⁻⁷) a run of a few hundred interval checks
//! has a negligible false-alarm probability, while a formula that is off
//! by more than a few interval half-widths — at the audit's trial counts,
//! a few percent — fails deterministically under the pinned seed.

/// A two-sided confidence interval `[lo, hi] ⊆ [0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower endpoint.
    pub lo: f64,
    /// Upper endpoint.
    pub hi: f64,
}

impl Interval {
    /// Whether `x` lies inside the interval.
    pub fn contains(&self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Interval half-width.
    pub fn halfwidth(&self) -> f64 {
        0.5 * (self.hi - self.lo)
    }
}

/// The `z`-score used by all audit intervals. See the module docs.
pub const AUDIT_Z: f64 = 5.0;

/// Wilson score interval for a binomial proportion: `successes` out of
/// `trials`, at `z` standard normal deviations.
///
/// Unlike the Wald interval it behaves correctly at proportions near 0
/// and 1 — which the audit hits on purpose (`p = 0`, `λ = 1`, point-mass
/// posteriors) — and it never leaves `[0, 1]`. Returns the vacuous
/// `[0, 1]` when `trials == 0`.
pub fn wilson(successes: u64, trials: u64, z: f64) -> Interval {
    if trials == 0 {
        return Interval { lo: 0.0, hi: 1.0 };
    }
    let n = trials as f64;
    let phat = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (phat + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((phat * (1.0 - phat) + z2 / (4.0 * n)) / n).sqrt();
    Interval { lo: (center - half).max(0.0), hi: (center + half).min(1.0) }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_brackets_the_true_proportion() {
        // 300/1000 at z=5: the interval must contain 0.3 and be tight-ish.
        let iv = wilson(300, 1000, AUDIT_Z);
        assert!(iv.contains(0.3));
        assert!(iv.halfwidth() < 0.08, "halfwidth {}", iv.halfwidth());
        assert!(iv.lo > 0.2 && iv.hi < 0.4);
    }

    #[test]
    fn wilson_is_sane_at_the_edges() {
        let all = wilson(1000, 1000, AUDIT_Z);
        assert!(all.contains(1.0) && all.lo > 0.9);
        let none = wilson(0, 1000, AUDIT_Z);
        assert!(none.contains(0.0) && none.hi < 0.1);
        let empty = wilson(0, 0, AUDIT_Z);
        assert_eq!(empty, Interval { lo: 0.0, hi: 1.0 });
    }

    #[test]
    fn wilson_narrows_with_trials() {
        let small = wilson(30, 100, AUDIT_Z);
        let large = wilson(30_000, 100_000, AUDIT_Z);
        assert!(large.halfwidth() < small.halfwidth() / 5.0);
    }
}
