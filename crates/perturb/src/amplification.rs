//! γ-amplification analysis (Evfimievski, Gehrke, Srikant — PODS 2003).
//!
//! A channel is *γ-amplifying* if for every output `y` and inputs `a, a'`:
//! `P[a → y] / P[a' → y] ≤ γ`. For the paper's uniform retention channel the
//! worst ratio is attained at `a = y`, `a' ≠ y`:
//!
//! ```text
//! γ = (p + (1−p)/n) / ((1−p)/n) = 1 + p·n/(1−p)
//! ```
//!
//! γ-amplification yields `ρ1-to-ρ2` guarantees: no upward breach occurs
//! whenever `ρ2(1−ρ1) / (ρ1(1−ρ2)) ≥ γ` — this is exactly Inequality 23 of
//! the paper (with `ρ2'` in place of `ρ2`, to account for the stratified
//! sampling factor `h⊤`).

use crate::channel::Channel;

/// The amplification factor of the uniform retention channel with retention
/// `p` over a domain of size `n`. Returns `f64::INFINITY` for `p = 1`
/// (publishing exact values amplifies unboundedly).
///
/// # Panics
/// Panics if `p ∉ [0, 1]` or `n == 0`.
pub fn gamma(p: f64, n: u32) -> f64 {
    assert!((0.0..=1.0).contains(&p), "retention probability must be in [0,1], got {p}");
    assert!(n > 0, "empty domain");
    if p >= 1.0 {
        f64::INFINITY
    } else {
        1.0 + p * n as f64 / (1.0 - p)
    }
}

/// The exact amplification factor of an arbitrary channel:
/// `max_{y, a, a'} P[a→y]/P[a'→y]`. Infinite if some output is reachable
/// from one input but impossible from another.
pub fn gamma_of_channel(channel: &Channel) -> f64 {
    let n = channel.domain_size();
    let mut worst: f64 = 1.0;
    for y in 0..n {
        let mut lo = f64::INFINITY;
        let mut hi = 0.0f64;
        for a in 0..n {
            let pr = channel.prob(acpp_data::Value(a), acpp_data::Value(y));
            lo = lo.min(pr);
            hi = hi.max(pr);
        }
        let ratio = if lo == 0.0 {
            if hi == 0.0 {
                1.0
            } else {
                f64::INFINITY
            }
        } else {
            hi / lo
        };
        worst = worst.max(ratio);
    }
    worst
}

/// The smallest `ρ2` that the amplification condition can certify for a
/// given `ρ1` and `γ`: the solution of `ρ2(1−ρ1)/(ρ1(1−ρ2)) = γ`, i.e.
/// `ρ2 = γ·ρ1 / (1 − ρ1 + γ·ρ1)`. Returns 1.0 when `γ` is infinite is not
/// possible — infinite γ yields exactly 1.0 in the limit, which this
/// function returns.
pub fn max_safe_rho2(rho1: f64, gamma: f64) -> f64 {
    assert!((0.0..1.0).contains(&rho1), "require 0 <= rho1 < 1, got {rho1}");
    if rho1 == 0.0 {
        return 0.0;
    }
    if gamma.is_infinite() {
        return 1.0;
    }
    let g = gamma * rho1;
    g / (1.0 - rho1 + g)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gamma_closed_form() {
        // p=0: no information leak, γ=1.
        assert_eq!(gamma(0.0, 50), 1.0);
        // p=0.3, n=50: 1 + 15/0.7 ≈ 22.4286 (used in the paper's Table III).
        assert!((gamma(0.3, 50) - 22.428_571_428_571_43).abs() < 1e-9);
        assert!(gamma(1.0, 50).is_infinite());
    }

    #[test]
    fn gamma_of_channel_matches_closed_form_for_uniform() {
        for &p in &[0.0, 0.15, 0.3, 0.45, 0.9] {
            let ch = Channel::uniform(p, 50);
            assert!((gamma_of_channel(&ch) - gamma(p, 50)).abs() < 1e-9, "p={p}");
        }
    }

    #[test]
    fn gamma_of_nonuniform_channel_exceeds_uniform() {
        // Skewed target: rare outputs amplify more.
        let skew = Channel::with_target(0.3, vec![0.98, 0.01, 0.01]);
        let unif = Channel::uniform(0.3, 3);
        assert!(gamma_of_channel(&skew) > gamma_of_channel(&unif));
    }

    #[test]
    fn max_safe_rho2_reference_value() {
        // p=0.3, n=50, ρ1=0.2: ρ2' = 22.4286·0.2/(0.8+22.4286·0.2) ≈ 0.8487
        // (this is the ρ2' inside the paper's Theorem 2 for Table IIIa).
        let g = gamma(0.3, 50);
        let r2 = max_safe_rho2(0.2, g);
        assert!((r2 - 0.848_648).abs() < 1e-4, "got {r2}");
        // It solves the amplification condition with equality.
        assert!((r2 * 0.8 / (0.2 * (1.0 - r2)) - g).abs() < 1e-9);
    }

    #[test]
    fn boundary_conventions() {
        let g = gamma(0.3, 50);
        assert_eq!(max_safe_rho2(0.0, g), 0.0);
        assert_eq!(max_safe_rho2(0.2, f64::INFINITY), 1.0);
    }
}
