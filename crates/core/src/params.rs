//! The `Cardinality` constraint (Section II-A of the paper).
//!
//! The publisher promises `|D*| ≤ |D| · s` for a sampling parameter
//! `s ∈ (0, 1]`. Because Phase 3 publishes exactly one tuple per QI-group
//! and every QI-group has at least `k` members, setting `k = ⌈1/s⌉` bounds
//! the number of published tuples by `|D| / k ≤ |D| · s`.

use crate::error::CoreError;

/// Computes `k = ⌈1/s⌉` from the sampling parameter `s ∈ (0, 1]`.
pub fn k_from_sampling_rate(s: f64) -> Result<usize, CoreError> {
    if !(s > 0.0 && s <= 1.0) {
        return Err(CoreError::InvalidParameter(format!(
            "sampling rate s must lie in (0, 1], got {s}"
        )));
    }
    Ok((1.0 / s).ceil() as usize)
}

/// Checks the published cardinality against the constraint
/// `|D*| ≤ |D| · s`.
pub fn cardinality_satisfied(microdata_rows: usize, published_rows: usize, s: f64) -> bool {
    (published_rows as f64) <= (microdata_rows as f64) * s + 1e-9
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_from_rate_matches_paper() {
        // Paper's running example: s = 0.5 ⇒ k = 2.
        assert_eq!(k_from_sampling_rate(0.5).unwrap(), 2);
        assert_eq!(k_from_sampling_rate(1.0).unwrap(), 1);
        assert_eq!(k_from_sampling_rate(0.3).unwrap(), 4);
        assert_eq!(k_from_sampling_rate(0.1).unwrap(), 10);
        // ceil: 1/0.15 = 6.67 ⇒ 7
        assert_eq!(k_from_sampling_rate(0.15).unwrap(), 7);
    }

    #[test]
    fn invalid_rates_rejected() {
        assert!(k_from_sampling_rate(0.0).is_err());
        assert!(k_from_sampling_rate(-0.5).is_err());
        assert!(k_from_sampling_rate(1.5).is_err());
    }

    #[test]
    fn k_and_rate_are_inverse_on_integers() {
        for k in 1..=20usize {
            let s = 1.0 / k as f64;
            assert_eq!(k_from_sampling_rate(s).unwrap(), k);
        }
    }

    #[test]
    fn cardinality_check() {
        assert!(cardinality_satisfied(100, 50, 0.5));
        assert!(cardinality_satisfied(100, 49, 0.5));
        assert!(!cardinality_satisfied(100, 51, 0.5));
        assert!(cardinality_satisfied(0, 0, 0.5));
    }

    #[test]
    fn k_from_rate_guarantees_cardinality() {
        // One tuple per group of >= k members publishes at most n/k <= n*s.
        for &s in &[0.09, 0.15, 0.33, 0.5, 0.75, 1.0] {
            let k = k_from_sampling_rate(s).unwrap();
            let n = 1000usize;
            let max_published = n / k;
            assert!(
                cardinality_satisfied(n, max_published, s),
                "s={s}, k={k}, published={max_published}"
            );
        }
    }
}
