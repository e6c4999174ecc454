//! Anonymity principles evaluated over QI-groupings.
//!
//! Section III of the paper analyzes generalization principles —
//! `k`-anonymity (Samarati/Sweeney) and the `l`-diversity family
//! (Machanavajjhala et al.) — and proves they cannot withstand corruption.
//! This module implements the principles so the negative results (Lemmas 1
//! and 2) can be demonstrated and so Phase 2 of PG can enforce property G2
//! (`k`-anonymity of `D^g`).

use crate::qigroup::Grouping;
use acpp_data::Table;

/// True if every non-empty QI-group has at least `k` members
/// (`k`-anonymity; property G2 of the paper's Phase 2).
///
/// An empty grouping (no rows) is vacuously `k`-anonymous.
pub fn is_k_anonymous(grouping: &Grouping, k: usize) -> bool {
    grouping.min_size().is_none_or(|m| m >= k)
}

/// True if every non-empty QI-group satisfies recursive `(c, l)`-diversity
/// (Inequality 1 of the paper): with per-group sensitive counts
/// `n_1 ≥ n_2 ≥ … ≥ n_{l'}`,
///
/// ```text
/// n_1 ≤ c · (n_l + n_{l+1} + … + n_{l'})
/// ```
///
/// A group with fewer than `l` distinct sensitive values fails the
/// principle outright.
pub fn is_cl_diverse(table: &Table, grouping: &Grouping, c: f64, l: usize) -> bool {
    assert!(c > 0.0, "(c,l)-diversity requires c > 0");
    assert!(l >= 2, "(c,l)-diversity requires l >= 2");
    grouping.iter_nonempty().all(|(g, _)| {
        let counts = grouping.sensitive_histogram(table, g).sorted_counts_desc();
        if counts.len() < l {
            return false;
        }
        let tail: u64 = counts[l - 1..].iter().sum();
        counts[0] as f64 <= c * tail as f64
    })
}

/// Earth-mover's distance between two pdfs over an *ordered* domain with
/// unit ground distance normalized by `n − 1` (the t-closeness paper's
/// "ordered distance": `EMD = Σ_i |Σ_{j<=i} (p_j − q_j)| / (n − 1)`).
pub fn emd_ordered(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    if p.len() <= 1 {
        return 0.0;
    }
    let mut acc = 0.0;
    let mut total = 0.0;
    for (a, b) in p.iter().zip(q) {
        acc += a - b;
        total += acc.abs();
    }
    total / (p.len() - 1) as f64
}

/// Earth-mover's distance between two pdfs over a *nominal* domain with
/// uniform ground distance 1 (equals total variation distance).
pub fn emd_nominal(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::qigroup::GroupId;
    use acpp_data::{Attribute, Domain, OwnerId, Schema, Value};

    /// Builds a table with one QI column (unused) and a sensitive column,
    /// plus a grouping given as explicit membership lists of sensitive
    /// values per group.
    fn build(groups: &[&[u32]], domain: u32) -> (Table, Grouping) {
        let schema = Schema::new(vec![
            Attribute::quasi("Q", Domain::indexed(1)),
            Attribute::sensitive("S", Domain::indexed(domain)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let mut assignment = Vec::new();
        let mut owner = 0u32;
        for (gi, members) in groups.iter().enumerate() {
            for &s in *members {
                t.push_row(OwnerId(owner), &[Value(0), Value(s)]).unwrap();
                assignment.push(GroupId(gi as u32));
                owner += 1;
            }
        }
        (t, Grouping::from_assignment(assignment, groups.len()))
    }

    #[test]
    fn k_anonymity_threshold() {
        let (_, g) = build(&[&[0, 1], &[2, 3, 4]], 5);
        assert!(is_k_anonymous(&g, 1));
        assert!(is_k_anonymous(&g, 2));
        assert!(!is_k_anonymous(&g, 3));
        let empty = Grouping::from_assignment(vec![], 0);
        assert!(is_k_anonymous(&empty, 100));
    }

    #[test]
    fn cl_diversity_matches_papers_figure_1() {
        // The paper's Figure 1 group: counts 3,2,2,2,1,1 over 6 diseases.
        // (1/2, 3)-diversity holds: 3 <= 0.5 * (2+2+1+1) = 3.
        let members: Vec<u32> = vec![0, 0, 0, 1, 1, 2, 2, 3, 3, 4, 5];
        let (t, g) = build(&[&members], 6);
        assert!(is_cl_diverse(&t, &g, 0.5, 3));
        // Tightening c breaks it.
        assert!(!is_cl_diverse(&t, &g, 0.49, 3));
        // Larger l: (1/2, 4): 3 <= 0.5*(2+1+1) = 2 — fails.
        assert!(!is_cl_diverse(&t, &g, 0.5, 4));
        // But (1, 4): 3 <= 1*(2+1+1) = 4 — holds.
        assert!(is_cl_diverse(&t, &g, 1.0, 4));
    }

    #[test]
    fn cl_diversity_requires_l_distinct() {
        let (t, g) = build(&[&[0, 0, 1, 1]], 4);
        assert!(!is_cl_diverse(&t, &g, 10.0, 3), "only 2 distinct values");
    }

    #[test]
    fn emd_ordered_closed_forms() {
        // Moving all mass one step in a 2-value domain costs 1.
        assert!((emd_ordered(&[1.0, 0.0], &[0.0, 1.0]) - 1.0).abs() < 1e-12);
        // Identical distributions cost 0.
        assert_eq!(emd_ordered(&[0.3, 0.7], &[0.3, 0.7]), 0.0);
        // Moving mass across the whole of a 3-value domain: distance still
        // normalized to 1.
        assert!((emd_ordered(&[1.0, 0.0, 0.0], &[0.0, 0.0, 1.0]) - 1.0).abs() < 1e-12);
        // Half the mass moving one of two steps: 0.25.
        assert!((emd_ordered(&[0.5, 0.5, 0.0], &[0.5, 0.0, 0.5]) - 0.25).abs() < 1e-12);
        // Degenerate domain.
        assert_eq!(emd_ordered(&[1.0], &[1.0]), 0.0);
    }

    #[test]
    fn emd_nominal_is_total_variation() {
        assert_eq!(emd_nominal(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert!((emd_nominal(&[0.5, 0.25, 0.25], &[0.25, 0.5, 0.25]) - 0.25).abs() < 1e-12);
    }
}
