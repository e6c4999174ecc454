//! Histogram, entropy, and association statistics over encoded columns.
//!
//! These helpers back the information-gain scoring in top-down
//! specialization, the utility metrics of the experiment harness, and many
//! test oracles.

use crate::table::Table;
use crate::value::Value;

/// A frequency histogram over a finite domain of known size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Histogram {
    /// An empty histogram over a domain of `size` values.
    pub fn new(size: u32) -> Self {
        Histogram { counts: vec![0; size as usize], total: 0 }
    }

    /// Builds a histogram from raw codes.
    pub fn from_codes(size: u32, codes: &[u32]) -> Self {
        let mut h = Histogram::new(size);
        for &c in codes {
            h.add(Value(c));
        }
        h
    }

    /// Builds the histogram of one table column.
    pub fn of_column(table: &Table, col: usize) -> Self {
        Self::from_codes(table.schema().attribute(col).domain().size(), table.column(col))
    }

    /// Records one observation.
    #[inline]
    pub fn add(&mut self, v: Value) {
        self.counts[v.index()] += 1;
        self.total += 1;
    }

    /// Records `w` observations of `v`.
    #[inline]
    pub fn add_weighted(&mut self, v: Value, w: u64) {
        self.counts[v.index()] += w;
        self.total += w;
    }

    /// Count of a value.
    #[inline]
    pub fn count(&self, v: Value) -> u64 {
        self.counts[v.index()]
    }

    /// All counts, indexed by code.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Total observations.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Domain size.
    pub fn domain_size(&self) -> u32 {
        self.counts.len() as u32
    }

    /// Empirical probability of a value (0 if the histogram is empty).
    pub fn probability(&self, v: Value) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.count(v) as f64 / self.total as f64
        }
    }

    /// The most frequent value and its count (lowest code wins ties);
    /// `None` when empty.
    pub fn mode(&self) -> Option<(Value, u64)> {
        if self.total == 0 {
            return None;
        }
        let (idx, &cnt) = self
            .counts
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.cmp(b.1).then(b.0.cmp(&a.0)))?;
        Some((Value(idx as u32), cnt))
    }

    /// Number of distinct observed values.
    pub fn distinct(&self) -> u32 {
        self.counts.iter().filter(|&&c| c > 0).count() as u32
    }

    /// Counts sorted descending (the `n_1 >= n_2 >= ...` sequence of the
    /// paper's `(c,l)`-diversity definition), zeros excluded.
    pub fn sorted_counts_desc(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self.counts.iter().copied().filter(|&c| c > 0).collect();
        v.sort_unstable_by(|a, b| b.cmp(a));
        v
    }

    /// Empirical probability vector (sums to 1 unless empty).
    pub fn probabilities(&self) -> Vec<f64> {
        if self.total == 0 {
            return vec![0.0; self.counts.len()];
        }
        let t = self.total as f64;
        self.counts.iter().map(|&c| c as f64 / t).collect()
    }
}

/// Shannon entropy (nats) of a count vector.
pub fn entropy_of_counts(counts: &[u64]) -> f64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0.0;
    }
    let t = total as f64;
    counts
        .iter()
        .filter(|&&c| c > 0)
        .map(|&c| {
            let p = c as f64 / t;
            -p * p.ln()
        })
        .sum()
}

/// A joint frequency table between two finite-domain columns.
#[derive(Debug, Clone)]
pub struct Joint {
    rows: u32,
    cols: u32,
    counts: Vec<u64>,
    total: u64,
}

impl Joint {
    /// An empty joint table of `rows × cols` cells.
    pub fn new(rows: u32, cols: u32) -> Self {
        Joint { rows, cols, counts: vec![0; rows as usize * cols as usize], total: 0 }
    }

    /// Builds the joint distribution of two table columns.
    pub fn of_columns(table: &Table, a: usize, b: usize) -> Self {
        let mut j = Joint::new(
            table.schema().attribute(a).domain().size(),
            table.schema().attribute(b).domain().size(),
        );
        let ca = table.column(a);
        let cb = table.column(b);
        for i in 0..table.len() {
            j.add(Value(ca[i]), Value(cb[i]));
        }
        j
    }

    /// Records one co-observation.
    #[inline]
    pub fn add(&mut self, a: Value, b: Value) {
        self.counts[a.index() * self.cols as usize + b.index()] += 1;
        self.total += 1;
    }

    /// Count of a cell.
    #[inline]
    pub fn count(&self, a: Value, b: Value) -> u64 {
        self.counts[a.index() * self.cols as usize + b.index()]
    }

    /// Total observations.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Marginal histogram of the first coordinate.
    pub fn marginal_a(&self) -> Histogram {
        let mut h = Histogram::new(self.rows);
        for a in 0..self.rows {
            let sum: u64 = (0..self.cols).map(|b| self.count(Value(a), Value(b))).sum();
            h.add_weighted(Value(a), sum);
        }
        h
    }

    /// Marginal histogram of the second coordinate.
    pub fn marginal_b(&self) -> Histogram {
        let mut h = Histogram::new(self.cols);
        for b in 0..self.cols {
            let sum: u64 = (0..self.rows).map(|a| self.count(Value(a), Value(b))).sum();
            h.add_weighted(Value(b), sum);
        }
        h
    }

    /// Mutual information `I(A;B)` in nats.
    pub fn mutual_information(&self) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let t = self.total as f64;
        let ma = self.marginal_a();
        let mb = self.marginal_b();
        let mut mi = 0.0;
        for a in 0..self.rows {
            let pa = ma.count(Value(a)) as f64 / t;
            if pa == 0.0 {
                continue;
            }
            for b in 0..self.cols {
                let c = self.count(Value(a), Value(b));
                if c == 0 {
                    continue;
                }
                let pab = c as f64 / t;
                let pb = mb.count(Value(b)) as f64 / t;
                mi += pab * (pab / (pa * pb)).ln();
            }
        }
        mi.max(0.0)
    }

}

/// Total variation distance between two probability vectors of equal length.
pub fn total_variation(p: &[f64], q: &[f64]) -> f64 {
    assert_eq!(p.len(), q.len(), "distribution length mismatch");
    0.5 * p.iter().zip(q).map(|(a, b)| (a - b).abs()).sum::<f64>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::table::OwnerId;
    use crate::value::Domain;

    #[test]
    fn histogram_basics() {
        let h = Histogram::from_codes(4, &[0, 1, 1, 3, 1]);
        assert_eq!(h.total(), 5);
        assert_eq!(h.count(Value(1)), 3);
        assert_eq!(h.count(Value(2)), 0);
        assert_eq!(h.mode(), Some((Value(1), 3)));
        assert_eq!(h.distinct(), 3);
        assert_eq!(h.sorted_counts_desc(), vec![3, 1, 1]);
        assert!((h.probability(Value(1)) - 0.6).abs() < 1e-12);
        assert!((h.probabilities().iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_histogram() {
        let h = Histogram::new(3);
        assert_eq!(h.mode(), None);
        assert_eq!(h.probability(Value(0)), 0.0);
    }

    #[test]
    fn entropy_matches_closed_forms() {
        // Uniform over 4: ln 4.
        assert!((entropy_of_counts(&[1, 1, 1, 1]) - 4f64.ln()).abs() < 1e-12);
        // Degenerate and empty: 0.
        assert_eq!(entropy_of_counts(&[0, 0, 3, 0]), 0.0);
        assert_eq!(entropy_of_counts(&[0, 0, 0]), 0.0);
    }

    fn tiny_table() -> Table {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(2)),
            Attribute::sensitive("B", Domain::indexed(2)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        // A == B on every row: perfectly dependent.
        for (i, (a, b)) in [(0, 0), (1, 1), (0, 0), (1, 1)].iter().enumerate() {
            t.push_row(OwnerId(i as u32), &[Value(*a), Value(*b)]).unwrap();
        }
        t
    }

    #[test]
    fn mutual_information_of_dependent_columns() {
        let t = tiny_table();
        let j = Joint::of_columns(&t, 0, 1);
        // I(A;B) = H(B) = ln 2 for a deterministic balanced relation.
        assert!((j.mutual_information() - 2f64.ln()).abs() < 1e-12);
        assert_eq!(j.marginal_a().count(Value(0)), 2);
        assert_eq!(j.marginal_b().count(Value(1)), 2);
    }

    #[test]
    fn mutual_information_of_independent_columns() {
        let mut j = Joint::new(2, 2);
        for (a, b) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
            j.add(Value(a), Value(b));
        }
        assert!(j.mutual_information().abs() < 1e-12);
    }

    #[test]
    fn total_variation_basics() {
        assert_eq!(total_variation(&[1.0, 0.0], &[0.0, 1.0]), 1.0);
        assert_eq!(total_variation(&[0.5, 0.5], &[0.5, 0.5]), 0.0);
        assert!((total_variation(&[0.75, 0.25], &[0.25, 0.75]) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn of_column_uses_domain_size() {
        let t = tiny_table();
        let h = Histogram::of_column(&t, 0);
        assert_eq!(h.domain_size(), 2);
        assert_eq!(h.total(), 4);
    }
}
