//! Training-set abstraction for tree induction.
//!
//! A [`MiningSet`] holds, column-major, one *interval* per (row, feature) —
//! exact values are degenerate intervals `lo == hi`, generalized values are
//! the code ranges of the published region — plus a class label and a row
//! weight (the `G` attribute of `D*`, so one published tuple stands for its
//! whole QI-group, as the paper's Step S3 intends).

use acpp_core::PublishedTable;
use acpp_data::{Table, Taxonomy, Value};
use acpp_perturb::Channel;

/// Description of one feature column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FeatureSpec {
    /// Feature name (the QI attribute name).
    pub name: String,
    /// Domain size of the underlying attribute.
    pub domain: u32,
}

/// A weighted, interval-featured classification dataset.
#[derive(Debug, Clone, PartialEq)]
pub struct MiningSet {
    features: Vec<FeatureSpec>,
    /// `lo[f][row]`, `hi[f][row]`: inclusive code interval.
    lo: Vec<Vec<u32>>,
    hi: Vec<Vec<u32>>,
    labels: Vec<u32>,
    weights: Vec<f64>,
    n_classes: u32,
}

impl MiningSet {
    /// An empty set with the given features and class count.
    pub fn new(features: Vec<FeatureSpec>, n_classes: u32) -> Self {
        assert!(n_classes >= 2, "need at least two classes");
        let f = features.len();
        MiningSet {
            features,
            lo: vec![Vec::new(); f],
            hi: vec![Vec::new(); f],
            labels: Vec::new(),
            weights: Vec::new(),
            n_classes,
        }
    }

    /// Builds an exact-valued set from a table's QI columns, labelling each
    /// row by `labeler` applied to its sensitive value. All weights are 1.
    pub fn from_table<F>(table: &Table, n_classes: u32, labeler: F) -> Self
    where
        F: Fn(Value) -> u32,
    {
        let schema = table.schema();
        let features = schema
            .qi_indices()
            .iter()
            .map(|&c| FeatureSpec {
                name: schema.attribute(c).name().to_string(),
                domain: schema.attribute(c).domain().size(),
            })
            .collect();
        let mut set = MiningSet::new(features, n_classes);
        for row in table.rows() {
            let qi = table.qi_vector(row);
            let codes: Vec<(u32, u32)> = qi.iter().map(|v| (v.code(), v.code())).collect();
            set.push(&codes, labeler(table.sensitive_value(row)), 1.0);
        }
        set
    }

    /// Builds the training set of the paper's PG regime from `D*`: interval
    /// features from the recoding, labels from the observed (perturbed)
    /// sensitive values, weights from the group sizes `G`.
    pub fn from_published<F>(
        published: &PublishedTable,
        taxonomies: &[Taxonomy],
        n_classes: u32,
        labeler: F,
    ) -> Self
    where
        F: Fn(Value) -> u32,
    {
        let schema = published.schema();
        let features = schema
            .qi_indices()
            .iter()
            .map(|&c| FeatureSpec {
                name: schema.attribute(c).name().to_string(),
                domain: schema.attribute(c).domain().size(),
            })
            .collect();
        let mut set = MiningSet::new(features, n_classes);
        for (i, tuple) in published.tuples().iter().enumerate() {
            let codes: Vec<(u32, u32)> = (0..schema.qi_arity())
                .map(|pos| published.interval(taxonomies, i, pos))
                .collect();
            set.push(&codes, labeler(tuple.sensitive), tuple.group_size as f64);
        }
        set
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics on arity mismatch, inverted intervals, out-of-domain codes,
    /// out-of-range labels, or non-positive weights.
    pub fn push(&mut self, intervals: &[(u32, u32)], label: u32, weight: f64) {
        assert_eq!(intervals.len(), self.features.len(), "feature arity mismatch");
        assert!(label < self.n_classes, "label {label} out of range");
        assert!(weight > 0.0, "weights must be positive");
        for (f, &(lo, hi)) in intervals.iter().enumerate() {
            assert!(lo <= hi, "inverted interval on feature {f}");
            assert!(hi < self.features[f].domain, "interval exceeds domain on feature {f}");
            self.lo[f].push(lo);
            self.hi[f].push(hi);
        }
        self.labels.push(label);
        self.weights.push(weight);
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True if there are no rows.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// The feature specs.
    pub fn features(&self) -> &[FeatureSpec] {
        &self.features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// The label of a row.
    #[inline]
    pub fn label(&self, row: usize) -> u32 {
        self.labels[row]
    }

    /// The weight of a row.
    #[inline]
    pub fn weight(&self, row: usize) -> f64 {
        self.weights[row]
    }

    /// The interval of (row, feature).
    #[inline]
    pub fn interval(&self, row: usize, feature: usize) -> (u32, u32) {
        (self.lo[feature][row], self.hi[feature][row])
    }

    /// The interval midpoint used as the row's representative coordinate on
    /// a feature (exact values are their own midpoint).
    #[inline]
    pub fn midpoint(&self, row: usize, feature: usize) -> u32 {
        let (lo, hi) = self.interval(row, feature);
        lo + (hi - lo) / 2
    }

    /// Weighted class counts over a subset of rows.
    pub fn class_weights(&self, rows: &[usize]) -> Vec<f64> {
        let mut counts = vec![0.0; self.n_classes as usize];
        for &r in rows {
            counts[self.labels[r] as usize] += self.weights[r];
        }
        counts
    }
}

/// The perturbation channel *induced on class categories* by the paper's
/// uniform channel on `U^s`: when sensitive values are bucketed into
/// categories of sizes `sizes` (summing to `|U^s|`), a category label is
/// retained with probability `p` and otherwise redrawn with probability
/// proportional to the category size:
///
/// ```text
/// P[a → b] = p·[a = b] + (1 − p) · |cat_b| / |U^s|
/// ```
///
/// This is the channel to invert when reconstructing class distributions
/// from `D*` labels.
pub fn category_channel(p: f64, sizes: &[u32]) -> Channel {
    let total: u32 = sizes.iter().sum();
    assert!(total > 0, "empty category partition");
    let target: Vec<f64> = sizes.iter().map(|&s| s as f64 / total as f64).collect();
    Channel::with_target(p, target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_core::{publish, PgConfig};
    use acpp_data::{Attribute, Domain, OwnerId, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::quasi("B", Domain::indexed(4)),
            Attribute::sensitive("S", Domain::indexed(6)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..32u32 {
            t.push_row(OwnerId(i), &[Value(i % 8), Value((i / 8) % 4), Value(i % 6)]).unwrap();
        }
        t
    }

    #[test]
    fn from_table_builds_exact_features() {
        let t = table();
        let set = MiningSet::from_table(&t, 2, |v| u32::from(v.code() >= 3));
        assert_eq!(set.len(), 32);
        assert_eq!(set.features().len(), 2);
        assert_eq!(set.interval(5, 0), (5, 5));
        assert_eq!(set.midpoint(5, 0), 5);
        assert_eq!(set.label(5), 1); // S = 5 >= 3
        assert_eq!(set.weight(5), 1.0);
        let cw = set.class_weights(&(0..32).collect::<Vec<_>>());
        // S cycles 0..6 over 32 rows: classes {0,1,2} vs {3,4,5}.
        assert_eq!(cw[0] + cw[1], 32.0);
        assert!(cw[0] > 0.0 && cw[1] > 0.0);
    }

    #[test]
    fn from_published_uses_intervals_and_weights() {
        let t = table();
        let taxes = vec![
            acpp_data::Taxonomy::intervals(8, 2),
            acpp_data::Taxonomy::intervals(4, 2),
        ];
        let mut rng = StdRng::seed_from_u64(3);
        let dstar = publish(&t, &taxes, PgConfig::new(0.5, 4).unwrap(), &mut rng).unwrap();
        let set = MiningSet::from_published(&dstar, &taxes, 2, |v| u32::from(v.code() >= 3));
        assert_eq!(set.len(), dstar.len());
        // Weights equal the group sizes; their sum is the microdata size.
        assert_eq!((0..set.len()).map(|i| set.weight(i)).sum::<f64>(), 32.0);
        for (i, tuple) in dstar.tuples().iter().enumerate() {
            assert_eq!(set.weight(i), tuple.group_size as f64);
            let (lo, hi) = set.interval(i, 0);
            assert!(lo <= hi && hi < 8);
        }
    }

    #[test]
    fn push_validation() {
        let mut set = MiningSet::new(
            vec![FeatureSpec { name: "A".into(), domain: 4 }],
            2,
        );
        set.push(&[(1, 2)], 0, 2.0);
        assert_eq!(set.len(), 1);
        assert_eq!(set.midpoint(0, 0), 1);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.push(&[(2, 1)], 0, 1.0)
        }));
        assert!(res.is_err(), "inverted interval");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.push(&[(0, 4)], 0, 1.0)
        }));
        assert!(res.is_err(), "out of domain");
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            set.push(&[(0, 1)], 5, 1.0)
        }));
        assert!(res.is_err(), "label out of range");
    }

    #[test]
    fn category_channel_matches_induced_probabilities() {
        // |U^s| = 50, m = 3 categories of sizes 25, 12, 13.
        let ch = category_channel(0.3, &[25, 12, 13]);
        assert!((ch.prob(Value(0), Value(0)) - (0.3 + 0.7 * 0.5)).abs() < 1e-12);
        assert!((ch.prob(Value(0), Value(1)) - 0.7 * 0.24).abs() < 1e-12);
        assert!((ch.prob(Value(2), Value(2)) - (0.3 + 0.7 * 0.26)).abs() < 1e-12);
        assert!(!ch.is_uniform());
    }
}
