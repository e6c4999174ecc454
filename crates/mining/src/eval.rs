//! Classification evaluation.
//!
//! The paper measures utility as *classification accuracy over the
//! microdata*: the trained tree classifies every original tuple, and the
//! error is the (weighted) fraction classified incorrectly.

use crate::dataset::MiningSet;
use crate::tree::DecisionTree;

/// Weighted classification error of a tree on an evaluation set (features
/// are read through interval midpoints; exact sets are their own points).
pub fn classification_error(tree: &DecisionTree, eval: &MiningSet) -> f64 {
    assert_eq!(
        tree.n_classes(),
        eval.n_classes(),
        "class count mismatch between tree and evaluation set"
    );
    if eval.is_empty() {
        return 0.0;
    }
    let n_features = eval.features().len();
    let mut wrong = 0.0;
    let mut total = 0.0;
    let mut point = vec![0u32; n_features];
    for row in 0..eval.len() {
        for (f, p) in point.iter_mut().enumerate() {
            *p = eval.midpoint(row, f);
        }
        let w = eval.weight(row);
        total += w;
        if tree.predict(&point) != eval.label(row) {
            wrong += w;
        }
    }
    wrong / total
}

/// The error of always predicting the majority class of `eval` — the floor
/// any learner must beat to be useful.
pub fn majority_error(eval: &MiningSet) -> f64 {
    if eval.is_empty() {
        return 0.0;
    }
    let counts = eval.class_weights(&(0..eval.len()).collect::<Vec<_>>());
    let total: f64 = counts.iter().sum();
    let max = counts.iter().copied().fold(0.0, f64::max);
    1.0 - max / total
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::FeatureSpec;
    use crate::tree::TreeConfig;

    fn linearly_separable() -> MiningSet {
        let mut set =
            MiningSet::new(vec![FeatureSpec { name: "A".into(), domain: 10 }], 2);
        for a in 0..10u32 {
            set.push(&[(a, a)], u32::from(a >= 5), 1.0);
        }
        set
    }

    #[test]
    fn perfect_tree_has_zero_error() {
        let set = linearly_separable();
        let tree = DecisionTree::train(&set, &TreeConfig { min_rows: 1, ..Default::default() });
        assert_eq!(classification_error(&tree, &set), 0.0);
    }

    #[test]
    fn stump_on_separable_data() {
        let set = linearly_separable();
        let tree = DecisionTree::train(&set, &TreeConfig { max_depth: 0, ..Default::default() });
        // Majority stump errs on exactly one class: error = 0.5 here.
        let err = classification_error(&tree, &set);
        assert!((err - 0.5).abs() < 1e-12);
        assert!((majority_error(&set) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn weighted_error_respects_weights() {
        let mut eval =
            MiningSet::new(vec![FeatureSpec { name: "A".into(), domain: 10 }], 2);
        eval.push(&[(0, 0)], 1, 9.0); // will be misclassified as 0
        eval.push(&[(9, 9)], 1, 1.0); // correct
        let train = linearly_separable();
        let tree =
            DecisionTree::train(&train, &TreeConfig { min_rows: 1, ..Default::default() });
        let err = classification_error(&tree, &eval);
        assert!((err - 0.9).abs() < 1e-12, "weighted error {err}");
    }

    #[test]
    fn empty_eval_is_zero_error() {
        let train = linearly_separable();
        let tree = DecisionTree::train(&train, &TreeConfig::default());
        let eval = MiningSet::new(vec![FeatureSpec { name: "A".into(), domain: 10 }], 2);
        assert_eq!(classification_error(&tree, &eval), 0.0);
        assert_eq!(majority_error(&eval), 0.0);
    }
}
