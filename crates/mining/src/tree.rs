//! Weighted binary decision-tree induction.
//!
//! A SLIQ-flavoured learner: greedy top-down induction with binary
//! threshold splits on feature codes, gini or entropy impurity, and
//! class-weighted counting so one `D*` tuple can stand for its whole
//! QI-group (weight `G`). Generalized interval features participate through
//! their midpoints — nominal attribute codes are assigned in taxonomy
//! order, so threshold splits still correspond to contiguous semantic
//! groups.
//!
//! When the training labels went through a randomized-response channel
//! (the PG regime), [`TreeConfig::reconstruct`] inverts the channel at each
//! leaf (iterative Bayesian estimator), recovering the original class
//! distribution before the leaf commits to a prediction — the mechanism
//! that lets mining on `D*` stay close to the `optimistic` baseline.

use crate::dataset::MiningSet;
use acpp_perturb::{iterative_bayes, Channel};

/// Impurity criterion for split selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SplitCriterion {
    /// Gini impurity `1 − Σ p²` (default).
    #[default]
    Gini,
    /// Shannon entropy `−Σ p ln p`.
    Entropy,
}

impl SplitCriterion {
    fn impurity(self, weights: &[f64], total: f64) -> f64 {
        if total <= 0.0 {
            return 0.0;
        }
        match self {
            SplitCriterion::Gini => {
                1.0 - weights.iter().map(|&w| (w / total) * (w / total)).sum::<f64>()
            }
            SplitCriterion::Entropy => weights
                .iter()
                .filter(|&&w| w > 0.0)
                .map(|&w| {
                    let p = w / total;
                    -p * p.ln()
                })
                .sum(),
        }
    }
}

/// Induction parameters.
#[derive(Debug, Clone)]
pub struct TreeConfig {
    /// Maximum tree depth (root = 0).
    pub max_depth: u32,
    /// Minimum number of rows required to attempt a split.
    pub min_rows: usize,
    /// Minimum number of rows each side of a split must keep. Guards
    /// against carving single-row leaves out of noisy nodes.
    pub min_leaf_rows: usize,
    /// Minimum impurity decrease for a split to be kept.
    pub min_gain: f64,
    /// Impurity criterion.
    pub criterion: SplitCriterion,
    /// When set, leaf class distributions are corrected by inverting this
    /// randomized-response channel (see [`crate::dataset::category_channel`]).
    pub reconstruct: Option<Channel>,
    /// When true (and a channel is set), split selection also corrects the
    /// candidate class counts through the channel's closed-form inverse —
    /// the full node-level reconstruction of the paper's ad-hoc learner
    /// [12], rather than leaf-only correction.
    pub reconstruct_splits: bool,
}

impl Default for TreeConfig {
    fn default() -> Self {
        TreeConfig {
            max_depth: 12,
            min_rows: 8,
            min_leaf_rows: 2,
            min_gain: 1e-7,
            criterion: SplitCriterion::default(),
            reconstruct: None,
            reconstruct_splits: false,
        }
    }
}

impl TreeConfig {
    /// Adds leaf-level label reconstruction through `channel`.
    pub fn with_reconstruction(mut self, channel: Channel) -> Self {
        self.reconstruct = Some(channel);
        self
    }

    /// Additionally corrects class counts during split selection (requires
    /// a reconstruction channel).
    pub fn with_split_reconstruction(mut self, channel: Channel) -> Self {
        self.reconstruct = Some(channel);
        self.reconstruct_splits = true;
        self
    }
}

#[derive(Debug, Clone, PartialEq)]
enum Node {
    Internal { feature: usize, threshold: u32, left: usize, right: usize },
    Leaf { distribution: Vec<f64>, prediction: u32 },
}

/// A trained decision tree.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionTree {
    nodes: Vec<Node>,
    root: usize,
    n_features: usize,
    n_classes: u32,
}

struct Trainer<'a> {
    set: &'a MiningSet,
    config: &'a TreeConfig,
    domains: Vec<u32>,
    nodes: Vec<Node>,
}

impl Trainer<'_> {
    fn leaf(&mut self, rows: &[usize]) -> usize {
        let counts = self.set.class_weights(rows);
        let distribution = match &self.config.reconstruct {
            Some(channel) => iterative_bayes(channel, &counts, 300, 1e-10),
            None => {
                let total: f64 = counts.iter().sum();
                if total > 0.0 {
                    counts.iter().map(|&c| c / total).collect()
                } else {
                    vec![1.0 / counts.len() as f64; counts.len()]
                }
            }
        };
        // Strictly-greater comparison: ties resolve to the lowest class, so
        // an uninformative (uniform) distribution yields a stable default.
        let mut prediction = 0u32;
        for (i, &d) in distribution.iter().enumerate().skip(1) {
            if d > distribution[prediction as usize] {
                prediction = i as u32;
            }
        }
        self.nodes.push(Node::Leaf { distribution, prediction });
        self.nodes.len() - 1
    }

    /// Impurity of a class-weight vector, optionally corrected through the
    /// reconstruction channel (node-level reconstruction). The inversion
    /// preserves the total weight, so branch weighting still uses the raw
    /// totals.
    fn impurity_of(&self, weights: &[f64]) -> f64 {
        match (&self.config.reconstruct, self.config.reconstruct_splits) {
            (Some(channel), true) => {
                let corrected = channel.linear_invert_counts(weights);
                let total: f64 = corrected.iter().sum();
                self.config.criterion.impurity(&corrected, total)
            }
            _ => {
                let total: f64 = weights.iter().sum();
                self.config.criterion.impurity(weights, total)
            }
        }
    }

    /// Finds the best `(feature, threshold, gain)` over the rows, or `None`.
    fn best_split(&self, rows: &[usize]) -> Option<(usize, u32, f64)> {
        let n_classes = self.set.n_classes() as usize;
        let parent = self.set.class_weights(rows);
        let total: f64 = parent.iter().sum();
        let parent_imp = self.impurity_of(&parent);
        if parent_imp <= 0.0 {
            return None;
        }
        let mut best: Option<(usize, u32, f64)> = None;
        for f in 0..self.set.features().len() {
            let domain = self.domains[f] as usize;
            // Weighted class counts per midpoint code.
            let mut per_code = vec![0.0f64; domain * n_classes];
            let mut code_weight = vec![0.0f64; domain];
            let mut code_rows = vec![0usize; domain];
            for &r in rows {
                let code = self.set.midpoint(r, f) as usize;
                per_code[code * n_classes + self.set.label(r) as usize] += self.set.weight(r);
                code_weight[code] += self.set.weight(r);
                code_rows[code] += 1;
            }
            let mut left = vec![0.0f64; n_classes];
            let mut left_total = 0.0;
            let mut left_rows = 0usize;
            for c in 0..domain - 1 {
                if code_weight[c] > 0.0 {
                    for cls in 0..n_classes {
                        left[cls] += per_code[c * n_classes + cls];
                    }
                    left_total += code_weight[c];
                    left_rows += code_rows[c];
                }
                if left_total <= 0.0 || left_total >= total {
                    continue;
                }
                if left_rows < self.config.min_leaf_rows
                    || rows.len() - left_rows < self.config.min_leaf_rows
                {
                    continue;
                }
                let right: Vec<f64> =
                    parent.iter().zip(&left).map(|(&p, &l)| p - l).collect();
                let right_total = total - left_total;
                let left_imp = self.impurity_of(&left);
                let right_imp = self.impurity_of(&right);
                let weighted = (left_total / total) * left_imp
                    + (right_total / total) * right_imp;
                let gain = parent_imp - weighted;
                if gain > self.config.min_gain
                    && best.is_none_or(|(_, _, g)| gain > g)
                {
                    best = Some((f, c as u32, gain));
                }
            }
        }
        best
    }

    fn build(&mut self, rows: Vec<usize>, depth: u32) -> usize {
        if depth >= self.config.max_depth || rows.len() < self.config.min_rows {
            return self.leaf(&rows);
        }
        let Some((feature, threshold, _)) = self.best_split(&rows) else {
            return self.leaf(&rows);
        };
        let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
            .iter()
            .partition(|&&r| self.set.midpoint(r, feature) <= threshold);
        debug_assert!(!left_rows.is_empty() && !right_rows.is_empty());
        let idx = self.nodes.len();
        self.nodes.push(Node::Leaf { distribution: Vec::new(), prediction: 0 }); // placeholder
        let left = self.build(left_rows, depth + 1);
        let right = self.build(right_rows, depth + 1);
        self.nodes[idx] = Node::Internal { feature, threshold, left, right };
        idx
    }
}

impl DecisionTree {
    /// Trains a tree on the whole mining set.
    ///
    /// ```
    /// use acpp_mining::{DecisionTree, FeatureSpec, MiningSet, TreeConfig};
    ///
    /// let mut set = MiningSet::new(
    ///     vec![FeatureSpec { name: "age".into(), domain: 10 }],
    ///     2,
    /// );
    /// for a in 0..10u32 {
    ///     set.push(&[(a, a)], u32::from(a >= 5), 1.0);
    /// }
    /// let config = TreeConfig { min_rows: 2, min_leaf_rows: 1, ..TreeConfig::default() };
    /// let tree = DecisionTree::train(&set, &config);
    /// assert_eq!(tree.predict(&[2]), 0);
    /// assert_eq!(tree.predict(&[8]), 1);
    /// ```
    ///
    /// # Panics
    /// Panics on an empty set or when a reconstruction channel's domain
    /// does not match the class count.
    pub fn train(set: &MiningSet, config: &TreeConfig) -> Self {
        assert!(!set.is_empty(), "cannot train on an empty set");
        if let Some(ch) = &config.reconstruct {
            assert_eq!(
                ch.domain_size(),
                set.n_classes(),
                "reconstruction channel domain must equal the class count"
            );
        }
        Self::train_on_rows(set, config, (0..set.len()).collect())
    }

    /// Trains on an explicit subset of rows (used by bagging).
    pub fn train_on_rows(set: &MiningSet, config: &TreeConfig, rows: Vec<usize>) -> Self {
        assert!(!rows.is_empty(), "cannot train on an empty row set");
        let domains = set.features().iter().map(|f| f.domain).collect();
        let mut trainer = Trainer { set, config, domains, nodes: Vec::new() };
        let root = trainer.build(rows, 0);
        DecisionTree {
            nodes: trainer.nodes,
            root,
            n_features: set.features().len(),
            n_classes: set.n_classes(),
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Maximum depth of the trained tree.
    pub fn depth(&self) -> u32 {
        fn depth_of(nodes: &[Node], idx: usize) -> u32 {
            match &nodes[idx] {
                Node::Leaf { .. } => 0,
                Node::Internal { left, right, .. } => {
                    1 + depth_of(nodes, *left).max(depth_of(nodes, *right))
                }
            }
        }
        depth_of(&self.nodes, self.root)
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Predicts the class of an exact feature-code point.
    pub fn predict(&self, point: &[u32]) -> u32 {
        assert_eq!(point.len(), self.n_features, "feature arity mismatch");
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { prediction, .. } => return *prediction,
                Node::Internal { feature, threshold, left, right } => {
                    cur = if point[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// The class distribution at the leaf a point falls into.
    pub fn predict_proba(&self, point: &[u32]) -> &[f64] {
        assert_eq!(point.len(), self.n_features, "feature arity mismatch");
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                Node::Leaf { distribution, .. } => return distribution,
                Node::Internal { feature, threshold, left, right } => {
                    cur = if point[*feature] <= *threshold { *left } else { *right };
                }
            }
        }
    }

    /// Reduced-error pruning: routes `validation` through the tree and
    /// collapses, bottom-up, every subtree whose validation error is no
    /// better than predicting its own validation majority. Returns the
    /// pruned tree (the original is untouched).
    ///
    /// Nodes that receive no validation rows are left as trained.
    pub fn prune_reduced_error(&self, validation: &MiningSet) -> DecisionTree {
        assert_eq!(validation.n_classes(), self.n_classes, "class count mismatch");
        let n_classes = self.n_classes as usize;
        // Per node: weighted validation class counts.
        let mut counts = vec![vec![0.0f64; n_classes]; self.nodes.len()];
        let mut point = vec![0u32; self.n_features];
        for row in 0..validation.len() {
            for (f, p) in point.iter_mut().enumerate() {
                *p = validation.midpoint(row, f);
            }
            let w = validation.weight(row);
            let label = validation.label(row) as usize;
            let mut cur = self.root;
            loop {
                counts[cur][label] += w;
                match &self.nodes[cur] {
                    Node::Leaf { .. } => break,
                    Node::Internal { feature, threshold, left, right } => {
                        cur = if point[*feature] <= *threshold { *left } else { *right };
                    }
                }
            }
        }
        // Bottom-up decision: subtree validation error vs collapsed error.
        // Returns (new node index in `out`, validation error of the kept
        // subtree).
        fn rebuild(
            tree: &DecisionTree,
            counts: &[Vec<f64>],
            cur: usize,
            out: &mut Vec<Node>,
        ) -> (usize, f64) {
            let total: f64 = counts[cur].iter().sum();
            let majority_w = counts[cur].iter().copied().fold(0.0, f64::max);
            let leaf_error = total - majority_w;
            match &tree.nodes[cur] {
                Node::Leaf { distribution, prediction } => {
                    let err = total - counts[cur].get(*prediction as usize).copied().unwrap_or(0.0);
                    out.push(Node::Leaf {
                        distribution: distribution.clone(),
                        prediction: *prediction,
                    });
                    (out.len() - 1, err)
                }
                Node::Internal { feature, threshold, left, right } => {
                    let placeholder = out.len();
                    out.push(Node::Leaf { distribution: Vec::new(), prediction: 0 });
                    let (l, le) = rebuild(tree, counts, *left, out);
                    let (r, re) = rebuild(tree, counts, *right, out);
                    let subtree_error = le + re;
                    if total > 0.0 && leaf_error <= subtree_error {
                        // Collapse: drop the children we just built.
                        out.truncate(placeholder + 1);
                        let mut prediction = 0u32;
                        for (i, &c) in counts[cur].iter().enumerate().skip(1) {
                            if c > counts[cur][prediction as usize] {
                                prediction = i as u32;
                            }
                        }
                        let distribution: Vec<f64> =
                            counts[cur].iter().map(|&c| c / total).collect();
                        out[placeholder] = Node::Leaf { distribution, prediction };
                        (placeholder, leaf_error)
                    } else {
                        out[placeholder] = Node::Internal {
                            feature: *feature,
                            threshold: *threshold,
                            left: l,
                            right: r,
                        };
                        (placeholder, subtree_error)
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(self.nodes.len());
        let (root, _) = rebuild(self, &counts, self.root, &mut out);
        DecisionTree { nodes: out, root, n_features: self.n_features, n_classes: self.n_classes }
    }

    /// Per-feature importance: the total weighted impurity decrease
    /// contributed by each feature's splits, measured by re-routing `set`
    /// through the tree; normalized to sum to 1 (all zeros for a stump).
    pub fn feature_importance(&self, set: &MiningSet, criterion: SplitCriterion) -> Vec<f64> {
        assert_eq!(set.n_classes(), self.n_classes, "class count mismatch");
        assert_eq!(set.features().len(), self.n_features, "feature arity mismatch");
        let n_classes = self.n_classes as usize;
        let mut counts = vec![vec![0.0f64; n_classes]; self.nodes.len()];
        let mut point = vec![0u32; self.n_features];
        for row in 0..set.len() {
            for (f, p) in point.iter_mut().enumerate() {
                *p = set.midpoint(row, f);
            }
            let w = set.weight(row);
            let label = set.label(row) as usize;
            let mut cur = self.root;
            loop {
                counts[cur][label] += w;
                match &self.nodes[cur] {
                    Node::Leaf { .. } => break,
                    Node::Internal { feature, threshold, left, right } => {
                        cur = if point[*feature] <= *threshold { *left } else { *right };
                    }
                }
            }
        }
        let mut importance = vec![0.0; self.n_features];
        for (i, node) in self.nodes.iter().enumerate() {
            if let Node::Internal { feature, left, right, .. } = node {
                let total: f64 = counts[i].iter().sum();
                if total <= 0.0 {
                    continue;
                }
                let lt: f64 = counts[*left].iter().sum();
                let rt: f64 = counts[*right].iter().sum();
                let parent = criterion.impurity(&counts[i], total);
                let weighted = if lt + rt > 0.0 {
                    (lt / total) * criterion.impurity(&counts[*left], lt)
                        + (rt / total) * criterion.impurity(&counts[*right], rt)
                } else {
                    parent
                };
                importance[*feature] += total * (parent - weighted).max(0.0);
            }
        }
        let z: f64 = importance.iter().sum();
        if z > 0.0 {
            for x in &mut importance {
                *x /= z;
            }
        }
        importance
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{category_channel, FeatureSpec};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn conjunction_set() -> MiningSet {
        // Class = (A >= 2) AND (B >= 2) on a 4x4 grid — needs depth 2, and
        // (unlike XOR) has marginal gain so greedy induction can find it.
        let mut set = MiningSet::new(
            vec![
                FeatureSpec { name: "A".into(), domain: 4 },
                FeatureSpec { name: "B".into(), domain: 4 },
            ],
            2,
        );
        for a in 0..4u32 {
            for b in 0..4u32 {
                let label = u32::from(a >= 2 && b >= 2);
                for _ in 0..4 {
                    set.push(&[(a, a), (b, b)], label, 1.0);
                }
            }
        }
        set
    }

    #[test]
    fn learns_conjunction_exactly() {
        let set = conjunction_set();
        let config = TreeConfig { min_rows: 2, ..TreeConfig::default() };
        let tree = DecisionTree::train(&set, &config);
        for a in 0..4u32 {
            for b in 0..4u32 {
                let expect = u32::from(a >= 2 && b >= 2);
                assert_eq!(tree.predict(&[a, b]), expect, "({a},{b})");
            }
        }
        assert!(tree.depth() >= 2);
    }

    #[test]
    fn entropy_criterion_also_learns() {
        let set = conjunction_set();
        let config = TreeConfig {
            min_rows: 2,
            criterion: SplitCriterion::Entropy,
            ..TreeConfig::default()
        };
        let tree = DecisionTree::train(&set, &config);
        assert_eq!(tree.predict(&[0, 0]), 0);
        assert_eq!(tree.predict(&[3, 3]), 1);
    }

    #[test]
    fn depth_zero_returns_majority() {
        let set = conjunction_set();
        let config = TreeConfig { max_depth: 0, ..TreeConfig::default() };
        let tree = DecisionTree::train(&set, &config);
        assert_eq!(tree.node_count(), 1);
        assert_eq!(tree.depth(), 0);
        // Balanced XOR: either class is acceptable, proba sums to 1.
        let p = tree.predict_proba(&[0, 0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn weights_shift_the_majority() {
        let mut set = MiningSet::new(
            vec![FeatureSpec { name: "A".into(), domain: 2 }],
            2,
        );
        // 3 light rows of class 0, 1 heavy row of class 1.
        for _ in 0..3 {
            set.push(&[(0, 0)], 0, 1.0);
        }
        set.push(&[(0, 0)], 1, 10.0);
        let tree = DecisionTree::train(&set, &TreeConfig::default());
        assert_eq!(tree.predict(&[0]), 1, "weighted majority wins");
    }

    #[test]
    fn pure_nodes_stop_early() {
        let mut set = MiningSet::new(
            vec![FeatureSpec { name: "A".into(), domain: 8 }],
            2,
        );
        for a in 0..8u32 {
            set.push(&[(a, a)], 0, 1.0);
        }
        let tree = DecisionTree::train(&set, &TreeConfig { min_rows: 1, ..Default::default() });
        assert_eq!(tree.node_count(), 1, "pure root needs no split");
    }

    #[test]
    fn reconstruction_recovers_noisy_majority() {
        // True class at every point: 1 with prob derived from feature.
        // Labels pass through an asymmetric category channel that floods
        // class 0 (target 0.8/0.2); without reconstruction, argmax flips.
        let channel = category_channel(0.25, &[40, 10]);
        let mut rng = StdRng::seed_from_u64(42);
        let mut noisy = MiningSet::new(
            vec![FeatureSpec { name: "A".into(), domain: 2 }],
            2,
        );
        // True distribution at A=0: 65% class 1.
        let n = 20_000;
        let mut flooded_zero = 0.0;
        for _ in 0..n {
            let truth = u32::from(rng.gen::<f64>() < 0.65);
            let observed = channel.apply(&mut rng, acpp_data::Value(truth)).code();
            if observed == 0 {
                flooded_zero += 1.0;
            }
            noisy.push(&[(0, 0)], observed, 1.0);
        }
        // Sanity: the observed majority really is class 0.
        assert!(flooded_zero / n as f64 > 0.5, "channel floods class 0");
        let naive = DecisionTree::train(&noisy, &TreeConfig::default());
        assert_eq!(naive.predict(&[0]), 0, "naive tree is fooled");
        let corrected = DecisionTree::train(
            &noisy,
            &TreeConfig::default().with_reconstruction(channel),
        );
        assert_eq!(corrected.predict(&[0]), 1, "reconstruction recovers the truth");
    }

    #[test]
    fn pruning_removes_noise_splits() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        // Train on noisy labels with permissive limits: the tree overfits.
        // A clean validation set prunes the noise back out.
        let mut rng = StdRng::seed_from_u64(9);
        let mut train = MiningSet::new(
            vec![FeatureSpec { name: "A".into(), domain: 16 }],
            2,
        );
        let mut validation = MiningSet::new(
            vec![FeatureSpec { name: "A".into(), domain: 16 }],
            2,
        );
        for i in 0..800 {
            let a = (i % 16) as u32;
            let truth = u32::from(a >= 8);
            let noisy = if rng.gen::<f64>() < 0.7 { truth } else { 1 - truth };
            train.push(&[(a, a)], noisy, 1.0);
            validation.push(&[(a, a)], truth, 1.0);
        }
        let cfg = TreeConfig { min_rows: 2, min_leaf_rows: 1, ..TreeConfig::default() };
        let overfit = DecisionTree::train(&train, &cfg);
        let pruned = overfit.prune_reduced_error(&validation);
        assert!(pruned.node_count() < overfit.node_count(), "pruning shrinks the tree");
        // The pruned tree matches the clean concept better.
        let eval_err = |t: &DecisionTree| {
            (0..16u32).filter(|&a| t.predict(&[a]) != u32::from(a >= 8)).count()
        };
        assert!(eval_err(&pruned) <= eval_err(&overfit));
        assert_eq!(eval_err(&pruned), 0, "pruned tree recovers the threshold");
    }

    #[test]
    fn pruning_keeps_good_splits() {
        let set = conjunction_set();
        let cfg = TreeConfig { min_rows: 2, ..TreeConfig::default() };
        let tree = DecisionTree::train(&set, &cfg);
        // Validating on the (clean) training data must not prune anything
        // useful: predictions are unchanged.
        let pruned = tree.prune_reduced_error(&set);
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(pruned.predict(&[a, b]), tree.predict(&[a, b]));
            }
        }
    }

    #[test]
    fn feature_importance_identifies_the_signal() {
        // Class depends only on feature 0; feature 1 is noise.
        let mut set = MiningSet::new(
            vec![
                FeatureSpec { name: "signal".into(), domain: 8 },
                FeatureSpec { name: "noise".into(), domain: 8 },
            ],
            2,
        );
        for a in 0..8u32 {
            for b in 0..8u32 {
                set.push(&[(a, a), (b, b)], u32::from(a >= 4), 1.0);
            }
        }
        let cfg = TreeConfig { min_rows: 2, ..TreeConfig::default() };
        let tree = DecisionTree::train(&set, &cfg);
        let imp = tree.feature_importance(&set, SplitCriterion::Gini);
        assert!((imp.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        assert!(imp[0] > 0.95, "signal feature dominates: {imp:?}");
        // A stump has no splits: all-zero importance.
        let stump = DecisionTree::train(&set, &TreeConfig { max_depth: 0, ..cfg });
        assert_eq!(stump.feature_importance(&set, SplitCriterion::Gini), vec![0.0, 0.0]);
    }

    #[test]
    fn split_reconstruction_matches_naive_on_clean_data() {
        // With p = 1 the channel is the identity: node-level reconstruction
        // must not change any decision.
        let set = conjunction_set();
        let base = TreeConfig { min_rows: 2, ..TreeConfig::default() };
        let naive = DecisionTree::train(&set, &base);
        let corrected = DecisionTree::train(
            &set,
            &base.clone().with_split_reconstruction(Channel::uniform(1.0, 2)),
        );
        for a in 0..4u32 {
            for b in 0..4u32 {
                assert_eq!(naive.predict(&[a, b]), corrected.predict(&[a, b]));
            }
        }
    }

    #[test]
    fn split_reconstruction_improves_noisy_induction() {
        use crate::dataset::category_channel;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        // Asymmetric channel (category sizes 40/10) over a threshold
        // concept; compare leaf-only vs node-level reconstruction across
        // seeds. Node-level correction should never be (meaningfully) worse
        // and typically recovers the boundary more reliably.
        let channel = category_channel(0.3, &[40, 10]);
        let mut leaf_only_err = 0usize;
        let mut full_err = 0usize;
        for seed in 0..6u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut set = MiningSet::new(
                vec![FeatureSpec { name: "A".into(), domain: 16 }],
                2,
            );
            for i in 0..4_000 {
                let a = (i % 16) as u32;
                let truth = u32::from(a >= 11); // minority class ~ 30%
                let observed = channel.apply(&mut rng, acpp_data::Value(truth)).code();
                set.push(&[(a, a)], observed, 1.0);
            }
            let base = TreeConfig { min_rows: 64, min_leaf_rows: 32, ..TreeConfig::default() };
            let leaf_only =
                DecisionTree::train(&set, &base.clone().with_reconstruction(channel.clone()));
            let full = DecisionTree::train(
                &set,
                &base.clone().with_split_reconstruction(channel.clone()),
            );
            for a in 0..16u32 {
                let truth = u32::from(a >= 11);
                leaf_only_err += usize::from(leaf_only.predict(&[a]) != truth);
                full_err += usize::from(full.predict(&[a]) != truth);
            }
        }
        assert!(
            full_err <= leaf_only_err,
            "node-level reconstruction regressed: {full_err} vs {leaf_only_err}"
        );
    }

    #[test]
    #[should_panic(expected = "empty set")]
    fn empty_set_rejected() {
        let set = MiningSet::new(vec![FeatureSpec { name: "A".into(), domain: 2 }], 2);
        let _ = DecisionTree::train(&set, &TreeConfig::default());
    }

    #[test]
    #[should_panic(expected = "channel domain")]
    fn mismatched_channel_rejected() {
        let set = conjunction_set();
        let config = TreeConfig::default().with_reconstruction(Channel::uniform(0.3, 5));
        let _ = DecisionTree::train(&set, &config);
    }
}
