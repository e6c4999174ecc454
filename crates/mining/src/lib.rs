//! # acpp-mining — decision-tree mining over exact and anonymized data
//!
//! Section VII of the paper measures the *utility* of a release by the
//! classification accuracy of a decision tree built from it: the tree is
//! trained on the released data and then classifies every microdata tuple.
//! Three training regimes appear in the evaluation:
//!
//! * **optimistic** — a simple random subset of the raw microdata (no
//!   perturbation), trained with a SLIQ-style learner (reference [17]);
//! * **pessimistic** — the same subset with fully randomized sensitive
//!   values (retention 0);
//! * **PG** — the released `D*`: generalized QI intervals, group-size
//!   weights `G`, and perturbed class labels, trained with the ad-hoc
//!   algorithm of the paper's extended version (reference [12]), which this
//!   crate realizes as weighted induction plus randomized-response label
//!   reconstruction at the leaves.
//!
//! Modules:
//!
//! * [`dataset`] — the training-set abstraction: interval features, class
//!   labels, row weights; builders from raw tables and from
//!   [`acpp_core::PublishedTable`];
//! * [`tree`] — weighted binary decision-tree induction (gini or entropy)
//!   with optional channel-corrected leaf distributions;
//! * [`eval`] — classification error and the majority-class floor;
//! * [`forest`] — a small bagged ensemble (extension);
//! * [`cv`] — k-fold cross-validation (extension);
//! * [`queries`] — aggregate COUNT-query estimation over `D*` with channel
//!   deconvolution (extension). The tree itself also supports reduced-error
//!   pruning and feature-importance queries.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cv;
pub mod dataset;
pub mod error;
pub mod eval;
pub mod forest;
pub mod queries;
pub mod tree;

pub use dataset::{category_channel, FeatureSpec, MiningSet};
pub use error::MiningError;
pub use eval::classification_error;
pub use tree::{DecisionTree, SplitCriterion, TreeConfig};
