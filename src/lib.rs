//! # acpp — Anti-Corruption Privacy Preserving Publication
//!
//! A production-quality Rust implementation of *"On Anti-Corruption Privacy
//! Preserving Publication"* (Tao, Xiao, Li, Zhang — ICDE 2008): the
//! **perturbed generalization (PG)** anonymization framework, the
//! corruption-aided adversary model it defends against, and every substrate
//! the paper's evaluation depends on.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`data`] — microdata tables, schemas, taxonomies, the synthetic SAL
//!   census generator;
//! * [`generalize`] — global-recoding generalization algorithms and
//!   anonymity principles (k-anonymity, (c,l)-diversity, …);
//! * [`perturb`] — randomized-response perturbation and distribution
//!   reconstruction;
//! * [`sample`] — stratified and simple random sampling;
//! * [`core`] — the PG pipeline and its privacy-guarantee calculus
//!   (Theorems 1–3 of the paper);
//! * [`obs`] — privacy-safe telemetry: hierarchical spans, a metrics
//!   registry, and trace/metrics/summary exporters whose schema makes
//!   sensitive values unrepresentable;
//! * [`attack`] — the corruption-aided linking attack and posterior
//!   confidence computation (Section V);
//! * [`mining`] — decision-tree mining used to measure utility
//!   (Section VII);
//! * [`republish`] — re-publication of evolving microdata (the paper's
//!   Section IX future work): persistent perturbation, incremental delta
//!   repair, and the composition attack that motivates them.
//!
//! See `examples/` for runnable walkthroughs and `crates/bench` for the
//! binaries that regenerate every table and figure of the paper.

#![warn(missing_docs)]

pub use acpp_attack as attack;
pub use acpp_core as core;
pub use acpp_data as data;
pub use acpp_generalize as generalize;
pub use acpp_mining as mining;
pub use acpp_obs as obs;
pub use acpp_perturb as perturb;
pub use acpp_republish as republish;
pub use acpp_sample as sample;
