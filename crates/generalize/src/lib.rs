//! # acpp-generalize — global-recoding generalization substrate
//!
//! Phase 2 of the paper's *perturbed generalization* framework generalizes
//! the QI attributes so that every tuple shares its generalized QI-vector
//! with at least `k − 1` others (property G2) under a *global recoding*
//! (property G3: generalized regions are disjoint). This crate provides:
//!
//! * [`scheme`] — the [`Recoding`] abstraction: per-attribute taxonomy cuts
//!   or Mondrian box partitions, both total functions on the QI space;
//! * [`qigroup`] — QI-groups ([`Grouping`]) and per-group sensitive
//!   statistics;
//! * [`mondrian`] — strict multidimensional partitioning (reference [16] of
//!   the paper), the default Phase-2 algorithm;
//! * [`tds`] — top-down specialization (reference [11], the algorithm the
//!   paper adapts);
//! * [`incognito`] — full-domain lattice search (in the spirit of
//!   reference [13]);
//! * [`principles`] — `k`-anonymity, the `l`-diversity family, and
//!   t-closeness, used by the negative results of Section III;
//! * [`anatomy`] — the Anatomy bucketization method (reference [31]), a
//!   non-generalization comparator that corruption also defeats;
//! * [`loss`] — information-loss metrics (discernibility, NCP).

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod anatomy;
pub mod error;
pub mod incognito;
pub mod loss;
pub mod mondrian;
mod par;
pub mod principles;
pub mod qigroup;
pub mod scheme;
pub mod tds;

pub use error::GeneralizeError;
pub use mondrian::{partition_retained, RepairStats, RetainedTree};
pub use qigroup::{GroupId, Grouping};
pub use scheme::{BoxPartition, QiBox, Recoding, Signature};
