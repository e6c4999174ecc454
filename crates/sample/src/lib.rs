//! # acpp-sample — sampling substrate
//!
//! Phase 3 of perturbed generalization publishes a *stratified sample* of
//! the generalized table: one tuple drawn uniformly from each QI-group
//! (stratum), annotated with the stratum size. This crate provides the
//! index-level sampling primitives:
//!
//! * [`keyed`] — counter-based keyed draws whose results are independent of
//!   traversal order, the primitive behind deterministic parallel Phase 3;
//! * [`srs`] — simple random sampling without replacement (used by the
//!   `optimistic`/`pessimistic` baselines of the paper's evaluation and by
//!   the "trivial solution" the paper rejects in Section III-B).
//!
//! Both are deterministic under a fixed seed.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod error;
pub mod keyed;
pub mod srs;

pub use error::SampleError;
pub use keyed::{keyed_pick, SAMPLE_DOMAIN};
pub use srs::sample_without_replacement;
