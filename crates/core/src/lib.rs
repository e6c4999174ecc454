//! # acpp-core — perturbed generalization (PG)
//!
//! The primary contribution of *Tao, Xiao, Li, Zhang: "On Anti-Corruption
//! Privacy Preserving Publication"* (ICDE 2008): an anonymized-publication
//! framework that withstands adversaries who have **corrupted** arbitrarily
//! many individuals (learned their exact sensitive values out of band).
//!
//! The framework runs in three phases (Section IV of the paper):
//!
//! 1. **Perturbation** — each tuple's sensitive value is retained with
//!    probability `p` and otherwise redrawn uniformly from `U^s`
//!    ([`acpp_perturb`]);
//! 2. **Generalization** — the QI attributes are globally recoded so every
//!    tuple shares its generalized QI-vector with ≥ `k − 1` others
//!    ([`acpp_generalize`]);
//! 3. **Stratified sampling** — exactly one tuple is published per QI-group,
//!    annotated with the group size `G` ([`acpp_sample`]), so that
//!    `|D*| ≤ |D| · s` with `k = ⌈1/s⌉`.
//!
//! Module map:
//!
//! * [`pipeline`] — the three-phase publication algorithm: the one body
//!   that sequences Phases 1–3 behind the fault defenses, and the entry
//!   points [`publish`], [`publish_robust_observed`] and (with the `trace`
//!   feature) `publish_with_trace`;
//! * [`published`] — the released table `D*` and crucial-tuple lookup;
//! * [`guarantees`] — the privacy calculus of Theorems 1–3 (`h⊤`, `F(w)`,
//!   `w_m`, minimal certifiable `ρ2` and `Δ`, retention-probability
//!   solvers); reproduces the paper's Table III exactly;
//! * [`params`] — the `Cardinality` constraint (`k = ⌈1/s⌉`);
//! * [`fault`] — fault plans, degradation policies, the per-phase report,
//!   and the injection helpers the pipeline body calls;
//! * [`journal`] — write-ahead journaling, atomic release commit, and
//!   byte-identical crash resume: [`publish_journaled`], [`resume`], and
//!   the unjournaled [`publish_deterministic`] on the same RNG contract;
//! * [`cancel`] — cooperative cancellation (deadlines, service drain)
//!   polled at the journal's checkpoint boundaries;
//! * [`observe`] — privacy-safe telemetry instrumentation: the
//!   guarantee-surface gauges computed from the published table only;
//! * [`config`] / [`error`] — configuration and error types.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod cancel;
pub mod config;
pub mod error;
pub mod fault;
pub mod guarantees;
pub mod journal;
pub mod observe;
pub mod par;
pub mod params;
pub mod pipeline;
pub mod published;
pub mod validate;

pub use cancel::{CancelReason, CancelToken};
pub use config::{Phase2Algorithm, PgConfig};
pub use error::{AcppError, CoreError};
pub use fault::{DegradationPolicy, FaultKind, FaultPlan, Phase, PhaseReport, PipelineReport};
pub use guarantees::GuaranteeParams;
pub use journal::{
    publish_deterministic, publish_journaled, resume, CrashPoint, JournalStatus, JournaledRun,
    RunFingerprint, RunOptions,
};
pub use observe::record_guarantee_surface;
pub use par::{Threads, CHUNK_ROWS};
pub use pipeline::{publish, publish_robust_observed};
#[cfg(any(test, feature = "trace"))]
pub use pipeline::{publish_with_trace, PgTrace};
pub use published::{PublishedTable, PublishedTuple};
pub use validate::{validate_guarantee_request, validate_inputs};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CoreError>;
