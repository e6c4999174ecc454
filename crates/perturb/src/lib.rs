//! # acpp-perturb — randomized-response perturbation substrate
//!
//! Phase 1 of the paper's *perturbed generalization* framework retains each
//! tuple's sensitive value with probability `p` and otherwise redraws it
//! uniformly from the sensitive domain `U^s` — the classical *randomized
//! response* mechanism (Warner 1965) as renovated for privacy-preserving
//! data mining by Agrawal–Srikant–Thomas and Evfimievski–Gehrke–Srikant.
//!
//! * [`channel`] — the perturbation channel `P[a → b]` (Equation 11 of the
//!   paper), Bayesian posterior updates given an observed output
//!   (Equation 12), and general non-uniform target distributions for the
//!   ablation study;
//! * [`retention`] — applying a channel to sensitive columns and whole
//!   tables;
//! * [`reconstruct`] — estimating the original sensitive-value distribution
//!   from perturbed observations (closed-form inversion for the uniform
//!   channel; iterative Bayesian / EM reconstruction for general channels),
//!   the mechanism decision-tree mining uses to stay accurate on perturbed
//!   labels;
//! * [`amplification`] — γ-amplification bounds (Evfimievski et al.),
//!   the engine behind the paper's Theorem 2.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod amplification;
pub mod channel;
pub mod error;
pub mod reconstruct;
pub mod retention;

pub use amplification::{gamma, max_safe_rho2};
pub use channel::Channel;
pub use error::PerturbError;
pub use reconstruct::{invert_uniform, iterative_bayes};
pub use retention::{perturb_codes, perturb_codes_into, perturb_table};
