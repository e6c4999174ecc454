//! `acpp_conformance` — the statistical conformance audit.
//!
//! The workspace implements the anti-corruption publication calculus of
//! Tao et al. (ICDE 2008); this crate *audits* that implementation against
//! the paper, treating the code under test as a black box and re-deriving
//! every claim independently:
//!
//! * **Golden fixtures** ([`fixtures`]) — Table III of the paper, digit
//!   for digit.
//! * **Analytic sweep** ([`guarantees_audit`]) — a parameter grid over
//!   `(p, k, λ, |U^s|)` including every boundary the calculus
//!   special-cases, with *witness constructions* proving each bound tight
//!   (`h⊤`, Theorem 2's ρ-growth, Theorem 3's Δ) and adversarial
//!   configurations probing soundness, plus monotonicity and
//!   retention-inversion checks.
//! * **Monte-Carlo attack simulation** ([`simulator`]) — the full
//!   corruption-aided linking attack replayed against the real three-phase
//!   pipeline; empirical posteriors are compared with Equations 8–20
//!   within Wilson intervals at `z =` [`ci::AUDIT_Z`].
//! * **Estimator audit** ([`reconstruct_audit`]) — exact inversion,
//!   asymptotic unbiasedness, and small-sample clipping bias of the
//!   Section-6 distribution estimators.
//! * **Lemma audit** ([`lemmas_audit`]) — the paper's negative results
//!   about conventional generalization, executed over randomized worlds.
//! * **Delta audit** ([`delta_audit`]) — incremental republication:
//!   every delta release is k-anonymous and covers its table, unchanged
//!   regions republish byte-identically, and a diffing adversary's
//!   posterior over the release pair never beats the single-release
//!   bound (with the fresh-noise counterfactual recorded as a note).
//!
//! The outcome is a [`ConformanceReport`] rendered to
//! `results/CONFORMANCE.json` by the `acpp audit` subcommand; any
//! violation makes the CLI exit with the conformance code so CI fails.
//!
//! Everything is deterministic: trial `t` of scenario `s` draws from RNG
//! substream `substream_seed(master, "conformance/s", t)`, so reports are
//! byte-identical across runs and thread counts.

#![forbid(unsafe_code)]

pub mod ci;
pub mod delta_audit;
pub mod fixtures;
pub mod grid;
pub mod guarantees_audit;
pub mod lemmas_audit;
pub mod reconstruct_audit;
pub mod report;
pub mod simulator;
pub mod synth;

pub use ci::{wilson, Interval, AUDIT_Z};
pub use report::{Check, ConformanceReport, Status};
pub use simulator::{scenarios, Scenario, Tally};

use acpp_core::AcppError;
use acpp_obs::Telemetry;

/// Configuration of one audit run.
#[derive(Debug, Clone, Copy)]
pub struct AuditConfig {
    /// Master seed; every substream derives from it.
    pub seed: u64,
    /// Fast tier: reduced grid and trial counts, for CI gating.
    pub quick: bool,
    /// Worker threads for the sharded Monte-Carlo simulator.
    pub threads: usize,
}

impl Default for AuditConfig {
    fn default() -> Self {
        AuditConfig { seed: 0xAC99, quick: false, threads: 1 }
    }
}

/// Runs the complete audit and returns the report.
///
/// # Errors
/// Returns [`AcppError::Conformance`] only for *harness* failures — the
/// audit itself being unable to build a world or run the pipeline.
/// Disagreements between the implementation and the paper are not errors;
/// they are recorded as violations in the report.
pub fn run_audit(cfg: &AuditConfig, telemetry: &Telemetry) -> Result<ConformanceReport, AcppError> {
    let mut report = ConformanceReport {
        seed: cfg.seed,
        quick: cfg.quick,
        trials_per_scenario: simulator::trials(cfg.quick),
        threads: cfg.threads,
        ..Default::default()
    };

    {
        let span = telemetry.span("conformance_golden");
        fixtures::run(&mut report)?;
        span.field("checks", report.checks.len());
    }
    {
        let span = telemetry.span("conformance_analytic");
        let before = report.checks.len();
        guarantees_audit::run(&mut report, cfg.quick)?;
        span.field("checks", report.checks.len() - before);
    }
    {
        let span = telemetry.span("conformance_estimators");
        let before = report.checks.len();
        reconstruct_audit::run(&mut report, cfg.seed, cfg.quick)?;
        span.field("checks", report.checks.len() - before);
    }
    {
        let span = telemetry.span("conformance_monte_carlo");
        let before = report.checks.len();
        simulator::run(&mut report, cfg.seed, cfg.quick, cfg.threads, telemetry)?;
        span.field("checks", report.checks.len() - before);
    }
    {
        let span = telemetry.span("conformance_lemmas");
        let before = report.checks.len();
        lemmas_audit::run(&mut report, cfg.seed, cfg.quick)?;
        span.field("checks", report.checks.len() - before);
    }
    {
        let span = telemetry.span("conformance_delta");
        let before = report.checks.len();
        delta_audit::run(&mut report, cfg.seed, cfg.quick)?;
        span.field("checks", report.checks.len() - before);
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_audit_is_clean_and_deterministic() {
        let cfg = AuditConfig { seed: 7, quick: true, threads: 2 };
        let telemetry = Telemetry::disabled();
        let a = run_audit(&cfg, &telemetry).expect("harness");
        assert_eq!(a.violations(), 0, "{:#?}", a.violated().collect::<Vec<_>>());
        assert!(a.checks.len() > 100, "quick tier still runs a real battery");
        let b = run_audit(&cfg, &telemetry).expect("harness");
        assert_eq!(a.render_json(), b.render_json(), "audit must be reproducible");
    }

    #[test]
    fn report_header_reflects_the_config() {
        let cfg = AuditConfig { seed: 42, quick: true, threads: 3 };
        let telemetry = Telemetry::disabled();
        let r = run_audit(&cfg, &telemetry).expect("harness");
        assert_eq!(r.seed, 42);
        assert!(r.quick);
        assert_eq!(r.threads, 3);
        assert_eq!(r.trials_per_scenario, simulator::trials(true));
    }
}
