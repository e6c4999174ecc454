//! Pre-flight validation of pipeline inputs.
//!
//! The pipeline body ([`crate::pipeline`]) runs this gate at its ingest
//! boundary, so every entry point rejects bad inputs with
//! [`AcppError::Validation`] (exit code 2) before any phase runs, rather
//! than surfacing mid-pipeline as a deeper error.
//!
//! Checks:
//!
//! * schema/taxonomy coverage — one taxonomy per QI attribute, each covering
//!   exactly its attribute's domain, each structurally consistent;
//! * parameter ranges — `0 < p ≤ 1`, `k ≥ 1`, and for guarantee requests
//!   `λ ∈ [1/|U^s|, 1]` and `|U^s| ≥ 2`;
//! * numeric hygiene — every floating-point parameter must be finite (NaN
//!   propagates silently through the guarantee calculus otherwise), and the
//!   derived quantities `h⊤`, `F(w_m)`, `w_m` are checked finite as a
//!   defence against division-by-zero regressions in the calculus.

use crate::config::PgConfig;
use crate::error::AcppError;
use crate::guarantees::GuaranteeParams;
use acpp_data::{Table, Taxonomy};
use acpp_generalize::scheme::check_taxonomies;

/// Validates a publication request end to end: parameter ranges, schema /
/// taxonomy coverage, and feasibility of `k` against the table size.
///
/// # Errors
/// Returns [`AcppError::Validation`] describing the *first* failed check.
pub fn validate_inputs(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: &PgConfig,
) -> Result<(), AcppError> {
    validate_run(table, taxonomies, config, false)
}

/// The gate the pipeline body runs. `traced` admits `p = 0`: a traced run
/// (`publish_with_trace`, test and `trace` builds only) never ships a
/// release, and the conformance audit sweeps the degenerate channel on
/// purpose.
pub(crate) fn validate_run(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: &PgConfig,
    traced: bool,
) -> Result<(), AcppError> {
    validate_parameters(config, table.schema().sensitive_domain_size(), traced)
        .map_err(AcppError::Validation)?;

    // --- Schema / taxonomy coverage.
    check_taxonomies(table.schema(), taxonomies)
        .map_err(|e| AcppError::Validation(format!("taxonomy coverage: {e}")))?;
    for (pos, tax) in taxonomies.iter().enumerate() {
        tax.check().map_err(|e| {
            AcppError::Validation(format!("taxonomy at QI position {pos} is inconsistent: {e}"))
        })?;
    }

    // --- Feasibility: a non-empty table must admit at least one group of
    // size k. (Empty tables publish an empty release, which is fine.)
    if !table.is_empty() && table.len() < config.k {
        return Err(AcppError::Validation(format!(
            "table has {} rows but k = {} requires at least k rows",
            table.len(),
            config.k
        )));
    }
    Ok(())
}

/// The parameter gate of every publication, one-shot or series:
/// `0 < p ≤ 1`, `k ≥ 1` and a sensitive domain of `us ≥ 2` values.
/// `traced` admits `p = 0`, for a traced run that never ships a release.
///
/// # Errors
/// The message of the first failed check; the pipeline reports it as
/// [`AcppError::Validation`].
pub fn validate_parameters(config: &PgConfig, us: u32, traced: bool) -> Result<(), String> {
    // The pipeline itself accepts p = 0 (a channel that always redraws),
    // but no anti-corruption guarantee is certifiable there, so the gate
    // rejects it.
    let p_ok = config.p > 0.0 || (traced && config.p == 0.0);
    if !(config.p.is_finite() && p_ok && config.p <= 1.0) {
        return Err(format!("retention probability p must lie in (0, 1], got {}", config.p));
    }
    if config.k == 0 {
        return Err("group size k must be at least 1".into());
    }
    if us < 2 {
        return Err(format!(
            "sensitive domain must carry at least 2 values for perturbation to hide anything, got {us}"
        ));
    }
    Ok(())
}

/// Validates a guarantee request `(p, k, λ, |U^s|)` and the numeric health
/// of the calculus derived from it.
///
/// This is stricter than [`GuaranteeParams::new`]: after the range checks it
/// also evaluates `h⊤`, `w_m`, and `F(w_m)` and rejects the request if any
/// is non-finite — a guard against division-by-zero or overflow regressions
/// in the guarantee calculus.
///
/// # Errors
/// Returns [`AcppError::Validation`] describing the first failed check.
pub fn validate_guarantee_request(
    p: f64,
    k: usize,
    lambda: f64,
    us: u32,
) -> Result<GuaranteeParams, AcppError> {
    if !p.is_finite() || !lambda.is_finite() {
        return Err(AcppError::Validation(format!(
            "guarantee parameters must be finite, got p = {p}, lambda = {lambda}"
        )));
    }
    // `GuaranteeParams` itself tolerates p = 0 (no retention) and |U^s| = 1
    // (nothing to hide) because the formulas remain well defined there, but
    // neither can certify a non-trivial guarantee — the entry gate rejects
    // both.
    if p <= 0.0 {
        return Err(AcppError::Validation(format!(
            "retention probability p must lie in (0, 1], got {p}"
        )));
    }
    if us < 2 {
        return Err(AcppError::Validation(format!(
            "sensitive domain must carry at least 2 values, got {us}"
        )));
    }
    let gp = GuaranteeParams::new(p, k, lambda, us)
        .map_err(|e| AcppError::Validation(e.to_string()))?;
    let (h_top, w_m) = (gp.h_top(), gp.w_m());
    let f_wm = gp.f_growth(w_m);
    if !(h_top.is_finite() && 0.0 < h_top && h_top <= 1.0) {
        return Err(AcppError::Validation(format!(
            "guarantee calculus produced h_top = {h_top} outside (0, 1]"
        )));
    }
    if !w_m.is_finite() || !f_wm.is_finite() || f_wm < 0.0 {
        return Err(AcppError::Validation(format!(
            "guarantee calculus produced non-finite or negative growth: w_m = {w_m}, F(w_m) = {f_wm}"
        )));
    }
    Ok(gp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::{Attribute, Domain, OwnerId, Schema, Value};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap()
    }

    fn table(n: usize) -> Table {
        let mut t = Table::new(schema());
        for i in 0..n {
            t.push_row(OwnerId(i as u32), &[Value((i % 8) as u32), Value((i % 10) as u32)])
                .unwrap();
        }
        t
    }

    #[test]
    fn accepts_a_well_formed_request() {
        let t = table(40);
        let taxes = vec![Taxonomy::intervals(8, 2)];
        let cfg = PgConfig::new(0.3, 4).unwrap();
        assert!(validate_inputs(&t, &taxes, &cfg).is_ok());
    }

    #[test]
    fn rejects_bad_parameters() {
        let t = table(40);
        let taxes = vec![Taxonomy::intervals(8, 2)];
        for p in [0.0, -0.5, 1.5, f64::NAN] {
            let cfg = PgConfig { p, k: 4, algorithm: Default::default() };
            let err = validate_inputs(&t, &taxes, &cfg).unwrap_err();
            assert!(matches!(err, AcppError::Validation(_)), "p = {p}");
            assert_eq!(err.exit_code(), 2);
        }
        let cfg = PgConfig { p: 0.3, k: 0, algorithm: Default::default() };
        assert!(validate_inputs(&t, &taxes, &cfg).is_err());
    }

    #[test]
    fn rejects_taxonomy_mismatch_and_infeasible_k() {
        let t = table(10);
        let cfg = PgConfig::new(0.3, 4).unwrap();
        // Wrong arity.
        let err = validate_inputs(&t, &[], &cfg).unwrap_err();
        assert!(err.to_string().contains("taxonomy coverage"));
        // Wrong domain size.
        let err = validate_inputs(&t, &[Taxonomy::intervals(5, 2)], &cfg).unwrap_err();
        assert!(matches!(err, AcppError::Validation(_)));
        // k larger than the table.
        let cfg = PgConfig::new(0.3, 11).unwrap();
        let err = validate_inputs(&t, &[Taxonomy::intervals(8, 2)], &cfg).unwrap_err();
        assert!(err.to_string().contains("k = 11"));
    }

    #[test]
    fn rejects_degenerate_sensitive_domain() {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(4)),
            Attribute::sensitive("S", Domain::indexed(1)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        t.push_row(OwnerId(0), &[Value(0), Value(0)]).unwrap();
        let cfg = PgConfig::new(0.3, 1).unwrap();
        let err = validate_inputs(&t, &[Taxonomy::intervals(4, 2)], &cfg).unwrap_err();
        assert!(err.to_string().contains("at least 2"));
    }

    #[test]
    fn guarantee_request_checks_ranges_and_finiteness() {
        assert!(validate_guarantee_request(0.3, 4, 0.1, 50).is_ok());
        for (p, lambda) in [(f64::NAN, 0.1), (0.3, f64::INFINITY), (0.0, 0.1), (0.3, 0.0)] {
            let err = validate_guarantee_request(p, 4, lambda, 50).unwrap_err();
            assert!(matches!(err, AcppError::Validation(_)), "p={p} lambda={lambda}");
        }
        // |U^s| < 2 is rejected by the range checks.
        assert!(validate_guarantee_request(0.3, 4, 1.0, 1).is_err());
    }
}
