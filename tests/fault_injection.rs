//! End-to-end fault injection against the hardened pipeline.
//!
//! Every fault kind is injected through [`publish_robust_observed`] under both
//! degradation policies. The contract under test: each run ends in exactly
//! one of two states — a typed [`AcppError`] with nothing published, or a
//! complete release whose [`PipelineReport`] accounts for every degraded
//! unit. No panic, no partial table.

use acpp::core::{
    publish, publish_robust_observed, AcppError, DegradationPolicy, FaultKind, FaultPlan, PgConfig,
    Phase, Threads,
};
use acpp::data::sal::{self, SalConfig};
use acpp::data::Taxonomy;
use acpp::obs::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn world(rows: usize) -> (acpp::data::Table, Vec<Taxonomy>) {
    (sal::generate(SalConfig { rows, seed: 99 }), sal::qi_taxonomies())
}

/// The row- or unit-granular kinds (everything except the taxonomy fault,
/// which is not skippable).
const SKIPPABLE: [FaultKind; 6] = [
    FaultKind::MalformedRow,
    FaultKind::TruncatedRow,
    FaultKind::SensitiveOutOfDomain,
    FaultKind::RngOutOfRange,
    FaultKind::DegenerateGroup,
    FaultKind::SampleIndexOutOfRange,
];

#[test]
fn every_fault_kind_aborts_with_a_typed_error_under_abort() {
    let (table, taxes) = world(400);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    for kind in FaultKind::ALL {
        let plan = FaultPlan::new(5).with(kind);
        let result = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(1),
            &Telemetry::disabled(),
        );
        // SlowIo is a latency fault, not a correctness fault: the run
        // completes (slowly) with the stall noted in the report.
        if kind == FaultKind::SlowIo {
            let (dstar, report) = result.unwrap_or_else(|e| panic!("SlowIo must complete: {e}"));
            assert!(!dstar.is_empty());
            let rep = report.phase(kind.phase());
            assert_eq!(rep.faults_injected, 1, "the stall is accounted");
            assert!(rep.notes.iter().any(|n| n.contains("slow I/O")));
            continue;
        }
        let err = result.expect_err(&format!("{kind:?} must abort"));
        match err {
            AcppError::Fault { phase, ref detail } => {
                assert_eq!(phase, kind.phase(), "{kind:?} fired at the wrong boundary");
                assert!(!detail.is_empty());
                assert_eq!(err.exit_code(), 8);
            }
            other => panic!("{kind:?}: expected AcppError::Fault, got {other:?}"),
        }
    }
}

#[test]
fn skippable_faults_degrade_into_an_accounted_release() {
    let (table, taxes) = world(400);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    for kind in SKIPPABLE {
        let plan = FaultPlan::new(5).with(kind);
        let (dstar, report) = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::SkipAndReport,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(1),
            &Telemetry::disabled(),
        )
        .unwrap_or_else(|e| panic!("{kind:?} must degrade, got {e}"));
        // The release is complete and lawful.
        assert!(!dstar.is_empty(), "{kind:?}");
        assert!(dstar.len() <= table.len() / cfg.k, "{kind:?}: cardinality bound");
        for t in dstar.tuples() {
            assert!(t.sensitive.code() < table.schema().sensitive_domain_size(), "{kind:?}");
        }
        // The report accounts for the degradation at the right boundary.
        let rep = report.phase(kind.phase());
        assert!(rep.faults_injected >= 1, "{kind:?}: nothing injected");
        assert!(rep.faults_survived >= 1, "{kind:?}: nothing survived");
        assert!(!report.is_clean(), "{kind:?}");
        assert!(!rep.notes.is_empty(), "{kind:?}: no note");
    }
}

#[test]
fn all_skippable_faults_at_once_still_produce_a_lawful_release() {
    let (table, taxes) = world(600);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let mut plan = FaultPlan::new(17).with_intensity(5);
    for kind in SKIPPABLE {
        plan = plan.with(kind);
    }
    let (dstar, report) = publish_robust_observed(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::SkipAndReport,
        Some(&plan),
        Threads::Fixed(1),
        &mut StdRng::seed_from_u64(2),
        &Telemetry::disabled(),
    )
    .unwrap();
    assert!(!dstar.is_empty());
    assert!(dstar.len() <= table.len() / cfg.k);
    assert!(report.total_faults_survived() >= SKIPPABLE.len());
    // Published tuples all carry in-domain sensitive values and group sizes
    // respecting k (the degenerate group was suppressed, not published).
    for t in dstar.tuples() {
        assert!(t.group_size >= cfg.k);
        assert!(t.sensitive.code() < table.schema().sensitive_domain_size());
    }
    // Accounting is conserved: published + dropped <= input.
    assert!(report.published_rows + report.total_rows_dropped() <= report.input_rows);
}

#[test]
fn fault_runs_are_deterministic_under_a_fixed_seed() {
    let (table, taxes) = world(300);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let mut plan = FaultPlan::new(23);
    for kind in SKIPPABLE {
        plan = plan.with(kind);
    }
    let run = |rng_seed: u64| {
        publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::SkipAndReport,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(rng_seed),
            &Telemetry::disabled(),
        )
        .unwrap()
    };
    let (d1, r1) = run(7);
    let (d2, r2) = run(7);
    assert_eq!(d1, d2, "same plan + same rng seed => identical release");
    assert_eq!(r1, r2, "and identical report");
    let (_, r3) = run(8);
    // A different pipeline rng does not change what the plan injects.
    assert_eq!(
        r1.phase(Phase::Ingest).faults_injected,
        r3.phase(Phase::Ingest).faults_injected
    );
}

#[test]
fn taxonomy_fault_never_publishes_under_either_policy() {
    let (table, taxes) = world(200);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let plan = FaultPlan::new(3).with(FaultKind::InconsistentTaxonomy);
    for policy in [DegradationPolicy::Abort, DegradationPolicy::SkipAndReport] {
        let err = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            policy,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(3),
            &Telemetry::disabled(),
        )
        .unwrap_err();
        assert!(
            matches!(err, AcppError::Fault { phase: Phase::Ingest, .. }),
            "{policy:?}: {err}"
        );
    }
}

#[test]
fn no_injection_reduces_to_the_plain_pipeline() {
    let (table, taxes) = world(500);
    let cfg = PgConfig::new(0.4, 5).unwrap();
    let baseline = publish(&table, &taxes, cfg, &mut StdRng::seed_from_u64(4)).unwrap();
    for policy in [DegradationPolicy::Abort, DegradationPolicy::SkipAndReport] {
        let (dstar, report) = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            policy,
            None,
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(4),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(dstar, baseline, "{policy:?}");
        assert!(report.is_clean());
        assert_eq!(report.published_rows, baseline.len());
        assert_eq!(report.input_rows, table.len());
    }
}

#[test]
fn validation_rejects_bad_requests_before_any_phase_runs() {
    let (table, taxes) = world(100);
    // p outside (0, 1] is a validation error (exit code 2), not a fault.
    let cfg = acpp::core::PgConfig { p: 0.0, k: 4, algorithm: Default::default() };
    let err = publish_robust_observed(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        None,
        Threads::Fixed(1),
        &mut StdRng::seed_from_u64(5),
        &Telemetry::disabled(),
    )
    .unwrap_err();
    assert!(matches!(err, AcppError::Validation(_)));
    assert_eq!(err.exit_code(), 2);
    // Mismatched taxonomies are caught by the same gate.
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let err = publish_robust_observed(
        &table,
        &taxes[..taxes.len() - 1],
        cfg,
        DegradationPolicy::Abort,
        None,
        Threads::Fixed(1),
        &mut StdRng::seed_from_u64(5),
        &Telemetry::disabled(),
    )
    .unwrap_err();
    assert!(matches!(err, AcppError::Validation(_)));
}
