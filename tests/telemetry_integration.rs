//! End-to-end telemetry: a journaled publish observed through an enabled
//! [`Telemetry`] handle must produce a schema-valid JSONL trace covering
//! all three PG phases plus the journal and commit machinery, and a
//! Prometheus-parsable metrics snapshot carrying the retry, fault, and
//! guarantee-surface series.
//!
//! Metrics are process-global and cumulative, so every assertion on them
//! is a delta between two snapshots taken inside the same test.

use acpp::core::journal::{publish_journaled, resume, RunOptions};
use acpp::core::{
    publish_robust_observed, record_guarantee_surface,
    Threads,
    CrashPoint, DegradationPolicy, FaultKind, FaultPlan, PgConfig,
};
use acpp::data::sal::{self, SalConfig};
use acpp::data::Taxonomy;
use acpp::obs::{render_prometheus, render_summary, render_trace, validate_prometheus,
    validate_trace, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

fn world(rows: usize) -> (acpp::data::Table, Vec<Taxonomy>) {
    (sal::generate(SalConfig { rows, seed: 41 }), sal::qi_taxonomies())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("acpp-telemetry-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// Span names present in the trace (spans only, not events).
fn span_names(trace: &str) -> Vec<String> {
    trace
        .lines()
        .filter(|l| l.contains("\"type\":\"span\""))
        .filter_map(|l| {
            let json = acpp::obs::Json::parse(l).expect("trace line parses");
            json.as_object()?.get("name")?.as_str().map(str::to_string)
        })
        .collect()
}

#[test]
fn journaled_publish_trace_covers_phases_journal_and_commit() {
    let (table, taxes) = world(400);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let dir = fresh_dir("full-run");
    let out = dir.join("dstar.csv");

    let telemetry = Telemetry::enabled();
    let before = acpp::obs::metrics().snapshot();
    let run = publish_journaled(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        7,
        &dir,
        &out,
        &RunOptions {
            threads: Threads::Fixed(1),
            telemetry: Some(&telemetry),
            ..RunOptions::default()
        },
    )
    .expect("journaled publish succeeds");
    record_guarantee_surface(&run.published, 0.1);
    let after = acpp::obs::metrics().snapshot();

    // The trace is schema-valid and covers the whole story.
    let trace = render_trace(&telemetry);
    let records = validate_trace(&trace).expect("trace is schema-valid");
    assert!(records > 5, "expected a non-trivial trace, got {records} records");
    let names = span_names(&trace);
    for required in [
        "pipeline.publish",
        "phase.ingest",
        "phase.perturb",
        "phase.generalize",
        "phase.sample",
        "journal.stage",
        "journal.commit",
    ] {
        assert!(
            names.iter().any(|n| n == required),
            "trace must contain span `{required}`; got {names:?}"
        );
    }
    // Checkpoint events recorded at each phase boundary.
    assert!(trace.contains("journal.checkpoint"), "checkpoint events expected");

    // The metrics snapshot is Prometheus-parsable and carries the run.
    let text = render_prometheus(&after);
    validate_prometheus(&text).expect("metrics are Prometheus-parsable");
    for series in [
        "acpp_pipeline_runs_total",
        "acpp_journal_appends_total",
        "acpp_journal_checkpoints_recorded_total",
        "acpp_io_attempts_total",
        "acpp_group_size_bucket",
        "acpp_guarantee_retention_p",
        "acpp_guarantee_h_top",
    ] {
        assert!(text.contains(series), "metrics must carry `{series}`:\n{text}");
    }
    assert!(
        after.counter_total("acpp_journal_appends_total")
            > before.counter_total("acpp_journal_appends_total"),
        "journal appends must have been counted"
    );
    assert!(
        after.counter_total("acpp_io_attempts_total")
            > before.counter_total("acpp_io_attempts_total"),
        "commit I/O retries ride through retry_io and must be counted"
    );
    assert_eq!(after.gauge("acpp_guarantee_retention_p"), Some(0.3));
    assert_eq!(after.gauge("acpp_guarantee_k"), Some(4.0));

    // The human summary mentions the phases and at least one metric.
    let summary = render_summary(&telemetry, &after);
    assert!(summary.contains("pipeline.publish"));
    assert!(summary.contains("acpp_pipeline_runs_total"));
}

#[test]
fn fault_injection_surfaces_in_metrics() {
    let (table, taxes) = world(400);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let telemetry = Telemetry::enabled();
    let before = acpp::obs::metrics().snapshot();
    let plan = FaultPlan::new(5).with(FaultKind::MalformedRow);
    let (_dstar, report) = publish_robust_observed(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::SkipAndReport,
        Some(&plan),
        Threads::Fixed(1),
        &mut StdRng::seed_from_u64(3),
        &telemetry,
    )
    .expect("skip policy degrades, not aborts");
    assert!(!report.is_clean());
    let after = acpp::obs::metrics().snapshot();

    let injected = after.counter("acpp_faults_injected_total", Some(("kind", "malformed_row")))
        - before.counter("acpp_faults_injected_total", Some(("kind", "malformed_row")));
    assert!(injected >= 1, "injected faults must be counted by kind");
    let detected = after.counter_total("acpp_faults_detected_total")
        - before.counter_total("acpp_faults_detected_total");
    assert!(detected >= 1, "detected faults must be counted by phase");
    // The labelled series render into the Prometheus exposition.
    let text = render_prometheus(&after);
    validate_prometheus(&text).expect("parsable with labelled series");
    assert!(text.contains("acpp_faults_injected_total{kind=\"malformed_row\"}"));
    // And the trace carries the detection as an event, not a value.
    let trace = render_trace(&telemetry);
    validate_trace(&trace).expect("valid");
    assert!(trace.contains("fault.detected"));
}

#[test]
fn resume_trace_covers_recovery() {
    let (table, taxes) = world(300);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let dir = fresh_dir("resume-run");
    let out = dir.join("dstar.csv");

    publish_journaled(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        11,
        &dir,
        &out,
        &RunOptions {
            threads: Threads::Fixed(1),
            crash: Some(CrashPoint::AfterGeneralize),
            ..RunOptions::default()
        },
    )
    .expect_err("injected crash must abort the run");

    let telemetry = Telemetry::enabled();
    let before = acpp::obs::metrics().snapshot();
    let run = resume(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        11,
        &dir,
        &out,
        &RunOptions {
            threads: Threads::Fixed(1),
            telemetry: Some(&telemetry),
            ..RunOptions::default()
        },
    )
    .expect("resume completes the run");
    assert!(run.checkpoints_reused > 0);
    let after = acpp::obs::metrics().snapshot();

    let trace = render_trace(&telemetry);
    validate_trace(&trace).expect("valid resume trace");
    let names = span_names(&trace);
    assert!(names.iter().any(|n| n == "journal.recover"), "recovery span expected: {names:?}");
    assert!(
        after.counter_total("acpp_journal_resumes_total")
            > before.counter_total("acpp_journal_resumes_total")
    );
    assert!(
        after.counter_total("acpp_journal_checkpoints_verified_total")
            > before.counter_total("acpp_journal_checkpoints_verified_total"),
        "reused checkpoints must be verified and counted"
    );
}

#[test]
fn disabled_telemetry_collects_nothing() {
    let (table, taxes) = world(200);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let telemetry = Telemetry::disabled();
    publish_robust_observed(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        None,
        Threads::Fixed(1),
        &mut StdRng::seed_from_u64(5),
        &telemetry,
    )
    .expect("publish succeeds");
    assert!(!telemetry.is_enabled());
    assert!(telemetry.records().is_empty());
    let trace = render_trace(&telemetry);
    // A disabled handle still renders a valid (empty) trace document.
    assert_eq!(validate_trace(&trace).expect("valid"), 0);
}
