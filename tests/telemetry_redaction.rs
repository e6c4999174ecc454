//! Redaction property: no sensitive-domain value ever reaches a telemetry
//! artifact — across seeds, fault plans, and degradation policies.
//!
//! The microdata here carries *canary* sensitive values: large, distinctive
//! codes (five to six decimal digits) from a huge sensitive domain. If any
//! instrumentation site ever leaked a microdata value, a canary's decimal
//! rendering would show up in the JSONL trace, the Prometheus text, or the
//! human summary. The checks are structural where number collisions are
//! possible (trace timestamps are microsecond counts) and textual where
//! they are not.
//!
//! The API makes the leak hard to write in the first place — span fields
//! accept only typed scalars and `&'static str` labels — so this test is
//! the executable statement of that contract, not the only line of defense.

use acpp::core::{
    publish_robust_observed, record_guarantee_surface, DegradationPolicy, FaultKind, FaultPlan,
    PgConfig, Threads,
};
use acpp::data::{Attribute, Domain, OwnerId, Schema, Table, Taxonomy, Value};
use acpp::obs::{render_prometheus, render_summary, render_trace, validate_trace, Json, Telemetry};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::BTreeSet;

/// Sensitive domain size: big enough that the canary codes below are
/// unmistakable multi-digit numbers, far above any count or parameter the
/// telemetry legitimately records.
const US: u32 = 524_288;
const ROWS: usize = 600;

/// The canary code planted in row `i`.
fn canary(i: usize) -> u32 {
    77_003 + (i as u32 % 1000) * 389
}

/// A table whose every sensitive value is a canary.
fn canary_world() -> (Table, Vec<Taxonomy>) {
    let schema = Schema::new(vec![
        Attribute::quasi("qa", Domain::indexed(64)),
        Attribute::quasi("qb", Domain::indexed(16)),
        Attribute::sensitive("secret", Domain::indexed(US)),
    ])
    .unwrap();
    let mut table = Table::new(schema);
    for i in 0..ROWS {
        // Deterministic, mildly clustered QI values; the sensitive value
        // is the canary.
        let qa = ((i * 7) % 64) as u32;
        let qb = ((i / 40) % 16) as u32;
        table
            .push_row(OwnerId(i as u32), &[Value(qa), Value(qb), Value(canary(i))])
            .unwrap();
    }
    let taxonomies = vec![Taxonomy::intervals(64, 2), Taxonomy::intervals(16, 2)];
    (table, taxonomies)
}

/// Every numeric value that appears in a trace record's `fields` object,
/// plus every digit-run inside its string fields. Timestamps (`start_us`,
/// `end_us`) are excluded — they are clock readings, not data.
fn field_numbers(trace: &str) -> Vec<f64> {
    let mut out = Vec::new();
    for line in trace.lines().skip(1) {
        let json = Json::parse(line).expect("trace line parses");
        let obj = json.as_object().expect("record object");
        let Some(fields) = obj.get("fields").and_then(Json::as_object) else {
            continue;
        };
        for value in fields.values() {
            match value {
                Json::Number(n) => out.push(*n),
                Json::String(s) => {
                    // A label containing an embedded canary would slip past
                    // a numeric check; digits inside labels are themselves
                    // a redaction violation for our static label set.
                    assert!(
                        !s.chars().any(|c| c.is_ascii_digit()),
                        "string field `{s}` contains digits"
                    );
                }
                _ => {}
            }
        }
    }
    out
}

/// Maximal ASCII-digit runs in `text`, parsed as integers. A leaked code
/// would be printed as its own token, so matching whole runs avoids false
/// positives from long float fractions that happen to embed a canary's
/// digits (e.g. `min_delta 0.9956...`).
fn digit_runs(text: &str) -> BTreeSet<u64> {
    let mut out = BTreeSet::new();
    let mut run = String::new();
    for c in text.chars().chain(std::iter::once(' ')) {
        if c.is_ascii_digit() {
            run.push(c);
        } else if !run.is_empty() {
            if let Ok(v) = run.parse::<u64>() {
                out.insert(v);
            }
            run.clear();
        }
    }
    out
}

/// The name-and-labels part of each Prometheus sample line, with the
/// schema-sanctioned `le="..."` bucket bound removed.
fn prometheus_keys(text: &str) -> String {
    let mut out = String::new();
    for line in text.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let keys = line.rsplit_once(' ').map_or(line, |(k, _)| k);
        let mut rest = keys;
        while let Some(start) = rest.find("le=\"") {
            out.push_str(&rest[..start]);
            rest = match rest[start + 4..].find('"') {
                Some(end) => &rest[start + 4 + end + 1..],
                None => "",
            };
        }
        out.push_str(rest);
        out.push('\n');
    }
    out
}

fn assert_artifacts_clean(telemetry: &Telemetry, released: &BTreeSet<u32>) {
    // Only distinctive codes are textually checkable: a released value of,
    // say, 4 is indistinguishable from a legitimate count or parameter.
    // Canaries are all >= 77_003 and always checked; redrawn codes below
    // 10_000 (< 2% of the domain) are skipped to keep the test
    // deterministic.
    let mut forbidden: BTreeSet<u64> = (0..ROWS).map(|i| canary(i) as u64).collect();
    forbidden.extend(released.iter().filter(|&&v| v >= 10_000).map(|&v| v as u64));

    let trace = render_trace(telemetry);
    validate_trace(&trace).expect("trace is schema-valid");
    for n in field_numbers(&trace) {
        if n >= 0.0 && n.fract() == 0.0 {
            assert!(
                !forbidden.contains(&(n as u64)),
                "sensitive code {n} leaked into a trace field"
            );
        }
    }

    let snapshot = acpp::obs::metrics().snapshot();
    let prom = render_prometheus(&snapshot);
    // Metric names and label sets must be digit-free entirely (bucket
    // bounds excepted): the redaction schema allows no dynamic numbering.
    let keys = prometheus_keys(&prom);
    assert!(
        !keys.chars().any(|c| c.is_ascii_digit()),
        "metric names/labels must carry no digits:\n{keys}"
    );
    // Sample values: no whole-number sample may equal a sensitive code.
    for line in prom.lines() {
        if line.starts_with('#') || line.is_empty() {
            continue;
        }
        let value: f64 = line.rsplit_once(' ').expect("sample line").1.parse().expect("value");
        if value >= 0.0 && value.fract() == 0.0 {
            assert!(
                !forbidden.contains(&(value as u64)),
                "sensitive code leaked as a metric value: {line}"
            );
        }
    }

    let summary = render_summary(telemetry, &snapshot);
    for token in digit_runs(&summary) {
        assert!(
            !forbidden.contains(&token),
            "sensitive code {token} leaked into the summary"
        );
    }
}

/// The profiler surface: a scaling report built over canary microdata
/// reveals timing and structure only. Phase names come from the closed
/// static label set (digit-free, like every string outside the `meta`
/// provenance block), and the integral non-clock counts — shards, bytes,
/// allocation counts — never equal a planted code.
#[test]
fn profile_report_carries_no_sensitive_values() {
    let (table, taxes) = canary_world();
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let telemetry = Telemetry::enabled();
    let prof = acpp::obs::profiler();
    prof.begin();
    let (dstar, _) = acpp::core::publish_robust_observed(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        None,
        Threads::Fixed(2),
        &mut StdRng::seed_from_u64(9),
        &telemetry,
    )
    .expect("publish succeeds");
    let samples = prof.take();
    let records = telemetry.records();
    let report =
        acpp::obs::build_report(&records, &samples, 2).expect("publication closed its root span");
    let rendered = report.render_json(&acpp::obs::render_run_meta(&acpp::obs::run_meta(2)));
    let json = Json::parse(&rendered).expect("profile report parses");
    let obj = json.as_object().expect("profile report is an object");

    let forbidden: BTreeSet<u64> = (0..ROWS).map(|i| canary(i) as u64).collect();
    let check_fields = |fields: &std::collections::BTreeMap<String, Json>| {
        for (key, value) in fields {
            match value {
                Json::String(s) => assert!(
                    !s.chars().any(|c| c.is_ascii_digit()),
                    "profile string `{key}`=`{s}` contains digits"
                ),
                // Timings are clock readings; the structural counts are
                // what a value could masquerade as.
                Json::Number(n)
                    if matches!(key.as_str(), "shards" | "bytes" | "allocs" | "threads") =>
                {
                    assert!(
                        !forbidden.contains(&(*n as u64)),
                        "canary leaked as profile count `{key}`={n}"
                    );
                }
                _ => {}
            }
        }
    };
    match &obj["phases"] {
        Json::Array(phases) => {
            assert!(!phases.is_empty(), "report attributes at least one phase");
            for phase in phases {
                check_fields(phase.as_object().expect("phase object"));
            }
        }
        other => panic!("phases should be an array, got {other:?}"),
    }
    let bottleneck = obj["bottleneck"].as_object().expect("bottleneck object");
    let name = bottleneck["name"].as_str().expect("bottleneck name");
    assert!(!name.chars().any(|c| c.is_ascii_digit()), "bottleneck name `{name}` has digits");
    // The published table exists and the report never saw its values: a
    // ShardSample is counts-only by construction, so this asserts the
    // output shape held, not just that this run got lucky.
    assert!(!dstar.tuples().is_empty());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn no_sensitive_value_reaches_telemetry(
        seed in 0u64..10_000,
        kind_ix in 0usize..6,
        fault_seed in 0u64..10_000,
    ) {
        let (table, taxes) = canary_world();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        // The skippable kinds: each run injects one, under SkipAndReport so
        // the run completes and exports artifacts.
        let kinds = [
            FaultKind::MalformedRow,
            FaultKind::TruncatedRow,
            FaultKind::SensitiveOutOfDomain,
            FaultKind::RngOutOfRange,
            FaultKind::DegenerateGroup,
            FaultKind::SampleIndexOutOfRange,
        ];
        let plan = FaultPlan::new(fault_seed).with(kinds[kind_ix]);

        let telemetry = Telemetry::enabled();
        let (dstar, _report) = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::SkipAndReport,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(seed),
            &telemetry,
        )
        .expect("skip policy completes the run");
        record_guarantee_surface(&dstar, 0.1);

        // Both the planted canaries and whatever perturbed codes actually
        // shipped in D* must stay out of every artifact.
        let released: BTreeSet<u32> =
            dstar.tuples().iter().map(|t| t.sensitive.code()).collect();
        assert_artifacts_clean(&telemetry, &released);
    }

    #[test]
    fn clean_runs_are_clean_too(seed in 0u64..10_000) {
        let (table, taxes) = canary_world();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let telemetry = Telemetry::enabled();
        let (dstar, report) = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            None,
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(seed),
            &telemetry,
        )
        .expect("clean publish succeeds");
        prop_assert!(report.is_clean());
        record_guarantee_surface(&dstar, 0.1);
        let released: BTreeSet<u32> =
            dstar.tuples().iter().map(|t| t.sensitive.code()).collect();
        assert_artifacts_clean(&telemetry, &released);
    }
}
