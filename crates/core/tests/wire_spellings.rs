//! One string form per enum. Before `Phase2Algorithm` and
//! `DegradationPolicy` had one `FromStr` each, five hand-rolled parsers
//! read them: the journal's `begin` record, the CLI's `--algorithm` and
//! `--on-error` flags, the CLI job file, and the daemon's job JSON and spool
//! record. These tests pin that every spelling any of them accepted still
//! maps to the same variant, and that the wire spelling is unchanged, so
//! journals and job files written before the change still resume.

use acpp_core::journal::read_state;
use acpp_core::{DegradationPolicy, Phase2Algorithm, Phase};
use std::fs;

/// The union of the algorithm spellings the five parsers accepted.
const ALGORITHMS: [(&str, Phase2Algorithm); 4] = [
    ("mondrian", Phase2Algorithm::Mondrian),
    ("tds", Phase2Algorithm::Tds),
    ("full-domain", Phase2Algorithm::FullDomain),
    ("full_domain", Phase2Algorithm::FullDomain),
];

/// The union of the policy spellings the five parsers accepted.
const POLICIES: [(&str, DegradationPolicy); 3] = [
    ("abort", DegradationPolicy::Abort),
    ("skip", DegradationPolicy::SkipAndReport),
    ("skip_and_report", DegradationPolicy::SkipAndReport),
];

/// A `begin` record as the build before the unification wrote it, for a
/// journaled `--algorithm full-domain --on-error skip` run.
const PREVIOUS_BEGIN: &str = "begin v1 seed=7 p=3fd3333333333333 k=4 alg=full-domain \
    policy=skip input=782dd8bb9b98fd51 taxes=6d47fc4778a733ad rows=200|60ff291aa9d4a3ef\n";

#[test]
fn every_accepted_spelling_maps_to_one_variant() {
    for (spelling, variant) in ALGORITHMS {
        assert_eq!(spelling.parse::<Phase2Algorithm>(), Ok(variant), "{spelling}");
    }
    for (spelling, variant) in POLICIES {
        assert_eq!(spelling.parse::<DegradationPolicy>(), Ok(variant), "{spelling}");
    }
    for bad in ["", "Mondrian", "full domain", "incognito"] {
        assert!(bad.parse::<Phase2Algorithm>().is_err(), "{bad}");
    }
    for bad in ["", "Abort", "skip-and-report", "retry"] {
        assert!(bad.parse::<DegradationPolicy>().is_err(), "{bad}");
    }
}

#[test]
fn wire_names_are_the_spellings_journals_and_job_files_carry() {
    let wire: Vec<&str> = ALGORITHMS[..3].iter().map(|(_, a)| a.wire_name()).collect();
    assert_eq!(wire, ["mondrian", "tds", "full-domain"]);
    assert_eq!(DegradationPolicy::Abort.wire_name(), "abort");
    assert_eq!(DegradationPolicy::SkipAndReport.wire_name(), "skip");
    // The telemetry labels the daemon's spool record carries read back too.
    for (_, alg) in ALGORITHMS {
        assert_eq!(alg.wire_name().parse(), Ok(alg));
        assert_eq!(alg.label().parse(), Ok(alg));
    }
    for (_, policy) in POLICIES {
        assert_eq!(policy.wire_name().parse(), Ok(policy));
        assert_eq!(policy.label().parse(), Ok(policy));
    }
}

#[test]
fn a_begin_record_from_the_previous_build_still_parses() {
    let dir = std::env::temp_dir().join("acpp-wire-spellings");
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let phase = "phase ingest 0000000000000001";
    let sum = acpp_data::digest::render_digest(acpp_data::fnv1a(phase.as_bytes()));
    fs::write(dir.join("journal.log"), format!("{PREVIOUS_BEGIN}{phase}|{sum}\n")).unwrap();
    let state = read_state(&dir).unwrap();
    let fp = state.fingerprint.expect("begin record parses");
    assert_eq!(fp.seed, 7);
    assert_eq!(fp.config.k, 4);
    assert_eq!(fp.config.p.to_bits(), 0x3fd3333333333333);
    assert_eq!(fp.config.algorithm, Phase2Algorithm::FullDomain);
    assert_eq!(fp.policy, DegradationPolicy::SkipAndReport);
    assert_eq!(fp.rows, 200);
    assert_eq!(state.phase_digests, vec![(Phase::Ingest, 1)]);
    assert!(!state.torn_tail);
}
