//! The killpoint matrix: crash-safety of journaled publication.
//!
//! For every [`CrashPoint`] — every phase boundary, mid-way through the
//! release's temp-file write, after staging, after the commit rename — a
//! journaled run is killed there and the two recovery invariants are
//! checked:
//!
//! 1. **Atomic visibility**: at the instant of the crash, the output path
//!    either holds the complete release (byte-identical to an uninterrupted
//!    run) or does not exist. Never a prefix, never a torn file.
//! 2. **Byte-identical resume**: completing the run with [`resume`]
//!    produces exactly the bytes the uninterrupted run would have written,
//!    and is idempotent.
//!
//! A property test then sweeps (seed × crash point) to pin the same
//! contract across the randomness domain, and a mid-series crash drill
//! checks the durable series invariant: no release on disk without its
//! bookkeeping entry.

use acpp::core::journal::{
    publish_deterministic, publish_journaled, read_state, resume, status, CrashPoint,
    JournalStatus, JournaledRun, RunOptions,
};
use acpp::core::{AcppError, DegradationPolicy, PgConfig, Threads};
use acpp::data::atomic::{CommitRecovery, RetryPolicy};
use acpp::data::fnv1a;
use acpp::data::sal::{self, SalConfig};
use acpp::data::{Table, Taxonomy};
use acpp::republish::durable::{release_file_name, SeriesCrash, SeriesPublisher, STATE_FILE};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::{Path, PathBuf};

fn world(rows: usize) -> (Table, Vec<Taxonomy>) {
    (sal::generate(SalConfig { rows, seed: 99 }), sal::qi_taxonomies())
}

/// Options that kill a single-threaded journaled run at `point`.
fn crash_at(point: CrashPoint) -> RunOptions<'static> {
    RunOptions { threads: Threads::Fixed(1), crash: Some(point), ..RunOptions::default() }
}

/// Resumes the journal in `dir` under `Abort` with default options.
fn resume_abort(
    table: &Table,
    taxes: &[Taxonomy],
    cfg: PgConfig,
    seed: u64,
    dir: &Path,
    out: &Path,
) -> Result<JournaledRun, AcppError> {
    resume(table, taxes, cfg, DegradationPolicy::Abort, seed, dir, out, &RunOptions::default())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("acpp-crash-recovery").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// What an uninterrupted run under `seed` writes, byte for byte.
fn baseline_bytes(
    table: &Table,
    taxes: &[Taxonomy],
    cfg: PgConfig,
    seed: u64,
) -> Vec<u8> {
    let (published, _) =
        publish_deterministic(table, taxes, cfg, DegradationPolicy::Abort, seed).unwrap();
    published.render(taxes).into_bytes()
}

/// Runs one cell of the killpoint matrix and asserts both invariants.
fn drill(table: &Table, taxes: &[Taxonomy], cfg: PgConfig, seed: u64, point: CrashPoint, dir: &Path) {
    let out = dir.join("dstar.csv");
    let expected = baseline_bytes(table, taxes, cfg, seed);

    let err = publish_journaled(
        table,
        taxes,
        cfg,
        DegradationPolicy::Abort,
        seed,
        dir,
        &out,
        &crash_at(point),
    )
    .unwrap_err();
    assert!(matches!(err, AcppError::Journal(_)), "{point}: {err}");
    assert_eq!(err.exit_code(), 10, "{point}");

    // Invariant 1: complete release or nothing — never a torn file.
    match fs::read(&out) {
        Ok(bytes) => assert_eq!(bytes, expected, "{point}: torn or divergent release visible"),
        Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::NotFound, "{point}: {e}"),
    }
    assert_eq!(status(dir), JournalStatus::Interrupted, "{point}");

    // Invariant 2: resume finishes the run byte-identically, twice.
    for round in 0..2 {
        let run = resume_abort(table, taxes, cfg, seed, dir, &out)
            .unwrap_or_else(|e| panic!("{point} resume round {round}: {e}"));
        assert!(run.resumed);
        assert_eq!(fs::read(&out).unwrap(), expected, "{point} round {round}");
        assert_eq!(run.release_digest, fnv1a(&expected), "{point} round {round}");
    }
    assert_eq!(status(dir), JournalStatus::Complete, "{point}");
}

#[test]
fn every_killpoint_recovers_byte_identically() {
    let (table, taxes) = world(400);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    for point in CrashPoint::ALL {
        let dir = fresh_dir(&format!("matrix-{point}"));
        drill(&table, &taxes, cfg, 7, point, &dir);
    }
}

#[test]
fn torn_journal_tail_is_discarded_and_resume_completes() {
    let (table, taxes) = world(300);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let dir = fresh_dir("torn-tail");
    let out = dir.join("dstar.csv");
    let expected = baseline_bytes(&table, &taxes, cfg, 11);

    let _ = publish_journaled(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        11,
        &dir,
        &out,
        &crash_at(CrashPoint::AfterPerturb),
    )
    .unwrap_err();
    // A crash mid-append leaves a partial record with no trailing newline.
    let journal = dir.join("journal.log");
    let mut bytes = fs::read(&journal).unwrap();
    bytes.extend_from_slice(b"phase generalization deadbeef");
    fs::write(&journal, &bytes).unwrap();

    let state = read_state(&dir).unwrap();
    assert!(state.torn_tail, "the torn record must be detected");
    assert_eq!(state.phase_digests.len(), 2, "ingest + perturbation survive");

    let run = resume_abort(&table, &taxes, cfg, 11, &dir, &out).unwrap();
    assert_eq!(run.checkpoints_reused, 2);
    assert_eq!(fs::read(&out).unwrap(), expected);
}

#[test]
fn interior_journal_corruption_is_a_hard_error() {
    let (table, taxes) = world(300);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let dir = fresh_dir("interior-corruption");
    let out = dir.join("dstar.csv");
    let _ = publish_journaled(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        13,
        &dir,
        &out,
        &crash_at(CrashPoint::AfterSample),
    )
    .unwrap_err();
    // Flip one byte inside the *first* record: not a torn tail, so recovery
    // must refuse rather than silently drop what the journal authorized.
    let journal = dir.join("journal.log");
    let mut bytes = fs::read(&journal).unwrap();
    bytes[10] ^= 0x01;
    fs::write(&journal, &bytes).unwrap();
    let err =
        resume_abort(&table, &taxes, cfg, 13, &dir, &out).unwrap_err();
    assert!(matches!(err, AcppError::Journal(_)), "{err}");
}

#[test]
fn tampered_input_is_refused_on_resume() {
    let (table, taxes) = world(300);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let dir = fresh_dir("tampered-input");
    let out = dir.join("dstar.csv");
    let _ = publish_journaled(
        &table,
        &taxes,
        cfg,
        DegradationPolicy::Abort,
        17,
        &dir,
        &out,
        &crash_at(CrashPoint::AfterGeneralize),
    )
    .unwrap_err();
    let tampered = sal::generate(SalConfig { rows: 300, seed: 100 });
    let err =
        resume_abort(&tampered, &taxes, cfg, 17, &dir, &out).unwrap_err();
    assert!(err.to_string().contains("fingerprint"), "{err}");
}

#[test]
fn mid_series_crash_never_leaves_a_release_without_bookkeeping() {
    let (table, taxes) = world(300);
    let cfg = PgConfig::new(0.3, 4).unwrap();
    let dir = fresh_dir("series-crash");
    let open = || {
        SeriesPublisher::open(cfg, acpp::data::sal::schema().sensitive_domain_size(), &dir, RetryPolicy::none())
            .unwrap()
    };
    let (mut series, _) = open();
    let mut rng = StdRng::seed_from_u64(3);
    series.publish_next(&table, &taxes, &mut rng).unwrap();

    // Crash in the exact window where release 2 is renamed into place but
    // the bookkeeping rename has not happened yet.
    let _ = series
        .publish_next_crashing(&table, &taxes, &mut rng, SeriesCrash::MidRenames(1))
        .unwrap_err();
    let (recovered, recovery) = open();
    assert!(matches!(recovery, CommitRecovery::RolledForward { .. }));
    assert_eq!(recovered.releases(), 2, "release 2 rolled forward WITH its bookkeeping");
    assert!(dir.join(release_file_name(2)).exists());
    assert!(dir.join(STATE_FILE).exists());

    // And the rollback side: crash before the manifest leaves nothing.
    drop(recovered);
    let (mut series, _) = open();
    let _ = series
        .publish_next_crashing(&table, &taxes, &mut rng, SeriesCrash::BeforeManifest)
        .unwrap_err();
    let (recovered, recovery) = open();
    assert!(matches!(recovery, CommitRecovery::RolledBack { .. }));
    assert_eq!(recovered.releases(), 2, "the aborted release 3 is not observable");
    assert!(!dir.join(release_file_name(3)).exists());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Satellite property: for every (seed, killpoint), the resumed release
    /// is byte-identical to the uninterrupted run's.
    #[test]
    fn resume_is_byte_identical_for_every_seed_and_killpoint(
        seed in 0u64..1_000,
        point_idx in 0usize..CrashPoint::ALL.len(),
    ) {
        let (table, taxes) = world(200);
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let point = CrashPoint::ALL[point_idx];
        let dir = fresh_dir(&format!("prop-{seed}-{point}"));
        let out = dir.join("dstar.csv");
        let expected = baseline_bytes(&table, &taxes, cfg, seed);

        let err = publish_journaled(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            seed,
            &dir,
            &out,
            &crash_at(point),
        ).unwrap_err();
        prop_assert_eq!(err.exit_code(), 10);
        match fs::read(&out) {
            Ok(bytes) => prop_assert_eq!(bytes, expected.clone()),
            Err(e) => prop_assert_eq!(e.kind(), std::io::ErrorKind::NotFound),
        }
        let run = resume_abort(&table, &taxes, cfg, seed, &dir, &out)
            .unwrap();
        prop_assert!(run.resumed);
        prop_assert_eq!(fs::read(&out).unwrap(), expected);
        let _ = fs::remove_dir_all(&dir);
    }
}
