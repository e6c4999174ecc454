//! Property tests for the parallel engine's central contract: the published
//! release is a function of the inputs and the seed alone — **never** of the
//! worker-pool size. Every phase draws its randomness from counter-keyed
//! substreams, so a run at 8 threads, a run at 1, and a crash-plus-resume
//! that switches counts mid-run must all be bit-identical.

use acpp::core::journal::{publish_journaled, read_state, resume, CrashPoint, RunOptions};
use acpp::core::{
    publish_robust_observed, publish_with_trace, DegradationPolicy, FaultKind, FaultPlan, PgConfig,
    Phase, Threads, CHUNK_ROWS,
};
use acpp::data::sal::{self, SalConfig};
use acpp::data::Taxonomy;
use acpp::obs::Telemetry;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fs;
use std::path::PathBuf;

/// Pool sizes chosen to cover the sequential path (1), even splits (2, 8),
/// and counts that do not divide the chunk structure evenly (3, 7).
const THREAD_COUNTS: [usize; 5] = [1, 2, 3, 7, 8];

fn world(rows: usize, world_seed: u64) -> (acpp::data::Table, Vec<Taxonomy>) {
    (sal::generate(SalConfig { rows, seed: world_seed }), sal::qi_taxonomies())
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("acpp-parallel-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The pipeline at every pool size agrees bit-for-bit with the
    /// single-threaded run, for arbitrary tables, seeds, and
    /// configurations.
    #[test]
    fn publish_is_thread_count_invariant(
        rows in 40usize..400,
        world_seed in 0u64..1_000,
        seed in 0u64..10_000,
        k in 2usize..8,
        p_ix in 0usize..3,
    ) {
        let p = [0.2, 0.5, 0.8][p_ix];
        let (table, taxes) = world(rows, world_seed);
        let cfg = PgConfig::new(p, k).unwrap();
        let baseline = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            None,
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(seed),
            &Telemetry::disabled(),
        ).unwrap();
        for t in THREAD_COUNTS {
            let run = publish_robust_observed(
                &table,
                &taxes,
                cfg,
                DegradationPolicy::Abort,
                None,
                Threads::Fixed(t),
                &mut StdRng::seed_from_u64(seed),
                &Telemetry::disabled(),
            ).unwrap();
            prop_assert_eq!(&baseline, &run);
        }
        let auto = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            None,
            Threads::Auto,
            &mut StdRng::seed_from_u64(seed),
            &Telemetry::disabled(),
        ).unwrap();
        prop_assert_eq!(&baseline, &auto);
    }

    /// The robust pipeline stays thread-count invariant even while the fault
    /// harness is injecting corruption and the skip policy is redrawing rows:
    /// faults are keyed to logical unit ids, redraws to row indices, so the
    /// degraded output and the audit report are identical at every count.
    #[test]
    fn robust_publish_with_faults_is_thread_count_invariant(
        rows in 40usize..300,
        world_seed in 0u64..1_000,
        seed in 0u64..10_000,
        fault_seed in 0u64..1_000,
        kind_ix in 0usize..3,
    ) {
        let kinds = [
            FaultKind::RngOutOfRange,
            FaultKind::SensitiveOutOfDomain,
            FaultKind::SampleIndexOutOfRange,
        ];
        let plan = FaultPlan::new(fault_seed).with(kinds[kind_ix]);
        let (table, taxes) = world(rows, world_seed);
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let (base_dstar, base_report) = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::SkipAndReport,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(seed),
            &Telemetry::disabled(),
        ).unwrap();
        for t in THREAD_COUNTS {
            let (dstar, report) = publish_robust_observed(
                &table,
                &taxes,
                cfg,
                DegradationPolicy::SkipAndReport,
                Some(&plan),
                Threads::Fixed(t),
                &mut StdRng::seed_from_u64(seed),
                &Telemetry::disabled(),
            ).unwrap();
            prop_assert_eq!(&base_dstar, &dstar);
            prop_assert_eq!(&base_report, &report);
        }
    }
}

proptest! {
    // Journaled runs hit the filesystem, so fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A journaled run crashed mid-pipeline at one thread count and resumed
    /// at a *different* count reproduces the uninterrupted release exactly:
    /// same fingerprint, same checkpoint digests, same release bytes.
    #[test]
    fn crash_and_resume_across_thread_counts_is_byte_identical(
        rows in 60usize..240,
        world_seed in 0u64..1_000,
        seed in 0u64..10_000,
        crash_ix in 0usize..3,
        t_first_ix in 0usize..THREAD_COUNTS.len(),
        t_resume_ix in 0usize..THREAD_COUNTS.len(),
    ) {
        let crash = [
            CrashPoint::AfterPerturb,
            CrashPoint::AfterGeneralize,
            CrashPoint::AfterSample,
        ][crash_ix];
        let t_first = THREAD_COUNTS[t_first_ix];
        let t_resume = THREAD_COUNTS[t_resume_ix];
        let (table, taxes) = world(rows, world_seed);
        let cfg = PgConfig::new(0.3, 4).unwrap();

        // Reference: an uninterrupted single-threaded journaled run.
        let ref_dir = fresh_dir(&format!("ref-{seed}-{rows}-{world_seed}-{crash_ix}"));
        let ref_out = ref_dir.join("dstar.csv");
        let reference = publish_journaled(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            seed,
            &ref_dir,
            &ref_out,
            &RunOptions { threads: Threads::Fixed(1), ..RunOptions::default() },
        ).unwrap();
        let ref_fp = read_state(&ref_dir).unwrap().fingerprint.unwrap();
        let ref_bytes = fs::read(&ref_out).unwrap();

        // Crash at `t_first` threads, resume at `t_resume`.
        let dir = fresh_dir(&format!(
            "crash-{seed}-{rows}-{world_seed}-{crash_ix}-{t_first}-{t_resume}"
        ));
        let out = dir.join("dstar.csv");
        publish_journaled(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            seed,
            &dir,
            &out,
            &RunOptions {
                threads: Threads::Fixed(t_first),
                crash: Some(crash),
                ..RunOptions::default()
            },
        ).expect_err("injected crash must abort");
        let run = resume(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            seed,
            &dir,
            &out,
            &RunOptions { threads: Threads::Fixed(t_resume), ..RunOptions::default() },
        ).unwrap();

        prop_assert!(run.resumed);
        prop_assert!(run.checkpoints_reused > 0, "crash point must leave a checkpoint");
        prop_assert_eq!(&reference.published, &run.published);
        prop_assert_eq!(reference.release_digest, run.release_digest);
        let fp = read_state(&dir).unwrap().fingerprint.unwrap();
        prop_assert_eq!(ref_fp, fp);
        prop_assert_eq!(ref_bytes, fs::read(&out).unwrap());
    }
}

/// Phase 3 sharded over several chunks of groups while the fault harness
/// breaks draws: the release, the report, the abort error (which names the
/// lowest faulty group) and the traced sample are the same at every thread
/// count. The proptests above stay within one chunk of groups.
#[test]
fn multi_chunk_sampling_under_faults_is_thread_count_invariant() {
    let (table, taxes) = world(40_000, 5);
    let cfg = PgConfig::new(0.3, 2).unwrap();
    let kind = FaultKind::SampleIndexOutOfRange;
    let plan = FaultPlan::new(17).with(kind).with_intensity(6);
    let run = |policy, threads| {
        let rng = &mut StdRng::seed_from_u64(3);
        let telemetry = Telemetry::disabled();
        publish_robust_observed(&table, &taxes, cfg, policy, Some(&plan), threads, rng, &telemetry)
    };
    let trace = |threads| {
        let rng = &mut StdRng::seed_from_u64(3);
        publish_with_trace(&table, &taxes, cfg, threads, rng).unwrap().1.sampled_rows
    };
    let skipped = run(DegradationPolicy::SkipAndReport, Threads::Fixed(1)).unwrap();
    let groups = skipped.0.len();
    assert!(groups > 2 * CHUNK_ROWS, "{groups} groups");
    let faulty = plan.pick_units(kind, groups);
    let chunks: std::collections::BTreeSet<usize> = faulty.iter().map(|g| g / CHUNK_ROWS).collect();
    assert!(chunks.len() > 1, "faults land in more than one chunk: {faulty:?}");
    assert_eq!(skipped.1.phase(Phase::Sample).faults_survived, faulty.len());
    let aborted = run(DegradationPolicy::Abort, Threads::Fixed(1)).unwrap_err();
    assert!(aborted.to_string().contains(&format!("of group {} ", faulty[0])), "{aborted}");
    let sampled_rows = trace(Threads::Fixed(1));
    for t in [2, 8] {
        assert_eq!(run(DegradationPolicy::SkipAndReport, Threads::Fixed(t)).unwrap(), skipped);
        assert_eq!(run(DegradationPolicy::Abort, Threads::Fixed(t)).unwrap_err(), aborted);
        assert_eq!(trace(Threads::Fixed(t)), sampled_rows, "threads={t}");
    }
}
