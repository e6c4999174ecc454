//! Property tests for the frontier-parallel Mondrian build (PR 9).
//!
//! `tests/parallel_determinism.rs` pins the engine-level contract (the
//! release is a function of inputs and seed alone). These tests force the
//! *internal* decomposition into its worst corners: the parallel grain is
//! driven far below its default so tiny tables still exercise the
//! frontier histogram/scatter machinery, the ping-pong parity tracking,
//! the deferred subtree stage, and the sharded assignment read-off — all
//! of which must reproduce the sequential recursion bit-for-bit.

use acpp::core::journal::{publish_journaled, read_state, resume, CrashPoint, RunOptions};
use acpp::core::{DegradationPolicy, PgConfig, Threads};
use acpp::data::sal::{self, SalConfig};
use acpp::generalize::mondrian::{partition, MondrianConfig};
use acpp::generalize::scheme::group_from_box_assignment;
use proptest::prelude::*;
use std::fs;
use std::path::PathBuf;

/// Pool sizes covering even splits and counts that do not divide the
/// chunk structure evenly.
const THREAD_COUNTS: [usize; 4] = [2, 3, 7, 8];

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("acpp-mondrian-par-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// With the grain forced low enough that even a few-hundred-row table
    /// runs the full frontier pipeline (chunked histograms, out-of-place
    /// scatter, deferred subtrees), the partition *and* the per-row box
    /// assignment are bit-identical to the sequential recursion at its
    /// default grain — decomposition knobs must never leak into output.
    #[test]
    fn low_grain_partition_and_assignment_are_thread_invariant(
        rows in 150usize..900,
        world_seed in 0u64..1_000,
        k in 2usize..9,
        grain in 8usize..64,
    ) {
        let table = sal::generate(SalConfig { rows, seed: world_seed });
        let seq_cfg = MondrianConfig::new(k);
        let (seq, _) = partition(&table, table.schema(), seq_cfg).unwrap();
        let (r_seq, a_seq) = (seq.recoding(), seq.assignment());
        for t in THREAD_COUNTS {
            let cfg = MondrianConfig::new(k).with_threads(t).with_grain(grain);
            let (tree, stats) = partition(&table, table.schema(), cfg).unwrap();
            let (r, a) = (tree.recoding(), tree.assignment());
            prop_assert_eq!(&r_seq, &r);
            prop_assert_eq!(&a_seq, &a);
            // The low grain must actually engage the parallel machinery.
            prop_assert!(stats.tasks > 0, "threads={} stats={:?}", t, stats);
        }
    }

    /// The sharded grouping bookend reproduces the sequential
    /// first-appearance numbering for assignments produced by the
    /// low-grain parallel build, and both match the per-row tree-walk
    /// grouping of the recoding itself.
    #[test]
    fn low_grain_grouping_matches_tree_walk(
        rows in 150usize..600,
        world_seed in 0u64..1_000,
        k in 2usize..7,
    ) {
        let table = sal::generate(SalConfig { rows, seed: world_seed });
        let taxes = sal::qi_taxonomies();
        let cfg = MondrianConfig::new(k).with_threads(7).with_grain(16);
        let (tree, _) = partition(&table, table.schema(), cfg).unwrap();
        let (box_of_row, n_boxes) = (tree.assignment(), tree.len());
        let (g_seq, s_seq) = group_from_box_assignment(box_of_row, n_boxes, 1);
        for t in THREAD_COUNTS {
            let (g, s) = group_from_box_assignment(box_of_row, n_boxes, t);
            prop_assert_eq!(&g_seq, &g);
            prop_assert_eq!(&s_seq, &s);
        }
        let (g_walk, s_walk) = tree.recoding().group(&table, &taxes);
        prop_assert_eq!(&g_seq, &g_walk);
        prop_assert_eq!(&s_seq, &s_walk);
    }
}

proptest! {
    // Journaled runs hit the filesystem and use tables large enough to
    // engage the default-grain frontier, so fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// A journaled run that crashes and resumes at a different thread
    /// count — on a table big enough that the resumed generalize phase
    /// takes the *parallel frontier* path at the default grain — replays
    /// to the same fingerprint and release bytes as an uninterrupted
    /// sequential run.
    #[test]
    fn crash_resume_replays_parallel_frontier_byte_identical(
        rows in 8_300usize..8_700,
        world_seed in 0u64..100,
        seed in 0u64..10_000,
        t_resume_ix in 0usize..THREAD_COUNTS.len(),
    ) {
        let t_resume = THREAD_COUNTS[t_resume_ix];
        let table = sal::generate(SalConfig { rows, seed: world_seed });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();

        let ref_dir = fresh_dir(&format!("ref-{seed}-{rows}-{world_seed}"));
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

        // Crash after Phase 1, so the resume recomputes generalization —
        // at a pool size whose frontier machinery must replay the
        // sequential cut sequence exactly.
        let dir = fresh_dir(&format!("crash-{seed}-{rows}-{world_seed}-{t_resume}"));
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
                threads: Threads::Fixed(1),
                crash: Some(CrashPoint::AfterPerturb),
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
        prop_assert_eq!(&reference.published, &run.published);
        prop_assert_eq!(reference.release_digest, run.release_digest);
        prop_assert_eq!(ref_fp, read_state(&dir).unwrap().fingerprint.unwrap());
        prop_assert_eq!(ref_bytes, fs::read(&out).unwrap());
    }
}
