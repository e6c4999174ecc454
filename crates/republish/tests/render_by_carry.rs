//! Property test for render by carry: every release file a
//! `SeriesPublisher` commits equals `PublishedTable::render` of its release,
//! however the release was written.
//!
//! A delta copies the tuple lines of the leaves it carried from the release
//! it retains in memory. So a random series mixes every way that retained
//! text can go stale: full releases, 0.1 % and 10 % deltas, batches that
//! empty a region (its representative departs and the leaf merges), thin
//! one down to `k`, or overfill one until it recuts, empty batches, and
//! commits that crash before the manifest or mid-rename. After a crash the
//! series either reopens or, when nothing reached the disk, carries on in
//! the same process.
//!
//! A plain `Republisher` twin prepares every release from the same seed and
//! commits exactly when the publisher does (or, after a roll-forward, is
//! rebuilt like the reopened publisher). Each file must hold the twin's
//! rendered release.

use acpp_core::published::PublishedTable;
use acpp_core::{PgConfig, Threads};
use acpp_data::sal::{self, SalConfig};
use acpp_data::{OwnerId, RetryPolicy, Table, Taxonomy};
use acpp_republish::durable::SeriesCrash;
use acpp_republish::{apply_updates, Republisher, SeriesPublisher, Update};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// What one step of a random series does.
#[derive(Debug, Clone, Copy)]
enum Step {
    Full,
    /// Replaces this share (in thousandths) of the rows.
    Churn(usize),
    /// Deletes every member of one region.
    Empty,
    /// Deletes members of one region until `k` remain.
    Thin,
    /// Inserts `3k` copies of one region's rows.
    Overfill,
    Nothing,
}

/// The rows of each region of `published`, keyed by tuple index.
fn regions(published: &PublishedTable, table: &Table, taxes: &[Taxonomy]) -> Vec<Vec<usize>> {
    let mut rows: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for r in 0..table.len() {
        if let Some(t) = published.crucial_tuple(taxes, &table.qi_vector(r)) {
            rows.entry(t).or_default().push(r);
        }
    }
    rows.into_values().collect()
}

/// The update batch of `step` against `table`, whose last release has
/// these `regions`; `seed` picks the rows and `fresh` numbers new owners.
fn batch(
    step: Step,
    table: &Table,
    regions: &[Vec<usize>],
    donors: &Table,
    k: usize,
    seed: u64,
    fresh: &mut u32,
) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut new_owner = || {
        *fresh += 1;
        OwnerId(*fresh)
    };
    let mut region = || &regions[rng.gen_range(0..regions.len())];
    match step {
        Step::Churn(per_mille) => {
            let count = (table.len() * per_mille / 1000).max(1);
            let stride = table.len() / count;
            let offset = seed as usize % stride;
            (0..count)
                .map(|i| Update::Delete(table.owner(i * stride + offset)))
                .chain((0..count).map(|i| Update::Insert {
                    owner: new_owner(),
                    row: donors.row((offset + i) % donors.len()),
                }))
                .collect()
        }
        Step::Empty => region().iter().map(|&r| Update::Delete(table.owner(r))).collect(),
        Step::Thin => {
            let rows = region();
            let excess = rows.len().saturating_sub(k);
            rows[..excess].iter().map(|&r| Update::Delete(table.owner(r))).collect()
        }
        Step::Overfill => region()
            .iter()
            .cycle()
            .take(3 * k)
            .map(|&r| Update::Insert { owner: new_owner(), row: table.row(r) })
            .collect(),
        Step::Full | Step::Nothing => Vec::new(),
    }
}

fn tmpdir(case: u64) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("acpp-render-by-carry")
        .join(format!("{}-{case}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn every_committed_file_is_the_reference_render(
        seed in 0u64..1_000_000,
        n in 1_000usize..2_500,
        k in 3usize..8,
        four_threads in 0u8..2,
        steps in collection::vec(0u64..1_000_000, 4..12),
    ) {
        let base = sal::generate(SalConfig { rows: n, seed });
        let donors = sal::generate(SalConfig { rows: 64, seed: seed ^ 0x5a5a });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, k).unwrap();
        let us = base.schema().sensitive_domain_size();
        let threads = Threads::Fixed(if four_threads == 1 { 4 } else { 1 });
        let dir = tmpdir(seed);
        let open = || {
            let (series, _) = SeriesPublisher::open(cfg, us, &dir, RetryPolicy::none()).unwrap();
            series.with_threads(threads)
        };
        let twin_of = || Republisher::new(cfg, us).unwrap().with_threads(threads);
        let (mut series, mut twin) = (open(), twin_of());
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

        let mut table = base;
        let mut expected: Vec<Vec<u8>> = Vec::new();
        let mut last: Option<PublishedTable> = None;
        let mut fresh = 1u32 << 30;
        for &raw in &steps {
            let step = match (raw % 8, &last) {
                (_, None) | (0, _) => Step::Full,
                (1, _) => Step::Churn(1),
                (2, _) => Step::Churn(100),
                (3, _) => Step::Empty,
                (4, _) => Step::Thin,
                (5, _) => Step::Overfill,
                (6, _) => Step::Nothing,
                _ => Step::Churn(if raw % 16 < 8 { 1 } else { 100 }),
            };
            // One step in four crashes its commit: before the manifest (it
            // rolls back) or after 0, 1 or 2 of the two renames (forward).
            let crash = match (raw >> 8) % 8 {
                0 => SeriesCrash::BeforeManifest,
                1 => SeriesCrash::MidRenames(((raw >> 12) % 3) as usize),
                _ => SeriesCrash::None,
            };
            let updates = match &last {
                Some(published) => {
                    let regions = regions(published, &table, &taxes);
                    batch(step, &table, &regions, &donors, k, raw, &mut fresh)
                }
                None => Vec::new(),
            };
            let next = apply_updates(&table, &updates).unwrap();
            if next.len() < 2 * k {
                continue;
            }
            let (outcome, prepared) = if let Step::Full = step {
                (
                    series.publish_next_crashing(&table, &taxes, &mut rng_a, crash),
                    twin.prepare_next(&table, &taxes, &mut rng_b).unwrap(),
                )
            } else {
                (
                    series.publish_delta_crashing(&updates, &taxes, &mut rng_a, crash),
                    twin.prepare_delta(&updates, &taxes, &mut rng_b).unwrap(),
                )
            };
            let rendered = prepared.published().render(&taxes).into_bytes();
            match crash {
                SeriesCrash::None => {
                    let release = outcome.unwrap();
                    prop_assert!(release.published == *prepared.published());
                    prop_assert_eq!(release.index, expected.len() + 1);
                    prop_assert!(series.release_bytes() == rendered.as_slice());
                    expected.push(rendered);
                    last = Some(twin.commit_prepared(prepared));
                    table = next;
                }
                SeriesCrash::BeforeManifest => {
                    prop_assert!(outcome.is_err());
                    // Nothing reached the disk: carry on in this process
                    // half the time; the retained text must be untouched.
                    if (raw >> 16) % 2 == 0 {
                        series = open();
                        twin = twin_of();
                        last = None;
                    }
                }
                SeriesCrash::MidRenames(_) => {
                    prop_assert!(outcome.is_err());
                    // The manifest landed, so the reopen rolls forward.
                    series = open();
                    twin = twin_of();
                    expected.push(rendered);
                    last = None;
                    table = next;
                }
            }
            prop_assert_eq!(series.releases(), expected.len());
        }
        for (path, want) in series.release_paths().iter().zip(&expected) {
            let got = std::fs::read(path).unwrap();
            prop_assert!(got == *want, "{} is not its release's render", path.display());
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
