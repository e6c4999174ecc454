//! Property test for delta carrying: a delta release that republishes its
//! clean regions from the previous release must equal one that recomputes
//! every region.
//!
//! Two publishers run the same random series from the same seed. The twin
//! calls `forget_departed` with the current table before every delta. That
//! prunes nothing (every memoized owner is still present) but drops the
//! carry, so the twin's delta stages every row and elects in every region.
//! The two series must agree release by release, and their RNGs must end in
//! the same state: the carry may skip work, never a random draw.

use acpp_core::{PgConfig, Threads};
use acpp_data::sal::{self, SalConfig};
use acpp_data::{OwnerId, Table, Value};
use acpp_republish::{apply_updates, Republisher, Update};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The update batch of one random delta against `table`, drawn from
/// `seed`: a few owners leave, a few are updated in place (the sensitive
/// value shifted by 0–2, so some updates keep it), and a few donor rows join
/// under fresh owners. No owner appears twice.
fn batch(table: &Table, donors: &Table, seed: u64, fresh: &mut u32) -> Vec<Update> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut touched = std::collections::BTreeSet::new();
    let mut updates = Vec::new();
    for _ in 0..rng.gen_range(0..8) {
        let owner = table.owner(rng.gen_range(0..table.len()));
        if touched.insert(owner) {
            updates.push(Update::Delete(owner));
        }
    }
    let s = table.schema().sensitive_index();
    let us = table.schema().sensitive_domain_size();
    for _ in 0..rng.gen_range(0..4) {
        let row = rng.gen_range(0..table.len());
        let owner = table.owner(row);
        if touched.insert(owner) {
            let mut values = table.row(row);
            values[s] = Value((values[s].0 + rng.gen_range(0..3u32)) % us);
            updates.push(Update::Delete(owner));
            updates.push(Update::Insert { owner, row: values });
        }
    }
    for _ in 0..rng.gen_range(0..12) {
        *fresh += 1;
        let row = donors.row(rng.gen_range(0..donors.len()));
        updates.push(Update::Insert { owner: OwnerId(*fresh), row });
    }
    updates
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn carried_delta_equals_full_recompute(
        seed in 0u64..1_000,
        n in 80usize..240,
        k in 2usize..7,
        threads in 1usize..3,
        steps in collection::vec(0u64..1_000_000, 1..6),
    ) {
        let base = sal::generate(SalConfig { rows: n, seed });
        let donors = sal::generate(SalConfig { rows: 24, seed: seed ^ 0x5a5a });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, k).unwrap();
        let us = base.schema().sensitive_domain_size();
        let open = || Republisher::new(cfg, us).unwrap().with_threads(Threads::Fixed(threads));
        let (mut carrying, mut twin) = (open(), open());
        let (mut rng_a, mut rng_b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));

        let first = carrying.publish_next(&base, &taxes, &mut rng_a).unwrap();
        prop_assert_eq!(first, twin.publish_next(&base, &taxes, &mut rng_b).unwrap());
        let mut table = base;
        let mut fresh = 1u32 << 30;
        for (i, &step) in steps.iter().enumerate() {
            let updates = batch(&table, &donors, step, &mut fresh);
            let next = apply_updates(&table, &updates).unwrap();
            if next.len() < 2 * k {
                break;
            }
            twin.forget_departed(&table);
            let carried = carrying.publish_delta(&updates, &taxes, &mut rng_a).unwrap();
            let recomputed = twin.publish_delta(&updates, &taxes, &mut rng_b).unwrap();
            prop_assert!(carried == recomputed, "delta {} differs from the full recompute", i);
            table = next;
        }
        prop_assert!(rng_a.next_u64() == rng_b.next_u64(), "the RNGs diverged");
    }
}
