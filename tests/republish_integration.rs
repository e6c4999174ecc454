//! Cross-crate re-publication invariants: a series of PG releases over
//! evolving microdata stays attack-resistant release over release.

use acpp::attack::{attack, BackgroundKnowledge, CorruptionSet, ExternalDatabase, Predicate};
use acpp::core::{GuaranteeParams, PgConfig};
use acpp::data::sal::{self, SalConfig};
use acpp::data::OwnerId;
use acpp::republish::{apply_updates, Republisher, Update};
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn release_series_stays_within_theorem_bounds_for_a_tracked_victim() {
    let (p, k, lambda) = (0.3, 4, 0.1);
    let mut table = sal::generate(SalConfig { rows: 3_000, seed: 61 });
    let taxonomies = sal::qi_taxonomies();
    let n = table.schema().sensitive_domain_size();
    let gp = GuaranteeParams::new(p, k, lambda, n).unwrap();
    let mut publisher = Republisher::new(PgConfig::new(p, k).unwrap(), n).unwrap();
    let mut rng = StdRng::seed_from_u64(9);

    let victim_row = 1_500;
    let victim = table.owner(victim_row);
    let truth = table.sensitive_value(victim_row);
    let mut pdf = vec![(1.0 - lambda) / (n - 1) as f64; n as usize];
    pdf[truth.index()] = lambda;
    let knowledge = BackgroundKnowledge::from_pdf(pdf);

    let mut observations = Vec::new();
    for round in 0..4 {
        if round > 0 {
            // Churn: drop two owners (never the victim), add two newcomers.
            let d1 = table.owner(round * 11);
            let d2 = table.owner(round * 13 + 7);
            assert_ne!(d1, victim);
            assert_ne!(d2, victim);
            let base = 50_000 + round as u32 * 10;
            let row_a = table.row(100 + round);
            let row_b = table.row(200 + round);
            table = apply_updates(
                &table,
                &[
                    Update::Delete(d1),
                    Update::Delete(d2),
                    Update::Insert { owner: OwnerId(base), row: row_a },
                    Update::Insert { owner: OwnerId(base + 1), row: row_b },
                ],
            )
            .unwrap();
        }
        let dstar = publisher.publish_next(&table, &taxonomies, &mut rng).unwrap();
        let external = ExternalDatabase::from_table(&table);
        // Per-release bound check with heavy corruption.
        let corruption = CorruptionSet::all_except(&table, &external, victim);
        let probe = attack(
            &dstar, &taxonomies, &external, &corruption, victim, &knowledge,
            &Predicate::exactly(n, truth),
        )
        .unwrap();
        let Some(y) = probe.observed else { panic!("victim's region published") };
        observations.push(y);
        let outcome = attack(
            &dstar, &taxonomies, &external, &corruption, victim, &knowledge,
            &Predicate::exactly(n, y),
        )
        .unwrap();
        assert!(
            outcome.growth() <= gp.min_delta().unwrap() + 1e-9,
            "round {round}: growth {} exceeds bound {}",
            outcome.growth(),
            gp.min_delta().unwrap()
        );
    }
    // The victim's data never changed, so persistent perturbation pins the
    // underlying draw: the only variation can come from a group re-cut
    // electing a different representative.
    let distinct: std::collections::BTreeSet<u32> =
        observations.iter().map(|v| v.code()).collect();
    assert!(
        distinct.len() <= 2,
        "persistent series leaked too many observations: {observations:?}"
    );
}
