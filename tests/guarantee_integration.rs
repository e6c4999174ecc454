//! Cross-crate validation of the paper's formal results: adversaries with
//! structured (not just random) corruption strategies never exceed the
//! Theorem 2/3 bounds, while conventional generalization falls to Lemma 2.

use acpp::attack::{
    attack, lemmas, BackgroundKnowledge, CorruptionSet, ExternalDatabase, Predicate,
};
use acpp::core::{publish, GuaranteeParams, PgConfig};
use acpp::data::sal::{self, SalConfig};
use acpp::generalize::mondrian::{partition, MondrianConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct World {
    table: acpp::data::Table,
    taxonomies: Vec<acpp::data::Taxonomy>,
    external: ExternalDatabase,
}

fn world(rows: usize, seed: u64) -> World {
    let table = sal::generate(SalConfig { rows, seed });
    let taxonomies = sal::qi_taxonomies();
    let mut rng = StdRng::seed_from_u64(seed ^ 0xABCD);
    let external = ExternalDatabase::with_extraneous(&table, rows / 8, &mut rng);
    World { table, taxonomies, external }
}

/// The strongest λ-skewed prior: mass λ on the victim's true value.
fn peaked_prior(w: &World, row: usize, lambda: f64) -> BackgroundKnowledge {
    let n = w.table.schema().sensitive_domain_size();
    let truth = w.table.sensitive_value(row);
    let mut pdf = vec![(1.0 - lambda) / (n - 1) as f64; n as usize];
    pdf[truth.index()] = lambda;
    BackgroundKnowledge::from_pdf(pdf)
}

#[test]
fn structured_corruption_strategies_respect_the_bounds() {
    let w = world(2_500, 31);
    let (p, k, lambda) = (0.35, 4, 0.15);
    let n = w.table.schema().sensitive_domain_size();
    let gp = GuaranteeParams::new(p, k, lambda, n).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let dstar = publish(&w.table, &w.taxonomies, PgConfig::new(p, k).unwrap(), &mut rng).unwrap();

    for victim_row in [0usize, 123, 999, 2_400] {
        let victim = w.table.owner(victim_row);
        let knowledge = peaked_prior(&w, victim_row, lambda);
        // Strategy battery: no corruption, full corruption, and
        // "corrupt exactly the victim's QI-group co-members" (the most
        // targeted strategy expressible in the model).
        let mut strategies: Vec<CorruptionSet> = vec![
            CorruptionSet::none(),
            CorruptionSet::all_except(&w.table, &w.external, victim),
        ];
        let qi = w.table.qi_vector(victim_row);
        if let Some(t) = dstar.crucial_tuple(&w.taxonomies, &qi) {
            let mut targeted = CorruptionSet::none();
            for owner in w.external.candidates_in_region(&dstar, &w.taxonomies, t, victim) {
                targeted.corrupt(&w.table, owner);
            }
            strategies.push(targeted);
        }
        for corruption in &strategies {
            // Probe y, then attack with the worst-case predicate {y}.
            let truth = w.table.sensitive_value(victim_row);
            let probe = attack(
                &dstar, &w.taxonomies, &w.external, corruption, victim, &knowledge,
                &Predicate::exactly(n, truth),
            )
            .unwrap();
            let Some(y) = probe.observed else { continue };
            let outcome = attack(
                &dstar, &w.taxonomies, &w.external, corruption, victim, &knowledge,
                &Predicate::exactly(n, y),
            )
            .unwrap();
            assert!(
                outcome.growth() <= gp.min_delta().unwrap() + 1e-9,
                "victim {victim}, |C|={}: growth {} > bound {}",
                corruption.len(),
                outcome.growth(),
                gp.min_delta().unwrap()
            );
            let h = outcome.analysis.as_ref().unwrap().h;
            assert!(h <= gp.h_top() + 1e-9, "h {h} > h_top {}", gp.h_top());
            if outcome.prior_confidence <= 0.2 {
                assert!(
                    outcome.posterior_confidence <= gp.min_rho2(0.2).unwrap() + 1e-9,
                    "rho breach: {} -> {}",
                    outcome.prior_confidence,
                    outcome.posterior_confidence
                );
            }
        }
    }
}

#[test]
fn theorem1_holds_for_composite_predicates() {
    // Predicates of several values that exclude the observed y never gain
    // confidence, whatever the corruption.
    let w = world(1_500, 32);
    let n = w.table.schema().sensitive_domain_size();
    let (p, k) = (0.45, 3);
    let mut rng = StdRng::seed_from_u64(8);
    let dstar = publish(&w.table, &w.taxonomies, PgConfig::new(p, k).unwrap(), &mut rng).unwrap();
    let knowledge = BackgroundKnowledge::uniform(n);
    for victim_row in [5usize, 700, 1_400] {
        let victim = w.table.owner(victim_row);
        let corruption = CorruptionSet::all_except(&w.table, &w.external, victim);
        let probe = attack(
            &dstar, &w.taxonomies, &w.external, &corruption, victim, &knowledge,
            &Predicate::exactly(n, acpp::data::Value(0)),
        )
        .unwrap();
        let Some(y) = probe.observed else { continue };
        // Build a 10-value predicate avoiding y.
        let values: Vec<acpp::data::Value> = (0..n)
            .map(acpp::data::Value)
            .filter(|&v| v != y)
            .take(10)
            .collect();
        let q = Predicate::from_values(n, &values);
        let outcome = attack(&dstar, &w.taxonomies, &w.external, &corruption, victim, &knowledge, &q)
            .unwrap();
        assert!(
            outcome.growth() <= 1e-12,
            "Theorem 1 violated: growth {} for y-avoiding Q",
            outcome.growth()
        );
    }
}

#[test]
fn lemma2_breaks_conventional_generalization_at_any_k() {
    let w = world(1_200, 33);
    for k in [2usize, 10, 50] {
        let (tree, _) = partition(&w.table, w.table.schema(), MondrianConfig::new(k)).unwrap();
        let recoding = tree.into_recoding();
        let (grouping, _) = recoding.group(&w.table, &w.taxonomies);
        // Larger k means MORE victims share a group — and yet exact
        // reconstruction still succeeds for every one of them.
        for victim_row in [0usize, 600, 1_199] {
            let demo = lemmas::lemma2_breach(&w.table, &grouping, victim_row).unwrap();
            assert_eq!(demo.inferred, demo.truth, "k={k}, row={victim_row}");
        }
    }
}

#[test]
fn guarantee_parameters_scale_as_theorems_predict() {
    // End-to-end sanity of the parameter surface used by the binaries:
    // across a coarse (p, k) grid, empirical worst growth from a short
    // attack battery is monotone in p and anti-monotone in k, matching the
    // theory tables.
    let w = world(2_000, 34);
    let n = w.table.schema().sensitive_domain_size();
    let lambda = 0.1;
    let mut worst = std::collections::HashMap::new();
    for &(p, k) in &[(0.15f64, 2usize), (0.45, 2), (0.15, 8), (0.45, 8)] {
        let mut rng = StdRng::seed_from_u64(11);
        let dstar =
            publish(&w.table, &w.taxonomies, PgConfig::new(p, k).unwrap(), &mut rng).unwrap();
        let mut max_growth: f64 = 0.0;
        for victim_row in (0..w.table.len()).step_by(97) {
            let victim = w.table.owner(victim_row);
            let knowledge = peaked_prior(&w, victim_row, lambda);
            let truth = w.table.sensitive_value(victim_row);
            let probe = attack(
                &dstar, &w.taxonomies, &w.external, &CorruptionSet::none(), victim,
                &knowledge, &Predicate::exactly(n, truth),
            )
            .unwrap();
            let Some(y) = probe.observed else { continue };
            let outcome = attack(
                &dstar, &w.taxonomies, &w.external, &CorruptionSet::none(), victim,
                &knowledge, &Predicate::exactly(n, y),
            )
            .unwrap();
            max_growth = max_growth.max(outcome.growth());
        }
        worst.insert((format!("{p}"), k), max_growth);
    }
    assert!(worst[&("0.45".to_string(), 2)] > worst[&("0.15".to_string(), 2)]);
    assert!(worst[&("0.45".to_string(), 8)] > worst[&("0.15".to_string(), 8)]);
    assert!(worst[&("0.45".to_string(), 2)] > worst[&("0.45".to_string(), 8)]);
    assert!(worst[&("0.15".to_string(), 2)] > worst[&("0.15".to_string(), 8)]);
}
