//! End-to-end pipeline invariants across crates: the three PG phases on
//! census-shaped data, with every Phase-2 algorithm.

use acpp::core::{publish_with_trace, Phase2Algorithm, PgConfig, Threads};
use acpp::data::sal::{self, SalConfig};
use acpp::data::{csv, OwnerId};
use acpp::generalize::principles::is_k_anonymous;
use rand::rngs::StdRng;
use rand::SeedableRng;

#[test]
fn full_pipeline_invariants_hold_for_every_algorithm() {
    let table = sal::generate(SalConfig { rows: 3_000, seed: 21 });
    let taxonomies = sal::qi_taxonomies();
    for alg in [Phase2Algorithm::Mondrian, Phase2Algorithm::Tds] {
        for k in [2usize, 5, 10] {
            let cfg = PgConfig::new(0.3, k).unwrap().with_algorithm(alg);
            let mut rng = StdRng::seed_from_u64(5);
            let (dstar, trace) =
                publish_with_trace(&table, &taxonomies, cfg, Threads::Auto, &mut rng).unwrap();

            // Cardinality (Section II-A): |D*| <= |D| / k.
            assert!(dstar.len() <= table.len() / k, "{alg:?} k={k}");
            // Property G2: k-anonymity of the grouping.
            assert!(is_k_anonymous(&trace.grouping, k));
            // Phase 1 (P1): QI columns identical between D and D^p.
            for row in table.rows() {
                assert_eq!(table.qi_vector(row), trace.perturbed.qi_vector(row));
            }
            // Step S2: one published tuple per non-empty group, G = |group|.
            assert_eq!(dstar.len(), trace.grouping.iter_nonempty().count());
            for (i, tup) in dstar.tuples().iter().enumerate() {
                let members = trace.grouping.members(acpp::generalize::GroupId(i as u32));
                assert_eq!(tup.group_size, members.len());
                assert!(members.contains(&trace.sampled_rows[i]));
            }
            // Property G3 / Step A1: every microdata row maps to exactly
            // one published tuple, and that tuple's region covers its QI.
            for row in table.rows() {
                let qi = table.qi_vector(row);
                let t = dstar
                    .crucial_tuple(&taxonomies, &qi)
                    .expect("every inhabited region is published");
                for (pos, v) in qi.iter().enumerate() {
                    let (lo, hi) = dstar.interval(&taxonomies, t, pos);
                    assert!(lo <= v.code() && v.code() <= hi);
                }
            }
        }
    }
}

#[test]
fn published_sensitive_values_follow_the_channel_statistics() {
    // Aggregate check across many runs: the fraction of published tuples
    // whose observed value matches the sampled row's true value converges
    // to p + (1-p)/|U^s|.
    let table = sal::generate(SalConfig { rows: 4_000, seed: 22 });
    let taxonomies = sal::qi_taxonomies();
    let p = 0.4;
    let n = table.schema().sensitive_domain_size() as f64;
    let cfg = PgConfig::new(p, 2).unwrap();
    let mut matches = 0usize;
    let mut total = 0usize;
    for seed in 0..8u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let (dstar, trace) =
            publish_with_trace(&table, &taxonomies, cfg, Threads::Auto, &mut rng).unwrap();
        for (i, tup) in dstar.tuples().iter().enumerate() {
            let row = trace.sampled_rows[i];
            total += 1;
            if tup.sensitive == table.sensitive_value(row) {
                matches += 1;
            }
        }
    }
    let observed = matches as f64 / total as f64;
    let expected = p + (1.0 - p) / n;
    assert!(
        (observed - expected).abs() < 0.02,
        "retention statistics off: observed {observed}, expected {expected}"
    );
}

#[test]
fn microdata_csv_round_trips_through_the_data_crate() {
    let table = sal::generate(SalConfig { rows: 500, seed: 23 });
    let text = csv::to_string(&table, true).unwrap();
    let back = csv::from_str(table.schema(), &text).unwrap();
    assert_eq!(back, table);
    // Owners survive; the sensitive column is intact.
    assert_eq!(back.owner(499), OwnerId(499));
    assert_eq!(back.sensitive_column(), table.sensitive_column());
}

#[test]
fn published_render_is_parseable_csv() {
    let table = sal::generate(SalConfig { rows: 2_000, seed: 24 });
    let taxonomies = sal::qi_taxonomies();
    let mut rng = StdRng::seed_from_u64(9);
    let dstar = acpp::core::publish(
        &table,
        &taxonomies,
        PgConfig::new(0.3, 4).unwrap(),
        &mut rng,
    )
    .unwrap();
    let rendered = dstar.render(&taxonomies);
    let mut lines = rendered.lines();
    let header = lines.next().unwrap();
    let cols = header.split(',').count();
    assert_eq!(cols, table.schema().qi_arity() + 2, "QI + sensitive + G");
    let mut rows = 0;
    for line in lines {
        assert_eq!(line.split(',').count(), cols, "ragged row: {line}");
        rows += 1;
    }
    assert_eq!(rows, dstar.len());
}
