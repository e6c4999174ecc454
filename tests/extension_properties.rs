//! Property-based tests over the extension modules: COUNT-query
//! estimation, persistent perturbation, EMD/t-closeness, and the
//! composition posterior.

use acpp::data::{Attribute, Domain, OwnerId, Schema, Table, Taxonomy, Value};
use acpp::generalize::principles::{emd_nominal, emd_ordered};
use acpp::mining::queries::{estimate_count, CountQuery};
use acpp::perturb::Channel;
use acpp::republish::composition::fresh_noise_posterior;
use acpp::republish::PersistentChannel;
use proptest::prelude::*;

fn pdf_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, n).prop_map(|raw| {
        let s: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / s).collect()
    })
}

fn random_table(rows: usize, seed: u64, us: u32) -> Table {
    use rand::{Rng, SeedableRng};
    let schema = Schema::new(vec![
        Attribute::quasi("A", Domain::indexed(16)),
        Attribute::quasi("B", Domain::indexed(8)),
        Attribute::sensitive("S", Domain::indexed(us)),
    ])
    .unwrap();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut t = Table::new(schema);
    for i in 0..rows {
        t.push_row(
            OwnerId(i as u32),
            &[
                Value(rng.gen_range(0..16)),
                Value(rng.gen_range(0..8)),
                Value(rng.gen_range(0..us)),
            ],
        )
        .unwrap();
    }
    t
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The unconstrained COUNT estimate always equals the total population
    /// (overlap is 1 everywhere and deconvolution is total-preserving).
    #[test]
    fn count_estimator_preserves_totals(
        rows in 50usize..400,
        seed in 0u64..200,
        p in 0.05f64..1.0,
        k in 1usize..6,
    ) {
        use rand::SeedableRng;
        prop_assume!(rows >= 2 * k);
        let table = random_table(rows, seed, 10);
        let taxes = vec![Taxonomy::intervals(16, 2), Taxonomy::intervals(8, 2)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0xF00D);
        let dstar = acpp::core::publish(
            &table, &taxes, acpp::core::PgConfig::new(p, k).unwrap(), &mut rng,
        ).unwrap();
        let q = CountQuery::all(2);
        let est = estimate_count(&dstar, &taxes, &q);
        prop_assert!((est - rows as f64).abs() < 1e-6, "est {est} vs {rows}");
    }

    /// QI-only box queries are channel-independent and bounded by the
    /// population; the estimate is nonnegative.
    #[test]
    fn count_estimator_is_bounded(
        seed in 0u64..200,
        a_lo in 0u32..16,
        a_span in 0u32..16,
        b_lo in 0u32..8,
        b_span in 0u32..8,
    ) {
        use rand::SeedableRng;
        let rows = 300;
        let table = random_table(rows, seed, 10);
        let taxes = vec![Taxonomy::intervals(16, 2), Taxonomy::intervals(8, 2)];
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let dstar = acpp::core::publish(
            &table, &taxes, acpp::core::PgConfig::new(0.3, 3).unwrap(), &mut rng,
        ).unwrap();
        let q = CountQuery::all(2)
            .with_range(0, a_lo, (a_lo + a_span).min(15))
            .with_range(1, b_lo, (b_lo + b_span).min(7));
        let est = estimate_count(&dstar, &taxes, &q);
        prop_assert!(est >= -1e-9);
        prop_assert!(est <= rows as f64 + 1e-6);
    }

    /// Persistent perturbation is idempotent per (owner, value) and matches
    /// the plain channel's support.
    #[test]
    fn persistent_channel_is_idempotent(
        p in 0.0f64..=1.0,
        owner in 0u32..1000,
        value in 0u32..20,
        seed in 0u64..500,
    ) {
        use rand::SeedableRng;
        let mut pc = PersistentChannel::new(Channel::uniform(p, 20));
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let first = pc.apply(&mut rng, OwnerId(owner), Value(value));
        prop_assert!(first.code() < 20);
        for _ in 0..5 {
            prop_assert_eq!(pc.apply(&mut rng, OwnerId(owner), Value(value)), first);
        }
        prop_assert_eq!(pc.memoized(), 1);
    }

    /// EMD properties: identity, symmetry, bounded by 1, and ordered EMD
    /// bounded above by nominal EMD times (n−1)… (we check the standard
    /// bound nominal <= ordered * (n-1) instead, which holds for unit
    /// ground distances).
    #[test]
    fn emd_properties(pa in pdf_strategy(8), pb in pdf_strategy(8)) {
        let o = emd_ordered(&pa, &pb);
        let nm = emd_nominal(&pa, &pb);
        prop_assert!((emd_ordered(&pa, &pa)).abs() < 1e-12);
        prop_assert!((emd_nominal(&pa, &pa)).abs() < 1e-12);
        prop_assert!((o - emd_ordered(&pb, &pa)).abs() < 1e-12, "symmetry");
        prop_assert!((nm - emd_nominal(&pb, &pa)).abs() < 1e-12, "symmetry");
        prop_assert!((0.0..=1.0 + 1e-12).contains(&o));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&nm));
        // Moving mass one nominal unit costs at most a full ordered hop:
        // nominal <= ordered * (n - 1).
        prop_assert!(nm <= o * 7.0 + 1e-9);
    }

    /// The composition posterior is a pdf, and conditioning on more copies
    /// of the same observation concentrates mass on that value.
    #[test]
    fn composition_posterior_concentrates(
        p in 0.05f64..0.95,
        prior in pdf_strategy(10),
        y in 0u32..10,
        t in 1usize..30,
    ) {
        let ch = Channel::uniform(p, 10);
        let ys = vec![Value(y); t];
        let post_t = fresh_noise_posterior(&ch, &prior, &ys);
        let sum: f64 = post_t.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-9);
        let post_1 = fresh_noise_posterior(&ch, &prior, &ys[..1]);
        prop_assert!(
            post_t[y as usize] >= post_1[y as usize] - 1e-12,
            "more identical evidence cannot decrease the posterior of y"
        );
    }
}
