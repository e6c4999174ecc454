//! Property-based tests (proptest) over the core invariants of every
//! substrate: the perturbation channel, the guarantee calculus, taxonomies
//! and cuts, Mondrian partitioning, the posterior analysis, and CSV I/O.

use acpp::attack::{BackgroundKnowledge, CorruptionSet, PosteriorAnalysis};
use acpp::core::published::PublishedTuple;
use acpp::core::{
    validate_guarantee_request, FaultKind, FaultPlan, GuaranteeParams, PublishedTable,
};
use acpp::data::taxonomy::Cut;
use acpp::data::{csv, Attribute, Domain, OwnerId, Schema, Table, Taxonomy, Value};
use acpp::generalize::mondrian::{partition, MondrianConfig};
use acpp::generalize::principles::is_k_anonymous;
use acpp::generalize::Recoding;
use acpp::perturb::{gamma, invert_uniform, max_safe_rho2, Channel};
use proptest::prelude::*;

/// A probability vector of the given length.
fn pdf_strategy(n: usize) -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(0.01f64..1.0, n).prop_map(|raw| {
        let s: f64 = raw.iter().sum();
        raw.into_iter().map(|x| x / s).collect()
    })
}

proptest! {
    #[test]
    fn channel_rows_are_stochastic(p in 0.0f64..=1.0, n in 1u32..40) {
        let ch = Channel::uniform(p, n);
        for a in 0..n {
            let s: f64 = ch.row(Value(a)).iter().sum();
            prop_assert!((s - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn channel_posterior_is_a_distribution(
        p in 0.0f64..0.999,
        prior in pdf_strategy(12),
        y in 0u32..12,
    ) {
        let ch = Channel::uniform(p, 12);
        let post = ch.posterior(&prior, Value(y));
        let s: f64 = post.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        prop_assert!(post.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
        // Bayes never resurrects zero-prior mass.
        for (a, b) in prior.iter().zip(&post) {
            if *a == 0.0 {
                prop_assert_eq!(*b, 0.0);
            }
        }
    }

    #[test]
    fn inversion_is_left_inverse_of_the_channel(
        p in 0.05f64..=1.0,
        orig in pdf_strategy(10),
    ) {
        let ch = Channel::uniform(p, 10);
        let out = ch.output_distribution(&orig);
        let back = invert_uniform(&ch, &out);
        let tv: f64 = orig.iter().zip(&back).map(|(a, b)| (a - b).abs()).sum::<f64>() / 2.0;
        prop_assert!(tv < 1e-9, "tv = {tv}");
    }

    #[test]
    fn amplification_bounds_are_ordered(
        p in 0.0f64..0.999,
        n in 2u32..100,
        rho1 in 0.01f64..0.9,
    ) {
        let g = gamma(p, n);
        prop_assert!(g >= 1.0);
        let r2 = max_safe_rho2(rho1, g);
        prop_assert!(r2 >= rho1 - 1e-12, "certified rho2 below rho1");
        prop_assert!(r2 < 1.0 + 1e-12);
    }

    #[test]
    fn guarantee_surface_is_sane(
        p in 0.0f64..=1.0,
        k in 1usize..20,
        lambda_scale in 0.0f64..=1.0,
    ) {
        let us = 50u32;
        // λ ranges over its legal interval [1/us, 1].
        let lambda = 1.0 / us as f64 + lambda_scale * (1.0 - 1.0 / us as f64);
        let gp = GuaranteeParams::new(p, k, lambda, us).unwrap();
        let d = gp.min_delta().unwrap();
        prop_assert!((0.0..=1.0).contains(&d));
        let r = gp.min_rho2(0.2).unwrap();
        prop_assert!((0.2 - 1e-12..=1.0).contains(&r));
        prop_assert!((0.0..=1.0 + 1e-12).contains(&gp.h_top()));
        // Monotonicity in p at fixed k.
        if p < 0.99 {
            let gp2 = GuaranteeParams::new((p + 0.01).min(1.0), k, lambda, us).unwrap();
            prop_assert!(gp2.min_delta().unwrap() >= d - 1e-9);
            prop_assert!(gp2.min_rho2(0.2).unwrap() >= r - 1e-9);
        }
    }

    #[test]
    fn interval_taxonomies_are_valid(n in 1u32..200, fanout in 2u32..8) {
        let t = Taxonomy::intervals(n, fanout);
        prop_assert!(t.check().is_ok());
        for depth in 0..=t.height() {
            let cut = Cut::at_depth(&t, depth);
            for code in 0..n {
                let node = cut.generalize(&t, code);
                prop_assert!(t.node(node).contains(code));
            }
        }
    }

    #[test]
    fn cut_specialization_preserves_the_partition(
        n in 2u32..64,
        fanout in 2u32..5,
        steps in 0usize..20,
    ) {
        let t = Taxonomy::intervals(n, fanout);
        let mut cut = Cut::coarsest(&t);
        for i in 0..steps {
            let target = cut
                .nodes()
                .iter()
                .copied()
                .find(|&id| !t.node(id).is_leaf());
            let Some(target) = target else { break };
            cut = cut.specialize(&t, target).unwrap();
            // Partition property: re-validate via Cut::new.
            prop_assert!(Cut::new(&t, cut.nodes().to_vec()).is_ok(), "step {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn mondrian_is_k_anonymous_on_random_tables(
        rows in 20usize..200,
        k in 1usize..8,
        seed in 0u64..1000,
    ) {
        use rand::{Rng, SeedableRng};
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(16)),
            Attribute::quasi("B", Domain::indexed(9)),
            Attribute::sensitive("S", Domain::indexed(5)),
        ]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut table = Table::new(schema);
        for i in 0..rows {
            table.push_row(OwnerId(i as u32), &[
                Value(rng.gen_range(0..16)),
                Value(rng.gen_range(0..9)),
                Value(rng.gen_range(0..5)),
            ]).unwrap();
        }
        prop_assume!(rows >= k);
        let taxes = vec![Taxonomy::intervals(16, 2), Taxonomy::intervals(9, 3)];
        let recoding = partition(&table, table.schema(), MondrianConfig::new(k)).unwrap();
        let (grouping, _) = recoding.group(&table, &taxes);
        prop_assert!(is_k_anonymous(&grouping, k));
        prop_assert!(grouping.validate());
        // Total function: arbitrary points locate in exactly one region.
        if let Recoding::Boxes(part) = &recoding {
            for _ in 0..20 {
                let pt = [Value(rng.gen_range(0..16)), Value(rng.gen_range(0..9))];
                prop_assert!(part.locate(&pt) < part.len());
            }
        }
    }

    #[test]
    fn posterior_analysis_is_bounded_by_h_top(
        p in 0.0f64..0.95,
        group_size in 2usize..10,
        extra_candidates in 0usize..6,
        prior in pdf_strategy(8),
        y in 0u32..8,
        corrupt_values in proptest::collection::vec(0u32..8, 0..4),
    ) {
        let n = 8u32;
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(4)),
            Attribute::sensitive("S", Domain::indexed(n)),
        ]).unwrap();
        let taxes = vec![Taxonomy::intervals(4, 2)];
        let recoding = Recoding::Cuts(vec![Cut::coarsest(&taxes[0])]);
        let sig = recoding.signature(&taxes, &[Value(0)]);
        let published = PublishedTable::new(
            schema.clone(),
            recoding,
            vec![PublishedTuple { signature: sig, sensitive: Value(y), group_size }],
            p,
            group_size,
        );
        let e = group_size - 1 + extra_candidates;
        prop_assume!(e >= 1);
        let candidates: Vec<OwnerId> = (1..=e as u32).map(OwnerId).collect();
        // Corrupt a prefix of the candidates with arbitrary known values,
        // never more than can coexist with the victim in the group.
        let mut corruption = CorruptionSet::none();
        let mut helper = Table::new(schema);
        for (i, &v) in corrupt_values.iter().take(group_size - 1).enumerate() {
            helper.push_row(OwnerId(i as u32 + 1), &[Value(0), Value(v)]).unwrap();
            corruption.corrupt(&helper, OwnerId(i as u32 + 1));
        }
        let knowledge = BackgroundKnowledge::from_pdf(prior);
        let analysis = PosteriorAnalysis::analyze(
            &published, 0, &knowledge, &candidates, &corruption, None,
        )
        .unwrap();
        // The posterior is a distribution.
        let s: f64 = analysis.posterior.iter().sum();
        prop_assert!((s - 1.0).abs() < 1e-9);
        // h is bounded by h_top at λ = the prior's actual skew.
        let lambda = knowledge.skew();
        let gp = GuaranteeParams::new(p, group_size, lambda, n).unwrap();
        prop_assert!(
            analysis.h <= gp.h_top() + 1e-9,
            "h = {} > h_top = {}", analysis.h, gp.h_top()
        );
    }

    #[test]
    fn guarantee_calculus_is_finite_on_the_valid_space(
        p in 0.001f64..=1.0,
        k in 1usize..30,
        lambda_scale in 0.0f64..=1.0,
        us in 2u32..200,
        w_scale in 0.001f64..=1.0,
    ) {
        // λ ranges over its legal interval [1/|U^s|, 1].
        let lambda = 1.0 / us as f64 + lambda_scale * (1.0 - 1.0 / us as f64);
        // The entry gate accepts the whole valid space...
        let gp = validate_guarantee_request(p, k, lambda, us).unwrap();
        // ...and everything it derives is finite and in range.
        let h = gp.h_top();
        prop_assert!(h.is_finite() && 0.0 < h && h <= 1.0, "h_top = {h}");
        let w_m = gp.w_m();
        prop_assert!(w_m.is_finite() && w_m >= 0.0, "w_m = {w_m}");
        let w = w_scale * lambda; // F is evaluated on (0, λ]
        let f = gp.f_growth(w);
        prop_assert!(f.is_finite() && f >= 0.0, "F({w}) = {f}");
        let d = gp.min_delta().unwrap();
        prop_assert!(d.is_finite() && (0.0..=1.0).contains(&d));
        let r = gp.min_rho2(0.3).unwrap();
        prop_assert!(r.is_finite() && (0.3 - 1e-12..=1.0).contains(&r));
    }

    #[test]
    fn fault_plans_are_pure_functions_of_the_seed(
        seed in 0u64..10_000,
        n in 0usize..500,
        intensity in 1usize..8,
    ) {
        for kind in FaultKind::ALL {
            let a = FaultPlan::new(seed).with(kind).with_intensity(intensity);
            let b = FaultPlan::new(seed).with(kind).with_intensity(intensity);
            let ua = a.pick_units(kind, n);
            prop_assert!(ua == b.pick_units(kind, n), "{kind:?}");
            // Units are distinct, sorted, in range, and capped by intensity.
            prop_assert!(ua.len() <= intensity.min(n));
            prop_assert!(ua.windows(2).all(|w| w[0] < w[1]));
            prop_assert!(ua.iter().all(|&u| u < n));
            // Activating other kinds does not perturb this kind's picks.
            let c = FaultPlan::everything(seed).with_intensity(intensity);
            prop_assert!(ua == c.pick_units(kind, n), "{kind:?} not independent");
        }
    }

    #[test]
    fn lossy_csv_is_lossless_on_clean_documents(
        rows in 0usize..40,
        seed in 0u64..300,
    ) {
        use rand::{Rng, SeedableRng};
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::int_range(0, 9)),
            Attribute::sensitive("S", Domain::indexed(5)),
        ]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut table = Table::new(schema.clone());
        for i in 0..rows {
            table.push_row(OwnerId(i as u32 + 1), &[
                Value(rng.gen_range(0..10)),
                Value(rng.gen_range(0..5)),
            ]).unwrap();
        }
        let text = csv::to_string(&table, true).unwrap();
        let lossy = csv::from_str_lossy(&schema, &text).unwrap();
        prop_assert!(lossy.is_complete());
        prop_assert_eq!(lossy.rows_skipped, 0);
        prop_assert_eq!(lossy.table, table);
    }

    #[test]
    fn csv_round_trips_random_tables(
        rows in 0usize..60,
        seed in 0u64..500,
    ) {
        use rand::{Rng, SeedableRng};
        // Labels exercise the quoting paths: commas, quotes, newlines, and
        // a CRLF inside quotes.
        let nasty = ["plain", "with,comma", "with\"quote", "multi\nline", "x", "multi\r\nline"];
        let schema = Schema::new(vec![
            Attribute::quasi("N", Domain::nominal(nasty)),
            Attribute::quasi("A", Domain::int_range(-3, 6)),
            Attribute::sensitive("S", Domain::indexed(7)),
        ]).unwrap();
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut table = Table::new(schema.clone());
        for i in 0..rows {
            table.push_row(OwnerId(i as u32 * 3 + 1), &[
                Value(rng.gen_range(0..nasty.len() as u32)),
                Value(rng.gen_range(0..10)),
                Value(rng.gen_range(0..7)),
            ]).unwrap();
        }
        let text = csv::to_string(&table, true).unwrap();
        let back = csv::from_str(&schema, &text).unwrap();
        prop_assert_eq!(back, table);
    }
}
