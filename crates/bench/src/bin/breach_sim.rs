//! Executable negative results (Lemmas 1–2) and Monte-Carlo validation of
//! the positive results (Theorems 1–3).
//!
//! * `--lemma1` — the Figure-1 `(1/2, 3)`-diverse group: an adversarial
//!   predicate reaches posterior confidence 1 from a prior of 5/99.
//! * `--lemma2` — conventional generalization of SAL under full corruption:
//!   the adversary reconstructs every victim's exact income bracket.
//! * `--theorems` — linking attacks with random corruption sets against PG
//!   releases never exceed the Theorem 2/3 bounds.
//!
//! With no switch, all three run. Flags: `--rows`, `--seed`, `--attacks`.

use acpp_attack::breach::{simulate, BreachSimConfig};
use acpp_attack::{lemmas, ExternalDatabase};
use acpp_bench::report::render_table;
use acpp_bench::{Args, BenchReport};
use acpp_core::{publish, GuaranteeParams, PgConfig};
use acpp_data::sal::{self, SalConfig};
use acpp_data::{Attribute, Domain, OwnerId, Schema, Table, Value};
use acpp_generalize::mondrian::{partition, MondrianConfig};
use acpp_generalize::{GroupId, Grouping};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn lemma1() {
    println!("== Lemma 1: (c,l)-diversity vs an adversarial predicate ==");
    // The paper's Figure 1 group: 11 tuples, disease domain of 100, values
    // 0..=4 respiratory, 5 = HIV.
    let schema = Schema::new(vec![
        Attribute::quasi("Q", Domain::indexed(1)),
        Attribute::sensitive("Disease", Domain::indexed(100)),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    let mut assignment = Vec::new();
    for (i, &v) in [0u32, 0, 0, 5, 5, 1, 1, 2, 2, 3, 4].iter().enumerate() {
        t.push_row(OwnerId(i as u32), &[Value(0), Value(v)]).unwrap();
        assignment.push(GroupId(0));
    }
    let grouping = Grouping::from_assignment(assignment, 1);
    assert!(acpp_generalize::principles::is_cl_diverse(&t, &grouping, 0.5, 3));
    println!("The group satisfies (1/2, 3)-diversity (Inequality 1).");
    let demo = lemmas::lemma1_breach(&t, &grouping, 0, &[Value(5)]).expect("lemma 1 premises hold");
    println!(
        "Adversary excludes HIV, targets Q = \"a respiratory disease\" \
         ({} qualifying values).",
        demo.predicate.values().len()
    );
    println!(
        "prior = {:.4} (= 5/99)   posterior = {:.4}",
        demo.prior, demo.posterior
    );
    assert_eq!(demo.posterior, 1.0);
    println!(
        "=> no {:.3}-to-x or (x - {:.3})-growth guarantee holds for any x < 1.\n",
        demo.prior, demo.prior
    );
}

fn lemma2(rows: usize, seed: u64) {
    println!("== Lemma 2: any generalization vs full corruption ==");
    let t = sal::generate(SalConfig { rows, seed });
    let (tree, _) = partition(&t, t.schema(), MondrianConfig::new(6)).expect("partition succeeds");
    let recoding = tree.into_recoding();
    let (grouping, _) = recoding.group(&t, &sal::qi_taxonomies());
    println!(
        "Conventional 6-anonymous Mondrian generalization of SAL ({rows} rows, \
         {} QI-groups), sensitive values published exactly.",
        grouping.group_count()
    );
    let mut rng = StdRng::seed_from_u64(seed ^ 0xD1CE);
    let victims: Vec<usize> =
        acpp_sample::sample_without_replacement(&mut rng, t.len(), 200.min(t.len()));
    let mut exact = 0usize;
    for &v in &victims {
        let demo = lemmas::lemma2_breach(&t, &grouping, v).expect("lemma 2 premises hold");
        if demo.inferred == demo.truth {
            exact += 1;
        }
    }
    println!(
        "Full-corruption adversary reconstructs the exact income bracket for \
         {exact}/{} random victims (posterior confidence 1 each).\n",
        victims.len()
    );
    assert_eq!(exact, victims.len());
}

fn theorems(rows: usize, seed: u64, attacks: usize) {
    println!("== Theorems 1-3: Monte-Carlo bound validation against PG ==");
    let t = sal::generate(SalConfig { rows, seed });
    let taxes = sal::qi_taxonomies();
    let us = t.schema().sensitive_domain_size();
    let lambda = 0.1;
    let rho1 = 0.2;
    let mut rng_ext = StdRng::seed_from_u64(seed ^ 0xE);
    let external = ExternalDatabase::with_extraneous(&t, rows / 10, &mut rng_ext);

    let header = vec![
        "p".to_string(),
        "k".to_string(),
        "attacks".to_string(),
        "max h".to_string(),
        "h_top".to_string(),
        "max growth".to_string(),
        "Delta bound".to_string(),
        "max post (prior<=0.2)".to_string(),
        "rho2 bound".to_string(),
        "breaches".to_string(),
    ];
    let mut rows_out = Vec::new();
    for (p, k) in [(0.3f64, 2usize), (0.3, 6), (0.3, 10), (0.15, 6), (0.45, 6)] {
        let gp = GuaranteeParams::new(p, k, lambda, us).expect("valid");
        let mut rng = StdRng::seed_from_u64(seed ^ ((p * 100.0) as u64) ^ (k as u64) << 8);
        let dstar =
            publish(&t, &taxes, PgConfig::new(p, k).expect("valid"), &mut rng).expect("publish");
        let cfg = BreachSimConfig {
            attacks,
            rho1,
            rho2: gp.min_rho2(rho1).expect("valid rho1"),
            delta: gp.min_delta().expect("valid params"),
            lambda,
        };
        let report = simulate(&t, &taxes, &dstar, &external, cfg, &mut rng).expect("D is a subset of E");
        rows_out.push(vec![
            format!("{p}"),
            format!("{k}"),
            format!("{}", report.attacks),
            format!("{:.4}", report.max_h),
            format!("{:.4}", gp.h_top()),
            format!("{:.4}", report.max_growth),
            format!("{:.4}", gp.min_delta().expect("valid params")),
            format!("{:.4}", report.max_posterior_under_rho1),
            format!("{:.4}", gp.min_rho2(rho1).expect("valid rho1")),
            format!("{}", report.rho_breaches + report.delta_breaches),
        ]);
        assert_eq!(report.rho_breaches, 0, "Theorem 2 violated at p={p}, k={k}");
        assert_eq!(report.delta_breaches, 0, "Theorem 3 violated at p={p}, k={k}");
    }
    println!("{}", render_table(&header, &rows_out));
    println!("No breach observed; measured maxima stay below the theoretical bounds.");
}

fn main() {
    let args = Args::from_env();
    let rows: usize = args.get("rows", 20_000);
    let seed: u64 = args.get("seed", 2008);
    let attacks: usize = args.get("attacks", 400);
    let mut bench = BenchReport::new("breach_sim");
    bench.config("rows", rows).config("seed", seed).config("attacks", attacks);
    let all = !(args.has("lemma1") || args.has("lemma2") || args.has("theorems"));
    if all || args.has("lemma1") {
        bench.phase("lemma1", 11, lemma1);
    }
    if all || args.has("lemma2") {
        bench.phase("lemma2", rows, || lemma2(rows, seed));
    }
    if all || args.has("theorems") {
        bench.phase("theorems", rows, || theorems(rows, seed, attacks));
    }
    bench.finish();
}
