//! Regenerates the paper's Table II: the three phases of perturbed
//! generalization on the hospital microdata with p = 0.25 and s = 0.5
//! (hence k = 2) — `D^p` after perturbation, `D^g` after generalization,
//! and `D*` after stratified sampling.

use acpp_bench::hospital;
use acpp_bench::report::render_table;
use acpp_bench::{Args, BenchReport};
use acpp_core::{publish_with_trace, Phase2Algorithm, PgConfig, Threads};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    let args = Args::from_env();
    let seed: u64 = args.get("seed", 2008);
    let p: f64 = args.get("p", 0.25);
    let s: f64 = args.get("s", 0.5);
    let mut bench = BenchReport::new("table2");
    bench.config("seed", seed).config("p", p).config("s", s);

    let table = hospital::microdata();
    let taxonomies = hospital::taxonomies();
    let schema = table.schema();
    let cfg = PgConfig::from_sampling_rate(p, s)
        .expect("valid config")
        // The paper's running example generalizes along taxonomy cuts;
        // full-domain recoding reproduces Table IIb's uniform intervals.
        .with_algorithm(Phase2Algorithm::FullDomain);
    println!("Perturbed generalization with p = {p}, s = {s} (k = {}), seed = {seed}\n", cfg.k);

    let mut rng = StdRng::seed_from_u64(seed);
    let (dstar, trace) = bench.phase("publish", table.len(), || {
        publish_with_trace(&table, &taxonomies, cfg, Threads::Auto, &mut rng)
            .expect("publication succeeds")
    });

    // --- Table IIa: D^p. ---
    println!("== Table IIa: D^p after perturbation ==");
    let header: Vec<String> = std::iter::once("Owner".to_string())
        .chain(schema.attributes().iter().map(|a| a.name().to_string()))
        .chain(std::iter::once("(changed)".to_string()))
        .collect();
    let rows: Vec<Vec<String>> = trace
        .perturbed
        .rows()
        .map(|r| {
            let mut row = vec![hospital::PATIENTS[trace.perturbed.owner(r).index()].to_string()];
            for (c, attr) in schema.attributes().iter().enumerate() {
                row.push(attr.domain().label(trace.perturbed.value(r, c)).to_string());
            }
            row.push(
                if trace.perturbed.sensitive_value(r) == table.sensitive_value(r) {
                    ""
                } else {
                    "*"
                }
                .to_string(),
            );
            row
        })
        .collect();
    println!("{}", render_table(&header, &rows));

    // --- Table IIb: D^g. ---
    println!("== Table IIb: D^g after generalization ==");
    let header: Vec<String> = schema
        .qi_indices()
        .iter()
        .map(|&c| schema.attribute(c).name().to_string())
        .chain(std::iter::once(schema.sensitive().name().to_string()))
        .collect();
    let mut rows = Vec::new();
    for (gid, members) in trace.grouping.iter_nonempty() {
        for &r in members {
            let mut row: Vec<String> = (0..schema.qi_arity())
                .map(|pos| {
                    trace.recoding.label(
                        schema,
                        &taxonomies,
                        &trace.signatures[gid.index()],
                        pos,
                    )
                })
                .collect();
            row.push(
                schema
                    .sensitive()
                    .domain()
                    .label(trace.perturbed.sensitive_value(r))
                    .to_string(),
            );
            rows.push(row);
        }
    }
    println!("{}", render_table(&header, &rows));

    // --- Table IIc: D*. ---
    println!("== Table IIc: D* after stratified sampling ==");
    print!("{}", dstar.render(&taxonomies));
    println!(
        "\n|D*| = {} <= |D| * s = {}",
        dstar.len(),
        (table.len() as f64 * s) as usize
    );
    assert!(dstar.len() as f64 <= table.len() as f64 * s);
    bench.finish();
}
