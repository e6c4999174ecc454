//! CI gate for generalization scaling: fails the build when
//! `phase.generalize` loses its parallel structure.
//!
//! Three regressions this catches:
//!
//! 1. **Zero shard samples** in `phase.generalize` at either size — the
//!    Mondrian pool stopped reporting to the profiler (or the parallel
//!    path stopped engaging), so scaling claims would be unfalsifiable.
//! 2. **Low `parallel_fraction`** — the attributed profile says most of
//!    the phase wall is serial residue that perfect scaling cannot melt.
//!    The attribution divisor is `min(threads, host_cores)` (see
//!    `acpp_obs::prof`), so this is the *structural* parallelizable
//!    fraction and stays honest on core-starved CI runners.
//! 3. **Wall-clock inversion** — publishing with `--threads-high`
//!    workers takes longer than one worker. Only gated when the host
//!    actually has ≥ 2 cores: on a 1-core runner every thread count
//!    timeshares one core, so the comparison measures scheduler noise,
//!    not the engine. The measurement is still printed and recorded.
//!
//! Runs the profiler at two sizes (a parallel-path regression that only
//! shows up past the grain threshold is caught by the larger one).
//! Writes `BENCH_scaling_gate.json` and exits nonzero on any failure.
//!
//! Flags: `--sizes a,b` (default `24000,72000` — both above the
//! `2 × 4096` default-grain threshold so the frontier engages),
//! `--threads T` (profile thread count, default 4), `--threads-high H`
//! (wall-check worker count, default 4), `--min-pf F` (default 0.5),
//! `--reps R` (wall-check repetitions, min taken; default 2), `--seed`,
//! `--p`, `--k`.

use std::process::ExitCode;
use std::time::Instant;

use acpp_bench::{Args, BenchReport};
use acpp_core::{publish_robust_observed, DegradationPolicy, PgConfig, Threads};
use acpp_data::sal::{self, SalConfig};
use acpp_obs::{build_report, profiler, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

const GENERALIZE_PHASE: &str = "phase.generalize";

struct GateCheck {
    label: String,
    pass: bool,
    detail: String,
}

fn check(failures: &mut Vec<String>, bench: &mut BenchReport, c: GateCheck) {
    let verdict = if c.pass { "PASS" } else { "FAIL" };
    println!("[{verdict}] {}: {}", c.label, c.detail);
    bench.config(&c.label, format!("{verdict}: {}", c.detail));
    if !c.pass {
        failures.push(c.label);
    }
}

fn main() -> ExitCode {
    let args = Args::from_env();
    let sizes_spec: String = args.get("sizes", "24000,72000".to_string());
    let sizes: Vec<usize> = sizes_spec
        .split(',')
        .map(|s| {
            s.trim().parse().unwrap_or_else(|_| {
                panic!("--sizes expects a comma-separated list of row counts, got `{s}`")
            })
        })
        .collect();
    let threads: usize = args.get("threads", 4);
    let threads_high: usize = args.get("threads-high", 4);
    let min_pf: f64 = args.get("min-pf", 0.5);
    let reps: usize = args.get("reps", 2);
    let seed: u64 = args.get("seed", 2008);
    let p: f64 = args.get("p", 0.3);
    let k: usize = args.get("k", 8);
    let cfg = PgConfig::new(p, k).expect("valid PG configuration");
    let host_cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    let mut bench = BenchReport::new("scaling_gate");
    bench
        .meta_threads(threads)
        .config("sizes", &sizes_spec)
        .config("threads", threads)
        .config("threads_high", threads_high)
        .config("min_pf", min_pf)
        .config("host_cores", host_cores)
        .config("seed", seed)
        .config("p", p)
        .config("k", k);

    let mut failures: Vec<String> = Vec::new();
    let prof = profiler();

    for &rows in &sizes {
        eprintln!("profiling {rows} rows at {threads} threads…");
        let table = sal::generate(SalConfig { rows, seed });
        let taxes = sal::qi_taxonomies();
        let telemetry = Telemetry::enabled();
        prof.begin();
        let mut rng = StdRng::seed_from_u64(seed);
        let (published, _) = publish_robust_observed(
            &table,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            None,
            Threads::Fixed(threads),
            &mut rng,
            &telemetry,
        )
        .expect("publication succeeds");
        let samples = prof.take();
        assert!(!published.is_empty(), "gate run published nothing");
        let report = build_report(&telemetry.records(), &samples, threads)
            .expect("publication produced a closed span");
        let gen = report.phases.iter().find(|ph| ph.name == GENERALIZE_PHASE);

        let (shards, pf, wall_ms) =
            gen.map_or((0, 0.0, 0.0), |g| (g.shards, g.parallel_fraction, g.wall_us as f64 / 1e3));
        check(
            &mut failures,
            &mut bench,
            GateCheck {
                label: format!("samples_{rows}"),
                pass: shards > 0,
                detail: format!("{GENERALIZE_PHASE} reported {shards} shard samples"),
            },
        );
        check(
            &mut failures,
            &mut bench,
            GateCheck {
                label: format!("parallel_fraction_{rows}"),
                pass: shards > 0 && pf >= min_pf,
                detail: format!(
                    "{pf:.3} (min {min_pf:.2}; wall {wall_ms:.1} ms, divisor min({threads}, {host_cores}) = {})",
                    threads.min(host_cores)
                ),
            },
        );
    }

    // Wall-clock inversion check at the largest size.
    let rows = *sizes.iter().max().expect("at least one size");
    let table = sal::generate(SalConfig { rows, seed });
    let taxes = sal::qi_taxonomies();
    let wall = |t: usize| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps.max(1) {
            let mut rng = StdRng::seed_from_u64(seed);
            let started = Instant::now();
            let (out, _) = publish_robust_observed(
                &table,
                &taxes,
                cfg,
                DegradationPolicy::Abort,
                None,
                Threads::Fixed(t),
                &mut rng,
                &Telemetry::disabled(),
            )
            .expect("publication succeeds");
            best = best.min(started.elapsed().as_secs_f64());
            assert!(!out.is_empty());
        }
        best
    };
    eprintln!("wall check at {rows} rows: t1 vs t{threads_high} ({reps} reps)…");
    let t1 = wall(1);
    let th = wall(threads_high);
    bench.config("wall_t1_seconds", format!("{t1:.4}"));
    bench.config(&format!("wall_t{threads_high}_seconds"), format!("{th:.4}"));
    if host_cores >= 2 {
        check(
            &mut failures,
            &mut bench,
            GateCheck {
                label: "wall_not_inverted".to_string(),
                pass: th <= t1 * 1.15,
                detail: format!("t{threads_high} {th:.3}s vs t1 {t1:.3}s (tolerance 1.15×)"),
            },
        );
    } else {
        println!(
            "[SKIP] wall_not_inverted: host has {host_cores} core(s); \
             t{threads_high} {th:.3}s vs t1 {t1:.3}s recorded, not gated"
        );
        bench.config(
            "wall_not_inverted",
            format!("SKIP (1-core host): t{threads_high} {th:.4}s vs t1 {t1:.4}s"),
        );
    }

    bench.config("gate", if failures.is_empty() { "PASS" } else { "FAIL" });
    bench.finish();
    if failures.is_empty() {
        println!("scaling gate: PASS");
        ExitCode::SUCCESS
    } else {
        println!("scaling gate: FAIL ({})", failures.join(", "));
        ExitCode::FAILURE
    }
}
