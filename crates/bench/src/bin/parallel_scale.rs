//! Scaling curve for the deterministic parallel publication engine.
//!
//! Runs the full three-phase pipeline on one SAL table at a sweep of
//! worker-pool sizes and reports each point's speedup over the same engine
//! at one worker, timed in the same run (`baseline_kind = engine_t1` in the
//! report). The
//! report's `scaling` section is a machine-readable array — one object
//! per swept count with `threads`, `seconds`, `rows_per_sec`, `speedup` —
//! which is what the CI scaling gate and the EXPERIMENTS recipes consume.
//!
//! Flags: `--rows N` (default 1 000 000; `ACPP_PARALLEL_ROWS` overrides
//! the default for harnesses that cannot pass flags), `--seed S`,
//! `--p P` (default 0.3), `--k K` (default 8), `--quick` (50 000 rows),
//! `--huge` (the 10 000 000-row tier, reps dropped to 1),
//! `--threads a,b,c` (default `1,2,4,8`), `--reps R` (timing repetitions
//! per point, minimum taken; default 3, or 1 with `--huge`).

use acpp_bench::parallel::{run_scaling_with_reps, BASELINE_KIND, TIMING_REPS};
use acpp_bench::{Args, BenchReport, Series};
use acpp_core::PgConfig;
use acpp_data::sal::{self, SalConfig};

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let huge = args.has("huge");
    let default_rows = match std::env::var("ACPP_PARALLEL_ROWS") {
        Ok(v) => v.parse().unwrap_or_else(|_| {
            panic!("ACPP_PARALLEL_ROWS expects a row count, got `{v}`")
        }),
        Err(_) => {
            if huge {
                10_000_000
            } else if quick {
                50_000
            } else {
                1_000_000
            }
        }
    };
    let rows: usize = args.get("rows", default_rows);
    let seed: u64 = args.get("seed", 2008);
    let p: f64 = args.get("p", 0.3);
    let k: usize = args.get("k", 8);
    let reps: usize = args.get("reps", if huge { 1 } else { TIMING_REPS });
    let threads_spec: String = args.get("threads", "1,2,4,8".to_string());
    let thread_counts: Vec<usize> = threads_spec
        .split(',')
        .map(|t| {
            t.trim().parse().unwrap_or_else(|_| {
                panic!("--threads expects a comma-separated list of counts, got `{t}`")
            })
        })
        .collect();
    let cfg = PgConfig::new(p, k).expect("valid PG configuration");

    let mut bench = BenchReport::new("parallel");
    bench
        .config("rows", rows)
        .config("seed", seed)
        .config("p", p)
        .config("k", k)
        .config("reps", reps)
        .config("threads_swept", &threads_spec)
        .config("baseline_kind", BASELINE_KIND);

    eprintln!("generating SAL ({rows} rows, seed {seed})…");
    let table = bench.phase("generate", rows, || sal::generate(SalConfig { rows, seed }));
    let taxes = sal::qi_taxonomies();

    eprintln!("sweeping one worker + {} worker counts ({reps} reps)…", thread_counts.len());
    let run = bench
        .phase("sweep", rows, || {
            run_scaling_with_reps(&table, &taxes, cfg, seed, &thread_counts, reps)
        })
        .expect("scaling run succeeds");

    bench.config("baseline_seconds", format!("{:.6}", run.baseline_seconds));
    bench.config("released_tuples", run.baseline_tuples);
    let mut series = Series::new(
        "threads",
        run.points.iter().map(|pt| pt.threads as f64).collect(),
    );
    series.curve("seconds", run.points.iter().map(|pt| pt.seconds).collect());
    series.curve("rows_per_sec", run.points.iter().map(|pt| pt.rows_per_sec).collect());
    series.curve("speedup", run.points.iter().map(|pt| pt.speedup).collect());
    for pt in &run.points {
        bench.config(&format!("speedup_t{}", pt.threads), format!("{:.2}", pt.speedup));
    }
    bench.raw_section("scaling", run.scaling_json());

    println!("== Parallel engine scaling ({rows} rows, p = {p}, k = {k}) ==");
    println!("baseline ({BASELINE_KIND}): {:.3}s", run.baseline_seconds);
    println!("{}", series.render());
    bench.finish();
}
