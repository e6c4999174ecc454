//! Repair-vs-from-scratch timing for incremental republication.
//!
//! Publishes one full Mondrian release of a SAL table, then sweeps churn
//! rates: for each rate the same update batch (half departures, half
//! arrivals) is prepared twice — once through the retained-tree repair
//! path (`Republisher::prepare_delta`) and once by re-partitioning the
//! post-delta table from scratch (`Republisher::prepare_next`). Both
//! paths run in the same process on the same publisher state, so the
//! comparison isolates exactly the work the repair skips. The report's
//! `sweep` section is machine-readable — one object per churn rate with
//! `churn`, `repair_seconds`, `scratch_seconds`, `speedup`, and the
//! repair's leaf statistics (of `leaves_after` leaves, `carried_leaves`
//! republish the previous release's tuples) — which is what the CI delta
//! gate and the EXPERIMENTS recipe consume.
//!
//! Flags: `--rows N` (default 1 000 000; `ACPP_DELTA_ROWS` overrides the
//! default for harnesses that cannot pass flags), `--seed S`, `--p P`
//! (default 0.3), `--k K` (default 8), `--quick` (50 000 rows),
//! `--churn a,b,c` (fractions; default `0.001,0.01,0.1`), `--reps R`
//! (timing repetitions per point, minimum taken; default 3).

use acpp_bench::{Args, BenchReport, Series};
use acpp_core::{PgConfig, Threads};
use acpp_data::sal::{self, SalConfig};
use acpp_data::{OwnerId, Table};
use acpp_republish::{apply_updates, Republisher, Update};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// One churn level's measurements.
struct Point {
    churn: f64,
    batch: usize,
    repair_seconds: f64,
    scratch_seconds: f64,
    speedup: f64,
    dirty_leaves: usize,
    recuts: usize,
    merges: usize,
    gathered_rows: usize,
    leaves_after: usize,
    carried_leaves: usize,
}

/// Builds an update batch touching a `churn` fraction of the table:
/// half departures (owners spread evenly across the table, so the dirty
/// leaves are scattered rather than clustered) and half arrivals (rows
/// drawn from an independently generated SAL table, fresh owner ids).
fn churn_batch(table: &Table, donors: &Table, churn: f64) -> Vec<Update> {
    let n = table.len();
    let m = ((n as f64 * churn) as usize).max(2);
    let deletes = m / 2;
    let inserts = m - deletes;
    let mut updates = Vec::with_capacity(m);
    let stride = n / deletes.max(1);
    for i in 0..deletes {
        updates.push(Update::Delete(table.owner(i * stride)));
    }
    for i in 0..inserts {
        let row: Vec<_> = (0..donors.schema().arity()).map(|c| donors.value(i, c)).collect();
        updates.push(Update::Insert { owner: OwnerId((n + i) as u32 + 1_000_000_000), row });
    }
    updates
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let default_rows = match std::env::var("ACPP_DELTA_ROWS") {
        Ok(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("ACPP_DELTA_ROWS expects a row count, got `{v}`")),
        Err(_) => {
            if quick {
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
    let reps: usize = args.get("reps", 3);
    let churn_spec: String = args.get("churn", "0.001,0.01,0.1".to_string());
    let churns: Vec<f64> = churn_spec
        .split(',')
        .map(|c| {
            c.trim().parse().unwrap_or_else(|_| {
                panic!("--churn expects a comma-separated list of fractions, got `{c}`")
            })
        })
        .collect();
    let cfg = PgConfig::new(p, k).expect("valid PG configuration");

    let mut bench = BenchReport::new("delta");
    bench
        .config("rows", rows)
        .config("seed", seed)
        .config("p", p)
        .config("k", k)
        .config("reps", reps)
        .config("churn_swept", &churn_spec)
        .config("baseline_kind", "from_scratch_prepare");

    eprintln!("generating SAL ({rows} rows, seed {seed})…");
    let table = bench.phase("generate", rows, || sal::generate(SalConfig { rows, seed }));
    let donors = sal::generate(SalConfig { rows: rows / 8 + 16, seed: seed ^ 0x5a5a });
    let taxes = sal::qi_taxonomies();
    let us = table.schema().sensitive_domain_size();

    eprintln!("publishing the base release…");
    let mut publisher = Republisher::new(cfg, us)
        .expect("valid republisher")
        .with_threads(Threads::Fixed(1));
    let base = bench.phase("base_release", rows, || {
        let mut rng = StdRng::seed_from_u64(seed);
        publisher.publish_next(&table, &taxes, &mut rng).expect("base release publishes")
    });
    bench.config("base_tuples", base.len());

    eprintln!("sweeping {} churn rates ({reps} reps)…", churns.len());
    let points = bench.phase("sweep", rows, || {
        churns
            .iter()
            .map(|&churn| {
                let updates = churn_batch(&table, &donors, churn);
                let next =
                    apply_updates(&table, &updates).expect("churn batch applies cleanly");

                let mut repair_seconds = f64::MAX;
                let mut stats = None;
                for _ in 0..reps {
                    let mut rng = StdRng::seed_from_u64(seed + 1);
                    let t0 = Instant::now();
                    let prepared = publisher
                        .prepare_delta(&updates, &taxes, &mut rng)
                        .expect("delta prepares");
                    repair_seconds = repair_seconds.min(t0.elapsed().as_secs_f64());
                    stats = prepared.repair_stats();
                }
                let stats = stats.expect("delta releases carry repair stats");

                let mut scratch_seconds = f64::MAX;
                for _ in 0..reps {
                    let mut rng = StdRng::seed_from_u64(seed + 1);
                    let t0 = Instant::now();
                    publisher
                        .prepare_next(&next, &taxes, &mut rng)
                        .expect("from-scratch prepare succeeds");
                    scratch_seconds = scratch_seconds.min(t0.elapsed().as_secs_f64());
                }

                Point {
                    churn,
                    batch: updates.len(),
                    repair_seconds,
                    scratch_seconds,
                    speedup: scratch_seconds / repair_seconds,
                    dirty_leaves: stats.dirty_leaves,
                    recuts: stats.recuts,
                    merges: stats.merges,
                    gathered_rows: stats.gathered_rows,
                    leaves_after: stats.leaves_after,
                    carried_leaves: stats.carried_leaves,
                }
            })
            .collect::<Vec<_>>()
    });

    let mut series = Series::new("churn", points.iter().map(|pt| pt.churn).collect());
    series.curve("repair_s", points.iter().map(|pt| pt.repair_seconds).collect());
    series.curve("scratch_s", points.iter().map(|pt| pt.scratch_seconds).collect());
    series.curve("speedup", points.iter().map(|pt| pt.speedup).collect());
    series.curve("dirty_leaves", points.iter().map(|pt| pt.dirty_leaves as f64).collect());
    for pt in &points {
        bench.config(
            &format!("speedup_churn_{}", pt.churn),
            format!("{:.2}", pt.speedup),
        );
    }
    let sweep = points
        .iter()
        .map(|pt| {
            format!(
                "{{\"churn\": {}, \"batch\": {}, \"repair_seconds\": {:.6}, \
                 \"scratch_seconds\": {:.6}, \"speedup\": {:.4}, \"dirty_leaves\": {}, \
                 \"recuts\": {}, \"merges\": {}, \"gathered_rows\": {}, \"leaves_after\": {}, \
                 \"carried_leaves\": {}}}",
                pt.churn,
                pt.batch,
                pt.repair_seconds,
                pt.scratch_seconds,
                pt.speedup,
                pt.dirty_leaves,
                pt.recuts,
                pt.merges,
                pt.gathered_rows,
                pt.leaves_after,
                pt.carried_leaves,
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    bench.raw_section("sweep", format!("[\n    {sweep}\n  ]"));

    println!("== Delta repair vs from-scratch ({rows} rows, p = {p}, k = {k}) ==");
    println!("{}", series.render());
    bench.finish();
}
