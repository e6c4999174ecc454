//! Criterion micro-benchmarks of the parallel engine: full-pipeline
//! publication across a worker-count sweep, against the pre-PR sequential
//! baseline reimplemented in `acpp_bench::parallel`.

use acpp_bench::parallel::baseline_publish;
use acpp_core::{publish_robust_observed, DegradationPolicy, PgConfig, Threads};
use acpp_obs::Telemetry;
use acpp_data::sal::{self, SalConfig};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bench_parallel_publish(c: &mut Criterion) {
    let rows: usize = std::env::var("ACPP_PARALLEL_ROWS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20_000);
    let table = sal::generate(SalConfig { rows, seed: 1 });
    let taxonomies = sal::qi_taxonomies();
    let cfg = PgConfig::new(0.3, 8).unwrap();

    let mut group = c.benchmark_group("parallel_publish");
    group.sample_size(10);
    group.throughput(Throughput::Elements(rows as u64));

    group.bench_function(BenchmarkId::new("pre_pr_sequential", rows), |b| {
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(2);
            baseline_publish(&table, &taxonomies, cfg, &mut rng).unwrap()
        });
    });
    for threads in [1usize, 2, 4, 8] {
        group.bench_function(BenchmarkId::new(format!("engine_t{threads}"), rows), |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(2);
                publish_robust_observed(
                    &table,
                    &taxonomies,
                    cfg,
                    DegradationPolicy::Abort,
                    None,
                    Threads::Fixed(threads),
                    &mut rng,
                    &Telemetry::disabled(),
                )
                .unwrap()
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_parallel_publish);
criterion_main!(benches);
