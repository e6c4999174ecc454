//! Criterion micro-benchmarks of the Phase-2 algorithms in isolation:
//! Mondrian partitioning, TDS, grouping, and the anonymity checks.

use acpp_data::sal::{self, SalConfig};
use acpp_generalize::mondrian::{partition, MondrianConfig};
use acpp_generalize::principles::{is_cl_diverse, is_k_anonymous};
use acpp_generalize::tds::{generalize, TdsOptions};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_mondrian(c: &mut Criterion) {
    let mut group = c.benchmark_group("mondrian");
    group.sample_size(10);
    for rows in [5_000usize, 20_000, 50_000] {
        let table = sal::generate(SalConfig { rows, seed: 5 });
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| partition(&table, table.schema(), MondrianConfig::new(6)).unwrap());
        });
    }
    group.finish();
}

fn bench_tds(c: &mut Criterion) {
    let mut group = c.benchmark_group("tds");
    group.sample_size(10);
    for rows in [2_000usize, 10_000] {
        let table = sal::generate(SalConfig { rows, seed: 5 });
        let taxonomies = sal::qi_taxonomies();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rows), &rows, |b, _| {
            b.iter(|| generalize(&table, &taxonomies, TdsOptions::new(6)).unwrap());
        });
    }
    group.finish();
}

fn bench_grouping_and_principles(c: &mut Criterion) {
    let table = sal::generate(SalConfig { rows: 20_000, seed: 5 });
    let taxonomies = sal::qi_taxonomies();
    let (tree, _) = partition(&table, table.schema(), MondrianConfig::new(6)).unwrap();
    let recoding = tree.into_recoding();
    c.bench_function("group_20k", |b| {
        b.iter(|| recoding.group(&table, &taxonomies));
    });
    let (grouping, _) = recoding.group(&table, &taxonomies);
    c.bench_function("k_anonymity_check_20k", |b| {
        b.iter(|| is_k_anonymous(&grouping, 6));
    });
    c.bench_function("cl_diversity_check_20k", |b| {
        b.iter(|| is_cl_diverse(&table, &grouping, 0.5, 3));
    });
}

criterion_group!(benches, bench_mondrian, bench_tds, bench_grouping_and_principles);
criterion_main!(benches);
