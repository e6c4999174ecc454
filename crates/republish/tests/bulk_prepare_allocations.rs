//! Allocation test for a delta prepare at bulk churn that does not depend
//! on the host.
//!
//! A 10 % delta (5 % deletes spread by stride, 5 % fresh inserts) is
//! prepared against a 20k-row and a 200k-row SAL series at `k = 8`, and a
//! counting global allocator counts what `Republisher::prepare_delta`
//! allocates. A published tuple keeps its own `Signature` vector, so one
//! allocation per tuple is the floor. At this churn hundreds of regions
//! are re-cut and thousands elect, so the budget catches a repair or a
//! region assembly that allocates per region, per row chunk or per grown
//! member list rather than once per prepare.

use acpp_core::PgConfig;
use acpp_data::sal::{self, SalConfig};
use acpp_data::OwnerId;
use acpp_republish::{Republisher, Update};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static CALLS: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns its output and the
/// number of allocation calls (reallocations included).
fn counted<T>(f: impl FnOnce() -> T) -> (T, usize) {
    CALLS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (out, CALLS.load(Ordering::SeqCst))
}

/// Allocations of one 10 % delta prepare against a fresh `rows`-row
/// series, and the number of tuples the prepared release publishes.
fn prepare_allocations(rows: usize) -> (usize, usize) {
    let base = sal::generate(SalConfig { rows, seed: 2008 });
    let half = rows / 20;
    let donors = sal::generate(SalConfig { rows: half, seed: 777 });
    let taxes = sal::qi_taxonomies();
    let cfg = PgConfig::new(0.3, 8).expect("valid configuration");
    let us = base.schema().sensitive_domain_size();
    let mut publisher = Republisher::new(cfg, us).expect("valid configuration");
    let mut rng = StdRng::seed_from_u64(3);
    publisher.publish_next(&base, &taxes, &mut rng).expect("full release");
    // SAL owners are the row numbers: every 20th row departs, and as many
    // fresh owners arrive with rows from an independent draw.
    let updates: Vec<Update> = (0..half)
        .map(|i| Update::Delete(OwnerId((i * 20) as u32)))
        .chain(
            (0..half)
                .map(|i| Update::Insert { owner: OwnerId(1 << 30 | i as u32), row: donors.row(i) }),
        )
        .collect();
    let (prepared, calls) = counted(|| publisher.prepare_delta(&updates, &taxes, &mut rng));
    let prepared = prepared.expect("delta prepare");
    let stats = prepared.repair_stats().expect("a delta reports its repair");
    assert!(stats.recuts > 0, "{rows} rows: a 10 % delta must re-cut, {stats:?}");
    (calls, prepared.published().len())
}

// Single test in this file: the test harness runs tests on separate
// threads, and a concurrent test would pollute the process-wide counter.
#[test]
fn bulk_delta_prepare_allocations_stay_near_one_per_tuple() {
    for rows in [20_000usize, 200_000] {
        let (calls, tuples) = prepare_allocations(rows);
        let per_tuple = calls as f64 / tuples as f64;
        assert!(
            per_tuple <= 2.5,
            "{rows} rows: a 10 % prepare_delta made {calls} allocations for {tuples} tuples \
             ({per_tuple:.2} per tuple, budget 2.5)"
        );
    }
}
