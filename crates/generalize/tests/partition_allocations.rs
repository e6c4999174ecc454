//! Allocation test for the sequential Mondrian build that does not depend
//! on the host: the number of allocation calls `partition` makes must not
//! grow with the table.
//!
//! The recursion pivots ranges of one scratch matrix in place and narrows
//! one mutable box per split, and every box lands in flat arenas, so a
//! tenfold larger table only adds the few doublings of those arenas. A
//! build that allocated per split or per box would add thousands.

use acpp_data::sal::{self, SalConfig};
use acpp_generalize::mondrian::{partition, MondrianConfig};
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

/// Allocation calls (reallocations included) of one sequential `partition`
/// of a `rows`-row SAL table at `k = 8`.
fn partition_allocations(rows: usize) -> usize {
    let table = sal::generate(SalConfig { rows, seed: 21 });
    let schema = table.schema().clone();
    CALLS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let recoding = partition(&table, &schema, MondrianConfig::new(8));
    ENABLED.store(false, Ordering::SeqCst);
    recoding.expect("partition succeeds");
    CALLS.load(Ordering::SeqCst)
}

// Single test in this file: the test harness runs tests on separate
// threads, and a concurrent test would pollute the process-wide counter.
#[test]
fn sequential_partition_allocations_do_not_grow_with_rows() {
    let small = partition_allocations(20_000);
    let large = partition_allocations(200_000);
    assert!(
        large.abs_diff(small) < 64,
        "partition made {small} allocations at 20k rows and {large} at 200k"
    );
}
