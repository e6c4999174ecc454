//! Allocation regression test for the CSV reader.
//!
//! The reader parses a document in place: records and fields are slices of
//! it, and labels resolve through one index built per read. So the number
//! of allocations a read makes must not depend on the number of rows. The
//! line-copying reader it replaced made about one allocation per row. This
//! test pins that down with a counting global allocator.

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

/// Runs `f` with allocation counting on; returns its result and the number
/// of allocation calls.
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize) {
    CALLS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (out, CALLS.load(Ordering::SeqCst))
}

// Single test in this file: the integration-test harness runs tests on
// separate threads, and a concurrent test would pollute the counters.
#[test]
fn csv_read_allocations_do_not_scale_with_rows() {
    use acpp_data::csv;
    use acpp_data::sal::{self, SalConfig};

    let mut calls = Vec::new();
    for rows in [2_000, 20_000] {
        let table = sal::generate(SalConfig { rows, seed: 13 });
        // Every SAL row quotes its income label, so the quoted path is hot.
        let text = csv::to_string(&table, true).unwrap();
        let (back, n) = measured(|| csv::from_str(table.schema(), &text));
        assert_eq!(back.unwrap(), table);
        calls.push(n);
    }
    assert!(
        calls[1].abs_diff(calls[0]) < 64,
        "2k rows made {} allocations, 20k rows made {}",
        calls[0],
        calls[1]
    );
}
