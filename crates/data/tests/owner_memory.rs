//! Memory bound of `Table::owners_distinct`.
//!
//! The check once sized a `Vec<bool>` by the largest owner id: 4 GiB for an
//! id near `u32::MAX`, whatever the row count. A counting allocator records
//! the largest single allocation the check makes, which must stay linear in
//! the rows.

use acpp_data::{Attribute, Domain, OwnerId, Schema, Table, Value};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct PeakAlloc;

static LARGEST: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for PeakAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    // Forwarded so a regression that asks for gigabytes of zeroed memory is
    // recorded without the pages being touched.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(layout.size(), Ordering::Relaxed);
        }
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            LARGEST.fetch_max(new_size, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: PeakAlloc = PeakAlloc;

// Single test in this file: the integration-test harness runs tests on
// separate threads, and a concurrent test would pollute the peak.
#[test]
fn owners_distinct_memory_is_linear_in_rows() {
    let schema = Schema::new(vec![
        Attribute::quasi("A", Domain::indexed(4)),
        Attribute::sensitive("S", Domain::indexed(4)),
    ])
    .unwrap();
    let mut t = Table::new(schema);
    for id in [u32::MAX - 1, 0, u32::MAX - 1] {
        t.push_row(OwnerId(id), &[Value(1), Value(2)]).unwrap();
    }
    LARGEST.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let distinct = t.owners_distinct();
    ENABLED.store(false, Ordering::SeqCst);
    assert!(!distinct, "owner {} appears twice", u32::MAX - 1);
    let largest = LARGEST.load(Ordering::SeqCst);
    assert!(largest < 64 * t.len(), "largest allocation {largest} bytes for {} rows", t.len());
}
