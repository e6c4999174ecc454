//! Allocation regression test for `PublishedTable::render`.
//!
//! Render writes every label straight into one `String`, which grows by
//! doubling. So the number of allocations it makes grows with the log of
//! the number of tuples, not with the number itself.
//! The renderer it replaced built a `String` per label, per `,`→`;`
//! replacement and per group size: several allocations per field. This
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
fn render_allocations_do_not_scale_with_tuples() {
    use acpp_core::published::{PublishedTable, PublishedTuple};
    use acpp_data::taxonomy::Cut;
    use acpp_data::{Attribute, Domain, Schema, Taxonomy, Value};
    use acpp_generalize::Recoding;

    // Pairs of codes on `A` render as `[lo..hi]`, single codes on `B` as a
    // label, and the sensitive labels hold a comma that becomes `;`.
    let schema = Schema::new(vec![
        Attribute::quasi("A", Domain::indexed(4096)),
        Attribute::quasi("B", Domain::indexed(2)),
        Attribute::sensitive("S", Domain::nominal(["x,y", "z"])),
    ])
    .unwrap();
    let taxes = vec![Taxonomy::intervals(4096, 2), Taxonomy::intervals(2, 2)];
    let recoding = Recoding::Cuts(vec![
        Cut::at_depth(&taxes[0], 11),
        Cut::at_depth(&taxes[1], 1),
    ]);

    let mut calls = Vec::new();
    for tuples in [200u32, 2000] {
        let rows = (0..tuples)
            .map(|i| PublishedTuple {
                signature: recoding.signature(&taxes, &[Value(2 * i), Value(i % 2)]),
                sensitive: Value(i % 2),
                group_size: 2 + i as usize,
            })
            .collect();
        let table = PublishedTable::new(schema.clone(), recoding.clone(), rows, 0.3, 2);
        let (text, n) = measured(|| table.render(&taxes));
        assert_eq!(text.lines().count(), tuples as usize + 1);
        assert!(
            text.lines().nth(1).unwrap().starts_with("[0..1],0,x;y,2"),
            "{text:.40}"
        );
        calls.push(n);
    }
    assert!(
        calls[1].abs_diff(calls[0]) < 8,
        "200 tuples made {} allocations, 2000 tuples made {}",
        calls[0],
        calls[1]
    );
}
