//! Allocation regression test for the Mondrian partitioner.
//!
//! The pre-rewrite recursion materialized `all_rows: Vec<usize>` and cloned
//! two child row vectors at every split — `O(n · depth)` heap bytes. The
//! rewrite pivots disjoint ranges of one shared scratch buffer in place, so
//! total allocation during `partition` must stay a small constant factor of
//! the table size regardless of tree depth. This test pins that down with a
//! counting global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct CountingAlloc;

static BYTES: AtomicUsize = AtomicUsize::new(0);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static ENABLED: AtomicBool = AtomicBool::new(false);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            BYTES.fetch_add(layout.size(), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Ordering::Relaxed) {
            BYTES.fetch_add(new_size.saturating_sub(layout.size()), Ordering::Relaxed);
            CALLS.fetch_add(1, Ordering::Relaxed);
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` with allocation counting on; returns (bytes, calls).
fn measured<T>(f: impl FnOnce() -> T) -> (T, usize, usize) {
    BYTES.store(0, Ordering::SeqCst);
    CALLS.store(0, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    let out = f();
    ENABLED.store(false, Ordering::SeqCst);
    (out, BYTES.load(Ordering::SeqCst), CALLS.load(Ordering::SeqCst))
}

// Single test in this file: the integration-test harness runs tests on
// separate threads, and a concurrent test would pollute the counters.
#[test]
fn partition_allocates_linear_not_depth_scaled() {
    use acpp_data::sal::{self, SalConfig};
    use acpp_generalize::mondrian::{partition, MondrianConfig};

    let n = 50_000usize;
    let table = sal::generate(SalConfig { rows: n, seed: 21 });
    let schema = table.schema().clone();

    // k = 64 keeps the node count small (≤ 2n/k) so per-node terms stay
    // minor, while the tree is still ~10 levels deep — the regime where the
    // old code's per-split row-vector clones (8n bytes per level, ~4 MB
    // here) dominate everything else.
    let config = MondrianConfig::new(64);
    let (result, bytes, calls) = measured(|| partition(&table, &schema, config));
    let tree = result.expect("partition succeeds");
    drop(tree);

    // Budget: the scratch matrix holds each row's SAL QI codes plus its row
    // id, 4(d + 1) = 36 bytes per row, and the row→box assignment adds 4
    // more; histograms, box clones, dim-order scratch, and the node/box
    // arenas add small per-node terms. The pre-rewrite code allocated
    // O(n · depth) ≈ 8n·log2(n/k) bytes (~5.6 MB, 112 bytes/row here) in
    // cloned row vectors alone; 48 bytes/row (~2.4 MB) cleanly separates
    // the two regimes.
    let byte_budget = 48 * n;
    assert!(
        bytes <= byte_budget,
        "partition allocated {bytes} bytes for {n} rows (budget {byte_budget})"
    );

    // Call-count budget: a few allocations per tree node (box clones and
    // arena growth; the dimension-rank scratch is hoisted into the Cutter
    // since PR 9), with node count bounded by 2n/k + 1.
    let max_nodes = 2 * n / config.k + 1;
    let call_budget = 8 * max_nodes + 64;
    assert!(
        calls <= call_budget,
        "partition made {calls} allocations for {n} rows (budget {call_budget})"
    );

    // --- Parallel path: allocations must scale with the work
    // decomposition (chunks + subtree tasks + boxes) and the pool
    // (workers × passes), never with n·depth. Measured in the same test
    // function because the counters are process-global. ---
    let workers = 4usize;
    let par_cfg = MondrianConfig::new(64).with_threads(workers);
    let (result, par_bytes, par_calls) = measured(|| partition(&table, &schema, par_cfg));
    let (tree, stats) = result.expect("parallel partition succeeds");
    assert!(stats.tasks > 0, "parallel machinery must engage: {stats:?}");
    assert_eq!(tree.assignment().len(), n);
    let n_boxes = tree.len();

    // Byte budget: two ping-pong buffers at stride d+1 (72n here), the
    // atomic + plain assignment vectors (8n), per-chunk histogram partials
    // and pool plumbing. 120 bytes/row separates this cleanly from any
    // O(n · depth) regression (~8n per level, 10+ levels).
    let par_byte_budget = 120 * n;
    assert!(
        par_bytes <= par_byte_budget,
        "parallel partition allocated {par_bytes} bytes for {n} rows (budget {par_byte_budget})"
    );

    // Call budget: O(items) for chunk partials and task descriptors,
    // O(boxes) for the output arena, and O(workers · passes) for pool
    // spawn/merge plumbing — the pre-rewrite slot table locked a shared
    // Vec but also re-allocated per-task row vectors, O(tasks · grain).
    let passes = 2 * stats.levels + 4;
    let par_call_budget = 24 * stats.tasks + 8 * n_boxes + 64 * workers * passes + 512;
    assert!(
        par_calls <= par_call_budget,
        "parallel partition made {par_calls} allocations \
         (stats {stats:?}, boxes {n_boxes}, budget {par_call_budget})"
    );
}
