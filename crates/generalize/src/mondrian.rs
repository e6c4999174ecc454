//! Mondrian-style multidimensional global recoding (LeFevre et al.,
//! ICDE 2006 — reference [16] of the paper, one of the algorithms the paper
//! names as usable for Phase 2).
//!
//! The QI space is recursively split by axis-aligned median cuts while every
//! side retains at least `k` tuples ("strict" Mondrian). The result is a
//! [`BoxPartition`]: a set of disjoint boxes covering the *entire* QI space,
//! which makes the recoding a total function and therefore a global recoding
//! in the sense of property G3. Because the boxes adapt to the data, the
//! partition is far finer than single-dimensional cut products at equal `k`
//! — this is what keeps PG's utility near the `optimistic` baseline in the
//! paper's Figure 2.
//!
//! # Execution model
//!
//! Row sets are **disjoint ranges of a shared row-major scratch matrix**:
//! `n` rows, each its `d` QI codes followed by its row id (`d + 1` words).
//! The recursion allocates no per-child row vectors,
//! and because a node's rows are *contiguous in memory*, every histogram
//! and partition pass is a sequential scan. Boxes are flat too: every
//! box's bounds sit in one `Vec<u32>` with stride `2d` (see [`QiBox`]),
//! and the recursion narrows one mutable box per worker in place. With
//! [`MondrianConfig::with_threads`] the build runs in two parallel stages:
//!
//! * **Stage A (frontier):** nodes at or above the
//!   [grain](MondrianConfig::with_grain) are processed level-synchronously
//!   with *intra-node* parallelism. Each level runs two data-parallel
//!   passes over fixed-size row chunks: (1) fused per-chunk histograms of
//!   every dimension, merged per node by exact integer reduction, from
//!   which the coordinator picks each node's cut; (2) a counting +
//!   prefix-sum + stable out-of-place scatter that partitions each split
//!   node's rows into a **ping-pong** second buffer (children of parity-`p`
//!   nodes live in the other buffer, tracked per leaf). There is no pivot
//!   serialization: a 1M-row root is histogrammed and scattered by every
//!   worker at once.
//! * **Stage B (subtrees):** nodes that fall below the grain become
//!   independent sequential subtree tasks, executed by a worker pool in
//!   which each worker reuses one `Cutter` (histogram + dimension-rank
//!   buffers), one `SeqArena` and one mutable box across all its tasks —
//!   per-task allocations are O(1), and there is no shared mutable slot
//!   table to lock: results return by value and the coordinator writes
//!   them. [`RetainedTree::apply_delta`] re-cuts its regions on the same
//!   runner.
//!
//! A sequential pre-order flatten then reproduces **exactly** the node and
//! box ordering of the plain sequential recursion. Determinism argument:
//! cut choices are functions of per-node histograms, which are exact
//! integer sums over a fixed chunk decomposition — independent of worker
//! schedule and thread count; the scatter is stable within and across
//! chunks, and no downstream decision reads row order anyway. Hence
//! `partition` is byte-identical for every thread count, including 1
//! (the sequential recursion picks the same cuts from the same
//! histograms). When the global profiler ([`acpp_obs::prof`]) is
//! collecting, every chunk/task of every pass records a sample under
//! [`PROF_PHASE`], which is how `phase.generalize` gets a measured
//! `parallel_fraction`.

use crate::error::GeneralizeError;
use crate::par::run_items;
use crate::scheme::{
    box_bounds, boxes_bounds, cover, full_bounds, set_high, set_low, BoxPartition, QiBox, Recoding,
    SplitNode,
};
use acpp_data::{Schema, Table};
use std::ops::Range;
use std::sync::atomic::{AtomicU32, Ordering};

/// Profiler phase label for every parallel Mondrian pass. Matches the
/// `phase.generalize` span the pipeline opens around Phase 2, so
/// [`acpp_obs::build_report`] joins the samples to that phase.
pub const PROF_PHASE: &str = "phase.generalize";

/// Configuration for the Mondrian partitioner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MondrianConfig {
    /// Minimum tuples per box (property G2: `k`-anonymity of `D^g`).
    pub k: usize,
    /// Worker threads for the build. `1` (the default) runs the plain
    /// sequential recursion with no pool; any value produces byte-identical
    /// output.
    pub threads: usize,
    /// Rows at or above which a node is built by the parallel frontier
    /// machinery instead of a sequential subtree task. Defaults to
    /// [`PAR_GRAIN_ROWS`]; lowering it (tests do) exercises the parallel
    /// histogram/scatter path at tiny `n` without changing the output.
    pub grain: usize,
}

impl MondrianConfig {
    /// Creates a config with the given `k` (sequential execution).
    pub fn new(k: usize) -> Self {
        MondrianConfig { k, threads: 1, grain: PAR_GRAIN_ROWS }
    }

    /// Sets the worker-thread count (clamped to at least 1).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the parallel grain in rows (clamped to at least 2). Output is
    /// invariant to this knob; only the work decomposition changes.
    pub fn with_grain(mut self, grain: usize) -> Self {
        self.grain = grain.max(2);
        self
    }

    /// The effective grain (at least `2k`, so a below-grain task can always
    /// decide leaf-vs-split locally) and the fixed intra-node chunk size
    /// derived from it. Both depend only on the config — never on the
    /// thread count — which is what keeps chunk boundaries deterministic.
    fn grains(&self) -> (usize, usize) {
        let grain = self.grain.max(2 * self.k).max(2);
        (grain, (grain / 2).max(16))
    }
}

/// Default for [`MondrianConfig::grain`]: nodes smaller than this are built
/// sequentially by one worker; keeps task overhead amortized over real work.
pub const PAR_GRAIN_ROWS: usize = 4096;

/// The split decision at one recursion step.
struct CutChoice {
    dim: usize,
    cut: u32,
}

/// Shared, read-only parameters plus the per-worker reusable buffers of
/// the recursion. Cut selection depends only on the row *set* (per-dim
/// histograms), so any two `Cutter`s over the same matrix make identical
/// decisions — the keystone of parallel determinism.
///
/// Rows are handed around as row-major slices of the scratch matrix:
/// `rows.len() == n · stride`, row `i` at `rows[i*stride .. i*stride + d]`.
struct Cutter<'a> {
    /// QI arity (always ≥ 1 on this path; `d == 0` short-circuits before a
    /// `Cutter` is ever built).
    d: usize,
    /// Matrix row width, `d + 1`: the `d` QI codes, then the row id.
    stride: usize,
    domain_sizes: &'a [u32],
    k: usize,
    /// Reusable flat buffer holding all `d` per-dimension histograms of the
    /// current node back to back; `offsets[dim]` is dim's first bin.
    hist: Vec<usize>,
    offsets: Vec<usize>,
    /// Reusable dimension-preference buffer (was a fresh `Vec` per node).
    dim_rank: Vec<(usize, f64)>,
}

impl<'a> Cutter<'a> {
    fn new(domain_sizes: &'a [u32], k: usize) -> Self {
        let d = domain_sizes.len();
        Cutter {
            d,
            stride: d + 1,
            domain_sizes,
            k,
            hist: Vec::new(),
            offsets: Vec::new(),
            dim_rank: Vec::new(),
        }
    }

    /// Fills `offsets` for the box and returns the total bin count.
    fn fill_offsets(&mut self, bx: QiBox<'_>) -> usize {
        self.offsets.clear();
        let mut total = 0usize;
        for dim in 0..self.d {
            self.offsets.push(total);
            total += bx.span(dim) as usize;
        }
        total
    }

    /// The split this row range takes, if any: the first dimension in
    /// preference order (descending normalized data range) admitting a
    /// valid cut. `None` means leaf.
    ///
    /// One fused pass histograms **every** dimension over its box range;
    /// everything else is read off the histograms by
    /// [`Cutter::choose_from_hist`] without touching the rows again.
    fn choose(&mut self, rows: &[u32], bx: QiBox<'_>) -> Option<CutChoice> {
        let n = rows.len() / self.stride;
        if n < 2 * self.k {
            return None;
        }
        let total = self.fill_offsets(bx);
        self.hist.clear();
        self.hist.resize(total, 0);
        let lows = bx.lows();
        for row in rows.chunks_exact(self.stride) {
            for (dim, &code) in row[..self.d].iter().enumerate() {
                self.hist[self.offsets[dim] + (code - lows[dim]) as usize] += 1;
            }
        }
        self.choose_from_hist(n, bx)
    }

    /// The split decision given an already-filled `hist`/`offsets` pair
    /// (either by [`Cutter::choose`]'s fused pass or by the parallel
    /// frontier's chunk-histogram reduction — both produce the same exact
    /// counts, so both paths decide identically).
    fn choose_from_hist(&mut self, n: usize, bx: QiBox<'_>) -> Option<CutChoice> {
        if n < 2 * self.k {
            return None;
        }
        // Dimension preference: descending normalized data range, ties in
        // dimension order (the sort is stable).
        let mut dim_rank = std::mem::take(&mut self.dim_rank);
        dim_rank.clear();
        for dim in 0..self.d {
            let bins = self.bins(dim, bx);
            let mn = bins.iter().position(|&c| c > 0).unwrap_or(0);
            let mx = bins.iter().rposition(|&c| c > 0).unwrap_or(0);
            let denom = (self.domain_sizes[dim].max(2) - 1) as f64;
            dim_rank.push((dim, (mx - mn) as f64 / denom));
        }
        dim_rank.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        let mut chosen = None;
        for &(dim, _) in &dim_rank {
            if let Some(cut) = self.find_cut(n, dim, bx) {
                chosen = Some(CutChoice { dim, cut });
                break;
            }
        }
        self.dim_rank = dim_rank;
        chosen
    }

    /// Dim's histogram bins for the current node (valid after the fused
    /// pass in [`Cutter::choose`]).
    fn bins(&self, dim: usize, bx: QiBox<'_>) -> &[usize] {
        let start = self.offsets[dim];
        let width = bx.span(dim) as usize;
        &self.hist[start..start + width]
    }

    /// Median-closest valid cut for `dim` from its histogram: a value `c`
    /// with `lo <= c < hi` such that both `code <= c` and `code > c` sides
    /// hold at least `k` rows.
    fn find_cut(&self, n: usize, dim: usize, bx: QiBox<'_>) -> Option<u32> {
        let lo = bx.lows()[dim];
        let bins = self.bins(dim, bx);
        let half = n / 2;
        let mut best: Option<(u32, usize)> = None; // (cut, |left - half|)
        let mut left = 0usize;
        for (off, &c) in bins.iter().enumerate().take(bins.len() - 1) {
            left += c;
            if left >= self.k && n - left >= self.k {
                let dist = left.abs_diff(half);
                if best.is_none_or(|(_, d)| dist < d) {
                    best = Some((lo + off as u32, dist));
                }
            }
        }
        best.map(|(c, _)| c)
    }

    /// Pivots `rows` in place so rows with `code <= cut` on `dim` come
    /// first; returns the boundary in rows. Unstable (Hoare two-pointer:
    /// each misplaced pair swaps once, as two whole rows) — safe because no
    /// downstream decision reads row order. Used by the sequential
    /// recursion; the parallel frontier partitions out-of-place instead.
    fn pivot(&self, rows: &mut [u32], dim: usize, cut: u32) -> usize {
        let w = self.stride;
        let mut lo = 0usize;
        let mut hi = rows.len() / w;
        loop {
            while lo < hi && rows[lo * w + dim] <= cut {
                lo += 1;
            }
            while lo < hi && rows[(hi - 1) * w + dim] > cut {
                hi -= 1;
            }
            if lo == hi {
                return lo;
            }
            // Row `lo` goes right and row `hi - 1` goes left, so they are
            // distinct rows and `lo < hi - 1`.
            hi -= 1;
            let (head, tail) = rows.split_at_mut(hi * w);
            head[lo * w..(lo + 1) * w].swap_with_slice(&mut tail[..w]);
            lo += 1;
        }
    }
}

/// Sequential recursion arenas: node list, flat box bounds (stride `2d`,
/// see [`QiBox`]) and per-box row counts, in pre-order. Because the
/// recursion splits its contiguous row range left|right and numbers boxes
/// pre-order, box `b` covers the `counts[b]` scratch rows immediately
/// after box `b - 1`'s — the invariant the assignment read-off of
/// [`partition`] relies on. `counts` has one entry per box, so its length
/// is the box count.
struct SeqArena {
    nodes: Vec<SplitNode>,
    bounds: Vec<u32>,
    counts: Vec<usize>,
}

impl SeqArena {
    fn new() -> Self {
        SeqArena { nodes: Vec::new(), bounds: Vec::new(), counts: Vec::new() }
    }

    /// Builds the subtree for `rows` within the box `bx` (flat bounds);
    /// returns the root node id.
    ///
    /// `bx` is the one mutable box of the whole recursion: a split narrows
    /// `highs[dim]` for the left child and `lows[dim]` for the right one,
    /// restoring each afterwards, so a split allocates nothing. On return
    /// `bx` holds what it held on entry.
    fn build(&mut self, cutter: &mut Cutter<'_>, bx: &mut [u32], rows: &mut [u32]) -> usize {
        if let Some(CutChoice { dim, cut }) = cutter.choose(rows, QiBox::new(bx)) {
            let mid = cutter.pivot(rows, dim, cut);
            let (left_rows, right_rows) = rows.split_at_mut(mid * cutter.stride);
            // Reserve this node's slot, then recurse (pre-order).
            let idx = self.nodes.len();
            self.nodes.push(SplitNode::Leaf(usize::MAX));
            let high = set_high(bx, dim, cut);
            let left = self.build(cutter, bx, left_rows);
            set_high(bx, dim, high);
            let low = set_low(bx, dim, cut + 1);
            let right = self.build(cutter, bx, right_rows);
            set_low(bx, dim, low);
            self.nodes[idx] = SplitNode::Split { qi_pos: dim, cut, left, right };
            return idx;
        }
        let box_idx = self.counts.len();
        self.bounds.extend_from_slice(bx);
        self.counts.push(rows.len() / cutter.stride);
        let idx = self.nodes.len();
        self.nodes.push(SplitNode::Leaf(box_idx));
        idx
    }
}

/// One node of the parallel build's slot tree. The coordinator allocates
/// and fills slots (workers only return values), so there is no shared
/// mutable slot table and nothing to lock; the sequential flatten
/// afterwards reads the tree in pre-order, which erases scheduling from
/// the output entirely.
enum Slot {
    /// Not yet resolved (only observable mid-build).
    Pending,
    /// An internal split with child slot ids.
    Split { qi_pos: usize, cut: u32, left: usize, right: usize },
    /// A leaf box (its index in the build's flat leaf bounds), its row
    /// count, and which ping-pong buffer holds its rows.
    Leaf { at: usize, count: usize, flip: bool },
    /// A subtree built by Stage B.
    Subtree { run: SubtreeRun, flip: bool },
}

/// A frontier node: at/above the grain, processed with intra-node
/// parallelism. `start..end` are row positions (not u32 offsets). Its box
/// sits at the node's index in the level's flat bounds buffer.
struct WideNode {
    slot: usize,
    start: usize,
    end: usize,
}

/// A below-grain subtree task deferred to Stage B. Its box sits at the
/// task's index in the flat task bounds buffer.
struct SubtreeTask {
    slot: usize,
    start: usize,
    end: usize,
    flip: bool,
}

/// Statistics of one parallel build, for telemetry and regression tests.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Parallel work items executed across all passes (0 for the
    /// sequential path).
    pub tasks: usize,
    /// Frontier levels processed by Stage A.
    pub levels: usize,
    /// Scratch-fill chunks (the sharded columnar→row-major transpose).
    pub fill_items: usize,
    /// Per-chunk histogram items across all frontier levels.
    pub hist_items: usize,
    /// Per-chunk scatter items across all frontier levels.
    pub scatter_items: usize,
    /// Below-grain sequential subtree tasks run by Stage B.
    pub subtree_tasks: usize,
    /// Assignment read-off chunks (0 when the read-off runs on one thread).
    pub readoff_items: usize,
}

/// Splits `buf` (a scratch matrix over `d` QI positions, so `d + 1`-wide
/// rows) into mutable row-range slices. `ranges` are `(start_row,
/// row_len)` pairs, sorted by start and pairwise disjoint; zero-length
/// ranges are fine.
fn carve_rows<'s>(buf: &'s mut [u32], d: usize, ranges: &[(usize, usize)]) -> Vec<&'s mut [u32]> {
    let stride = d + 1;
    let mut out = Vec::with_capacity(ranges.len());
    let mut rest: &'s mut [u32] = buf;
    let mut pos = 0usize;
    for &(start, len) in ranges {
        let b = std::mem::take(&mut rest);
        let (_, tail) = b.split_at_mut((start - pos) * stride);
        let (take, tail) = tail.split_at_mut(len * stride);
        out.push(take);
        rest = tail;
        pos = start + len;
    }
    out
}

/// Where one below-grain subtree landed: ranges into worker `worker`'s
/// arena, and its root node id there.
struct SubtreeRun {
    worker: usize,
    nodes: Range<usize>,
    boxes: Range<usize>,
    root: usize,
}

/// Builds one subtree per task with the sequential recursion: Stage B of
/// [`build_parallel`] and the recut step of [`RetainedTree::apply_delta`].
/// Task `i` cuts `rows[i]` (a row-major slice of scratch rows) within box
/// `i` of `bounds`. Each worker keeps one `Cutter`, one
/// `SeqArena` and one mutable box across all its tasks, so a task
/// allocates nothing of its own. Returns each task's [`SubtreeRun`] in
/// task order and the per-worker arenas in worker order.
fn build_subtrees(
    phase: &'static str,
    threads: usize,
    domain_sizes: &[u32],
    k: usize,
    bounds: &[u32],
    rows: Vec<&mut [u32]>,
) -> (Vec<SubtreeRun>, Vec<SeqArena>) {
    let d = domain_sizes.len();
    let (runs, states) = run_items(
        phase,
        threads,
        rows.into_iter().enumerate().collect(),
        |worker| (worker, Cutter::new(domain_sizes, k), SeqArena::new(), Vec::new()),
        |(_, rows)| (rows.len() * 4) as u64,
        |state, _, (i, rows)| {
            let (worker, cutter, arena, bx) = state;
            bx.clear();
            bx.extend_from_slice(box_bounds(bounds, d, i));
            let node_start = arena.nodes.len();
            let box_start = arena.counts.len();
            let root = arena.build(cutter, bx, rows);
            SubtreeRun {
                worker: *worker,
                nodes: node_start..arena.nodes.len(),
                boxes: box_start..arena.counts.len(),
                root,
            }
        },
    );
    (runs, states.into_iter().map(|(_, _, arena, _)| arena).collect())
}

/// The two-stage parallel build (see the module docs). Returns the flat
/// pre-order arena, per-box buffer parities, the root node id, build
/// statistics, and the pong buffer (the caller needs both buffers to read
/// the assignment back).
#[allow(clippy::too_many_arguments)]
fn build_parallel(
    domain_sizes: &[u32],
    k: usize,
    threads: usize,
    grain: usize,
    chunk_rows: usize,
    scratch: &mut [u32],
    root_box: Vec<u32>,
    n: usize,
) -> (SeqArena, Vec<bool>, usize, BuildStats, Vec<u32>) {
    let d = domain_sizes.len();
    let stride = d + 1;
    let w = 2 * d;
    let mut scratch2 = vec![0u32; scratch.len()];
    let mut slots: Vec<Slot> = vec![Slot::Pending];
    let mut level: Vec<WideNode> = vec![WideNode { slot: 0, start: 0, end: n }];
    // Flat box bounds (stride `w`): the current level's nodes, every leaf
    // Stage A settles, and every Stage B task, each in its list's order.
    let mut level_bounds: Vec<u32> = root_box;
    let mut leaf_bounds: Vec<u32> = Vec::new();
    let mut task_bounds: Vec<u32> = Vec::new();
    let mut subtree_tasks: Vec<SubtreeTask> = Vec::new();
    let mut stats = BuildStats::default();
    let mut flip = false;
    let mut cutter = Cutter::new(domain_sizes, k);

    // --- Stage A: frontier levels with intra-node parallelism. ---
    while !level.is_empty() {
        stats.levels += 1;
        let (src, dst): (&[u32], &mut [u32]) =
            if flip { (&scratch2, scratch) } else { (&*scratch, &mut scratch2) };

        // Per-node histogram layout (offsets into a flat bin buffer).
        let metas: Vec<(Vec<usize>, usize)> = (0..level.len())
            .map(|vi| {
                let bx = QiBox::new(box_bounds(&level_bounds, d, vi));
                let mut offsets = Vec::with_capacity(d);
                let mut total = 0usize;
                for dim in 0..d {
                    offsets.push(total);
                    total += bx.span(dim) as usize;
                }
                (offsets, total)
            })
            .collect();

        // Pass 1: fused per-chunk histograms of every dimension, one item
        // per fixed-size chunk of each node. Chunk boundaries depend only
        // on (node range, chunk_rows) — never on the thread count.
        let mut hist_items: Vec<(usize, usize, usize)> = Vec::new(); // (node, row_start, row_end)
        let mut node_items: Vec<(usize, usize)> = Vec::with_capacity(level.len());
        for (vi, node) in level.iter().enumerate() {
            let first = hist_items.len();
            let mut r = node.start;
            while r < node.end {
                let e = (r + chunk_rows).min(node.end);
                hist_items.push((vi, r, e));
                r = e;
            }
            node_items.push((first, hist_items.len()));
        }
        let n_hist = hist_items.len();
        let level_bounds_ref = &level_bounds;
        let metas_ref = &metas;
        let (partials, _) = run_items(
            PROF_PHASE,
            threads,
            hist_items,
            |_| (),
            |&(_, s, e)| ((e - s) * stride * 4) as u64,
            |_, _, (vi, s, e)| {
                let lows = QiBox::new(box_bounds(level_bounds_ref, d, vi)).lows();
                let (offsets, bins) = &metas_ref[vi];
                let mut h = vec![0u32; *bins];
                for row in src[s * stride..e * stride].chunks_exact(stride) {
                    for (dim, &code) in row[..d].iter().enumerate() {
                        h[offsets[dim] + (code - lows[dim]) as usize] += 1;
                    }
                }
                h
            },
        );
        stats.hist_items += n_hist;
        stats.tasks += n_hist;

        // Coordinator: merge each node's chunk histograms by exact integer
        // reduction and pick its cut — O(bins) per node, no row data read.
        enum Decision {
            Leaf,
            Split { dim: usize, cut: u32, mid: usize },
        }
        let mut decisions: Vec<Decision> = Vec::with_capacity(level.len());
        for (vi, node) in level.iter().enumerate() {
            let (offsets, bins) = &metas[vi];
            cutter.offsets.clear();
            cutter.offsets.extend_from_slice(offsets);
            cutter.hist.clear();
            cutter.hist.resize(*bins, 0);
            let (a, b) = node_items[vi];
            for p in &partials[a..b] {
                for (slot, &c) in cutter.hist.iter_mut().zip(p.iter()) {
                    *slot += c as usize;
                }
            }
            let n_node = node.end - node.start;
            let bx = QiBox::new(box_bounds(&level_bounds, d, vi));
            match cutter.choose_from_hist(n_node, bx) {
                Some(CutChoice { dim, cut }) => {
                    let off = offsets[dim];
                    let width = (cut - bx.lows()[dim] + 1) as usize;
                    let mid: usize = cutter.hist[off..off + width].iter().sum();
                    decisions.push(Decision::Split { dim, cut, mid });
                }
                None => decisions.push(Decision::Leaf),
            }
        }

        // Allocate child slots, classify children, and lay out the scatter
        // plan: per chunk, left rows land at start + Σ earlier chunks'
        // left counts (a prefix sum over the retained chunk histograms),
        // right rows symmetrically after the node's midpoint — a stable
        // counting scatter, so the child row order is a pure function of
        // the parent row order.
        struct ScatPlan {
            src_start: usize,
            src_end: usize,
            dim: usize,
            cut: u32,
            left_start: usize,
            left_len: usize,
            right_start: usize,
            right_len: usize,
        }
        let mut plan: Vec<ScatPlan> = Vec::new();
        let mut next_level: Vec<WideNode> = Vec::new();
        let mut next_bounds: Vec<u32> = Vec::new();
        for (vi, node) in level.iter().enumerate() {
            let bounds = box_bounds(&level_bounds, d, vi);
            match decisions[vi] {
                Decision::Leaf => {
                    let at = leaf_bounds.len() / w;
                    leaf_bounds.extend_from_slice(bounds);
                    slots[node.slot] = Slot::Leaf { at, count: node.end - node.start, flip };
                }
                Decision::Split { dim, cut, mid } => {
                    let left_id = slots.len();
                    slots.push(Slot::Pending);
                    slots.push(Slot::Pending);
                    slots[node.slot] =
                        Slot::Split { qi_pos: dim, cut, left: left_id, right: left_id + 1 };
                    let (a, b) = node_items[vi];
                    let (offsets, _) = &metas[vi];
                    let off = offsets[dim];
                    let width = (cut - QiBox::new(bounds).lows()[dim] + 1) as usize;
                    let mut lcum = 0usize;
                    let mut rcum = 0usize;
                    for (ci, p) in partials[a..b].iter().enumerate() {
                        let s = node.start + ci * chunk_rows;
                        let e = (s + chunk_rows).min(node.end);
                        let lc: usize = p[off..off + width].iter().map(|&x| x as usize).sum();
                        let rc = (e - s) - lc;
                        plan.push(ScatPlan {
                            src_start: s,
                            src_end: e,
                            dim,
                            cut,
                            left_start: node.start + lcum,
                            left_len: lc,
                            right_start: node.start + mid + rcum,
                            right_len: rc,
                        });
                        lcum += lc;
                        rcum += rc;
                    }
                    debug_assert_eq!(lcum, mid);
                    // The left child narrows `highs[dim]` to the cut, the
                    // right one raises `lows[dim]` past it.
                    let children = [
                        (left_id, node.start, node.start + mid),
                        (left_id + 1, node.start + mid, node.end),
                    ];
                    for (side, (slot, s, e)) in children.into_iter().enumerate() {
                        let out = if e - s >= grain {
                            next_level.push(WideNode { slot, start: s, end: e });
                            &mut next_bounds
                        } else {
                            subtree_tasks.push(SubtreeTask { slot, start: s, end: e, flip: !flip });
                            &mut task_bounds
                        };
                        let at = out.len();
                        out.extend_from_slice(bounds);
                        let child = &mut out[at..];
                        if side == 0 {
                            set_high(child, dim, cut);
                        } else {
                            set_low(child, dim, cut + 1);
                        }
                    }
                }
            }
        }

        // Pass 2: execute the scatter. The destination buffer is carved
        // into one disjoint `&mut` slice pair per chunk up front (sorted
        // `(start, len)` keeps zero-length ranges ahead of real ones at
        // the same start), so workers write without synchronization.
        if !plan.is_empty() {
            let mut flat: Vec<(usize, usize, usize, bool)> = Vec::with_capacity(plan.len() * 2);
            for (j, it) in plan.iter().enumerate() {
                flat.push((it.left_start, it.left_len, j, false));
                flat.push((it.right_start, it.right_len, j, true));
            }
            flat.sort_unstable_by_key(|&(s, l, _, _)| (s, l));
            let ranges: Vec<(usize, usize)> = flat.iter().map(|&(s, l, _, _)| (s, l)).collect();
            let carved = carve_rows(dst, d, &ranges);
            let mut left_slices: Vec<Option<&mut [u32]>> = (0..plan.len()).map(|_| None).collect();
            let mut right_slices: Vec<Option<&mut [u32]>> = (0..plan.len()).map(|_| None).collect();
            for (slice, &(_, _, j, is_right)) in carved.into_iter().zip(&flat) {
                if is_right {
                    right_slices[j] = Some(slice);
                } else {
                    left_slices[j] = Some(slice);
                }
            }
            struct ScatExec<'s> {
                src: &'s [u32],
                dim: usize,
                cut: u32,
                left: &'s mut [u32],
                right: &'s mut [u32],
            }
            // The carve loop above fills exactly one left and one right
            // slice per plan index, so both takes always yield Some.
            #[allow(clippy::expect_used)]
            let exec: Vec<ScatExec<'_>> = plan
                .iter()
                .enumerate()
                .map(|(j, it)| ScatExec {
                    src: &src[it.src_start * stride..it.src_end * stride],
                    dim: it.dim,
                    cut: it.cut,
                    left: left_slices[j].take().expect("left slice carved"),
                    right: right_slices[j].take().expect("right slice carved"),
                })
                .collect();
            let n_scat = exec.len();
            run_items(
                PROF_PHASE,
                threads,
                exec,
                |_| (),
                |it| (it.src.len() * 2 * 4) as u64,
                |_, _, it| {
                    let ScatExec { src, dim, cut, left, right } = it;
                    let mut li = 0usize;
                    let mut ri = 0usize;
                    for row in src.chunks_exact(stride) {
                        if row[dim] <= cut {
                            left[li..li + stride].copy_from_slice(row);
                            li += stride;
                        } else {
                            right[ri..ri + stride].copy_from_slice(row);
                            ri += stride;
                        }
                    }
                    debug_assert_eq!(li, left.len());
                    debug_assert_eq!(ri, right.len());
                },
            );
            stats.scatter_items += n_scat;
            stats.tasks += n_scat;
        }

        flip = !flip;
        level = next_level;
        level_bounds = next_bounds;
    }

    // --- Stage B: below-grain subtrees (see `build_subtrees`). ---
    let mut arenas: Vec<SeqArena> = Vec::new();
    if !subtree_tasks.is_empty() {
        let mut slices: Vec<Option<&mut [u32]>> =
            (0..subtree_tasks.len()).map(|_| None).collect();
        for (want_flip, buf) in [(false, &mut *scratch), (true, &mut scratch2[..])] {
            let mut idxs: Vec<usize> = (0..subtree_tasks.len())
                .filter(|&i| subtree_tasks[i].flip == want_flip)
                .collect();
            idxs.sort_unstable_by_key(|&i| subtree_tasks[i].start);
            let ranges: Vec<(usize, usize)> = idxs
                .iter()
                .map(|&i| {
                    let t = &subtree_tasks[i];
                    (t.start, t.end - t.start)
                })
                .collect();
            for (slice, &i) in carve_rows(buf, d, &ranges).into_iter().zip(&idxs) {
                slices[i] = Some(slice);
            }
        }
        // The two parity carves above cover every task index exactly once
        // (each task names one parity), so every slot is Some.
        #[allow(clippy::expect_used)]
        let rows: Vec<&mut [u32]> =
            slices.into_iter().map(|slice| slice.expect("task slice")).collect();
        let n_sub = rows.len();
        let runs;
        (runs, arenas) = build_subtrees(PROF_PHASE, threads, domain_sizes, k, &task_bounds, rows);
        stats.subtree_tasks += n_sub;
        stats.tasks += n_sub;
        for (t, run) in subtree_tasks.iter().zip(runs) {
            slots[t.slot] = Slot::Subtree { run, flip: t.flip };
        }
    }

    let mut out = SeqArena::new();
    let mut parities: Vec<bool> = Vec::new();
    let root = flatten(&mut slots, 0, &arenas, &leaf_bounds, d, &mut out, &mut parities);
    (out, parities, root, stats, scratch2)
}

/// Pre-order flatten of the slot tree into the sequential arena layout.
/// Walking left before right and splicing Stage-B subtrees in place
/// reproduces the exact node/box numbering of `SeqArena::build` on the
/// whole input; `parities` receives each box's ping-pong buffer side in
/// the same order. `arenas` are the Stage B arenas; `leaf_bounds` holds
/// the flat bounds of the leaves Stage A settled, over `d` QI positions.
fn flatten(
    slots: &mut [Slot],
    slot: usize,
    arenas: &[SeqArena],
    leaf_bounds: &[u32],
    d: usize,
    out: &mut SeqArena,
    parities: &mut Vec<bool>,
) -> usize {
    match std::mem::replace(&mut slots[slot], Slot::Pending) {
        Slot::Split { qi_pos, cut, left, right } => {
            let idx = out.nodes.len();
            out.nodes.push(SplitNode::Leaf(usize::MAX));
            let l = flatten(slots, left, arenas, leaf_bounds, d, out, parities);
            let r = flatten(slots, right, arenas, leaf_bounds, d, out, parities);
            out.nodes[idx] = SplitNode::Split { qi_pos, cut, left: l, right: r };
            idx
        }
        Slot::Leaf { at, count, flip } => {
            let box_idx = out.counts.len();
            out.bounds.extend_from_slice(box_bounds(leaf_bounds, d, at));
            out.counts.push(count);
            parities.push(flip);
            let idx = out.nodes.len();
            out.nodes.push(SplitNode::Leaf(box_idx));
            idx
        }
        Slot::Subtree { run: SubtreeRun { worker, nodes, boxes, root }, flip } => {
            let node_base = out.nodes.len();
            let box_base = out.counts.len();
            let arena = &arenas[worker];
            for i in nodes.clone() {
                out.nodes.push(match arena.nodes[i].clone() {
                    SplitNode::Split { qi_pos, cut, left, right } => SplitNode::Split {
                        qi_pos,
                        cut,
                        left: left - nodes.start + node_base,
                        right: right - nodes.start + node_base,
                    },
                    SplitNode::Leaf(b) => SplitNode::Leaf(b - boxes.start + box_base),
                });
            }
            out.bounds.extend_from_slice(boxes_bounds(&arena.bounds, d, boxes.clone()));
            out.counts.extend_from_slice(&arena.counts[boxes.clone()]);
            parities.extend(boxes.map(|_| flip));
            root - nodes.start + node_base
        }
        Slot::Pending => {
            // Unreachable: every slot is resolved before flatten runs.
            debug_assert!(false, "pending slot after build");
            let idx = out.nodes.len();
            out.nodes.push(SplitNode::Leaf(usize::MAX));
            idx
        }
    }
}

/// Partitions a table's QI space into a strict Mondrian box partition with
/// at least `k` tuples per box, and returns it as a [`RetainedTree`] with
/// the build's parallel-execution statistics.
///
/// ```
/// use acpp_data::{Attribute, Domain, OwnerId, Schema, Table, Taxonomy, Value};
/// use acpp_generalize::mondrian::{partition, MondrianConfig};
/// use acpp_generalize::principles::is_k_anonymous;
///
/// let schema = Schema::new(vec![
///     Attribute::quasi("A", Domain::indexed(8)),
///     Attribute::sensitive("S", Domain::indexed(3)),
/// ])?;
/// let mut table = Table::new(schema);
/// for i in 0..16u32 {
///     table.push_row(OwnerId(i), &[Value(i % 8), Value(i % 3)])?;
/// }
/// let (tree, _) = partition(&table, table.schema(), MondrianConfig::new(4))?;
/// assert_eq!(tree.assignment().len(), table.len());
/// let taxonomies = vec![Taxonomy::intervals(8, 2)];
/// let (grouping, _) = tree.into_recoding().group(&table, &taxonomies);
/// assert!(is_k_anonymous(&grouping, 4));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// The tree holds the partition, each box's row count, and each row's box
/// ([`RetainedTree::assignment`]): `assignment[row] == b` means row `row`
/// of `table` falls in box `b`, exactly what `BoxPartition::locate` would
/// say, but produced as a by-product of the build instead of a per-row
/// tree walk. Each row's index rides along as the last column of the
/// scratch matrix, and because the build splits contiguous ranges
/// left|right while boxes are numbered pre-order, box `b`'s rows end up as
/// the `b`-th contiguous positional run of the matrix (in whichever
/// ping-pong buffer the box's parity names); the assignment is read off in
/// sharded streaming passes. A publisher keeps the tree to repair the
/// partition on later releases ([`RetainedTree::apply_delta`]).
///
/// Errors if the table has fewer than `k` rows (property G2 unsatisfiable)
/// or `k == 0`. The tree is independent of [`MondrianConfig::threads`]
/// (see the module docs for why); only the statistics depend on it.
pub fn partition(
    table: &Table,
    schema: &Schema,
    config: MondrianConfig,
) -> Result<(RetainedTree, BuildStats), GeneralizeError> {
    if config.k == 0 {
        return Err(GeneralizeError::InvalidParameter("k must be at least 1".into()));
    }
    let n = table.len();
    if n < config.k {
        return Err(GeneralizeError::Unsatisfiable(format!(
            "table has {n} rows but k = {}",
            config.k
        )));
    }
    let domain_sizes: Vec<u32> = schema
        .qi_indices()
        .iter()
        .map(|&c| schema.attribute(c).domain().size())
        .collect();
    if domain_sizes.is_empty() {
        // No QI attributes: the whole (empty) QI space is one box, and every
        // row falls in it.
        let tree = RetainedTree {
            part: BoxPartition::trivial(&domain_sizes),
            counts: vec![n],
            assignment: vec![0; n],
            domain_sizes,
        };
        return Ok((tree, BuildStats::default()));
    }
    let mut built = build_partition(table, schema, &domain_sizes, config);
    let assignment = read_off_assignment(&mut built, n, config);
    let tree = RetainedTree { part: built.part, counts: built.counts, assignment, domain_sizes };
    Ok((tree, built.stats))
}

/// Reads the row→box assignment off the build's scratch buffers (see
/// [`partition`] for the layout argument).
fn read_off_assignment(built: &mut Built, n: usize, config: MondrianConfig) -> Vec<u32> {
    let mut assignment = vec![0u32; n];
    let d = built.d;
    let stride = d + 1;
    // Box b's rows sit at positional rows [starts[b], starts[b+1]) of the
    // buffer its parity names.
    let mut starts: Vec<usize> = Vec::with_capacity(built.counts.len() + 1);
    let mut acc = 0usize;
    for &c in &built.counts {
        starts.push(acc);
        acc += c;
    }
    starts.push(acc);
    let buf_of = |b: usize| -> &[u32] {
        if built.parities.get(b).copied().unwrap_or(false) { &built.scratch2 } else { &built.scratch }
    };
    if config.threads <= 1 {
        for b in 0..built.counts.len() {
            let buf = buf_of(b);
            for row in buf[starts[b] * stride..starts[b + 1] * stride].chunks_exact(stride) {
                assignment[row[d] as usize] = b as u32;
            }
        }
        return assignment;
    }
    // Sharded read-off: chunk the box list into runs of roughly chunk_rows
    // rows; each item scatters its boxes' row ids into a shared atomic
    // assignment (each row id written exactly once, so ordering is
    // irrelevant).
    let (_, chunk_rows) = config.grains();
    let mut items: Vec<(usize, usize)> = Vec::new(); // box ranges [lo, hi)
    let mut lo = 0usize;
    while lo < built.counts.len() {
        let mut hi = lo;
        let mut rows = 0usize;
        while hi < built.counts.len() && (rows == 0 || rows + built.counts[hi] <= chunk_rows) {
            rows += built.counts[hi];
            hi += 1;
        }
        items.push((lo, hi));
        lo = hi;
    }
    let atoms: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
    let n_items = items.len();
    let starts_ref = &starts;
    let atoms_ref = &atoms;
    run_items(
        PROF_PHASE,
        config.threads,
        items,
        |_| (),
        |&(lo, hi)| ((starts_ref[hi] - starts_ref[lo]) * stride * 4) as u64,
        |_, _, (lo, hi)| {
            for b in lo..hi {
                let buf = buf_of(b);
                let span = &buf[starts_ref[b] * stride..starts_ref[b + 1] * stride];
                for row in span.chunks_exact(stride) {
                    atoms_ref[row[d] as usize].store(b as u32, Ordering::Relaxed);
                }
            }
        },
    );
    for (slot, a) in assignment.iter_mut().zip(atoms) {
        *slot = a.into_inner();
    }
    built.stats.readoff_items += n_items;
    built.stats.tasks += n_items;
    assignment
}

/// Output of [`build_partition`]: the tree plus the raw build artefacts the
/// assignment read-off needs (per-box counts, per-box buffer parities, and
/// both ping-pong buffers; `scratch2` and `parities` are empty on the
/// sequential path, where every box lives in `scratch`).
struct Built {
    part: BoxPartition,
    counts: Vec<usize>,
    parities: Vec<bool>,
    scratch: Vec<u32>,
    scratch2: Vec<u32>,
    d: usize,
    stats: BuildStats,
}

/// The build behind [`partition`] for `d ≥ 1` QI attributes and a table of
/// at least `k ≥ 1` rows.
///
/// Tables under `2 · grain` rows, and every build at one thread, take the
/// plain sequential recursion: one `SeqArena`, no pool, no slot tree and
/// no second scratch buffer. Larger tables at more threads take the
/// two-stage frontier build of [`build_parallel`]. Both pick the same cuts.
fn build_partition(
    table: &Table,
    schema: &Schema,
    domain_sizes: &[u32],
    config: MondrianConfig,
) -> Built {
    let d = domain_sizes.len();
    let stride = d + 1;
    let n = table.len();
    let (grain, chunk_rows) = config.grains();
    let parallel = config.threads > 1 && n >= 2 * grain;

    // The shared scratch matrix: the table's QI codes in row-major order,
    // each row followed by its row id. The columnar→row-major transpose is
    // itself sharded on the parallel path — it is an O(n·d) bookend that
    // used to run single-threaded.
    let mut scratch: Vec<u32> = vec![0u32; n * stride];
    let cols: Vec<&[u32]> = schema.qi_indices().iter().map(|&c| table.column(c)).collect();
    let fill_items = {
        let items: Vec<(usize, &mut [u32])> =
            scratch.chunks_mut(chunk_rows * stride).enumerate().collect();
        let n_items = items.len();
        let cols_ref = &cols;
        run_items(
            PROF_PHASE,
            if parallel { config.threads } else { 1 },
            items,
            |_| (),
            |(_, chunk)| (chunk.len() * 4) as u64,
            |_, _, (ci, chunk)| {
                let base = ci * chunk_rows;
                for (j, row) in chunk.chunks_exact_mut(stride).enumerate() {
                    let r = base + j;
                    for (dim, col) in cols_ref.iter().enumerate() {
                        row[dim] = col[r];
                    }
                    row[d] = r as u32;
                }
            },
        );
        n_items
    };
    let mut root_box = full_bounds(domain_sizes);

    if !parallel {
        // Sequential path: the recursion itself, no pool, no slot tree.
        let mut cutter = Cutter::new(domain_sizes, config.k);
        let mut arena = SeqArena::new();
        let root = arena.build(&mut cutter, &mut root_box, &mut scratch);
        let part = BoxPartition::new(arena.nodes, d, arena.bounds, root);
        debug_assert!(part.check().is_ok());
        return Built {
            part,
            counts: arena.counts,
            parities: Vec::new(),
            scratch,
            scratch2: Vec::new(),
            d,
            stats: BuildStats::default(),
        };
    }

    let (arena, parities, root, mut stats, scratch2) = build_parallel(
        domain_sizes,
        config.k,
        config.threads,
        grain,
        chunk_rows,
        &mut scratch,
        root_box,
        n,
    );
    stats.fill_items = fill_items;
    stats.tasks += fill_items;
    let part = BoxPartition::new(arena.nodes, d, arena.bounds, root);
    debug_assert!(part.check().is_ok());
    Built { part, counts: arena.counts, parities, scratch, scratch2, d, stats }
}

/// Profiler phase label for the retained-tree repair passes of
/// [`RetainedTree::apply_delta`]. Distinct from [`PROF_PHASE`] so a delta
/// republication's profile attributes the gather/recut work to the repair,
/// not to a from-scratch build that never ran.
pub const PROF_REPAIR: &str = "phase.repair";

/// Statistics of one [`RetainedTree::apply_delta`] repair.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Leaves whose membership the delta touched.
    pub dirty_leaves: usize,
    /// Merge operations: underfull leaves collapsed (with their Mondrian
    /// siblings) into the nearest ancestor box holding at least `k` rows.
    pub merges: usize,
    /// Effective leaves re-cut by re-running the median recursion locally.
    pub recuts: usize,
    /// Rows gathered for re-cutting: the rows of the recut regions,
    /// copied into one flat buffer by the one pass that reads QI values
    /// row by row. That pass runs only when some leaf needs a recut (`0`
    /// means none did) and scans the whole assignment, so its time is
    /// `O(n)` while what it copies is this count. Two other `O(n)` passes
    /// run on every repair, over plain `u32` arrays: compacting the
    /// survivors' assignment and renumbering it.
    pub gathered_rows: usize,
    /// Leaf count before the repair.
    pub leaves_before: usize,
    /// Leaf count after the repair.
    pub leaves_after: usize,
    /// Leaves carried verbatim: same box, same members, not dirty, not
    /// merged, not re-cut. A publisher republishes their tuples as they
    /// were; only the other `leaves_after - carried_leaves` recompute.
    pub carried_leaves: usize,
}

/// A Mondrian partition retained across releases for incremental repair.
///
/// Holds the partition (a [`BoxPartition`]: the split tree in pre-order,
/// children after their parent, and the flat leaf boxes), each leaf's row
/// count, and the leaf of every row. A publisher keeps one of these per
/// series. [`RetainedTree::apply_delta`] reads it and builds the repaired
/// tree for a batch of inserts and deletes, instead of re-partitioning the
/// whole table. The repair never writes the tree it reads, so the
/// publisher can keep its committed tree until the release built from the
/// repair commits. The repair runs in four steps:
///
/// 1. **Classify.** Deleted rows resolve to their leaf through the
///    retained row→box assignment in `O(1)` each; inserted rows are
///    located through the tree in `O(depth)` — marking leaves dirty and
///    adjusting counts. Leaves the batch never touches keep their box *by
///    value*, which is what lets the publisher reuse their representative
///    and persistent draw verbatim (the region key is the box's interval
///    product, not its index).
/// 2. **Merge.** A dirty leaf that fell below `k` rows is collapsed — with
///    its Mondrian sibling subtree — into the nearest ancestor whose
///    subtree still holds at least `k` rows, restoring G2 without touching
///    any box outside that ancestor.
/// 3. **Recut.** A dirty or merged effective leaf holding at least `2k`
///    rows may admit new median cuts. If any does, one sequential pass
///    over the (compacted) assignment copies the member rows of exactly
///    those leaves into one flat buffer, each region at an offset fixed
///    by its known row count — `O(n)` array reads, no tree walks, no
///    allocation per region. Each region is then re-cut by the runner of
///    the full build's Stage B (profiled under [`PROF_REPAIR`]), the
///    same sequential median recursion with one cutter and one arena per
///    worker. Cut choices are pure functions of per-node histograms, so
///    the result is deterministic and thread-count-invariant.
/// 4. **Flatten.** The surviving tree is written out pre-order into fresh
///    node, bound and count vectors, restoring the representation
///    invariant of a fresh build, and the assignment is rewritten to the
///    new box numbering.
///
/// The repaired partition is *not* in general the partition a from-scratch
/// Mondrian build of the post-delta table would produce — repair preserves
/// all untouched cuts by design. Both satisfy G2/k-anonymity; boxes
/// present in both cover identical row sets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetainedTree {
    /// The partition; its split tree is in pre-order (every child id is
    /// greater than its parent's) and its boxes are indexed like `counts`.
    part: BoxPartition,
    /// Rows per leaf box; one entry per box.
    counts: Vec<usize>,
    /// Leaf box of every row of the retained table version, aligned with
    /// that table's row order — what `BoxPartition::locate` would answer,
    /// kept so no repair (and no grouping) ever pays a per-row tree walk.
    assignment: Vec<u32>,
    domain_sizes: Vec<u32>,
}

/// Where a flatten frame reads its subtree from: the retained tree, or a
/// worker's arena of re-cut subtrees.
enum FlattenSrc {
    Old(usize),
    New { worker: usize, node: usize },
}

impl RetainedTree {
    /// Number of leaf boxes.
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True when the tree has no boxes (never the case for a built tree).
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }

    /// Rows per leaf box, indexed like the partition's boxes.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// The partition as a recoding: a copy of the node list and the flat
    /// box bounds (box indices match [`RetainedTree::counts`]).
    pub fn recoding(&self) -> Recoding {
        Recoding::Boxes(self.part.clone())
    }

    /// The partition as a recoding, moved out of the tree without a copy.
    pub fn into_recoding(self) -> Recoding {
        Recoding::Boxes(self.part)
    }

    /// Appends the bounds of a subtree's box to `out`. The leaf boxes under
    /// a node tile the node's box, so their per-dimension minimum and
    /// maximum are its bounds.
    fn push_subtree_box(&self, node: usize, out: &mut Vec<u32>) {
        let d = self.domain_sizes.len();
        let at = out.len();
        let mut stack = vec![node];
        while let Some(i) = stack.pop() {
            match self.part.nodes()[i] {
                SplitNode::Split { left, right, .. } => {
                    stack.push(left);
                    stack.push(right);
                }
                SplitNode::Leaf(b) => {
                    let bx = self.part.box_at(b);
                    if out.len() == at {
                        out.extend_from_slice(bx.bounds());
                    } else {
                        cover(&mut out[at..], bx);
                    }
                }
            }
        }
        // A retained tree has at least one leaf under every node.
        debug_assert_eq!(out.len(), at + 2 * d);
    }

    /// Leaf box index of row `row` of `table`.
    fn leaf_of_row(&self, table: &Table, row: usize) -> usize {
        let qi_cols = table.schema().qi_indices();
        let mut cur = self.part.root();
        loop {
            match self.part.nodes()[cur] {
                SplitNode::Split { qi_pos, cut, left, right } => {
                    cur = if table.value(row, qi_cols[qi_pos]).0 <= cut { left } else { right };
                }
                SplitNode::Leaf(b) => return b,
            }
        }
    }

    /// Leaf box of every row of the retained table version — exactly what
    /// `BoxPartition::locate` answers for that row's QI vector, produced
    /// without any per-row tree walk. Aligned with the table the tree was
    /// built from (or repaired against by [`Self::apply_delta`]).
    pub fn assignment(&self) -> &[u32] {
        &self.assignment
    }

    /// The partition repaired for one update batch. `self` is only read.
    ///
    /// `table` is the **post-delta** table. The batch is described
    /// positionally against the retained version: `deleted_rows` are the
    /// strictly-increasing row indices (in the **previous** table version,
    /// the one `self` describes) that departed, and the post-delta table
    /// must consist of the surviving rows *in their original order*
    /// followed by the inserted rows at the tail — `inserted_rows` names
    /// that tail, in order. This is the layout delta application naturally
    /// produces (filter survivors, append arrivals) and it lets the repair
    /// classify every departure through the retained row→box assignment in
    /// `O(1)` instead of a tree walk, and carry the assignment forward to
    /// the repaired version. A delta description violating the contract is
    /// rejected with [`GeneralizeError::InvalidParameter`] rather than
    /// producing a partition that silently violates G2.
    ///
    /// Dirty regions are re-cut or merged (see the type docs); every
    /// untouched leaf keeps its exact box. Deterministic and
    /// thread-invariant for any [`MondrianConfig::threads`].
    ///
    /// Returns the repaired tree, the repair statistics and the carry map:
    /// for each leaf of the repaired tree, the index it had before the
    /// repair if it was carried verbatim (see
    /// [`RepairStats::carried_leaves`]), or `u32::MAX` if it is dirty, a
    /// merge leaf, or came out of a re-cut.
    ///
    /// # Errors
    /// * `InvalidParameter` — `k == 0`, a schema whose QI domains differ
    ///   from the build's, out-of-order or out-of-bounds delta indices, or
    ///   a delta description inconsistent with `table`;
    /// * `Unsatisfiable` — the post-delta table holds fewer than `k` rows.
    pub fn apply_delta(
        &self,
        table: &Table,
        schema: &Schema,
        inserted_rows: &[usize],
        deleted_rows: &[usize],
        config: MondrianConfig,
    ) -> Result<(RetainedTree, RepairStats, Vec<u32>), GeneralizeError> {
        let k = config.k;
        if k == 0 {
            return Err(GeneralizeError::InvalidParameter("k must be at least 1".into()));
        }
        if table.len() < k {
            return Err(GeneralizeError::Unsatisfiable(format!(
                "post-delta table has {} rows but k = {}",
                table.len(),
                k
            )));
        }
        let same_domains = schema
            .qi_indices()
            .iter()
            .map(|&c| schema.attribute(c).domain().size())
            .eq(self.domain_sizes.iter().copied());
        if !same_domains {
            return Err(GeneralizeError::InvalidParameter(
                "schema QI domains differ from the retained partition's".into(),
            ));
        }

        // Structural validation of the delta description (see the contract
        // in the method docs) — everything after this point may trust it.
        let prev_n = self.assignment.len();
        let mut last: Option<usize> = None;
        for &r in deleted_rows {
            if r >= prev_n {
                return Err(GeneralizeError::InvalidParameter(format!(
                    "deleted row index {r} out of bounds for the previous version's {prev_n} rows"
                )));
            }
            if last.is_some_and(|l| l >= r) {
                return Err(GeneralizeError::InvalidParameter(
                    "deleted row indices must be strictly increasing".into(),
                ));
            }
            last = Some(r);
        }
        let n_keep = prev_n - deleted_rows.len();
        if n_keep + inserted_rows.len() != table.len() {
            return Err(GeneralizeError::InvalidParameter(format!(
                "delta description inconsistent with the table: {prev_n} retained rows, {} \
                 deletions and {} insertions do not yield {} post-delta rows",
                deleted_rows.len(),
                inserted_rows.len(),
                table.len()
            )));
        }
        if !inserted_rows.iter().copied().eq(n_keep..table.len()) {
            return Err(GeneralizeError::InvalidParameter(
                "inserted rows must be the post-delta table's tail, in order".into(),
            ));
        }

        let d = self.domain_sizes.len();
        let w = 2 * d;
        let mut stats = RepairStats { leaves_before: self.len(), ..RepairStats::default() };
        if d == 0 {
            // No QI attributes: the single total box absorbs any delta.
            let untouched = deleted_rows.is_empty() && inserted_rows.is_empty();
            stats.leaves_after = 1;
            stats.carried_leaves = usize::from(untouched);
            let tree = RetainedTree {
                part: BoxPartition::trivial(&[]),
                counts: vec![table.len()],
                assignment: vec![0; table.len()],
                domain_sizes: Vec::new(),
            };
            return Ok((tree, stats, vec![if untouched { 0 } else { u32::MAX }]));
        }

        // Phase 1 — classify: departures resolve through the retained
        // assignment in O(1) each; arrivals walk the tree once each. The
        // survivor assignment is compacted run by run between deletions
        // (old box numbering for now — renumbered after the flatten), so
        // the rest of the repair never consults the previous version
        // again. Counts change on a local copy; `self` stays as it was.
        let n_boxes = self.len();
        let mut counts = self.counts.clone();
        let mut dirty = vec![false; n_boxes];
        let mut dirty_sorted: Vec<usize> = Vec::new();
        for &r in deleted_rows {
            let b = self.assignment[r] as usize;
            debug_assert!(counts[b] > 0, "assignment and counts out of sync");
            counts[b] -= 1;
            if !std::mem::replace(&mut dirty[b], true) {
                dirty_sorted.push(b);
            }
        }
        let mut next_assign: Vec<u32> = Vec::with_capacity(table.len());
        let mut run_start = 0usize;
        for &r in deleted_rows {
            next_assign.extend_from_slice(&self.assignment[run_start..r]);
            run_start = r + 1;
        }
        next_assign.extend_from_slice(&self.assignment[run_start..]);
        for &r in inserted_rows {
            let b = self.leaf_of_row(table, r);
            counts[b] += 1;
            if !std::mem::replace(&mut dirty[b], true) {
                dirty_sorted.push(b);
            }
            next_assign.push(b as u32);
        }
        debug_assert_eq!(next_assign.len(), table.len());
        debug_assert_eq!(counts.iter().sum::<usize>(), table.len());
        stats.dirty_leaves = dirty_sorted.len();
        dirty_sorted.sort_unstable();

        // Tree metadata: parent pointers (forward pass) and, exploiting the
        // pre-order layout (children after parent), subtree row counts
        // (reverse pass). Subtree bounding boxes are NOT materialized here:
        // only merge targets and recut roots ever need one, so they are
        // computed on demand by `push_subtree_box`.
        let nodes = self.part.nodes();
        let n_nodes = nodes.len();
        let mut parent = vec![usize::MAX; n_nodes];
        let mut leaf_node = vec![usize::MAX; n_boxes];
        for (i, node) in nodes.iter().enumerate() {
            match *node {
                SplitNode::Split { left, right, .. } => {
                    debug_assert!(left > i && right > i, "tree must be pre-order");
                    parent[left] = i;
                    parent[right] = i;
                }
                SplitNode::Leaf(b) => leaf_node[b] = i,
            }
        }
        let mut sub_count = vec![0usize; n_nodes];
        for i in (0..n_nodes).rev() {
            match nodes[i] {
                SplitNode::Leaf(b) => {
                    sub_count[i] = counts[b];
                }
                SplitNode::Split { left, right, .. } => {
                    sub_count[i] = sub_count[left] + sub_count[right];
                }
            }
        }

        // Phase 2 — merge: collapse each underfull dirty leaf into the
        // nearest ancestor subtree holding >= k rows; keep only maximal
        // collapse nodes (an ancestor subsumes its descendants). Node sets
        // are dense flags indexed by node id, each with its member list.
        let mut collapse = vec![false; n_nodes];
        let mut collapse_list: Vec<usize> = Vec::new();
        for &b in &dirty_sorted {
            if counts[b] >= k {
                continue;
            }
            // Terminates before running off the root: sub_count[root] is
            // the table size, checked >= k above.
            let mut node = leaf_node[b];
            while sub_count[node] < k {
                node = parent[node];
            }
            if !std::mem::replace(&mut collapse[node], true) {
                collapse_list.push(node);
            }
        }
        let mut collapse_max = vec![false; n_nodes];
        let mut collapse_sorted: Vec<usize> = Vec::new();
        'candidates: for &c in &collapse_list {
            let mut p = parent[c];
            while p != usize::MAX {
                if collapse[p] {
                    continue 'candidates;
                }
                p = parent[p];
            }
            collapse_max[c] = true;
            collapse_sorted.push(c);
        }
        collapse_sorted.sort_unstable();
        stats.merges = collapse_sorted.len();

        // Phase 3 — recut set: dirty or merged effective leaves holding
        // >= 2k rows may admit new cuts. Untouched leaves are never re-cut;
        // that is the byte-identity guarantee.
        let mut recut_nodes: Vec<usize> = Vec::new();
        let under_collapse = |mut node: usize| -> bool {
            loop {
                node = parent[node];
                if node == usize::MAX {
                    return false;
                }
                if collapse_max[node] {
                    return true;
                }
            }
        };
        for &b in &dirty_sorted {
            let ln = leaf_node[b];
            if counts[b] >= 2 * k && !under_collapse(ln) && !collapse_max[ln] {
                recut_nodes.push(ln);
            }
        }
        for &c in &collapse_sorted {
            if sub_count[c] >= 2 * k {
                recut_nodes.push(c);
            }
        }
        recut_nodes.sort_unstable();
        stats.recuts = recut_nodes.len();
        let mut node_slot = vec![usize::MAX; n_nodes];
        for (slot, &nid) in recut_nodes.iter().enumerate() {
            node_slot[nid] = slot;
        }

        // Gather members of recut regions: the one pass that reads QI
        // values row by row, run only when some region actually needs a
        // recut. No tree is walked: each recut node's slot is propagated
        // down to the leaf boxes it covers, and the scan is a streaming
        // read of the post-delta assignment against that box→slot table.
        // Every region's row count is already known (`sub_count`), so the
        // regions sit back to back in one flat buffer at prefix-sum
        // offsets and the pass writes each member straight into its
        // region's next free row: rows keep ascending row-id order within
        // a region, and the buffer is the same at any thread count. Each
        // gathered row carries its post-delta row id as a trailing matrix
        // column (the same trick the full build uses for its assignment
        // read-off), so after the re-cut the new assignment falls out of
        // the arena's box runs.
        const NO_SLOT: u32 = u32::MAX;
        let stride = d + 1;
        let n_slots = recut_nodes.len();
        // Region `slot` owns rows `starts[slot]..starts[slot + 1]` of
        // `gathered`.
        let mut starts: Vec<usize> = Vec::with_capacity(n_slots + 1);
        let mut total = 0usize;
        starts.push(0);
        for &nid in &recut_nodes {
            total += sub_count[nid];
            starts.push(total);
        }
        let mut gathered: Vec<u32> = vec![0; total * stride];
        if n_slots > 0 {
            let mut box_slot: Vec<u32> = vec![NO_SLOT; n_boxes];
            // Recut nodes are disjoint and children follow parents in the
            // pre-order layout, so one forward pass inherits each node's
            // owning slot from its parent.
            let mut node_owner = vec![NO_SLOT; n_nodes];
            for i in 0..n_nodes {
                node_owner[i] = if node_slot[i] != usize::MAX {
                    node_slot[i] as u32
                } else if parent[i] != usize::MAX {
                    node_owner[parent[i]]
                } else {
                    NO_SLOT
                };
            }
            for (b, &ln) in leaf_node.iter().enumerate() {
                box_slot[b] = node_owner[ln];
            }
            let qi_cols: Vec<&[u32]> =
                schema.qi_indices().iter().map(|&c| table.column(c)).collect();
            // Each region's next free row. It counts every row the region
            // receives but writes only while the region has room, so a
            // delta description inconsistent with the table is caught
            // below instead of overrunning a neighbour.
            let mut fill: Vec<usize> = starts[..n_slots].to_vec();
            for (r, &b) in next_assign.iter().enumerate() {
                let slot = box_slot[b as usize];
                if slot == NO_SLOT {
                    continue;
                }
                let at = &mut fill[slot as usize];
                if *at < starts[slot as usize + 1] {
                    let row = &mut gathered[*at * stride..(*at + 1) * stride];
                    for (v, col) in row.iter_mut().zip(&qi_cols) {
                        *v = col[r];
                    }
                    row[d] = r as u32;
                }
                *at += 1;
            }
            for (slot, &end) in fill.iter().enumerate() {
                let expect = starts[slot + 1] - starts[slot];
                let got = end - starts[slot];
                stats.gathered_rows += got;
                if got != expect {
                    return Err(GeneralizeError::InvalidParameter(format!(
                        "delta description inconsistent with the table: a repaired \
                         region expected {expect} rows, found {got}"
                    )));
                }
            }
        }

        // Recut each gathered region on the full build's Stage B runner
        // (cut choices are pure functions of histograms, so the result is
        // deterministic regardless of row order or threads). The build
        // permutes each region's rows into contiguous pre-order box runs
        // in place, so the rows ride back out in `gathered`.
        let mut recut_bounds: Vec<u32> = Vec::with_capacity(n_slots * w);
        for &nid in &recut_nodes {
            self.push_subtree_box(nid, &mut recut_bounds);
        }
        let ranges: Vec<(usize, usize)> = starts.windows(2).map(|s| (s[0], s[1] - s[0])).collect();
        let (runs, arenas) = build_subtrees(
            PROF_REPAIR,
            config.threads.max(1),
            &self.domain_sizes,
            k,
            &recut_bounds,
            carve_rows(&mut gathered, d, &ranges),
        );

        // Phase 4 — flatten: write the repaired tree out pre-order,
        // splicing re-cut subtrees over their slots and emitting collapse
        // nodes as single merged leaves. The flatten also records where
        // every old box (and every arena box) landed, so the assignment
        // can be rewritten to the new numbering without a single locate.
        // A verbatim old leaf that the batch left clean is recorded in
        // `carried_from`, the map returned to the caller. The output
        // vectors are sized up front — the repaired tree has at most the
        // old tree's nodes and leaves plus the arenas' — so they never
        // grow.
        let resolve = |i: usize| -> FlattenSrc {
            match runs.get(node_slot[i]) {
                Some(run) => FlattenSrc::New { worker: run.worker, node: run.root },
                None => FlattenSrc::Old(i),
            }
        };
        let arena_nodes: usize = arenas.iter().map(|a| a.nodes.len()).sum();
        let max_leaves = n_boxes + arenas.iter().map(|a| a.counts.len()).sum::<usize>();
        // Old box → new box for boxes that survive (verbatim or merged
        // into a collapse leaf); boxes swallowed by a recut stay MAX and
        // are rewritten through the arena runs below.
        let mut renum_box: Vec<u32> = vec![u32::MAX; n_boxes];
        // Per worker arena: arena box → new box.
        let mut arena_out: Vec<Vec<u32>> =
            arenas.iter().map(|a| vec![u32::MAX; a.counts.len()]).collect();
        let mut out_nodes: Vec<SplitNode> = Vec::with_capacity(n_nodes + arena_nodes);
        let mut out_bounds: Vec<u32> = Vec::with_capacity(max_leaves * w);
        let mut out_counts: Vec<usize> = Vec::with_capacity(max_leaves);
        let mut carried_from: Vec<u32> = Vec::with_capacity(max_leaves);
        // (source, parent index in out_nodes or MAX, is-left-child)
        let mut stack: Vec<(FlattenSrc, usize, bool)> = Vec::with_capacity(64);
        stack.push((resolve(self.part.root()), usize::MAX, false));
        while let Some((src, pidx, is_left)) = stack.pop() {
            let idx = out_nodes.len();
            if pidx != usize::MAX {
                if let SplitNode::Split { left, right, .. } = &mut out_nodes[pidx] {
                    if is_left {
                        *left = idx;
                    } else {
                        *right = idx;
                    }
                }
            }
            let new_box = out_counts.len() as u32;
            // (leaf count, carried from) of a leaf whose bounds were just
            // appended, or `None` for a split already pushed.
            let leaf: Option<(usize, u32)> = match src {
                FlattenSrc::Old(i) if collapse_max[i] => {
                    // Every old leaf under the collapse maps to the one
                    // merged output leaf.
                    let mut sub = vec![i];
                    while let Some(j) = sub.pop() {
                        match nodes[j] {
                            SplitNode::Split { left, right, .. } => {
                                sub.push(left);
                                sub.push(right);
                            }
                            SplitNode::Leaf(b) => renum_box[b] = new_box,
                        }
                    }
                    self.push_subtree_box(i, &mut out_bounds);
                    Some((sub_count[i], u32::MAX))
                }
                FlattenSrc::Old(i) => match nodes[i] {
                    SplitNode::Split { qi_pos, cut, left, right } => {
                        out_nodes.push(SplitNode::Split {
                            qi_pos,
                            cut,
                            left: usize::MAX,
                            right: usize::MAX,
                        });
                        stack.push((resolve(right), idx, false));
                        stack.push((resolve(left), idx, true));
                        None
                    }
                    SplitNode::Leaf(b) => {
                        renum_box[b] = new_box;
                        out_bounds.extend_from_slice(self.part.box_at(b).bounds());
                        Some((counts[b], if dirty[b] { u32::MAX } else { b as u32 }))
                    }
                },
                FlattenSrc::New { worker, node } => {
                    let arena = &arenas[worker];
                    match arena.nodes[node] {
                        SplitNode::Split { qi_pos, cut, left, right } => {
                            out_nodes.push(SplitNode::Split {
                                qi_pos,
                                cut,
                                left: usize::MAX,
                                right: usize::MAX,
                            });
                            stack.push((FlattenSrc::New { worker, node: right }, idx, false));
                            stack.push((FlattenSrc::New { worker, node: left }, idx, true));
                            None
                        }
                        SplitNode::Leaf(bi) => {
                            arena_out[worker][bi] = new_box;
                            out_bounds.extend_from_slice(box_bounds(&arena.bounds, d, bi));
                            Some((arena.counts[bi], u32::MAX))
                        }
                    }
                }
            };
            if let Some((count, from)) = leaf {
                out_counts.push(count);
                carried_from.push(from);
                out_nodes.push(SplitNode::Leaf(new_box as usize));
            }
        }

        // Finalize the assignment: surviving and merged boxes renumber by
        // table lookup; rows of recut regions read off the arena box runs
        // via the id column they carried through the cut — work
        // proportional to the churn, never to the table. The runs tile
        // `gathered` in region order.
        for a in next_assign.iter_mut() {
            let m = renum_box[*a as usize];
            if m != u32::MAX {
                *a = m;
            }
        }
        let mut off = 0usize;
        for run in &runs {
            let arena = &arenas[run.worker];
            for bi in run.boxes.clone() {
                let c = arena.counts[bi];
                let nb = arena_out[run.worker][bi];
                debug_assert_ne!(nb, u32::MAX, "every arena box must be flattened");
                for row in gathered[off * stride..(off + c) * stride].chunks_exact(stride) {
                    next_assign[row[d] as usize] = nb;
                }
                off += c;
            }
        }
        debug_assert_eq!(off, total);
        debug_assert!(next_assign.iter().all(|&a| (a as usize) < out_counts.len()));
        debug_assert_eq!(out_counts.iter().sum::<usize>(), table.len());

        stats.leaves_after = out_counts.len();
        stats.carried_leaves = carried_from.iter().filter(|&&from| from != u32::MAX).count();
        let repaired = RetainedTree {
            part: BoxPartition::new(out_nodes, d, out_bounds, 0),
            counts: out_counts,
            assignment: next_assign,
            domain_sizes: self.domain_sizes.clone(),
        };
        Ok((repaired, stats, carried_from))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::principles::is_k_anonymous;
    use acpp_data::sal::{self, SalConfig};
    use acpp_data::{Attribute, Domain, OwnerId, Schema, Table, Taxonomy, Value};

    fn schema2() -> Schema {
        Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(16)),
            Attribute::quasi("B", Domain::indexed(16)),
            Attribute::sensitive("S", Domain::indexed(4)),
        ])
        .unwrap()
    }

    fn grid_table(n: u32) -> Table {
        let mut t = Table::new(schema2());
        let mut o = 0u32;
        for a in 0..n {
            for b in 0..n {
                t.push_row(OwnerId(o), &[Value(a), Value(b), Value((a + b) % 4)]).unwrap();
                o += 1;
            }
        }
        t
    }

    #[test]
    fn assignment_matches_locate_at_every_thread_count() {
        let t = sal::generate(SalConfig { rows: 4_000, seed: 77 });
        for threads in [1usize, 2, 4] {
            let cfg = MondrianConfig::new(8).with_threads(threads);
            let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
            let (r, assignment) = (tree.recoding(), tree.assignment());
            let Recoding::Boxes(part) = &r else { panic!("expected boxes") };
            let qi_cols: Vec<&[u32]> =
                t.schema().qi_indices().iter().map(|&c| t.column(c)).collect();
            let mut qi = vec![Value(0); qi_cols.len()];
            for row in 0..t.len() {
                for (slot, col) in qi.iter_mut().zip(&qi_cols) {
                    *slot = Value(col[row]);
                }
                assert_eq!(assignment[row] as usize, part.locate(&qi), "row {row}");
            }
        }
    }

    #[test]
    fn low_grain_assignment_matches_locate() {
        // Forcing the grain low exercises the frontier histogram/scatter
        // and the parity-tracked read-off at small n.
        let t = sal::generate(SalConfig { rows: 3_000, seed: 5 });
        let base = MondrianConfig::new(4);
        let (seq, _) = partition(&t, t.schema(), base).unwrap();
        let (r_seq, a_seq) = (seq.recoding(), seq.assignment());
        for threads in [2usize, 3, 8] {
            let cfg = base.with_threads(threads).with_grain(32);
            let (tree, stats) = partition(&t, t.schema(), cfg).unwrap();
            let (r, a) = (tree.recoding(), tree.assignment());
            assert_eq!(r, r_seq, "threads={threads}");
            assert_eq!(a, a_seq, "threads={threads}");
            assert!(stats.hist_items > 0 && stats.subtree_tasks > 0, "{stats:?}");
        }
    }

    #[test]
    fn wide_leaves_land_in_the_pong_buffer() {
        // One splittable dimension, then all-duplicate children: both
        // children become *wide* leaves after one scatter, so their rows
        // live in the pong buffer (parity true) and the assignment
        // read-off must look there.
        let mut t = Table::new(schema2());
        for i in 0..20_000u32 {
            t.push_row(OwnerId(i), &[Value((i % 2) * 8), Value(3), Value(i % 4)]).unwrap();
        }
        let (seq_tree, _) = partition(&t, t.schema(), MondrianConfig::new(4)).unwrap();
        let seq = (seq_tree.recoding(), seq_tree.assignment());
        for threads in [2usize, 4, 8] {
            let cfg = MondrianConfig::new(4).with_threads(threads);
            let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
            let (r, assignment) = (tree.recoding(), tree.assignment());
            assert_eq!(r, seq.0, "threads={threads}");
            assert_eq!(assignment, seq.1, "threads={threads}");
            let Recoding::Boxes(part) = &r else { panic!("expected boxes") };
            assert_eq!(part.len(), 2, "one cut, two duplicate-heavy leaves");
        }
    }

    #[test]
    fn partition_is_k_anonymous_and_total() {
        let t = grid_table(16); // 256 rows on a 16x16 grid
        let taxes = vec![Taxonomy::intervals(16, 2), Taxonomy::intervals(16, 2)];
        for k in [1usize, 2, 5, 10, 40] {
            let r = partition(&t, t.schema(), MondrianConfig::new(k)).unwrap().0.into_recoding();
            let (g, _) = r.group(&t, &taxes);
            assert!(is_k_anonymous(&g, k), "k={k}");
            assert!(g.validate());
            // Every point of the space locates somewhere.
            if let Recoding::Boxes(part) = &r {
                part.check().unwrap();
                assert!(part.locate(&[Value(15), Value(15)]) < part.len());
            } else {
                panic!("expected boxes");
            }
        }
    }

    #[test]
    fn small_k_gives_fine_partition() {
        let t = grid_table(16);
        let r1 = partition(&t, t.schema(), MondrianConfig::new(1)).unwrap().0.into_recoding();
        let r10 = partition(&t, t.schema(), MondrianConfig::new(10)).unwrap().0.into_recoding();
        let (n1, n10) = match (&r1, &r10) {
            (Recoding::Boxes(a), Recoding::Boxes(b)) => (a.len(), b.len()),
            _ => unreachable!(),
        };
        assert!(n1 > n10, "finer partition for smaller k: {n1} vs {n10}");
        // k=1 on a uniform grid should isolate every row.
        assert_eq!(n1, 256);
    }

    #[test]
    fn groups_are_boxes_of_at_least_k() {
        let t = grid_table(8);
        let taxes = vec![Taxonomy::intervals(16, 2), Taxonomy::intervals(16, 2)];
        let r = partition(&t, t.schema(), MondrianConfig::new(6)).unwrap().0.into_recoding();
        let (g, sigs) = r.group(&t, &taxes);
        for (gid, members) in g.iter_nonempty() {
            assert!(members.len() >= 6);
            // All members lie in the group's box.
            let sig = &sigs[gid.index()];
            for &row in members {
                for pos in 0..2 {
                    let (lo, hi) = r.interval(&taxes, sig, pos);
                    let c = t.value(row, pos).code();
                    assert!(lo <= c && c <= hi);
                }
            }
        }
    }

    #[test]
    fn rejects_unsatisfiable_and_zero_k() {
        let t = grid_table(2); // 4 rows
        assert!(matches!(
            partition(&t, t.schema(), MondrianConfig::new(5)),
            Err(GeneralizeError::Unsatisfiable(_))
        ));
        assert!(matches!(
            partition(&t, t.schema(), MondrianConfig::new(0)),
            Err(GeneralizeError::InvalidParameter(_))
        ));
    }

    #[test]
    fn duplicate_heavy_data_still_partitions() {
        // All rows share one QI vector: only the trivial box is possible.
        let mut t = Table::new(schema2());
        for i in 0..20u32 {
            t.push_row(OwnerId(i), &[Value(3), Value(3), Value(i % 4)]).unwrap();
        }
        let r = partition(&t, t.schema(), MondrianConfig::new(2)).unwrap().0.into_recoding();
        match &r {
            Recoding::Boxes(p) => assert_eq!(p.len(), 1),
            _ => unreachable!(),
        }
    }

    #[test]
    fn sal_partition_produces_small_boxes() {
        let t = sal::generate(SalConfig { rows: 5_000, seed: 9 });
        let taxes = sal::qi_taxonomies();
        let r = partition(&t, t.schema(), MondrianConfig::new(6)).unwrap().0.into_recoding();
        let (g, _) = r.group(&t, &taxes);
        assert!(is_k_anonymous(&g, 6));
        let avg = crate::loss::average_group_size(&g);
        assert!(avg < 14.0, "average group size too large: {avg}");
    }

    #[test]
    fn parallel_partition_is_byte_identical() {
        let t = sal::generate(SalConfig { rows: 40_000, seed: 4 });
        for k in [2usize, 7, 25] {
            let seq = partition(&t, t.schema(), MondrianConfig::new(k)).unwrap().0;
            for threads in [2usize, 3, 8] {
                let par = partition(
                    &t,
                    t.schema(),
                    MondrianConfig::new(k).with_threads(threads),
                )
                .unwrap()
                .0;
                assert_eq!(seq, par, "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn parallel_path_actually_runs_tasks() {
        let t = sal::generate(SalConfig { rows: 40_000, seed: 4 });
        let (_, stats) = partition(
            &t,
            t.schema(),
            MondrianConfig::new(2).with_threads(4),
        )
        .unwrap();
        assert!(stats.tasks > 1, "expected parallel work items, got {stats:?}");
        assert!(stats.levels > 0, "{stats:?}");
        assert!(stats.fill_items > 0, "{stats:?}");
        assert!(stats.hist_items > 0, "above-grain nodes histogram in chunks: {stats:?}");
        assert!(stats.scatter_items > 0, "above-grain splits scatter in chunks: {stats:?}");
        assert!(stats.subtree_tasks > 0, "below-grain subtrees fan out: {stats:?}");
        // The sequential path reports no tasks.
        let (_, seq_stats) = partition(&t, t.schema(), MondrianConfig::new(2)).unwrap();
        assert_eq!(seq_stats, BuildStats::default());
    }

    #[test]
    fn with_threads_clamps_zero_to_one() {
        assert_eq!(MondrianConfig::new(3).with_threads(0).threads, 1);
        assert_eq!(MondrianConfig::new(3).with_grain(0).grain, 2);
    }

    // ---- retained-tree repair ----

    /// Recomputes per-box counts of `tree` by locating every row of
    /// `table`, and checks both the retained counts and the retained
    /// row→box assignment against that full locate pass.
    fn assert_counts_consistent(tree: &RetainedTree, table: &Table) {
        let Recoding::Boxes(part) = tree.recoding() else { panic!("expected boxes") };
        part.check().unwrap();
        let mut seen = vec![0usize; part.len()];
        for r in 0..table.len() {
            let b = part.locate(&table.qi_vector(r));
            assert_eq!(tree.assignment()[r] as usize, b, "assignment of row {r}");
            seen[b] += 1;
        }
        assert_eq!(seen, tree.counts(), "retained counts must match a full locate pass");
    }

    /// Drops `rows` from `t`, returning the shrunk table and the sorted
    /// deleted indices in the form `apply_delta` takes.
    fn delete_rows(t: &Table, rows: &[usize]) -> (Table, Vec<usize>) {
        let dropped: std::collections::HashSet<usize> = rows.iter().copied().collect();
        let keep: Vec<usize> = (0..t.len()).filter(|r| !dropped.contains(r)).collect();
        let mut dels: Vec<usize> = dropped.into_iter().collect();
        dels.sort_unstable();
        (t.select_rows(&keep), dels)
    }

    #[test]
    fn retained_tree_matches_its_recoding() {
        let t = sal::generate(SalConfig { rows: 3_000, seed: 9 });
        let cfg = MondrianConfig::new(6);
        let plain = partition(&t, t.schema(), cfg).unwrap().0.into_recoding();
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        let r = tree.recoding();
        assert_eq!(r, plain);
        assert_eq!(r, tree.recoding());
        assert_eq!(tree.counts().iter().sum::<usize>(), t.len());
        assert_counts_consistent(&tree, &t);
    }

    #[test]
    fn empty_delta_is_identity() {
        let t = grid_table(16);
        let cfg = MondrianConfig::new(5);
        let (before, _) = partition(&t, t.schema(), cfg).unwrap();
        let (tree, stats, carried_from) =
            before.apply_delta(&t, t.schema(), &[], &[], cfg).unwrap();
        assert_eq!(tree, before, "empty delta must not move a single box");
        assert_eq!(stats.dirty_leaves, 0);
        assert_eq!(stats.carried_leaves, tree.len(), "every leaf carries");
        assert!(carried_from.iter().enumerate().all(|(b, &from)| from as usize == b));
        assert_eq!(stats.gathered_rows, 0, "no recut ⇒ no O(n) pass");
    }

    #[test]
    fn untouched_leaves_keep_their_boxes() {
        let t = sal::generate(SalConfig { rows: 2_000, seed: 3 });
        let cfg = MondrianConfig::new(8);
        let (before, _) = partition(&t, t.schema(), cfg).unwrap();
        // Delete three scattered rows, insert three near-copies of others.
        let (mut next, dels) = delete_rows(&t, &[10, 500, 1500]);
        let base = next.len();
        for src in [20usize, 600, 1600] {
            let row: Vec<Value> = (0..t.schema().arity()).map(|c| t.value(src, c)).collect();
            next.push_row(OwnerId(1_000_000 + src as u32), &row).unwrap();
        }
        let inserted: Vec<usize> = (base..next.len()).collect();
        let (tree, stats, carried_from) =
            before.apply_delta(&next, next.schema(), &inserted, &dels, cfg).unwrap();
        assert_counts_consistent(&tree, &next);
        assert!(tree.counts().iter().all(|&c| c >= cfg.k), "repair must restore G2");
        // A carried leaf has the box, count and members it had before: the
        // survivors keep their order, so its rows are the old rows shifted
        // past the deletions.
        assert_eq!(carried_from.len(), tree.len());
        assert_eq!(
            stats.carried_leaves,
            carried_from.iter().filter(|&&f| f != u32::MAX).count()
        );
        let survivors: Vec<usize> = (0..t.len()).filter(|r| !dels.contains(r)).collect();
        let (Recoding::Boxes(old), Recoding::Boxes(new)) = (before.recoding(), tree.recoding())
        else {
            panic!("expected boxes")
        };
        let before_boxes: std::collections::HashSet<QiBox<'_>> = old.boxes().collect();
        for (b, &from) in carried_from.iter().enumerate().filter(|(_, &f)| f != u32::MAX) {
            let from = from as usize;
            assert_eq!(new.box_at(b), old.box_at(from), "carried leaf {b} moved");
            assert_eq!(tree.counts()[b], before.counts()[from]);
            let now: Vec<usize> =
                (0..next.len()).filter(|&r| tree.assignment()[r] as usize == b).collect();
            let then: Vec<usize> = (0..survivors.len())
                .filter(|&r| before.assignment()[survivors[r]] as usize == from)
                .collect();
            assert_eq!(now, then, "carried leaf {b} changed members");
        }
        // Every box the delta did not touch must survive verbatim; with a
        // tiny batch that is almost all of them.
        let after_boxes: std::collections::HashSet<QiBox<'_>> = new.boxes().collect();
        let surviving = before_boxes.intersection(&after_boxes).count();
        assert!(
            before_boxes.len() - surviving <= 2 * (stats.dirty_leaves + stats.merges + stats.recuts),
            "only dirty regions may change: {} of {} boxes vanished, stats {stats:?}",
            before_boxes.len() - surviving,
            before_boxes.len()
        );
        assert!(surviving >= before_boxes.len() / 2);
    }

    #[test]
    fn underfull_leaf_merges_up_to_k() {
        let t = grid_table(16); // 256 rows
        let cfg = MondrianConfig::new(4);
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        // Empty out one whole leaf: find the first box and delete all its
        // rows; the leaf goes to zero and must merge into an ancestor.
        let Recoding::Boxes(part) = tree.recoding() else { panic!("expected boxes") };
        let victims: Vec<usize> =
            (0..t.len()).filter(|&r| part.locate(&t.qi_vector(r)) == 0).collect();
        assert!(!victims.is_empty());
        let (next, dels) = delete_rows(&t, &victims);
        let (tree, stats, _) = tree.apply_delta(&next, next.schema(), &[], &dels, cfg).unwrap();
        assert!(stats.merges >= 1, "{stats:?}");
        assert!(tree.counts().iter().all(|&c| c >= cfg.k), "merge must restore G2");
        assert_counts_consistent(&tree, &next);
    }

    #[test]
    fn overfull_leaf_recuts() {
        let t = grid_table(16);
        let cfg = MondrianConfig::new(4);
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        let leaves_before = tree.len();
        // Pile 40 new rows spread across the corner leaf's box; with the
        // extra mass the leaf admits new median cuts and must refine.
        let Recoding::Boxes(part) = tree.recoding() else { panic!("expected boxes") };
        let bx = part.box_at(part.locate(&[Value(0), Value(0)]));
        let mut next = t.clone();
        let base = next.len();
        for i in 0..40u32 {
            let a = bx.lows()[0] + i % (bx.highs()[0] - bx.lows()[0] + 1);
            let b = bx.lows()[1] + (i / 4) % (bx.highs()[1] - bx.lows()[1] + 1);
            next.push_row(OwnerId(10_000 + i), &[Value(a), Value(b), Value(i % 4)]).unwrap();
        }
        let inserted: Vec<usize> = (base..next.len()).collect();
        let (tree, stats, _) = tree.apply_delta(&next, next.schema(), &inserted, &[], cfg).unwrap();
        assert!(stats.recuts >= 1, "{stats:?}");
        assert!(stats.gathered_rows > 0);
        assert!(tree.len() > leaves_before, "recut should refine the corner");
        assert!(tree.counts().iter().all(|&c| c >= cfg.k));
        assert_counts_consistent(&tree, &next);
    }

    #[test]
    fn repair_is_thread_invariant() {
        let t = sal::generate(SalConfig { rows: 4_000, seed: 41 });
        let cfg1 = MondrianConfig::new(6);
        let (tree0, _) = partition(&t, t.schema(), cfg1).unwrap();
        // A churn batch big enough to force merges and recuts.
        let victims: Vec<usize> = (0..400).map(|i| i * 7 % t.len()).collect();
        let mut dedup = victims.clone();
        dedup.sort_unstable();
        dedup.dedup();
        let (mut next, dels) = delete_rows(&t, &dedup);
        let base = next.len();
        for i in 0..300usize {
            let src = (i * 13) % t.len();
            let row: Vec<Value> = (0..t.schema().arity()).map(|c| t.value(src, c)).collect();
            next.push_row(OwnerId(2_000_000 + i as u32), &row).unwrap();
        }
        let inserted: Vec<usize> = (base..next.len()).collect();
        let mut reference: Option<RetainedTree> = None;
        for threads in [1usize, 2, 4] {
            let cfg = cfg1.with_threads(threads).with_grain(64);
            let (tree, stats, _) =
                tree0.apply_delta(&next, next.schema(), &inserted, &dels, cfg).unwrap();
            assert!(tree.counts().iter().all(|&c| c >= cfg.k), "threads={threads} {stats:?}");
            match &reference {
                None => reference = Some(tree),
                Some(want) => assert_eq!(&tree, want, "threads={threads}"),
            }
        }
        assert_counts_consistent(reference.as_ref().unwrap(), &next);
    }

    #[test]
    fn inconsistent_delta_is_rejected() {
        let t = grid_table(16);
        let cfg = MondrianConfig::new(4);
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        // Claiming a deletion without actually shrinking the table makes
        // the row arithmetic come out wrong.
        let err = tree.apply_delta(&t, t.schema(), &[], &[0], cfg).unwrap_err();
        assert!(matches!(err, GeneralizeError::InvalidParameter(_)), "{err:?}");
        // A deleted index past the previous version's end.
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        let err = tree.apply_delta(&t, t.schema(), &[], &[t.len()], cfg).unwrap_err();
        assert!(matches!(err, GeneralizeError::InvalidParameter(_)), "{err:?}");
        // Deleted indices out of order (or duplicated) are rejected.
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        let (next, _) = delete_rows(&t, &[3, 5]);
        let err = tree.apply_delta(&next, next.schema(), &[], &[5, 3], cfg).unwrap_err();
        assert!(matches!(err, GeneralizeError::InvalidParameter(_)), "{err:?}");
        // Inserted rows must name the post-delta tail, in order.
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        let err = tree.apply_delta(&t, t.schema(), &[0], &[t.len() - 1], cfg).unwrap_err();
        assert!(matches!(err, GeneralizeError::InvalidParameter(_)), "{err:?}");
    }

    #[test]
    fn shrinking_below_k_is_unsatisfiable() {
        let t = grid_table(4); // 16 rows
        let cfg = MondrianConfig::new(8);
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        let (next, dels) = delete_rows(&t, &(0..10).collect::<Vec<_>>());
        let err = tree.apply_delta(&next, next.schema(), &[], &dels, cfg).unwrap_err();
        assert!(matches!(err, GeneralizeError::Unsatisfiable(_)), "{err:?}");
    }

    #[test]
    fn repair_profiles_under_phase_repair() {
        let prof = acpp_obs::prof::profiler();
        let t = grid_table(16);
        let cfg = MondrianConfig::new(4);
        let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
        let mut next = t.clone();
        let base = next.len();
        for i in 0..40u32 {
            next.push_row(OwnerId(10_000 + i), &[Value(0), Value(0), Value(i % 4)]).unwrap();
        }
        let inserted: Vec<usize> = (base..next.len()).collect();
        prof.begin();
        tree.apply_delta(&next, next.schema(), &inserted, &[], cfg).unwrap();
        let samples = prof.take();
        assert!(
            samples.iter().any(|s| s.phase == PROF_REPAIR),
            "repair passes must attribute to {PROF_REPAIR}"
        );
    }

    #[test]
    fn zero_qi_build_is_one_box() {
        // A schema whose only attribute is the sensitive one: the build and
        // the repair both short-circuit to the single total box.
        let schema = Schema::new(vec![Attribute::sensitive("S", Domain::indexed(4))]).unwrap();
        let mut t = Table::new(schema);
        for i in 0..12u32 {
            t.push_row(OwnerId(i), &[Value(i % 4)]).unwrap();
        }
        for threads in [1usize, 4] {
            let cfg = MondrianConfig::new(3).with_threads(threads);
            let (tree, _) = partition(&t, t.schema(), cfg).unwrap();
            assert_eq!(tree.len(), 1, "threads={threads}");
            assert_eq!(tree.counts(), [t.len()]);
            assert_eq!(tree.assignment(), vec![0; t.len()]);

            let (mut next, dels) = delete_rows(&t, &[5]);
            next.push_row(OwnerId(100), &[Value(2)]).unwrap();
            let inserted = [next.len() - 1];
            let (repaired, stats, carried_from) =
                tree.apply_delta(&next, next.schema(), &inserted, &dels, cfg).unwrap();
            assert_eq!(repaired.len(), 1);
            assert_eq!(repaired.counts(), [next.len()]);
            assert_eq!(carried_from, [u32::MAX], "a touched box is not carried");
            assert_eq!(stats.carried_leaves, 0);

            let (same, stats, carried_from) =
                tree.apply_delta(&t, t.schema(), &[], &[], cfg).unwrap();
            assert_eq!(same, tree);
            assert_eq!(carried_from, [0], "an empty batch carries the box");
            assert_eq!(stats.carried_leaves, 1);
        }
    }
}
