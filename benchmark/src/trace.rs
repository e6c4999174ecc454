//! The traced run's instruments, all on the benchmark's side of the calls
//! into the program: a counting global allocator that counts only while
//! armed, and an in-memory span log written out as JSONL at exit.

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

use crate::sut;

/// The system allocator, plus a process-wide count of blocks allocated
/// while armed.
pub struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a relaxed atomic that allocates
// nothing and publishes no other data.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: the caller's `layout` contract is passed through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        // SAFETY: as for `alloc`; forwarding keeps `System`'s calloc path.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    // A resize is not counted: how often a worker's result vector grows
    // depends on how many chunks it happened to steal, so counting resizes
    // would make the count differ between runs of the same seed.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller
        // guarantees `new_size` is valid for it.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Starts or stops counting allocations.
pub fn arm_allocs(on: bool) {
    ARMED.store(on, Ordering::Relaxed);
}

/// Allocations counted so far, across every thread.
pub fn allocs() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Allocation counting and the shard profiler, running for one traced op
/// and stopped when dropped, so an op that fails part-way never leaves them
/// running into the ops after it.
pub struct Armed;

impl Armed {
    /// Starts both instruments.
    pub fn new() -> Armed {
        arm_allocs(true);
        sut::profiler_begin();
        Armed
    }

    /// Stops both instruments; returns the shard totals.
    pub fn finish(self) -> sut::ShardTime {
        arm_allocs(false);
        sut::profiler_take()
    }
}

impl Drop for Armed {
    fn drop(&mut self) {
        arm_allocs(false);
        sut::profiler_take();
    }
}

/// One span: a layer call timed from the benchmark, or a span harvested
/// from the program's own telemetry and placed on the benchmark's clock.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRec {
    /// Layer name (`<crate>.<what>`, or `op` for a whole operation).
    pub name: &'static str,
    /// Start, microseconds since the log's epoch.
    pub start_us: u64,
    /// End, microseconds since the log's epoch.
    pub end_us: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// The operation (or job) this span belongs to.
    pub op: u64,
}

/// The in-memory span log of one traced run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    recs: Vec<SpanRec>,
}

impl Spans {
    /// An empty log whose clock starts now.
    pub fn new() -> Spans {
        Spans {
            epoch: Instant::now(),
            recs: Vec::new(),
        }
    }

    /// Microseconds since the epoch of `at`.
    pub fn us(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_micros() as u64
    }

    /// Records a span and returns its index (for children).
    pub fn push(
        &mut self,
        name: &'static str,
        start_us: u64,
        end_us: u64,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        self.recs.push(SpanRec {
            name,
            start_us,
            end_us: end_us.max(start_us),
            parent,
            op,
        });
        self.recs.len() - 1
    }

    /// Records a span between two instants.
    pub fn push_at(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: u64,
    ) -> usize {
        let (s, e) = (self.us(start), self.us(end));
        self.push(name, s, e, parent, op)
    }

    /// Each span's self time: its duration minus the time its children
    /// cover (children of one span never overlap, since every layer call
    /// is sequential within an operation).
    pub fn self_us(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.recs.iter().map(|r| r.end_us - r.start_us).collect();
        for r in &self.recs {
            if let Some(p) = r.parent {
                own[p] = own[p].saturating_sub(r.end_us - r.start_us);
            }
        }
        own
    }

    /// Summed duration of the root spans (the traced ops), microseconds.
    pub fn root_us(&self) -> u64 {
        self.recs
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| r.end_us - r.start_us)
            .sum()
    }

    /// Median duration of a root span (a traced op), milliseconds.
    pub fn median_root_ms(&self) -> f64 {
        let roots: Vec<f64> = self
            .recs
            .iter()
            .filter(|r| r.parent.is_none())
            .map(|r| (r.end_us - r.start_us) as f64 / 1e3)
            .collect();
        if roots.is_empty() {
            0.0
        } else {
            crate::stats::median(&roots)
        }
    }

    /// Share of the traced ops' time spent in layer `name`: the summed self
    /// time of its spans over [`Spans::root_us`].
    pub fn share(&self, name: &str) -> f64 {
        self.share_where(|r| r.name == name)
    }

    /// Share of the traced ops' time that layer spans account for: every
    /// non-root span's self time over [`Spans::root_us`].
    pub fn attributed_share(&self) -> f64 {
        self.share_where(|r| r.parent.is_some())
    }

    fn share_where(&self, keep: impl Fn(&SpanRec) -> bool) -> f64 {
        let root = self.root_us();
        if root == 0 {
            return 0.0;
        }
        let own: u64 = self
            .recs
            .iter()
            .zip(self.self_us())
            .filter(|(r, _)| keep(r))
            .map(|(_, s)| s)
            .sum();
        own as f64 / root as f64
    }

    /// Writes the log as JSONL, one span per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.recs.len() * 96);
        for r in &self.recs {
            let parent = r
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_us\":{},\"end_us\":{},\"parent\":{parent},\"op\":{}}}",
                r.name, r.start_us, r.end_us, r.op
            );
        }
        let mut file = std::fs::File::create(path)?;
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children_and_share_counts_layers() {
        let mut s = Spans::new();
        let op = s.push("op", 0, 100, None, 0);
        let publish = s.push("core.pipeline", 10, 90, Some(op), 0);
        s.push("generalize.phase", 20, 70, Some(publish), 0);
        let op = s.push("op", 200, 300, None, 1);
        s.push("core.pipeline", 200, 300, Some(op), 1);
        assert_eq!(s.self_us(), vec![20, 30, 50, 0, 100]);
        assert_eq!(s.root_us(), 200);
        assert_eq!(s.median_root_ms(), 0.1);
        assert!((s.share("core.pipeline") - 0.65).abs() < 1e-12);
        assert!((s.share("generalize.phase") - 0.25).abs() < 1e-12);
        assert_eq!(s.share("data.csv_read"), 0.0);
        assert!((s.attributed_share() - 0.9).abs() < 1e-12);
    }
}
