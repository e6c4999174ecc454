//! Deterministic parallel execution engine for the PG pipeline.
//!
//! The engine shards phase work into **fixed-size chunks** ([`CHUNK_ROWS`]
//! rows, independent of thread count) and gives every chunk its own RNG
//! substream derived from a single master value drawn from the phase's
//! stream: `substream_seed(master, phase, chunk_index)` (see
//! [`acpp_data::substream_seed`]). Because a chunk's randomness is a pure
//! function of `(master, phase, chunk_index)`, the output is byte-identical
//! whether chunks run on one thread or eight, in any schedule — the worker
//! pool only decides *when* a chunk runs, never *what* it computes.
//!
//! Workers pull chunk indices from a shared work-stealing deque
//! ([`crossbeam::deque::Injector`]); results are merged back in chunk order
//! after the pool drains. [`Threads`] is the user-facing knob: `Auto`
//! resolves to the machine's available parallelism, `Fixed(1)` runs the
//! exact sequential path with no pool at all.
//!
//! Telemetry: each worker records an `acpp_obs` span (`par_worker`) with its
//! chunk count, and the global metrics registry accumulates the chunks all
//! workers ran in `acpp_par_tasks_total`.

use acpp_data::substream_seed;
use acpp_obs::prof::{alloc_count, profiler, ShardSample};
use acpp_obs::Telemetry;
use acpp_perturb::{perturb_codes_into, Channel};
use crossbeam::deque::{Injector, Steal};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::Mutex;
use std::time::Instant;

/// Rows per parallel work unit. Fixed — never derived from the thread
/// count — so that chunk boundaries (and therefore substream assignment)
/// are identical for every `Threads` setting.
pub const CHUNK_ROWS: usize = 4096;

/// Worker-thread configuration for [`publish`](crate::publish) and friends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Threads {
    /// Use the machine's available parallelism.
    #[default]
    Auto,
    /// Use exactly this many workers; `Fixed(1)` is the sequential path.
    Fixed(usize),
}

impl Threads {
    /// Resolves to a concrete worker count (at least 1).
    pub fn resolve(self) -> usize {
        match self {
            Threads::Auto => std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            Threads::Fixed(n) => n.max(1),
        }
    }

    /// Parses a CLI value: `auto` or a positive integer.
    pub fn parse(s: &str) -> Result<Self, String> {
        if s.eq_ignore_ascii_case("auto") {
            return Ok(Threads::Auto);
        }
        match s.parse::<usize>() {
            Ok(n) if n >= 1 => Ok(Threads::Fixed(n)),
            _ => Err(format!("invalid thread count {s:?}: expected `auto` or a positive integer")),
        }
    }
}

/// The chunk ranges covering `0..len`: every chunk is exactly
/// [`CHUNK_ROWS`] rows except a shorter final one. Both the sequential and
/// the parallel paths iterate this same decomposition.
pub fn chunks(len: usize) -> impl ExactSizeIterator<Item = Range<usize>> + Clone {
    let n = len.div_ceil(CHUNK_ROWS);
    (0..n).map(move |i| i * CHUNK_ROWS..((i + 1) * CHUNK_ROWS).min(len))
}

fn locked<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

thread_local! {
    /// Pool worker index of the current thread (0 on the caller's thread
    /// and any sequential path). Only read for profiler attribution —
    /// never for work assignment, so it cannot affect determinism.
    static WORKER_ID: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// The current thread's pool worker index (0 outside a worker).
pub fn current_worker() -> u64 {
    WORKER_ID.with(std::cell::Cell::get)
}

/// Applies `f` to every chunk of `0..len` and returns the per-chunk results
/// **in chunk order**, fanning the chunks out over `threads` workers.
///
/// `f(chunk_index, range)` must be a pure function of its arguments (plus
/// captured immutable state) — the engine guarantees each chunk is executed
/// exactly once but says nothing about which worker runs it or when.
/// With `threads <= 1` (or a single chunk) no pool is spun up: the chunks
/// run inline on the caller's thread, in order.
pub fn map_chunks<T, F>(len: usize, threads: usize, telemetry: &Telemetry, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    map_chunks_impl(len, threads, telemetry, &f)
}

/// [`map_chunks`] with per-shard profiling: when the global profiler
/// ([`acpp_obs::profiler`]) is collecting, every chunk records a
/// [`ShardSample`] under `phase` — queue wait (time between fan-out and
/// the chunk starting to run), run time, bytes moved
/// (`bytes_per_unit * chunk_len`), and the allocation delta seen by the
/// installed reader ([`acpp_obs::prof::alloc_count`]). Disabled, the
/// extra cost is one relaxed atomic load per call; the chunk work and
/// its scheduling are identical either way, so profiled runs stay
/// byte-identical to unprofiled ones.
pub fn map_chunks_prof<T, F>(
    phase: &'static str,
    bytes_per_unit: u64,
    len: usize,
    threads: usize,
    telemetry: &Telemetry,
    f: F,
) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let prof = profiler();
    if !prof.is_enabled() {
        return map_chunks_impl(len, threads, telemetry, &f);
    }
    let fan_out = Instant::now();
    let profiled = |i: usize, r: Range<usize>| {
        let queue_wait_us = fan_out.elapsed().as_micros() as u64;
        let bytes = bytes_per_unit * r.len() as u64;
        let allocs_before = alloc_count();
        let started = Instant::now();
        let out = f(i, r);
        prof.record(ShardSample {
            phase,
            shard: i as u64,
            worker: current_worker(),
            queue_wait_us,
            run_us: started.elapsed().as_micros() as u64,
            bytes,
            allocs: alloc_count().saturating_sub(allocs_before),
        });
        out
    };
    map_chunks_impl(len, threads, telemetry, &profiled)
}

fn map_chunks_impl<T, F>(len: usize, threads: usize, telemetry: &Telemetry, f: &F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, Range<usize>) -> T + Sync,
{
    let parts: Vec<Range<usize>> = chunks(len).collect();
    if threads <= 1 || parts.len() <= 1 {
        return parts.into_iter().enumerate().map(|(i, r)| f(i, r)).collect();
    }
    let injector: Injector<(usize, Range<usize>)> = Injector::new();
    for (i, r) in parts.iter().cloned().enumerate() {
        injector.push((i, r));
    }
    let n_chunks = parts.len();
    let results: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(n_chunks));
    let workers = threads.min(n_chunks);
    // The error arm is unreachable: a panic inside a worker propagates out
    // of std::thread::scope itself rather than surfacing here.
    let _ = crossbeam::thread::scope(|s| {
        for w in 0..workers {
            let injector = &injector;
            let results = &results;
            let f = &f;
            s.spawn(move |_| {
                WORKER_ID.with(|c| c.set(w as u64));
                let span = telemetry.span("par_worker");
                span.field("worker", w as u64);
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    match injector.steal() {
                        Steal::Success((i, r)) => local.push((i, f(i, r))),
                        Steal::Retry => continue,
                        Steal::Empty => break,
                    }
                }
                span.field("chunks", local.len() as u64);
                acpp_obs::metrics().counter_add("acpp_par_tasks_total", local.len() as u64);
                locked(results).extend(local);
                span.end();
            });
        }
    });
    let mut merged = results.into_inner().unwrap_or_else(std::sync::PoisonError::into_inner);
    merged.sort_unstable_by_key(|&(i, _)| i);
    debug_assert_eq!(merged.len(), n_chunks);
    merged.into_iter().map(|(_, t)| t).collect()
}

/// Substream domain label for Phase 1 chunk perturbation.
pub const PERTURB_DOMAIN: &str = "perturb";

/// Perturbs a sensitive-code column through `channel` in [`CHUNK_ROWS`]
/// chunks, each chunk drawing from the substream keyed by
/// `(master, "perturb", chunk_index)`. Chunk results are spliced back in
/// order, so the output is identical for every `threads` value — the knob
/// only changes which worker runs which chunk.
pub fn perturb_codes_sharded(
    channel: &Channel,
    codes: &[u32],
    master: u64,
    threads: usize,
    telemetry: &Telemetry,
) -> Vec<u32> {
    // 4 bytes read + 4 bytes written per row of the sensitive column.
    let parts = map_chunks_prof("phase.perturb", 8, codes.len(), threads, telemetry, |i, r| {
        let mut rng = StdRng::seed_from_u64(substream_seed(master, PERTURB_DOMAIN, i as u64));
        let mut out = vec![0u32; r.len()];
        perturb_codes_into(channel, &codes[r], &mut out, &mut rng);
        out
    });
    let mut merged = Vec::with_capacity(codes.len());
    for part in parts {
        merged.extend(part);
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threads_resolve_and_parse() {
        assert!(Threads::Auto.resolve() >= 1);
        assert_eq!(Threads::Fixed(4).resolve(), 4);
        assert_eq!(Threads::Fixed(0).resolve(), 1);
        assert_eq!(Threads::parse("auto").unwrap(), Threads::Auto);
        assert_eq!(Threads::parse("AUTO").unwrap(), Threads::Auto);
        assert_eq!(Threads::parse("3").unwrap(), Threads::Fixed(3));
        assert!(Threads::parse("0").is_err());
        assert!(Threads::parse("-2").is_err());
        assert!(Threads::parse("many").is_err());
    }

    #[test]
    fn chunk_decomposition_covers_everything_once() {
        for len in [0usize, 1, CHUNK_ROWS - 1, CHUNK_ROWS, CHUNK_ROWS + 1, 3 * CHUNK_ROWS + 17] {
            let parts: Vec<_> = chunks(len).collect();
            let mut covered = 0usize;
            for (i, r) in parts.iter().enumerate() {
                assert_eq!(r.start, covered, "chunk {i} contiguous");
                assert!(r.len() <= CHUNK_ROWS);
                covered = r.end;
            }
            assert_eq!(covered, len);
        }
    }

    #[test]
    fn map_chunks_is_thread_count_invariant() {
        let telemetry = Telemetry::disabled();
        let len = 5 * CHUNK_ROWS + 123;
        let run = |threads: usize| {
            map_chunks(len, threads, &telemetry, |i, r| (i, r.start, r.len()))
        };
        let seq = run(1);
        for threads in [2usize, 3, 8] {
            assert_eq!(run(threads), seq, "threads={threads}");
        }
    }

    #[test]
    fn sharded_perturbation_is_thread_count_invariant() {
        let telemetry = Telemetry::disabled();
        let channel = Channel::uniform(0.4, 12);
        let codes: Vec<u32> = (0..3 * CHUNK_ROWS as u32 + 57).map(|i| i % 12).collect();
        let seq = perturb_codes_sharded(&channel, &codes, 99, 1, &telemetry);
        assert_eq!(seq.len(), codes.len());
        for threads in [2usize, 3, 8] {
            let par = perturb_codes_sharded(&channel, &codes, 99, threads, &telemetry);
            assert_eq!(seq, par, "threads={threads}");
        }
        // A different master produces a different perturbation.
        let other = perturb_codes_sharded(&channel, &codes, 100, 1, &telemetry);
        assert_ne!(seq, other);
    }

    #[test]
    fn map_chunks_prof_records_shard_samples() {
        let telemetry = Telemetry::disabled();
        let len = 3 * CHUNK_ROWS;
        let prof = profiler();
        prof.begin();
        let out = map_chunks_prof("par.selftest", 4, len, 2, &telemetry, |i, r| (i, r.len()));
        // The global profiler may see samples from concurrently running
        // tests; assert only on this call's unique phase label.
        let samples: Vec<ShardSample> =
            prof.take().into_iter().filter(|s| s.phase == "par.selftest").collect();
        assert_eq!(out.len(), 3);
        assert_eq!(samples.len(), 3, "one sample per chunk");
        let shards: std::collections::BTreeSet<u64> = samples.iter().map(|s| s.shard).collect();
        assert_eq!(shards, (0..3).collect(), "every shard sampled once");
        for s in &samples {
            assert_eq!(s.bytes, 4 * CHUNK_ROWS as u64);
        }
        // Disabled, the profiled mapper is exactly the plain one.
        let plain = map_chunks(len, 2, &telemetry, |i, r| (i, r.len()));
        let profd = map_chunks_prof("par.selftest", 4, len, 2, &telemetry, |i, r| (i, r.len()));
        assert_eq!(plain, profd);
    }

    #[test]
    fn map_chunks_records_worker_spans() {
        let telemetry = Telemetry::enabled();
        let len = 4 * CHUNK_ROWS;
        let out = map_chunks(len, 2, &telemetry, |i, _| i);
        assert_eq!(out, vec![0, 1, 2, 3]);
        let records = telemetry.records();
        assert!(
            records.iter().any(|r| r.name == "par_worker"),
            "expected par_worker spans, got {records:?}"
        );
    }
}
