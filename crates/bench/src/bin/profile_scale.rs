//! Attributed scaling profile of the threaded publication engine.
//!
//! Where `parallel_scale` measures *that* the curve is flat, this binary
//! explains *why*: it runs one publication with the shard profiler
//! enabled and writes `BENCH_profile.json` — per-phase wall time,
//! per-shard queue-wait vs. run time, bytes moved, allocation counts, and
//! the serial residue that names the sequential bottleneck.
//!
//! This binary is also the only place a counting allocator lives: the obs
//! crate forbids unsafe code, so it only accepts a reader function
//! ([`acpp_obs::set_alloc_reader`]); the `#[global_allocator]` that feeds
//! it is installed here, in leaf-binary land, where `unsafe` is priced in.
//!
//! Flags: `--rows N` (default 1 000 000), `--seed S`, `--p P` (default
//! 0.3), `--k K` (default 8), `--threads T` (default 8), `--quick`
//! (50 000 rows — the CI tier).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

use acpp_bench::{Args, BenchReport};
use acpp_core::{publish_robust_observed, DegradationPolicy, PgConfig, Threads};
use acpp_data::sal::{self, SalConfig};
use acpp_obs::{build_report, profiler, render_run_meta, run_meta, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// System allocator wrapped with a per-thread allocation counter. The
/// counter is thread-local so a shard's delta measures *its own* work,
/// not the noise of every other worker; `try_with` keeps allocations
/// during TLS teardown from panicking inside the allocator.
struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    ALLOCS.try_with(Cell::get).unwrap_or(0)
}

fn main() {
    let args = Args::from_env();
    let quick = args.has("quick");
    let default_rows = if quick { 50_000 } else { 1_000_000 };
    let rows: usize = args.get("rows", default_rows);
    let seed: u64 = args.get("seed", 2008);
    let p: f64 = args.get("p", 0.3);
    let k: usize = args.get("k", 8);
    let threads: usize = args.get("threads", 8);
    let cfg = PgConfig::new(p, k).expect("valid PG configuration");
    assert!(acpp_obs::set_alloc_reader(thread_allocs), "alloc reader already installed");

    // The timing breakdown lives in the profiler's own report; BenchReport
    // is still used for the standard phase/throughput framing so this
    // binary's artifact is comparable with its siblings. The profile JSON
    // itself is the primary output.
    let mut bench = BenchReport::new("profile_run");
    bench
        .meta_threads(threads)
        .config("rows", rows)
        .config("seed", seed)
        .config("p", p)
        .config("k", k)
        .config("threads", threads);

    eprintln!("generating SAL ({rows} rows, seed {seed})…");
    let table = bench.phase("generate", rows, || sal::generate(SalConfig { rows, seed }));
    let taxes = sal::qi_taxonomies();

    eprintln!("profiling publish ({threads} threads)…");
    let telemetry = Telemetry::enabled();
    let prof = profiler();
    prof.begin();
    let mut rng = StdRng::seed_from_u64(seed);
    let published = bench.phase("publish", rows, || {
        let (abort, workers) = (DegradationPolicy::Abort, Threads::Fixed(threads));
        publish_robust_observed(&table, &taxes, cfg, abort, None, workers, &mut rng, &telemetry)
    });
    let samples = prof.take();
    let (published, _) = published.expect("publication succeeds");
    eprintln!("published {} tuples", published.len());

    let records = telemetry.records();
    let report =
        build_report(&records, &samples, threads).expect("publication produced a closed span");
    let json = report.render_json(&render_run_meta(&run_meta(threads)));
    let dir = std::env::var_os("ACPP_BENCH_DIR").map(PathBuf::from).unwrap_or_default();
    let path = dir.join("BENCH_profile.json");
    match std::fs::write(&path, &json) {
        Ok(()) => eprintln!("profile report: {}", path.display()),
        Err(e) => eprintln!("profile report {} not written: {e}", path.display()),
    }
    print!("{}", report.render_text());
    bench.finish();
}
