//! # The ACPP benchmark
//!
//! One program measures what users of this repository wait for, on four
//! workloads, end to end and layer by layer. `BENCHMARK.json` at the
//! repository root describes it; this file is its manual.
//!
//! ## Running it
//!
//! From the repository root (the first run builds the program, in release
//! mode, from source):
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload batch_publish --seed 2008 --seconds 10 --trace 0
//! ```
//!
//! * `--workload NAME` runs one workload in this process and prints one
//!   line per metric (`<workload> <metric> <value> <unit>`), then, as the
//!   last line, `{"correct", "attempted", "failed", "metrics"}` as JSON.
//!   Without `--workload`, every workload runs in its own child process of
//!   this binary (so peak RSS and the program's process-wide metrics
//!   registry are per workload) and the combined report is written to
//!   `<target>/benchmark/report.json`.
//! * `--seed N` (default 2008) is the workload seed; the program receives
//!   only inputs generated from it.
//! * `--seconds S` (default 10) is the length of each timed window.
//! * `--trace 1` is the separate traced run: it reports the per-layer
//!   metrics instead of the end-to-end ones, and writes the span log to
//!   `<target>/benchmark/<workload>.spans.jsonl`. In the closed-loop
//!   workloads every timed op runs twice, on the user path and
//!   instrumented, back to back; `obs.trace_overhead_frac` is the median
//!   ratio of the two, minus one. `service` fetches its traces after the
//!   window, so its traced window makes the untraced window's calls and its
//!   overhead is 0.
//! * `--quick` shrinks every workload to a smoke run and each window to at
//!   most 2 s.
//! * `--fsync` lets the program's `fsync` calls reach the disk (see below).
//!
//! `<target>` is `$CARGO_TARGET_DIR`, or `benchmark/target`. The engine
//! runs on 2 threads and acppd on 2 workers, matching the 2-vCPU hosts the
//! baseline comes from.
//!
//! The unit tests (`cargo test --release --manifest-path
//! benchmark/Cargo.toml`) include a smoke run of every workload.
//!
//! ## Where it writes
//!
//! Everything the program writes goes to `<target>/benchmark/work/`, inside
//! the checkout, and is removed when the workload ends, except the acppd
//! spool of a full `service` run, which stays in
//! `<target>/benchmark/spools/` (about 65 MB per run; delete it when done):
//! deleting its files slows the disk for the runs after it (see
//! `service.rs`). The benchmark writes back every dirty page (`sync`,
//! untimed) before and after each workload so one workload's writeback
//! never lands in the next one's window.
//!
//! The program's `fsync` and `fdatasync` calls return at once, as they do
//! on a tmpfs such as `/dev/shm` (module `nosync`): the benchmark may not
//! write outside its checkout, and on the disk under it fsync latency
//! follows the disk's recent load: it moved `service`'s tail by up to a
//! factor of two from one run to the next. Every other part of the durable
//! paths is timed, and the traced run counts the durable work exactly
//! (`data.io_ops`, `core.journal_appends`). `--fsync` restores the real
//! calls; the baseline has one such `service` run on record. The report
//! records the work directory's filesystem type, whether fsync reached
//! it, and how many calls were skipped.
//!
//! ## Workloads
//!
//! | workload | loop | exercises | bypasses |
//! |---|---|---|---|
//! | `batch_publish` | closed, 1 caller: 1 warm-up, then ops for the window | CSV ingest of 50k labelled rows, the full three-phase build, render, atomic write | republish, acppd |
//! | `series_trickle` | closed: base release of 100k rows, 4 warm-up, then deltas of 100 updates (50 deletes, 50 inserts) | delta repair of about a hundred leaves; whole-table Phases 1 and 3, memo commit, durable `CommitSet` | CSV, the full build |
//! | `series_bulk` | closed: same base, 2 warm-up, then deltas of 10,000 updates | recut-heavy repair of thousands of leaves | CSV, the full build |
//! | `service` | open loop at 50 jobs/s for 80 % of the window, then a burst of 15 jobs per window second from 2 client threads | HTTP, admission and the durable spool, the queue, the journal, 240-row jobs from 4 tenants | table-scale work |
//!
//! Trickle and bulk run the same layers at two churn levels, so a delta
//! optimization that wins on one and loses on the other shows. Each
//! workload's module states its set-up and how it checks its outputs.
//!
//! ## Sizes
//!
//! The tables are smaller than the paper's 700k-tuple SAL table, so that
//! a run repeats. On a 2-vCPU share of a busy machine, an op over a table
//! of several hundred thousand rows spills the share of the last-level
//! cache it gets, and its latency follows the neighbours' memory traffic:
//! in alternating runs of `series_trickle`, the p50 at 500k rows fell by a
//! fifth when the neighbours went quiet, while at 100k rows it fell by a
//! fiftieth. The layers each workload exercises are the same at both sizes;
//! `sal_table` generates any size from the seed.
//!
//! ## Metrics
//!
//! End to end (untraced run, [`END_TO_END`]): `setup_s` (median of the
//! workload's repeated set-up: writing the input, publishing the base
//! release, or booting acppd over a spool of finished jobs),
//! `latency_p50_ms`, `latency_tail_ms` and `peak_rss_mb` (the process's
//! `VmHWM`). The tail is the highest nearest-rank percentile above the
//! median with at least 10 samples beyond it, capped at p90: above p90 a
//! window of tens of seconds is read off the host's rare stalls, which do
//! not repeat. The per-workload report states the percentile, the sample count
//! and the work per second (`throughput_per_s`; for `service`, the burst's
//! jobs per second). Failures (errors, refused or unfinished jobs, failed
//! output checks) are `failed` out of `attempted`.
//!
//! Per layer (traced run, [`PER_LAYER`]): layers are named after the
//! crates; `bench.*` are the benchmark's own diagnostics. A layer's time is
//! the self time of its spans as a share of traced op time, so the shares
//! of one workload sum to `bench.attributed_share`; multiply by
//! `bench.traced_op_ms` for milliseconds. Counts are per op (per job for
//! `service`) and repeat exactly for a seed, except allocation counts,
//! which move by a block or two when a parallel worker steals no chunk.
//! `bench.calib_ms` times a fixed integer kernel before the window; when it
//! moves by more than 10 % across the window the report sets `host_drift`,
//! and the run says nothing about the program.
//!
//! ## Baseline
//!
//! `benchmark/baseline.json` holds the numbers measured when the benchmark
//! was added, each as median and quartile distance per workload and
//! metric: two sets of 10 runs at seeds 1-10, workload by workload (the
//! acceptance check the bounds are written for), two sets of 5 runs at
//! seed 2008, `series_trickle` at seed 2009, `service` with `--fsync`, and
//! two traced runs at seed 2008, with what they show in `findings`.
//!
//! `service` repeats well: its p50 spread by 0.05-0.08 of the median. The
//! table workloads follow the host: their latency correlated with
//! `bench.calib_ms` at 0.91-0.93 across runs, and `series_trickle`, the
//! most memory-bound, moved by 1.9x while the kernel moved by 1.3x. In one
//! set of ten its p50 spread by 0.29 of the median, above its 0.25 bound,
//! and two sets at seed 2008 differed by 0.30 on that p50 and by 0.28 on
//! two `setup_s`. The bounds are as wide as they may be; a set that runs
//! while the host changes speed can still cross them.
//!
//! ## Comparing two commits
//!
//! Build each commit's benchmark in its own target directory. Run at least
//! 10 pairs, alternating which commit runs first, on the same workload,
//! seed and `--seconds`. Claim a gain on a metric only if the change wins at
//! least 9 of 10 pairs (ties count for neither) and the gap between the
//! medians is larger than the parent's own spread (the distance between
//! its quartiles). The host these numbers come from (2 vCPUs on a shared
//! machine) changes speed by a quarter or more over minutes, which moves
//! every timing together; `bench.calib_ms` shows it, so read pairs, not
//! single runs. A change that claims a gain must not edit this benchmark.

mod batch;
mod nosync;
mod run;
mod series;
mod service;
mod stats;
mod sut;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use run::{Outcome, Settings};
use stats::Latency;
use trace::Spans;

#[global_allocator]
static ALLOC: trace::CountingAlloc = trace::CountingAlloc;

/// The workloads, in the order the all-workloads run takes them.
pub const WORKLOADS: [&str; 4] = ["batch_publish", "series_trickle", "series_bulk", "service"];

/// End-to-end metrics: name and unit. Every workload reports each one.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run: name and unit. Every workload
/// reports each one. The two times are measured on every workload; a
/// layer's time is its `<layer>_share` of the traced op time
/// (`bench.traced_op_ms`), and counts are per op (per job for `service`),
/// so a layer a workload bypasses reads 0 and no time stands still.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("bench.traced_op_ms", "ms"),
    ("data.csv_read_share", "share"),
    ("core.pipeline_share", "share"),
    ("core.ingest_share", "share"),
    ("perturb.phase_share", "share"),
    ("generalize.phase_share", "share"),
    ("sample.phase_share", "share"),
    ("republish.prepare_share", "share"),
    ("core.render_share", "share"),
    ("data.write_atomic_share", "share"),
    ("data.commit_set_share", "share"),
    ("republish.commit_share", "share"),
    ("bench.gen_wait_share", "share"),
    ("serve.admit_share", "share"),
    ("serve.queue_share", "share"),
    ("core.journal_commit_share", "share"),
    ("core.journal_stage_share", "share"),
    ("bench.done_wait_share", "share"),
    ("bench.attributed_share", "share"),
    ("generalize.busy_share", "share"),
    ("generalize.queue_wait_share", "share"),
    ("data.csv_read_allocs", "count"),
    ("core.pipeline_allocs", "count"),
    ("republish.allocs", "count"),
    ("core.par_tasks", "count"),
    ("generalize.dirty_leaves", "count"),
    ("generalize.recuts", "count"),
    ("generalize.merges", "count"),
    ("generalize.gathered_rows", "count"),
    ("data.io_ops", "count"),
    ("core.journal_appends", "count"),
    ("serve.http_requests", "count"),
    ("bench.gen_late_jobs", "count"),
    ("serve.burst_jobs_per_s", "1/s"),
    ("obs.trace_overhead_frac", "ratio"),
    ("bench.calib_ms", "ms"),
    ("bench.host_drift", "bool"),
];

/// Calibration drift beyond which a run is marked `host_drift`.
const DRIFT_LIMIT: f64 = 0.10;

/// The longest window of a `--quick` run, seconds.
const QUICK_SECONDS: f64 = 2.0;

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    fsync: bool,
}

impl Args {
    fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            workload: None,
            seed: 2008,
            seconds: 10.0,
            trace: false,
            quick: false,
            fsync: false,
        };
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => {
                    let w = value()?;
                    if !WORKLOADS.contains(&w.as_str()) {
                        return Err(format!(
                            "unknown workload `{w}` (one of {})",
                            WORKLOADS.join(", ")
                        ));
                    }
                    parsed.workload = Some(w);
                }
                "--seed" => {
                    parsed.seed = value()?.parse().map_err(|_| "--seed takes an integer")?
                }
                "--seconds" => {
                    let s: f64 = value()?.parse().map_err(|_| "--seconds takes a number")?;
                    if !(s > 0.0 && s <= 120.0) {
                        return Err("--seconds must be in (0, 120]".into());
                    }
                    parsed.seconds = s;
                }
                "--trace" => {
                    parsed.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err("--trace takes 0 or 1".into()),
                    }
                }
                "--quick" => parsed.quick = true,
                "--fsync" => parsed.fsync = true,
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        Ok(parsed)
    }

    /// The flags that reproduce this run in a child process.
    fn child_args(&self, workload: &str) -> Vec<String> {
        let mut v = vec![
            "--workload".into(),
            workload.into(),
            "--seed".into(),
            self.seed.to_string(),
            "--seconds".into(),
            self.seconds.to_string(),
            "--trace".into(),
            if self.trace { "1" } else { "0" }.into(),
        ];
        if self.quick {
            v.push("--quick".into());
        }
        if self.fsync {
            v.push("--fsync".into());
        }
        v
    }
}

/// Where reports, span logs and the work directory live.
fn out_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("benchmark")
}

/// Peak resident set of this process (`VmHWM`), MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Filesystem type of the mount holding `path` (from `/proc/self/mounts`).
fn fs_type(path: &Path) -> String {
    let path = std::fs::canonicalize(path).unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The run's latency summary (all zeros when no op succeeded).
fn latency(outcome: &Outcome) -> Latency {
    Latency::of(if outcome.latencies_ms.is_empty() {
        &[0.0]
    } else {
        &outcome.latencies_ms
    })
}

/// A run's reported metrics, in the order of their table.
fn metric_values(outcome: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    if trace {
        let drift = drift(outcome);
        let empty = Spans::new();
        let spans = outcome.spans.as_ref().unwrap_or(&empty);
        return PER_LAYER
            .iter()
            .map(|&(name, unit)| {
                let computed = outcome
                    .layers
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map(|&(_, v)| v);
                let value = match name {
                    "bench.traced_op_ms" => spans.median_root_ms(),
                    "bench.attributed_share" => spans.attributed_share(),
                    "bench.calib_ms" => outcome.calib_ms.0,
                    "bench.host_drift" => f64::from(u8::from(drift > DRIFT_LIMIT)),
                    _ => match (computed, name.strip_suffix("_share")) {
                        (Some(v), _) => v,
                        (None, Some(layer)) => spans.share(layer),
                        (None, None) => 0.0,
                    },
                };
                (name, unit, value)
            })
            .collect();
    }
    let latency = latency(outcome);
    END_TO_END
        .iter()
        .map(|&(name, unit)| {
            let value = match name {
                "setup_s" => stats::median(&outcome.setup_s),
                "latency_p50_ms" => latency.p50,
                "latency_tail_ms" => latency.gated,
                "peak_rss_mb" => peak_rss_mb(),
                _ => unreachable!("every end-to-end metric is computed above"),
            };
            (name, unit, value)
        })
        .collect()
}

/// Relative move of the calibration kernel across the window.
fn drift(outcome: &Outcome) -> f64 {
    let (before, after) = outcome.calib_ms;
    if before > 0.0 {
        (after / before - 1.0).abs()
    } else {
        0.0
    }
}

/// The last line of a workload's output, for tools that read the run:
/// exactly `correct`, `attempted`, `failed` and `metrics`.
fn result_line(attempted: u64, failed: u64, metrics: &[(&str, &str, f64)]) -> String {
    let body = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect::<Vec<_>>()
        .join(", ");
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}",
        failed == 0 && attempted > 0
    )
}

/// The per-workload report: every metric plus what the result line has no
/// room for.
fn workload_report(
    workload: &str,
    args: &Args,
    outcome: &Outcome,
    metrics: &[(&str, &str, f64)],
    work_fs: &str,
) -> String {
    let latency = latency(outcome);
    let mut r = String::from("{\n");
    let _ = writeln!(r, "  \"workload\": {},", json_str(workload));
    let _ = writeln!(r, "  \"seed\": {},", args.seed);
    let _ = writeln!(r, "  \"seconds\": {},", args.seconds);
    let _ = writeln!(r, "  \"trace\": {},", args.trace);
    let _ = writeln!(r, "  \"quick\": {},", args.quick);
    let cores = std::thread::available_parallelism().map_or(0, usize::from);
    let _ = writeln!(r, "  \"host_cores\": {cores},");
    let _ = writeln!(r, "  \"threads\": {},", sut::THREADS);
    let _ = writeln!(r, "  \"work_fs\": {},", json_str(work_fs));
    let _ = writeln!(r, "  \"fsync_reaches_disk\": {},", nosync::reaches_disk());
    let _ = writeln!(r, "  \"fsync_calls_skipped\": {},", nosync::skipped());
    let _ = writeln!(r, "  \"attempted\": {},", outcome.attempted);
    let _ = writeln!(r, "  \"failed\": {},", outcome.failed);
    let _ = writeln!(
        r,
        "  \"error_rate\": {},",
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    let _ = writeln!(r, "  \"samples\": {},", latency.n);
    let _ = writeln!(r, "  \"throughput_per_s\": {},", outcome.throughput_per_s);
    let _ = writeln!(r, "  \"gated_tail_percentile\": {},", latency.gated_pct);
    let _ = writeln!(r, "  \"tail_percentile\": {},", latency.tail_pct);
    let _ = writeln!(r, "  \"tail_ms\": {},", latency.tail);
    let setup: Vec<String> = outcome.setup_s.iter().map(f64::to_string).collect();
    let _ = writeln!(r, "  \"setup_samples_s\": [{}],", setup.join(", "));
    let _ = writeln!(
        r,
        "  \"calib_ms\": [{}, {}],",
        outcome.calib_ms.0, outcome.calib_ms.1
    );
    let _ = writeln!(r, "  \"host_drift\": {},", drift(outcome) > DRIFT_LIMIT);
    let errors: Vec<String> = outcome.errors.iter().map(|e| json_str(e)).collect();
    let _ = writeln!(r, "  \"errors\": [{}],", errors.join(", "));
    r.push_str("  \"metrics\": {\n");
    let lines: Vec<String> = metrics
        .iter()
        .map(|(n, u, v)| format!("    \"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
        .collect();
    r.push_str(&lines.join(",\n"));
    r.push_str("\n  }\n}\n");
    r
}

/// Flushes every dirty page to disk, untimed, so that writeback left by
/// the build or by the previous workload does not land in this one's
/// window. A host without `sync` runs unflushed.
fn settle() {
    if let Err(e) = std::process::Command::new("sync").status() {
        eprintln!("sync: {e}");
    }
}

fn run_workload(workload: &str, settings: &Settings) -> Result<Outcome, String> {
    match workload {
        "batch_publish" => batch::run(settings),
        "series_trickle" => series::run(settings, series::Churn::Trickle),
        "series_bulk" => series::run(settings, series::Churn::Bulk),
        "service" => service::run(settings),
        other => Err(format!("unknown workload `{other}`")),
    }
}

/// Runs one workload in this process and prints its metric lines and
/// result line.
fn run_one(workload: &str, args: &Args) -> Result<(), String> {
    let out = out_dir();
    let work = out
        .join("work")
        .join(format!("{workload}-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("{}: {e}", work.display()))?;
    let settings = Settings {
        seed: args.seed,
        seconds: if args.quick {
            args.seconds.min(QUICK_SECONDS)
        } else {
            args.seconds
        },
        trace: args.trace,
        quick: args.quick,
        work: work.clone(),
    };
    let work_fs = fs_type(&work);
    settle();
    let result = run_workload(workload, &settings);
    let _ = std::fs::remove_dir_all(&work);
    settle();
    let mut outcome = result?;

    let mut metrics = metric_values(&outcome, args.trace);
    for (name, _, value) in &mut metrics {
        if !value.is_finite() {
            outcome.fail(format!("{name} is not a number"));
            *value = 0.0;
        }
    }
    let suffix = if args.trace { ".trace" } else { "" };
    let report = workload_report(workload, args, &outcome, &metrics, &work_fs);
    let written = std::fs::write(out.join(format!("{workload}{suffix}.json")), report);
    if let Err(e) = written {
        eprintln!("report for {workload} not written: {e}");
    }
    if let Some(spans) = &outcome.spans {
        if let Err(e) = spans.write_jsonl(&out.join(format!("{workload}.spans.jsonl"))) {
            eprintln!("span log for {workload} not written: {e}");
        }
    }
    for e in &outcome.errors {
        eprintln!("{workload}: {e}");
    }
    if drift(&outcome) > DRIFT_LIMIT {
        eprintln!(
            "{workload}: host drift {:.1} % across the window",
            100.0 * drift(&outcome)
        );
    }
    for (name, unit, value) in &metrics {
        println!("{workload} {name} {value} {unit}");
    }
    println!(
        "{}",
        result_line(outcome.attempted, outcome.failed, &metrics)
    );
    Ok(())
}

/// Runs every workload, each in a child process of this binary, and writes
/// the combined report.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this binary: {e}"))?;
    let out = out_dir();
    let mut all_correct = true;
    let mut reports = Vec::new();
    for workload in WORKLOADS {
        let child = std::process::Command::new(&exe)
            .args(args.child_args(workload))
            .stderr(std::process::Stdio::inherit())
            .output()
            .map_err(|e| format!("cannot run {workload}: {e}"))?;
        let stdout = String::from_utf8_lossy(&child.stdout);
        let result = stdout.lines().last().and_then(sut::parse_json);
        let correct = result
            .as_ref()
            .and_then(|r| r.as_object()?.get("correct").cloned())
            .is_some_and(|c| c == sut::Json::Bool(true));
        if !child.status.success() || !correct {
            eprintln!("{workload}: {} (correct: {correct})", child.status);
            all_correct = false;
        }
        for line in stdout.lines().filter(|l| l.starts_with(workload)) {
            println!("{line}");
        }
        let suffix = if args.trace { ".trace" } else { "" };
        let report = std::fs::read_to_string(out.join(format!("{workload}{suffix}.json")))
            .unwrap_or_else(|_| "null".into());
        reports.push(format!("{}: {}", json_str(workload), report.trim_end()));
    }
    let name = if args.trace {
        "report.trace.json"
    } else {
        "report.json"
    };
    let report = format!("{{\n\"workloads\": {{\n{}\n}}\n}}\n", reports.join(",\n"));
    std::fs::write(out.join(name), report).map_err(|e| format!("{name}: {e}"))?;
    eprintln!("report: {}", out.join(name).display());
    Ok(all_correct)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("acpp-benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    nosync::reach_disk(args.fsync);
    if let Err(e) = std::fs::create_dir_all(out_dir()) {
        eprintln!("acpp-benchmark: {}: {e}", out_dir().display());
        return ExitCode::FAILURE;
    }
    let outcome = match &args.workload {
        Some(workload) => run_one(workload, &args).map(|()| true),
        None => run_all(&args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("acpp-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names(doc: &sut::Json, key: &str) -> Vec<String> {
        let Some(sut::Json::Array(items)) = doc.as_object().and_then(|o| o.get(key)) else {
            panic!("BENCHMARK.json has no `{key}` array");
        };
        items
            .iter()
            .map(|m| {
                m.as_object()
                    .and_then(|o| o.get("name")?.as_str())
                    .expect("named")
                    .to_string()
            })
            .collect()
    }

    fn lawful(name: &str) -> bool {
        !name.is_empty()
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_names_exactly_what_the_binary_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json beside the benchmark");
        let doc = sut::parse_json(&text).expect("BENCHMARK.json parses");
        let workloads = names(&doc, "workloads");
        assert_eq!(workloads, WORKLOADS);
        let outcome = Outcome {
            attempted: 1,
            setup_s: vec![1.0],
            latencies_ms: vec![1.0],
            ..Outcome::default()
        };
        for (key, trace, table) in [
            ("end_to_end", false, &END_TO_END[..]),
            ("per_layer", true, &PER_LAYER[..]),
        ] {
            let declared = names(&doc, key);
            let table: Vec<&str> = table.iter().map(|(n, _)| *n).collect();
            assert_eq!(declared, table, "{key} in BENCHMARK.json");
            let line = result_line(1, 0, &metric_values(&outcome, trace));
            let result = sut::parse_json(&line).expect("result line is JSON");
            let metrics = result
                .as_object()
                .and_then(|o| o.get("metrics")?.as_object().cloned());
            let metrics = metrics.expect("metrics object");
            assert_eq!(metrics.len(), declared.len());
            for name in &declared {
                assert!(lawful(name), "{name}");
                assert!(
                    metrics.contains_key(name),
                    "{name} missing from the result line"
                );
            }
        }
        for w in &workloads {
            assert!(lawful(w), "{w}");
        }
    }

    #[test]
    fn arguments_parse_and_reject() {
        let a = Args::parse(
            [
                "--workload",
                "service",
                "--seed",
                "7",
                "--seconds",
                "3",
                "--trace",
                "1",
                "--fsync",
            ]
            .map(String::from),
        )
        .expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Some("service".into()),
                seed: 7,
                seconds: 3.0,
                trace: true,
                quick: false,
                fsync: true,
            }
        );
        assert_eq!(Args::parse(a.child_args("service")), Ok(a));
        for bad in [
            &["--workload", "nope"][..],
            &["--trace", "2"],
            &["--seconds", "0"],
            &["--bogus"],
        ] {
            assert!(
                Args::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    /// Every workload, both runs, at smoke size: nothing fails and every
    /// reported number is finite. One test, so the process-wide profiler
    /// and metrics registry see one workload at a time.
    #[test]
    fn every_workload_runs_clean_at_smoke_size() {
        for workload in WORKLOADS {
            for trace in [false, true] {
                let work = out_dir()
                    .join("test-work")
                    .join(format!("{workload}-{trace}"));
                let _ = std::fs::remove_dir_all(&work);
                std::fs::create_dir_all(&work).expect("work dir");
                let settings = Settings {
                    seed: 2008,
                    seconds: 0.2,
                    trace,
                    quick: true,
                    work: work.clone(),
                };
                let outcome = run_workload(workload, &settings).expect("workload runs");
                let _ = std::fs::remove_dir_all(&work);
                assert_eq!(
                    outcome.failed, 0,
                    "{workload} (trace {trace}): {:?}",
                    outcome.errors
                );
                assert!(outcome.attempted >= 3, "{workload}");
                let metrics = metric_values(&outcome, trace);
                for &(name, unit, value) in &metrics {
                    assert!(value.is_finite(), "{workload} {name} = {value}");
                    // A time that reads 0 would read the same on every run.
                    if unit == "ms" || unit == "s" {
                        assert!(value > 0.0, "{workload} {name} = {value}");
                    }
                }
                if trace {
                    let share = metrics
                        .iter()
                        .find(|(n, _, _)| *n == "bench.attributed_share");
                    assert!(
                        share.is_some_and(|&(_, _, v)| v > 0.9),
                        "{workload}: {share:?}"
                    );
                }
            }
        }
    }
}
