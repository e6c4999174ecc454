//! Scaling experiment for the deterministic parallel engine.
//!
//! Measures [`acpp_core::publish_robust_observed`] across a worker-count sweep
//! against the same engine pinned to one worker (`baseline_kind =
//! engine_t1`), timed in the same process and the same run, so the reported
//! speedups compare like with like on the same hardware and build.
//!
//! The engine's release is byte-identical at every worker count (proved in
//! `tests/parallel_determinism.rs`), so every swept point must release
//! exactly the one-worker `D*`; a run that does not is an error, not a
//! timing.

use acpp_core::published::PublishedTable;
use acpp_core::{
    publish_robust_observed, AcppError, CoreError, DegradationPolicy, PgConfig, Threads,
};
use acpp_data::{Table, Taxonomy};
use acpp_obs::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// The label every scaling report carries for its reference timing, so a
/// reader of `BENCH_parallel.json` knows the denominator is the engine at
/// one worker.
pub const BASELINE_KIND: &str = "engine_t1";

// --- The sweep. ----------------------------------------------------------

/// One point of the scaling curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Worker-pool size the engine ran with.
    pub threads: usize,
    /// Wall-clock of one full engine run.
    pub seconds: f64,
    /// Input rows divided by `seconds` — the absolute throughput anchor
    /// that makes points comparable across row tiers and machines.
    pub rows_per_sec: f64,
    /// `baseline_seconds / seconds`.
    pub speedup: f64,
}

/// The result of one scaling run: the one-worker timing and the engine
/// timings over the thread sweep, all measured in the same process.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// Input rows every timed run processed.
    pub rows: usize,
    /// Timing repetitions each point took the minimum over.
    pub reps: usize,
    /// Wall-clock of the engine at one worker on the same inputs.
    pub baseline_seconds: f64,
    /// Tuples the one-worker run released.
    pub baseline_tuples: usize,
    /// One point per swept worker count.
    pub points: Vec<ScalingPoint>,
}

impl ScalingRun {
    /// The per-thread sweep as a JSON array — the machine-readable
    /// `scaling` section of `BENCH_parallel.json` (one object per swept
    /// count: `threads`, `seconds`, `rows_per_sec`, `speedup`).
    pub fn scaling_json(&self) -> String {
        let mut out = String::from("[");
        for (i, p) in self.points.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"threads\": {}, \"seconds\": {:.6}, \"rows_per_sec\": {:.1}, \"speedup\": {:.4}}}",
                p.threads, p.seconds, p.rows_per_sec, p.speedup
            ));
        }
        out.push_str("\n  ]");
        out
    }
}

/// Full-pipeline runs per timing point. The one-worker baseline and every
/// swept point take the minimum over this many runs — the standard way to
/// strip scheduler noise from a wall-clock measurement, applied
/// symmetrically so neither side of the speedup ratio benefits from a
/// lucky draw.
pub const TIMING_REPS: usize = 3;

/// Times the engine at one worker and over `thread_counts` on one table.
///
/// Every point is the best of [`TIMING_REPS`] full-pipeline runs, all
/// measured in this process; a swept count of 1 reuses the baseline's
/// runs. Returns an error if any run fails or if a release differs from
/// the one-worker release.
pub fn run_scaling(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    seed: u64,
    thread_counts: &[usize],
) -> Result<ScalingRun, AcppError> {
    run_scaling_with_reps(table, taxonomies, config, seed, thread_counts, TIMING_REPS)
}

/// [`run_scaling`] with an explicit repetition count (the `--reps` flag of
/// the `parallel_scale` binary; large tiers drop to 1 to stay affordable).
pub fn run_scaling_with_reps(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    seed: u64,
    thread_counts: &[usize],
    reps: usize,
) -> Result<ScalingRun, AcppError> {
    let reps = reps.max(1);
    // Best-of-`reps` wall-clock of the engine at `threads` workers, and
    // its release.
    let timed = |threads: usize| -> Result<(f64, PublishedTable), AcppError> {
        let mut best = f64::INFINITY;
        let mut release = None;
        for _ in 0..reps {
            let started = Instant::now();
            let (dstar, _) = publish_robust_observed(
                table,
                taxonomies,
                config,
                DegradationPolicy::Abort,
                None,
                Threads::Fixed(threads),
                &mut StdRng::seed_from_u64(seed),
                &Telemetry::disabled(),
            )?;
            best = best.min(started.elapsed().as_secs_f64());
            release = Some(dstar);
        }
        release.map(|dstar| (best, dstar)).ok_or_else(|| {
            CoreError::PostconditionViolated("no timing repetition ran".into()).into()
        })
    };
    let (baseline_seconds, base) = timed(1)?;

    let mut points = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let seconds = if threads == 1 {
            baseline_seconds
        } else {
            let (seconds, dstar) = timed(threads)?;
            if dstar != base {
                return Err(CoreError::PostconditionViolated(format!(
                    "the release at {threads} threads differs from the one-worker release"
                ))
                .into());
            }
            seconds
        };
        points.push(ScalingPoint {
            threads,
            seconds,
            rows_per_sec: if seconds > 0.0 { table.len() as f64 / seconds } else { 0.0 },
            speedup: if seconds > 0.0 { baseline_seconds / seconds } else { 0.0 },
        });
    }
    let baseline_tuples = base.len();
    Ok(ScalingRun { rows: table.len(), reps, baseline_seconds, baseline_tuples, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::sal::{self, SalConfig};

    #[test]
    fn sweep_reproduces_the_one_worker_release() {
        let table = sal::generate(SalConfig { rows: 500, seed: 3 });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let run = run_scaling(&table, &taxes, cfg, 11, &[1, 2]).unwrap();
        assert_eq!(run.points.len(), 2);
        assert!(run.baseline_tuples > 0);
        let first = &run.points[0];
        assert_eq!((first.threads, first.speedup), (1, 1.0), "t1 is the baseline");
    }
}
