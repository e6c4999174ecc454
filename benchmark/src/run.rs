//! What every workload shares: its settings, its result, and the timed
//! window.

use std::path::PathBuf;
use std::time::Instant;

use crate::stats;
use crate::trace::Spans;

/// One workload run's settings.
#[derive(Debug, Clone)]
pub struct Settings {
    /// Workload seed: every input is derived from it.
    pub seed: u64,
    /// Length of the timed window, seconds.
    pub seconds: f64,
    /// Whether this is the traced run (per-layer metrics).
    pub trace: bool,
    /// Smoke sizes instead of the full workload.
    pub quick: bool,
    /// Scratch directory the program writes into; removed afterwards.
    pub work: PathBuf,
}

/// What a workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted: warm-up and timed ops, or submitted jobs.
    pub attempted: u64,
    /// Attempts that returned an error, were refused, did not finish, or
    /// failed an output check.
    pub failed: u64,
    /// Set-up repetitions, seconds each.
    pub setup_s: Vec<f64>,
    /// Latency of each timed operation, milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Work completed per second (see each workload).
    pub throughput_per_s: f64,
    /// Calibration kernel time before and after the window, milliseconds.
    pub calib_ms: (f64, f64),
    /// Per-layer metrics (traced run only), by name.
    pub layers: Vec<(&'static str, f64)>,
    /// The traced run's span log.
    pub spans: Option<Spans>,
    /// First failure messages, for the report.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Counts one failed attempt, keeping its message if it is among the
    /// first few.
    pub fn fail(&mut self, message: impl Into<String>) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(message.into());
        }
    }

    /// Times the calibration kernel (call once before and once after the
    /// window).
    pub fn calibrate(&mut self, before: bool) {
        let ms = stats::calibrate();
        if before {
            self.calib_ms.0 = ms;
        } else {
            self.calib_ms.1 = ms;
        }
    }
}

/// One op of a closed loop: its latency on the user path in milliseconds
/// and, in the traced run, the latency and layer record of the same op run
/// again with the instruments on.
pub type Timed<L> = Result<(f64, Option<(f64, L)>), String>;

/// A closed loop with one caller: `warmup` untimed ops, then ops back to
/// back until the window's seconds have passed and at least `min_ops` have
/// run. `op(index, traced)` runs one op on the user path; when `traced`, it
/// also runs the same op with the instruments on, before or after the
/// plain one by turns. An `Err` is counted as a failed attempt. Warm-up ops
/// are never traced.
///
/// Fills the outcome's attempts, latencies, calibration and throughput;
/// returns the traced ops' records and `obs.trace_overhead_frac`: the
/// median over the ops of traced over plain latency, minus one. The two
/// halves of a pair run back to back, so a host that changes speed moves
/// both.
pub fn closed_loop<L>(
    s: &Settings,
    warmup: usize,
    min_ops: usize,
    out: &mut Outcome,
    mut op: impl FnMut(usize, bool) -> Timed<L>,
) -> (Vec<L>, f64) {
    let mut attempt = |index: usize, traced: bool, out: &mut Outcome| {
        out.attempted += 1;
        op(index, traced).map_err(|e| out.fail(e)).ok()
    };
    for i in 0..warmup {
        attempt(i, false, out);
    }
    out.calibrate(true);
    let started = Instant::now();
    let (mut layers, mut ratios) = (Vec::new(), Vec::new());
    let mut done = 0;
    while done < min_ops || started.elapsed().as_secs_f64() < s.seconds {
        done += 1;
        if let Some((ms, traced)) = attempt(done, s.trace, out) {
            out.latencies_ms.push(ms);
            if let Some((traced_ms, layer)) = traced {
                ratios.push(traced_ms / ms);
                layers.push(layer);
            }
        }
    }
    out.calibrate(false);
    let busy_s = out.latencies_ms.iter().sum::<f64>() / 1e3;
    out.throughput_per_s = out.latencies_ms.len() as f64 / busy_s.max(1e-9);
    let overhead = if ratios.is_empty() {
        0.0
    } else {
        stats::median(&ratios) - 1.0
    };
    (layers, overhead)
}

/// Which halves of op `index` run, in order: `false` is the plain op,
/// `true` the instrumented one. Paired ops take turns at running first, so
/// neither half always finds the caches the other one warmed.
pub fn halves(index: usize, paired: bool) -> &'static [bool] {
    match (paired, index % 2) {
        (false, _) => &[false],
        (true, 0) => &[true, false],
        (true, _) => &[false, true],
    }
}

/// Count metrics are medians over this many leading traced ops, a fixed
/// prefix of the seeded op sequence, so they repeat exactly for a seed
/// however many ops the window holds.
pub const COUNT_OPS: usize = 5;

/// Median of each named per-op series, in the given order.
pub fn medians(series: &[(&'static str, Vec<f64>)]) -> Vec<(&'static str, f64)> {
    series
        .iter()
        .map(|(name, v)| (*name, if v.is_empty() { 0.0 } else { stats::median(v) }))
        .collect()
}
