//! Order statistics and the host-drift kernel.

use std::time::Instant;

/// Samples beyond a tail percentile: a tail read off fewer samples than
/// this is one unlucky op, not a percentile.
pub const TAIL_BEYOND: usize = 10;

/// The percentile the gated tail never goes above. Higher percentiles of a
/// 10-20 s window are set by the host's rare stalls (a disk flush, a noisy
/// neighbour), not by the program, and do not repeat from run to run.
pub const GATED_TAIL: f64 = 0.90;

/// Nearest-rank quantile of ascending `sorted`: the smallest sample with at
/// least `q · n` samples at or below it.
pub fn nearest_rank(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// Median (nearest rank) of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    nearest_rank(&sorted(samples), 0.5)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// A latency sample reduced to what the benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Latency {
    /// Sample count.
    pub n: usize,
    /// Nearest-rank median.
    pub p50: f64,
    /// The highest nearest-rank percentile above the median with at least
    /// [`TAIL_BEYOND`] samples above it (the maximum when there are too few
    /// samples for one).
    pub tail: f64,
    /// Which percentile `tail` is, in percent.
    pub tail_pct: f64,
    /// The gated tail: the lower of p90 and `tail`.
    pub gated: f64,
    /// Which percentile `gated` is, in percent.
    pub gated_pct: f64,
}

impl Latency {
    /// Summarizes `samples` (any order; at least one).
    pub fn of(samples: &[f64]) -> Latency {
        let s = sorted(samples);
        let n = s.len();
        let median = rank(n, 0.5);
        let tail = n
            .checked_sub(TAIL_BEYOND)
            .filter(|&r| r > median)
            .unwrap_or(n);
        let gated = tail.min(rank(n, GATED_TAIL));
        let pct = |r: usize| 100.0 * r as f64 / n as f64;
        Latency {
            n,
            p50: s[median - 1],
            tail: s[tail - 1],
            tail_pct: pct(tail),
            gated: s[gated - 1],
            gated_pct: pct(gated),
        }
    }
}

/// Runs a fixed integer kernel and returns its wall time in milliseconds.
/// It touches no memory beyond registers, so its time moves only with the
/// host's CPU speed and contention, never with the program under test.
pub fn calibration_ms() -> f64 {
    let started = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for i in 0..20_000_000u64 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x ^ i);
    }
    std::hint::black_box(acc);
    started.elapsed().as_secs_f64() * 1e3
}

/// Median of three calibration runs.
pub fn calibrate() -> f64 {
    median(&[calibration_ms(), calibration_ms(), calibration_ms()])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_takes_the_ceiling_rank() {
        let s: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&s, 0.5), 5.0);
        assert_eq!(nearest_rank(&s, 0.51), 6.0);
        assert_eq!(nearest_rank(&s, 0.0), 1.0);
        assert_eq!(nearest_rank(&s, 1.0), 10.0);
        assert_eq!(nearest_rank(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 40 samples: rank 30 has exactly ten above it, so p75; p90 would
        // have only four beyond, so the gated tail is p75 too.
        let samples: Vec<f64> = (1..=40).rev().map(f64::from).collect();
        let l = Latency::of(&samples);
        assert_eq!((l.n, l.p50, l.tail, l.tail_pct), (40, 20.0, 30.0, 75.0));
        assert_eq!((l.gated, l.gated_pct), (30.0, 75.0));
        // 1000 samples: the tail is p99, the gated tail p90.
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let l = Latency::of(&samples);
        assert_eq!(
            (l.tail, l.tail_pct, l.gated, l.gated_pct),
            (990.0, 99.0, 900.0, 90.0)
        );
        // 22 samples is the smallest count with a tail between the median
        // and the maximum; with 21, rank 11 is the median itself.
        let samples: Vec<f64> = (1..=22).map(f64::from).collect();
        assert_eq!(Latency::of(&samples).tail, 12.0);
        let samples: Vec<f64> = (1..=21).map(f64::from).collect();
        assert_eq!(Latency::of(&samples).tail, 21.0);
        // Too few samples for any tail: the maximum, reported as p100.
        let l = Latency::of(&[3.0, 1.0, 2.0]);
        assert_eq!(
            (l.n, l.p50, l.tail, l.tail_pct, l.gated),
            (3, 2.0, 3.0, 100.0, 3.0)
        );
    }

    #[test]
    fn calibration_kernel_takes_measurable_time() {
        assert!(calibration_ms() > 0.0);
    }
}
