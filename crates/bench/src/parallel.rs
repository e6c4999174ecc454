//! Scaling experiment for the deterministic parallel engine.
//!
//! Measures [`acpp_core::publish_robust_observed`] across a worker-count sweep
//! against a **faithful reimplementation of the pre-parallel sequential
//! pipeline** (`baseline_kind = pre_pr_sequential`): clone-per-recursion
//! Mondrian, whole-table Phase-1 perturbation through per-row `Value`
//! accessors with a CDF-search redraw sampler, and caller-stream Phase-3
//! draws. The baseline is timed in the same process and the same run as the
//! engine, so the reported speedups compare like with like on the same
//! hardware and build.
//!
//! The two paths draw different random numbers (the engine uses keyed
//! substreams), so outputs are *not* expected to match bit-for-bit here —
//! that contract is proved in `tests/parallel_determinism.rs`. What must
//! match is the work: both run the full three-phase PG pipeline under the
//! same configuration and release the same number of tuples.

use acpp_core::{
    publish_robust_observed, AcppError, CoreError, DegradationPolicy, PgConfig, Threads,
};
use acpp_obs::Telemetry;
use acpp_core::published::{PublishedTable, PublishedTuple};
use acpp_data::{Table, Taxonomy, Value};
use acpp_generalize::principles::is_k_anonymous;
use acpp_generalize::scheme::{BoxPartition, QiBox, Recoding, Signature, SplitNode};
use acpp_generalize::{GroupId, Grouping};
use acpp_perturb::Channel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// The label every scaling report carries for its reference timing, so a
/// reader of `BENCH_parallel.json` knows the denominator is the historical
/// sequential pipeline, not the new engine pinned to one worker.
pub const BASELINE_KIND: &str = "pre_pr_sequential";

// --- The pre-PR sequential pipeline, reimplemented verbatim. -------------

/// Clone-based strict-Mondrian builder: the shape of the partitioner before
/// the in-place rewrite. Every split materializes two fresh `Vec<usize>`
/// row sets and every scan goes through the `Table::value` accessor.
struct BaselineBuilder<'a> {
    table: &'a Table,
    qi_cols: Vec<usize>,
    domain_sizes: Vec<u32>,
    k: usize,
    nodes: Vec<SplitNode>,
    boxes: Vec<QiBox>,
}

impl BaselineBuilder<'_> {
    fn find_cut(&self, rows: &[usize], dim: usize, lo: u32, hi: u32) -> Option<u32> {
        if lo == hi {
            return None;
        }
        let col = self.qi_cols[dim];
        let width = (hi - lo + 1) as usize;
        let mut counts = vec![0usize; width];
        for &r in rows {
            counts[(self.table.value(r, col).code() - lo) as usize] += 1;
        }
        let n = rows.len();
        let half = n / 2;
        let mut best: Option<(u32, usize)> = None;
        let mut left = 0usize;
        for (off, &c) in counts.iter().enumerate().take(width - 1) {
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

    fn dim_order(&self, rows: &[usize]) -> Vec<usize> {
        let d = self.qi_cols.len();
        let mut ranges: Vec<(usize, f64)> = (0..d)
            .map(|dim| {
                let col = self.qi_cols[dim];
                let mut mn = u32::MAX;
                let mut mx = 0u32;
                for &r in rows {
                    let c = self.table.value(r, col).code();
                    mn = mn.min(c);
                    mx = mx.max(c);
                }
                let denom = (self.domain_sizes[dim].max(2) - 1) as f64;
                (dim, (mx.saturating_sub(mn)) as f64 / denom)
            })
            .collect();
        ranges.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        ranges.into_iter().map(|(dim, _)| dim).collect()
    }

    fn build(&mut self, bx: QiBox, rows: Vec<usize>) -> usize {
        if rows.len() >= 2 * self.k {
            for dim in self.dim_order(&rows) {
                if let Some(cut) = self.find_cut(&rows, dim, bx.lows[dim], bx.highs[dim]) {
                    let col = self.qi_cols[dim];
                    let (left_rows, right_rows): (Vec<usize>, Vec<usize>) = rows
                        .iter()
                        .partition(|&&r| self.table.value(r, col).code() <= cut);
                    let mut left_box = bx.clone();
                    left_box.highs[dim] = cut;
                    let mut right_box = bx;
                    right_box.lows[dim] = cut + 1;
                    let idx = self.nodes.len();
                    self.nodes.push(SplitNode::Leaf(usize::MAX));
                    let left = self.build(left_box, left_rows);
                    let right = self.build(right_box, right_rows);
                    self.nodes[idx] = SplitNode::Split { qi_pos: dim, cut, left, right };
                    return idx;
                }
            }
        }
        let box_idx = self.boxes.len();
        self.boxes.push(bx);
        let idx = self.nodes.len();
        self.nodes.push(SplitNode::Leaf(box_idx));
        idx
    }
}

fn baseline_partition(table: &Table, k: usize) -> Recoding {
    let schema = table.schema();
    let qi_cols: Vec<usize> = schema.qi_indices().to_vec();
    let domain_sizes: Vec<u32> =
        qi_cols.iter().map(|&c| schema.attribute(c).domain().size()).collect();
    let mut b = BaselineBuilder {
        table,
        qi_cols,
        domain_sizes: domain_sizes.clone(),
        k,
        nodes: Vec::new(),
        boxes: Vec::new(),
    };
    let all_rows: Vec<usize> = (0..table.len()).collect();
    let root = b.build(QiBox::full(&domain_sizes), all_rows);
    Recoding::Boxes(BoxPartition::new(b.nodes, b.boxes, root))
}

/// The pre-PR redraw sampler: cumulative-distribution binary search per
/// draw (the alias table replaced this).
struct CdfSampler {
    cdf: Vec<f64>,
}

impl CdfSampler {
    fn new(channel: &Channel) -> Self {
        let mut acc = 0.0;
        let cdf = channel
            .target()
            .iter()
            .map(|&q| {
                acc += q;
                acc
            })
            .collect();
        CdfSampler { cdf }
    }

    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Value {
        let x = rng.gen::<f64>();
        let idx = self.cdf.partition_point(|&c| c < x);
        Value(idx.min(self.cdf.len() - 1) as u32)
    }
}

/// Pre-PR grouping: per row, gather the QI vector, materialize its
/// heap-allocated [`Signature`], and probe a `HashMap` keyed by it (the
/// box fast path replaced this with a direct array index).
fn baseline_group(
    recoding: &Recoding,
    table: &Table,
    taxonomies: &[Taxonomy],
) -> (Grouping, Vec<Signature>) {
    use std::collections::HashMap;
    let mut sig_to_group: HashMap<Signature, GroupId> = HashMap::new();
    let mut signatures: Vec<Signature> = Vec::new();
    let mut assignment = Vec::with_capacity(table.len());
    let qi_cols: Vec<usize> = table.schema().qi_indices().to_vec();
    let mut qi = vec![Value(0); qi_cols.len()];
    for row in table.rows() {
        for (i, &c) in qi_cols.iter().enumerate() {
            qi[i] = table.value(row, c);
        }
        let sig = recoding.signature(taxonomies, &qi);
        let gid = *sig_to_group.entry(sig.clone()).or_insert_with(|| {
            signatures.push(sig.clone());
            GroupId((signatures.len() - 1) as u32)
        });
        assignment.push(gid);
    }
    (Grouping::from_assignment(assignment, signatures.len()), signatures)
}

/// Pre-PR Phase 1: clone the whole table, then rewrite the sensitive value
/// row by row through the `Value` accessors.
fn baseline_perturb_table<R: Rng + ?Sized>(channel: &Channel, table: &Table, rng: &mut R) -> Table {
    let sampler = CdfSampler::new(channel);
    let mut out = table.clone();
    for row in 0..out.len() {
        let original = out.sensitive_value(row);
        let perturbed = if rng.gen::<f64>() < channel.retention() {
            original
        } else {
            sampler.sample(rng)
        };
        out.set_sensitive_value(row, perturbed);
    }
    out
}

/// The full pre-PR sequential `publish`: perturb a table clone, recurse
/// Mondrian with per-child row-set clones, draw Phase-3 representatives
/// from the caller's stream.
pub fn baseline_publish<R: Rng + ?Sized>(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    rng: &mut R,
) -> Result<PublishedTable, CoreError> {
    config.validate()?;
    let channel = Channel::uniform(config.p, table.schema().sensitive_domain_size());
    let perturbed = baseline_perturb_table(&channel, table, rng);

    let recoding = baseline_partition(table, config.k);
    let (grouping, signatures) = baseline_group(&recoding, table, taxonomies);
    if !is_k_anonymous(&grouping, config.k) {
        return Err(CoreError::PostconditionViolated(format!(
            "baseline produced a group smaller than k = {}",
            config.k
        )));
    }

    let mut tuples = Vec::with_capacity(grouping.group_count());
    for (gid, members) in grouping.iter_nonempty() {
        let pick = members[rng.gen_range(0..members.len())];
        tuples.push(PublishedTuple {
            signature: signatures[gid.index()].clone(),
            sensitive: perturbed.sensitive_value(pick),
            group_size: members.len(),
        });
    }
    Ok(PublishedTable::new(table.schema().clone(), recoding, tuples, config.p, config.k))
}

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

/// The result of one scaling run: the baseline timing and the engine
/// timings over the thread sweep, all measured in the same process.
#[derive(Debug, Clone)]
pub struct ScalingRun {
    /// Input rows every timed run processed.
    pub rows: usize,
    /// Timing repetitions each point took the minimum over.
    pub reps: usize,
    /// Wall-clock of the pre-PR sequential pipeline on the same inputs.
    pub baseline_seconds: f64,
    /// Tuples the baseline released (sanity anchor: the engine must match).
    pub baseline_tuples: usize,
    /// One point per swept worker count.
    pub points: Vec<ScalingPoint>,
}

impl ScalingRun {
    /// The speedup at a given worker count, if it was swept.
    pub fn speedup_at(&self, threads: usize) -> Option<f64> {
        self.points.iter().find(|p| p.threads == threads).map(|p| p.speedup)
    }

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

/// Full-pipeline runs per timing point. Both the baseline and every engine
/// point take the minimum over this many runs — the standard way to strip
/// scheduler noise from a wall-clock measurement, applied symmetrically so
/// neither side of the speedup ratio benefits from a lucky draw.
pub const TIMING_REPS: usize = 3;

/// Times the baseline and the engine over `thread_counts` on one table.
///
/// Every point is the best of [`TIMING_REPS`] full-pipeline runs, baseline
/// included, all measured in this process (micro-benchmarking is
/// criterion's job in `benches/bench_parallel.rs`). Returns an error if any
/// run fails or if the engine's release cardinality diverges from the
/// baseline's — a mis-sized release would make the timings incomparable.
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
    let mut baseline_seconds = f64::INFINITY;
    let mut baseline_tuples = 0usize;
    for _ in 0..reps {
        let started = Instant::now();
        let base = baseline_publish(table, taxonomies, config, &mut StdRng::seed_from_u64(seed))?;
        baseline_seconds = baseline_seconds.min(started.elapsed().as_secs_f64());
        baseline_tuples = base.len();
    }

    let mut points = Vec::with_capacity(thread_counts.len());
    for &threads in thread_counts {
        let mut seconds = f64::INFINITY;
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
            seconds = seconds.min(started.elapsed().as_secs_f64());
            if dstar.len() != baseline_tuples {
                return Err(CoreError::PostconditionViolated(format!(
                    "engine released {} tuples at {} threads but the baseline released {}",
                    dstar.len(),
                    threads,
                    baseline_tuples
                ))
                .into());
            }
        }
        points.push(ScalingPoint {
            threads,
            seconds,
            rows_per_sec: if seconds > 0.0 { table.len() as f64 / seconds } else { 0.0 },
            speedup: if seconds > 0.0 { baseline_seconds / seconds } else { 0.0 },
        });
    }
    Ok(ScalingRun { rows: table.len(), reps, baseline_seconds, baseline_tuples, points })
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::sal::{self, SalConfig};

    #[test]
    fn baseline_is_a_valid_pg_publication() {
        let table = sal::generate(SalConfig { rows: 600, seed: 7 });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let dstar =
            baseline_publish(&table, &taxes, cfg, &mut StdRng::seed_from_u64(1)).unwrap();
        assert!(!dstar.is_empty());
        assert!(dstar.len() <= table.len() / cfg.k, "cardinality constraint");
    }

    #[test]
    fn baseline_matches_engine_cardinality() {
        let table = sal::generate(SalConfig { rows: 500, seed: 3 });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let run = run_scaling(&table, &taxes, cfg, 11, &[1, 2]).unwrap();
        assert_eq!(run.points.len(), 2);
        assert!(run.baseline_tuples > 0);
        assert!(run.speedup_at(2).is_some());
        assert!(run.speedup_at(16).is_none());
    }

    #[test]
    fn baseline_cdf_sampler_matches_target() {
        let ch = Channel::with_target(0.0, vec![0.8, 0.1, 0.1]);
        let sampler = CdfSampler::new(&ch);
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let c0 = (0..n).filter(|_| sampler.sample(&mut rng) == Value(0)).count();
        let f = c0 as f64 / n as f64;
        assert!((f - 0.8).abs() < 0.01, "target frequency {f}");
    }
}
