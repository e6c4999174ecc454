//! `series_trickle` and `series_bulk`: incremental republication
//! (`acpp republish --delta`) of a durable release series.
//!
//! Set-up opens a series directory and publishes a full release of the base
//! table (eleven times, each into a fresh directory; the median is
//! `setup_s`, the last series is kept). Then warm-up and timed
//! `publish_delta` ops run back to back. Each batch deletes half its size
//! in live owners, spread by stride with a per-op offset, and inserts the
//! other half as fresh owners with rows from a seeded donor table, so the
//! table size stays fixed and no batch is ever invalid.
//!
//! `SeriesPublisher` commits a release in one call, so the traced run keeps
//! a twin series beside the one under test, built from the same base and
//! seed and driven through the same steps one by one (prepare, render,
//! `CommitSet`, in-memory commit). Every batch goes to both; each timed op
//! times the twin's steps next to the user path's call, and the twin's
//! release must match the user path's byte for byte.

use std::path::Path;
use std::time::Instant;

use crate::run::{closed_loop, halves, medians, Outcome, Settings, Timed, COUNT_OPS};
use crate::sut::{self, OwnerId, Table, Update};
use crate::trace::{self, Spans};

/// The two churn levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Churn {
    /// 0.1 % of the rows per release.
    Trickle,
    /// 10 % of the rows per release.
    Bulk,
}

/// Base-table rows of the full workloads. When the host's neighbours went
/// quiet, the trickle latency fell by a fifth at 500,000 rows and by a
/// fiftieth at 100,000 (see "Sizes" in the module docs of `main.rs`).
const ROWS: usize = 100_000;
/// Base-table rows under `--quick`.
const QUICK_ROWS: usize = 5_000;
const DONOR_ROWS: usize = 50_000;
const SETUP_REPEATS: usize = 11;
const MIN_OPS: usize = 3;
/// Fresh owners are numbered from here, above every generated owner id.
const FRESH_OWNER_BASE: u32 = 1 << 30;

impl Churn {
    fn batch(self, rows: usize) -> usize {
        match self {
            Churn::Trickle => (rows / 1000).max(2),
            Churn::Bulk => rows / 10,
        }
    }

    fn warmup_ops(self) -> usize {
        match self {
            Churn::Trickle => 4,
            Churn::Bulk => 2,
        }
    }
}

/// The live owner set and the seeded source of the next update batch.
struct Batches {
    live: Vec<OwnerId>,
    donors: Table,
    next_donor: usize,
    next_owner: u32,
    op: usize,
}

impl Batches {
    fn new(base: &Table, donors: Table) -> Batches {
        Batches {
            live: base.owners().to_vec(),
            donors,
            next_donor: 0,
            next_owner: FRESH_OWNER_BASE,
            op: 0,
        }
    }

    /// The next batch of `size` updates, applied to the live set.
    fn next(&mut self, size: usize) -> Vec<Update> {
        let deletes = size / 2;
        let stride = self.live.len() / deletes;
        let offset = self.op % stride;
        self.op += 1;
        // Positions offset + i·stride are distinct and below deletes·stride
        // ≤ live.len(); removing them in descending order never moves a
        // position still to be removed.
        let mut updates: Vec<Update> = (0..deletes)
            .map(|i| Update::Delete(self.live[offset + i * stride]))
            .collect();
        for i in (0..deletes).rev() {
            self.live.swap_remove(offset + i * stride);
        }
        for _ in deletes..size {
            let owner = OwnerId(self.next_owner);
            self.next_owner += 1;
            let row = self.donors.row(self.next_donor % self.donors.len());
            self.next_donor += 1;
            self.live.push(owner);
            updates.push(Update::Insert { owner, row });
        }
        updates
    }
}

/// Work counts and shard times of one traced op.
struct OpLayers {
    allocs: f64,
    io_ops: f64,
    shards: sut::ShardTime,
    counts: sut::RepairCounts,
}

/// The stepped twin of the series under test (traced run only): the same
/// releases, published through the layer calls so each can be timed.
struct Twin {
    series: sut::SteppedSeries,
    rng: sut::Rng,
}

impl Twin {
    /// Opens the twin in `dir` and publishes the same base release the
    /// series under test holds.
    fn open(dir: &Path, base: &Table, world: &sut::World, seed: u64) -> Result<Twin, String> {
        let mut series = sut::SteppedSeries::open(dir)?;
        let mut rng = sut::rng(seed);
        let prepared = series.prepare_full(base, world, &mut rng)?;
        series.commit_files(sut::render(prepared.published(), world).as_bytes())?;
        series.commit_prepared(prepared);
        Ok(Twin { series, rng })
    }
}

/// Runs the workload at `churn`.
pub fn run(s: &Settings, churn: Churn) -> Result<Outcome, String> {
    let rows = if s.quick { QUICK_ROWS } else { ROWS };
    let world = sut::sal_world();
    let base = sut::sal_table(rows, s.seed);
    let donors = sut::sal_table(DONOR_ROWS.min(rows), s.seed ^ 0xD0_D0);
    let mut batches = Batches::new(&base, donors);
    let mut out = Outcome::default();

    let dir = s.work.join("series");
    let mut rng = sut::rng(s.seed);
    let mut series = None;
    for _ in 0..SETUP_REPEATS {
        drop(series.take());
        let _ = std::fs::remove_dir_all(&dir);
        rng = sut::rng(s.seed);
        let started = Instant::now();
        let mut publisher = sut::Series::open(&dir)?;
        publisher.publish_full(&base, &world, &mut rng)?;
        out.setup_s.push(started.elapsed().as_secs_f64());
        series = Some(publisher);
    }
    let mut series = series.ok_or("no set-up ran")?;
    let mut twin = if s.trace {
        Some(Twin::open(&s.work.join("twin"), &base, &world, s.seed)?)
    } else {
        None
    };
    drop(base);

    let size = churn.batch(rows);
    let mut spans = Spans::new();
    // Every batch goes to the series and, in the traced run, to its twin,
    // whose release must match the series' byte for byte.
    let op = |index: usize, traced: bool| -> Timed<OpLayers> {
        let updates = batches.next(size);
        let live = batches.live.len();
        let (mut plain_ms, mut record, mut digests) = (0.0, None, Vec::new());
        for &stepped in halves(index, twin.is_some()) {
            let (ms, published, path, layers) = match twin.as_mut().filter(|_| stepped) {
                Some(t) => {
                    let log = traced.then_some((&mut spans, index as u64));
                    stepped_op(&mut t.series, &updates, &world, &mut t.rng, log)?
                }
                None => plain_op(&mut series, &updates, &world, &mut rng)?,
            };
            digests.push(check(&published, &path, &world, live)?);
            match layers {
                Some(layers) => record = Some((ms, layers)),
                None if !stepped => plain_ms = ms,
                None => {}
            }
        }
        if digests.windows(2).any(|d| d[0] != d[1]) {
            return Err("the stepped release differs from SeriesPublisher's".into());
        }
        Ok((plain_ms, record))
    };
    let (layers, overhead) = closed_loop(s, churn.warmup_ops(), MIN_OPS, &mut out, op);

    if s.trace {
        let head = &layers[..layers.len().min(COUNT_OPS)];
        let col = |f: fn(&OpLayers) -> f64| head.iter().map(f).collect::<Vec<f64>>();
        out.layers = medians(&[
            ("republish.allocs", col(|l| l.allocs)),
            ("data.io_ops", col(|l| l.io_ops)),
            (
                "generalize.dirty_leaves",
                col(|l| l.counts.dirty_leaves as f64),
            ),
            ("generalize.recuts", col(|l| l.counts.recuts as f64)),
            ("generalize.merges", col(|l| l.counts.merges as f64)),
            (
                "generalize.gathered_rows",
                col(|l| l.counts.gathered_rows as f64),
            ),
        ]);
        let shards = layers
            .iter()
            .fold(sut::ShardTime::default(), |a, l| a.plus(l.shards));
        out.layers.extend(shards.shares(spans.root_us()));
        out.layers.push(("obs.trace_overhead_frac", overhead));
        out.spans = Some(spans);
    }
    Ok(out)
}

type OpResult = Result<
    (
        f64,
        sut::PublishedTable,
        std::path::PathBuf,
        Option<OpLayers>,
    ),
    String,
>;

/// One `SeriesPublisher::publish_delta`, the user path.
fn plain_op(
    series: &mut sut::Series,
    updates: &[Update],
    world: &sut::World,
    rng: &mut sut::Rng,
) -> OpResult {
    let started = Instant::now();
    let (published, path) = series.publish_delta(updates, world, rng)?;
    Ok((started.elapsed().as_secs_f64() * 1e3, published, path, None))
}

/// The same release through its layer calls; timed layer by layer when
/// `traced` carries the span log.
fn stepped_op(
    series: &mut sut::SteppedSeries,
    updates: &[Update],
    world: &sut::World,
    rng: &mut sut::Rng,
    traced: Option<(&mut Spans, u64)>,
) -> OpResult {
    let armed = traced.is_some().then(trace::Armed::new);
    let c0 = sut::Counters::now();
    let a0 = trace::allocs();
    let started = Instant::now();
    let prepared = series.prepare_delta(updates, world, rng)?;
    let t_prepared = Instant::now();
    let allocs = trace::allocs() - a0;
    let rendered = sut::render(prepared.published(), world);
    let t_rendered = Instant::now();
    let path = series.commit_files(rendered.as_bytes())?;
    let t_files = Instant::now();
    let counts = prepared.repair_counts();
    let published = series.commit_prepared(prepared);
    let ended = Instant::now();
    let io_ops = sut::Counters::now().since(c0).io_ops;
    let shards = armed.map(trace::Armed::finish);

    let layers = traced.zip(shards).map(|((spans, op), shards)| {
        let root = spans.push_at("op", started, ended, None, op);
        spans.push_at("republish.prepare", started, t_prepared, Some(root), op);
        spans.push_at("core.render", t_prepared, t_rendered, Some(root), op);
        spans.push_at("data.commit_set", t_rendered, t_files, Some(root), op);
        spans.push_at("republish.commit", t_files, ended, Some(root), op);
        OpLayers {
            allocs: allocs as f64,
            io_ops: io_ops as f64,
            shards,
            counts,
        }
    });
    Ok((
        ended.duration_since(started).as_secs_f64() * 1e3,
        published,
        path,
        layers,
    ))
}

/// The delta release is k-anonymous and covers the live table exactly, and
/// the committed release file holds exactly its rendered bytes. The file
/// is then removed, so a long window does not fill the disk. Returns the
/// release's digest.
fn check(
    published: &sut::PublishedTable,
    path: &Path,
    world: &sut::World,
    live: usize,
) -> Result<u64, String> {
    let tuples = published.tuples();
    if let Some(t) = tuples.iter().find(|t| t.group_size < sut::K) {
        return Err(format!(
            "delta group of size {} below k = {}",
            t.group_size,
            sut::K
        ));
    }
    let covered: usize = tuples.iter().map(|t| t.group_size).sum();
    if covered != live {
        return Err(format!("delta groups cover {covered} of {live} live rows"));
    }
    let on_disk = std::fs::read(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let digest = sut::fnv1a(&on_disk);
    if digest != sut::fnv1a(sut::render(published, world).as_bytes()) {
        return Err(format!(
            "{} differs from the rendered release",
            path.display()
        ));
    }
    std::fs::remove_file(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Ok(digest)
}
