//! The system under test: every call the benchmark makes into the program
//! goes through this file, so a change to the program's public surface
//! breaks the benchmark in one place, and a reader can see at a glance which
//! entry points each workload exercises.
//!
//! Nothing here adds behaviour. Each function is the call a user path makes
//! (`acpp publish`, `acpp republish --delta`, `acppd`), with the benchmark's
//! fixed settings filled in: `p = 0.3`, `k = 8`, `Abort` on error, no fault
//! plan, and [`THREADS`] engine workers.

use std::path::{Path, PathBuf};

use acpp_core::{DegradationPolicy, PgConfig, Threads};
use acpp_data::atomic::CommitSet;
use acpp_data::sal::{self, SalConfig};
use acpp_data::{csv, RetryPolicy, Schema, Taxonomy};
use acpp_obs::{metrics, profiler, RecordKind};
use acpp_republish::durable::{release_file_name, STATE_FILE};
use acpp_republish::{PreparedRelease, Republisher, SeriesPublisher};
use acpp_serve::{Daemon, DaemonConfig, JobState};
use rand::rngs::StdRng;
use rand::SeedableRng;

pub use acpp_core::PublishedTable;
pub use acpp_data::{OwnerId, Table};
pub use acpp_obs::{Json, Telemetry};
pub use acpp_republish::Update;

/// Engine worker threads, and acppd workers: the size of the 2-vCPU hosts
/// the baseline was measured on.
pub const THREADS: usize = 2;
/// Retention probability of every publication.
pub const P: f64 = 0.3;
/// Group-size floor of every publication.
pub const K: usize = 8;

/// Errors from the program, flattened to text: the benchmark only counts
/// and prints them.
pub type Result<T> = std::result::Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Seeded random stream handed to the program's publication calls.
pub type Rng = StdRng;

/// A seeded stream for the program's publication calls.
pub fn rng(seed: u64) -> Rng {
    StdRng::seed_from_u64(seed)
}

fn config() -> PgConfig {
    // p and k are compile-time constants inside the valid range.
    PgConfig::new(P, K).expect("benchmark PG configuration is valid")
}

/// The SAL schema and its QI taxonomies (what `acpp publish` loads when no
/// schema file is given).
pub struct World {
    /// Microdata schema.
    pub schema: Schema,
    /// QI generalization hierarchies.
    pub taxonomies: Vec<Taxonomy>,
}

/// The SAL census world.
pub fn sal_world() -> World {
    World {
        schema: sal::schema(),
        taxonomies: sal::qi_taxonomies(),
    }
}

/// A seeded synthetic SAL table (`acpp generate`).
pub fn sal_table(rows: usize, seed: u64) -> Table {
    sal::generate(SalConfig { rows, seed })
}

/// A table as labelled CSV with its owner column (`acpp generate`'s file).
pub fn table_csv(table: &Table) -> Result<String> {
    csv::to_string(table, true).map_err(err)
}

/// Durable single-file write: temp, fsync, rename.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> Result<()> {
    acpp_data::write_atomic(path, bytes, &RetryPolicy::default()).map_err(err)
}

/// Reads a labelled CSV file the way `acpp publish --input` does.
pub fn read_table(world: &World, path: &Path) -> Result<Table> {
    let text = std::fs::read_to_string(path).map_err(err)?;
    csv::from_str(&world.schema, &text).map_err(err)
}

/// Parses an in-memory labelled CSV document.
pub fn parse_table(world: &World, text: &str) -> Result<Table> {
    csv::from_str(&world.schema, text).map_err(err)
}

/// One publication as `acpp publish` runs it without `--journal`.
pub fn publish(
    table: &Table,
    world: &World,
    rng: &mut Rng,
    telemetry: &Telemetry,
) -> Result<PublishedTable> {
    acpp_core::publish_robust_observed(
        table,
        &world.taxonomies,
        config(),
        DegradationPolicy::Abort,
        None,
        Threads::Fixed(THREADS),
        rng,
        telemetry,
    )
    .map(|(published, _report)| published)
    .map_err(err)
}

/// The deterministic single-threaded publication acppd's journaled jobs
/// must reproduce byte for byte.
pub fn publish_deterministic(table: &Table, world: &World, seed: u64) -> Result<PublishedTable> {
    acpp_core::publish_deterministic(
        table,
        &world.taxonomies,
        config(),
        DegradationPolicy::Abort,
        seed,
    )
    .map(|(published, _report)| published)
    .map_err(err)
}

/// A release rendered to the bytes that land on disk.
pub fn render(published: &PublishedTable, world: &World) -> String {
    published.render(&world.taxonomies)
}

/// The program's content digest.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    acpp_data::fnv1a(bytes)
}

/// Closed spans a telemetry handle recorded: `(name, start_us, end_us)`.
pub fn closed_spans(telemetry: &Telemetry) -> Vec<(&'static str, u64, u64)> {
    telemetry
        .records()
        .into_iter()
        .filter(|r| r.kind == RecordKind::Span)
        .filter_map(|r| r.end_us.map(|end| (r.name, r.start_us, end)))
        .collect()
}

// ---------------------------------------------------------------------------
// Release series
// ---------------------------------------------------------------------------

/// A durable release series (`acpp republish`).
pub struct Series(SeriesPublisher);

impl Series {
    /// Opens (creating) a series directory.
    pub fn open(dir: &Path) -> Result<Series> {
        let us = sal::schema().sensitive_domain_size();
        let (publisher, _recovery) =
            SeriesPublisher::open(config(), us, dir, RetryPolicy::default()).map_err(err)?;
        Ok(Series(publisher.with_threads(Threads::Fixed(THREADS))))
    }

    /// Publishes a full release of `table`.
    pub fn publish_full(&mut self, table: &Table, world: &World, rng: &mut Rng) -> Result<()> {
        self.0
            .publish_next(table, &world.taxonomies, rng)
            .map(drop)
            .map_err(err)
    }

    /// Publishes one incremental release; returns it and its file.
    pub fn publish_delta(
        &mut self,
        updates: &[Update],
        world: &World,
        rng: &mut Rng,
    ) -> Result<(PublishedTable, PathBuf)> {
        self.0
            .publish_delta(updates, &world.taxonomies, rng)
            .map(|release| (release.published, release.path))
            .map_err(err)
    }
}

/// Repair counts of one delta release.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairCounts {
    /// Leaves whose membership the batch touched.
    pub dirty_leaves: u64,
    /// Leaves re-cut.
    pub recuts: u64,
    /// Underfull leaves merged upward.
    pub merges: u64,
    /// Rows gathered for re-cutting.
    pub gathered_rows: u64,
}

/// The same durable series, driven step by step so the traced run can time
/// each layer: [`Republisher`] prepare, render, [`CommitSet`] stage and
/// commit, then the in-memory commit. It writes the same files
/// `SeriesPublisher` writes, byte for byte; a test below holds it to that.
pub struct SteppedSeries {
    inner: Republisher,
    dir: PathBuf,
    committed: Vec<(String, u64)>,
}

/// A prepared, not yet committed, release of a [`SteppedSeries`].
pub struct Prepared(PreparedRelease);

impl Prepared {
    /// The release the commit would publish.
    pub fn published(&self) -> &PublishedTable {
        self.0.published()
    }

    /// Repair counts (zero for a full release).
    pub fn repair_counts(&self) -> RepairCounts {
        self.0
            .repair_stats()
            .map_or_else(RepairCounts::default, |s| RepairCounts {
                dirty_leaves: s.dirty_leaves as u64,
                recuts: s.recuts as u64,
                merges: s.merges as u64,
                gathered_rows: s.gathered_rows as u64,
            })
    }
}

impl SteppedSeries {
    /// Creates the series directory.
    pub fn open(dir: &Path) -> Result<SteppedSeries> {
        std::fs::create_dir_all(dir).map_err(err)?;
        let us = sal::schema().sensitive_domain_size();
        let inner = Republisher::new(config(), us)
            .map_err(err)?
            .with_threads(Threads::Fixed(THREADS));
        Ok(SteppedSeries {
            inner,
            dir: dir.to_path_buf(),
            committed: Vec::new(),
        })
    }

    /// Prepares a full release of `table`.
    pub fn prepare_full(&self, table: &Table, world: &World, rng: &mut Rng) -> Result<Prepared> {
        self.inner
            .prepare_next(table, &world.taxonomies, rng)
            .map(Prepared)
            .map_err(err)
    }

    /// Prepares an incremental release.
    pub fn prepare_delta(
        &self,
        updates: &[Update],
        world: &World,
        rng: &mut Rng,
    ) -> Result<Prepared> {
        self.inner
            .prepare_delta(updates, &world.taxonomies, rng)
            .map(Prepared)
            .map_err(err)
    }

    /// Stages the rendered release and the bookkeeping and commits them
    /// atomically; returns the release file.
    pub fn commit_files(&mut self, rendered: &[u8]) -> Result<PathBuf> {
        let name = release_file_name(self.committed.len() + 1);
        let digest = fnv1a(rendered);
        let mut state = String::from("acpp-series v1\n");
        for (n, d) in self
            .committed
            .iter()
            .chain(std::iter::once(&(name.clone(), digest)))
        {
            state.push_str(&format!("{n}\t{}\n", acpp_data::digest::render_digest(*d)));
        }
        let mut set = CommitSet::new(&self.dir, RetryPolicy::default()).map_err(err)?;
        set.stage(&name, rendered).map_err(err)?;
        set.stage(STATE_FILE, state.as_bytes()).map_err(err)?;
        set.commit().map_err(err)?;
        self.committed.push((name.clone(), digest));
        Ok(self.dir.join(name))
    }

    /// Advances the in-memory series state past a committed release.
    pub fn commit_prepared(&mut self, prepared: Prepared) -> PublishedTable {
        self.inner.commit_prepared(prepared.0)
    }
}

// ---------------------------------------------------------------------------
// acppd
// ---------------------------------------------------------------------------

/// An in-process acppd instance.
pub struct Service(Daemon);

/// Where a job stands, as the daemon's own registry sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobOutcome {
    /// Queued or running.
    Pending,
    /// Committed.
    Done,
    /// Any other terminal (or interrupted) state.
    Failed,
}

impl Service {
    /// `Daemon::start` on `spool` with `workers` workers; admission bounds
    /// are set to `admit_cap` so a burst of that size is never refused.
    pub fn start(spool: &Path, workers: usize, admit_cap: usize) -> Result<Service> {
        Daemon::start(DaemonConfig {
            spool: spool.to_path_buf(),
            workers,
            queue_cap: admit_cap,
            tenant_quota: admit_cap,
            ..DaemonConfig::default()
        })
        .map(Service)
        .map_err(err)
    }

    /// The loopback address the daemon listens on.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.0.addr()
    }

    /// The daemon's registry view of job `id`.
    pub fn outcome(&self, id: &str) -> JobOutcome {
        match self.0.local_status(id) {
            None | Some((JobState::Queued | JobState::Running, _)) => JobOutcome::Pending,
            Some((JobState::Done, _)) => JobOutcome::Done,
            Some(_) => JobOutcome::Failed,
        }
    }

    /// Graceful drain: waits for in-flight jobs, then stops every thread.
    pub fn drain(self) {
        self.0.drain();
    }
}

/// The JSON body of one SAL publication job over inline CSV.
pub fn job_body(tenant: &str, csv_text: &str, seed: u64) -> String {
    let mut escaped = String::with_capacity(csv_text.len() + 64);
    for c in csv_text.chars() {
        match c {
            '"' => escaped.push_str("\\\""),
            '\\' => escaped.push_str("\\\\"),
            '\n' => escaped.push_str("\\n"),
            c => escaped.push(c),
        }
    }
    format!(r#"{{"tenant":"{tenant}","csv":"{escaped}","p":{P},"k":{K},"seed":{seed}}}"#)
}

/// Parses JSON with the program's own parser.
pub fn parse_json(text: &str) -> Option<Json> {
    Json::parse(text).ok()
}

// ---------------------------------------------------------------------------
// Process-wide counters and the shard profiler
// ---------------------------------------------------------------------------

/// The program's process-wide work counters at one instant.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// `acpp_journal_appends_total`.
    pub journal_appends: u64,
    /// `acpp_io_attempts_total`: durable I/O operations attempted.
    pub io_ops: u64,
    /// `acpp_par_tasks_total` (`acpp_par_steals_total` counts the same
    /// chunks).
    pub par_tasks: u64,
    /// `acppd_http_requests_total`, all routes.
    pub http_requests: u64,
    /// `acppd_jobs_completed_total{outcome="done"}`.
    pub jobs_done: u64,
}

impl Counters {
    /// Reads every counter now.
    pub fn now() -> Counters {
        let s = metrics().snapshot();
        Counters {
            journal_appends: s.counter_total("acpp_journal_appends_total"),
            io_ops: s.counter_total("acpp_io_attempts_total"),
            par_tasks: s.counter_total("acpp_par_tasks_total"),
            http_requests: s.counter_total("acppd_http_requests_total"),
            jobs_done: s.counter("acppd_jobs_completed_total", Some(("outcome", "done"))),
        }
    }

    /// Work done since `earlier`.
    pub fn since(self, earlier: Counters) -> Counters {
        Counters {
            journal_appends: self.journal_appends - earlier.journal_appends,
            io_ops: self.io_ops - earlier.io_ops,
            par_tasks: self.par_tasks - earlier.par_tasks,
            http_requests: self.http_requests - earlier.http_requests,
            jobs_done: self.jobs_done - earlier.jobs_done,
        }
    }
}

/// Busy and queue-wait time the shard profiler attributed to the
/// generalization crate's shards (`phase.generalize` and `phase.repair`).
#[derive(Debug, Clone, Copy, Default)]
pub struct ShardTime {
    /// Summed shard run time, microseconds.
    pub busy_us: u64,
    /// Summed time shards waited in the queue, microseconds.
    pub wait_us: u64,
}

impl ShardTime {
    /// Both totals summed.
    pub fn plus(self, other: ShardTime) -> ShardTime {
        ShardTime {
            busy_us: self.busy_us + other.busy_us,
            wait_us: self.wait_us + other.wait_us,
        }
    }

    /// `generalize.busy_share` and `generalize.queue_wait_share`: the totals
    /// over `op_us` of traced op time. Shards run on several threads, so a
    /// share can exceed 1.
    pub fn shares(self, op_us: u64) -> [(&'static str, f64); 2] {
        let share = |us: u64| {
            if op_us == 0 {
                0.0
            } else {
                us as f64 / op_us as f64
            }
        };
        [
            ("generalize.busy_share", share(self.busy_us)),
            ("generalize.queue_wait_share", share(self.wait_us)),
        ]
    }
}

/// Starts collecting shard samples (clears earlier ones).
pub fn profiler_begin() {
    profiler().begin();
}

/// Stops collecting; returns the generalization shards' totals.
pub fn profiler_take() -> ShardTime {
    profiler()
        .take()
        .into_iter()
        .filter(|s| matches!(s.phase, "phase.generalize" | "phase.repair"))
        .fold(ShardTime::default(), |t, s| {
            t.plus(ShardTime {
                busy_us: s.run_us,
                wait_us: s.queue_wait_us,
            })
        })
}

/// The layer a phase span of the program's telemetry belongs to.
pub fn phase_layer(span: &str) -> Option<&'static str> {
    match span {
        "phase.ingest" => Some("core.ingest"),
        "phase.perturb" => Some("perturb.phase"),
        "phase.generalize" => Some("generalize.phase"),
        "phase.sample" => Some("sample.phase"),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn files(dir: &Path) -> Vec<(String, Vec<u8>)> {
        let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .expect("series directory")
            .map(|entry| {
                let path = entry.expect("directory entry").path();
                let name = path.file_name().expect("file name").to_string_lossy();
                (name.into_owned(), std::fs::read(&path).expect("file"))
            })
            .collect();
        files.sort();
        files
    }

    /// A full release and two deltas through `SeriesPublisher` and through
    /// `SteppedSeries`, from one seed: both directories hold the same files
    /// byte for byte, and `SeriesPublisher::open` accepts the stepped one's
    /// bookkeeping.
    #[test]
    fn stepped_series_writes_what_series_publisher_writes() {
        let world = sal_world();
        let base = sal_table(2_000, 7);
        let donors = sal_table(40, 8);
        let root = crate::out_dir().join("test-work").join("stepped-series");
        let _ = std::fs::remove_dir_all(&root);
        let (plain_dir, stepped_dir) = (root.join("plain"), root.join("stepped"));

        let mut plain = Series::open(&plain_dir).expect("open");
        let mut stepped = SteppedSeries::open(&stepped_dir).expect("open");
        let (mut plain_rng, mut stepped_rng) = (rng(7), rng(7));
        plain
            .publish_full(&base, &world, &mut plain_rng)
            .expect("full release");
        let prepared = stepped
            .prepare_full(&base, &world, &mut stepped_rng)
            .expect("full release");
        stepped
            .commit_files(render(prepared.published(), &world).as_bytes())
            .expect("commit");
        stepped.commit_prepared(prepared);

        for batch in 0..2 {
            let updates: Vec<Update> = (0..20)
                .map(|i| Update::Delete(base.owners()[batch * 20 + i]))
                .chain((0..20).map(|i| Update::Insert {
                    owner: OwnerId(1_000_000 + (batch * 20 + i) as u32),
                    row: donors.row(batch * 20 + i),
                }))
                .collect();
            plain
                .publish_delta(&updates, &world, &mut plain_rng)
                .expect("delta");
            let prepared = stepped
                .prepare_delta(&updates, &world, &mut stepped_rng)
                .expect("delta");
            stepped
                .commit_files(render(prepared.published(), &world).as_bytes())
                .expect("commit");
            stepped.commit_prepared(prepared);
        }

        let written = files(&stepped_dir);
        assert_eq!(written.len(), 4, "three releases and the bookkeeping");
        assert_eq!(written, files(&plain_dir));
        let us = sal::schema().sensitive_domain_size();
        let (reopened, _) =
            SeriesPublisher::open(config(), us, &stepped_dir, RetryPolicy::default())
                .expect("the program reads the stepped bookkeeping");
        assert_eq!(reopened.releases(), 3);
        let _ = std::fs::remove_dir_all(&root);
    }
}
