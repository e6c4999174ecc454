//! Durable series publication: a release and its bookkeeping land together
//! or not at all.
//!
//! A [`SeriesPublisher`] wraps a [`Republisher`] and commits every release
//! to disk through the multi-file commit protocol of
//! [`acpp_data::atomic::CommitSet`]: the release CSV (`release-NNNN.csv`)
//! and the series bookkeeping ([`STATE_FILE`]) are staged as fsynced
//! temporaries, authorized by a durable intent manifest, then renamed into
//! place. A crash at any instant leaves the directory in one of exactly two
//! observable states — the release fully present *with* its bookkeeping
//! entry, or fully absent *without* one. There is no window in which a
//! release exists on disk that the bookkeeping does not account for (the
//! failure mode that would let an adversary diff an unaccounted release
//! against the next one).
//!
//! In-memory cross-release state (the persistent-perturbation memo, the
//! representative memo, and the retained partition with the leaf values a
//! delta carries forward) advances **only after** the durable commit
//! succeeds, via the [`Republisher::prepare_next`] /
//! [`Republisher::prepare_delta`] / [`Republisher::commit_prepared`]
//! split — a failed or crashed commit leaves the series exactly as if the
//! attempt never happened.
//!
//! The publisher itself retains, also in process memory only: the text of
//! the bookkeeping file, to which a commit appends one line; and the last
//! committed release's bytes with the byte range of each box's tuple line.
//! A delta copies the lines of the leaves it carried from those bytes and
//! formats the rest (DESIGN.md §17, "What a delta writes"). Both advance
//! with the rest of the series state, after the commit succeeds, and
//! [`SeriesPublisher::release_bytes`] hands the release to callers without
//! a reread.
//!
//! Scope: all of that state is process-local and is not persisted. After a
//! process restart the series continues with fresh randomness, and its
//! first release must be a full one, since there is no retained partition
//! to repair. What [`SeriesPublisher::open`] guarantees across restarts is
//! the *disk* invariant: interrupted commits are rolled forward or back,
//! the bookkeeping always matches the releases byte-for-byte, and
//! numbering continues where the durable record left off.

use crate::delta::Update;
use crate::error::RepublishError;
use crate::series::{PreparedRelease, Republisher};
use acpp_core::published::{PublishedTable, RenderedLines};
use acpp_core::{PgConfig, Threads};
use acpp_data::atomic::{recover_commits, CommitRecovery, CommitSet, RetryPolicy};
use acpp_data::digest::{fnv1a, parse_digest, render_digest};
use acpp_data::{DataError, Table, Taxonomy};
use acpp_generalize::Recoding;
use acpp_obs::{metrics, MS_BUCKETS};
use rand::Rng;
use std::fmt::Write;
use std::fs;
use std::io::ErrorKind;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// File holding the series bookkeeping: one line per committed release.
pub const STATE_FILE: &str = "series-state.tsv";

const STATE_HEADER: &str = "acpp-series v1";

/// The canonical file name of release `index` (1-based).
pub fn release_file_name(index: usize) -> String {
    format!("release-{index:04}.csv")
}

fn state_err(msg: String) -> RepublishError {
    RepublishError::Io(DataError::Io(msg))
}

/// A release series whose every release is committed atomically together
/// with its bookkeeping. See the module docs for the crash contract.
#[derive(Debug)]
pub struct SeriesPublisher {
    inner: Republisher,
    dir: PathBuf,
    policy: RetryPolicy,
    /// Committed releases in order: (file name, content digest).
    committed: Vec<(String, u64)>,
    /// The bookkeeping file's text for `committed`.
    state: String,
    /// The last release this process committed.
    text: ReleaseText,
    /// The buffer the next release renders into; it trades places with
    /// `text` when that release commits.
    spare: ReleaseText,
    /// When this process last committed a release (release-cadence metric).
    last_release: Option<Instant>,
}

/// A successfully committed release.
#[derive(Debug, Clone)]
pub struct SeriesRelease {
    /// The release content.
    pub published: PublishedTable,
    /// Where the release landed.
    pub path: PathBuf,
    /// Its 1-based index in the series.
    pub index: usize,
    /// FNV-1a digest of the release file, as the bookkeeping records it.
    pub digest: u64,
    /// How the release's tuple lines were written: copied from the previous
    /// release or formatted.
    pub lines: RenderedLines,
}

/// A rendered release and where each box's tuple line sits in it.
#[derive(Default)]
struct ReleaseText {
    text: String,
    /// For a box-partition release, the byte range of each box's tuple line
    /// in `text`, newline included; empty for any other recoding.
    lines: Vec<Range<usize>>,
    /// Scratch: the start of each tuple line, in tuple order.
    starts: Vec<usize>,
}

/// Sizes only: the text holds every published value.
impl std::fmt::Debug for ReleaseText {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReleaseText")
            .field("bytes", &self.text.len())
            .field("lines", &self.lines.len())
            .finish()
    }
}

impl ReleaseText {
    /// Renders `published` into this buffer. With a delta's carry map, each
    /// box the map takes back to a box of `prev` copies that box's line from
    /// `prev`. A carried box keeps its bounds, its size and its sensitive
    /// value, and a box label depends on the bounds and the schema's domain
    /// labels alone, so the copy is the line the writer would format.
    fn render(
        &mut self,
        published: &PublishedTable,
        taxonomies: &[Taxonomy],
        carry: Option<(&[u32], &ReleaseText)>,
    ) -> RenderedLines {
        let tuples = published.tuples();
        let starts = &mut self.starts;
        starts.clear();
        let lines = published.render_with(taxonomies, &mut self.text, |i, out| {
            starts.push(out.len());
            let Some((map, prev)) = carry else { return false };
            let line = tuples[i]
                .signature
                .first()
                .and_then(|&b| map.get(b as usize))
                .and_then(|&from| prev.lines.get(from as usize))
                .filter(|range| !range.is_empty())
                .and_then(|range| prev.text.get(range.clone()));
            match line {
                Some(line) => {
                    out.push_str(line);
                    true
                }
                None => false,
            }
        });
        self.lines.clear();
        if let Recoding::Boxes(part) = published.recoding() {
            self.lines.resize(part.len(), 0..0);
            let ends = self.starts.iter().skip(1).copied().chain([self.text.len()]);
            for ((t, &start), end) in tuples.iter().zip(&self.starts).zip(ends) {
                if let Some(slot) =
                    t.signature.first().and_then(|&b| self.lines.get_mut(b as usize))
                {
                    *slot = start..end;
                }
            }
        }
        lines
    }
}

impl SeriesPublisher {
    /// Opens (or creates) a series directory.
    ///
    /// Recovery runs first: an interrupted commit is rolled forward (its
    /// manifest was durable) or rolled back (it was not), and the outcome is
    /// returned alongside the publisher. The bookkeeping is then verified
    /// against the release files byte-for-byte; any divergence is a hard
    /// error, never silently repaired.
    pub fn open(
        config: PgConfig,
        us: u32,
        dir: impl Into<PathBuf>,
        policy: RetryPolicy,
    ) -> Result<(Self, CommitRecovery), RepublishError> {
        let inner = Republisher::new(config, us)?;
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| {
            state_err(format!("cannot create series directory `{}`: {e}", dir.display()))
        })?;
        let recovery = recover_commits(&dir)?;
        let committed = read_bookkeeping(&dir)?;
        let mut state = format!("{STATE_HEADER}\n");
        for (name, digest) in &committed {
            push_state_line(&mut state, name, *digest);
        }
        let publisher = SeriesPublisher {
            inner,
            dir,
            policy,
            committed,
            state,
            text: ReleaseText::default(),
            spare: ReleaseText::default(),
            last_release: None,
        };
        Ok((publisher, recovery))
    }

    /// Sets the worker-pool size used when preparing releases. Output is
    /// byte-identical for every setting (see [`Republisher::with_threads`]).
    #[must_use]
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.inner = self.inner.with_threads(threads);
        self
    }

    /// Number of durably committed releases.
    pub fn releases(&self) -> usize {
        self.committed.len()
    }

    /// The series directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Paths of the committed releases, in series order.
    pub fn release_paths(&self) -> Vec<PathBuf> {
        self.committed.iter().map(|(name, _)| self.dir.join(name)).collect()
    }

    /// The bytes of the last release this process committed, as they are
    /// on disk; empty before the first.
    pub fn release_bytes(&self) -> &[u8] {
        self.text.text.as_bytes()
    }

    /// Publishes the next release of `table` durably: prepare, commit the
    /// release file and updated bookkeeping atomically, and only then
    /// advance the in-memory series state.
    pub fn publish_next<R: Rng + ?Sized>(
        &mut self,
        table: &Table,
        taxonomies: &[Taxonomy],
        rng: &mut R,
    ) -> Result<SeriesRelease, RepublishError> {
        self.publish_inner(table, taxonomies, rng, SeriesCrash::None)
    }

    /// Test hook: run [`SeriesPublisher::publish_next`] but die at `crash`.
    /// Disk is left exactly as a real crash would leave it; the in-memory
    /// series state does not advance.
    #[doc(hidden)]
    pub fn publish_next_crashing<R: Rng + ?Sized>(
        &mut self,
        table: &Table,
        taxonomies: &[Taxonomy],
        rng: &mut R,
        crash: SeriesCrash,
    ) -> Result<SeriesRelease, RepublishError> {
        self.publish_inner(table, taxonomies, rng, crash)
    }

    /// Publishes the next release as an *incremental delta* against the
    /// previous one (see [`Republisher::prepare_delta`]): the update batch
    /// is applied to the retained previous table and only the Mondrian
    /// leaves it touches are repaired. The durable commit protocol is
    /// identical to [`SeriesPublisher::publish_next`].
    ///
    /// The retained partition is process-local: after a reopen, the first
    /// release must be a full [`SeriesPublisher::publish_next`] before any
    /// delta (the call errors otherwise).
    pub fn publish_delta<R: Rng + ?Sized>(
        &mut self,
        updates: &[Update],
        taxonomies: &[Taxonomy],
        rng: &mut R,
    ) -> Result<SeriesRelease, RepublishError> {
        let prepared = self.inner.prepare_delta(updates, taxonomies, rng)?;
        self.commit_release(prepared, taxonomies, SeriesCrash::None)
    }

    /// Test hook: [`SeriesPublisher::publish_delta`] dying at `crash`.
    #[doc(hidden)]
    pub fn publish_delta_crashing<R: Rng + ?Sized>(
        &mut self,
        updates: &[Update],
        taxonomies: &[Taxonomy],
        rng: &mut R,
        crash: SeriesCrash,
    ) -> Result<SeriesRelease, RepublishError> {
        let prepared = self.inner.prepare_delta(updates, taxonomies, rng)?;
        self.commit_release(prepared, taxonomies, crash)
    }

    fn publish_inner<R: Rng + ?Sized>(
        &mut self,
        table: &Table,
        taxonomies: &[Taxonomy],
        rng: &mut R,
        crash: SeriesCrash,
    ) -> Result<SeriesRelease, RepublishError> {
        let prepared = self.inner.prepare_next(table, taxonomies, rng)?;
        self.commit_release(prepared, taxonomies, crash)
    }

    /// Shared durable tail of the full and delta publish paths: render the
    /// release (copying the lines a delta carried), stage it and the
    /// bookkeeping, commit them atomically, and only then advance the
    /// in-memory series state and the retained release text.
    fn commit_release(
        &mut self,
        prepared: PreparedRelease,
        taxonomies: &[Taxonomy],
        crash: SeriesCrash,
    ) -> Result<SeriesRelease, RepublishError> {
        let index = self.committed.len() + 1;
        let name = release_file_name(index);
        let carry = prepared.carry().map(|map| (map, &self.text));
        let lines = self.spare.render(prepared.published(), taxonomies, carry);

        let mut set = CommitSet::new(&self.dir, self.policy)?;
        let digest = set.stage(&name, self.spare.text.as_bytes())?;
        let kept = self.state.len();
        push_state_line(&mut self.state, &name, digest);
        if let Err(e) = commit_state(set, &self.state, crash) {
            self.state.truncate(kept);
            return Err(e);
        }

        let published = self.inner.commit_prepared(prepared);
        std::mem::swap(&mut self.text, &mut self.spare);
        self.committed.push((name.clone(), digest));
        let m = metrics();
        m.counter_add("acpp_series_releases_total", 1);
        for (how, n) in [("copied", lines.copied), ("formatted", lines.formatted)] {
            m.counter_add_labeled("acpp_series_release_lines_total", "how", how, n as u64);
        }
        m.gauge_set("acpp_series_release_tuples", published.len() as f64);
        if let Some(prev) = self.last_release {
            m.observe(
                "acpp_series_release_interval_ms",
                MS_BUCKETS,
                prev.elapsed().as_secs_f64() * 1000.0,
            );
        }
        self.last_release = Some(Instant::now());
        Ok(SeriesRelease { published, path: self.dir.join(&name), index, digest, lines })
    }
}

/// Appends one bookkeeping line: the release file and its digest.
fn push_state_line(state: &mut String, name: &str, digest: u64) {
    // Writing to a `String` cannot fail.
    let _ = writeln!(state, "{name}\t{}", render_digest(digest));
}

/// Stages the bookkeeping `state` into `set` and commits it, or dies at
/// `crash`.
fn commit_state(mut set: CommitSet, state: &str, crash: SeriesCrash) -> Result<(), RepublishError> {
    set.stage(STATE_FILE, state.as_bytes())?;
    match crash {
        SeriesCrash::None => Ok(set.commit()?),
        SeriesCrash::BeforeManifest => {
            // Temps are staged and fsynced; the manifest never lands.
            // Dropping the set without commit/abort models the death.
            drop(set);
            Err(state_err("simulated crash before commit manifest".into()))
        }
        SeriesCrash::MidRenames(renames) => {
            set.commit_crashing_after(renames)?;
            Err(state_err(format!("simulated crash after {renames} commit renames")))
        }
    }
}

/// Where a simulated crash strikes inside a durable series commit.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SeriesCrash {
    /// No crash: the production path.
    None,
    /// After staging, before the intent manifest is durable (rolls back).
    BeforeManifest,
    /// After the manifest, with only this many renames done (rolls
    /// forward).
    MidRenames(usize),
}

/// Reads and verifies the bookkeeping file. Absent file = empty series.
fn read_bookkeeping(dir: &Path) -> Result<Vec<(String, u64)>, RepublishError> {
    let path = dir.join(STATE_FILE);
    let text = match fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) if e.kind() == ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => {
            return Err(state_err(format!(
                "cannot read series bookkeeping `{}`: {e}",
                path.display()
            )))
        }
    };
    let mut lines = text.lines();
    if lines.next() != Some(STATE_HEADER) {
        return Err(state_err(format!(
            "series bookkeeping `{}` has an unrecognized header",
            path.display()
        )));
    }
    let mut committed = Vec::new();
    for line in lines {
        if line.is_empty() {
            continue;
        }
        let (name, digest_hex) = line
            .split_once('\t')
            .ok_or_else(|| state_err(format!("malformed bookkeeping line `{line}`")))?;
        let digest = parse_digest(digest_hex)
            .ok_or_else(|| state_err(format!("malformed bookkeeping digest `{digest_hex}`")))?;
        let on_disk = fs::read(dir.join(name)).map_err(|e| {
            state_err(format!(
                "bookkeeping names release `{name}` but it cannot be read: {e}"
            ))
        })?;
        if fnv1a(&on_disk) != digest {
            return Err(state_err(format!(
                "release `{name}` diverges from its bookkeeping digest — the series \
                 directory was modified outside the commit protocol"
            )));
        }
        committed.push((name.to_string(), digest));
    }
    Ok(committed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_core::{AcppError, CoreError};
    use acpp_data::{Attribute, Domain, OwnerId, Schema, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(16)),
            Attribute::quasi("B", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(
                OwnerId(i as u32),
                &[Value((i % 16) as u32), Value(((i / 16) % 8) as u32), Value((i % 10) as u32)],
            )
            .unwrap();
        }
        t
    }

    fn taxonomies() -> Vec<Taxonomy> {
        vec![Taxonomy::intervals(16, 2), Taxonomy::intervals(8, 2)]
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("acpp-durable-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn open(dir: &Path) -> (SeriesPublisher, CommitRecovery) {
        SeriesPublisher::open(
            PgConfig::new(0.3, 4).unwrap(),
            10,
            dir,
            RetryPolicy::none(),
        )
        .unwrap()
    }

    #[test]
    fn series_commits_release_and_bookkeeping_together() {
        let dir = tmpdir("happy");
        let (mut series, recovery) = open(&dir);
        assert_eq!(recovery, CommitRecovery::Clean);
        let t = table(200);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(1);
        let r1 = series.publish_next(&t, &taxes, &mut rng).unwrap();
        let r2 = series.publish_next(&t, &taxes, &mut rng).unwrap();
        assert_eq!(r1.index, 1);
        assert_eq!(r2.index, 2);
        assert_eq!(r1.published, r2.published, "unchanged data republishes identically");
        assert_eq!(series.releases(), 2);
        for path in series.release_paths() {
            assert!(path.exists(), "{} missing", path.display());
        }
        // Bookkeeping accounts for both, byte-verified on reopen.
        let (reopened, recovery) = open(&dir);
        assert_eq!(recovery, CommitRecovery::Clean);
        assert_eq!(reopened.releases(), 2);
    }

    #[test]
    fn crash_before_manifest_rolls_back_leaving_nothing() {
        let dir = tmpdir("rollback");
        let (mut series, _) = open(&dir);
        let t = table(160);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(2);
        let err = series
            .publish_next_crashing(&t, &taxes, &mut rng, SeriesCrash::BeforeManifest)
            .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert_eq!(series.releases(), 0, "no phantom release in memory");
        // A new process recovers: stray temps removed, nothing observable.
        let (recovered, recovery) = open(&dir);
        assert!(matches!(recovery, CommitRecovery::RolledBack { removed } if removed == 2));
        assert_eq!(recovered.releases(), 0);
        assert!(!dir.join(release_file_name(1)).exists());
        assert!(!dir.join(STATE_FILE).exists());
    }

    #[test]
    fn crash_mid_renames_rolls_forward_release_with_bookkeeping() {
        let dir = tmpdir("rollforward");
        let (mut series, _) = open(&dir);
        let t = table(160);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(3);
        // Die after the manifest with only one of the two renames done —
        // the exact window where a release could exist without bookkeeping.
        let err = series
            .publish_next_crashing(&t, &taxes, &mut rng, SeriesCrash::MidRenames(1))
            .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        let (recovered, recovery) = open(&dir);
        assert!(matches!(recovery, CommitRecovery::RolledForward { completed } if completed >= 1));
        // Roll-forward landed BOTH files: release present ⇔ bookkept.
        assert_eq!(recovered.releases(), 1);
        assert!(dir.join(release_file_name(1)).exists());
        assert!(dir.join(STATE_FILE).exists());
        // And the series continues with the next index.
        let mut recovered = recovered;
        let r = recovered.publish_next(&t, &taxes, &mut rng).unwrap();
        assert_eq!(r.index, 2);
    }

    /// The series runs the one-shot entry gate: `p = 0` and a sensitive
    /// domain of one value are refused before the directory is touched.
    #[test]
    fn series_refuses_what_publish_refuses() {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(16)),
            Attribute::quasi("B", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(1)),
        ])
        .unwrap();
        let mut one_value = Table::new(schema);
        for i in 0..16u32 {
            one_value.push_row(OwnerId(i), &[Value(i), Value(i % 8), Value(0)]).unwrap();
        }
        let cases = [
            ("p0", PgConfig::new(0.0, 4).unwrap(), table(200)),
            ("us1", PgConfig::new(0.3, 4).unwrap(), one_value),
        ];
        for (name, cfg, t) in cases {
            let us = t.schema().sensitive_domain_size();
            let mut rng = StdRng::seed_from_u64(1);
            let Err(AcppError::Validation(want)) =
                acpp_core::publish(&t, &taxonomies(), cfg, &mut rng)
            else {
                panic!("{name}: publish must refuse");
            };
            let err = Republisher::new(cfg, us).unwrap_err();
            let refused = |e: &CoreError| matches!(e, CoreError::InvalidParameter(m) if *m == want);
            assert!(refused(&err), "{name}: {err:?}");
            let dir = tmpdir(&format!("refused-{name}"));
            let err = SeriesPublisher::open(cfg, us, &dir, RetryPolicy::none()).err();
            assert!(matches!(&err, Some(RepublishError::Core(e)) if refused(e)), "{name}: {err:?}");
            assert!(!dir.exists(), "{name}: a refused series writes nothing");
        }
    }

    #[test]
    fn tampered_release_is_detected_on_open() {
        let dir = tmpdir("tamper");
        let (mut series, _) = open(&dir);
        let t = table(160);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(4);
        series.publish_next(&t, &taxes, &mut rng).unwrap();
        fs::write(dir.join(release_file_name(1)), b"forged").unwrap();
        let err = SeriesPublisher::open(
            PgConfig::new(0.3, 4).unwrap(),
            10,
            &dir,
            RetryPolicy::none(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("diverges"));
    }

    #[test]
    fn delta_releases_commit_durably() {
        let dir = tmpdir("delta");
        let (mut series, _) = open(&dir);
        let t = table(200);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(7);
        series.publish_next(&t, &taxes, &mut rng).unwrap();
        let updates = vec![
            Update::Delete(OwnerId(0)),
            Update::Insert { owner: OwnerId(900), row: vec![Value(3), Value(3), Value(5)] },
        ];
        let r2 = series.publish_delta(&updates, &taxes, &mut rng).unwrap();
        assert_eq!(r2.index, 2);
        assert!(r2.path.exists());
        let total: usize = r2.published.tuples().iter().map(|t| t.group_size).sum();
        assert_eq!(total, 200, "delta release covers the post-batch table");
        // Bookkeeping byte-verifies on reopen, numbering continues.
        let (reopened, recovery) = open(&dir);
        assert_eq!(recovery, CommitRecovery::Clean);
        assert_eq!(reopened.releases(), 2);
    }

    #[test]
    fn crashed_delta_commit_leaves_series_intact() {
        let dir = tmpdir("delta-crash");
        let (mut series, _) = open(&dir);
        let t = table(200);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(8);
        series.publish_next(&t, &taxes, &mut rng).unwrap();
        let updates = vec![Update::Delete(OwnerId(5))];
        let err = series
            .publish_delta_crashing(&updates, &taxes, &mut rng, SeriesCrash::BeforeManifest)
            .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        assert_eq!(series.releases(), 1, "no phantom delta release");
        // The retained partition still describes release 1, so the same
        // delta can simply be retried.
        let r2 = series.publish_delta(&updates, &taxes, &mut rng).unwrap();
        assert_eq!(r2.index, 2);
        let (recovered, _) = open(&dir);
        assert_eq!(recovered.releases(), 2);
    }

    #[test]
    fn delta_before_any_full_release_is_rejected() {
        // The retained partition is process-local: a fresh or reopened
        // series must publish a full release before any delta.
        let dir = tmpdir("delta-first");
        let t = table(200);
        let taxes = taxonomies();
        {
            let (mut series, _) = open(&dir);
            let mut rng = StdRng::seed_from_u64(9);
            series.publish_next(&t, &taxes, &mut rng).unwrap();
        }
        let (mut reopened, _) = open(&dir);
        let mut rng = StdRng::seed_from_u64(10);
        let err = reopened
            .publish_delta(&[Update::Delete(OwnerId(0))], &taxes, &mut rng)
            .unwrap_err();
        assert!(
            err.to_string().contains("no retained partition"),
            "want a clear delta-after-reopen error, got: {err}"
        );
    }

    #[test]
    fn numbering_continues_across_reopen() {
        let dir = tmpdir("renumber");
        let t = table(200);
        let taxes = taxonomies();
        {
            let (mut series, _) = open(&dir);
            let mut rng = StdRng::seed_from_u64(5);
            series.publish_next(&t, &taxes, &mut rng).unwrap();
        }
        let (mut series, _) = open(&dir);
        let mut rng = StdRng::seed_from_u64(6);
        let r = series.publish_next(&t, &taxes, &mut rng).unwrap();
        assert_eq!(r.index, 2);
        assert!(dir.join(release_file_name(2)).exists());
        let (reopened, _) = open(&dir);
        assert_eq!(reopened.releases(), 2);
    }

    /// The bookkeeping as the commit protocol has always written it: the
    /// header, then one `name<TAB>digest` line per release file on disk.
    fn bookkeeping_of(dir: &Path, releases: usize) -> String {
        let mut text = String::from("acpp-series v1\n");
        for i in 1..=releases {
            let name = release_file_name(i);
            let bytes = fs::read(dir.join(&name)).unwrap();
            text.push_str(&format!("{name}\t{}\n", render_digest(fnv1a(&bytes))));
        }
        text
    }

    #[test]
    fn appended_bookkeeping_matches_the_full_format() {
        let dir = tmpdir("bookkeeping-bytes");
        let t = table(200);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(11);
        let state = || fs::read_to_string(dir.join(STATE_FILE)).unwrap();
        let (mut series, _) = open(&dir);
        for _ in 0..3 {
            series.publish_next(&t, &taxes, &mut rng).unwrap();
        }
        series.publish_delta(&[Update::Delete(OwnerId(9))], &taxes, &mut rng).unwrap();
        assert_eq!(state(), bookkeeping_of(&dir, 4));
        // A crash before the manifest takes its line back out.
        let doomed = [Update::Delete(OwnerId(10))];
        series
            .publish_delta_crashing(&doomed, &taxes, &mut rng, SeriesCrash::BeforeManifest)
            .unwrap_err();
        series.publish_delta(&doomed, &taxes, &mut rng).unwrap();
        assert_eq!(state(), bookkeeping_of(&dir, 5));
        // A roll-forward, then a reopen that re-derives the text.
        series.publish_next_crashing(&t, &taxes, &mut rng, SeriesCrash::MidRenames(1)).unwrap_err();
        let (mut series, _) = open(&dir);
        assert_eq!(state(), bookkeeping_of(&dir, 6));
        series.publish_next(&t, &taxes, &mut rng).unwrap();
        assert_eq!(state(), bookkeeping_of(&dir, 7));
    }

    /// A 0.1 % delta on 20k rows copies almost every line from the previous
    /// release; a full release copies none. Either way the file is the
    /// reference render.
    #[test]
    fn a_trickle_delta_copies_its_carried_lines() {
        use acpp_data::sal::{self, SalConfig};
        let dir = tmpdir("line-counts");
        let base = sal::generate(SalConfig { rows: 20_000, seed: 2008 });
        let donors = sal::generate(SalConfig { rows: 10, seed: 777 });
        let taxes = sal::qi_taxonomies();
        let us = base.schema().sensitive_domain_size();
        let (mut series, _) =
            SeriesPublisher::open(PgConfig::new(0.3, 8).unwrap(), us, &dir, RetryPolicy::none())
                .unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        let copied = || {
            metrics().snapshot().counter("acpp_series_release_lines_total", Some(("how", "copied")))
        };
        let full = series.publish_next(&base, &taxes, &mut rng).unwrap();
        assert_eq!(full.lines.copied, 0);
        assert_eq!(full.lines.formatted, full.published.len());
        let before = copied();
        let updates: Vec<Update> = (0..10)
            .map(|i| Update::Delete(base.owner(i * 1_999)))
            .chain((0..10).map(|i| Update::Insert {
                owner: OwnerId(1 << 30 | i as u32),
                row: donors.row(i),
            }))
            .collect();
        let delta = series.publish_delta(&updates, &taxes, &mut rng).unwrap();
        let lines = delta.lines;
        assert_eq!(lines.copied + lines.formatted, delta.published.len());
        assert!(lines.formatted > 0 && lines.formatted * 20 < delta.published.len(), "{lines:?}");
        assert!(copied() >= before + lines.copied as u64, "the counter counts the copies");
        for release in [&full, &delta] {
            let on_disk = fs::read(&release.path).unwrap();
            assert_eq!(on_disk, release.published.render(&taxes).into_bytes());
            assert_eq!(fnv1a(&on_disk), release.digest);
        }
        assert_eq!(series.release_bytes(), fs::read(&delta.path).unwrap());
    }
}
