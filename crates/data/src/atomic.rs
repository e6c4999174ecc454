//! Durable file I/O: atomic single-file writes, a multi-file commit
//! protocol, and bounded retry with backoff for transient failures.
//!
//! The publication pipeline's correctness argument ends at the disk: a crash
//! that exposes half a release is a privacy failure, not just a reliability
//! one (see `DESIGN.md` §9). This module provides the two commit primitives
//! everything durable in the workspace is built on:
//!
//! * [`write_atomic`] — single-file commit: write to a temporary sibling,
//!   flush + fsync, rename into place, fsync the directory. A reader either
//!   sees the old bytes or the new bytes, never a prefix.
//! * [`CommitSet`] — multi-file commit: stage any number of files as fsynced
//!   temporaries, write a checksummed *intent manifest*, then rename all.
//!   [`recover_commits`] rolls a crashed commit forward (intent durable ⇒
//!   every file lands) or back (no durable intent ⇒ no file lands).
//!
//! Transient failures (interrupted syscalls, timeouts) are retried with
//! bounded exponential backoff and deterministic jitter via [`RetryPolicy`];
//! exhaustion surfaces as [`DataError::IoExhausted`] carrying the attempt
//! count and final cause.

use crate::digest::{fnv1a, parse_digest, render_digest};
use crate::error::DataError;
use std::fs::{self, File, OpenOptions};
use std::io::{ErrorKind, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Suffix of staged temporary files. Recovery treats any file ending in this
/// suffix as an uncommitted leftover.
pub const TMP_SUFFIX: &str = ".acpp-tmp";

/// Name of the intent manifest a [`CommitSet`] writes inside its directory.
pub const INTENT_FILE: &str = ".acpp-commit";

/// Bounded exponential backoff with deterministic jitter.
///
/// The jitter stream is derived from `jitter_seed` and the attempt index
/// (SplitMix64), so a seeded run retries at reproducible instants — the
/// property the deterministic resume tests rely on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included). Clamped to at least 1.
    pub max_attempts: u32,
    /// Delay before the second attempt, in milliseconds.
    pub base_delay_ms: u64,
    /// Ceiling on any single delay, in milliseconds.
    pub max_delay_ms: u64,
    /// Seed of the deterministic jitter stream.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy { max_attempts: 5, base_delay_ms: 5, max_delay_ms: 500, jitter_seed: 0x5EED }
    }
}

impl RetryPolicy {
    /// A policy that never sleeps and never retries — for tests and for
    /// callers that implement their own scheduling.
    pub fn none() -> Self {
        RetryPolicy { max_attempts: 1, base_delay_ms: 0, max_delay_ms: 0, jitter_seed: 0 }
    }

    /// The delay to sleep before attempt `attempt` (0-based; attempt 0 never
    /// sleeps): `min(base · 2^(attempt−1), max)` plus up to 50% jitter.
    pub fn delay(&self, attempt: u32) -> Duration {
        if attempt == 0 || self.base_delay_ms == 0 {
            return Duration::ZERO;
        }
        let exp = self.base_delay_ms.saturating_mul(1u64 << (attempt - 1).min(20));
        let capped = exp.min(self.max_delay_ms.max(self.base_delay_ms));
        let jitter_span = (capped / 2).max(1);
        let jitter = splitmix64(self.jitter_seed ^ u64::from(attempt)) % jitter_span;
        Duration::from_millis(capped + jitter)
    }
}

/// SplitMix64 — the jitter mixer (also used by the vendored RNG's seeder and
/// by callers that need a cheap deterministic hash of a small integer, e.g.
/// the daemon's seeded `Retry-After` jitter).
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Whether an I/O error is worth retrying: the scheduler classes that clear
/// up on their own. Everything else (missing paths, permissions, full disks
/// reported as such) fails fast.
pub fn is_transient(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut
    )
}

/// Runs `op` under `policy`, retrying transient failures with backoff.
///
/// `what` names the operation for the error message ("write release",
/// "rename journal"). Non-transient errors fail on first occurrence;
/// exhaustion returns [`DataError::IoExhausted`] with the attempt count and
/// the final cause.
pub fn retry_io<T>(
    policy: &RetryPolicy,
    what: &str,
    mut op: impl FnMut() -> std::io::Result<T>,
) -> Result<T, DataError> {
    let m = acpp_obs::metrics();
    let attempts = policy.max_attempts.max(1);
    let mut last: Option<std::io::Error> = None;
    for attempt in 0..attempts {
        let pause = policy.delay(attempt);
        if !pause.is_zero() {
            m.observe("acpp_io_backoff_ms", acpp_obs::MS_BUCKETS, pause.as_millis() as f64);
            std::thread::sleep(pause);
        }
        m.counter_add("acpp_io_attempts_total", 1);
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt + 1 < attempts => {
                m.counter_add("acpp_io_transient_failures_total", 1);
                last = Some(e);
            }
            Err(e) => {
                m.counter_add("acpp_io_exhausted_total", 1);
                return Err(DataError::IoExhausted {
                    op: what.to_string(),
                    attempts: attempt + 1,
                    cause: e.to_string(),
                })
            }
        }
    }
    m.counter_add("acpp_io_exhausted_total", 1);
    Err(DataError::IoExhausted {
        op: what.to_string(),
        attempts,
        cause: last.map_or_else(|| "unknown".into(), |e| e.to_string()),
    })
}

/// Fsyncs the directory containing `path`, making a completed rename
/// durable. A no-op when the parent cannot be opened as a directory handle
/// (non-POSIX filesystems); the rename itself is still atomic.
fn sync_parent_dir(path: &Path) -> std::io::Result<()> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    match File::open(parent) {
        Ok(d) => d.sync_all().or(Ok(())),
        Err(_) => Ok(()),
    }
}

/// The temporary sibling a pending write of `path` stages into.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.file_name().map_or_else(Default::default, |n| n.to_os_string());
    name.push(TMP_SUFFIX);
    path.with_file_name(name)
}

/// Writes `bytes` to a fsynced temporary sibling of `path` **without**
/// renaming it into place. Returns the temporary's path. Used by callers
/// that interleave another durability step (a journal record) between
/// staging and publication; plain callers want [`write_atomic`].
pub fn stage_file(path: &Path, bytes: &[u8], policy: &RetryPolicy) -> Result<PathBuf, DataError> {
    let tmp = tmp_path(path);
    retry_io(policy, &format!("stage `{}`", path.display()), || {
        let mut f = OpenOptions::new().write(true).create(true).truncate(true).open(&tmp)?;
        f.write_all(bytes)?;
        f.flush()?;
        f.sync_all()
    })?;
    Ok(tmp)
}

/// Publishes a staged temporary produced by [`stage_file`]: rename over
/// `path` and fsync the directory.
pub fn publish_staged(path: &Path, policy: &RetryPolicy) -> Result<(), DataError> {
    let tmp = tmp_path(path);
    retry_io(policy, &format!("publish `{}`", path.display()), || {
        fs::rename(&tmp, path)?;
        sync_parent_dir(path)
    })
}

/// Atomically replaces `path` with `bytes`: stage to a temporary sibling
/// (write + flush + fsync), rename into place, fsync the directory. A
/// concurrent or post-crash reader observes either the previous content or
/// the new content in full — never a prefix, never a mix.
pub fn write_atomic(path: &Path, bytes: &[u8], policy: &RetryPolicy) -> Result<(), DataError> {
    stage_file(path, bytes, policy)?;
    publish_staged(path, policy)
}

/// A fencing token tied to an on-disk epoch marker.
///
/// An owner that holds epoch `E` over a directory may commit only while no
/// marker with a higher epoch exists. Ownership transfers (a lease steal)
/// create a higher-numbered marker *before* the new owner does any work, so
/// a stalled former owner that wakes up and tries to finish its commit
/// observes the newer marker and is refused with [`DataError::StaleEpoch`].
///
/// Markers are files named `<prefix><epoch>` (decimal) inside `dir`. The
/// check is read-only; creating markers is the caller's job (the lease
/// module creates them with `O_CREAT|O_EXCL`, so exactly one claimant wins
/// any given epoch).
///
/// The check-then-act window is acknowledged: a marker created *between*
/// the check and the commit's rename is not seen. The lease protocol closes
/// that window in time, not bytes — a steal is only legal after the old
/// owner's heartbeat has been stale for a full TTL, and runs are
/// deterministic, so even the worst-case interleaving renames identical
/// bytes over identical bytes.
#[derive(Debug, Clone)]
pub struct EpochFence {
    dir: PathBuf,
    prefix: String,
    epoch: u64,
}

impl EpochFence {
    /// A fence asserting that `epoch` is the newest `<prefix>N` marker in
    /// `dir`.
    pub fn new(dir: impl Into<PathBuf>, prefix: impl Into<String>, epoch: u64) -> Self {
        EpochFence { dir: dir.into(), prefix: prefix.into(), epoch }
    }

    /// The epoch this fence holds.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Returns the newest epoch marker currently on disk, if any. Files
    /// whose suffix does not parse as a decimal `u64` are ignored (a torn
    /// or foreign file must not wedge the fence).
    pub fn observed_epoch(&self) -> Option<u64> {
        let listing = fs::read_dir(&self.dir).ok()?;
        listing
            .flatten()
            .filter_map(|e| {
                let name = e.file_name();
                let name = name.to_string_lossy();
                name.strip_prefix(self.prefix.as_str())?.parse::<u64>().ok()
            })
            .max()
    }

    /// Errors with [`DataError::StaleEpoch`] when a marker newer than the
    /// held epoch exists; `op` names the refused operation for the message.
    pub fn check(&self, op: &str) -> Result<(), DataError> {
        match self.observed_epoch() {
            Some(observed) if observed > self.epoch => Err(DataError::StaleEpoch {
                op: op.to_string(),
                held: self.epoch,
                observed,
            }),
            _ => Ok(()),
        }
    }
}

/// One staged entry of a [`CommitSet`].
#[derive(Debug, Clone)]
struct Staged {
    /// Final file name (no directory components).
    name: String,
    digest: u64,
}

/// A multi-file atomic commit inside one directory.
///
/// Protocol (all steps fsynced before the next begins):
///
/// 1. [`stage`](CommitSet::stage) each file to `<name>.acpp-tmp`;
/// 2. [`commit`](CommitSet::commit) writes the checksummed intent manifest
///    [`INTENT_FILE`], renames every temporary to its final name, fsyncs the
///    directory, then removes the manifest.
///
/// Crash analysis — why the set lands together or not at all:
///
/// * crash before the manifest is durable ⇒ [`recover_commits`] finds no
///   (valid) manifest and deletes stray temporaries: **nothing landed**;
/// * crash after the manifest is durable ⇒ every staged temporary is known
///   to be complete (staged before the manifest), so recovery re-plays the
///   renames: **everything lands**, byte-identical to the staged content.
#[derive(Debug)]
pub struct CommitSet {
    dir: PathBuf,
    staged: Vec<Staged>,
    policy: RetryPolicy,
    fence: Option<EpochFence>,
}

/// What [`recover_commits`] found and did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommitRecovery {
    /// No interrupted commit: nothing to do.
    Clean,
    /// A commit had not reached its durable manifest; `removed` stray
    /// temporaries were deleted. None of its files are observable.
    RolledBack {
        /// Temporary files deleted.
        removed: usize,
    },
    /// A durable manifest was found; `completed` files were renamed into
    /// place (files already renamed before the crash are counted too).
    RolledForward {
        /// Files now at their final name.
        completed: usize,
    },
}

impl CommitSet {
    /// Opens a commit set over `dir`, creating the directory if needed.
    pub fn new(dir: impl Into<PathBuf>, policy: RetryPolicy) -> Result<Self, DataError> {
        let dir = dir.into();
        fs::create_dir_all(&dir).map_err(|e| DataError::Io(format!(
            "cannot create commit directory `{}`: {e}",
            dir.display()
        )))?;
        Ok(CommitSet { dir, staged: Vec::new(), policy, fence: None })
    }

    /// Attaches a fencing token: [`commit`](CommitSet::commit) re-checks the
    /// fence immediately before writing the intent manifest and refuses with
    /// [`DataError::StaleEpoch`] if a newer epoch marker has appeared. Once
    /// the manifest is durable the commit is past the point of no return and
    /// rolls forward even across a crash — the fence guards the *decision*
    /// to commit, which is exactly the semantics a lease steal needs.
    pub fn with_fence(mut self, fence: EpochFence) -> Self {
        self.fence = Some(fence);
        self
    }

    /// The commit directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stages `bytes` for final name `name` (a plain file name, no path
    /// separators). The temporary is durable when this returns. Returns
    /// the FNV-1a digest of `bytes`, the one the manifest records.
    pub fn stage(&mut self, name: &str, bytes: &[u8]) -> Result<u64, DataError> {
        if name.contains(['/', '\\']) || name == INTENT_FILE || name.ends_with(TMP_SUFFIX) {
            return Err(DataError::InvalidParameter(format!(
                "commit entry `{name}` must be a plain file name"
            )));
        }
        stage_file(&self.dir.join(name), bytes, &self.policy)?;
        let digest = fnv1a(bytes);
        self.staged.push(Staged { name: name.to_string(), digest });
        Ok(digest)
    }

    /// Commits every staged file. See the type docs for the protocol.
    pub fn commit(self) -> Result<(), DataError> {
        self.commit_inner(usize::MAX)
    }

    /// Test hook: run the commit protocol but simulate a crash after
    /// `renames` files have been renamed (the manifest is already durable).
    /// Disk state is left exactly as a real crash would leave it.
    #[doc(hidden)]
    pub fn commit_crashing_after(self, renames: usize) -> Result<(), DataError> {
        self.commit_inner(renames)
    }

    /// Discards the staged temporaries.
    pub fn abort(self) {
        for s in &self.staged {
            let _ = fs::remove_file(tmp_path(&self.dir.join(&s.name)));
        }
    }

    fn manifest_body(&self) -> String {
        let mut body = String::from("acpp-commit v1\n");
        for s in &self.staged {
            body.push_str(&format!("{}\t{}\n", s.name, render_digest(s.digest)));
        }
        body
    }

    fn commit_inner(self, crash_after_renames: usize) -> Result<(), DataError> {
        if self.staged.is_empty() {
            return Ok(());
        }
        let fence_refusal = self
            .fence
            .as_ref()
            .and_then(|f| f.check(&format!("commit in `{}`", self.dir.display())).err());
        if let Some(e) = fence_refusal {
            // A refused committer must not leave temporaries behind: the new
            // owner stages under the same names.
            self.abort();
            return Err(e);
        }
        // Durable intent: body + checksum line. A torn manifest fails its
        // checksum and recovery rolls back — safe, because renames only
        // start once the manifest (and its fsync) succeeded.
        let body = self.manifest_body();
        let manifest = format!("{body}end {}\n", render_digest(fnv1a(body.as_bytes())));
        let intent = self.dir.join(INTENT_FILE);
        retry_io(&self.policy, "write commit manifest", || {
            let mut f =
                OpenOptions::new().write(true).create(true).truncate(true).open(&intent)?;
            f.write_all(manifest.as_bytes())?;
            f.flush()?;
            f.sync_all()?;
            sync_parent_dir(&intent)
        })?;
        for (i, s) in self.staged.iter().enumerate() {
            if i >= crash_after_renames {
                return Err(DataError::Io(format!(
                    "simulated crash after {i} of {} renames",
                    self.staged.len()
                )));
            }
            let final_path = self.dir.join(&s.name);
            retry_io(&self.policy, &format!("rename `{}`", s.name), || {
                fs::rename(tmp_path(&final_path), &final_path)
            })?;
        }
        retry_io(&self.policy, "finish commit", || {
            sync_parent_dir(&intent)?;
            fs::remove_file(&intent)?;
            sync_parent_dir(&intent)
        })
    }
}

/// Parses a manifest; `None` when torn or checksummed wrong (⇒ roll back).
fn parse_manifest(text: &str) -> Option<Vec<(String, u64)>> {
    let end_at = text.rfind("end ")?;
    let (body, tail) = text.split_at(end_at);
    let sum = parse_digest(tail.strip_prefix("end ")?.trim_end())?;
    if fnv1a(body.as_bytes()) != sum || !body.starts_with("acpp-commit v1\n") {
        return None;
    }
    let mut entries = Vec::new();
    for line in body.lines().skip(1) {
        let (name, digest) = line.split_once('\t')?;
        entries.push((name.to_string(), parse_digest(digest)?));
    }
    Some(entries)
}

/// Recovers an interrupted [`CommitSet`] in `dir`. Safe to call on a clean
/// directory; call it before reading any state committed through a
/// `CommitSet` (openers of durable series state do this automatically).
pub fn recover_commits(dir: &Path) -> Result<CommitRecovery, DataError> {
    let intent = dir.join(INTENT_FILE);
    let manifest = match fs::read_to_string(&intent) {
        Ok(text) => parse_manifest(&text),
        Err(e) if e.kind() == ErrorKind::NotFound => None,
        Err(e) => return Err(DataError::Io(format!("cannot read commit manifest: {e}"))),
    };
    match manifest {
        Some(entries) => {
            // Intent is durable: roll forward. Every temp named by the
            // manifest was fsynced before the manifest was written.
            let mut completed = 0;
            for (name, digest) in &entries {
                let final_path = dir.join(name);
                let tmp = tmp_path(&final_path);
                if tmp.exists() {
                    fs::rename(&tmp, &final_path)
                        .map_err(|e| DataError::Io(format!("roll-forward of `{name}`: {e}")))?;
                }
                let bytes = fs::read(&final_path).map_err(|e| {
                    DataError::Io(format!("committed file `{name}` unreadable: {e}"))
                })?;
                if fnv1a(&bytes) != *digest {
                    return Err(DataError::Io(format!(
                        "committed file `{name}` does not match its manifest digest"
                    )));
                }
                completed += 1;
            }
            sync_parent_dir(&intent).map_err(DataError::from)?;
            fs::remove_file(&intent).map_err(DataError::from)?;
            Ok(CommitRecovery::RolledForward { completed })
        }
        None => {
            // No durable intent (absent or torn): roll back by deleting the
            // torn manifest (if any) and every stray temporary.
            let had_intent = intent.exists();
            if had_intent {
                fs::remove_file(&intent).map_err(DataError::from)?;
            }
            let mut removed = 0;
            if let Ok(listing) = fs::read_dir(dir) {
                for entry in listing.flatten() {
                    let name = entry.file_name();
                    if name.to_string_lossy().ends_with(TMP_SUFFIX) {
                        fs::remove_file(entry.path()).map_err(DataError::from)?;
                        removed += 1;
                    }
                }
            }
            if removed == 0 && !had_intent {
                Ok(CommitRecovery::Clean)
            } else {
                Ok(CommitRecovery::RolledBack { removed })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("acpp-atomic-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn write_atomic_replaces_whole_file() {
        let dir = tmpdir("replace");
        let path = dir.join("out.csv");
        write_atomic(&path, b"first", &RetryPolicy::none()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"first");
        write_atomic(&path, b"second", &RetryPolicy::none()).unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert!(!tmp_path(&path).exists(), "temporary cleaned up");
    }

    #[test]
    fn retry_recovers_from_transient_errors() {
        let mut failures = 2;
        let policy = RetryPolicy { base_delay_ms: 0, ..RetryPolicy::default() };
        let v = retry_io(&policy, "flaky", || {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::new(ErrorKind::Interrupted, "blip"))
            } else {
                Ok(42)
            }
        })
        .unwrap();
        assert_eq!(v, 42);
    }

    #[test]
    fn retry_exhaustion_reports_attempts_and_cause() {
        let policy = RetryPolicy { max_attempts: 3, base_delay_ms: 0, ..RetryPolicy::default() };
        let err = retry_io::<()>(&policy, "doomed op", || {
            Err(std::io::Error::new(ErrorKind::TimedOut, "line down"))
        })
        .unwrap_err();
        match &err {
            DataError::IoExhausted { op, attempts, cause } => {
                assert_eq!(op, "doomed op");
                assert_eq!(*attempts, 3);
                assert!(cause.contains("line down"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        assert!(err.to_string().contains("3 attempts"));
    }

    #[test]
    fn retry_metrics_are_recorded() {
        let before = acpp_obs::metrics().snapshot();
        let policy =
            RetryPolicy { max_attempts: 3, base_delay_ms: 1, max_delay_ms: 2, jitter_seed: 1 };
        let mut failures = 1;
        retry_io(&policy, "observed", || {
            if failures > 0 {
                failures -= 1;
                Err(std::io::Error::new(ErrorKind::Interrupted, "blip"))
            } else {
                Ok(())
            }
        })
        .unwrap();
        let after = acpp_obs::metrics().snapshot();
        assert!(
            after.counter("acpp_io_attempts_total", None)
                >= before.counter("acpp_io_attempts_total", None) + 2
        );
        assert!(
            after.counter("acpp_io_transient_failures_total", None)
                >= before.counter("acpp_io_transient_failures_total", None) + 1
        );
        let grew = after.histogram("acpp_io_backoff_ms").map(|h| h.count).unwrap_or(0)
            - before.histogram("acpp_io_backoff_ms").map(|h| h.count).unwrap_or(0);
        assert!(grew >= 1, "backoff sleep observed");
    }

    #[test]
    fn non_transient_errors_fail_fast() {
        let mut calls = 0;
        let err = retry_io::<()>(&RetryPolicy::default(), "nope", || {
            calls += 1;
            Err(std::io::Error::new(ErrorKind::PermissionDenied, "denied"))
        })
        .unwrap_err();
        assert_eq!(calls, 1, "permission errors are not retried");
        assert!(matches!(err, DataError::IoExhausted { attempts: 1, .. }));
    }

    #[test]
    fn backoff_is_bounded_and_deterministic() {
        let p = RetryPolicy { max_attempts: 10, base_delay_ms: 4, max_delay_ms: 32, jitter_seed: 9 };
        assert_eq!(p.delay(0), Duration::ZERO);
        for attempt in 1..10 {
            let d = p.delay(attempt);
            assert!(d.as_millis() <= (32 + 16) as u128, "attempt {attempt}: {d:?}");
            assert_eq!(d, p.delay(attempt), "jitter is deterministic");
        }
        assert!(p.delay(2) >= p.delay(1) || p.delay(2).as_millis() >= 4);
    }

    #[test]
    fn commit_set_lands_all_files() {
        let dir = tmpdir("commit-ok");
        let mut c = CommitSet::new(&dir, RetryPolicy::none()).unwrap();
        c.stage("release.csv", b"r1").unwrap();
        c.stage("state.tsv", b"s1").unwrap();
        c.commit().unwrap();
        assert_eq!(fs::read(dir.join("release.csv")).unwrap(), b"r1");
        assert_eq!(fs::read(dir.join("state.tsv")).unwrap(), b"s1");
        assert!(!dir.join(INTENT_FILE).exists());
        assert_eq!(recover_commits(&dir).unwrap(), CommitRecovery::Clean);
    }

    #[test]
    fn crash_before_manifest_rolls_back() {
        let dir = tmpdir("commit-rollback");
        let mut c = CommitSet::new(&dir, RetryPolicy::none()).unwrap();
        c.stage("release.csv", b"r1").unwrap();
        c.stage("state.tsv", b"s1").unwrap();
        // Crash before commit(): temps on disk, no manifest.
        drop(c);
        let rec = recover_commits(&dir).unwrap();
        assert_eq!(rec, CommitRecovery::RolledBack { removed: 2 });
        assert!(!dir.join("release.csv").exists(), "nothing observable");
        assert!(!dir.join("state.tsv").exists());
    }

    #[test]
    fn crash_mid_renames_rolls_forward() {
        for crash_at in 0..=1usize {
            let dir = tmpdir(&format!("commit-forward-{crash_at}"));
            let mut c = CommitSet::new(&dir, RetryPolicy::none()).unwrap();
            c.stage("release.csv", b"r1").unwrap();
            c.stage("state.tsv", b"s1").unwrap();
            let err = c.commit_crashing_after(crash_at).unwrap_err();
            assert!(err.to_string().contains("simulated crash"));
            let rec = recover_commits(&dir).unwrap();
            assert_eq!(rec, CommitRecovery::RolledForward { completed: 2 });
            assert_eq!(fs::read(dir.join("release.csv")).unwrap(), b"r1");
            assert_eq!(fs::read(dir.join("state.tsv")).unwrap(), b"s1");
            assert!(!dir.join(INTENT_FILE).exists());
        }
    }

    #[test]
    fn torn_manifest_rolls_back() {
        let dir = tmpdir("commit-torn");
        let mut c = CommitSet::new(&dir, RetryPolicy::none()).unwrap();
        c.stage("release.csv", b"r1").unwrap();
        // Simulate a crash halfway through the manifest write: valid header,
        // no checksum line.
        fs::write(dir.join(INTENT_FILE), "acpp-commit v1\nrelease.csv\t00\n").unwrap();
        let rec = recover_commits(&dir).unwrap();
        assert_eq!(rec, CommitRecovery::RolledBack { removed: 1 });
        assert!(!dir.join("release.csv").exists());
        assert!(!dir.join(INTENT_FILE).exists());
    }

    #[test]
    fn bad_entry_names_rejected() {
        let dir = tmpdir("commit-names");
        let mut c = CommitSet::new(&dir, RetryPolicy::none()).unwrap();
        assert!(c.stage("a/b.csv", b"x").is_err());
        assert!(c.stage(INTENT_FILE, b"x").is_err());
        assert!(c.stage("x.acpp-tmp", b"x").is_err());
    }

    #[test]
    fn epoch_fence_admits_the_newest_epoch_only() {
        let dir = tmpdir("fence-basic");
        fs::write(dir.join("lease.3"), b"owner").unwrap();
        // Holding the newest epoch (or a directory with no markers) passes.
        assert!(EpochFence::new(&dir, "lease.", 3).check("publish").is_ok());
        assert!(EpochFence::new(&dir, "lease.", 7).check("publish").is_ok());
        assert!(EpochFence::new(tmpdir("fence-empty"), "lease.", 1).check("publish").is_ok());
        // A newer marker on disk refuses the older holder.
        let err = EpochFence::new(&dir, "lease.", 2).check("publish release").unwrap_err();
        match err {
            DataError::StaleEpoch { held, observed, ref op } => {
                assert_eq!(held, 2);
                assert_eq!(observed, 3);
                assert!(op.contains("publish release"));
            }
            other => panic!("unexpected error {other:?}"),
        }
        // Unparseable suffixes are ignored, not treated as epochs.
        fs::write(dir.join("lease.torn-tmp"), b"junk").unwrap();
        assert_eq!(EpochFence::new(&dir, "lease.", 3).observed_epoch(), Some(3));
    }

    #[test]
    fn fenced_commit_is_rejected_when_a_newer_epoch_exists() {
        let dir = tmpdir("fence-commit");
        // Epoch 1 stages its release, then stalls; epoch 2 appears.
        let mut stale = CommitSet::new(&dir, RetryPolicy::none())
            .unwrap()
            .with_fence(EpochFence::new(&dir, "lease.", 1));
        stale.stage("release.csv", b"from-epoch-1").unwrap();
        fs::write(dir.join("lease.2"), b"new owner").unwrap();
        let err = stale.commit().unwrap_err();
        assert!(matches!(err, DataError::StaleEpoch { held: 1, observed: 2, .. }));
        // Nothing landed and nothing lingers: no file, no temp, no manifest.
        assert!(!dir.join("release.csv").exists());
        assert!(!tmp_path(&dir.join("release.csv")).exists());
        assert!(!dir.join(INTENT_FILE).exists());
        assert_eq!(recover_commits(&dir).unwrap(), CommitRecovery::Clean);

        // The current epoch holder commits unimpeded.
        let mut fresh = CommitSet::new(&dir, RetryPolicy::none())
            .unwrap()
            .with_fence(EpochFence::new(&dir, "lease.", 2));
        fresh.stage("release.csv", b"from-epoch-2").unwrap();
        fresh.commit().unwrap();
        assert_eq!(fs::read(dir.join("release.csv")).unwrap(), b"from-epoch-2");
    }

    #[test]
    fn abort_discards_temporaries() {
        let dir = tmpdir("commit-abort");
        let mut c = CommitSet::new(&dir, RetryPolicy::none()).unwrap();
        c.stage("release.csv", b"r1").unwrap();
        c.abort();
        assert_eq!(recover_commits(&dir).unwrap(), CommitRecovery::Clean);
    }

    #[test]
    fn stage_returns_the_digest_the_manifest_records() {
        let dir = tmpdir("commit-digest");
        let mut c = CommitSet::new(&dir, RetryPolicy::none()).unwrap();
        let release = c.stage("release.csv", b"r1,x,3\n").unwrap();
        let state = c.stage("state.tsv", b"s1").unwrap();
        assert_eq!(release, fnv1a(b"r1,x,3\n"));
        assert_eq!(state, fnv1a(b"s1"));
        // Stop right after the manifest lands, then read it back.
        let _ = c.commit_crashing_after(0);
        let manifest = fs::read_to_string(dir.join(INTENT_FILE)).unwrap();
        assert_eq!(
            parse_manifest(&manifest),
            Some(vec![("release.csv".to_string(), release), ("state.tsv".to_string(), state)])
        );
    }
}
