//! Boot-time crash-restart recovery: rebuild the daemon's state from the
//! spool.
//!
//! The spool is the source of truth for admission: a job directory with a
//! durable record file *was* acknowledged with a `202`, and recovery must
//! account for it exactly once. The scan classifies every entry:
//!
//! | evidence on disk                  | verdict                          |
//! |-----------------------------------|----------------------------------|
//! | `cancelled` marker                | terminal; kept as `Cancelled`    |
//! | `failed` marker                   | terminal; kept as `Failed`       |
//! | journal `Complete`                | verify release digest → `Done`   |
//! | journal `Interrupted`             | re-queue; journal resumes it     |
//! | no journal                        | re-queue; runs fresh             |
//! | no record file                    | not admitted; ignored            |
//!
//! Directories without a record are half-written admissions whose `202`
//! never went out — skipping them is what makes "no phantom jobs" hold.

use std::fs;
use std::path::{Path, PathBuf};

use acpp_core::journal::{self, JournalState, JournalStatus};
use acpp_core::AcppError;
use acpp_data::fnv1a;
use acpp_obs::metrics;

use crate::daemon::spool;
use crate::job::{JobSpec, JobState};

/// One recovered spool entry.
pub struct Recovered {
    /// The job id (the directory name).
    pub id: String,
    /// The parsed job record.
    pub spec: JobSpec,
    /// The job's spool directory.
    pub dir: PathBuf,
    /// The state to register the job under.
    pub state: JobState,
    /// Static error/cancellation code carried over, if any.
    pub error: Option<&'static str>,
    /// Release digest, when the release was verified on disk.
    pub release_digest: Option<u64>,
    /// Whether the job must be re-queued for a worker.
    pub needs_run: bool,
}

/// Parses a job id of the daemon's own format (`j000042` → 42).
pub fn parse_id(id: &str) -> Option<u64> {
    let digits = id.strip_prefix('j')?;
    if digits.is_empty() || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Interns a marker-file code back into the closed static vocabulary.
/// Unknown content (a tampered marker) degrades to `internal` rather than
/// flowing a free-form string anywhere.
fn intern_code(content: &str) -> &'static str {
    const KNOWN: &[&str] = &[
        "cancelled",
        "deadline_exceeded",
        "data",
        "generalize",
        "perturb",
        "sample",
        "core",
        "validation",
        "fault",
        "analysis",
        "journal",
        "conformance",
        "service",
        "release_missing",
        "lease_lost",
    ];
    KNOWN
        .iter()
        .copied()
        .find(|code| *code == content.trim())
        .unwrap_or("internal")
}

/// Scans the spool and classifies every admitted job. Returns entries in
/// id order (directory iteration is sorted), so recovery re-queues
/// interrupted work deterministically.
pub fn scan(spool_dir: &Path) -> Result<Vec<Recovered>, AcppError> {
    let mut dirs: Vec<PathBuf> = fs::read_dir(spool_dir)
        .map_err(|e| AcppError::Service(format!("cannot scan spool: {e}")))?
        .filter_map(|entry| entry.ok())
        .filter(|entry| entry.file_type().is_ok_and(|t| t.is_dir()))
        .map(|entry| entry.path())
        .collect();
    dirs.sort();

    let m = metrics();
    let mut out = Vec::new();
    for dir in dirs {
        let Some(id) = dir.file_name().and_then(|n| n.to_str()).map(String::from) else {
            continue;
        };
        // Dot-directories are daemon bookkeeping (`.nodes` identity files
        // in fleet mode), never jobs.
        if id.starts_with('.') {
            continue;
        }
        let Ok(record) = fs::read_to_string(dir.join(spool::RECORD)) else {
            // Half-written admission: no record means no 202 went out.
            m.counter_add_labeled("acppd_recovered_jobs_total", "action", "skipped_partial", 1);
            continue;
        };
        let Ok(spec) = JobSpec::parse_record(&record) else {
            m.counter_add_labeled("acppd_recovered_jobs_total", "action", "skipped_corrupt", 1);
            continue;
        };

        let (state, error, release_digest, needs_run, action) = classify(&dir);
        m.counter_add_labeled("acppd_recovered_jobs_total", "action", action, 1);
        out.push(Recovered { id, spec, dir, state, error, release_digest, needs_run });
    }
    Ok(out)
}

/// Classifies one job directory from its on-disk evidence. Also used by
/// fleet-mode status synthesis, which answers for jobs owned by peers
/// straight off the shared spool.
pub(crate) fn classify(
    dir: &Path,
) -> (JobState, Option<&'static str>, Option<u64>, bool, &'static str) {
    if let Ok(reason) = fs::read_to_string(dir.join(spool::CANCELLED)) {
        return (JobState::Cancelled, Some(intern_code(&reason)), None, false, "kept_cancelled");
    }
    if let Ok(code) = fs::read_to_string(dir.join(spool::FAILED)) {
        return (JobState::Failed, Some(intern_code(&code)), None, false, "kept_failed");
    }
    match journal_status(&dir.join(spool::JOURNAL)) {
        (JournalStatus::Complete, state) => {
            let staged = state.and_then(|state| state.staged);
            let on_disk = fs::read(dir.join(spool::OUTPUT)).ok();
            match (staged, on_disk) {
                (Some((digest, _)), Some(bytes)) if fnv1a(&bytes) == digest => {
                    (JobState::Done, None, Some(digest), false, "verified_done")
                }
                // Committed per the journal, but the release file itself is
                // gone — deleted or never visible after the rename. Distinct
                // from a digest mismatch: nothing to compare, only absence.
                (_, None) => {
                    (JobState::Failed, Some("release_missing"), None, false, "release_missing")
                }
                // Journal says committed but the release bytes don't
                // check out — surface loudly instead of trusting either
                // side.
                _ => (JobState::Failed, Some("journal"), None, false, "digest_mismatch"),
            }
        }
        (JournalStatus::Interrupted, _) => (JobState::Queued, None, None, true, "resumed"),
        (JournalStatus::Absent, _) => (JobState::Queued, None, None, true, "requeued"),
    }
}

/// The verdict of [`journal::status`] on `journal_dir`, with the state it
/// decoded. The journal is read once, and its presence is checked only when
/// it does not read back.
pub(crate) fn journal_status(journal_dir: &Path) -> (JournalStatus, Option<JournalState>) {
    match journal::read_state(journal_dir) {
        Ok(state) if state.done => (JournalStatus::Complete, Some(state)),
        Ok(state) => (JournalStatus::Interrupted, Some(state)),
        Err(_) if journal_dir.join(journal::JOURNAL_FILE).exists() => {
            (JournalStatus::Interrupted, None)
        }
        Err(_) => (JournalStatus::Absent, None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn job_ids_parse_and_reject_noise() {
        assert_eq!(parse_id("j000042"), Some(42));
        assert_eq!(parse_id("j1"), Some(1));
        assert_eq!(parse_id("x000042"), None);
        assert_eq!(parse_id("j"), None);
        assert_eq!(parse_id("jabc"), None);
    }

    #[test]
    fn unknown_marker_content_degrades_to_internal() {
        assert_eq!(intern_code("validation"), "validation");
        assert_eq!(intern_code("deadline_exceeded\n"), "deadline_exceeded");
        assert_eq!(intern_code("Income=52000 leaked!"), "internal");
        assert_eq!(intern_code("release_missing"), "release_missing");
        assert_eq!(intern_code("lease_lost"), "lease_lost");
    }

    /// Runs a real journaled publish into `dir`, leaving a `Complete`
    /// journal and a verified `dstar.csv`.
    fn committed_job_dir(name: &str) -> PathBuf {
        use acpp_core::journal;
        use acpp_core::{DegradationPolicy, PgConfig};
        use acpp_data::{Attribute, Domain, OwnerId, Schema, Table, Taxonomy, Value};

        let dir = std::env::temp_dir().join("acpp-recover-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();

        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap();
        let mut table = Table::new(schema);
        for i in 0..16u32 {
            table.push_row(OwnerId(i), &[Value(i % 8), Value(i % 10)]).unwrap();
        }
        journal::publish_journaled(
            &table,
            &[Taxonomy::intervals(8, 2)],
            PgConfig::new(0.3, 4).unwrap(),
            DegradationPolicy::Abort,
            7,
            &dir.join(spool::JOURNAL),
            &dir.join(spool::OUTPUT),
            &journal::RunOptions::default(),
        )
        .unwrap();
        dir
    }

    #[test]
    fn complete_journal_with_missing_release_is_release_missing() {
        let dir = committed_job_dir("release-missing");
        // Intact: verified done.
        let (state, error, digest, needs_run, action) = classify(&dir);
        assert_eq!(state, JobState::Done);
        assert_eq!(error, None);
        assert!(digest.is_some());
        assert!(!needs_run);
        assert_eq!(action, "verified_done");

        // Release file deleted out from under a committed journal: a
        // distinct failure, not a digest mismatch and never a re-queue.
        fs::remove_file(dir.join(spool::OUTPUT)).unwrap();
        let (state, error, digest, needs_run, action) = classify(&dir);
        assert_eq!(state, JobState::Failed);
        assert_eq!(error, Some("release_missing"));
        assert_eq!(digest, None);
        assert!(!needs_run);
        assert_eq!(action, "release_missing");
    }

    #[test]
    fn complete_journal_with_corrupt_release_is_digest_mismatch() {
        let dir = committed_job_dir("digest-mismatch");
        fs::write(dir.join(spool::OUTPUT), b"tampered\n").unwrap();
        let (state, error, _, needs_run, action) = classify(&dir);
        assert_eq!(state, JobState::Failed);
        assert_eq!(error, Some("journal"));
        assert!(!needs_run);
        assert_eq!(action, "digest_mismatch");
    }

    #[test]
    fn scan_skips_dot_directories() {
        let spool_dir = std::env::temp_dir().join("acpp-recover-tests").join("dot-dirs");
        let _ = fs::remove_dir_all(&spool_dir);
        fs::create_dir_all(spool_dir.join(".nodes")).unwrap();
        fs::write(spool_dir.join(".nodes").join("alpha"), "acppd-node v1\nboot=3\n").unwrap();
        let recovered = scan(&spool_dir).unwrap();
        assert!(recovered.is_empty(), "identity bookkeeping is not a job");
    }
}
