//! Write-ahead journal: crash-safe publication and byte-identical resume.
//!
//! A release is only lawful if it is published *whole*. A crash that leaves
//! a prefix of `D*` on disk — or a phase artifact like `D^p` — hands the
//! corrupting adversary exactly the side channel the PG pipeline exists to
//! close. This module makes the pipeline restartable with two guarantees:
//!
//! * **Atomic visibility** — the output path either holds a complete
//!   release or nothing new at all, at every instant, under a crash at any
//!   point (enforced by staging + fsync + rename, see
//!   [`acpp_data::atomic`]);
//! * **Byte-identical resume** — [`resume`] finishes an interrupted run and
//!   produces exactly the bytes an uninterrupted run would have produced.
//!
//! Resume is deterministic because the journaled pipeline derives an
//! **independent RNG stream per phase** from the run seed
//! (`StdRng::seed_from_u64(seed ⊕ phase-tag)`), so no phase's draws depend
//! on how many draws an earlier phase consumed. The journal records the run
//! fingerprint (seed, config, input digest) plus a checkpoint digest at
//! every phase boundary; on resume the phases are recomputed from the seed
//! and each recomputed artifact is verified against its checkpoint, so
//! input tampering or nondeterminism is detected instead of silently
//! producing a divergent release.
//!
//! ## Journal format
//!
//! `journal.log` is an append-only text file. Each record is one line
//! `body|checksum` where `checksum` is the FNV-1a digest of `body`. Records
//! are fsynced before the action they authorize proceeds. A torn final line
//! (the signature of a crash mid-append) fails its checksum and is
//! discarded on recovery; a corrupt line anywhere *else* is a hard error.
//!
//! ```text
//! begin v1 seed=7 p=3fd3333333333333 k=4 alg=mondrian policy=abort input=… taxes=… rows=500|…
//! phase ingest 9f3c…|…
//! phase perturbation 417a…|…
//! phase generalization be00…|…
//! phase sampling 70d1…|…
//! staged 5b22… 1834|…
//! done|…
//! ```
//!
//! ## Crash points
//!
//! [`CrashPoint`] enumerates every interesting instant a process can die:
//! after each journal append, mid-way through the release's temp-file
//! write, after staging, and after the commit rename. The killpoint matrix
//! in `tests/crash_recovery.rs` drives all of them and asserts the two
//! guarantees above.

use crate::cancel::CancelToken;
use crate::config::PgConfig;
use crate::error::AcppError;
use crate::fault::{DegradationPolicy, FaultPlan, Phase, PipelineReport};
use crate::par::Threads;
use crate::pipeline::{run_pipeline, BoundaryHook, NoHook, Run, SeededPhaseRngs};
use crate::published::PublishedTable;
use acpp_data::atomic::{publish_staged, stage_file, tmp_path, EpochFence, RetryPolicy};
use acpp_data::digest::{fnv1a, parse_digest, render_digest};
use acpp_data::{Table, Taxonomy};
use acpp_obs::{metrics, FieldValue, Telemetry};
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::Path;

/// File name of the journal inside its directory.
pub const JOURNAL_FILE: &str = "journal.log";

/// A simulated process death, used by the killpoint matrix. Each point
/// leaves the disk exactly as a real crash at that instant would; the run
/// returns [`AcppError::Journal`] and publishes nothing beyond what the
/// protocol already made durable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrashPoint {
    /// After the `begin` record is durable, before any phase runs.
    AfterBegin,
    /// After the ingest checkpoint is durable.
    AfterIngest,
    /// After the perturbation checkpoint is durable.
    AfterPerturb,
    /// After the generalization checkpoint is durable.
    AfterGeneralize,
    /// After the sampling checkpoint is durable.
    AfterSample,
    /// Mid-way through writing the release's temporary file (torn temp, no
    /// `staged` record).
    MidReleaseWrite,
    /// After the release temp is fsynced and the `staged` record is
    /// durable, before the commit rename.
    AfterStage,
    /// After the commit rename, before the `done` record.
    AfterRename,
}

impl CrashPoint {
    /// Every crash point, in pipeline order.
    pub const ALL: [CrashPoint; 8] = [
        CrashPoint::AfterBegin,
        CrashPoint::AfterIngest,
        CrashPoint::AfterPerturb,
        CrashPoint::AfterGeneralize,
        CrashPoint::AfterSample,
        CrashPoint::MidReleaseWrite,
        CrashPoint::AfterStage,
        CrashPoint::AfterRename,
    ];

    /// The crash point sitting at `phase`'s boundary, if any.
    fn at_boundary(phase: Phase) -> CrashPoint {
        match phase {
            Phase::Ingest => CrashPoint::AfterIngest,
            Phase::Perturb => CrashPoint::AfterPerturb,
            Phase::Generalize => CrashPoint::AfterGeneralize,
            Phase::Sample => CrashPoint::AfterSample,
        }
    }

    /// Parses the CLI spelling, which is the [`Display`](fmt::Display) form
    /// (e.g. `after-perturb`, `mid-write`).
    pub fn parse(s: &str) -> Option<CrashPoint> {
        CrashPoint::ALL.into_iter().find(|point| point.to_string() == s)
    }
}

impl fmt::Display for CrashPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrashPoint::AfterBegin => "after-begin",
            CrashPoint::AfterIngest => "after-ingest",
            CrashPoint::AfterPerturb => "after-perturb",
            CrashPoint::AfterGeneralize => "after-generalize",
            CrashPoint::AfterSample => "after-sample",
            CrashPoint::MidReleaseWrite => "mid-write",
            CrashPoint::AfterStage => "after-stage",
            CrashPoint::AfterRename => "after-rename",
        })
    }
}

/// The identity of a publication run: everything that determines its output
/// bytes. A journal belongs to exactly one fingerprint; [`resume`] refuses
/// to continue a journal whose fingerprint does not match the inputs it was
/// handed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunFingerprint {
    /// The run seed all per-phase RNG streams derive from.
    pub seed: u64,
    /// The pipeline configuration.
    pub config: PgConfig,
    /// The degradation policy.
    pub policy: DegradationPolicy,
    /// FNV-1a digest of the input microdata (owner-tagged CSV form).
    pub input_digest: u64,
    /// FNV-1a digest of the taxonomies.
    pub taxonomy_digest: u64,
    /// Input row count (redundant with the digest; kept for diagnostics).
    pub rows: usize,
}

impl RunFingerprint {
    /// Computes the fingerprint of a run over the given inputs.
    pub fn compute(
        table: &Table,
        taxonomies: &[Taxonomy],
        config: PgConfig,
        policy: DegradationPolicy,
        seed: u64,
    ) -> Self {
        let input_digest = crate::pipeline::digest_table(table);
        let taxonomy_digest = fnv1a(format!("{taxonomies:?}").as_bytes());
        RunFingerprint { seed, config, policy, input_digest, taxonomy_digest, rows: table.len() }
    }

    fn encode(&self) -> String {
        format!(
            "begin v1 seed={} p={:016x} k={} alg={} policy={} input={} taxes={} rows={}",
            self.seed,
            self.config.p.to_bits(),
            self.config.k,
            self.config.algorithm.wire_name(),
            self.policy.wire_name(),
            render_digest(self.input_digest),
            render_digest(self.taxonomy_digest),
            self.rows,
        )
    }

    fn decode(body: &str) -> Option<Self> {
        let mut fields = body.split(' ');
        if fields.next()? != "begin" || fields.next()? != "v1" {
            return None;
        }
        let mut seed = None;
        let mut p_bits = None;
        let mut k = None;
        let mut alg = None;
        let mut policy = None;
        let mut input = None;
        let mut taxes = None;
        let mut rows = None;
        for field in fields {
            let (key, value) = field.split_once('=')?;
            match key {
                "seed" => seed = value.parse::<u64>().ok(),
                "p" => p_bits = u64::from_str_radix(value, 16).ok(),
                "k" => k = value.parse::<usize>().ok(),
                "alg" => alg = value.parse().ok(),
                "policy" => policy = value.parse().ok(),
                "input" => input = parse_digest(value),
                "taxes" => taxes = parse_digest(value),
                "rows" => rows = value.parse::<usize>().ok(),
                _ => return None,
            }
        }
        Some(RunFingerprint {
            seed: seed?,
            config: PgConfig {
                p: f64::from_bits(p_bits?),
                k: k?,
                algorithm: alg?,
            },
            policy: policy?,
            input_digest: input?,
            taxonomy_digest: taxes?,
            rows: rows?,
        })
    }
}

/// One journal record.
#[derive(Debug, Clone, PartialEq)]
enum Record {
    Begin(RunFingerprint),
    Phase(Phase, u64),
    Staged { digest: u64, len: usize },
    Done,
}

impl Record {
    fn encode_body(&self) -> String {
        match self {
            Record::Begin(fp) => fp.encode(),
            Record::Phase(phase, digest) => {
                format!("phase {phase} {}", render_digest(*digest))
            }
            Record::Staged { digest, len } => {
                format!("staged {} {len}", render_digest(*digest))
            }
            Record::Done => "done".to_string(),
        }
    }

    /// Encodes the record as a checksummed journal line (with newline).
    fn encode_line(&self) -> String {
        let body = self.encode_body();
        let sum = render_digest(fnv1a(body.as_bytes()));
        format!("{body}|{sum}\n")
    }

    /// Decodes a checksummed line. `None` = torn or corrupt.
    fn decode_line(line: &str) -> Option<Record> {
        let (body, sum) = line.rsplit_once('|')?;
        if parse_digest(sum)? != fnv1a(body.as_bytes()) {
            return None;
        }
        if body == "done" {
            return Some(Record::Done);
        }
        if let Some(rest) = body.strip_prefix("phase ") {
            let (name, digest) = rest.split_once(' ')?;
            let phase = Phase::ALL.into_iter().find(|p| p.to_string() == name)?;
            return Some(Record::Phase(phase, parse_digest(digest)?));
        }
        if let Some(rest) = body.strip_prefix("staged ") {
            let (digest, len) = rest.split_once(' ')?;
            return Some(Record::Staged {
                digest: parse_digest(digest)?,
                len: len.parse().ok()?,
            });
        }
        RunFingerprint::decode(body).map(Record::Begin)
    }
}

/// The durable state recovered from a journal.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct JournalState {
    /// The run fingerprint, if the `begin` record was durable.
    pub fingerprint: Option<RunFingerprint>,
    /// Durable phase checkpoints, in pipeline order.
    pub phase_digests: Vec<(Phase, u64)>,
    /// The `staged` record: release digest and byte length.
    pub staged: Option<(u64, usize)>,
    /// Whether the `done` record was durable (commit complete).
    pub done: bool,
    /// Byte length of the valid journal prefix (a torn tail is discarded
    /// and overwritten on resume).
    pub valid_len: u64,
    /// Whether a torn trailing record was discarded.
    pub torn_tail: bool,
}

/// Reads and validates the journal in `dir`.
///
/// A torn *final* line — the signature of a crash mid-append — is
/// discarded; a corrupt line anywhere else is a hard [`AcppError::Journal`]
/// error, because dropping an interior record could silently change what
/// the journal authorizes.
pub fn read_state(dir: &Path) -> Result<JournalState, AcppError> {
    let path = dir.join(JOURNAL_FILE);
    let text = fs::read_to_string(&path).map_err(|e| {
        AcppError::Journal(format!("cannot read journal `{}`: {e}", path.display()))
    })?;
    let mut state = JournalState::default();
    let mut offset = 0u64;
    let mut chunks = text.split_inclusive('\n').peekable();
    while let Some(chunk) = chunks.next() {
        let is_last = chunks.peek().is_none();
        let line = chunk.trim_end_matches('\n');
        let complete = chunk.ends_with('\n');
        match Record::decode_line(line) {
            Some(record) if complete => {
                match record {
                    Record::Begin(fp) => {
                        if state.fingerprint.is_some() {
                            return Err(AcppError::Journal(
                                "journal holds two begin records".into(),
                            ));
                        }
                        state.fingerprint = Some(fp);
                    }
                    Record::Phase(phase, digest) => state.phase_digests.push((phase, digest)),
                    Record::Staged { digest, len } => state.staged = Some((digest, len)),
                    Record::Done => state.done = true,
                }
                offset += chunk.len() as u64;
            }
            _ if is_last => {
                // Torn or unsynced tail: drop it.
                if !line.is_empty() {
                    state.torn_tail = true;
                }
                break;
            }
            _ => {
                return Err(AcppError::Journal(format!(
                    "corrupt interior journal record: `{line}`"
                )))
            }
        }
    }
    if state.fingerprint.is_none() && !state.phase_digests.is_empty() {
        return Err(AcppError::Journal("journal records precede begin".into()));
    }
    state.valid_len = offset;
    Ok(state)
}

/// Append-only, fsync-per-record journal writer.
struct JournalWriter {
    file: File,
}

impl JournalWriter {
    /// Creates a fresh journal (fails if one exists).
    fn create(dir: &Path) -> Result<Self, AcppError> {
        fs::create_dir_all(dir).map_err(|e| {
            AcppError::Journal(format!("cannot create journal dir `{}`: {e}", dir.display()))
        })?;
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&path)
            .map_err(|e| {
                AcppError::Journal(format!(
                    "cannot create journal `{}`: {e} (resume it, or pick a fresh directory)",
                    path.display()
                ))
            })?;
        Ok(JournalWriter { file })
    }

    /// Opens an existing journal for appending, truncating a torn tail.
    fn open(dir: &Path, valid_len: u64) -> Result<Self, AcppError> {
        let path = dir.join(JOURNAL_FILE);
        let file = OpenOptions::new().write(true).read(true).open(&path).map_err(|e| {
            AcppError::Journal(format!("cannot open journal `{}`: {e}", path.display()))
        })?;
        file.set_len(valid_len).map_err(|e| {
            AcppError::Journal(format!("cannot truncate torn journal tail: {e}"))
        })?;
        use std::io::Seek;
        let mut file = file;
        file.seek(std::io::SeekFrom::End(0))
            .map_err(|e| AcppError::Journal(format!("cannot seek journal: {e}")))?;
        Ok(JournalWriter { file })
    }

    /// Appends one record and makes it durable before returning.
    fn append(&mut self, record: &Record) -> Result<(), AcppError> {
        metrics().counter_add("acpp_journal_appends_total", 1);
        let line = record.encode_line();
        self.file
            .write_all(line.as_bytes())
            .and_then(|()| self.file.sync_all())
            .map_err(|e| AcppError::Journal(format!("journal append failed: {e}")))
    }
}

/// The boundary hook of a journaled run: verifies recomputed phase
/// artifacts against durable checkpoints, appends checkpoints for phases
/// not yet recorded, fires simulated crashes, and polls the ownership
/// fence and the cancellation token.
///
/// Order matters. The fence is polled **first**: a superseded owner must
/// not keep appending to a journal another node now drives. (Runs are
/// deterministic, so a lost append race would write identical bytes — this
/// check bounds wasted work, while the commit-path checks in `drive` are
/// the correctness guard.) The token is polled **last**, so the
/// just-completed phase's checkpoint is durable before it is consulted: a
/// cancelled run always leaves a journal that [`resume`] completes
/// byte-identically, which is what a graceful service drain relies on.
struct JournalHook<'a> {
    writer: &'a mut JournalWriter,
    known: Vec<(Phase, u64)>,
    crash: Option<CrashPoint>,
    telemetry: &'a Telemetry,
    cancel: Option<&'a CancelToken>,
    fence: Option<&'a EpochFence>,
}

impl BoundaryHook for JournalHook<'_> {
    fn boundary(
        &mut self,
        phase: Phase,
        digest: &mut dyn FnMut() -> u64,
    ) -> Result<(), AcppError> {
        if let Some(fence) = self.fence {
            fence.check(&format!("{phase} boundary"))?;
        }
        let d = digest();
        let verified = match self.known.iter().find(|(p, _)| *p == phase) {
            Some(&(_, recorded)) if recorded != d => {
                return Err(AcppError::Journal(format!(
                    "resume diverged at the {phase} boundary: journal {} vs recomputed {} — \
                     the inputs changed since the run began",
                    render_digest(recorded),
                    render_digest(d)
                )))
            }
            Some(_) => {
                metrics().counter_add("acpp_journal_checkpoints_verified_total", 1);
                true
            }
            None => {
                self.writer.append(&Record::Phase(phase, d))?;
                metrics().counter_add("acpp_journal_checkpoints_recorded_total", 1);
                false
            }
        };
        self.telemetry.event(
            "journal.checkpoint",
            &[
                ("phase", FieldValue::Label(phase.label())),
                ("verified", FieldValue::Flag(verified)),
            ],
        );
        if self.crash == Some(CrashPoint::at_boundary(phase)) {
            return Err(simulated_crash(CrashPoint::at_boundary(phase)));
        }
        match self.cancel {
            Some(token) => token.check(phase.label()),
            None => Ok(()),
        }
    }
}

fn simulated_crash(point: CrashPoint) -> AcppError {
    AcppError::Journal(format!("simulated crash at {point}"))
}

/// The outcome of a journaled publication or resume.
#[derive(Debug, Clone)]
pub struct JournaledRun {
    /// The complete release.
    pub published: PublishedTable,
    /// The pipeline's audit report.
    pub report: PipelineReport,
    /// FNV-1a digest of the release bytes on disk.
    pub release_digest: u64,
    /// Whether this run continued an interrupted journal.
    pub resumed: bool,
    /// Phase checkpoints that were already durable when the run started
    /// (empty on a fresh run).
    pub checkpoints_reused: usize,
}

/// Knobs of a journaled run shared by [`publish_journaled`] and [`resume`].
/// Everything defaults to the plain batch behavior: auto thread count,
/// disabled telemetry, no fault plan, no cancellation, no simulated crash.
///
/// `plan` participates in the run's bytes (injected faults change
/// checkpoints and the release), so a resume must be handed the same plan
/// the original run had — a mismatch is caught at the first divergent
/// checkpoint. `threads`, `telemetry`, `cancel` and `crash` never change
/// what a completed run publishes: the journal fingerprint, every
/// checkpoint digest and the release bytes are identical at every thread
/// count, so a journal written at one count resumes at any other.
#[derive(Default)]
pub struct RunOptions<'a> {
    /// Worker threads (wall-clock only; never affects bytes).
    pub threads: Threads,
    /// Telemetry handle; `None` runs with telemetry disabled. Spans cover
    /// the pipeline phases, checkpoint verification, release staging, and
    /// the commit rename.
    pub telemetry: Option<&'a Telemetry>,
    /// Fault plan to inject through the journaled pipeline.
    pub plan: Option<&'a FaultPlan>,
    /// Cooperative cancellation, polled after each durable checkpoint.
    pub cancel: Option<&'a CancelToken>,
    /// Simulated process death for the killpoint matrix.
    pub crash: Option<CrashPoint>,
    /// Ownership fence, checked at every phase boundary and immediately
    /// before the release rename and the `done` record. A run whose epoch
    /// has been superseded (its job was stolen by another node) stops with
    /// [`acpp_data::DataError::StaleEpoch`] instead of committing.
    pub fence: Option<&'a EpochFence>,
}

/// Runs the pipeline with per-phase RNG streams derived from `seed`, with
/// no journal and no disk I/O. This is the same deterministic contract the
/// journaled runner follows: `publish_deterministic` and a journaled run
/// (or any resume of it) produce identical releases for identical inputs.
pub fn publish_deterministic(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    policy: DegradationPolicy,
    seed: u64,
) -> Result<(PublishedTable, PipelineReport), AcppError> {
    let (mut rngs, mut hook) = (SeededPhaseRngs::new(seed), NoHook);
    let telemetry = Telemetry::disabled();
    let run = Run::new(policy, None, 1, &mut rngs, &mut hook, &telemetry);
    run_pipeline(table, taxonomies, config, run)
}

/// Publishes under a fresh write-ahead journal in `dir`, committing the
/// release atomically to `out` — the entry point `acpp publish --journal`
/// and `acppd` run jobs through.
///
/// Fails with [`AcppError::Journal`] if `dir` already holds a journal —
/// an interrupted run must be completed with [`resume`] (or the directory
/// cleared), never silently restarted over.
#[allow(clippy::too_many_arguments)]
pub fn publish_journaled(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    policy: DegradationPolicy,
    seed: u64,
    dir: &Path,
    out: &Path,
    opts: &RunOptions<'_>,
) -> Result<JournaledRun, AcppError> {
    let disabled = Telemetry::disabled();
    let telemetry = opts.telemetry.unwrap_or(&disabled);
    let fingerprint = RunFingerprint::compute(table, taxonomies, config, policy, seed);
    let mut writer = JournalWriter::create(dir)?;
    writer.append(&Record::Begin(fingerprint))?;
    if opts.crash == Some(CrashPoint::AfterBegin) {
        return Err(simulated_crash(CrashPoint::AfterBegin));
    }
    drive(
        table,
        taxonomies,
        &fingerprint,
        &JournalState::default(),
        &mut writer,
        out,
        opts,
        telemetry,
    )
}

/// Completes an interrupted journaled run, producing a release
/// **byte-identical** to what the uninterrupted run would have written.
///
/// The caller supplies the same inputs the original run was given; the
/// journal's fingerprint is verified against them, every recomputed phase
/// is verified against its durable checkpoint, and the release commit is
/// rolled forward (or redone) atomically. Resuming a journal that already
/// completed (`done`) verifies the release on disk and returns it. A run
/// interrupted with a fault plan must be resumed with the **same** plan;
/// a mismatch is refused at the first divergent checkpoint.
#[allow(clippy::too_many_arguments)]
pub fn resume(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    policy: DegradationPolicy,
    seed: u64,
    dir: &Path,
    out: &Path,
    opts: &RunOptions<'_>,
) -> Result<JournaledRun, AcppError> {
    let disabled = Telemetry::disabled();
    let telemetry = opts.telemetry.unwrap_or(&disabled);
    let recover_span = telemetry.span("journal.recover");
    metrics().counter_add("acpp_journal_resumes_total", 1);
    let state = read_state(dir)?;
    if state.torn_tail {
        metrics().counter_add("acpp_journal_torn_tails_total", 1);
        telemetry.event("journal.torn_tail", &[]);
    }
    recover_span.field("checkpoints", state.phase_digests.len());
    recover_span.field("torn_tail", state.torn_tail);
    recover_span.field("done", state.done);
    recover_span.end();
    let fingerprint = RunFingerprint::compute(table, taxonomies, config, policy, seed);
    let mut writer = JournalWriter::open(dir, state.valid_len)?;
    match state.fingerprint {
        Some(recorded) => {
            if recorded != fingerprint {
                return Err(AcppError::Journal(
                    "journal fingerprint does not match the supplied inputs — refusing to \
                     resume a different run"
                        .into(),
                ));
            }
        }
        None => {
            // The crash tore even the begin record: this journal authorized
            // nothing. Start it properly.
            writer.append(&Record::Begin(fingerprint))?;
        }
    }
    let mut outcome =
        drive(table, taxonomies, &fingerprint, &state, &mut writer, out, opts, telemetry)?;
    outcome.resumed = true;
    outcome.checkpoints_reused = state.phase_digests.len();
    Ok(outcome)
}

/// Shared engine of fresh and resumed runs: recompute phases with per-phase
/// seeded streams (verifying or appending checkpoints through
/// [`JournalHook`]), then stage + commit the release atomically.
#[allow(clippy::too_many_arguments)]
fn drive(
    table: &Table,
    taxonomies: &[Taxonomy],
    fingerprint: &RunFingerprint,
    state: &JournalState,
    writer: &mut JournalWriter,
    out: &Path,
    opts: &RunOptions<'_>,
    telemetry: &Telemetry,
) -> Result<JournaledRun, AcppError> {
    let crash = opts.crash;
    if let Some(token) = opts.cancel {
        token.check("admission")?;
    }
    let mut rngs = SeededPhaseRngs::new(fingerprint.seed);
    let mut hook = JournalHook {
        writer,
        known: state.phase_digests.clone(),
        crash,
        telemetry,
        cancel: opts.cancel,
        fence: opts.fence,
    };
    let threads = opts.threads.resolve();
    let run = Run::new(fingerprint.policy, opts.plan, threads, &mut rngs, &mut hook, telemetry);
    let (published, report) = run_pipeline(table, taxonomies, fingerprint.config, run)?;

    let bytes = published.render(taxonomies).into_bytes();
    let digest = fnv1a(&bytes);
    if let Some((recorded, len)) = state.staged {
        if recorded != digest || len != bytes.len() {
            return Err(AcppError::Journal(format!(
                "resume diverged at the release: staged {} ({len} bytes) vs recomputed {} \
                 ({} bytes)",
                render_digest(recorded),
                render_digest(digest),
                bytes.len()
            )));
        }
    }

    // Is the release already durable at its final path?
    let committed =
        state.done || fs::read(out).map(|b| fnv1a(&b) == digest).unwrap_or(false);
    let io = RetryPolicy::default();
    let commit_span = telemetry.span("journal.commit");
    commit_span.field("bytes", bytes.len());
    commit_span.field("already_committed", committed);
    if committed {
        let _ = fs::remove_file(tmp_path(out));
    } else {
        if crash == Some(CrashPoint::MidReleaseWrite) {
            // A real crash mid-write leaves a torn, unsynced temporary.
            let torn = &bytes[..bytes.len() / 2];
            let _ = fs::write(tmp_path(out), torn);
            return Err(simulated_crash(CrashPoint::MidReleaseWrite));
        }
        let stage_span = telemetry.span("journal.stage");
        stage_file(out, &bytes, &io)?;
        if state.staged.is_none() {
            writer.append(&Record::Staged { digest, len: bytes.len() })?;
        }
        stage_span.end();
        if crash == Some(CrashPoint::AfterStage) {
            return Err(simulated_crash(CrashPoint::AfterStage));
        }
        // Last fence poll before the irreversible rename: a stolen job's
        // former owner stops here instead of publishing over the new
        // owner's run. (The remaining check-to-rename window is closed by
        // lease timing plus byte determinism — see `EpochFence` docs.)
        if let Some(fence) = opts.fence {
            fence.check(&format!("publish `{}`", out.display()))?;
        }
        publish_staged(out, &io)?;
        if crash == Some(CrashPoint::AfterRename) {
            return Err(simulated_crash(CrashPoint::AfterRename));
        }
    }
    if !state.done {
        if let Some(fence) = opts.fence {
            fence.check("append done record")?;
        }
        writer.append(&Record::Done)?;
    }
    commit_span.end();
    Ok(JournaledRun {
        published,
        report,
        release_digest: digest,
        resumed: false,
        checkpoints_reused: 0,
    })
}

/// A journal directory's high-level status, for `acpp resume` diagnostics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JournalStatus {
    /// No journal present.
    Absent,
    /// A run began and did not finish; resume will complete it.
    Interrupted,
    /// The run committed fully.
    Complete,
}

/// Inspects `dir` without modifying it.
pub fn status(dir: &Path) -> JournalStatus {
    if !dir.join(JOURNAL_FILE).exists() {
        return JournalStatus::Absent;
    }
    match read_state(dir) {
        Ok(state) if state.done => JournalStatus::Complete,
        _ => JournalStatus::Interrupted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::{Attribute, Domain, OwnerId, Schema, Value};
    use std::path::PathBuf;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::quasi("B", Domain::indexed(4)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap()
    }

    fn table(n: usize) -> Table {
        let mut t = Table::new(schema());
        for i in 0..n {
            t.push_row(
                OwnerId(i as u32),
                &[
                    Value((i % 8) as u32),
                    Value(((i / 8) % 4) as u32),
                    Value((i % 10) as u32),
                ],
            )
            .unwrap();
        }
        t
    }

    fn taxonomies() -> Vec<Taxonomy> {
        vec![Taxonomy::intervals(8, 2), Taxonomy::intervals(4, 2)]
    }

    fn none() -> RunOptions<'static> {
        RunOptions::default()
    }

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("acpp-journal-tests").join(name);
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn records_round_trip_with_checksums() {
        let fp = RunFingerprint {
            seed: 42,
            config: PgConfig::new(0.3, 4).unwrap(),
            policy: DegradationPolicy::Abort,
            input_digest: 0xDEAD,
            taxonomy_digest: 0xBEEF,
            rows: 500,
        };
        for record in [
            Record::Begin(fp),
            Record::Phase(Phase::Perturb, 0x1234),
            Record::Staged { digest: 0x5678, len: 999 },
            Record::Done,
        ] {
            let line = record.encode_line();
            let back = Record::decode_line(line.trim_end()).unwrap();
            assert_eq!(back, record);
        }
        // A flipped byte fails the checksum.
        let line = Record::Done.encode_line();
        let torn = line.trim_end().replace("done", "dome");
        assert_eq!(Record::decode_line(&torn), None);
    }

    #[test]
    fn fingerprint_encodes_exact_p_bits() {
        let fp = RunFingerprint {
            seed: 7,
            config: PgConfig::new(0.1 + 0.2, 3).unwrap(), // not exactly representable
            policy: DegradationPolicy::SkipAndReport,
            input_digest: 1,
            taxonomy_digest: 2,
            rows: 3,
        };
        let back = RunFingerprint::decode(&fp.encode()).unwrap();
        assert_eq!(back, fp);
        assert_eq!(back.config.p.to_bits(), fp.config.p.to_bits());
    }

    #[test]
    fn fingerprint_digests_are_pinned() {
        // A label that needs quoting keeps the writer's quoted path covered.
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::nominal(["a", "b,\"c\"", "d\ne"])),
            Attribute::quasi("B", Domain::indexed(4)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..300u32 {
            t.push_row(OwnerId(i * 7919), &[Value(i % 3), Value(i / 3 % 4), Value(i % 10)])
                .unwrap();
        }
        let taxes = vec![Taxonomy::intervals(3, 2), Taxonomy::intervals(4, 2)];
        let config = PgConfig::new(0.3, 4).unwrap();
        let fp = RunFingerprint::compute(&t, &taxes, config, DegradationPolicy::Abort, 11);
        let pinned = (0x75f2_3d23_29bf_9050, 0xebb2_450c_e95e_57dd);
        assert_eq!((fp.input_digest, fp.taxonomy_digest), pinned);
    }

    #[test]
    fn journaled_run_matches_deterministic_run() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let dir = tmpdir("clean");
        let out = dir.join("dstar.csv");
        let run = publish_journaled(
            &t, &taxes, cfg, DegradationPolicy::Abort, 7, &dir, &out, &RunOptions::default(),
        )
        .unwrap();
        let (baseline, _) =
            publish_deterministic(&t, &taxes, cfg, DegradationPolicy::Abort, 7).unwrap();
        assert_eq!(run.published, baseline);
        let on_disk = fs::read(&out).unwrap();
        assert_eq!(fnv1a(&on_disk), run.release_digest);
        assert_eq!(on_disk, baseline.render(&taxes).into_bytes());
        assert_eq!(status(&dir), JournalStatus::Complete);
    }

    #[test]
    fn per_phase_streams_differ_from_single_stream() {
        // The journaled contract is a different (but fixed) determinism
        // domain than the single-stream entry points.
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let a = publish_deterministic(&t, &taxes, cfg, DegradationPolicy::Abort, 7).unwrap().0;
        let b = publish_deterministic(&t, &taxes, cfg, DegradationPolicy::Abort, 7).unwrap().0;
        assert_eq!(a, b, "deterministic under the seed");
        let c = publish_deterministic(&t, &taxes, cfg, DegradationPolicy::Abort, 8).unwrap().0;
        assert_ne!(a, c, "seed matters");
    }

    #[test]
    fn second_publish_into_same_dir_is_refused() {
        let t = table(120);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let dir = tmpdir("refuse");
        let out = dir.join("dstar.csv");
        let policy = DegradationPolicy::Abort;
        let run = || publish_journaled(&t, &taxes, cfg, policy, 1, &dir, &out, &none());
        run().unwrap();
        let err = run().unwrap_err();
        assert!(matches!(err, AcppError::Journal(_)));
        assert_eq!(err.exit_code(), 10);
    }

    #[test]
    fn resume_refuses_mismatched_inputs() {
        let t = table(120);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let dir = tmpdir("mismatch");
        let out = dir.join("dstar.csv");
        let err = publish_journaled(
            &t, &taxes, cfg, DegradationPolicy::Abort, 1, &dir, &out,
            &RunOptions { crash: Some(CrashPoint::AfterPerturb), ..RunOptions::default() },
        )
        .unwrap_err();
        assert!(err.to_string().contains("simulated crash"));
        // Different seed => different fingerprint.
        let err = resume(&t, &taxes, cfg, DegradationPolicy::Abort, 2, &dir, &out, &none())
            .unwrap_err();
        assert!(err.to_string().contains("fingerprint"));
        // Mutated input => different fingerprint.
        let mut t2 = t.clone();
        t2.set_sensitive_value(0, Value(9));
        let err = resume(&t2, &taxes, cfg, DegradationPolicy::Abort, 1, &dir, &out, &none())
            .unwrap_err();
        assert!(err.to_string().contains("fingerprint"));
    }

    #[test]
    fn resume_of_complete_run_is_idempotent() {
        let t = table(160);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let dir = tmpdir("idempotent");
        let out = dir.join("dstar.csv");
        let first =
            publish_journaled(&t, &taxes, cfg, DegradationPolicy::Abort, 3, &dir, &out, &none())
                .unwrap();
        let bytes = fs::read(&out).unwrap();
        let again =
            resume(&t, &taxes, cfg, DegradationPolicy::Abort, 3, &dir, &out, &none()).unwrap();
        assert!(again.resumed);
        assert_eq!(again.published, first.published);
        assert_eq!(fs::read(&out).unwrap(), bytes);
        assert_eq!(status(&dir), JournalStatus::Complete);
    }

    #[test]
    fn status_reflects_journal_lifecycle() {
        let dir = tmpdir("status");
        assert_eq!(status(&dir), JournalStatus::Absent);
        let t = table(120);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let out = dir.join("dstar.csv");
        let _ = publish_journaled(
            &t, &taxes, cfg, DegradationPolicy::Abort, 1, &dir, &out,
            &RunOptions { crash: Some(CrashPoint::AfterSample), ..RunOptions::default() },
        );
        assert_eq!(status(&dir), JournalStatus::Interrupted);
        resume(&t, &taxes, cfg, DegradationPolicy::Abort, 1, &dir, &out, &none()).unwrap();
        assert_eq!(status(&dir), JournalStatus::Complete);
    }

    #[test]
    fn cancelled_run_checkpoints_and_resumes_byte_identically() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let dir = tmpdir("cancelled");
        let out = dir.join("dstar.csv");
        // Pre-cancelled token: the run stops at the first boundary poll,
        // with the ingest checkpoint already durable.
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let opts = RunOptions {
            threads: Threads::Fixed(1),
            cancel: Some(&token),
            ..RunOptions::default()
        };
        let err = publish_journaled(
            &t, &taxes, cfg, DegradationPolicy::Abort, 5, &dir, &out, &opts,
        )
        .unwrap_err();
        assert!(matches!(err, AcppError::Service(_)), "{err}");
        assert_eq!(status(&dir), JournalStatus::Interrupted);
        assert!(!out.exists(), "nothing published on cancellation");
        // The interrupted journal resumes to exactly the fault-free bytes.
        let run =
            resume(&t, &taxes, cfg, DegradationPolicy::Abort, 5, &dir, &out, &none()).unwrap();
        assert!(run.resumed);
        let (baseline, _) =
            publish_deterministic(&t, &taxes, cfg, DegradationPolicy::Abort, 5).unwrap();
        assert_eq!(run.published, baseline);
        assert_eq!(fs::read(&out).unwrap(), baseline.render(&taxes).into_bytes());
    }

    #[test]
    fn journaled_fault_plan_is_resumable_with_the_same_plan() {
        use crate::fault::FaultKind;
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let plan = FaultPlan::new(9).with(FaultKind::MalformedRow);
        // Baseline: the skip-and-report release under this plan, journaled
        // start to finish.
        let dir_a = tmpdir("plan-clean");
        let out_a = dir_a.join("dstar.csv");
        let opts = RunOptions {
            threads: Threads::Fixed(1),
            plan: Some(&plan),
            ..RunOptions::default()
        };
        publish_journaled(
            &t, &taxes, cfg, DegradationPolicy::SkipAndReport, 5, &dir_a, &out_a, &opts,
        )
        .unwrap();
        // Crash mid-run, then resume with the same plan: same bytes.
        let dir_b = tmpdir("plan-crash");
        let out_b = dir_b.join("dstar.csv");
        let crash_opts = RunOptions {
            threads: Threads::Fixed(1),
            plan: Some(&plan),
            crash: Some(CrashPoint::AfterGeneralize),
            ..RunOptions::default()
        };
        publish_journaled(
            &t, &taxes, cfg, DegradationPolicy::SkipAndReport, 5, &dir_b, &out_b, &crash_opts,
        )
        .unwrap_err();
        let resumed = resume(
            &t, &taxes, cfg, DegradationPolicy::SkipAndReport, 5, &dir_b, &out_b, &opts,
        )
        .unwrap();
        assert!(resumed.checkpoints_reused >= 1);
        assert_eq!(fs::read(&out_a).unwrap(), fs::read(&out_b).unwrap());
        // Resuming with a *different* plan is refused at a checkpoint.
        let dir_c = tmpdir("plan-mismatch");
        let out_c = dir_c.join("dstar.csv");
        publish_journaled(
            &t, &taxes, cfg, DegradationPolicy::SkipAndReport, 5, &dir_c, &out_c, &crash_opts,
        )
        .unwrap_err();
        let bare = RunOptions { threads: Threads::Fixed(1), ..RunOptions::default() };
        let err = resume(
            &t, &taxes, cfg, DegradationPolicy::SkipAndReport, 5, &dir_c, &out_c, &bare,
        )
        .unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
    }

    #[test]
    fn crash_point_parse_round_trips() {
        for point in CrashPoint::ALL {
            assert_eq!(CrashPoint::parse(&point.to_string()), Some(point));
        }
        assert_eq!(CrashPoint::parse("never"), None);
    }
}
