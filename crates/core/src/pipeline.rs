//! The three-phase PG publication algorithm (Section IV of the paper).
//!
//! [`run_pipeline`] is the only code that sequences Phases 1–3, behind the
//! per-phase defenses of [`crate::fault`]. The six entry points — [`publish`],
//! [`publish_robust_observed`], `publish_with_trace` (`trace` feature), and
//! the journal's [`publish_deterministic`](crate::journal::publish_deterministic),
//! [`publish_journaled`](crate::journal::publish_journaled) and
//! [`resume`](crate::journal::resume) — are thin calls into it that pick the
//! RNG contract, the boundary hook, the fault plan and the thread count. So
//! the body the profiler attributes and the conformance audit attacks is the
//! body every user runs.
//!
//! # Randomness model
//!
//! Each random phase draws **one master value** from its phase stream up
//! front (perturbation first, sampling at Phase 3 entry) and derives all
//! per-unit randomness from counter-based substreams keyed on that master:
//! `(master, "perturb", chunk)` for Phase 1 chunks, `(master, "sample",
//! group)` for Phase 3 draws. A single caller stream therefore advances by
//! exactly two `u64`s per run, and the published output is a pure function
//! of `(table, taxonomies, config, plan, those two masters)` — independent
//! of chunk scheduling and of [`Threads`], which is what makes the parallel
//! engine byte-identical to the sequential path.

use crate::config::{Phase2Algorithm, PgConfig};
use crate::error::AcppError;
use crate::fault::{
    inject_degenerate_group, inject_ingest, note_injection, out_of_domain_rows,
    DegradationPolicy, FaultKind, FaultPlan, Phase, PipelineReport,
};
use crate::par::{self, Threads};
use crate::published::{PublishedTable, PublishedTuple};
use crate::validate::validate_run;
use acpp_data::{substream_seed, Table, Taxonomy, Value};
use acpp_generalize::incognito::{self, LatticeOptions};
use acpp_generalize::mondrian::{self, MondrianConfig};
use acpp_generalize::scheme::{check_taxonomies, group_from_box_assignment};
use acpp_generalize::tds::{self, TdsOptions};
use acpp_generalize::{GroupId, Grouping, Recoding, Signature};
use acpp_obs::{metrics, FieldValue, Telemetry};
use acpp_perturb::Channel;
use acpp_sample::{keyed_pick, SAMPLE_DOMAIN};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::borrow::Cow;

/// Substream domain label for row-keyed redraws of out-of-domain perturbed
/// values under [`DegradationPolicy::SkipAndReport`]. Keyed by *row*, not by
/// arrival order, so the redraw is identical at every thread count.
const PERTURB_REDRAW_DOMAIN: &str = "perturb_redraw";

/// Intermediate artifacts of a publication run, exposed for experiments,
/// examples, and tests. **Never release a trace** — it contains `D^p`
/// (per-tuple perturbed values before sampling) and the group membership of
/// every microdata row.
///
/// Gated behind the `trace` feature (and unit tests) so that release
/// builds of the pipeline *cannot* retain `D^p`: the type does not exist
/// in them.
#[cfg(any(test, feature = "trace"))]
#[derive(Debug, Clone)]
pub struct PgTrace {
    /// `D^p` — the microdata after Phase 1.
    pub perturbed: Table,
    /// The Phase-2 recoding.
    pub recoding: Recoding,
    /// QI-groups of `D^g` (row indices into the microdata).
    pub grouping: Grouping,
    /// Per-group signatures, indexed by group id.
    pub signatures: Vec<Signature>,
    /// The microdata row sampled from each group, indexed by group id.
    pub sampled_rows: Vec<usize>,
}

/// Runs Phases 1–3 on one thread and returns the publishable `D*`.
///
/// ```
/// use acpp_core::{publish, PgConfig};
/// use acpp_data::sal::{self, SalConfig};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let table = sal::generate(SalConfig { rows: 500, seed: 1 });
/// let taxonomies = sal::qi_taxonomies();
/// let config = PgConfig::new(0.3, 5)?;          // p = 0.3, k = 5
/// let mut rng = StdRng::seed_from_u64(42);
/// let dstar = publish(&table, &taxonomies, config, &mut rng)?;
/// assert!(dstar.len() <= table.len() / 5);      // Cardinality constraint
/// # Ok::<(), acpp_core::AcppError>(())
/// ```
///
/// # Errors
/// As [`publish_robust_observed`] under [`DegradationPolicy::Abort`].
pub fn publish<R: Rng + ?Sized>(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    rng: &mut R,
) -> Result<PublishedTable, AcppError> {
    let telemetry = Telemetry::disabled();
    publish_robust_observed(
        table,
        taxonomies,
        config,
        DegradationPolicy::Abort,
        None,
        Threads::Fixed(1),
        rng,
        &telemetry,
    )
    .map(|(published, _)| published)
}

/// Runs Phases 1–3 behind per-phase defenses, optionally injecting the
/// faults of `plan`, and returns the release with its audit report.
///
/// Phase work is sharded over `threads` workers. Output — including every
/// fault-injection and skip-and-report decision — is byte-identical for
/// every `threads` value: faults are keyed to logical unit ids (rows, group
/// ids), never to arrival order. The run is wrapped in a `pipeline.publish`
/// span with one child span per phase, and the global metrics registry is
/// updated with run/row/fault counters; with [`Telemetry::disabled`] the
/// span machinery costs a branch per call site and nothing else.
///
/// # Errors
/// * [`AcppError::Validation`] — the inputs fail the pre-flight gate;
/// * [`AcppError::Fault`] — a defense tripped under
///   [`DegradationPolicy::Abort`], or a non-skippable fault (inconsistent
///   taxonomy) was detected under either policy;
/// * any other variant — the underlying phase failed with its own typed
///   error (e.g. an unsatisfiable `k`).
///
/// On any `Err`, nothing is published.
#[allow(clippy::too_many_arguments)]
pub fn publish_robust_observed<R: Rng + ?Sized>(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    policy: DegradationPolicy,
    plan: Option<&FaultPlan>,
    threads: Threads,
    rng: &mut R,
    telemetry: &Telemetry,
) -> Result<(PublishedTable, PipelineReport), AcppError> {
    let (mut rngs, mut hook) = (SingleRng(rng), NoHook);
    let run = Run::new(policy, plan, threads.resolve(), &mut rngs, &mut hook, telemetry);
    run_pipeline(table, taxonomies, config, run)
}

/// Runs Phases 1–3 like [`publish`] on `threads` workers, additionally
/// returning the intermediate artifacts. Feature-gated like [`PgTrace`];
/// see its privacy warning.
///
/// The release is byte-identical to [`publish`]'s under the same seed, at
/// every thread count. A traced run never ships, so its input gate admits
/// the degenerate channel `p = 0`, which experiments sweep on purpose.
#[cfg(any(test, feature = "trace"))]
pub fn publish_with_trace<R: Rng + ?Sized>(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    threads: Threads,
    rng: &mut R,
) -> Result<(PublishedTable, PgTrace), AcppError> {
    let telemetry = Telemetry::disabled();
    let (mut rngs, mut hook) = (SingleRng(rng), NoHook);
    let mut trace = None;
    let abort = DegradationPolicy::Abort;
    let mut run = Run::new(abort, None, threads.resolve(), &mut rngs, &mut hook, &telemetry);
    run.capture = Some(&mut trace);
    let (published, _) = run_pipeline(table, taxonomies, config, run)?;
    let trace = trace.ok_or_else(|| {
        AcppError::Core(crate::CoreError::PostconditionViolated("traced run kept no trace".into()))
    })?;
    Ok((published, trace))
}

/// Supplies the RNG stream each pipeline phase draws from.
///
/// The single-stream contract threads **one** caller stream through all
/// phases ([`SingleRng`]); the journaled pipeline derives an
/// **independent** stream per phase from the run seed
/// ([`SeededPhaseRngs`]), so a resumed run can regenerate any phase's draws
/// without replaying the draws of the phases before it.
pub(crate) trait PhaseRngs {
    /// The stream for `phase`. Called once per phase, at its start.
    fn rng(&mut self, phase: Phase) -> &mut dyn rand::RngCore;
}

/// One caller-supplied stream shared by every phase.
pub(crate) struct SingleRng<'a, R: Rng + ?Sized>(pub &'a mut R);

impl<R: Rng + ?Sized> PhaseRngs for SingleRng<'_, R> {
    fn rng(&mut self, _phase: Phase) -> &mut dyn rand::RngCore {
        &mut self.0
    }
}

/// Mixes a run seed with a phase tag into that phase's stream seed.
fn phase_stream_seed(seed: u64, phase: Phase) -> u64 {
    seed ^ (phase.tag() << 48) ^ 0xACC9_07C4_5AFE_u64
}

/// Independent per-phase streams derived from one run seed — the RNG
/// contract of the write-ahead journal ([`crate::journal`]). Stream
/// `phase` is `StdRng::seed_from_u64(phase_stream_seed(seed, phase))`.
pub(crate) struct SeededPhaseRngs {
    seed: u64,
    current: StdRng,
}

impl SeededPhaseRngs {
    /// Streams for the run seeded with `seed`.
    pub(crate) fn new(seed: u64) -> Self {
        SeededPhaseRngs { seed, current: StdRng::seed_from_u64(seed) }
    }
}

impl PhaseRngs for SeededPhaseRngs {
    fn rng(&mut self, phase: Phase) -> &mut dyn rand::RngCore {
        self.current = StdRng::seed_from_u64(phase_stream_seed(self.seed, phase));
        &mut self.current
    }
}

/// Observes phase boundaries of a pipeline run.
///
/// `digest` computes the phase's artifact digest lazily — the no-op hook
/// never pays for it. Returning `Err` aborts the run; the journal uses this
/// both to persist checkpoints and to inject simulated crashes.
pub(crate) trait BoundaryHook {
    /// Called when `phase` completes.
    fn boundary(
        &mut self,
        phase: Phase,
        digest: &mut dyn FnMut() -> u64,
    ) -> Result<(), AcppError>;
}

/// The hook used by unjournaled runs: observes nothing.
pub(crate) struct NoHook;

impl BoundaryHook for NoHook {
    fn boundary(
        &mut self,
        _phase: Phase,
        _digest: &mut dyn FnMut() -> u64,
    ) -> Result<(), AcppError> {
        Ok(())
    }
}

/// How one run of [`run_pipeline`] is driven: the defenses' policy and
/// fault plan, the worker count, the RNG contract, the boundary observer
/// and the telemetry handle.
pub(crate) struct Run<'a> {
    policy: DegradationPolicy,
    plan: Option<&'a FaultPlan>,
    threads: usize,
    rngs: &'a mut dyn PhaseRngs,
    hook: &'a mut dyn BoundaryHook,
    telemetry: &'a Telemetry,
    /// Filled with the run's intermediate artifacts when set. Only trace
    /// builds have the field, so no release build can hold `D^p`.
    #[cfg(any(test, feature = "trace"))]
    capture: Option<&'a mut Option<PgTrace>>,
}

impl<'a> Run<'a> {
    pub(crate) fn new(
        policy: DegradationPolicy,
        plan: Option<&'a FaultPlan>,
        threads: usize,
        rngs: &'a mut dyn PhaseRngs,
        hook: &'a mut dyn BoundaryHook,
        telemetry: &'a Telemetry,
    ) -> Self {
        Run {
            policy, plan, threads, rngs, hook, telemetry,
            #[cfg(any(test, feature = "trace"))]
            capture: None,
        }
    }

    /// Whether the run keeps a [`PgTrace`].
    fn traced(&self) -> bool {
        #[cfg(any(test, feature = "trace"))]
        return self.capture.is_some();
        #[cfg(not(any(test, feature = "trace")))]
        false
    }
}

/// Checkpoint digest of a table: FNV-1a over its owner-tagged CSV form,
/// streamed into the hasher rather than built first.
pub(crate) fn digest_table(table: &Table) -> u64 {
    let mut hasher = acpp_data::digest::Fnv1a::new();
    match acpp_data::csv::write_table(table, &mut hasher, true) {
        Ok(()) => hasher.finish(),
        Err(_) => 0,
    }
}

/// Checkpoint digest of the Phase-1 artifact: the perturbed sensitive code
/// column (QI columns are untouched by Phase 1 and already covered by the
/// ingest digest).
fn digest_codes(codes: &[u32]) -> u64 {
    let mut bytes = Vec::with_capacity(4 * codes.len());
    for c in codes {
        bytes.extend_from_slice(&c.to_le_bytes());
    }
    acpp_data::fnv1a(&bytes)
}

/// Checkpoint digest of a Phase-2 artifact: the group memberships and the
/// per-group signatures (stable within one binary; the journal only ever
/// compares digests produced by the same build).
fn digest_grouping(grouping: &Grouping, signatures: &[Signature]) -> u64 {
    let members: Vec<(u32, Vec<usize>)> =
        grouping.iter_nonempty().map(|(g, m)| (g.0, m.to_vec())).collect();
    acpp_data::fnv1a(format!("{members:?}|{signatures:?}").as_bytes())
}

/// Checkpoint digest of the Phase-3 sample.
fn digest_tuples(tuples: &[PublishedTuple]) -> u64 {
    acpp_data::fnv1a(format!("{tuples:?}").as_bytes())
}

/// Emits a `phase.progress` event: `done` of `total` work units handled
/// (rows for ingest/perturbation, rows scanned for generalization,
/// groups for sampling) and whether the phase's checkpoint boundary has
/// been crossed. Live trace consumers (`GET /jobs/<id>/trace?follow=1`)
/// rely on at least one of these per phase; each phase emits one on
/// entry and one after its boundary digest.
fn note_progress(telemetry: &Telemetry, phase: Phase, done: usize, total: usize, checkpoint: bool) {
    telemetry.event(
        "phase.progress",
        &[
            ("phase", FieldValue::Label(phase.label())),
            ("units_done", FieldValue::Count(done as u64)),
            ("units_total", FieldValue::Count(total as u64)),
            ("checkpoint", FieldValue::Flag(checkpoint)),
        ],
    );
}

/// Records that a defense at `phase` detected `units` faulty units: bumps
/// the detected-fault counter and emits a `fault.detected` event. Under
/// [`DegradationPolicy::Abort`] the detection is the run's error; under
/// [`DegradationPolicy::SkipAndReport`] the caller degrades and accounts.
fn detect(
    telemetry: &Telemetry,
    policy: DegradationPolicy,
    phase: Phase,
    units: usize,
    detail: impl FnOnce() -> String,
) -> Result<(), AcppError> {
    let label = phase.label();
    metrics().counter_add_labeled("acpp_faults_detected_total", "phase", label, units as u64);
    telemetry.event(
        "fault.detected",
        &[
            ("phase", FieldValue::Label(label)),
            ("units", FieldValue::Count(units as u64)),
        ],
    );
    match policy {
        DegradationPolicy::Abort => Err(AcppError::Fault { phase, detail: detail() }),
        DegradationPolicy::SkipAndReport => Ok(()),
    }
}

/// The pipeline body: Phases 1–3 behind per-phase defenses, parameterized
/// by [`Run`]. Every entry point of the crate lands here.
pub(crate) fn run_pipeline(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    run: Run<'_>,
) -> Result<(PublishedTable, PipelineReport), AcppError> {
    let (policy, plan, threads, telemetry) = (run.policy, run.plan, run.threads, run.telemetry);
    // The root span carries only aggregates and public release metadata
    // (`p` and `k` are published alongside `D*` by the paper's protocol).
    let root = telemetry.span("pipeline.publish");
    root.field("rows", table.len());
    root.field("k", config.k as u64);
    root.field("retention_p", config.p);
    root.field("algorithm", config.algorithm.label());
    root.field("policy", policy.label());
    metrics().counter_add("acpp_pipeline_runs_total", 1);
    metrics().counter_add("acpp_pipeline_rows_total", table.len() as u64);

    let mut report = PipelineReport::new(policy, table.len());

    // ---- Ingest boundary: pre-flight gate, then injection, then scan. The
    // inputs are borrowed; only an injected fault or a dropped row copies
    // them. ----
    let span = telemetry.span(Phase::Ingest.span_name());
    span.field("rows_in", table.len());
    note_progress(telemetry, Phase::Ingest, 0, table.len(), false);
    validate_run(table, taxonomies, &config, run.traced())?;
    let mut working = Cow::Borrowed(table);
    let mut taxes = Cow::Borrowed(taxonomies);
    if let Some(plan) = plan {
        inject_ingest(plan, &mut working, &mut taxes, &mut report);
    }
    if let Err(e) = check_taxonomies(working.schema(), &taxes) {
        // No row-granular unit to skip: atomic failure under either policy.
        let abort = DegradationPolicy::Abort;
        detect(telemetry, abort, Phase::Ingest, 1, || format!("inconsistent taxonomy: {e}"))?;
    }
    let bad_rows = out_of_domain_rows(&working);
    if !bad_rows.is_empty() {
        let n = bad_rows.len();
        detect(telemetry, policy, Phase::Ingest, n, || {
            format!("{n} rows carry out-of-domain values (first at row {})", bad_rows[0])
        })?;
        let keep: Vec<usize> =
            working.rows().filter(|r| bad_rows.binary_search(r).is_err()).collect();
        working = Cow::Owned(working.select_rows(&keep));
        let rep = report.phase_mut(Phase::Ingest);
        rep.rows_dropped += n;
        rep.survived(n, format!("dropped {n} rows with out-of-domain values"));
    }
    run.hook.boundary(Phase::Ingest, &mut || digest_table(&working))?;
    note_progress(telemetry, Phase::Ingest, table.len(), table.len(), true);
    span.field("rows_out", working.len());
    span.field("rows_dropped", report.phase(Phase::Ingest).rows_dropped);
    span.end();

    // ---- Phase 1: perturbation (P1/P2), sharded over fixed-size chunks.
    // One master value is drawn from the phase stream; every chunk (and
    // every row-keyed redraw below) derives its own substream from it, so
    // the perturbed column is identical at every thread count. ----
    let span = telemetry.span(Phase::Perturb.span_name());
    span.field("rows", working.len());
    note_progress(telemetry, Phase::Perturb, 0, working.len(), false);
    let us = working.schema().sensitive_domain_size();
    let channel = Channel::try_uniform(config.p, us)?;
    let perturb_master = run.rngs.rng(Phase::Perturb).next_u64();
    let mut codes = par::perturb_codes_sharded(
        &channel,
        working.sensitive_column(),
        perturb_master,
        threads,
        telemetry,
    );
    if let Some(plan) = plan {
        let picks = plan.pick_units(FaultKind::RngOutOfRange, codes.len());
        report.phase_mut(Phase::Perturb).faults_injected += picks.len();
        note_injection(FaultKind::RngOutOfRange, picks.len());
        for r in picks {
            codes[r] = us + 1;
        }
    }
    let bad_draws: Vec<usize> = (0..codes.len()).filter(|&r| codes[r] >= us).collect();
    if !bad_draws.is_empty() {
        let n = bad_draws.len();
        detect(telemetry, policy, Phase::Perturb, n, || {
            format!("{n} perturbed values fell outside U^s (first at row {})", bad_draws[0])
        })?;
        // Redraw from the channel's marginal, which is in-domain by
        // construction. Each redraw comes from the substream keyed by the
        // faulty row itself.
        for &r in &bad_draws {
            let seed = substream_seed(perturb_master, PERTURB_REDRAW_DOMAIN, r as u64);
            codes[r] = channel.sample_target(&mut StdRng::seed_from_u64(seed)).code();
        }
        let rep = report.phase_mut(Phase::Perturb);
        rep.survived(n, format!("redrew {n} out-of-domain perturbed values"));
    }
    if let Some(plan) = plan.filter(|plan| plan.is_active(FaultKind::SlowIo)) {
        // A latency spike, not a data fault: the release is untouched and
        // the run stays clean. Stalling *before* the boundary means a
        // deadline hook observes the spike at the very next poll.
        let delay = plan.slow_io_delay();
        let rep = report.phase_mut(Phase::Perturb);
        rep.faults_injected += 1;
        rep.notes.push(format!("stalled {} ms (injected slow I/O)", delay.as_millis()));
        note_injection(FaultKind::SlowIo, 1);
        std::thread::sleep(delay);
    }
    run.hook.boundary(Phase::Perturb, &mut || digest_codes(&codes))?;
    note_progress(telemetry, Phase::Perturb, working.len(), working.len(), true);
    span.field("redrawn", report.phase(Phase::Perturb).faults_survived);
    span.end();

    // ---- Phase 2: generalization (G1–G3). QI values are untouched by
    // Phase 1, so the recoding is computed on the ingested table. The span
    // name is the constant the Mondrian pool labels its profiler samples
    // with, so the phase/shard report joins them to this phase. ----
    let span = telemetry.span(mondrian::PROF_PHASE);
    note_progress(telemetry, Phase::Generalize, 0, working.len(), false);
    let (recoding, mut grouping, mut signatures) =
        phase2_group(&working, &taxes, config, threads).map_err(AcppError::Generalize)?;
    if let Some(plan) = plan {
        if plan.is_active(FaultKind::DegenerateGroup) && !working.is_empty() && config.k >= 2 {
            grouping = inject_degenerate_group(&grouping, &mut signatures, working.len());
            report.phase_mut(Phase::Generalize).faults_injected += 1;
            note_injection(FaultKind::DegenerateGroup, 1);
        }
    }
    // In group-id order, so Phase 3 can binary-search it.
    let suppressed: Vec<GroupId> = grouping
        .iter_nonempty()
        .filter(|(_, m)| m.len() < config.k)
        .map(|(g, _)| g)
        .collect();
    if !suppressed.is_empty() {
        let n = suppressed.len();
        detect(telemetry, policy, Phase::Generalize, n, || {
            let min = grouping.min_size();
            format!("{n} QI-groups smaller than k = {} (min size {min:?})", config.k)
        })?;
        let dropped: usize = suppressed.iter().map(|&g| grouping.members(g).len()).sum();
        let rep = report.phase_mut(Phase::Generalize);
        rep.groups_suppressed += n;
        rep.rows_dropped += dropped;
        rep.survived(n, format!("suppressed {n} undersized groups ({dropped} rows)"));
    }
    run.hook.boundary(Phase::Generalize, &mut || digest_grouping(&grouping, &signatures))?;
    note_progress(telemetry, Phase::Generalize, working.len(), working.len(), true);
    span.field("groups", grouping.group_count());
    span.field("groups_suppressed", report.phase(Phase::Generalize).groups_suppressed);
    span.end();

    // ---- Phase 3: stratified sampling (S1–S4), sharded over chunks of
    // groups. One master value from the phase stream; each group's draw
    // comes from the substream keyed by its group id, and so do the
    // injected out-of-range draws, the clamp and the abort check, so the
    // sample is independent of traversal order and thread count. `D^p`
    // (the perturbed code column) is consumed here and dropped with this
    // frame; only a trace build can keep it past the release. ----
    let span = telemetry.span(Phase::Sample.span_name());
    note_progress(telemetry, Phase::Sample, 0, grouping.group_count(), false);
    let sample_master = run.rngs.rng(Phase::Sample).next_u64();
    let broken_draws = plan
        .map(|p| p.pick_units(FaultKind::SampleIndexOutOfRange, grouping.group_count()))
        .unwrap_or_default();
    report.phase_mut(Phase::Sample).faults_injected += broken_draws.len();
    note_injection(FaultKind::SampleIndexOutOfRange, broken_draws.len());
    let groups: Vec<(GroupId, &[usize])> = grouping
        .iter_nonempty()
        .filter(|(g, _)| suppressed.binary_search(g).is_err())
        .collect();
    // One published tuple materialized per group unit.
    let tuple_bytes = std::mem::size_of::<PublishedTuple>() as u64;
    let (label, n) = (Phase::Sample.span_name(), groups.len());
    let parts = par::map_chunks_prof(label, tuple_bytes, n, threads, telemetry, |_, range| {
        let mut out = Sampled::default();
        for &(gid, members) in &groups[range] {
            let (key, size) = (gid.index() as u64, members.len());
            let mut pick = keyed_pick(sample_master, SAMPLE_DOMAIN, key, size).unwrap_or(0);
            if broken_draws.binary_search(&gid.index()).is_ok() {
                // The injected sampler asks for a member beyond the group.
                pick = size + 1;
            }
            if pick >= size {
                out.faults.push((gid, pick, size));
                if policy == DegradationPolicy::Abort {
                    continue;
                }
                pick %= size;
            }
            out.rows.push(members[pick]);
            out.tuples.push(PublishedTuple {
                signature: signatures[gid.index()].clone(),
                sensitive: Value(codes[members[pick]]),
                group_size: size,
            });
        }
        out
    });
    let mut sampled = Sampled::default();
    for part in parts {
        sampled.tuples.extend(part.tuples);
        sampled.rows.extend(part.rows);
        sampled.faults.extend(part.faults);
    }
    // Faults are judged after the map, in group-id order, so the report and
    // the error are the same at every thread count.
    for &(gid, pick, size) in &sampled.faults {
        let g = gid.index();
        detect(telemetry, policy, Phase::Sample, 1, || {
            format!("sampler requested member {pick} of group {g} ({size} members)")
        })?;
        let rep = report.phase_mut(Phase::Sample);
        rep.survived(1, format!("clamped an out-of-range draw in group {g}"));
    }
    let tuples = sampled.tuples;

    // Cardinality postcondition against the *original* table size.
    if !table.is_empty() && tuples.len() > table.len() / config.k {
        return Err(AcppError::Fault {
            phase: Phase::Sample,
            detail: format!(
                "published {} tuples from {} rows with k = {}",
                tuples.len(),
                table.len(),
                config.k
            ),
        });
    }
    run.hook.boundary(Phase::Sample, &mut || digest_tuples(&tuples))?;
    note_progress(telemetry, Phase::Sample, grouping.group_count(), grouping.group_count(), true);
    span.field("tuples", tuples.len());
    span.end();

    report.published_rows = tuples.len();
    metrics().counter_add("acpp_pipeline_tuples_published_total", tuples.len() as u64);
    metrics().counter_add("acpp_pipeline_rows_dropped_total", report.total_rows_dropped() as u64);
    root.field("published", tuples.len());
    root.field("rows_dropped", report.total_rows_dropped());
    root.field("clean", report.is_clean());
    let schema = working.schema().clone();
    #[cfg(any(test, feature = "trace"))]
    if let Some(slot) = run.capture {
        let mut perturbed = working.into_owned();
        perturbed
            .set_sensitive_column(&codes)
            .map_err(|e| crate::CoreError::PostconditionViolated(e.to_string()))?;
        *slot = Some(PgTrace {
            perturbed,
            recoding: recoding.clone(),
            grouping,
            signatures,
            sampled_rows: sampled.rows,
        });
    }
    let published = PublishedTable::new(schema, recoding, tuples, config.p, config.k);
    Ok((published, report))
}

/// Phase 3's output, in group-id order.
#[derive(Default)]
struct Sampled {
    tuples: Vec<PublishedTuple>,
    /// The microdata row each tuple was drawn from.
    rows: Vec<usize>,
    /// Out-of-range draws: group, requested member index, group size.
    faults: Vec<(GroupId, usize, usize)>,
}

/// The Phase-2 recoding *and grouping* for `table` under
/// `config.algorithm`. Mondrian recursion is task-parallel over `workers`
/// threads (byte-identical for every count) and emits each row's leaf box
/// as a build by-product, so its grouping costs one streaming pass instead
/// of a per-row tree walk; TDS and full-domain search run sequentially and
/// group through the generic signature path.
fn phase2_group(
    table: &Table,
    taxonomies: &[Taxonomy],
    config: PgConfig,
    workers: usize,
) -> Result<(Recoding, Grouping, Vec<Signature>), acpp_generalize::GeneralizeError> {
    if config.algorithm == Phase2Algorithm::Mondrian && !table.is_empty() {
        let (tree, _) = mondrian::partition(
            table,
            table.schema(),
            MondrianConfig::new(config.k).with_threads(workers),
        )?;
        let (grouping, signatures) =
            group_from_box_assignment(tree.assignment(), tree.len(), workers);
        return Ok((tree.into_recoding(), grouping, signatures));
    }
    let recoding = match config.algorithm {
        // Degenerate: an empty table publishes nothing.
        Phase2Algorithm::Mondrian => Recoding::total(taxonomies),
        Phase2Algorithm::Tds => tds::generalize(table, taxonomies, TdsOptions::new(config.k))?,
        Phase2Algorithm::FullDomain => {
            if table.is_empty() {
                Recoding::total(taxonomies)
            } else {
                incognito::full_domain(table, taxonomies, LatticeOptions::new(config.k))?.0
            }
        }
    };
    let (grouping, signatures) = recoding.group(table, taxonomies);
    Ok((recoding, grouping, signatures))
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::{Attribute, Domain, OwnerId, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::quasi("B", Domain::indexed(4)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap()
    }

    fn taxonomies() -> Vec<Taxonomy> {
        vec![Taxonomy::intervals(8, 2), Taxonomy::intervals(4, 2)]
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

    fn publish_on(
        t: &Table,
        taxes: &[Taxonomy],
        cfg: PgConfig,
        threads: Threads,
        rng: &mut StdRng,
    ) -> Result<PublishedTable, AcppError> {
        let (abort, none) = (DegradationPolicy::Abort, Telemetry::disabled());
        publish_robust_observed(t, taxes, cfg, abort, None, threads, rng, &none).map(|r| r.0)
    }

    #[test]
    fn publication_satisfies_cardinality_and_g() {
        let t = table(200);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(1);
        for k in [2usize, 4, 6] {
            let cfg = PgConfig::new(0.3, k).unwrap();
            let (dstar, trace) =
                publish_with_trace(&t, &taxes, cfg, Threads::Auto, &mut rng).unwrap();
            assert!(dstar.len() <= t.len() / k, "cardinality bound");
            assert!(!dstar.is_empty());
            // Every tuple's G is the true group size and is >= k.
            for (i, tup) in dstar.tuples().iter().enumerate() {
                assert!(tup.group_size >= k);
                let gid = acpp_generalize::GroupId(i as u32);
                assert_eq!(tup.group_size, trace.grouping.members(gid).len());
            }
        }
    }

    #[test]
    fn sampled_sensitive_values_come_from_dp() {
        let t = table(100);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(2);
        let cfg = PgConfig::new(0.5, 2).unwrap();
        let (dstar, trace) =
            publish_with_trace(&t, &taxes, cfg, Threads::Auto, &mut rng).unwrap();
        for (i, tup) in dstar.tuples().iter().enumerate() {
            let row = trace.sampled_rows[i];
            assert_eq!(tup.sensitive, trace.perturbed.sensitive_value(row));
            // The sampled row belongs to the tuple's group.
            let gid = trace.grouping.group_of(row);
            assert_eq!(trace.signatures[gid.index()], tup.signature);
        }
    }

    #[test]
    fn p_one_with_identity_grouping_recovers_exact_values() {
        // p=1 (no perturbation) and k=1: every tuple published exactly.
        let t = table(50);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = PgConfig::new(1.0, 1).unwrap();
        let (dstar, trace) =
            publish_with_trace(&t, &taxes, cfg, Threads::Auto, &mut rng).unwrap();
        assert_eq!(trace.perturbed, t, "p = 1 is the identity channel");
        for (i, tup) in dstar.tuples().iter().enumerate() {
            assert_eq!(tup.sensitive, t.sensitive_value(trace.sampled_rows[i]));
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let t = table(100);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 3).unwrap();
        let a = publish(&t, &taxes, cfg, &mut StdRng::seed_from_u64(7)).unwrap();
        let b = publish(&t, &taxes, cfg, &mut StdRng::seed_from_u64(7)).unwrap();
        let c = publish(&t, &taxes, cfg, &mut StdRng::seed_from_u64(8)).unwrap();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn all_algorithms_produce_valid_releases() {
        let t = table(96);
        let taxes = taxonomies();
        for alg in [Phase2Algorithm::Mondrian, Phase2Algorithm::Tds, Phase2Algorithm::FullDomain] {
            let mut rng = StdRng::seed_from_u64(4);
            let cfg = PgConfig::new(0.3, 3).unwrap().with_algorithm(alg);
            let (dstar, trace) =
                publish_with_trace(&t, &taxes, cfg, Threads::Auto, &mut rng).unwrap();
            assert!(acpp_generalize::principles::is_k_anonymous(&trace.grouping, 3));
            assert!(dstar.len() <= t.len() / 3, "{alg:?}");
            // Crucial-tuple lookup works for every microdata row.
            for row in t.rows() {
                let qi = t.qi_vector(row);
                assert!(dstar.crucial_tuple(&taxes, &qi).is_some(), "{alg:?} row {row}");
            }
        }
    }

    #[test]
    fn threaded_publish_is_byte_identical_across_thread_counts() {
        let t = table(10_000); // > 2 chunks, so Phase 1 really shards
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let seq =
            publish_on(&t, &taxes, cfg, Threads::Fixed(1), &mut StdRng::seed_from_u64(11))
                .unwrap();
        for n in [2usize, 3, 8] {
            let par = publish_on(
                &t,
                &taxes,
                cfg,
                Threads::Fixed(n),
                &mut StdRng::seed_from_u64(11),
            )
            .unwrap();
            assert_eq!(seq, par, "threads={n}");
        }
        let auto =
            publish_on(&t, &taxes, cfg, Threads::Auto, &mut StdRng::seed_from_u64(11))
                .unwrap();
        assert_eq!(seq, auto);
        // And `publish` is exactly the Fixed(1) path.
        let plain = publish(&t, &taxes, cfg, &mut StdRng::seed_from_u64(11)).unwrap();
        assert_eq!(seq, plain);
    }

    #[test]
    fn traced_publish_agrees_with_plain_publish() {
        let t = table(500);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.4, 3).unwrap();
        let plain = publish(&t, &taxes, cfg, &mut StdRng::seed_from_u64(13)).unwrap();
        let (traced, _) =
            publish_with_trace(&t, &taxes, cfg, Threads::Auto, &mut StdRng::seed_from_u64(13))
                .unwrap();
        assert_eq!(plain, traced);
    }

    #[test]
    fn traced_publish_agrees_with_plain_publish_at_any_thread_count() {
        let t = table(10_000); // big enough that Phase 1 and 2 really shard
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.4, 3).unwrap();
        let plain = publish(&t, &taxes, cfg, &mut StdRng::seed_from_u64(17)).unwrap();
        let mut traces = Vec::new();
        for n in [1usize, 2, 4, 8] {
            let (traced, trace) = publish_with_trace(
                &t,
                &taxes,
                cfg,
                Threads::Fixed(n),
                &mut StdRng::seed_from_u64(17),
            )
            .unwrap();
            assert_eq!(plain, traced, "threads={n}");
            traces.push(trace);
        }
        // The intermediate artifacts agree too, not just the release.
        let first = &traces[0];
        for (n, tr) in traces.iter().enumerate().skip(1) {
            assert_eq!(first.perturbed, tr.perturbed, "trace {n}");
            assert_eq!(first.recoding, tr.recoding, "trace {n}");
            assert_eq!(first.grouping, tr.grouping, "trace {n}");
            assert_eq!(first.signatures, tr.signatures, "trace {n}");
            assert_eq!(first.sampled_rows, tr.sampled_rows, "trace {n}");
        }
    }

    #[test]
    fn unsatisfiable_k_errors() {
        let t = table(4);
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(5);
        let cfg = PgConfig::new(0.3, 10).unwrap();
        assert!(publish(&t, &taxes, cfg, &mut rng).is_err());
    }

    #[test]
    fn empty_table_publishes_nothing() {
        let t = Table::new(schema());
        let taxes = taxonomies();
        let mut rng = StdRng::seed_from_u64(6);
        let cfg = PgConfig::new(0.3, 2).unwrap();
        let dstar = publish(&t, &taxes, cfg, &mut rng).unwrap();
        assert!(dstar.is_empty());
    }

    #[test]
    fn taxonomy_mismatch_rejected() {
        let t = table(20);
        let mut rng = StdRng::seed_from_u64(7);
        let cfg = PgConfig::new(0.3, 2).unwrap();
        let bad = vec![Taxonomy::intervals(8, 2)];
        assert!(matches!(
            publish(&t, &bad, cfg, &mut rng),
            Err(AcppError::Validation(_))
        ));
    }
}
