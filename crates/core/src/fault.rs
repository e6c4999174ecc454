//! Deterministic fault injection for the PG pipeline.
//!
//! The publication pipeline must never panic and never release a partial
//! table, no matter how mangled its inputs are. This module provides the
//! harness that proves it:
//!
//! * [`FaultPlan`] — a seed-deterministic plan of faults to inject at phase
//!   boundaries (malformed rows, out-of-domain values, inconsistent
//!   taxonomies, degenerate QI-groups, misbehaving samplers);
//! * [`DegradationPolicy`] — what the pipeline does when a defense trips:
//!   fail atomically ([`DegradationPolicy::Abort`]) or degrade gracefully
//!   and account for it ([`DegradationPolicy::SkipAndReport`]);
//! * [`PipelineReport`] — the per-phase account of what the defenses saw
//!   and did, returned with every release.
//!
//! The defenses themselves run inside the one pipeline body,
//! [`crate::pipeline`]; this module holds the plan, the reports and the
//! injection helpers the body calls at each boundary. Every fault, injected
//! or organic, ends in exactly one of two ways: a typed [`AcppError`] with
//! nothing published, or a successful release whose report records what was
//! dropped. There is no third outcome.

use acpp_data::{Table, Taxonomy, Value};
use acpp_generalize::{GroupId, Grouping, Signature};
use acpp_obs::metrics;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::borrow::Cow;
use std::fmt;

/// A phase boundary of the PG pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Input ingestion and validation (before Phase 1).
    Ingest,
    /// Phase 1 — perturbation of the sensitive attribute.
    Perturb,
    /// Phase 2 — QI generalization into k-anonymous groups.
    Generalize,
    /// Phase 3 — stratified sampling of one tuple per group.
    Sample,
}

impl Phase {
    /// All phases, in pipeline order.
    pub const ALL: [Phase; 4] = [Phase::Ingest, Phase::Perturb, Phase::Generalize, Phase::Sample];

    pub(crate) fn tag(self) -> u64 {
        match self {
            Phase::Ingest => 0x1A,
            Phase::Perturb => 0x2B,
            Phase::Generalize => 0x3C,
            Phase::Sample => 0x4D,
        }
    }

    /// Compile-time telemetry label for this phase (identifier-shaped, per
    /// the [`acpp_obs`] schema).
    pub fn label(self) -> &'static str {
        match self {
            Phase::Ingest => "ingest",
            Phase::Perturb => "perturb",
            Phase::Generalize => "generalize",
            Phase::Sample => "sample",
        }
    }

    /// The span name instrumenting this phase.
    pub(crate) fn span_name(self) -> &'static str {
        match self {
            Phase::Ingest => "phase.ingest",
            Phase::Perturb => "phase.perturb",
            Phase::Generalize => "phase.generalize",
            Phase::Sample => "phase.sample",
        }
    }
}

/// The journal's spelling: `ingest`, `perturbation`, `generalization`,
/// `sampling`.
impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Phase::Ingest => "ingest",
            Phase::Perturb => "perturbation",
            Phase::Generalize => "generalization",
            Phase::Sample => "sampling",
        })
    }
}

/// A category of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// A row whose QI field holds a code outside its attribute's domain —
    /// what a corrupted CSV field decodes to.
    MalformedRow,
    /// A row whose sensitive field is missing — truncated CSV rows surface
    /// as an out-of-domain sentinel in the sensitive column.
    TruncatedRow,
    /// A sensitive value outside `U^s` (e.g. from a schema mismatch between
    /// the data file and the declared domain).
    SensitiveOutOfDomain,
    /// A taxonomy whose leaf set does not cover its attribute's domain.
    /// Not skippable: there is no row-granular unit to drop, so this fault
    /// fails atomically under either policy.
    InconsistentTaxonomy,
    /// The perturbation RNG wrapper emits redraw values outside `U^s`.
    RngOutOfRange,
    /// Phase 2 emits a QI-group smaller than `k` (a buggy recoding).
    DegenerateGroup,
    /// The Phase-3 sampler requests a member index beyond the group size.
    SampleIndexOutOfRange,
    /// An injected latency spike at the Phase-1 boundary: the pipeline
    /// stalls for [`FaultPlan::slow_io_delay`] as if a storage layer went
    /// slow. Purely temporal — the release stays byte-identical and the run
    /// stays clean — so deadline/timeout paths can be exercised by the same
    /// seed-deterministic harness as the data faults.
    SlowIo,
}

impl FaultKind {
    /// All fault kinds.
    pub const ALL: [FaultKind; 8] = [
        FaultKind::MalformedRow,
        FaultKind::TruncatedRow,
        FaultKind::SensitiveOutOfDomain,
        FaultKind::InconsistentTaxonomy,
        FaultKind::RngOutOfRange,
        FaultKind::DegenerateGroup,
        FaultKind::SampleIndexOutOfRange,
        FaultKind::SlowIo,
    ];

    /// The phase boundary at which this fault is injected.
    pub fn phase(self) -> Phase {
        match self {
            FaultKind::MalformedRow
            | FaultKind::TruncatedRow
            | FaultKind::SensitiveOutOfDomain
            | FaultKind::InconsistentTaxonomy => Phase::Ingest,
            FaultKind::RngOutOfRange | FaultKind::SlowIo => Phase::Perturb,
            FaultKind::DegenerateGroup => Phase::Generalize,
            FaultKind::SampleIndexOutOfRange => Phase::Sample,
        }
    }

    fn tag(self) -> u64 {
        match self {
            FaultKind::MalformedRow => 0x01,
            FaultKind::TruncatedRow => 0x02,
            FaultKind::SensitiveOutOfDomain => 0x03,
            FaultKind::InconsistentTaxonomy => 0x04,
            FaultKind::RngOutOfRange => 0x05,
            FaultKind::DegenerateGroup => 0x06,
            FaultKind::SampleIndexOutOfRange => 0x07,
            FaultKind::SlowIo => 0x08,
        }
    }

    /// Compile-time telemetry label for this fault kind.
    pub fn label(self) -> &'static str {
        match self {
            FaultKind::MalformedRow => "malformed_row",
            FaultKind::TruncatedRow => "truncated_row",
            FaultKind::SensitiveOutOfDomain => "sensitive_out_of_domain",
            FaultKind::InconsistentTaxonomy => "inconsistent_taxonomy",
            FaultKind::RngOutOfRange => "rng_out_of_range",
            FaultKind::DegenerateGroup => "degenerate_group",
            FaultKind::SampleIndexOutOfRange => "sample_index_out_of_range",
            FaultKind::SlowIo => "slow_io",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FaultKind::MalformedRow => "malformed row (QI code out of domain)",
            FaultKind::TruncatedRow => "truncated row (missing sensitive field)",
            FaultKind::SensitiveOutOfDomain => "sensitive value outside U^s",
            FaultKind::InconsistentTaxonomy => "taxonomy does not cover its domain",
            FaultKind::RngOutOfRange => "perturbation RNG produced out-of-domain value",
            FaultKind::DegenerateGroup => "QI-group smaller than k",
            FaultKind::SampleIndexOutOfRange => "sample index beyond group size",
            FaultKind::SlowIo => "injected latency spike (slow I/O)",
        })
    }
}

/// What the pipeline does when a defense detects a fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DegradationPolicy {
    /// Fail atomically with a typed [`AcppError::Fault`]; publish nothing.
    #[default]
    Abort,
    /// Drop the faulty unit (row, group, draw), keep going, and account for
    /// every drop in the [`PipelineReport`]. Faults without a skippable
    /// unit (inconsistent taxonomies) still abort.
    SkipAndReport,
}

impl DegradationPolicy {
    /// Compile-time telemetry label for this policy.
    pub fn label(self) -> &'static str {
        match self {
            DegradationPolicy::Abort => "abort",
            DegradationPolicy::SkipAndReport => "skip_and_report",
        }
    }

    /// The spelling the journal, the CLI and its job file write.
    pub fn wire_name(self) -> &'static str {
        match self {
            DegradationPolicy::Abort => "abort",
            DegradationPolicy::SkipAndReport => "skip",
        }
    }
}

/// Accepts the wire spelling ([`DegradationPolicy::wire_name`]) and the
/// telemetry label ([`DegradationPolicy::label`]).
impl std::str::FromStr for DegradationPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "abort" => Ok(DegradationPolicy::Abort),
            "skip" | "skip_and_report" => Ok(DegradationPolicy::SkipAndReport),
            other => Err(format!("unknown policy `{other}` (expected abort or skip)")),
        }
    }
}

impl fmt::Display for DegradationPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            DegradationPolicy::Abort => "abort",
            DegradationPolicy::SkipAndReport => "skip-and-report",
        })
    }
}

/// A seed-deterministic plan of faults to inject.
///
/// The plan owns no RNG state: every random choice (which rows to corrupt,
/// which groups to break) is re-derived from `seed`, the phase tag, and the
/// fault tag, so the same plan injects byte-identical faults on every run —
/// the property the regression suite depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    seed: u64,
    kinds: Vec<FaultKind>,
    /// Units corrupted per row-granular fault kind.
    per_kind: usize,
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan { seed, kinds: Vec::new(), per_kind: 3 }
    }

    /// A plan injecting every fault kind.
    pub fn everything(seed: u64) -> Self {
        let mut plan = Self::new(seed);
        plan.kinds.extend(FaultKind::ALL);
        plan
    }

    /// Adds a fault kind to the plan (idempotent).
    pub fn with(mut self, kind: FaultKind) -> Self {
        if !self.kinds.contains(&kind) {
            self.kinds.push(kind);
        }
        self
    }

    /// Sets how many units (rows, groups, draws) each row-granular fault
    /// kind corrupts. Clamped to at least 1.
    pub fn with_intensity(mut self, per_kind: usize) -> Self {
        self.per_kind = per_kind.max(1);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The fault kinds this plan injects.
    pub fn kinds(&self) -> &[FaultKind] {
        &self.kinds
    }

    /// Whether the plan injects `kind`.
    pub fn is_active(&self, kind: FaultKind) -> bool {
        self.kinds.contains(&kind)
    }

    /// The stall injected by [`FaultKind::SlowIo`], scaled by the plan's
    /// intensity (`per_kind` × 25 ms) so chaos tiers can dial latency the
    /// same way they dial corruption volume. Deterministic: no RNG, so a
    /// replayed plan stalls identically.
    pub fn slow_io_delay(&self) -> std::time::Duration {
        std::time::Duration::from_millis(25 * self.per_kind as u64)
    }

    /// A deterministic RNG scoped to one (phase, kind) injection site.
    fn rng(&self, kind: FaultKind) -> StdRng {
        StdRng::seed_from_u64(
            self.seed ^ (kind.phase().tag() << 32) ^ (kind.tag() << 16) ^ 0x9E37_79B9,
        )
    }

    /// Deterministically picks the distinct unit indices (out of `n`) that
    /// `kind` corrupts. Empty when the kind is inactive or `n` is 0.
    pub fn pick_units(&self, kind: FaultKind, n: usize) -> Vec<usize> {
        if !self.is_active(kind) || n == 0 {
            return Vec::new();
        }
        let mut rng = self.rng(kind);
        let mut picks = acpp_sample::sample_without_replacement(&mut rng, n, self.per_kind.min(n));
        picks.sort_unstable();
        picks
    }
}

/// Per-phase accounting of what the defenses saw and did.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct PhaseReport {
    /// Faulty units the plan injected at this boundary.
    pub faults_injected: usize,
    /// Faulty units a defense detected and degraded per the policy.
    pub faults_survived: usize,
    /// Microdata rows dropped from the release at this boundary.
    pub rows_dropped: usize,
    /// QI-groups suppressed (merged out of the release) at this boundary.
    pub groups_suppressed: usize,
    /// Human-readable notes, one per detection event.
    pub notes: Vec<String>,
}

impl PhaseReport {
    /// Accounts for `units` faulty units a defense degraded, with a note.
    pub(crate) fn survived(&mut self, units: usize, note: String) {
        self.faults_survived += units;
        self.notes.push(note);
    }
}

/// The auditable outcome of a pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PipelineReport {
    /// The degradation policy the run used.
    pub policy: DegradationPolicy,
    /// Rows in the input microdata.
    pub input_rows: usize,
    /// Tuples in the published release.
    pub published_rows: usize,
    /// Per-phase accounting, indexed in [`Phase::ALL`] order.
    pub phases: [PhaseReport; 4],
}

impl PipelineReport {
    pub(crate) fn new(policy: DegradationPolicy, input_rows: usize) -> Self {
        PipelineReport { policy, input_rows, published_rows: 0, phases: Default::default() }
    }

    /// Mutable accounting slot for `phase`.
    pub(crate) fn phase_mut(&mut self, phase: Phase) -> &mut PhaseReport {
        &mut self.phases[phase as usize]
    }

    /// Accounting slot for `phase`.
    pub fn phase(&self, phase: Phase) -> &PhaseReport {
        &self.phases[phase as usize]
    }

    /// Total rows dropped across all phases.
    pub fn total_rows_dropped(&self) -> usize {
        self.phases.iter().map(|p| p.rows_dropped).sum()
    }

    /// Total faults detected and survived across all phases.
    pub fn total_faults_survived(&self) -> usize {
        self.phases.iter().map(|p| p.faults_survived).sum()
    }

    /// `true` when no defense tripped: nothing dropped, nothing survived.
    pub fn is_clean(&self) -> bool {
        self.total_faults_survived() == 0
            && self.total_rows_dropped() == 0
            && self.phases.iter().all(|p| p.groups_suppressed == 0)
    }
}

impl fmt::Display for PipelineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "pipeline report (policy: {}): {} input rows -> {} published tuples",
            self.policy, self.input_rows, self.published_rows
        )?;
        for (phase, rep) in Phase::ALL.iter().zip(&self.phases) {
            writeln!(
                f,
                "  {phase:>14}: {} injected, {} survived, {} rows dropped, {} groups suppressed",
                rep.faults_injected, rep.faults_survived, rep.rows_dropped, rep.groups_suppressed
            )?;
            for note in &rep.notes {
                writeln!(f, "                  - {note}")?;
            }
        }
        Ok(())
    }
}

/// Rows of `table` carrying any value outside its attribute's domain, in
/// row order. Clean input costs one pass per column; rows are gathered
/// only from the columns that hold a bad value.
pub(crate) fn out_of_domain_rows(table: &Table) -> Vec<usize> {
    let sizes: Vec<u32> = table.schema().attributes().iter().map(|a| a.domain().size()).collect();
    let dirty: Vec<usize> =
        (0..sizes.len()).filter(|&c| table.column(c).iter().any(|&v| v >= sizes[c])).collect();
    if dirty.is_empty() {
        return Vec::new();
    }
    table.rows().filter(|&r| dirty.iter().any(|&c| table.column(c)[r] >= sizes[c])).collect()
}

/// Applies the plan's ingest-boundary faults. The inputs are copied only
/// when a fault actually lands on them.
pub(crate) fn inject_ingest(
    plan: &FaultPlan,
    table: &mut Cow<'_, Table>,
    taxonomies: &mut Cow<'_, [Taxonomy]>,
    report: &mut PipelineReport,
) {
    let schema = table.schema().clone();
    let qi_col = schema.qi_indices().first().copied();
    let us = schema.sensitive_domain_size();
    let rep = report.phase_mut(Phase::Ingest);

    if let Some(col) = qi_col {
        let domain = schema.attribute(col).domain().size();
        let picks = plan.pick_units(FaultKind::MalformedRow, table.len());
        note_injection(FaultKind::MalformedRow, picks.len());
        for r in picks {
            table.to_mut().set_value(r, col, Value(domain + 11));
            rep.faults_injected += 1;
        }
    }
    let picks = plan.pick_units(FaultKind::TruncatedRow, table.len());
    note_injection(FaultKind::TruncatedRow, picks.len());
    for r in picks {
        table.to_mut().set_sensitive_value(r, Value(u32::MAX));
        rep.faults_injected += 1;
    }
    let picks = plan.pick_units(FaultKind::SensitiveOutOfDomain, table.len());
    note_injection(FaultKind::SensitiveOutOfDomain, picks.len());
    for r in picks {
        table.to_mut().set_sensitive_value(r, Value(us + 3));
        rep.faults_injected += 1;
    }
    if plan.is_active(FaultKind::InconsistentTaxonomy) && !taxonomies.is_empty() {
        let wrong = taxonomies[0].domain_size() + 1;
        taxonomies.to_mut()[0] = Taxonomy::intervals(wrong, 2);
        rep.faults_injected += 1;
        note_injection(FaultKind::InconsistentTaxonomy, 1);
    }
}

/// Splits one member off the largest group, producing an undersized group —
/// the shape of a buggy Phase-2 recoding.
pub(crate) fn inject_degenerate_group(
    grouping: &Grouping,
    signatures: &mut Vec<Signature>,
    row_count: usize,
) -> Grouping {
    let Some((host, members)) = grouping
        .iter_nonempty()
        .max_by_key(|(_, m)| m.len())
        .map(|(g, m)| (g, m.to_vec()))
    else {
        return grouping.clone();
    };
    let Some(&stray) = members.last() else {
        return grouping.clone();
    };
    let new_gid = GroupId(grouping.group_count() as u32);
    let assignment: Vec<GroupId> = (0..row_count)
        .map(|r| if r == stray { new_gid } else { grouping.group_of(r) })
        .collect();
    signatures.push(signatures[host.index()].clone());
    Grouping::from_assignment(assignment, grouping.group_count() + 1)
}

/// Bumps the injected-fault counter for `kind` (`units` faulty units).
pub(crate) fn note_injection(kind: FaultKind, units: usize) {
    if units > 0 {
        metrics().counter_add_labeled("acpp_faults_injected_total", "kind", kind.label(), units as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PgConfig;
    use crate::error::AcppError;
    use crate::par::Threads;
    use crate::pipeline::{publish, publish_robust_observed};
    use acpp_data::{Attribute, Domain, OwnerId, Schema};
    use acpp_obs::Telemetry;

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

    #[test]
    fn plan_is_deterministic() {
        let a = FaultPlan::everything(42);
        let b = FaultPlan::everything(42);
        for kind in FaultKind::ALL {
            assert_eq!(a.pick_units(kind, 500), b.pick_units(kind, 500), "{kind:?}");
        }
        let c = FaultPlan::everything(43);
        assert_ne!(
            a.pick_units(FaultKind::MalformedRow, 500),
            c.pick_units(FaultKind::MalformedRow, 500)
        );
    }

    #[test]
    fn clean_run_matches_publish() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let baseline = publish(&t, &taxes, cfg, &mut StdRng::seed_from_u64(9)).unwrap();
        let (robust, report) = publish_robust_observed(
            &t,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            None,
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(9),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert_eq!(baseline, robust);
        assert!(report.is_clean());
        assert_eq!(report.published_rows, robust.len());
    }

    #[test]
    fn abort_policy_fails_atomically_on_injected_rows() {
        let t = table(120);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let plan = FaultPlan::new(7).with(FaultKind::MalformedRow);
        let err = publish_robust_observed(
            &t,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(9),
            &Telemetry::disabled(),
        )
        .unwrap_err();
        assert!(matches!(err, AcppError::Fault { phase: Phase::Ingest, .. }));
        assert_eq!(err.exit_code(), 8);
    }

    #[test]
    fn skip_policy_accounts_for_every_drop() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let plan = FaultPlan::new(11)
            .with(FaultKind::MalformedRow)
            .with(FaultKind::TruncatedRow)
            .with(FaultKind::SensitiveOutOfDomain);
        let (_, report) = publish_robust_observed(
            &t,
            &taxes,
            cfg,
            DegradationPolicy::SkipAndReport,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(9),
            &Telemetry::disabled(),
        )
        .unwrap();
        let ingest = report.phase(Phase::Ingest);
        // Distinct rows may collide between kinds, so dropped ≤ injected.
        assert!(ingest.rows_dropped >= 1 && ingest.rows_dropped <= ingest.faults_injected);
        assert_eq!(ingest.rows_dropped, ingest.faults_survived);
        assert!(!report.is_clean());
        assert!(report.to_string().contains("rows dropped"));
    }

    #[test]
    fn slow_io_stalls_but_leaves_the_release_byte_identical() {
        let t = table(160);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let (baseline, _) = publish_robust_observed(
            &t,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            None,
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(21),
            &Telemetry::disabled(),
        )
        .unwrap();
        let plan = FaultPlan::new(5).with(FaultKind::SlowIo).with_intensity(2);
        assert_eq!(plan.slow_io_delay(), std::time::Duration::from_millis(50));
        let started = std::time::Instant::now();
        let (slow, report) = publish_robust_observed(
            &t,
            &taxes,
            cfg,
            DegradationPolicy::Abort,
            Some(&plan),
            Threads::Fixed(1),
            &mut StdRng::seed_from_u64(21),
            &Telemetry::disabled(),
        )
        .unwrap();
        assert!(started.elapsed() >= plan.slow_io_delay(), "the stall must be real");
        // Latency-only: same bytes, clean report, but the injection is
        // accounted at the perturb boundary.
        assert_eq!(baseline, slow);
        assert!(report.is_clean());
        assert_eq!(report.phase(Phase::Perturb).faults_injected, 1);
        assert_eq!(FaultKind::SlowIo.phase(), Phase::Perturb);
        assert_eq!(FaultKind::SlowIo.label(), "slow_io");
    }

    #[test]
    fn inconsistent_taxonomy_aborts_under_both_policies() {
        let t = table(80);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let plan = FaultPlan::new(3).with(FaultKind::InconsistentTaxonomy);
        for policy in [DegradationPolicy::Abort, DegradationPolicy::SkipAndReport] {
            let err = publish_robust_observed(
                &t,
                &taxes,
                cfg,
                policy,
                Some(&plan),
                Threads::Fixed(1),
                &mut StdRng::seed_from_u64(9),
                &Telemetry::disabled(),
            )
            .unwrap_err();
            assert!(matches!(err, AcppError::Fault { phase: Phase::Ingest, .. }), "{policy}");
        }
    }
}
