//! Monte-Carlo simulation of the corruption-aided linking attack against
//! the *real* PG pipeline.
//!
//! Each trial re-enacts the paper's threat model end to end:
//!
//! 1. a victim whose sensitive value is drawn from the adversary's
//!    λ-skewed prior, `β` corrupted co-members with *fixed* known values,
//!    `G − 1 − β` group slots filled by a uniformly drawn subset of the
//!    uncorrupted candidate pool (their values drawn from the adversary's
//!    others-prior), plus corrupted-extraneous candidates that never join;
//! 2. the full three-phase pipeline ([`publish_with_trace`]) runs on the
//!    assembled microdata — real perturbation, real Mondrian grouping,
//!    real one-tuple-per-group sampling;
//! 3. trials where the victim's group publishes the conditioning value
//!    `y*` contribute to the empirical ownership frequency
//!    `P[victim owns the crucial tuple | y*]` and the empirical posterior
//!    of the victim's true value.
//!
//! The empirical frequencies are then compared — within Wilson intervals
//! at [`crate::ci::AUDIT_Z`] — against [`PosteriorAnalysis`] (Equations
//! 8–20) on the matching synthetic release, against `h⊤` (Theorem 1), and
//! against `min_delta` (Theorem 3). The QI layout is fixed across trials,
//! so Phase 2 is deterministic and the victim's group is exactly the
//! designed one; every run is reproducible because trial `t` draws from
//! the substream `substream_seed(master, scenario, t)` regardless of how
//! trials are sharded across threads.

use crate::ci::{wilson, Interval, AUDIT_Z};
use crate::report::{Check, ConformanceReport, Status};
use crate::synth::{self, analyze_world, harness, peaked_pdf};
use acpp_attack::PosteriorAnalysis;
use acpp_core::{par, publish_with_trace, AcppError, GuaranteeParams, PgConfig, Threads};
use acpp_data::digest::substream_seed;
use acpp_data::{OwnerId, Table, Value};
use acpp_obs::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One attack scenario: a fixed world re-sampled over many trials.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Stable name used in check ids and the RNG substream domain.
    pub name: &'static str,
    /// Retention probability.
    pub p: f64,
    /// Anonymity parameter; the victim's group has exactly `k` members.
    pub k: usize,
    /// Sensitive domain size.
    pub us: u32,
    /// Adversary skew bound; the victim prior is λ-peaked on `y_star`
    /// unless `prior_w` overrides the peak mass.
    pub lambda: f64,
    /// The conditioning value `y*` (also the victim prior's peak).
    pub y_star: u32,
    /// Fixed known values of the `β` corrupted members.
    pub known: Vec<u32>,
    /// Corrupted candidates known to be non-members.
    pub extraneous: usize,
    /// Uncorrupted candidate pool size `e − α`.
    pub pool: usize,
    /// Others-prior peak (`None` = uniform expertise about others).
    pub others_peak: Option<u32>,
}

impl Scenario {
    fn prior(&self) -> Result<Vec<f64>, AcppError> {
        peaked_pdf(self.us, self.y_star, self.lambda, self.lambda)
            .ok_or_else(|| harness(format!("scenario {}: infeasible victim prior", self.name)))
    }

    fn others(&self) -> Result<Option<Vec<f64>>, AcppError> {
        match self.others_peak {
            None => Ok(None),
            Some(z) => peaked_pdf(self.us, z, self.lambda, self.lambda)
                .map(Some)
                .ok_or_else(|| harness(format!("scenario {}: infeasible others prior", self.name))),
        }
    }

    /// Group slots drawn from the pool each trial.
    fn drawn(&self) -> usize {
        self.k - 1 - self.known.len()
    }

    fn validate(&self) -> Result<(), AcppError> {
        if self.known.len() > self.k - 1 || self.k - 1 - self.known.len() > self.pool {
            return Err(harness(format!(
                "scenario {}: need β <= G-1 and G-1-β <= pool",
                self.name
            )));
        }
        if self.y_star >= self.us {
            return Err(harness(format!("scenario {}: y* outside the domain", self.name)));
        }
        Ok(())
    }
}

/// The audited scenarios. The quick tier keeps the four most load-bearing
/// ones; the full tier adds every boundary the posterior calculus
/// special-cases.
pub fn scenarios(quick: bool) -> Vec<Scenario> {
    let base = Scenario {
        name: "baseline-uncorrupted",
        p: 0.3,
        k: 4,
        us: 10,
        lambda: 0.2,
        y_star: 3,
        known: vec![],
        extraneous: 0,
        pool: 6,
        others_peak: None,
    };
    let mut out = vec![
        base.clone(),
        Scenario {
            name: "all-but-victim",
            known: vec![7, 7, 8],
            pool: 0,
            ..base.clone()
        },
        Scenario {
            name: "mixed-corruption",
            p: 0.4,
            known: vec![7],
            extraneous: 2,
            pool: 5,
            others_peak: Some(5),
            ..base.clone()
        },
        Scenario {
            name: "n2-all-but-victim",
            p: 0.35,
            k: 2,
            us: 2,
            lambda: 0.6,
            y_star: 1,
            known: vec![0],
            pool: 0,
            ..base.clone()
        },
    ];
    if !quick {
        out.extend([
            Scenario { name: "k1-singleton", k: 1, pool: 0, ..base.clone() },
            Scenario { name: "p-zero", p: 0.0, pool: 5, ..base.clone() },
            Scenario { name: "lambda-one", lambda: 1.0, pool: 4, ..base.clone() },
            Scenario {
                name: "skewed-others",
                k: 6,
                pool: 8,
                others_peak: Some(3),
                ..base
            },
        ]);
    }
    out
}

/// Monte-Carlo trials per scenario for each tier.
pub fn trials(quick: bool) -> u64 {
    if quick {
        6_000
    } else {
        48_000
    }
}

/// The raw outcome of a scenario's trials. Exact integer counts, so two
/// runs agree byte-for-byte whenever their seeds agree — regardless of
/// thread count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tally {
    /// Trials run.
    pub trials: u64,
    /// Trials where the victim's group published `y*`.
    pub conditioned: u64,
    /// Conditioned trials where the sampled row was the victim's.
    pub owns: u64,
    /// Conditioned trials per victim true value.
    pub counts: Vec<u64>,
}

impl Tally {
    fn zero(n: u32) -> Self {
        Tally { trials: 0, conditioned: 0, owns: 0, counts: vec![0; n as usize] }
    }

    fn merge(mut self, other: &Tally) -> Self {
        self.trials += other.trials;
        self.conditioned += other.conditioned;
        self.owns += other.owns;
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self
    }
}

/// Draws an index from a pdf by CDF inversion.
pub(crate) fn sample_pdf(rng: &mut StdRng, pdf: &[f64]) -> u32 {
    let r: f64 = rng.gen();
    let mut acc = 0.0;
    for (i, &w) in pdf.iter().enumerate() {
        acc += w;
        if r < acc {
            return i as u32;
        }
    }
    (pdf.len().max(1) - 1) as u32
}

/// Uniformly chosen `m`-subset of `0..pool` (partial Fisher–Yates).
fn choose_members(rng: &mut StdRng, pool: usize, m: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..pool).collect();
    for i in 0..m {
        let j = i + rng.gen_range(0..pool - i);
        idx.swap(i, j);
    }
    idx.truncate(m);
    idx
}

/// Owner id of uncorrupted pool candidate `j`, matching
/// [`synth::adversary`]'s numbering (victim = 1, then β known, then
/// extraneous, then the pool).
fn pool_owner(s: &Scenario, j: usize) -> OwnerId {
    OwnerId((2 + s.known.len() + s.extraneous + j) as u32)
}

/// Runs one trial; returns `(published y of the victim's group, victim
/// sampled?, victim's true value)`.
fn run_trial(
    s: &Scenario,
    prior: &[f64],
    others: Option<&[f64]>,
    cfg: PgConfig,
    seed: u64,
) -> Result<(u32, bool, u32), AcppError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let members = choose_members(&mut rng, s.pool, s.drawn());
    let victim_value = sample_pdf(&mut rng, prior);
    let uniform;
    let others_pdf = match others {
        Some(o) => o,
        None => {
            uniform = vec![1.0 / s.us as f64; s.us as usize];
            &uniform
        }
    };

    let mut table = Table::new(synth::schema(s.us)?);
    let push = |table: &mut Table, owner: OwnerId, qi: u32, v: u32| {
        table
            .push_row(owner, &[Value(qi), Value(v)])
            .map_err(|e| harness(format!("trial table: {e}")))
    };
    // Row 0: the victim. Rows 1..G: the other group members (same QI).
    push(&mut table, OwnerId(1), 0, victim_value)?;
    for (i, &v) in s.known.iter().enumerate() {
        push(&mut table, OwnerId(2 + i as u32), 0, v)?;
    }
    for &j in &members {
        let v = sample_pdf(&mut rng, others_pdf);
        push(&mut table, pool_owner(s, j), 0, v)?;
    }
    // A second QI block so Phase 2 has a real cut to make; its contents
    // are fixed and carry no information about the victim.
    for i in 0..s.k {
        push(&mut table, OwnerId(1_000_000 + i as u32), 2, 0)?;
    }

    let taxes = synth::taxonomies();
    // One worker per trial: the trials themselves are sharded over the
    // audit's pool.
    let (_, trace) = publish_with_trace(&table, &taxes, cfg, Threads::Fixed(1), &mut rng)?;

    // The QI layout is constant, so the grouping must be the designed one:
    // the victim's group is exactly rows 0..G.
    let gid = trace.grouping.group_of(0);
    let mut got: Vec<usize> = trace.grouping.members(gid).to_vec();
    got.sort_unstable();
    let want: Vec<usize> = (0..s.k).collect();
    if got != want {
        return Err(harness(format!(
            "scenario {}: Phase 2 produced group {got:?}, audit designed {want:?}",
            s.name
        )));
    }
    let sampled = trace.sampled_rows[gid.index()];
    let y = trace.perturbed.sensitive_value(sampled).0;
    Ok((y, sampled == 0, victim_value))
}

/// Runs a scenario's trials, sharded deterministically across `threads`.
pub fn run_scenario(
    s: &Scenario,
    master: u64,
    trials: u64,
    threads: usize,
    telemetry: &Telemetry,
) -> Result<Tally, AcppError> {
    s.validate()?;
    let prior = s.prior()?;
    let others = s.others()?;
    let cfg = PgConfig::new(s.p, s.k).map_err(|e| harness(format!("scenario {}: {e}", s.name)))?;
    let domain = format!("conformance/{}", s.name);

    let chunks = par::map_chunks(trials as usize, threads, telemetry, |_, range| {
        let mut t = Tally::zero(s.us);
        for trial in range {
            let seed = substream_seed(master, &domain, trial as u64);
            let (y, owns, victim_value) = match run_trial(s, &prior, others.as_deref(), cfg, seed) {
                Ok(r) => r,
                Err(e) => return Err(e),
            };
            t.trials += 1;
            if y == s.y_star {
                t.conditioned += 1;
                if owns {
                    t.owns += 1;
                }
                t.counts[victim_value as usize] += 1;
            }
        }
        Ok(t)
    });
    let mut tally = Tally::zero(s.us);
    for c in chunks {
        tally = tally.merge(&c?);
    }
    Ok(tally)
}

/// How far `v` lies outside the interval (0 when contained).
fn excess(iv: &Interval, v: f64) -> f64 {
    (iv.lo - v).max(v - iv.hi).max(0.0)
}

fn push_interval_check(
    report: &mut ConformanceReport,
    id: String,
    analytic: f64,
    successes: u64,
    trials: u64,
    detail: String,
) {
    let iv = wilson(successes, trials, AUDIT_Z);
    report.checks.push(Check {
        id,
        kind: "monte-carlo".into(),
        status: if iv.contains(analytic) && analytic.is_finite() {
            Status::Pass
        } else {
            Status::Violation
        },
        actual: analytic,
        reference: successes as f64 / trials.max(1) as f64,
        tolerance: iv.halfwidth(),
        detail,
    });
}

/// Runs every scenario and records the Monte-Carlo checks.
pub fn run(
    report: &mut ConformanceReport,
    master: u64,
    quick: bool,
    threads: usize,
    telemetry: &Telemetry,
) -> Result<(), AcppError> {
    let n_trials = trials(quick);
    for s in scenarios(quick) {
        let span = telemetry.span("conformance_scenario");
        span.field("scenario", s.name);
        let tally = run_scenario(&s, master, n_trials, threads, telemetry)?;
        let analysis = analysis_for(&s)?;
        record_checks(report, &s, &tally, &analysis)?;
    }
    Ok(())
}

/// The Step-A3 analysis of the matching synthetic release.
pub fn analysis_for(s: &Scenario) -> Result<PosteriorAnalysis, AcppError> {
    analyze_world(
        s.p,
        s.us,
        s.k,
        s.k,
        s.y_star,
        &s.prior()?,
        s.others()?.as_deref(),
        &s.known,
        s.extraneous,
        s.pool,
    )
}

fn record_checks(
    report: &mut ConformanceReport,
    s: &Scenario,
    tally: &Tally,
    analysis: &PosteriorAnalysis,
) -> Result<(), AcppError> {
    let prior = s.prior()?;
    let ctx = format!(
        "{} conditioned of {} trials (p={}, k={}, n={}, λ={}, β={}, extraneous={}, pool={})",
        tally.conditioned, tally.trials, s.p, s.k, s.us, s.lambda, s.known.len(), s.extraneous, s.pool
    );

    // Vacuity guard: the conditioning event must actually occur often
    // enough for the intervals to have teeth.
    report.check_bool(
        &format!("mc.conditioned.{}", s.name),
        "monte-carlo",
        tally.conditioned >= tally.trials / 100,
        ctx.clone(),
    );

    // Equation 14: empirical ownership frequency vs the analytic h.
    push_interval_check(
        report,
        format!("mc.h.{}", s.name),
        analysis.h,
        tally.owns,
        tally.conditioned,
        format!("Eq. 14 h vs empirical ownership; {ctx}"),
    );

    // Equation 9: the posterior pdf, coordinate by coordinate; the single
    // reported check carries the worst coordinate.
    let mut worst = (0usize, 0.0f64);
    for (x, &cnt) in tally.counts.iter().enumerate() {
        let iv = wilson(cnt, tally.conditioned, AUDIT_Z);
        let e = excess(&iv, analysis.posterior[x]);
        if e >= worst.1 {
            worst = (x, e);
        }
    }
    push_interval_check(
        report,
        format!("mc.posterior.{}", s.name),
        analysis.posterior[worst.0],
        tally.counts[worst.0],
        tally.conditioned,
        format!("Eq. 9 posterior, worst coordinate x={}; {ctx}", worst.0),
    );

    // Theorem 1: the empirical ownership frequency must not exceed h⊤.
    let params = GuaranteeParams::new(s.p, s.k, s.lambda, s.us)
        .map_err(|e| harness(format!("scenario {}: {e}", s.name)))?;
    let iv_h = wilson(tally.owns, tally.conditioned, AUDIT_Z);
    report.check_upper(
        &format!("mc.h-top.{}", s.name),
        "monte-carlo",
        iv_h.lo,
        params.h_top(),
        1e-9,
        format!("Theorem 1 soundness: empirical h lower bound vs h⊤; {ctx}"),
    );

    // Theorem 3: empirical growth of the adversary's confidence in {y*}
    // must not exceed the certified Δ.
    match params.min_delta() {
        Ok(bound) => {
            let iv_y = wilson(tally.counts[s.y_star as usize], tally.conditioned, AUDIT_Z);
            report.check_upper(
                &format!("mc.delta.{}", s.name),
                "monte-carlo",
                iv_y.lo - prior[s.y_star as usize],
                bound,
                1e-9,
                format!("Theorem 3 soundness: empirical growth of {{y*}} vs min_delta; {ctx}"),
            );
        }
        Err(e) => report.check_bool(
            &format!("mc.delta.{}", s.name),
            "monte-carlo",
            false,
            format!("min_delta: {e}"),
        ),
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trials_are_deterministic_across_thread_counts() {
        let s = &scenarios(true)[0];
        let telemetry = Telemetry::disabled();
        let one = run_scenario(s, 99, 600, 1, &telemetry).unwrap();
        let four = run_scenario(s, 99, 600, 4, &telemetry).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.trials, 600);
        assert!(one.conditioned > 0);
    }

    #[test]
    fn different_masters_give_different_worlds() {
        let s = &scenarios(true)[0];
        let telemetry = Telemetry::disabled();
        let a = run_scenario(s, 1, 400, 1, &telemetry).unwrap();
        let b = run_scenario(s, 2, 400, 1, &telemetry).unwrap();
        assert_ne!(a, b);
    }

    #[test]
    fn quick_scenarios_conform_at_reduced_trials() {
        // A smoke-sized version of the real audit: 2k trials is enough for
        // the Wilson intervals to bracket the analytic values.
        let telemetry = Telemetry::disabled();
        let mut report = ConformanceReport::default();
        for s in scenarios(true) {
            let tally = run_scenario(&s, 7, 2_000, 2, &telemetry).unwrap();
            let analysis = analysis_for(&s).unwrap();
            record_checks(&mut report, &s, &tally, &analysis).unwrap();
        }
        let bad: Vec<String> =
            report.violated().map(|c| format!("{}: {}", c.id, c.detail)).collect();
        assert!(bad.is_empty(), "violations: {bad:#?}");
    }

    #[test]
    fn the_designed_group_is_what_phase_2_builds() {
        // One trial of every scenario must pass the embedded grouping
        // assertion (run_trial errors otherwise).
        for s in scenarios(false) {
            let prior = s.prior().unwrap();
            let others = s.others().unwrap();
            let cfg = PgConfig::new(s.p, s.k).unwrap();
            run_trial(&s, &prior, others.as_deref(), cfg, 12345).unwrap();
        }
    }

    #[test]
    fn all_but_victim_scenario_matches_the_degenerate_calculus() {
        // e = α: g must be exactly 0 and the analysis must still agree
        // with simulation (covered by quick_scenarios_conform); here we
        // pin the analytic side.
        let s = scenarios(true).into_iter().find(|s| s.name == "all-but-victim").unwrap();
        let a = analysis_for(&s).unwrap();
        assert_eq!(a.g, 0.0);
        assert_eq!(a.beta, s.known.len());
        assert_eq!(a.e, a.alpha);
    }
}
