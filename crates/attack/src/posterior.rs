//! Posterior-confidence derivation (Section V-B and Section VI,
//! Equations 8–20).
//!
//! Given the crucial tuple `t` (observed sensitive value `y`, group size
//! `G`), the candidate co-owners `O`, and the corruption set `C`, the
//! adversary computes:
//!
//! 1. the probability `h = P[o owns t | y]` that the crucial tuple belongs
//!    to the victim (Equations 13–19);
//! 2. the posterior pdf `P[X = x | y] = h·P[X = x | Y = y] + (1−h)·P[X = x]`
//!    (Equation 9), where `P[X = x | Y = y]` is the Bayesian channel
//!    posterior (Equation 12);
//! 3. the posterior confidence `P_post(Q) = Σ_{x ∈ Q} P[X = x | y]`
//!    (Equation 10).

use crate::corruption::{CorruptionInfo, CorruptionSet};
use crate::error::AttackError;
use crate::knowledge::{BackgroundKnowledge, Predicate};
use acpp_core::PublishedTable;
use acpp_data::{OwnerId, Value};
use acpp_perturb::Channel;

/// The adversary's complete inference state after Step A3.
#[derive(Debug, Clone, PartialEq)]
pub struct PosteriorAnalysis {
    /// The observed sensitive value `y` of the crucial tuple.
    pub y: Value,
    /// Group size `G` of the crucial tuple.
    pub group_size: usize,
    /// `e = |O|` — candidate co-owners.
    pub e: usize,
    /// `α = |C ∩ O|`.
    pub alpha: usize,
    /// `β` — non-extraneous corrupted candidates (with known values).
    pub beta: usize,
    /// `g` — the membership probability of an uncorrupted candidate
    /// (Equation 13); 0 when there are no uncorrupted candidates.
    pub g: f64,
    /// `h = P[o owns t | y]` (Equation 8/14).
    pub h: f64,
    /// The posterior pdf `P[X = · | y]` (Equation 9).
    pub posterior: Vec<f64>,
}

impl PosteriorAnalysis {
    /// Runs the Step-A3 analysis.
    ///
    /// `others_prior` is the adversary's pdf for the sensitive value of an
    /// *uncorrupted* candidate (`X_j` in Equation 19); `None` means uniform,
    /// matching an adversary with victim-specific expertise only.
    ///
    /// # Errors
    /// * [`AttackError::InvalidParameter`] — `tuple_idx` out of range, or a
    ///   prior whose domain differs from the published table's sensitive
    ///   domain.
    /// * [`AttackError::InconsistentCorruption`] — the corruption set
    ///   contradicts the group structure: `β > G − 1` (more confirmed
    ///   members than non-victim slots) or `G − 1 − β > e − α` (the
    ///   uncorrupted candidates cannot fill the remaining slots). The
    ///   previous implementation clamped Equation 13's `g` into `[0, 1]`
    ///   here, silently producing a posterior for an impossible world.
    /// * [`AttackError::ImpossibleObservation`] — `P[y] = 0` under the
    ///   adversary's model (only reachable at `p = 1` with a prior that
    ///   excludes the observed value), where Equation 14 is undefined.
    ///
    /// In the fully-corrupted case `e = α` (so `β = G − 1` exactly, or the
    /// inputs are inconsistent) Equation 13 gives `g = 0` identically and
    /// `h` reduces to the piecewise form of Equation 14 with the Σ_j term
    /// absent.
    pub fn analyze(
        published: &PublishedTable,
        tuple_idx: usize,
        prior: &BackgroundKnowledge,
        candidates: &[OwnerId],
        corruption: &CorruptionSet,
        others_prior: Option<&[f64]>,
    ) -> Result<Self, AttackError> {
        let n = published.schema().sensitive_domain_size();
        if prior.domain_size() != n {
            return Err(AttackError::InvalidParameter(format!(
                "prior domain {} does not match sensitive domain {n}",
                prior.domain_size()
            )));
        }
        if tuple_idx >= published.len() {
            return Err(AttackError::InvalidParameter(format!(
                "tuple index {tuple_idx} out of range for a release of {} tuples",
                published.len()
            )));
        }
        let tuple = published.tuple(tuple_idx);
        let y = tuple.sensitive;
        let big_g = tuple.group_size;
        let p = published.retention();
        let channel = Channel::uniform(p, n);
        let u = (1.0 - p) / n as f64;

        // Partition the candidates by corruption status.
        let e = candidates.len();
        let mut alpha = 0usize;
        let mut beta = 0usize;
        let mut known_values: Vec<Value> = Vec::new();
        for &c in candidates {
            match corruption.info(c) {
                Some(CorruptionInfo::Known(x)) => {
                    alpha += 1;
                    beta += 1;
                    known_values.push(x);
                }
                Some(CorruptionInfo::Extraneous) => alpha += 1,
                None => {}
            }
        }

        // Equation 13. The β confirmed members plus the victim leave
        // G − 1 − β group slots among the e − α uncorrupted candidates;
        // the configuration must be realizable before g is a probability.
        let unknown = e - alpha;
        if beta + 1 > big_g || big_g - 1 - beta > unknown {
            return Err(AttackError::InconsistentCorruption {
                group_size: big_g,
                e,
                alpha,
                beta,
            });
        }
        let g = if unknown == 0 {
            0.0 // e = α: every candidate corrupted, no uncertain member.
        } else {
            ((big_g - 1 - beta) as f64) / unknown as f64
        };

        // Equation 15: P[o owns t, y].
        let p_own = (p * prior.pdf()[y.index()] + u) / big_g as f64;

        // Equation 17: P[y] = P[o owns t, y] + Σ_i + Σ_j.
        let mut p_y = p_own;
        for &x in &known_values {
            // Equation 18.
            p_y += channel.prob(x, y) / big_g as f64;
        }
        let other_py = match others_prior {
            Some(pdf) => {
                if pdf.len() != n as usize {
                    return Err(AttackError::InvalidParameter(format!(
                        "others_prior has {} entries for a domain of {n}",
                        pdf.len()
                    )));
                }
                p * pdf[y.index()] + u
            }
            None => p / n as f64 + u,
        };
        p_y += unknown as f64 * g * other_py / big_g as f64; // Equation 19.

        // Equation 14. P[y] is a sum of nonnegative terms that includes
        // p_own, so h = p_own / P[y] ≤ 1 up to round-off; P[y] = 0 means
        // the model assigns the observation probability zero.
        if p_y <= 0.0 {
            return Err(AttackError::ImpossibleObservation { observed: y.0 });
        }
        let h = (p_own / p_y).min(1.0);

        // Equation 9: blend the channel posterior with the prior.
        let channel_post = channel.posterior(prior.pdf(), y);
        let posterior: Vec<f64> = channel_post
            .iter()
            .zip(prior.pdf())
            .map(|(&cp, &pr)| h * cp + (1.0 - h) * pr)
            .collect();

        Ok(PosteriorAnalysis { y, group_size: big_g, e, alpha, beta, g, h, posterior })
    }

    /// Posterior confidence about `Q` (Equation 10).
    pub fn posterior_confidence(&self, q: &Predicate) -> f64 {
        q.confidence(&self.posterior)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_core::published::PublishedTuple;
    use acpp_data::taxonomy::Cut;
    use acpp_data::{Attribute, Domain, Schema, Taxonomy};
    use acpp_generalize::Recoding;

    const N: u32 = 10;

    /// A hand-built release: one region [0,7] with a single published tuple
    /// (y = 3, G = group size), retention p.
    fn release(p: f64, group_size: usize) -> PublishedTable {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(N)),
        ])
        .unwrap();
        let taxes = vec![Taxonomy::intervals(8, 2)];
        let recoding = Recoding::Cuts(vec![Cut::coarsest(&taxes[0])]);
        let sig = recoding.signature(&taxes, &[Value(0)]);
        PublishedTable::new(
            schema,
            recoding,
            vec![PublishedTuple { signature: sig, sensitive: Value(3), group_size }],
            p,
            group_size,
        )
    }

    fn owners(n: u32) -> Vec<OwnerId> {
        (1..=n).map(OwnerId).collect()
    }

    #[test]
    fn posterior_is_a_distribution() {
        let rel = release(0.3, 4);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(3);
        let a = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &CorruptionSet::none(), None).unwrap();
        let sum: f64 = a.posterior.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert!(a.posterior.iter().all(|&p| (0.0..=1.0).contains(&p)));
        assert_eq!(a.e, 3);
        assert_eq!(a.alpha, 0);
        assert_eq!(a.beta, 0);
        // g = (G-1-0)/(e-0) = 3/3 = 1.
        assert!((a.g - 1.0).abs() < 1e-12);
    }

    #[test]
    fn no_corruption_uniform_prior_gives_h_one_over_g() {
        // With a uniform prior and uniform others, every candidate is
        // symmetric: h = 1/G exactly.
        let rel = release(0.3, 4);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(3);
        let a = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &CorruptionSet::none(), None).unwrap();
        assert!((a.h - 0.25).abs() < 1e-12, "h = {}", a.h);
    }

    #[test]
    fn h_grows_with_corruption() {
        // Corrupting candidates whose values are unlikely to perturb into y
        // makes the victim a more probable owner.
        let rel = release(0.3, 4);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(3);
        // Corrupt two candidates: both have value 7 (≠ y = 3).
        let schema = rel.schema().clone();
        let mut t = acpp_data::Table::new(schema);
        t.push_row(OwnerId(1), &[Value(0), Value(7)]).unwrap();
        t.push_row(OwnerId(2), &[Value(1), Value(7)]).unwrap();
        let mut c = CorruptionSet::none();
        c.corrupt(&t, OwnerId(1));
        c.corrupt(&t, OwnerId(2));
        let a = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &c, None).unwrap();
        assert_eq!(a.alpha, 2);
        assert_eq!(a.beta, 2);
        assert!(a.h > 0.25, "corruption increases h: {}", a.h);
        // Corrupting someone whose value IS y makes the victim less likely.
        let mut t2 = acpp_data::Table::new(rel.schema().clone());
        t2.push_row(OwnerId(1), &[Value(0), Value(3)]).unwrap();
        let mut c2 = CorruptionSet::none();
        c2.corrupt(&t2, OwnerId(1));
        let a2 = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &c2, None).unwrap();
        assert!(a2.h < 0.25, "matching corruption decreases h: {}", a2.h);
    }

    #[test]
    fn extraneous_corruption_shrinks_candidate_pool() {
        let rel = release(0.3, 3);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(4); // e=4, G=3
        // No corruption: g = 2/4.
        let a0 =
            PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &CorruptionSet::none(), None).unwrap();
        assert!((a0.g - 0.5).abs() < 1e-12);
        assert!((a0.h - 1.0 / 3.0).abs() < 1e-12);
        // Corrupt two as extraneous: the remaining 2 candidates are now
        // certain members (g = (3-1)/2 = 1). With uniform knowledge the
        // expected number of competitors is unchanged, so h stays 1/G —
        // extraneous corruption alone does not help a symmetric adversary.
        let t = acpp_data::Table::new(rel.schema().clone());
        let mut c = CorruptionSet::none();
        c.corrupt(&t, OwnerId(1));
        c.corrupt(&t, OwnerId(2));
        let a1 = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &c, None).unwrap();
        assert_eq!(a1.alpha, 2);
        assert_eq!(a1.beta, 0);
        assert!((a1.g - 1.0).abs() < 1e-12);
        assert!((a1.h - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn h_respects_theorem_bound_h_top() {
        use acpp_core::GuaranteeParams;
        let lambda = 0.2;
        for &p in &[0.1, 0.3, 0.6] {
            for &big_g in &[2usize, 4, 8] {
                let rel = release(p, big_g);
                // A λ-skewed prior.
                let mut pdf = vec![(1.0 - lambda) / (N - 1) as f64; N as usize];
                pdf[3] = lambda;
                let prior = BackgroundKnowledge::from_pdf(pdf);
                let cands = owners(big_g as u32 + 2);
                let a = PosteriorAnalysis::analyze(
                    &rel,
                    0,
                    &prior,
                    &cands,
                    &CorruptionSet::none(),
                    None,
                )
                .unwrap();
                let bound = GuaranteeParams::new(p, big_g, lambda, N).unwrap().h_top();
                assert!(
                    a.h <= bound + 1e-9,
                    "p={p}, G={big_g}: h={} exceeds h_top={bound}",
                    a.h
                );
            }
        }
    }

    #[test]
    fn others_prior_shifts_the_ownership_inference() {
        // If the adversary believes the *other* candidates are very likely
        // to carry the observed value y, the victim is a less likely owner
        // than under uniform others; and vice versa.
        let rel = release(0.4, 4);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(3);
        let uniform =
            PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &CorruptionSet::none(), None).unwrap();
        let mut others_peak_y = vec![0.0; N as usize];
        others_peak_y[3] = 1.0; // y = 3
        let peaked = PosteriorAnalysis::analyze(
            &rel, 0, &prior, &cands, &CorruptionSet::none(), Some(&others_peak_y),
        )
        .unwrap();
        assert!(peaked.h < uniform.h, "{} vs {}", peaked.h, uniform.h);
        let mut others_avoid_y = vec![1.0 / (N - 1) as f64; N as usize];
        others_avoid_y[3] = 0.0;
        let avoiding = PosteriorAnalysis::analyze(
            &rel, 0, &prior, &cands, &CorruptionSet::none(), Some(&others_avoid_y),
        )
        .unwrap();
        assert!(avoiding.h > uniform.h, "{} vs {}", avoiding.h, uniform.h);
    }

    #[test]
    fn p_zero_release_is_uninformative() {
        let rel = release(0.0, 4);
        let prior = BackgroundKnowledge::from_pdf(vec![
            0.3, 0.2, 0.1, 0.1, 0.1, 0.05, 0.05, 0.04, 0.03, 0.03,
        ]);
        let cands = owners(3);
        let a = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &CorruptionSet::none(), None).unwrap();
        for (post, pr) in a.posterior.iter().zip(prior.pdf()) {
            assert!((post - pr).abs() < 1e-12, "posterior equals prior at p=0");
        }
        let q = Predicate::exactly(N, Value(3));
        assert!((a.posterior_confidence(&q) - prior.prior_confidence(&q)).abs() < 1e-12);
    }

    /// Hand-computed Equations 13–19 for p = 0.4, n = 10, G = 3, e = 4,
    /// one Known(7) corruption (α = β = 1) and one Extraneous (α = 2),
    /// uniform prior and uniform others:
    ///   u     = 0.06
    ///   g     = (3 − 1 − 1)/(4 − 2)            = 1/2          (Eq 13)
    ///   p_own = (0.4·0.1 + 0.06)/3             = 1/30         (Eq 15)
    ///   Σ_i   = prob(7→3)/3 = 0.06/3           = 1/50         (Eq 18)
    ///   Σ_j   = 2·(1/2)·(0.4/10 + 0.06)/3      = 1/30         (Eq 19)
    ///   P[y]  = 1/30 + 1/50 + 1/30             = 13/150       (Eq 17)
    ///   h     = (1/30)/(13/150)                = 5/13         (Eq 14)
    ///   cp[3] = 0.1·(0.4 + 0.06)/0.1           = 0.46         (Eq 12)
    ///   post[3] = (5/13)·0.46 + (8/13)·0.1     = 31/130       (Eq 9)
    #[test]
    fn hand_computed_eq_13_to_19() {
        let rel = release(0.4, 3);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(4);
        let mut t = acpp_data::Table::new(rel.schema().clone());
        t.push_row(OwnerId(1), &[Value(0), Value(7)]).unwrap();
        let mut c = CorruptionSet::none();
        c.corrupt(&t, OwnerId(1)); // Known(7): confirmed member
        c.corrupt(&t, OwnerId(2)); // not in t: Extraneous
        let a = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &c, None).unwrap();
        assert_eq!((a.e, a.alpha, a.beta), (4, 2, 1));
        assert!((a.g - 0.5).abs() < 1e-15, "g = {}", a.g);
        assert!((a.h - 5.0 / 13.0).abs() < 1e-12, "h = {}", a.h);
        assert!((a.posterior[3] - 31.0 / 130.0).abs() < 1e-12, "post[y] = {}", a.posterior[3]);
        // Off-y coordinates: (5/13)·0.06 + (8/13)·0.1 = 11/130.
        assert!((a.posterior[0] - 11.0 / 130.0).abs() < 1e-12);
        assert!((a.posterior.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    /// `e = α` (every candidate corrupted): Equation 13 forces `g = 0`
    /// exactly — not a clamped value — and h reduces to the piecewise
    /// Equation 14 without the Σ_j term. With G = 3, e = 2, both Known(7):
    ///   p_own = 1/30, Σ_i = 2·0.06/3 = 1/25, P[y] = 1/30 + 1/25 = 11/150,
    ///   h = (1/30)/(11/150) = 5/11.
    #[test]
    fn fully_corrupted_candidates_give_exact_zero_g() {
        let rel = release(0.4, 3);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(2);
        let mut t = acpp_data::Table::new(rel.schema().clone());
        t.push_row(OwnerId(1), &[Value(0), Value(7)]).unwrap();
        t.push_row(OwnerId(2), &[Value(1), Value(7)]).unwrap();
        let mut c = CorruptionSet::none();
        c.corrupt(&t, OwnerId(1));
        c.corrupt(&t, OwnerId(2));
        let a = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &c, None).unwrap();
        assert_eq!(a.e, a.alpha);
        assert_eq!(a.beta, 2);
        assert_eq!(a.g, 0.0, "g must be exactly 0, not clamped");
        assert!((a.h - 5.0 / 11.0).abs() < 1e-12, "h = {}", a.h);
    }

    /// Regression: corruption sets that contradict the group structure are
    /// typed errors, not silently-clamped probabilities. Pre-fix, β = 3 in
    /// a G = 3 group clamped Equation 13 to g = 0 and carried on.
    #[test]
    fn inconsistent_corruption_is_a_typed_error() {
        let rel = release(0.4, 3);
        let prior = BackgroundKnowledge::uniform(N);
        // β = 3 > G − 1 = 2: more confirmed members than non-victim slots.
        let cands = owners(4);
        let mut t = acpp_data::Table::new(rel.schema().clone());
        for i in 1..=3u32 {
            t.push_row(OwnerId(i), &[Value(0), Value(7)]).unwrap();
        }
        let mut c = CorruptionSet::none();
        for i in 1..=3u32 {
            c.corrupt(&t, OwnerId(i));
        }
        let err = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &c, None).unwrap_err();
        assert!(matches!(
            err,
            AttackError::InconsistentCorruption { group_size: 3, e: 4, alpha: 3, beta: 3 }
        ));
        // e − α = 1 uncorrupted candidate cannot fill G − 1 − β = 2 slots.
        let rel4 = release(0.4, 4);
        let cands = owners(2);
        let mut c = CorruptionSet::none();
        let mut t1 = acpp_data::Table::new(rel4.schema().clone());
        t1.push_row(OwnerId(1), &[Value(0), Value(7)]).unwrap();
        c.corrupt(&t1, OwnerId(1));
        let err = PosteriorAnalysis::analyze(&rel4, 0, &prior, &cands, &c, None).unwrap_err();
        assert!(matches!(err, AttackError::InconsistentCorruption { .. }));
    }

    /// Regression: at p = 1 with a prior (and others model) that exclude
    /// the observed value, Equation 17 gives P[y] = 0 and Equation 14 is
    /// undefined — pre-fix this silently returned h = 0.
    #[test]
    fn impossible_observation_is_a_typed_error() {
        let rel = release(1.0, 3);
        let mut pdf = vec![1.0 / (N - 1) as f64; N as usize];
        pdf[3] = 0.0; // y = 3 excluded by the prior
        let prior = BackgroundKnowledge::from_pdf(pdf.clone());
        let cands = owners(2);
        let err =
            PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &CorruptionSet::none(), Some(&pdf))
                .unwrap_err();
        assert_eq!(err, AttackError::ImpossibleObservation { observed: 3 });
    }

    /// Out-of-range indices and mismatched domains are errors, not panics.
    #[test]
    fn input_validation_is_typed() {
        let rel = release(0.3, 3);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(2);
        let err = PosteriorAnalysis::analyze(&rel, 7, &prior, &cands, &CorruptionSet::none(), None)
            .unwrap_err();
        assert!(matches!(err, AttackError::InvalidParameter(_)));
        let bad_prior = BackgroundKnowledge::uniform(N + 1);
        let err =
            PosteriorAnalysis::analyze(&rel, 0, &bad_prior, &cands, &CorruptionSet::none(), None)
                .unwrap_err();
        assert!(matches!(err, AttackError::InvalidParameter(_)));
        let short_others = vec![0.5, 0.5];
        let err = PosteriorAnalysis::analyze(
            &rel,
            0,
            &prior,
            &cands,
            &CorruptionSet::none(),
            Some(&short_others),
        )
        .unwrap_err();
        assert!(matches!(err, AttackError::InvalidParameter(_)));
    }

    #[test]
    fn growth_is_positive_only_for_qualifying_y() {
        let rel = release(0.4, 3);
        let prior = BackgroundKnowledge::uniform(N);
        let cands = owners(2);
        let a = PosteriorAnalysis::analyze(&rel, 0, &prior, &cands, &CorruptionSet::none(), None).unwrap();
        // Q containing y: growth > 0.
        let growth = |q: &Predicate| a.posterior_confidence(q) - prior.prior_confidence(q);
        let q_y = Predicate::exactly(N, Value(3));
        assert!(growth(&q_y) > 0.0);
        // Q avoiding y: growth <= 0 (Theorem 1).
        let q_not = Predicate::from_values(N, &[Value(0), Value(5)]);
        assert!(growth(&q_not) <= 1e-12);
    }
}
