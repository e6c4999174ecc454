//! Configuration of the PG pipeline.

use crate::error::CoreError;
use crate::params::k_from_sampling_rate;

/// Which Phase-2 global-recoding algorithm to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Phase2Algorithm {
    /// Strict Mondrian multidimensional partitioning (reference [16] of the
    /// paper). The default: finest partitions, best utility.
    #[default]
    Mondrian,
    /// Top-down specialization over taxonomy trees (reference [11], the
    /// algorithm the paper adapts). Single-dimensional cuts.
    Tds,
    /// Full-domain generalization via lattice search (reference [13]).
    /// Exponential worst case; intended for small tables and ablations.
    FullDomain,
}

impl Phase2Algorithm {
    /// Compile-time telemetry label for this algorithm.
    pub fn label(self) -> &'static str {
        match self {
            Phase2Algorithm::Mondrian => "mondrian",
            Phase2Algorithm::Tds => "tds",
            Phase2Algorithm::FullDomain => "full_domain",
        }
    }

    /// The spelling the journal, the CLI and its job file write.
    pub fn wire_name(self) -> &'static str {
        match self {
            Phase2Algorithm::Mondrian => "mondrian",
            Phase2Algorithm::Tds => "tds",
            Phase2Algorithm::FullDomain => "full-domain",
        }
    }
}

/// Accepts the wire spelling ([`Phase2Algorithm::wire_name`]) and the
/// telemetry label ([`Phase2Algorithm::label`]).
impl std::str::FromStr for Phase2Algorithm {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "mondrian" => Ok(Phase2Algorithm::Mondrian),
            "tds" => Ok(Phase2Algorithm::Tds),
            "full-domain" | "full_domain" => Ok(Phase2Algorithm::FullDomain),
            other => Err(format!(
                "unknown algorithm `{other}` (expected mondrian, tds, or full-domain)"
            )),
        }
    }
}

/// Parameters of a PG publication run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PgConfig {
    /// Retention probability `p ∈ [0, 1]` of Phase 1.
    pub p: f64,
    /// Minimum QI-group size `k ≥ 1` of Phase 2 (`= ⌈1/s⌉`).
    pub k: usize,
    /// The Phase-2 algorithm.
    pub algorithm: Phase2Algorithm,
}

impl PgConfig {
    /// Creates a config from `p` and `k` with the default algorithm.
    pub fn new(p: f64, k: usize) -> Result<Self, CoreError> {
        let cfg = PgConfig { p, k, algorithm: Phase2Algorithm::default() };
        cfg.validate()?;
        Ok(cfg)
    }

    /// Creates a config from `p` and the *Cardinality* sampling rate `s`,
    /// deriving `k = ⌈1/s⌉` (Section IV of the paper).
    pub fn from_sampling_rate(p: f64, s: f64) -> Result<Self, CoreError> {
        Self::new(p, k_from_sampling_rate(s)?)
    }

    /// Replaces the Phase-2 algorithm.
    pub fn with_algorithm(mut self, algorithm: Phase2Algorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Validates the parameter ranges.
    pub fn validate(&self) -> Result<(), CoreError> {
        if !(0.0..=1.0).contains(&self.p) {
            return Err(CoreError::InvalidParameter(format!(
                "retention probability must be in [0,1], got {}",
                self.p
            )));
        }
        if self.k == 0 {
            return Err(CoreError::InvalidParameter("k must be at least 1".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_validation() {
        let cfg = PgConfig::new(0.3, 6).unwrap();
        assert_eq!(cfg.algorithm, Phase2Algorithm::Mondrian);
        assert!(PgConfig::new(1.5, 6).is_err());
        assert!(PgConfig::new(0.3, 0).is_err());
    }

    #[test]
    fn from_sampling_rate_derives_k() {
        // The paper's running example: p = 0.25, s = 0.5 ⇒ k = 2.
        let cfg = PgConfig::from_sampling_rate(0.25, 0.5).unwrap();
        assert_eq!(cfg.k, 2);
        assert!(PgConfig::from_sampling_rate(0.25, 0.0).is_err());
    }

    #[test]
    fn algorithm_override() {
        let cfg = PgConfig::new(0.3, 6).unwrap().with_algorithm(Phase2Algorithm::Tds);
        assert_eq!(cfg.algorithm, Phase2Algorithm::Tds);
    }
}
