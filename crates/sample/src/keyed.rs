//! Keyed (counter-based) sampling for deterministic parallel execution.
//!
//! A sequential Phase 3 would walk the strata in order, advancing one RNG
//! stream — so the draw for stratum `g` would depend on how many strata
//! precede it, and parallel workers processing strata out of order would
//! change the output. A keyed draw breaks that chain: each stratum's draw
//! comes from its own substream, seeded as `substream_seed(master, domain,
//! index)` from one master value drawn up front. The result depends only
//! on `(master, index, stratum size)` — never on arrival order or thread
//! count — which is what lets the parallel engine shard Phase 3 while
//! staying byte-identical.

use acpp_data::substream_seed;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Substream domain label for Phase 3 stratum draws.
pub const SAMPLE_DOMAIN: &str = "sample";

/// Picks an index in `0..n` from the substream keyed by
/// `(master, domain, index)`. Every call with the same arguments returns the
/// same pick, regardless of any other draws made anywhere.
///
/// Returns `None` when `n == 0` (nothing to pick from).
pub fn keyed_pick(master: u64, domain: &str, index: u64, n: usize) -> Option<usize> {
    if n == 0 {
        return None;
    }
    let mut rng = StdRng::seed_from_u64(substream_seed(master, domain, index));
    Some(rng.gen_range(0..n))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keyed_pick_is_reproducible_and_in_range() {
        for n in [1usize, 2, 7, 1000] {
            for idx in 0..20u64 {
                let a = keyed_pick(42, SAMPLE_DOMAIN, idx, n).unwrap();
                let b = keyed_pick(42, SAMPLE_DOMAIN, idx, n).unwrap();
                assert_eq!(a, b);
                assert!(a < n);
            }
        }
        assert_eq!(keyed_pick(42, SAMPLE_DOMAIN, 0, 0), None);
    }

    #[test]
    fn different_masters_give_different_draw_vectors() {
        // Not a tautology (collisions are possible per stratum), but across
        // a 1000-member stratum two masters agreeing is vanishingly rare.
        let a = keyed_pick(1, SAMPLE_DOMAIN, 0, 1000);
        let b = keyed_pick(2, SAMPLE_DOMAIN, 0, 1000);
        assert_ne!(a, b);
    }

    #[test]
    fn keyed_draws_are_roughly_uniform() {
        let mut counts = [0u32; 4];
        let trials = 40_000u64;
        for master in 0..trials {
            counts[keyed_pick(master, SAMPLE_DOMAIN, 0, 4).unwrap()] += 1;
        }
        for &c in &counts {
            let f = c as f64 / trials as f64;
            assert!((f - 0.25).abs() < 0.01, "frequency {f}");
        }
    }
}
