//! Simple random sampling without replacement.

use rand::Rng;

/// Draws `min(k, n)` distinct indices uniformly from `0..n` via a partial
/// Fisher–Yates shuffle. The result is in draw order (itself a uniform
/// random permutation of the chosen set).
pub fn sample_without_replacement<R: Rng + ?Sized>(rng: &mut R, n: usize, k: usize) -> Vec<usize> {
    let take = k.min(n);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..take {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool.truncate(take);
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn sizes_and_distinctness() {
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_without_replacement(&mut rng, 100, 30);
        assert_eq!(s.len(), 30);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 30);
        assert!(sorted.iter().all(|&i| i < 100));
    }

    #[test]
    fn oversized_k_is_clamped() {
        let mut rng = StdRng::seed_from_u64(2);
        let s = sample_without_replacement(&mut rng, 5, 50);
        let mut sorted = s.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn inclusion_probability_is_uniform() {
        let mut rng = StdRng::seed_from_u64(3);
        let trials = 20_000;
        let mut hits = [0u32; 10];
        for _ in 0..trials {
            for i in sample_without_replacement(&mut rng, 10, 3) {
                hits[i] += 1;
            }
        }
        for &h in &hits {
            let f = h as f64 / trials as f64;
            assert!((f - 0.3).abs() < 0.02, "inclusion frequency {f}");
        }
    }
}
