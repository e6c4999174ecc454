//! Stable content digests for durability bookkeeping.
//!
//! The journal and the atomic commit protocol need a digest that is (a)
//! dependency-free, (b) stable across runs of the same binary, and (c) cheap
//! enough to hash a whole release on every checkpoint. FNV-1a over 64 bits
//! fits: it is not cryptographic — it detects torn writes and accidental
//! divergence, not adversarial tampering — and that is exactly the threat
//! model of crash recovery.

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// A streaming FNV-1a 64-bit hasher: the repo's one FNV implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(FNV_OFFSET)
    }
}

impl Fnv1a {
    /// A fresh hasher at the offset basis.
    pub fn new() -> Self {
        Self::default()
    }

    /// Absorbs `bytes` into the running digest.
    pub fn update(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Absorbs a `u64` in little-endian byte order.
    pub fn update_u64(&mut self, v: u64) -> &mut Self {
        self.update(&v.to_le_bytes())
    }

    /// The current digest value.
    pub fn finish(&self) -> u64 {
        self.0
    }
}

/// `Hasher` lets `Fnv1a` key hash maps (`BuildHasherDefault<Fnv1a>`).
impl std::hash::Hasher for Fnv1a {
    fn write(&mut self, bytes: &[u8]) {
        self.update(bytes);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// `io::Write` lets a writer stream into the digest instead of building
/// the bytes first.
impl std::io::Write for Fnv1a {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.update(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One-shot FNV-1a 64-bit digest of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    h.update(bytes);
    h.finish()
}

/// Derives the seed of a counter-based RNG substream.
///
/// The deterministic parallel engine gives every fixed-size work unit
/// (a chunk of rows, a QI-group, a redrawn row) its own RNG stream so the
/// draw sequence is a function of the unit's *logical index*, never of
/// thread scheduling: `master ⊕ FNV-1a(domain ‖ index)`. `master` is one
/// `next_u64` drawn from the owning phase's stream, `domain` names the kind
/// of unit (so e.g. chunk 3 and group 3 of the same phase decorrelate), and
/// `index` is the unit's position in the phase's canonical order.
pub fn substream_seed(master: u64, domain: &str, index: u64) -> u64 {
    let mut h = Fnv1a::new();
    h.update(domain.as_bytes()).update_u64(index);
    master ^ h.finish()
}

/// Renders a digest in the fixed-width hex form used by journal records and
/// commit manifests.
pub fn render_digest(d: u64) -> String {
    format!("{d:016x}")
}

/// Parses a digest rendered by [`render_digest`].
pub fn parse_digest(s: &str) -> Option<u64> {
    (s.len() == 16).then(|| u64::from_str_radix(s, 16).ok()).flatten()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let mut h = Fnv1a::new();
        h.update(b"foo").update(b"bar");
        assert_eq!(h.finish(), fnv1a(b"foobar"));
    }

    #[test]
    fn substreams_are_keyed_not_sequential() {
        let master = 0xDEAD_BEEF_u64;
        // Distinct indices and distinct domains give distinct streams.
        assert_ne!(substream_seed(master, "perturb", 0), substream_seed(master, "perturb", 1));
        assert_ne!(substream_seed(master, "perturb", 3), substream_seed(master, "sample", 3));
        // Pure function of (master, domain, index).
        assert_eq!(substream_seed(master, "sample", 7), substream_seed(master, "sample", 7));
        // Master shifts the whole family.
        assert_ne!(substream_seed(1, "perturb", 0), substream_seed(2, "perturb", 0));
    }

    #[test]
    fn digest_round_trips_through_text() {
        for d in [0u64, 1, u64::MAX, fnv1a(b"release")] {
            assert_eq!(parse_digest(&render_digest(d)), Some(d));
        }
        assert_eq!(parse_digest("xyz"), None);
        assert_eq!(parse_digest("00"), None);
        assert_eq!(parse_digest("zzzzzzzzzzzzzzzz"), None);
    }
}
