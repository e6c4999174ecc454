//! Persistent (memoized) perturbation.
//!
//! A [`PersistentChannel`] wraps a randomized-response [`Channel`] and
//! caches, per owner, the `(input, output)` pair of the first draw. As long
//! as an owner's true sensitive value is unchanged, every later release
//! publishes the *same* perturbed value, so the adversary's cross-release
//! observations are perfectly correlated and composition gains nothing
//! (see [`crate::composition`]). If the owner's true value changes (a
//! genuine update), a fresh draw is made — the new value is new
//! information and gets its own independent cover.

use acpp_data::{OwnerId, Table, Value};
use acpp_perturb::Channel;
use rand::Rng;
use std::collections::HashMap;

/// A channel with per-owner memoization.
///
/// ```
/// use acpp_data::{OwnerId, Value};
/// use acpp_perturb::Channel;
/// use acpp_republish::PersistentChannel;
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut pc = PersistentChannel::new(Channel::uniform(0.3, 50));
/// let mut rng = StdRng::seed_from_u64(1);
/// let first = pc.apply(&mut rng, OwnerId(7), Value(12));
/// // Re-publication of the unchanged value reuses the draw.
/// assert_eq!(pc.apply(&mut rng, OwnerId(7), Value(12)), first);
/// ```
#[derive(Debug, Clone)]
pub struct PersistentChannel {
    channel: Channel,
    memo: HashMap<OwnerId, (Value, Value)>,
}

impl PersistentChannel {
    /// Wraps a channel.
    pub fn new(channel: Channel) -> Self {
        PersistentChannel { channel, memo: HashMap::new() }
    }

    /// The underlying memoryless channel.
    pub fn channel(&self) -> &Channel {
        &self.channel
    }

    /// Number of owners with a cached draw.
    pub fn memoized(&self) -> usize {
        self.memo.len()
    }

    /// Perturbs `value` for `owner`: returns the cached output if the owner
    /// was seen before with the same input, otherwise draws fresh and
    /// caches.
    pub fn apply<R: Rng + ?Sized>(&mut self, rng: &mut R, owner: OwnerId, value: Value) -> Value {
        match self.memo.get(&owner) {
            Some(&(input, output)) if input == value => output,
            _ => {
                let output = self.channel.apply(rng, value);
                self.memo.insert(owner, (value, output));
                output
            }
        }
    }

    /// Perturbs a whole table's sensitive column persistently, producing
    /// the `D^p` of the next release.
    pub fn perturb_table<R: Rng + ?Sized>(&mut self, rng: &mut R, table: &Table) -> Table {
        assert_eq!(
            self.channel.domain_size(),
            table.schema().sensitive_domain_size(),
            "channel domain does not match sensitive domain"
        );
        let mut out = table.clone();
        for row in 0..out.len() {
            let owner = out.owner(row);
            let original = out.sensitive_value(row);
            let perturbed = self.apply(rng, owner, original);
            out.set_sensitive_value(row, perturbed);
        }
        out
    }

    /// Drops the memo of owners no longer present (call after deletions to
    /// bound memory; re-joining owners then get fresh draws, which is
    /// correct — their re-joined tuple is a new fact).
    pub fn retain_owners(&mut self, alive: impl Fn(OwnerId) -> bool) {
        self.memo.retain(|&o, _| alive(o));
    }

    /// Perturbs a whole table's sensitive column **without advancing the
    /// memo**: cached draws are reused, fresh draws are collected into the
    /// returned [`StagedDraws`]. Call [`PersistentChannel::absorb`] once the
    /// release built from the staged table has durably committed — and drop
    /// the staged draws if it has not. This is the two-step protocol that
    /// keeps a failed or crashed release from leaving phantom state behind.
    pub fn stage_table<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        table: &Table,
    ) -> (Table, StagedDraws) {
        let (outputs, staged) = self.stage_rows(rng, table, 0);
        let mut out = table.clone();
        for (row, output) in outputs.into_iter().enumerate() {
            out.set_sensitive_value(row, output);
        }
        (out, staged)
    }

    /// The staging pass of [`PersistentChannel::stage_table`] over the rows
    /// `from..` of `table`, in row order: returns their perturbed values
    /// and the fresh draws. A delta release stages only its inserted tail
    /// this way; every row before it is a survivor whose draw the memo
    /// already holds.
    pub(crate) fn stage_rows<R: Rng + ?Sized>(
        &self,
        rng: &mut R,
        table: &Table,
        from: usize,
    ) -> (Vec<Value>, StagedDraws) {
        assert_eq!(
            self.channel.domain_size(),
            table.schema().sensitive_domain_size(),
            "channel domain does not match sensitive domain"
        );
        let mut staged = StagedDraws::default();
        let mut out = Vec::with_capacity(table.len().saturating_sub(from));
        for row in from..table.len() {
            let owner = table.owner(row);
            let original = table.sensitive_value(row);
            let cached = self
                .memo
                .get(&owner)
                .or_else(|| staged.draws.get(&owner))
                .filter(|&&(input, _)| input == original)
                .map(|&(_, output)| output);
            out.push(match cached {
                Some(output) => output,
                None => {
                    let output = self.channel.apply(rng, original);
                    staged.draws.insert(owner, (original, output));
                    output
                }
            });
        }
        (out, staged)
    }

    /// The memoized output for `owner` if the memo holds a draw for exactly
    /// this input `value`.
    pub(crate) fn cached(&self, owner: OwnerId, value: Value) -> Option<Value> {
        self.memo.get(&owner).filter(|&&(input, _)| input == value).map(|&(_, output)| output)
    }

    /// Drops `owner`'s draw, if any: one lookup, not a scan of the memo.
    pub(crate) fn forget(&mut self, owner: OwnerId) {
        self.memo.remove(&owner);
    }

    /// Merges draws staged by [`PersistentChannel::stage_table`] into the
    /// memo, making them the persistent observations of later releases.
    pub fn absorb(&mut self, staged: StagedDraws) {
        self.memo.extend(staged.draws);
    }
}

/// Fresh `(input, output)` draws produced by a staged (not yet committed)
/// perturbation pass. See [`PersistentChannel::stage_table`].
#[derive(Debug, Clone, Default)]
pub struct StagedDraws {
    draws: HashMap<OwnerId, (Value, Value)>,
}

impl StagedDraws {
    /// Number of fresh draws staged.
    pub fn len(&self) -> usize {
        self.draws.len()
    }

    /// True when no fresh draw was needed (all owners were memoized).
    pub fn is_empty(&self) -> bool {
        self.draws.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::{Attribute, Domain, Schema};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(values: &[u32]) -> Table {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for (i, &v) in values.iter().enumerate() {
            t.push_row(OwnerId(i as u32), &[Value(i as u32 % 8), Value(v)]).unwrap();
        }
        t
    }

    #[test]
    fn repeated_releases_are_identical_for_unchanged_data() {
        let t = table(&[1, 2, 3, 4, 5]);
        let mut pc = PersistentChannel::new(Channel::uniform(0.3, 10));
        let mut rng = StdRng::seed_from_u64(1);
        let r1 = pc.perturb_table(&mut rng, &t);
        let r2 = pc.perturb_table(&mut rng, &t);
        let r3 = pc.perturb_table(&mut rng, &t);
        assert_eq!(r1, r2);
        assert_eq!(r2, r3);
        assert_eq!(pc.memoized(), 5);
    }

    #[test]
    fn changed_values_get_fresh_draws() {
        let mut pc = PersistentChannel::new(Channel::uniform(0.0, 1000));
        let mut rng = StdRng::seed_from_u64(2);
        let o = OwnerId(7);
        let y1 = pc.apply(&mut rng, o, Value(3));
        let y1_again = pc.apply(&mut rng, o, Value(3));
        assert_eq!(y1, y1_again, "unchanged input reuses the draw");
        let y2 = pc.apply(&mut rng, o, Value(4));
        // With p = 0 over 1000 values, a fresh draw almost surely differs.
        assert_ne!((Value(4), y2), (Value(3), y1));
        // And the new draw is now the cached one.
        assert_eq!(pc.apply(&mut rng, o, Value(4)), y2);
    }

    #[test]
    fn retention_statistics_match_the_channel() {
        let values: Vec<u32> = (0..20_000).map(|i| i % 10).collect();
        let t = table(&values);
        let mut pc = PersistentChannel::new(Channel::uniform(0.4, 10));
        let mut rng = StdRng::seed_from_u64(3);
        let r = pc.perturb_table(&mut rng, &t);
        let kept = t
            .rows()
            .filter(|&row| r.sensitive_value(row) == t.sensitive_value(row))
            .count() as f64
            / t.len() as f64;
        let expected = 0.4 + 0.6 / 10.0;
        assert!((kept - expected).abs() < 0.01, "kept {kept} vs {expected}");
    }

    #[test]
    fn staged_draws_do_not_advance_the_memo_until_absorbed() {
        let t = table(&[1, 2, 3, 4, 5]);
        let mut pc = PersistentChannel::new(Channel::uniform(0.3, 10));
        let mut rng = StdRng::seed_from_u64(9);
        let (staged_table, draws) = pc.stage_table(&mut rng, &t);
        assert_eq!(pc.memoized(), 0, "staging must not mutate the channel");
        assert_eq!(draws.len(), 5);
        // Dropping the draws models a failed commit: the next attempt is a
        // clean slate, not a phantom release.
        let (retry_table, retry_draws) = pc.stage_table(&mut rng, &t);
        assert_eq!(pc.memoized(), 0);
        assert_eq!(retry_draws.len(), 5);
        // Absorbing models a successful commit: draws become persistent.
        pc.absorb(retry_draws);
        assert_eq!(pc.memoized(), 5);
        let after = pc.perturb_table(&mut rng, &t);
        assert_eq!(after, retry_table, "absorbed draws persist verbatim");
        let _ = staged_table;
    }

    #[test]
    fn staged_pass_reuses_memoized_draws() {
        let t = table(&[1, 2, 3]);
        let mut pc = PersistentChannel::new(Channel::uniform(0.3, 10));
        let mut rng = StdRng::seed_from_u64(10);
        let committed = pc.perturb_table(&mut rng, &t);
        let (staged, draws) = pc.stage_table(&mut rng, &t);
        assert_eq!(staged, committed, "memoized owners contribute cached draws");
        assert!(draws.is_empty());
    }

    #[test]
    fn retain_owners_prunes_the_memo() {
        let t = table(&[1, 2, 3, 4]);
        let mut pc = PersistentChannel::new(Channel::uniform(0.3, 10));
        let mut rng = StdRng::seed_from_u64(4);
        let _ = pc.perturb_table(&mut rng, &t);
        assert_eq!(pc.memoized(), 4);
        pc.retain_owners(|o| o.raw() < 2);
        assert_eq!(pc.memoized(), 2);
    }
}
