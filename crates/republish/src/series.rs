//! Publishing a *sequence* of PG releases over evolving microdata.
//!
//! A [`Republisher`] holds the cross-release state that keeps repeated
//! publication safe:
//!
//! * **persistent perturbation** — an unchanged tuple contributes the same
//!   observed value to every release (no averaging attack);
//! * **persistent sampling** — a QI-group whose membership still contains
//!   its previous representative re-publishes the *same* representative,
//!   so re-releases of unchanged data are bit-identical and an adversary
//!   diffing two releases of an unchanged region learns nothing.
//!
//! A full release ([`Republisher::prepare_next`]) partitions its table
//! from scratch; Phase 2 is deterministic, so unchanged data yields
//! unchanged regions. A delta release ([`Republisher::prepare_delta`])
//! repairs the previous Mondrian partition instead, and recomputes only
//! the regions its batch touched: every clean region republishes the
//! previous release's tuple, byte for byte what a whole-table recompute
//! would produce (DESIGN.md §17, "What a delta recomputes").
//!
//! Both rest on the paper's standing assumption that every row has its
//! own owner. With two rows per owner the memo keeps one draw, so each
//! release would draw afresh for the other row; a full release therefore
//! rejects a table whose owners repeat.

use crate::delta::{apply_updates_classified, Update};
use crate::error::RepublishError;
use crate::persistent::{PersistentChannel, StagedDraws};
use acpp_core::published::{PublishedTable, PublishedTuple};
use acpp_core::{CoreError, Phase2Algorithm, PgConfig, Threads};
use acpp_data::{OwnerId, Table, Taxonomy, Value};
use acpp_generalize::incognito::{full_domain, LatticeOptions};
use acpp_generalize::mondrian::{partition, MondrianConfig, RepairStats, RetainedTree};
use acpp_generalize::scheme::group_from_box_assignment;
use acpp_generalize::tds::{generalize, TdsOptions};
use acpp_generalize::{Grouping, Recoding, Signature};
use acpp_perturb::Channel;
use rand::Rng;
use std::collections::{HashMap, HashSet};

/// A release-independent identifier of a generalized region: the per-QI
/// code intervals. Recoding [`Signature`]s are only meaningful within one
/// release (Mondrian box indices renumber on every partition), so the
/// cross-release representative memo is keyed by region instead.
type RegionKey = Vec<(u32, u32)>;

fn region_key(
    recoding: &Recoding,
    taxonomies: &[Taxonomy],
    sig: &Signature,
    qi_arity: usize,
) -> RegionKey {
    (0..qi_arity).map(|pos| recoding.interval(taxonomies, sig, pos)).collect()
}

/// The previous release's table and Mondrian split tree, retained so the
/// next release can be computed as a *repair* of the old partition instead
/// of a from-scratch re-partition (see [`Republisher::prepare_delta`]).
#[derive(Debug, Clone)]
struct RetainedState {
    table: Table,
    tree: RetainedTree,
    /// The release's sensitive value for each leaf of `tree`: what the next
    /// delta republishes for a leaf it leaves clean. `None` once
    /// [`Republisher::forget_departed`] has run, since that may prune a
    /// survivor's memo entry; the next delta then recomputes every region.
    leaf_sensitive: Option<Vec<Value>>,
}

impl RetainedState {
    /// Retains `table` and its partition `tree` together with the leaf
    /// values of `published`, the release prepared from them.
    fn new(table: Table, tree: RetainedTree, published: &PublishedTable) -> Self {
        let mut leaf_sensitive = vec![Value(0); tree.len()];
        for t in published.tuples() {
            if let Some(slot) = t.signature.first().and_then(|&b| leaf_sensitive.get_mut(b as usize))
            {
                *slot = t.sensitive;
            }
        }
        RetainedState { table, tree, leaf_sensitive: Some(leaf_sensitive) }
    }
}

/// What a delta release takes over from the previous one: the clean
/// leaves' published values, and the fact that only the inserted tail can
/// miss the channel memo.
struct Carry<'a> {
    /// The repaired partition's leaf for every row.
    assignment: &'a [u32],
    /// The repaired partition's rows per leaf.
    counts: &'a [usize],
    /// Per leaf: the previous release's sensitive value if the leaf is
    /// clean, `None` if Phase 3 elects in it.
    carried: Vec<Option<Value>>,
    /// Rows from here on are the batch's inserts; every row before is a
    /// survivor whose draw the memo holds.
    staged_from: usize,
}

impl Carry<'_> {
    /// The regions, from one pass over the assignment: each leaf in order
    /// of first appearance (the group order of a from-scratch grouping)
    /// with its size, and with its member rows if it is not carried.
    ///
    /// The members of every region that is not carried go into `members`,
    /// one run per region at an offset assigned when its leaf first
    /// appears and sized by the leaf's count, so the pass allocates once
    /// whatever the churn.
    ///
    /// # Errors
    /// [`CoreError::PostconditionViolated`] if a leaf's count differs from
    /// the rows the assignment gives it.
    fn regions<'m>(&self, members: &'m mut Vec<usize>) -> Result<Vec<Region<'m>>, CoreError> {
        let elected = |leaf: usize| if self.carried[leaf].is_none() { self.counts[leaf] } else { 0 };
        members.clear();
        members.resize((0..self.counts.len()).map(elected).sum(), 0);
        // Per region in order of first appearance: (leaf, size, offset of
        // its members, room for members). A carried region has no room.
        let mut runs: Vec<(u32, usize, usize, usize)> = Vec::with_capacity(self.counts.len());
        let mut region_of = vec![u32::MAX; self.counts.len()];
        let mut next = 0usize;
        for (row, &leaf) in self.assignment.iter().enumerate() {
            let slot = &mut region_of[leaf as usize];
            if *slot == u32::MAX {
                *slot = runs.len() as u32;
                let room = elected(leaf as usize);
                runs.push((leaf, 0, next, room));
                next += room;
            }
            let (_, size, at, room) = &mut runs[*slot as usize];
            if *size < *room {
                members[*at + *size] = row;
            }
            *size += 1;
        }
        let members: &'m [usize] = members;
        runs.into_iter()
            .map(|(leaf, size, at, room)| {
                let leaf = leaf as usize;
                if size != self.counts[leaf] {
                    return Err(CoreError::PostconditionViolated(format!(
                        "leaf {leaf} holds {size} rows but the repaired tree counts {}",
                        self.counts[leaf]
                    )));
                }
                Ok(Region {
                    signature: vec![leaf as u32],
                    size,
                    members: &members[at..at + room],
                    carried: self.carried[leaf],
                })
            })
            .collect()
    }
}

/// A region as Phase 3 consumes it.
struct Region<'a> {
    signature: Signature,
    size: usize,
    /// Member rows in ascending order; empty when the region is carried.
    members: &'a [usize],
    /// The sensitive value a carried region republishes.
    carried: Option<Value>,
}

/// A fully computed release whose cross-release side effects have **not**
/// yet been applied. Produced by [`Republisher::prepare_next`] or
/// [`Republisher::prepare_delta`]; consumed by
/// [`Republisher::commit_prepared`]. Dropping it (e.g. because the durable
/// commit of the release failed) rolls everything back for free.
#[derive(Debug, Clone)]
pub struct PreparedRelease {
    published: PublishedTable,
    draws: StagedDraws,
    new_representatives: Vec<(RegionKey, OwnerId)>,
    retained: Option<RetainedState>,
    departed: Vec<OwnerId>,
    repair: Option<RepairStats>,
    /// The repair's carry map (new leaf → the previous release's leaf, or
    /// `u32::MAX`), kept only when the delta carried: then every leaf it
    /// maps publishes the tuple line that leaf published last time.
    carry: Option<Vec<u32>>,
}

impl PreparedRelease {
    /// The release the commit would publish.
    pub fn published(&self) -> &PublishedTable {
        &self.published
    }

    /// The microdata version this release describes, when the prepare path
    /// retained it (Mondrian releases over non-empty tables). Delta callers
    /// use this to learn the post-batch table without re-applying updates.
    pub fn next_table(&self) -> Option<&Table> {
        self.retained.as_ref().map(|s| &s.table)
    }

    /// Repair statistics, present only for releases prepared by
    /// [`Republisher::prepare_delta`].
    pub fn repair_stats(&self) -> Option<RepairStats> {
        self.repair
    }

    /// The carry map, present only for a delta that carried.
    pub(crate) fn carry(&self) -> Option<&[u32]> {
        self.carry.as_deref()
    }
}

/// Stateful publisher of a release series.
#[derive(Debug, Clone)]
pub struct Republisher {
    config: PgConfig,
    channel: PersistentChannel,
    representatives: HashMap<RegionKey, OwnerId>,
    releases: usize,
    threads: Threads,
    retained: Option<RetainedState>,
}

impl Republisher {
    /// Creates a republisher for a sensitive domain of size `us`.
    pub fn new(config: PgConfig, us: u32) -> Result<Self, CoreError> {
        config.validate()?;
        Ok(Republisher {
            config,
            channel: PersistentChannel::new(Channel::uniform(config.p, us)),
            representatives: HashMap::new(),
            releases: 0,
            threads: Threads::Fixed(1),
            retained: None,
        })
    }

    /// Sets the worker-pool size used by Phase 2 partitioning. Releases are
    /// byte-identical for every setting; the knob only affects wall-clock
    /// time, so it is deliberately *not* part of the cross-release state.
    #[must_use]
    pub fn with_threads(mut self, threads: Threads) -> Self {
        self.threads = threads;
        self
    }

    /// Number of releases published so far.
    pub fn releases(&self) -> usize {
        self.releases
    }

    /// Publishes the next release of `table`.
    ///
    /// Equivalent to [`Republisher::prepare_next`] followed immediately by
    /// [`Republisher::commit_prepared`]. Callers that must make the release
    /// durable before the series state advances (see
    /// [`crate::durable::SeriesPublisher`]) use the two-step form directly.
    pub fn publish_next<R: Rng + ?Sized>(
        &mut self,
        table: &Table,
        taxonomies: &[Taxonomy],
        rng: &mut R,
    ) -> Result<PublishedTable, CoreError> {
        let prepared = self.prepare_next(table, taxonomies, rng)?;
        Ok(self.commit_prepared(prepared))
    }

    /// Computes the next release **without advancing any cross-release
    /// state**: the channel memo, the representative memo, and the release
    /// counter are untouched. On `Err` — or if the returned
    /// [`PreparedRelease`] is dropped because its durable commit failed —
    /// the republisher is exactly as it was, so no phantom release can leak
    /// correlated randomness into later releases.
    ///
    /// # Errors
    /// [`CoreError::InvalidParameter`] if two rows share an owner (see the
    /// module docs), and any error of Phases 1–3.
    pub fn prepare_next<R: Rng + ?Sized>(
        &self,
        table: &Table,
        taxonomies: &[Taxonomy],
        rng: &mut R,
    ) -> Result<PreparedRelease, CoreError> {
        if !table.owners_distinct() {
            let mut seen = HashSet::with_capacity(table.len());
            if let Some(owner) = table.owners().iter().find(|&&o| !seen.insert(o)) {
                return Err(CoreError::InvalidParameter(format!(
                    "owner {owner} owns more than one row; a series needs distinct owners, \
                     or every release draws afresh for the extra rows"
                )));
            }
        }
        acpp_generalize::scheme::check_taxonomies(table.schema(), taxonomies)
            .map_err(CoreError::Generalize)?;
        // Phase 2: deterministic re-partition of the current version. The
        // Mondrian split tree (and its row→box assignment) is retained
        // alongside the release so the next version can be prepared as a
        // repair (`prepare_delta`) instead of another from-scratch
        // partition — and so grouping reads the assignment straight off
        // the build instead of locating every row through the tree.
        let mut grouped: Option<(Grouping, Vec<Signature>)> = None;
        let (recoding, tree) = match self.config.algorithm {
            Phase2Algorithm::Mondrian => {
                if table.is_empty() {
                    (Recoding::total(taxonomies), None)
                } else {
                    let (tree, _) = partition(
                        table,
                        table.schema(),
                        MondrianConfig::new(self.config.k).with_threads(self.threads.resolve()),
                    )?;
                    grouped = Some(group_from_box_assignment(
                        tree.assignment(),
                        tree.len(),
                        self.threads.resolve(),
                    ));
                    (tree.recoding(), Some(tree))
                }
            }
            Phase2Algorithm::Tds => {
                (generalize(table, taxonomies, TdsOptions::new(self.config.k))?, None)
            }
            Phase2Algorithm::FullDomain => {
                if table.is_empty() {
                    (Recoding::total(taxonomies), None)
                } else {
                    (full_domain(table, taxonomies, LatticeOptions::new(self.config.k))?.0, None)
                }
            }
        };
        let mut prepared = self.finish_prepare(table, taxonomies, recoding, grouped, None, rng)?;
        prepared.retained =
            tree.map(|tree| RetainedState::new(table.clone(), tree, &prepared.published));
        Ok(prepared)
    }

    /// Prepares the next release as an *incremental repair* of the previous
    /// one: applies `updates` to the retained previous table, classifies
    /// which Mondrian leaves the batch touches, and repairs only those
    /// (merge underfull leaves up to their nearest k-covering ancestor,
    /// re-cut overfull ones) while every untouched leaf keeps its box — and
    /// therefore its region key, its memoized representative, and its
    /// persistent draw — verbatim.
    ///
    /// Only the batch's inserted rows go through Phase 1, and Phase 3
    /// elects only in the regions the repair did not carry; every carried
    /// region republishes the previous release's tuple. The release, the
    /// staged draws and the new representatives are byte-identical to a
    /// whole-table Phase 1 and 3 over the repaired partition, which is what
    /// the first delta after [`Republisher::forget_departed`] runs.
    ///
    /// Like [`Republisher::prepare_next`] this advances **no** cross-release
    /// state; commit with [`Republisher::commit_prepared`]. Owners deleted
    /// by the batch (and not re-inserted) are pruned from the channel and
    /// representative memos at commit time, so a delta series never needs
    /// [`Republisher::forget_departed`].
    ///
    /// # Errors
    /// * [`RepublishError::InvalidParameter`] if the algorithm is not
    ///   Mondrian or no full release has been committed yet;
    /// * [`RepublishError::Io`] if the update batch is invalid
    ///   (see [`apply_updates`]);
    /// * [`RepublishError::Core`] if the repaired release fails its
    ///   k-anonymity postcondition or the table shrinks below `k`.
    pub fn prepare_delta<R: Rng + ?Sized>(
        &self,
        updates: &[Update],
        taxonomies: &[Taxonomy],
        rng: &mut R,
    ) -> Result<PreparedRelease, RepublishError> {
        if self.config.algorithm != Phase2Algorithm::Mondrian {
            return Err(RepublishError::InvalidParameter(
                "delta republication requires the mondrian algorithm".to_string(),
            ));
        }
        let Some(state) = &self.retained else {
            return Err(RepublishError::InvalidParameter(
                "no retained partition: commit a full release before a delta".to_string(),
            ));
        };
        // One scan applies the batch AND classifies it positionally: the
        // deleted rows' previous indices, the inserts' tail range, and the
        // owners departing for good all fall out of `apply_updates`'s
        // single pass — nothing about the batch is derived twice.
        let classified =
            apply_updates_classified(&state.table, updates).map_err(RepublishError::Io)?;
        let next = classified.next;
        acpp_generalize::scheme::check_taxonomies(next.schema(), taxonomies)
            .map_err(CoreError::Generalize)?;
        let inserted_rows: Vec<usize> = classified.inserted_range.clone().collect();

        // Phase 2 as repair: built from the committed tree, which is only
        // read, so a failed or dropped prepare leaves it as it was.
        // Deletions resolve through the tree's retained row→box assignment
        // (no per-row walks), and the repaired assignment then feeds
        // grouping directly.
        let (tree, stats, carried_from) = state
            .tree
            .apply_delta(
                &next,
                next.schema(),
                &inserted_rows,
                &classified.deleted_rows,
                MondrianConfig::new(self.config.k).with_threads(self.threads.resolve()),
            )
            .map_err(CoreError::Generalize)?;
        let recoding = tree.recoding();
        let carry = state.leaf_sensitive.as_ref().map(|prev| Carry {
            assignment: tree.assignment(),
            counts: tree.counts(),
            carried: carried_from
                .iter()
                .map(|&from| if from == u32::MAX { None } else { prev.get(from as usize).copied() })
                .collect(),
            staged_from: classified.inserted_range.start,
        });
        let mut prepared = self.finish_prepare(&next, taxonomies, recoding, None, carry, rng)?;
        prepared.retained = Some(RetainedState::new(next, tree, &prepared.published));
        prepared.departed = classified.departed;
        prepared.repair = Some(stats);
        prepared.carry = state.leaf_sensitive.is_some().then_some(carried_from);
        Ok(prepared)
    }

    /// Publishes the next release by incremental repair: equivalent to
    /// [`Republisher::prepare_delta`] followed immediately by
    /// [`Republisher::commit_prepared`].
    pub fn publish_delta<R: Rng + ?Sized>(
        &mut self,
        updates: &[Update],
        taxonomies: &[Taxonomy],
        rng: &mut R,
    ) -> Result<PublishedTable, RepublishError> {
        let prepared = self.prepare_delta(updates, taxonomies, rng)?;
        Ok(self.commit_prepared(prepared))
    }

    /// Phases 1 and 3 shared by the from-scratch and delta prepare paths:
    /// stage persistent perturbation, group under `recoding`, check the
    /// k-anonymity postcondition, and elect representatives persistently.
    /// Phase 2 never consumes randomness, so staging Phase 1 here (after
    /// partitioning) draws the same stream as staging it before.
    ///
    /// Without a carry every row is staged and every group elects: Mondrian
    /// full releases pass the grouping they read off the partition's
    /// row→box assignment (bit-identical to `recoding.group`, minus the
    /// per-row tree walks); other callers leave `grouped` `None` and group
    /// here. With a delta's carry only the inserted tail is staged, one
    /// pass over the repaired assignment groups the rows, and only the
    /// regions not carried elect. Survivors hit the memo and carried
    /// regions would re-elect their memoized representative, so both make
    /// the same RNG calls in the same order and publish the same bytes.
    fn finish_prepare<R: Rng + ?Sized>(
        &self,
        table: &Table,
        taxonomies: &[Taxonomy],
        recoding: Recoding,
        grouped: Option<(Grouping, Vec<Signature>)>,
        carry: Option<Carry<'_>>,
        rng: &mut R,
    ) -> Result<PreparedRelease, CoreError> {
        // Phase 1: persistent perturbation, staged (memo not advanced).
        let staged_from = carry.as_ref().map_or(0, |c| c.staged_from);
        let (staged, draws) = self.channel.stage_rows(rng, table, staged_from);
        let perturbed = |row: usize| match row.checked_sub(staged_from) {
            Some(i) => Ok(staged[i]),
            None => {
                let owner = table.owner(row);
                self.channel.cached(owner, table.sensitive_value(row)).ok_or_else(|| {
                    CoreError::PostconditionViolated(format!(
                        "survivor {owner} of a delta has no memoized draw"
                    ))
                })
            }
        };

        let (grouping, signatures);
        let mut members = Vec::new();
        let regions: Vec<Region<'_>> = match &carry {
            None => {
                (grouping, signatures) =
                    grouped.unwrap_or_else(|| recoding.group(table, taxonomies));
                grouping
                    .iter_nonempty()
                    .map(|(gid, members)| Region {
                        signature: signatures[gid.index()].clone(),
                        size: members.len(),
                        members,
                        carried: None,
                    })
                    .collect()
            }
            Some(carry) => carry.regions(&mut members)?,
        };
        if regions.iter().any(|r| r.size < self.config.k) {
            return Err(CoreError::PostconditionViolated(format!(
                "phase 2 produced a group smaller than k = {}",
                self.config.k
            )));
        }

        // Phase 3: persistent stratified sampling, keyed by stable region.
        // Newly elected representatives are collected, not inserted: they
        // only become persistent when the release commits.
        let qi_arity = table.schema().qi_arity();
        let mut tuples = Vec::with_capacity(regions.len());
        let mut new_representatives: Vec<(RegionKey, OwnerId)> = Vec::new();
        for region in regions {
            let sensitive = match region.carried {
                Some(value) => value,
                None => {
                    let members = region.members;
                    let key = region_key(&recoding, taxonomies, &region.signature, qi_arity);
                    let keep = self.representatives.get(&key).and_then(|&owner| {
                        members.iter().copied().find(|&r| table.owner(r) == owner)
                    });
                    let pick = match keep {
                        Some(row) => row,
                        None => {
                            let row = members[rng.gen_range(0..members.len())];
                            new_representatives.push((key, table.owner(row)));
                            row
                        }
                    };
                    perturbed(pick)?
                }
            };
            tuples.push(PublishedTuple {
                signature: region.signature,
                sensitive,
                group_size: region.size,
            });
        }

        let published = PublishedTable::new(
            table.schema().clone(),
            recoding,
            tuples,
            self.config.p,
            self.config.k,
        );
        Ok(PreparedRelease {
            published,
            draws,
            new_representatives,
            retained: None,
            departed: Vec::new(),
            repair: None,
            carry: None,
        })
    }

    /// Commits a release prepared by [`Republisher::prepare_next`] or
    /// [`Republisher::prepare_delta`]: absorbs its staged perturbation
    /// draws, persists its newly elected representatives, prunes owners the
    /// release's update batch removed, installs the retained partition, and
    /// advances the release counter. Call this only after the release has
    /// landed wherever it needs to land.
    pub fn commit_prepared(&mut self, prepared: PreparedRelease) -> PublishedTable {
        self.channel.absorb(prepared.draws);
        for (key, owner) in prepared.new_representatives {
            // A plain insert, not `or_insert`: when a region's memoized
            // representative departs, the prepare path elects a new one and
            // that election must *replace* the stale entry. Keeping the old
            // entry forces a fresh random election every later release, so
            // the region's observed value churns — exactly the cross-release
            // diff leak persistence exists to prevent.
            self.representatives.insert(key, owner);
        }
        if !prepared.departed.is_empty() {
            for &owner in &prepared.departed {
                self.channel.forget(owner);
            }
            let gone: HashSet<OwnerId> = prepared.departed.iter().copied().collect();
            self.representatives.retain(|_, o| !gone.contains(o));
        }
        self.retained = prepared.retained;
        self.releases += 1;
        prepared.published
    }

    /// Prunes cross-release state for owners that have left the microdata.
    ///
    /// `table` need not be the retained version, so a survivor's draw may
    /// go with the pruning: the next delta carries nothing and recomputes
    /// every region.
    pub fn forget_departed(&mut self, table: &Table) {
        if let Some(state) = &mut self.retained {
            state.leaf_sensitive = None;
        }
        let alive: std::collections::HashSet<OwnerId> = table.owners().iter().copied().collect();
        self.channel.retain_owners(|o| alive.contains(&o));
        self.representatives.retain(|_, o| alive.contains(o));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::{apply_updates, Update};
    use acpp_data::{Attribute, Domain, Schema, Value};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn table(n: usize) -> Table {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(16)),
            Attribute::quasi("B", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(10)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..n {
            t.push_row(
                OwnerId(i as u32),
                &[Value((i % 16) as u32), Value(((i / 16) % 8) as u32), Value((i % 10) as u32)],
            )
            .unwrap();
        }
        t
    }

    fn taxonomies() -> Vec<Taxonomy> {
        vec![Taxonomy::intervals(16, 2), Taxonomy::intervals(8, 2)]
    }

    #[test]
    fn unchanged_data_republishes_identically() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        let r1 = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
        let r2 = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
        let r3 = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
        assert_eq!(r1, r2, "re-release of unchanged data is bit-identical");
        assert_eq!(r2, r3);
        assert_eq!(pub_.releases(), 3);
    }

    #[test]
    fn releases_are_thread_count_invariant() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut runs = Vec::new();
        for threads in [Threads::Fixed(1), Threads::Fixed(4), Threads::Auto] {
            let mut pub_ = Republisher::new(cfg, 10).unwrap().with_threads(threads);
            let mut rng = StdRng::seed_from_u64(9);
            let r1 = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
            let r2 = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
            runs.push((r1, r2));
        }
        for other in &runs[1..] {
            assert_eq!(&runs[0], other, "series output must not depend on the pool size");
        }
    }

    #[test]
    fn updates_only_move_affected_regions() {
        // Full-domain recoding is stable under small deltas (depth vectors
        // rarely move), so persistence is visible end-to-end. Mondrian's
        // data-dependent medians re-cut aggressively; its persistence
        // guarantee is the weaker "identical regions republish
        // identically", checked below for both.
        let t1 = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap().with_algorithm(Phase2Algorithm::FullDomain);
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let r1 = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        // Delete a few owners and insert a replacement.
        let t2 = apply_updates(
            &t1,
            &[
                Update::Delete(OwnerId(0)),
                Update::Delete(OwnerId(17)),
                Update::Insert { owner: OwnerId(900), row: vec![Value(3), Value(3), Value(5)] },
            ],
        )
        .unwrap();
        let r2 = pub_.publish_next(&t2, &taxes, &mut rng).unwrap();
        assert!(r1.len() <= t1.len() / 4);
        assert!(r2.len() <= t2.len() / 4);
        // Most regions persist verbatim under the stable recoding.
        let same = r2
            .tuples()
            .iter()
            .filter(|t2| r1.tuples().iter().any(|t1| t1 == *t2))
            .count();
        assert!(
            same * 2 >= r2.len(),
            "most regions persist verbatim: {same}/{} persisted",
            r2.len()
        );
    }

    #[test]
    fn identical_regions_republish_identically_under_mondrian() {
        let t1 = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let r1 = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        let t2 = apply_updates(&t1, &[Update::Delete(OwnerId(0))]).unwrap();
        let r2 = pub_.publish_next(&t2, &taxes, &mut rng).unwrap();
        // The mechanism invariant: any region (interval product) appearing
        // in both releases with the same group size carries the same
        // observed value (same representative, same persistent draw).
        let key_of = |r: &PublishedTable, i: usize| -> Vec<(u32, u32)> {
            (0..2).map(|pos| r.interval(&taxes, i, pos)).collect()
        };
        let mut matched = 0;
        for i in 0..r1.len() {
            let k1 = key_of(&r1, i);
            for j in 0..r2.len() {
                if key_of(&r2, j) == k1
                    && r1.tuple(i).group_size == r2.tuple(j).group_size
                {
                    assert_eq!(
                        r1.tuple(i).sensitive,
                        r2.tuple(j).sensitive,
                        "region {k1:?} changed its observation"
                    );
                    matched += 1;
                }
            }
        }
        assert!(matched > 0, "some regions must coincide across releases");
    }

    #[test]
    fn victims_observed_value_is_stable_across_releases() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let qi = t.qi_vector(42);
        let mut seen = Vec::new();
        for _ in 0..5 {
            let r = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
            let idx = r.crucial_tuple(&taxes, &qi).unwrap();
            seen.push(r.tuple(idx).sensitive);
        }
        assert!(seen.windows(2).all(|w| w[0] == w[1]), "observations {seen:?}");
    }

    #[test]
    fn forget_departed_prunes_state() {
        let t1 = table(100);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 2).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let _ = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        let keep: Vec<usize> = (0..50).collect();
        let t2 = t1.select_rows(&keep);
        pub_.forget_departed(&t2);
        // Channel memo only holds the 50 survivors now.
        assert!(pub_.channel.memoized() <= 50);
        let _ = pub_.publish_next(&t2, &taxes, &mut rng).unwrap();
    }

    #[test]
    fn dropped_prepare_leaves_no_phantom_state() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(6);
        // A prepared-but-never-committed release (a failed durable commit).
        let abandoned = pub_.prepare_next(&t, &taxes, &mut rng).unwrap();
        drop(abandoned);
        assert_eq!(pub_.releases(), 0, "no phantom release");
        assert_eq!(pub_.channel.memoized(), 0, "no phantom draws");
        assert!(pub_.representatives.is_empty(), "no phantom representatives");
        // The series then proceeds normally and stays self-consistent.
        let r1 = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
        let r2 = pub_.publish_next(&t, &taxes, &mut rng).unwrap();
        assert_eq!(r1, r2);
        assert_eq!(pub_.releases(), 2);
    }

    #[test]
    fn prepare_then_commit_equals_publish_next() {
        let t = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut one = Republisher::new(cfg, 10).unwrap();
        let mut two = Republisher::new(cfg, 10).unwrap();
        let mut rng1 = StdRng::seed_from_u64(8);
        let mut rng2 = StdRng::seed_from_u64(8);
        let direct = one.publish_next(&t, &taxes, &mut rng1).unwrap();
        let prepared = two.prepare_next(&t, &taxes, &mut rng2).unwrap();
        let staged = two.commit_prepared(prepared);
        assert_eq!(direct, staged);
        assert_eq!(one.releases(), two.releases());
    }

    #[test]
    fn invalid_config_rejected() {
        assert!(Republisher::new(PgConfig { p: 2.0, k: 2, algorithm: Default::default() }, 10)
            .is_err());
    }

    /// Regression for the `commit_prepared` stale-representative leak: the
    /// memo used `or_insert`, so a region whose memoized representative had
    /// departed kept the stale entry forever and re-elected a *random*
    /// representative on every later release — churning the region's
    /// observed value across releases. The fix replaces the entry, making
    /// the first re-election persistent.
    #[test]
    fn stale_representative_is_replaced_on_commit() {
        // 400 rows keep every full-domain group well above k, so deleting a
        // few representatives does not move the lattice solution and the
        // affected regions persist across releases.
        let t1 = table(400);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap().with_algorithm(Phase2Algorithm::FullDomain);
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let _r1 = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        // Delete the elected representatives of a few regions, *without*
        // calling forget_departed — the memo now points at departed owners.
        let mut victims: Vec<(RegionKey, OwnerId)> =
            pub_.representatives.iter().map(|(k, &o)| (k.clone(), o)).collect();
        victims.sort();
        victims.truncate(3);
        assert_eq!(victims.len(), 3);
        let t2 = apply_updates(
            &t1,
            &victims.iter().map(|(_, o)| Update::Delete(*o)).collect::<Vec<_>>(),
        )
        .unwrap();
        // Republish twice over the shrunken table.
        let r2 = pub_.publish_next(&t2, &taxes, &mut rng).unwrap();
        let r3 = pub_.publish_next(&t2, &taxes, &mut rng).unwrap();
        // The re-election at r2 must have *replaced* the stale entries.
        for (key, stale) in &victims {
            let now = pub_.representatives.get(key);
            assert!(now.is_some(), "region {key:?} vanished; test premise broken");
            assert_ne!(
                now,
                Some(stale),
                "memo for region {key:?} still names departed owner {stale} (stale entry kept)"
            );
        }
        // And the observable consequence: the two later releases agree on
        // every region's observed value (r2's re-election persisted).
        assert_eq!(r2, r3, "observed values churn when the re-election is not persisted");
    }

    #[test]
    fn delta_release_preserves_untouched_regions_verbatim() {
        let t1 = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(21);
        let r1 = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        let updates = vec![
            Update::Delete(OwnerId(0)),
            Update::Delete(OwnerId(1)),
            Update::Insert { owner: OwnerId(900), row: vec![Value(0), Value(0), Value(5)] },
        ];
        let prepared = pub_.prepare_delta(&updates, &taxes, &mut rng).unwrap();
        let stats = prepared.repair_stats().unwrap();
        let r2 = pub_.commit_prepared(prepared);
        // Every region (interval product) present in both releases with the
        // same membership carries byte-identical observations: same box ⇒
        // same region key ⇒ same memoized representative ⇒ same draw.
        let key_of = |r: &PublishedTable, i: usize| -> Vec<(u32, u32)> {
            (0..2).map(|pos| r.interval(&taxes, i, pos)).collect()
        };
        let mut persisted = 0;
        for i in 0..r1.len() {
            let k1 = key_of(&r1, i);
            for j in 0..r2.len() {
                if key_of(&r2, j) == k1 && r1.tuple(i).group_size == r2.tuple(j).group_size {
                    assert_eq!(
                        r1.tuple(i).sensitive,
                        r2.tuple(j).sensitive,
                        "untouched region {k1:?} changed its observation"
                    );
                    persisted += 1;
                }
            }
        }
        // A 3-row batch dirties at most a few leaves; almost everything
        // persists verbatim.
        assert!(
            persisted * 2 >= r2.len(),
            "most regions persist verbatim: {persisted}/{} persisted",
            r2.len()
        );
        assert!(stats.dirty_leaves >= 1 && stats.dirty_leaves <= 6, "{stats:?}");
        // Group sizes still cover the whole post-delta table, k-anonymously.
        let total: usize = r2.tuples().iter().map(|t| t.group_size).sum();
        assert_eq!(total, 199);
        assert!(r2.tuples().iter().all(|t| t.group_size >= 4));
    }

    #[test]
    fn delta_commit_prunes_departed_owners() {
        let t1 = table(120);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(22);
        let _ = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        assert_eq!(pub_.channel.memoized(), 120);
        let updates: Vec<Update> = (0..6).map(|i| Update::Delete(OwnerId(i * 7))).collect();
        let _ = pub_.publish_delta(&updates, &taxes, &mut rng).unwrap();
        // Departed owners are pruned at commit — no forget_departed needed.
        assert_eq!(pub_.channel.memoized(), 114);
        assert!(!pub_.representatives.values().any(|o| o.0 % 7 == 0 && o.0 < 42));
    }

    #[test]
    fn delta_series_continues_like_a_full_series() {
        // After a delta commit the series keeps all its invariants: an
        // unchanged re-release (full or delta) is byte-identical.
        let t1 = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(23);
        let _ = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        let updates =
            vec![Update::Delete(OwnerId(3)), Update::Delete(OwnerId(40)), Update::Delete(OwnerId(77))];
        let r2 = pub_.publish_delta(&updates, &taxes, &mut rng).unwrap();
        let r3 = pub_.publish_delta(&[], &taxes, &mut rng).unwrap();
        assert_eq!(r2, r3, "empty delta re-release is bit-identical");
        let t2 = apply_updates(&t1, &updates).unwrap();
        let r4 = pub_.publish_next(&t2, &taxes, &mut rng).unwrap();
        let total: usize = r4.tuples().iter().map(|t| t.group_size).sum();
        assert_eq!(total, t2.len());
        assert_eq!(pub_.releases(), 4);
    }

    #[test]
    fn delta_requires_a_committed_full_release() {
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(24);
        let err = pub_.prepare_delta(&[], &taxes, &mut rng).unwrap_err();
        assert!(matches!(err, RepublishError::InvalidParameter(_)), "{err:?}");
    }

    #[test]
    fn delta_requires_mondrian() {
        let t1 = table(100);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap().with_algorithm(Phase2Algorithm::FullDomain);
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(25);
        let _ = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        let err = pub_.prepare_delta(&[], &taxes, &mut rng).unwrap_err();
        assert!(matches!(err, RepublishError::InvalidParameter(_)), "{err:?}");
    }

    /// The eight batches of the pinned series, each built against the
    /// publisher's current table and retained partition so every kind of
    /// repair shows up: a trickle, a bulk batch, in-place updates with and
    /// without a value change, a departing representative, a leaf pushed
    /// under `k` (merge), a leaf pushed past `2k` (recut), and no change.
    fn pinned_batch(step: usize, pub_: &Republisher, donors: &Table) -> Vec<Update> {
        let state = pub_.retained.as_ref().expect("a retained partition");
        let (table, tree) = (&state.table, &state.tree);
        let n = table.len();
        let fresh = |i: usize| OwnerId(2_000_000 + (step * 10_000 + i) as u32);
        let churn = |count: usize| -> Vec<Update> {
            let stride = n / count;
            (0..count)
                .map(|i| Update::Delete(table.owner(i * stride + step)))
                .chain((0..count).map(|i| Update::Insert {
                    owner: fresh(i),
                    row: donors.row((step * 1_000 + i) % donors.len()),
                }))
                .collect()
        };
        // The rows of the most populous leaf, in row order.
        let fullest = (0..tree.len()).max_by_key(|&b| (tree.counts()[b], b)).unwrap_or(0);
        let leaf_rows: Vec<usize> =
            (0..n).filter(|&r| tree.assignment()[r] as usize == fullest).collect();
        // Current representatives, in a thread-independent order.
        let mut reps: Vec<OwnerId> = pub_.representatives.values().copied().collect();
        reps.sort_unstable();
        match step {
            0 => churn(10),
            1 => churn(1_000),
            2 | 3 => {
                // A representative updated in place, so the release shows it.
                let owner = reps[reps.len() / step];
                let row = table.row_of_owner(owner).expect("representatives are present");
                let mut values = table.row(row);
                if step == 3 {
                    let s = table.schema().sensitive_index();
                    let us = table.schema().sensitive_domain_size();
                    values[s] = Value((values[s].0 + 1) % us);
                }
                vec![Update::Delete(owner), Update::Insert { owner, row: values }]
            }
            4 => vec![Update::Delete(reps[reps.len() / 2])],
            5 => {
                let excess = leaf_rows.len() - pub_.config.k + 1;
                leaf_rows[..excess].iter().map(|&r| Update::Delete(table.owner(r))).collect()
            }
            6 => leaf_rows
                .iter()
                .cycle()
                .take(3 * pub_.config.k)
                .enumerate()
                .map(|(i, &r)| Update::Insert { owner: fresh(i), row: table.row(r) })
                .collect(),
            _ => Vec::new(),
        }
    }

    /// Digest of each rendered release and the number of fresh Phase-1
    /// draws it staged, for a full release of 20k SAL rows at `k = 8` and
    /// the eight [`pinned_batch`] deltas.
    fn pinned_series(threads: usize) -> Vec<(u64, usize)> {
        use acpp_data::sal::{self, SalConfig};
        let base = sal::generate(SalConfig { rows: 20_000, seed: 2008 });
        let donors = sal::generate(SalConfig { rows: 4_000, seed: 777 });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, 8).unwrap();
        let us = base.schema().sensitive_domain_size();
        let mut pub_ =
            Republisher::new(cfg, us).unwrap().with_threads(Threads::Fixed(threads));
        let mut rng = StdRng::seed_from_u64(15);
        let mut out = Vec::new();
        let mut record = |pub_: &mut Republisher, prepared: PreparedRelease| {
            out.push((
                acpp_data::digest::fnv1a(prepared.published().render(&taxes).as_bytes()),
                prepared.draws.len(),
            ));
            pub_.commit_prepared(prepared);
        };
        let prepared = pub_.prepare_next(&base, &taxes, &mut rng).unwrap();
        record(&mut pub_, prepared);
        for step in 0..8 {
            let updates = pinned_batch(step, &pub_, &donors);
            let prepared = pub_.prepare_delta(&updates, &taxes, &mut rng).unwrap();
            let stats = prepared.repair_stats().unwrap();
            match step {
                5 => assert!(stats.merges >= 1, "step 5 must merge: {stats:?}"),
                6 => assert!(stats.recuts >= 1, "step 6 must recut: {stats:?}"),
                _ => {}
            }
            record(&mut pub_, prepared);
        }
        out
    }

    /// Release bytes and fresh-draw counts of a delta series, pinned: any
    /// change to how a delta is computed must leave every byte and every
    /// draw where it was.
    #[test]
    fn pinned_series_bytes_and_draws() {
        let pinned: [(u64, usize); 9] = [
            (0xd01c69ce60687ddb, 20_000),
            (0x02403fc136f9d98b, 10),
            (0xec5b13a458cc3a38, 1_000),
            (0xec5b13a458cc3a38, 0),
            (0x2acee3539b7aed74, 1),
            (0xdda4bcc4b3d9dae1, 0),
            (0x087d32bb5beb0b2e, 0),
            (0x13eedf28d031d268, 24),
            (0x13eedf28d031d268, 0),
        ];
        for threads in [1, 4] {
            let got = pinned_series(threads);
            assert_eq!(got, pinned, "threads {threads}");
        }
    }

    /// Two rows of one owner share one memo entry, so every release drew
    /// afresh for one of them: three releases of this unchanged table all
    /// differed. A full release now refuses such a table.
    #[test]
    fn duplicate_owners_are_rejected() {
        let mut t = table(0);
        for i in 0..8u32 {
            t.push_row(OwnerId(7 + i % 2), &[Value(i), Value(0), Value(i)]).unwrap();
        }
        let taxes = taxonomies();
        for algorithm in [Phase2Algorithm::Mondrian, Phase2Algorithm::FullDomain] {
            let cfg = PgConfig::new(0.3, 8).unwrap().with_algorithm(algorithm);
            let mut pub_ = Republisher::new(cfg, 10).unwrap();
            let mut rng = StdRng::seed_from_u64(31);
            for _ in 0..3 {
                let err = pub_.publish_next(&t, &taxes, &mut rng).unwrap_err();
                assert!(
                    matches!(&err, CoreError::InvalidParameter(m) if m.contains("o7")),
                    "want the duplicate owner named, got {err:?}"
                );
            }
            assert_eq!(pub_.releases(), 0);
        }
    }

    /// 0.1 % churn on 20k rows recomputes a sliver of the release.
    #[test]
    fn trickle_delta_carries_almost_every_leaf() {
        use acpp_data::sal::{self, SalConfig};
        let base = sal::generate(SalConfig { rows: 20_000, seed: 2008 });
        let donors = sal::generate(SalConfig { rows: 10, seed: 777 });
        let taxes = sal::qi_taxonomies();
        let cfg = PgConfig::new(0.3, 8).unwrap();
        let mut pub_ = Republisher::new(cfg, base.schema().sensitive_domain_size()).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        pub_.publish_next(&base, &taxes, &mut rng).unwrap();
        let updates: Vec<Update> = (0..10)
            .map(|i| Update::Delete(base.owner(i * 1_999)))
            .chain((0..10).map(|i| Update::Insert {
                owner: OwnerId(1 << 30 | i as u32),
                row: donors.row(i),
            }))
            .collect();
        let prepared = pub_.prepare_delta(&updates, &taxes, &mut rng).unwrap();
        let stats = prepared.repair_stats().unwrap();
        let recomputed = stats.leaves_after - stats.carried_leaves;
        assert!(recomputed > 0, "{stats:?}");
        assert!(recomputed * 20 < stats.leaves_after, "recomputed {recomputed}: {stats:?}");
        assert_eq!(prepared.draws.len(), 10, "only the inserts draw");
    }

    #[test]
    fn forget_departed_drops_the_carry() {
        let t = table(200);
        let taxes = taxonomies();
        let mut pub_ = Republisher::new(PgConfig::new(0.3, 4).unwrap(), 10).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        pub_.publish_next(&t, &taxes, &mut rng).unwrap();
        assert!(pub_.retained.as_ref().unwrap().leaf_sensitive.is_some());
        pub_.forget_departed(&t);
        assert!(pub_.retained.as_ref().unwrap().leaf_sensitive.is_none());
        // The next delta recomputes everything and re-establishes the carry.
        pub_.publish_delta(&[Update::Delete(OwnerId(3))], &taxes, &mut rng).unwrap();
        assert!(pub_.retained.as_ref().unwrap().leaf_sensitive.is_some());
    }

    #[test]
    fn only_a_carrying_delta_keeps_its_carry_map() {
        let t = table(200);
        let taxes = taxonomies();
        let mut pub_ = Republisher::new(PgConfig::new(0.3, 4).unwrap(), 10).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        let full = pub_.prepare_next(&t, &taxes, &mut rng).unwrap();
        assert!(full.carry().is_none());
        pub_.commit_prepared(full);
        let batch = [Update::Delete(OwnerId(3))];
        let delta = pub_.prepare_delta(&batch, &taxes, &mut rng).unwrap();
        let leaves = delta.repair_stats().unwrap().leaves_after;
        assert_eq!(delta.carry().map(<[u32]>::len), Some(leaves));
        pub_.forget_departed(&t);
        assert!(pub_.prepare_delta(&batch, &taxes, &mut rng).unwrap().carry().is_none());
    }

    /// A carry relies on every survivor's draw being in the memo; a memo
    /// that lost one is a typed error, not a panic or a silent fresh draw.
    #[test]
    fn carried_delta_with_a_lost_survivor_draw_is_an_error() {
        let t = table(200);
        let taxes = taxonomies();
        let mut pub_ = Republisher::new(PgConfig::new(0.3, 4).unwrap(), 10).unwrap();
        let mut rng = StdRng::seed_from_u64(33);
        pub_.publish_next(&t, &taxes, &mut rng).unwrap();
        pub_.channel.retain_owners(|_| false);
        let insert = Update::Insert { owner: OwnerId(900), row: t.row(5) };
        let err = pub_.prepare_delta(&[insert], &taxes, &mut rng).unwrap_err();
        assert!(
            matches!(err, RepublishError::Core(CoreError::PostconditionViolated(_))),
            "{err:?}"
        );
    }

    /// Region members land in one buffer, laid out by leaf counts in order
    /// of first appearance; a count the assignment contradicts is a typed
    /// error rather than a member list cut short or overrun.
    #[test]
    fn carry_regions_follow_the_leaf_counts() {
        let assignment = [1u32, 0, 2, 1, 0, 1];
        let carried = vec![None, None, Some(Value(7))];
        let carry =
            Carry { assignment: &assignment, counts: &[2, 3, 1], carried, staged_from: 6 };
        let mut members = Vec::new();
        let regions = carry.regions(&mut members).unwrap();
        let seen: Vec<(Signature, usize, Vec<usize>, Option<Value>)> = regions
            .iter()
            .map(|r| (r.signature.clone(), r.size, r.members.to_vec(), r.carried))
            .collect();
        assert_eq!(
            seen,
            vec![
                (vec![1], 3, vec![0, 3, 5], None),
                (vec![0], 2, vec![1, 4], None),
                (vec![2], 1, vec![], Some(Value(7))),
            ]
        );
        for counts in [[2usize, 2, 1], [2, 4, 1], [2, 3, 0]] {
            let bad = Carry { counts: &counts, carried: vec![None, None, Some(Value(7))], ..carry };
            let err = bad.regions(&mut members).err();
            assert!(matches!(err, Some(CoreError::PostconditionViolated(_))), "{counts:?}: {err:?}");
        }
    }

    #[test]
    fn dropped_delta_prepare_leaves_no_phantom_state() {
        let t1 = table(200);
        let taxes = taxonomies();
        let cfg = PgConfig::new(0.3, 4).unwrap();
        let mut pub_ = Republisher::new(cfg, 10).unwrap();
        let mut rng = StdRng::seed_from_u64(26);
        let r1 = pub_.publish_next(&t1, &taxes, &mut rng).unwrap();
        let memo = pub_.channel.memoized();
        let abandoned =
            pub_.prepare_delta(&[Update::Delete(OwnerId(5))], &taxes, &mut rng).unwrap();
        drop(abandoned);
        assert_eq!(pub_.releases(), 1);
        assert_eq!(pub_.channel.memoized(), memo, "no phantom draws or prunes");
        // The retained partition still describes release 1: an empty delta
        // reproduces it byte-for-byte.
        let again = pub_.publish_delta(&[], &taxes, &mut rng).unwrap();
        assert_eq!(again, r1);
    }
}
