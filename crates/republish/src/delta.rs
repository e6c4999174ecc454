//! Update batches over microdata.

use acpp_data::{DataError, OwnerId, Schema, Table, Value};
use std::collections::HashSet;

/// One update to the microdata.
#[derive(Debug, Clone, PartialEq)]
pub enum Update {
    /// A new individual joins with the given full row (QI + sensitive).
    Insert {
        /// The new owner; must not already be present.
        owner: OwnerId,
        /// The full row, in schema column order.
        row: Vec<Value>,
    },
    /// An individual leaves the microdata.
    Delete(OwnerId),
}

/// Applies a batch of updates, producing the next microdata version.
///
/// The batch is validated as a set: each owner may be deleted at most once
/// and inserted at most once. A present owner may be re-inserted only if the
/// same batch deletes it first (delete + re-insert models an in-place
/// update). Deletes resolve against the *input* table, so inserting a fresh
/// owner and deleting it in the same batch is rejected — the delete refers
/// to an owner the previous version never published.
///
/// The next version always consists of the surviving rows in their original
/// order followed by the batch's inserts at the tail (in batch order) — the
/// layout incremental repair relies on.
///
/// Runs in `O(n + batch)` expected time: one pass builds an owner index,
/// and every membership probe is a hash lookup.
///
/// # Errors
/// * inserting an owner that is already present (and not deleted first),
/// * deleting an owner that is absent,
/// * duplicate deletes or duplicate inserts of the same owner,
/// * rows that fail schema validation.
pub fn apply_updates(table: &Table, updates: &[Update]) -> Result<Table, DataError> {
    apply_updates_classified(table, updates).map(|c| c.next)
}

/// [`apply_updates`] plus the positional classification of the batch the
/// retained-tree repair consumes — computed in the same single scan, so a
/// delta prepare never re-derives it with extra passes.
pub(crate) struct ClassifiedBatch {
    /// The next microdata version: survivors in order, inserts at the tail.
    pub next: Table,
    /// Row indices the batch deleted, in the *input* table's numbering,
    /// strictly increasing.
    pub deleted_rows: Vec<usize>,
    /// Owners the batch deleted without re-inserting (batch order) — gone
    /// for good, so cross-release memos may prune them.
    pub departed: Vec<OwnerId>,
    /// The inserts' row range in `next` (always the tail).
    pub inserted_range: std::ops::Range<usize>,
}

/// See [`apply_updates`] for the semantics and errors.
pub(crate) fn apply_updates_classified(
    table: &Table,
    updates: &[Update],
) -> Result<ClassifiedBatch, DataError> {
    // Batch-internal validation first — only batch-sized sets are built;
    // presence against the table resolves in the single scan below.
    let mut deleted_owners: HashSet<OwnerId> = HashSet::new();
    let mut insert_owners: HashSet<OwnerId> = HashSet::new();
    let mut inserts = Vec::new();
    for u in updates {
        match u {
            Update::Delete(owner) => {
                if !deleted_owners.insert(*owner) {
                    return Err(DataError::InvalidParameter(format!(
                        "duplicate delete of owner {owner}"
                    )));
                }
            }
            Update::Insert { owner, row } => {
                if !insert_owners.insert(*owner) {
                    return Err(DataError::InvalidParameter(format!(
                        "insert of already-present owner {owner}"
                    )));
                }
                inserts.push((*owner, row.as_slice()));
            }
        }
    }
    // One pass over the table: resolve deletes, and reject inserts of
    // owners that are present and not deleted first (delete + re-insert in
    // one batch models an in-place update). A row whose owner misses the
    // batch's bitmap is untouched and skips both exact probes; the
    // bitmap's hash needs no key, because a collision only sends a row on
    // to the exact sets.
    let batch_filter = BatchFilter::new(deleted_owners.iter().chain(&insert_owners));
    let mut deleted_rows = Vec::with_capacity(deleted_owners.len());
    for (r, &owner) in table.owners().iter().enumerate() {
        if !batch_filter.may_contain(owner) {
            continue;
        }
        if deleted_owners.contains(&owner) {
            deleted_rows.push(r);
        } else if insert_owners.contains(&owner) {
            return Err(DataError::InvalidParameter(format!(
                "insert of already-present owner {owner}"
            )));
        }
    }
    if deleted_rows.len() != deleted_owners.len() {
        // Name one missing owner so the error is actionable.
        let absent = deleted_owners
            .iter()
            .find(|o| table.rows().all(|r| table.owner(r) != **o))
            .copied()
            .unwrap_or(OwnerId(0));
        return Err(DataError::InvalidParameter(format!("delete of absent owner {absent}")));
    }
    let departed: Vec<OwnerId> = updates
        .iter()
        .filter_map(|u| match u {
            Update::Delete(owner) if !insert_owners.contains(owner) => Some(*owner),
            _ => None,
        })
        .collect();
    // The survivors are copied column by column in the runs between the
    // deleted rows, with room for the inserts at the tail.
    let mut next = table.without_rows(&deleted_rows, inserts.len());
    let inserted_range = next.len()..next.len() + inserts.len();
    for (owner, row) in inserts {
        next.push_row(owner, row)?;
    }
    Ok(ClassifiedBatch { next, deleted_rows, departed, inserted_range })
}

/// A bitmap over a batch's owners: a clear bit proves an owner is not in
/// the batch; a set bit means it may be.
struct BatchFilter {
    words: Vec<u64>,
    shift: u32,
}

impl BatchFilter {
    /// Sixteen bits per owner keep the false-positive rate near 1/16.
    fn new<'a>(owners: impl Iterator<Item = &'a OwnerId> + Clone) -> Self {
        let bits = (owners.clone().count() * 16).next_power_of_two().clamp(64, 1 << 31);
        let mut filter =
            BatchFilter { words: vec![0; bits / 64], shift: 32 - bits.trailing_zeros() };
        for &owner in owners {
            let bit = filter.bit(owner);
            filter.words[bit / 64] |= 1 << (bit % 64);
        }
        filter
    }

    /// Multiplicative (Fibonacci) hash of the id, top bits.
    fn bit(&self, owner: OwnerId) -> usize {
        (owner.0.wrapping_mul(0x9E37_79B9) as u64 >> self.shift) as usize
    }

    fn may_contain(&self, owner: OwnerId) -> bool {
        let bit = self.bit(owner);
        self.words[bit / 64] & (1 << (bit % 64)) != 0
    }
}

/// Parses an update batch from its CSV wire form.
///
/// One update per line: `I,<owner>,<v0>,...,<v_arity-1>` inserts a full row
/// (all schema columns, in order, as domain codes) and `D,<owner>` deletes
/// an owner. Blank lines and `#` comments are skipped. This is the format
/// `acpp republish --delta` and the daemon's delta jobs carry.
///
/// # Errors
/// `DataError::Csv` on malformed lines, unknown op codes, non-numeric
/// fields, or an insert whose value count differs from the schema arity.
pub fn parse_updates_csv(schema: &Schema, text: &str) -> Result<Vec<Update>, DataError> {
    let bad = |line: usize, message: String| DataError::Csv { line, message };
    let mut updates = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',');
        let op = fields.next().unwrap_or_default().trim();
        let parse_u32 = |field: Option<&str>, what: &str| -> Result<u32, DataError> {
            let raw = field
                .map(str::trim)
                .filter(|s| !s.is_empty())
                .ok_or_else(|| bad(lineno, format!("missing {what}")))?;
            raw.parse::<u32>().map_err(|_| bad(lineno, format!("invalid {what} `{raw}`")))
        };
        match op {
            "D" => {
                let owner = parse_u32(fields.next(), "owner id")?;
                if fields.next().is_some() {
                    return Err(bad(lineno, "trailing fields after delete".to_string()));
                }
                updates.push(Update::Delete(OwnerId(owner)));
            }
            "I" => {
                let owner = parse_u32(fields.next(), "owner id")?;
                let mut row = Vec::with_capacity(schema.arity());
                for field in fields {
                    row.push(Value(parse_u32(Some(field), "value")?));
                }
                if row.len() != schema.arity() {
                    return Err(bad(
                        lineno,
                        format!(
                            "insert has {} values, schema arity is {}",
                            row.len(),
                            schema.arity()
                        ),
                    ));
                }
                updates.push(Update::Insert { owner: OwnerId(owner), row });
            }
            other => {
                return Err(bad(lineno, format!("unknown update op `{other}` (expected I or D)")));
            }
        }
    }
    Ok(updates)
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::{Attribute, Domain, Schema};

    fn table() -> Table {
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::indexed(4)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        for i in 0..4u32 {
            t.push_row(OwnerId(i), &[Value(i), Value(i % 4)]).unwrap();
        }
        t
    }

    #[test]
    fn insert_and_delete() {
        let t = table();
        let next = apply_updates(
            &t,
            &[
                Update::Delete(OwnerId(1)),
                Update::Insert { owner: OwnerId(9), row: vec![Value(7), Value(2)] },
            ],
        )
        .unwrap();
        assert_eq!(next.len(), 4);
        assert!(next.row_of_owner(OwnerId(1)).is_none());
        let new_row = next.row_of_owner(OwnerId(9)).unwrap();
        assert_eq!(next.value(new_row, 0), Value(7));
        assert!(next.owners_distinct());
        // Survivors keep their data.
        let r0 = next.row_of_owner(OwnerId(0)).unwrap();
        assert_eq!(next.row(r0), t.row(0));
    }

    #[test]
    fn invalid_updates_rejected() {
        let t = table();
        assert!(apply_updates(&t, &[Update::Delete(OwnerId(99))]).is_err());
        assert!(apply_updates(
            &t,
            &[Update::Insert { owner: OwnerId(0), row: vec![Value(0), Value(0)] }]
        )
        .is_err());
        // Duplicate insert within one batch.
        assert!(apply_updates(
            &t,
            &[
                Update::Insert { owner: OwnerId(9), row: vec![Value(0), Value(0)] },
                Update::Insert { owner: OwnerId(9), row: vec![Value(1), Value(1)] },
            ]
        )
        .is_err());
    }

    #[test]
    fn duplicate_delete_rejected() {
        // A duplicate delete used to be silently deduped while a duplicate
        // insert errored; batch validation is now symmetric.
        let t = table();
        let err = apply_updates(&t, &[Update::Delete(OwnerId(1)), Update::Delete(OwnerId(1))])
            .unwrap_err();
        assert!(
            matches!(&err, DataError::InvalidParameter(m) if m.contains("duplicate delete")),
            "want duplicate-delete InvalidParameter, got {err:?}"
        );
    }

    #[test]
    fn insert_then_delete_of_new_owner_rejected() {
        // Pins the chosen semantics: deletes resolve against the *previous*
        // table version, so a batch may not delete an owner it is itself
        // introducing. (Delete-then-reinsert of a *present* owner stays
        // legal; it models an in-place update.)
        let t = table();
        let err = apply_updates(
            &t,
            &[
                Update::Insert { owner: OwnerId(9), row: vec![Value(0), Value(0)] },
                Update::Delete(OwnerId(9)),
            ],
        )
        .unwrap_err();
        assert!(
            matches!(&err, DataError::InvalidParameter(m) if m.contains("absent owner")),
            "want delete-of-absent-owner error, got {err:?}"
        );
        // The mirror ordering is equally rejected: the owner is still absent
        // from the previous version no matter where the insert sits.
        assert!(apply_updates(
            &t,
            &[
                Update::Delete(OwnerId(9)),
                Update::Insert { owner: OwnerId(9), row: vec![Value(0), Value(0)] },
            ]
        )
        .is_err());
    }

    #[test]
    fn delete_then_reinsert_models_update() {
        let t = table();
        let next = apply_updates(
            &t,
            &[
                Update::Delete(OwnerId(2)),
                Update::Insert { owner: OwnerId(2), row: vec![Value(5), Value(3)] },
            ],
        )
        .unwrap();
        assert_eq!(next.len(), 4);
        let r = next.row_of_owner(OwnerId(2)).unwrap();
        assert_eq!(next.value(r, 0), Value(5), "updated in place");
        assert!(next.owners_distinct());
    }

    #[test]
    fn empty_batch_is_identity() {
        let t = table();
        assert_eq!(apply_updates(&t, &[]).unwrap(), t);
    }

    #[test]
    fn delete_then_reinsert_same_owner() {
        let t = table();
        let next = apply_updates(&t, &[Update::Delete(OwnerId(2))]).unwrap();
        let back = apply_updates(
            &next,
            &[Update::Insert { owner: OwnerId(2), row: vec![Value(5), Value(3)] }],
        )
        .unwrap();
        let r = back.row_of_owner(OwnerId(2)).unwrap();
        assert_eq!(back.value(r, 0), Value(5), "re-joined with new data");
    }

    #[test]
    fn large_batch_is_near_linear() {
        // 40k-row table, 20k-update batch. The quadratic scans this pins
        // against took minutes here; the hash-set version is well under a
        // second even in debug builds.
        let schema = Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(64)),
            Attribute::sensitive("S", Domain::indexed(16)),
        ])
        .unwrap();
        let mut t = Table::new(schema);
        let n = 40_000u32;
        for i in 0..n {
            t.push_row(OwnerId(i), &[Value(i % 64), Value(i % 16)]).unwrap();
        }
        let mut updates = Vec::new();
        for i in 0..10_000u32 {
            updates.push(Update::Delete(OwnerId(i * 4)));
        }
        for i in 0..10_000u32 {
            updates.push(Update::Insert {
                owner: OwnerId(n + i),
                row: vec![Value(i % 64), Value(i % 16)],
            });
        }
        let start = std::time::Instant::now();
        let next = apply_updates(&t, &updates).unwrap();
        assert_eq!(next.len(), 40_000);
        assert!(next.owners_distinct());
        assert!(
            start.elapsed() < std::time::Duration::from_secs(20),
            "large batch took {:?}; apply_updates has gone super-linear",
            start.elapsed()
        );
    }

    #[test]
    fn parse_updates_round_trip() {
        let t = table();
        let text = "# churn batch\nD,1\nI,9,7,2\n\nI,10,3,1\n";
        let updates = parse_updates_csv(t.schema(), text).unwrap();
        assert_eq!(
            updates,
            vec![
                Update::Delete(OwnerId(1)),
                Update::Insert { owner: OwnerId(9), row: vec![Value(7), Value(2)] },
                Update::Insert { owner: OwnerId(10), row: vec![Value(3), Value(1)] },
            ]
        );
        assert!(apply_updates(&t, &updates).is_ok());
    }

    #[test]
    fn parse_updates_rejects_malformed() {
        let t = table();
        for bad in [
            "X,1",         // unknown op
            "D",           // missing owner
            "D,1,2",       // trailing fields
            "I,9,7",       // arity mismatch
            "I,9,7,2,1",   // arity mismatch (too many)
            "I,nine,7,2",  // non-numeric owner
            "I,9,a,2",     // non-numeric value
        ] {
            assert!(
                parse_updates_csv(t.schema(), bad).is_err(),
                "`{bad}` should be rejected"
            );
        }
    }
}
