//! Column-major microdata tables.
//!
//! A [`Table`] stores the microdata `D` of the paper: one row per individual,
//! each row owned by a distinct [`OwnerId`]. Storage is column-major
//! (`Vec<u32>` per attribute) because the anonymization and mining algorithms
//! are column-oriented: generalization recodes whole columns, perturbation
//! rewrites the sensitive column, decision-tree induction scans single
//! attributes.

use crate::error::DataError;
use crate::schema::Schema;
use crate::value::Value;
use std::fmt;

/// Identity of a data owner (an individual). Owner ids are dense `0..n` for
/// the individuals appearing in an external database; a microdata table's
/// rows carry the ids of their owners.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct OwnerId(pub u32);

impl OwnerId {
    /// The raw id.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for OwnerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "o{}", self.0)
    }
}

/// A column-major table of encoded values, with per-row owners.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Vec<u32>>,
    owners: Vec<OwnerId>,
}

impl Table {
    /// Creates an empty table over a schema.
    pub fn new(schema: Schema) -> Self {
        let columns = vec![Vec::new(); schema.arity()];
        Table { schema, columns, owners: Vec::new() }
    }

    /// Creates an empty table with row capacity reserved.
    pub fn with_capacity(schema: Schema, rows: usize) -> Self {
        let columns = (0..schema.arity()).map(|_| Vec::with_capacity(rows)).collect();
        Table { schema, columns, owners: Vec::with_capacity(rows) }
    }

    /// The table's schema.
    #[inline]
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.owners.len()
    }

    /// True if the table has no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.owners.is_empty()
    }

    /// Appends a row, validating arity and domains.
    pub fn push_row(&mut self, owner: OwnerId, row: &[Value]) -> Result<(), DataError> {
        if row.len() != self.schema.arity() {
            return Err(DataError::ArityMismatch {
                expected: self.schema.arity(),
                actual: row.len(),
            });
        }
        for (i, (&v, attr)) in row.iter().zip(self.schema.attributes()).enumerate() {
            debug_assert_eq!(attr.name(), self.schema.attribute(i).name());
            attr.domain().check(attr.name(), v)?;
        }
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v.0);
        }
        self.owners.push(owner);
        Ok(())
    }

    /// Appends a row without domain validation. The caller must guarantee
    /// all codes are in-domain; used on hot paths (synthetic generation,
    /// perturbation output) where values are in-domain by construction.
    pub fn push_row_unchecked(&mut self, owner: OwnerId, row: &[Value]) {
        debug_assert_eq!(row.len(), self.schema.arity());
        for (col, &v) in self.columns.iter_mut().zip(row) {
            col.push(v.0);
        }
        self.owners.push(owner);
    }

    /// Appends the rows of `other`, a table over the same schema, to this
    /// one, adding `owner_offset` to each of their owner ids (wrapping, as
    /// the CSV reader's `as u32` row numbering does).
    pub(crate) fn append(&mut self, other: &Table, owner_offset: u32) {
        debug_assert_eq!(self.schema, other.schema);
        for (col, src) in self.columns.iter_mut().zip(&other.columns) {
            col.extend_from_slice(src);
        }
        self.owners.extend(other.owners.iter().map(|o| OwnerId(o.0.wrapping_add(owner_offset))));
    }

    /// Value at (row, column).
    #[inline]
    pub fn value(&self, row: usize, col: usize) -> Value {
        Value(self.columns[col][row])
    }

    /// Sets the value at (row, column) without domain validation.
    #[inline]
    pub fn set_value(&mut self, row: usize, col: usize, v: Value) {
        self.columns[col][row] = v.0;
    }

    /// Owner of a row.
    #[inline]
    pub fn owner(&self, row: usize) -> OwnerId {
        self.owners[row]
    }

    /// All owners, in row order.
    pub fn owners(&self) -> &[OwnerId] {
        &self.owners
    }

    /// Raw codes of one column.
    pub fn column(&self, col: usize) -> &[u32] {
        &self.columns[col]
    }

    /// The sensitive value of a row.
    #[inline]
    pub fn sensitive_value(&self, row: usize) -> Value {
        self.value(row, self.schema.sensitive_index())
    }

    /// The sensitive column's raw codes.
    pub fn sensitive_column(&self) -> &[u32] {
        self.column(self.schema.sensitive_index())
    }

    /// Overwrites the sensitive value of a row (used by perturbation).
    pub fn set_sensitive_value(&mut self, row: usize, v: Value) {
        let col = self.schema.sensitive_index();
        self.set_value(row, col, v);
    }

    /// Replaces the whole sensitive column (used to splice perturbed codes
    /// back into a table). Returns an error on length mismatch.
    pub fn set_sensitive_column(&mut self, codes: &[u32]) -> Result<(), DataError> {
        if codes.len() != self.len() {
            return Err(DataError::Io(format!(
                "sensitive column of {} codes for a table of {} rows",
                codes.len(),
                self.len()
            )));
        }
        let col = self.schema.sensitive_index();
        self.columns[col].copy_from_slice(codes);
        Ok(())
    }

    /// Materializes one row as a vector of values.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| Value(c[row])).collect()
    }

    /// The QI-vector `t.v^q` of a row: the row's values on the QI columns,
    /// in schema QI order.
    pub fn qi_vector(&self, row: usize) -> Vec<Value> {
        self.schema
            .qi_indices()
            .iter()
            .map(|&c| self.value(row, c))
            .collect()
    }

    /// Iterates over row indices.
    pub fn rows(&self) -> impl Iterator<Item = usize> {
        0..self.len()
    }

    /// Builds a new table containing only the given row indices (in the
    /// given order), sharing the schema.
    pub fn select_rows(&self, rows: &[usize]) -> Table {
        let mut out = Table::with_capacity(self.schema.clone(), rows.len());
        for col in 0..self.schema.arity() {
            let src = &self.columns[col];
            out.columns[col].extend(rows.iter().map(|&r| src[r]));
        }
        out.owners.extend(rows.iter().map(|&r| self.owners[r]));
        out
    }

    /// A copy of this table without the rows `deleted` (strictly
    /// increasing indices), the survivors in order, with room reserved for
    /// `reserve` more rows. Equal to [`Table::select_rows`] over the
    /// survivors, but each column is copied in the runs between deletions
    /// instead of gathered row by row through an index.
    pub fn without_rows(&self, deleted: &[usize], reserve: usize) -> Table {
        debug_assert!(deleted.windows(2).all(|w| w[0] < w[1]), "deletions must be sorted");
        let rows = self.len() - deleted.len() + reserve;
        let mut out = Table::with_capacity(self.schema.clone(), rows);
        for (dst, src) in out.columns.iter_mut().zip(&self.columns) {
            copy_runs(dst, src, deleted);
        }
        copy_runs(&mut out.owners, &self.owners, deleted);
        out
    }

    /// Returns the row index of the (unique) row owned by `owner`, if any.
    pub fn row_of_owner(&self, owner: OwnerId) -> Option<usize> {
        self.owners.iter().position(|&o| o == owner)
    }

    /// Checks the paper's standing assumption that all tuples have distinct
    /// owners.
    ///
    /// Runs in `O(n)` time and `O(n)` memory whatever the ids are: ids
    /// below `64 · n` (the usual dense numbering) are marked in a bitmap
    /// of at most `8n` bytes, and any other set of ids is radix-sorted
    /// and scanned for a repeat.
    pub fn owners_distinct(&self) -> bool {
        let n = self.owners.len();
        let max = self.owners.iter().map(|o| o.0 as usize).max().unwrap_or(0);
        if max < 64 * n {
            let mut seen = vec![0u64; max / 64 + 1];
            for o in &self.owners {
                let (word, bit) = (o.index() / 64, 1u64 << (o.0 % 64));
                if seen[word] & bit != 0 {
                    return false;
                }
                seen[word] |= bit;
            }
            return true;
        }
        let mut ids: Vec<u32> = self.owners.iter().map(|o| o.0).collect();
        let mut spare = vec![0u32; n];
        for shift in [0, 8, 16, 24] {
            let digit = |id: u32| ((id >> shift) & 0xff) as usize;
            let mut starts = [0usize; 257];
            for &id in &ids {
                starts[digit(id) + 1] += 1;
            }
            for d in 0..256 {
                starts[d + 1] += starts[d];
            }
            for &id in &ids {
                spare[starts[digit(id)]] = id;
                starts[digit(id)] += 1;
            }
            std::mem::swap(&mut ids, &mut spare);
        }
        ids.windows(2).all(|w| w[0] != w[1])
    }
}

/// Appends `src` to `dst` without the positions `skip` (strictly
/// increasing), one slice copy per run between them.
fn copy_runs<T: Copy>(dst: &mut Vec<T>, src: &[T], skip: &[usize]) {
    let mut start = 0;
    for &r in skip {
        dst.extend_from_slice(&src[start..r]);
        start = r + 1;
    }
    dst.extend_from_slice(&src[start..]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Attribute, Schema};
    use crate::value::Domain;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("Age", Domain::int_range(20, 29)),
            Attribute::quasi("Gender", Domain::nominal(["M", "F"])),
            Attribute::sensitive("S", Domain::indexed(4)),
        ])
        .unwrap()
    }

    fn demo() -> Table {
        let mut t = Table::new(schema());
        t.push_row(OwnerId(0), &[Value(5), Value(0), Value(1)]).unwrap();
        t.push_row(OwnerId(1), &[Value(2), Value(1), Value(3)]).unwrap();
        t.push_row(OwnerId(2), &[Value(9), Value(0), Value(0)]).unwrap();
        t
    }

    #[test]
    fn push_and_access() {
        let t = demo();
        assert_eq!(t.len(), 3);
        assert!(!t.is_empty());
        assert_eq!(t.value(1, 0), Value(2));
        assert_eq!(t.owner(2), OwnerId(2));
        assert_eq!(t.sensitive_value(0), Value(1));
        assert_eq!(t.row(1), vec![Value(2), Value(1), Value(3)]);
        assert_eq!(t.qi_vector(2), vec![Value(9), Value(0)]);
        assert_eq!(t.sensitive_column(), &[1, 3, 0]);
    }

    #[test]
    fn arity_and_domain_validation() {
        let mut t = Table::new(schema());
        let short = t.push_row(OwnerId(0), &[Value(1)]);
        assert!(matches!(short, Err(DataError::ArityMismatch { expected: 3, actual: 1 })));
        let bad = t.push_row(OwnerId(0), &[Value(99), Value(0), Value(0)]);
        assert!(matches!(bad, Err(DataError::ValueOutOfDomain { .. })));
        assert!(t.is_empty(), "failed pushes must not partially mutate");
    }

    #[test]
    fn select_rows_preserves_order_and_owners() {
        let t = demo();
        let s = t.select_rows(&[2, 0]);
        assert_eq!(s.len(), 2);
        assert_eq!(s.owner(0), OwnerId(2));
        assert_eq!(s.row(1), t.row(0));
    }

    #[test]
    fn without_rows_equals_select_rows() {
        let mut t = Table::new(schema());
        for i in 0..7u32 {
            t.push_row(OwnerId(10 + i), &[Value(i), Value(i % 2), Value(i % 4)]).unwrap();
        }
        let cases: [&[usize]; 5] = [&[], &[0], &[6], &[2, 3], &[0, 1, 5, 6]];
        for deleted in cases {
            let keep: Vec<usize> = t.rows().filter(|r| !deleted.contains(r)).collect();
            let copied = t.without_rows(deleted, 3);
            assert_eq!(copied, t.select_rows(&keep), "deleted {deleted:?}");
            assert!(copied.owners.capacity() >= keep.len() + 3, "room for the inserts");
        }
    }

    #[test]
    fn sensitive_overwrite() {
        let mut t = demo();
        t.set_sensitive_value(1, Value(0));
        assert_eq!(t.sensitive_value(1), Value(0));
        // QI columns untouched
        assert_eq!(t.qi_vector(1), vec![Value(2), Value(1)]);
    }

    #[test]
    fn owner_lookup_and_distinctness() {
        let mut t = demo();
        assert_eq!(t.row_of_owner(OwnerId(1)), Some(1));
        assert_eq!(t.row_of_owner(OwnerId(9)), None);
        assert!(t.owners_distinct());
        t.push_row(OwnerId(1), &[Value(0), Value(0), Value(0)]).unwrap();
        assert!(!t.owners_distinct());
    }

    #[test]
    fn distinctness_of_sparse_owner_ids() {
        let mut t = Table::new(schema());
        for id in [u32::MAX - 1, 0, 1 << 30, 7] {
            t.push_row(OwnerId(id), &[Value(0), Value(0), Value(0)]).unwrap();
        }
        assert!(t.owners_distinct());
        t.push_row(OwnerId(1 << 30), &[Value(0), Value(0), Value(0)]).unwrap();
        assert!(!t.owners_distinct());
    }

    #[test]
    fn empty_table_is_consistent() {
        let t = Table::new(schema());
        assert!(t.is_empty());
        assert!(t.owners_distinct());
        assert_eq!(t.rows().count(), 0);
    }
}
