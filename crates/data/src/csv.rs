//! Minimal, dependency-free CSV serialization for [`Table`]s.
//!
//! The writer emits one header row of attribute names followed by one row per
//! tuple, using domain labels. An optional leading `__owner` column carries
//! owner ids so a round-trip preserves identity. Quoting follows RFC 4180:
//! fields containing commas, quotes, or newlines are quoted, and embedded
//! quotes are doubled.
//! The reader parses a document in place (DESIGN.md §18).

use crate::digest::Fnv1a;
use crate::error::DataError;
use crate::schema::Schema;
use crate::table::{OwnerId, Table};
use crate::value::Value;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::io::{Read, Write};

/// Name of the synthetic owner-id column used on round trips.
pub const OWNER_COLUMN: &str = "__owner";

/// Appends `field` to `line`, quoted with its quotes doubled if it holds a
/// comma, quote, or line break.
fn push_field(line: &mut Vec<u8>, field: &str) {
    if !field.bytes().any(|b| matches!(b, b',' | b'"' | b'\n' | b'\r')) {
        line.extend_from_slice(field.as_bytes());
        return;
    }
    line.push(b'"');
    for (i, part) in field.split('"').enumerate() {
        if i > 0 {
            line.extend_from_slice(b"\"\"");
        }
        line.extend_from_slice(part.as_bytes());
    }
    line.push(b'"');
}

/// Writes a table as CSV. When `with_owners` is true, a leading
/// [`OWNER_COLUMN`] holds the numeric owner id of each row. Each line is
/// built in one reused buffer and handed to `w` in one call.
///
/// The writer is flushed before returning, so `Ok` means every byte has
/// left this process's buffers. Flushing is *not* the same as durability:
/// the operating system may still hold the bytes in its page cache. Callers
/// publishing a release to disk must go through
/// [`crate::atomic::write_atomic`] (or [`crate::atomic::CommitSet`] for
/// multi-file releases), which fsync before rename.
pub fn write_table<W: Write>(table: &Table, w: &mut W, with_owners: bool) -> Result<(), DataError> {
    let schema = table.schema();
    let mut line = Vec::new();
    let names = schema.attributes().iter().map(|a| a.name());
    for name in with_owners.then_some(OWNER_COLUMN).into_iter().chain(names) {
        push_field(&mut line, name);
        line.push(b',');
    }
    let mut rows = table.rows();
    loop {
        // Every line ends in a field separator; it becomes the terminator.
        line.pop();
        line.push(b'\n');
        w.write_all(&line)?;
        let Some(row) = rows.next() else { break };
        line.clear();
        if with_owners {
            write!(line, "{},", table.owner(row).raw())?;
        }
        for (col, attr) in schema.attributes().iter().enumerate() {
            push_field(&mut line, attr.domain().label(table.value(row, col)));
            line.push(b',');
        }
    }
    w.flush()?;
    Ok(())
}

/// Renders a table to a CSV string.
pub fn to_string(table: &Table, with_owners: bool) -> Result<String, DataError> {
    let mut buf = Vec::new();
    write_table(table, &mut buf, with_owners)?;
    String::from_utf8(buf).map_err(|e| DataError::Io(e.to_string()))
}

const UNTERMINATED: &str = "unterminated quoted field";

fn csv_error(line: usize, message: impl Into<String>) -> DataError {
    DataError::Csv { line, message: message.into() }
}

/// A read position in one CSV document; lines are counted only for errors.
struct Cursor<'d> {
    doc: &'d str,
    pos: usize,
    /// Holds a field that is not a slice of the document.
    scratch: String,
    /// The 1-based line number of byte `counted`.
    line: usize,
    counted: usize,
}

impl<'d> Cursor<'d> {
    fn new(doc: &'d str) -> Self {
        Cursor { doc, pos: 0, scratch: String::new(), line: 1, counted: 0 }
    }

    /// The 1-based line of byte `at`; `at` never decreases between calls.
    fn line_of(&mut self, at: usize) -> usize {
        let newlines = self.doc.as_bytes()[self.counted..at].iter().filter(|&&b| b == b'\n');
        self.line += newlines.count();
        self.counted = at;
        self.line
    }

    /// Skips blank lines (empty, or only `\r`s); returns where the next
    /// record starts.
    fn next_record(&mut self) -> Option<usize> {
        loop {
            let rest = &self.doc.as_bytes()[self.pos..];
            let i = rest.iter().position(|&b| b != b'\r')?;
            if rest[i] != b'\n' {
                return Some(self.pos);
            }
            self.pos += i + 1;
        }
    }

    /// Moves past the record at `start` by quote parity alone: it ends at the
    /// first `\n` reached with an even number of `"` since `start`. Returns
    /// false if the document ends first (a truncated record).
    fn skip_record(&mut self, start: usize) -> bool {
        let mut open = false;
        for (i, &b) in self.doc.as_bytes()[start..].iter().enumerate() {
            match b {
                b'"' => open = !open,
                b'\n' if !open => {
                    self.pos = start + i + 1;
                    return true;
                }
                _ => {}
            }
        }
        self.pos = self.doc.len();
        !open
    }

    /// The error for a truncated trailing record, if the rest of the
    /// document ends inside quotes.
    fn truncation(&mut self) -> Option<DataError> {
        while let Some(start) = self.next_record() {
            if !self.skip_record(start) {
                return Some(csv_error(self.line_of(start), UNTERMINATED));
            }
        }
        None
    }

    /// Reads the record at `start` (see [`Cursor::fields`]). On an error the
    /// cursor still moves past the record, and a record the document
    /// truncates reports that instead.
    fn record(
        &mut self,
        start: usize,
        f: impl FnMut(usize, &str) -> Result<(), String>,
    ) -> Result<usize, DataError> {
        self.fields(f).map_err(|message| {
            let message = if self.skip_record(start) { message } else { UNTERMINATED.into() };
            csv_error(self.line_of(start), message)
        })
    }

    /// Hands each field of the record at the cursor to `f` as `(position,
    /// text)` and moves past the record. A field is a slice of the document
    /// unless it holds a doubled quote or text after its closing quote. Only
    /// the `\r`s ending the record's last line are trimmed: inside quotes
    /// they are data (RFC 4180). Returns the field count.
    fn fields(&mut self, mut f: impl FnMut(usize, &str) -> Result<(), String>) -> Result<usize, String> {
        let (doc, b) = (self.doc, self.doc.as_bytes());
        let mut count = 0;
        loop {
            let start = self.pos;
            // For a quoted field: its closing quote, and whether a `""`
            // precedes it. Unquoted text starts at `rest`.
            let (mut quoted, mut rest, mut escaped) = (None, start, false);
            while b.get(start) == Some(&b'"') && quoted.is_none() {
                let from = rest + 1;
                rest = from + b[from..].iter().position(|&c| c == b'"').ok_or(UNTERMINATED)?;
                if b.get(rest + 1) == Some(&b'"') {
                    escaped = true;
                } else {
                    quoted = Some((rest, escaped));
                }
                rest += 1;
            }
            let len = b[rest..].iter().position(|&c| matches!(c, b',' | b'"' | b'\n'));
            let end = rest + len.unwrap_or(b.len() - rest);
            if b.get(end) == Some(&b'"') {
                return Err("quote inside unquoted field".into());
            }
            self.pos = (end + 1).min(b.len());
            let last = b.get(end) != Some(&b',');
            let tail = if last { doc[rest..end].trim_end_matches('\r') } else { &doc[rest..end] };
            let text = match quoted {
                None => tail,
                Some((q, false)) if tail.is_empty() => &doc[start + 1..q],
                Some((q, _)) => {
                    self.scratch.clear();
                    for part in doc[start + 1..q].split("\"\"") {
                        self.scratch.push_str(part);
                        self.scratch.push('"');
                    }
                    self.scratch.pop();
                    self.scratch.push_str(tail);
                    self.scratch.as_str()
                }
            };
            f(count, text)?;
            count += 1;
            if last {
                return Ok(count);
            }
        }
    }
}

/// A domain's label → code index, hashed with the repo's one FNV.
type LabelIndex<'s> = HashMap<&'s str, Value, BuildHasherDefault<Fnv1a>>;

/// `Header::column_map` entry of the owner column.
const OWNER: usize = usize::MAX;

/// The resolved header of a CSV document, with a label index per schema
/// column built once per read.
struct Header<'s> {
    schema: &'s Schema,
    /// `column_map[field position] = schema column index` ([`OWNER`] for
    /// the owner column).
    column_map: Vec<usize>,
    /// The first occurrence of a label wins, as in
    /// [`Domain::code_of`](crate::value::Domain::code_of).
    labels: Vec<LabelIndex<'s>>,
}

impl<'s> Header<'s> {
    fn read(schema: &'s Schema, cur: &mut Cursor<'_>, start: usize) -> Result<Self, DataError> {
        // Every field is read before any name is checked, so a quoting
        // error anywhere in the header is the one reported.
        let mut names = Vec::with_capacity(schema.arity() + 1);
        cur.record(start, |_, name| {
            names.push(name.to_string());
            Ok(())
        })?;
        let mut column_map = Vec::with_capacity(names.len());
        let error = names.iter().find_map(|name| {
            let col = if name == OWNER_COLUMN {
                OWNER
            } else if let Ok(col) = schema.index_of(name) {
                col
            } else {
                return Some(format!("unexpected column `{name}`"));
            };
            if column_map.contains(&col) {
                let column = if col == OWNER { "owner column".into() } else { format!("column `{name}`") };
                return Some(format!("duplicate {column}"));
            }
            column_map.push(col);
            None
        });
        let missing = (0..schema.arity()).find(|col| !column_map.contains(col));
        let missing = missing.map(|col| format!("missing column `{}`", schema.attribute(col).name()));
        if let Some(message) = error.or(missing) {
            return Err(csv_error(cur.line_of(start), message));
        }
        let labels = schema.attributes().iter().map(|attr| {
            let dom = attr.domain();
            // Inserted last to first, so the first occurrence of a label wins.
            (0..dom.size()).rev().map(|code| (dom.label(Value(code)), Value(code))).collect()
        });
        Ok(Header { schema, column_map, labels: labels.collect() })
    }

    /// Reads the record at `start` into `row`, returning its owner.
    fn row(
        &self,
        cur: &mut Cursor<'_>,
        start: usize,
        fallback_owner: u32,
        row: &mut [Value],
    ) -> Result<OwnerId, DataError> {
        let mut owner = OwnerId(fallback_owner);
        let count = cur.record(start, |pos, field| {
            match self.column_map.get(pos) {
                // Arity is diagnosed after the walk, with the full count.
                None => {}
                Some(&OWNER) => {
                    let id = field.parse().map_err(|_| format!("invalid owner id `{field}`"))?;
                    owner = OwnerId(id);
                }
                Some(&col) => {
                    row[col] = match self.labels[col].get(field) {
                        Some(&v) => v,
                        None => {
                            let attr = self.schema.attribute(col);
                            attr.domain().resolve(attr.name(), field).map_err(|e| e.to_string())?
                        }
                    }
                }
            }
            Ok(())
        })?;
        if count != self.column_map.len() {
            let message = format!("expected {} fields, got {count}", self.column_map.len());
            return Err(csv_error(cur.line_of(start), message));
        }
        Ok(owner)
    }
}

/// Documents are split across cores only in shards of at least this many
/// bytes, so a small document never spawns a thread.
const MIN_SHARD_BYTES: usize = 1 << 20;

/// How many threads a read may use.
fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Reads one document: the body of both the strict and the lossy read.
/// Strict stops at the first error, but reports a truncated trailing record
/// before anything else. A body of `2 * min_shard_bytes` or more is first
/// read by [`read_shards`] in `min(max_shards(), body / min_shard_bytes)`
/// shards; on any failure it is read again sequentially, for exact errors,
/// line numbers and lossy counts.
fn read_document(
    schema: &Schema,
    doc: &str,
    strict: bool,
    max_shards: impl FnOnce() -> usize,
    min_shard_bytes: usize,
) -> Result<LossyRead, DataError> {
    let mut cur = Cursor::new(doc);
    let empty = || csv_error(1, "empty document");
    let start = cur.next_record().ok_or_else(empty)?;
    let header = match Header::read(schema, &mut cur, start) {
        Ok(header) => header,
        Err(e) if strict => return Err(cur.truncation().unwrap_or(e)),
        // A truncated header means the document has no complete record.
        Err(DataError::Csv { message, .. }) if message == UNTERMINATED => return Err(empty()),
        Err(e) => return Err(e),
    };
    let by_size = (doc.len() - cur.pos) / min_shard_bytes;
    let shards = if by_size > 1 { by_size.min(max_shards()) } else { 1 };
    if shards > 1 {
        if let Some(table) = read_shards(&header, doc, cur.pos, shards) {
            return Ok(LossyRead { table, rows_skipped: 0, errors: Vec::new() });
        }
    }
    read_rows(&header, &mut cur, strict)
}

/// Reads the body `doc[from..]` strictly in `shards` pieces, one per scoped
/// thread, and concatenates their tables. Each cut falls after the first
/// `\n` at or past its nominal offset. The first shard starts at a record
/// boundary; a shard that starts at one and reads with no error ended its
/// last record at its cut (a record running past the cut fails as
/// unterminated), so the next shard starts at one too. Returns `None` if any
/// shard fails.
fn read_shards(header: &Header<'_>, doc: &str, from: usize, shards: usize) -> Option<Table> {
    let step = (doc.len() - from) / shards;
    let mut cuts = vec![from];
    for i in 1..shards {
        let nominal = (from + i * step).max(cuts[i - 1]);
        let newline = doc.as_bytes()[nominal..].iter().position(|&b| b == b'\n');
        cuts.push(newline.map_or(doc.len(), |at| nominal + at + 1));
    }
    cuts.push(doc.len());
    let read = |w: &[usize]| read_rows(header, &mut Cursor::new(&doc[w[0]..w[1]]), true).ok();
    let reads: Vec<Option<LossyRead>> = std::thread::scope(|s| {
        let rest: Vec<_> = cuts[1..].windows(2).map(|w| s.spawn(move || read(w))).collect();
        std::iter::once(read(&cuts[..2]))
            .chain(rest.into_iter().map(|h| h.join().ok().flatten()))
            .collect()
    });
    let mut reads = reads.into_iter();
    let mut table = reads.next()??.table;
    // Without an owner column, a shard numbers its rows from 0.
    let owned = header.column_map.contains(&OWNER);
    for shard in reads {
        let offset = if owned { 0 } else { table.len() as u32 };
        table.append(&shard?.table, offset);
    }
    Some(table)
}

/// Reads the records from the cursor to the end of its document, the row
/// loop of both the sequential and the sharded read. Rows without an owner
/// column are numbered from 0.
fn read_rows(header: &Header<'_>, cur: &mut Cursor<'_>, strict: bool) -> Result<LossyRead, DataError> {
    // The line count bounds the row count, so each column is sized once.
    // Counting into a `u8` per 255-byte chunk lets the count vectorize.
    let chunks = cur.doc.as_bytes()[cur.pos..].chunks(255);
    let lines = chunks.map(|c| c.iter().fold(0u8, |n, &b| n + u8::from(b == b'\n')) as usize);
    let rows = lines.sum::<usize>() + 1;
    let mut out = LossyRead {
        table: Table::with_capacity(header.schema.clone(), rows),
        rows_skipped: 0,
        errors: Vec::new(),
    };
    let mut row = vec![Value(0); header.schema.arity()];
    for next_owner in 0usize.. {
        let Some(start) = cur.next_record() else { break };
        let read = header.row(cur, start, next_owner as u32, &mut row);
        match read.and_then(|owner| out.table.push_row(owner, &row)) {
            Ok(()) => {}
            Err(e) if strict => return Err(cur.truncation().unwrap_or(e)),
            Err(e) => {
                out.rows_skipped += 1;
                if out.errors.len() < LOSSY_ERROR_CAP {
                    out.errors.push(e);
                }
            }
        }
    }
    Ok(out)
}

/// Reads a CSV document into a table over `schema`.
///
/// The header must name every schema attribute (in any order); extra columns
/// other than [`OWNER_COLUMN`] are rejected. If the owner column is absent,
/// rows are assigned sequential owner ids.
///
/// The first malformed row aborts the read with a line-numbered
/// [`DataError::Csv`]. Use [`read_table_lossy`] to skip and count bad rows
/// instead.
pub fn read_table<R: Read>(schema: &Schema, mut r: R) -> Result<Table, DataError> {
    let mut doc = String::new();
    r.read_to_string(&mut doc)?;
    from_str(schema, &doc)
}

/// How many per-row errors a lossy read retains verbatim (the total count is
/// always exact in [`LossyRead::rows_skipped`]).
pub const LOSSY_ERROR_CAP: usize = 32;

/// Outcome of a lossy CSV read: the rows that parsed, plus an exact account
/// of the rows that did not.
#[derive(Debug, Clone, PartialEq)]
pub struct LossyRead {
    /// The table assembled from the well-formed rows.
    pub table: Table,
    /// Number of data rows skipped as malformed.
    pub rows_skipped: usize,
    /// The first [`LOSSY_ERROR_CAP`] row errors, line-numbered, in document
    /// order.
    pub errors: Vec<DataError>,
}

impl LossyRead {
    /// `true` when every row parsed.
    pub fn is_complete(&self) -> bool {
        self.rows_skipped == 0
    }
}

/// Reads a CSV document, skipping malformed data rows instead of failing.
///
/// Structural problems remain fatal: an unreadable stream, an empty
/// document, or a bad *header* still return `Err` — without a valid header
/// no row can be interpreted at all. Everything else (ragged rows,
/// unresolvable labels, bad owner ids, a truncated trailing record) is
/// dropped, counted in [`LossyRead::rows_skipped`], and sampled into
/// [`LossyRead::errors`].
pub fn read_table_lossy<R: Read>(schema: &Schema, mut r: R) -> Result<LossyRead, DataError> {
    let mut doc = String::new();
    r.read_to_string(&mut doc)?;
    from_str_lossy(schema, &doc)
}

/// Parses a CSV string into a table over `schema`.
pub fn from_str(schema: &Schema, s: &str) -> Result<Table, DataError> {
    read_document(schema, s, true, cores, MIN_SHARD_BYTES).map(|read| read.table)
}

/// Parses a CSV string, skipping malformed data rows. See
/// [`read_table_lossy`].
pub fn from_str_lossy(schema: &Schema, s: &str) -> Result<LossyRead, DataError> {
    read_document(schema, s, false, cores, MIN_SHARD_BYTES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Attribute;
    use crate::value::Domain;

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("Age", Domain::int_range(20, 29)),
            Attribute::quasi("City", Domain::nominal(["Plain", "Quo\"ted", "Com,ma"])),
            Attribute::sensitive("S", Domain::nominal(["a", "b"])),
        ])
        .unwrap()
    }

    fn demo() -> Table {
        let mut t = Table::new(schema());
        t.push_row(OwnerId(7), &[Value(0), Value(1), Value(0)]).unwrap();
        t.push_row(OwnerId(3), &[Value(9), Value(2), Value(1)]).unwrap();
        t
    }

    #[test]
    fn round_trip_with_owners() {
        let t = demo();
        let text = to_string(&t, true).unwrap();
        let back = from_str(&schema(), &text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn round_trip_without_owners_assigns_sequential_ids() {
        let t = demo();
        let text = to_string(&t, false).unwrap();
        let back = from_str(&schema(), &text).unwrap();
        assert_eq!(back.owner(0), OwnerId(0));
        assert_eq!(back.owner(1), OwnerId(1));
        assert_eq!(back.row(0), t.row(0));
        assert_eq!(back.row(1), t.row(1));
    }

    #[test]
    fn quoting_special_characters() {
        let t = demo();
        let text = to_string(&t, false).unwrap();
        assert!(text.contains("\"Quo\"\"ted\""));
        assert!(text.contains("\"Com,ma\""));
    }

    #[test]
    fn header_reordering_is_accepted() {
        let text = "S,Age,City\nb,25,Plain\n";
        let t = from_str(&schema(), text).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.value(0, 0), Value(5)); // Age 25
        assert_eq!(t.value(0, 1), Value(0)); // Plain
        assert_eq!(t.value(0, 2), Value(1)); // b
    }

    #[test]
    fn missing_and_unknown_columns_rejected() {
        let missing = from_str(&schema(), "Age,City\n25,Plain\n");
        assert!(matches!(missing, Err(DataError::Csv { .. })));
        let unknown = from_str(&schema(), "Age,City,S,Zip\n25,Plain,a,1\n");
        assert!(matches!(unknown, Err(DataError::Csv { .. })));
    }

    #[test]
    fn bad_rows_rejected() {
        let short = from_str(&schema(), "Age,City,S\n25,Plain\n");
        assert!(matches!(short, Err(DataError::Csv { .. })));
        let bad_label = from_str(&schema(), "Age,City,S\n25,Plain,zzz\n");
        assert!(matches!(bad_label, Err(DataError::Csv { .. })));
        let unterminated = from_str(&schema(), "Age,City,S\n25,\"Plain,a\n");
        assert!(matches!(unterminated, Err(DataError::Csv { .. })));
    }

    #[test]
    fn multiline_quoted_field_round_trips() {
        let schema = Schema::new(vec![
            Attribute::quasi("Note", Domain::nominal(["line1\nline2", "x"])),
            Attribute::sensitive("S", Domain::nominal(["a"])),
        ])
        .unwrap();
        let mut t = Table::new(schema.clone());
        t.push_row(OwnerId(0), &[Value(0), Value(0)]).unwrap();
        let text = to_string(&t, false).unwrap();
        let back = from_str(&schema, &text).unwrap();
        assert_eq!(back.value(0, 0), Value(0));
    }

    #[test]
    fn quoted_crlf_survives_a_round_trip() {
        // Only the `\r`s ending a record are a line terminator; inside
        // quotes they are data (RFC 4180).
        let schema = Schema::new(vec![
            Attribute::quasi("Note", Domain::nominal(["a\nb", "a\r\nb", "c\r"])),
            Attribute::sensitive("S", Domain::nominal(["a"])),
        ])
        .unwrap();
        let mut t = Table::new(schema.clone());
        for code in [1, 0, 2, 1] {
            t.push_row(OwnerId(code), &[Value(code), Value(0)]).unwrap();
        }
        let text = to_string(&t, true).unwrap();
        assert_eq!(from_str(&schema, &text).unwrap(), t);
        let crlf = from_str(&schema, "Note,S\r\n\"a\r\nb\",a\r\n\"c\r\",a\r\r\n").unwrap();
        assert_eq!(crlf.row(0), &[Value(1), Value(0)][..]);
        assert_eq!(crlf.row(1), &[Value(2), Value(0)][..]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "Age,City,S\n\n25,Plain,a\n\n";
        let t = from_str(&schema(), text).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn crlf_line_endings_are_accepted() {
        let text = "Age,City,S\r\n25,Plain,a\r\n26,Plain,b\r\n";
        let t = from_str(&schema(), text).unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.value(1, 0), Value(6)); // Age 26
        assert_eq!(t.value(1, 2), Value(1)); // b
    }

    #[test]
    fn missing_trailing_newline_is_accepted() {
        let text = "Age,City,S\n25,Plain,a";
        let t = from_str(&schema(), text).unwrap();
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn empty_document_is_rejected() {
        assert!(matches!(from_str(&schema(), ""), Err(DataError::Csv { .. })));
        // Header-only: a valid empty table.
        let t = from_str(&schema(), "Age,City,S\n").unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn strict_errors_carry_the_right_line_number() {
        // Line 3 is the ragged one (line 1 is the header).
        let text = "Age,City,S\n25,Plain,a\n26,Plain\n27,Plain,b\n";
        match from_str(&schema(), text) {
            Err(DataError::Csv { line, message }) => {
                assert_eq!(line, 3);
                assert!(message.contains("expected 3 fields"));
            }
            other => panic!("expected a line-numbered CSV error, got {other:?}"),
        }
    }

    #[test]
    fn lossy_mode_skips_and_counts_corrupt_rows() {
        // Four kinds of corruption in one document: ragged row, unknown
        // label, bad owner id, and a truncated trailing quoted field.
        let text = "__owner,Age,City,S\n\
                    7,25,Plain,a\n\
                    8,26,Plain\n\
                    9,27,Mars,a\n\
                    frog,27,Plain,b\n\
                    10,28,Plain,b\n\
                    11,29,\"Plain,a";
        let read = from_str_lossy(&schema(), text).unwrap();
        assert_eq!(read.table.len(), 2, "only the two clean rows survive");
        assert_eq!(read.rows_skipped, 4);
        assert!(!read.is_complete());
        assert_eq!(read.errors.len(), 4);
        // Errors arrive in document order with their line numbers.
        let lines: Vec<usize> = read
            .errors
            .iter()
            .map(|e| match e {
                DataError::Csv { line, .. } => *line,
                other => panic!("unexpected error kind {other:?}"),
            })
            .collect();
        assert_eq!(lines, vec![3, 4, 5, 7]);
        assert_eq!(read.table.owner(0), OwnerId(7));
        assert_eq!(read.table.owner(1), OwnerId(10));
    }

    #[test]
    fn lossy_mode_still_rejects_structural_failures() {
        // No header at all.
        assert!(from_str_lossy(&schema(), "").is_err());
        // A header that names an unknown column poisons every row.
        assert!(from_str_lossy(&schema(), "Age,City,S,Zip\n25,Plain,a,1\n").is_err());
    }

    #[test]
    fn lossy_read_of_a_clean_document_is_lossless() {
        let t = demo();
        let text = to_string(&t, true).unwrap();
        let read = from_str_lossy(&schema(), &text).unwrap();
        assert!(read.is_complete());
        assert!(read.errors.is_empty());
        assert_eq!(read.table, t);
    }

    /// Schema of the golden documents: `K` holds the awkward labels
    /// (including `dup` twice, so first-occurrence resolution shows).
    fn golden_schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("K", Domain::nominal(["a\"b", "abcd", "l1\nl2", " sp", "dup", "x", "dup"])),
            Attribute::sensitive("S", Domain::nominal(["s", "t"])),
        ])
        .unwrap()
    }

    /// A read outcome as one line: `owner:code,code …` per row, or
    /// `line: message` for a CSV error.
    fn outcome(read: Result<Table, DataError>) -> String {
        match read {
            Ok(t) => t
                .rows()
                .map(|r| {
                    let codes: Vec<String> = t.row(r).iter().map(|v| v.0.to_string()).collect();
                    format!("{}:{}", t.owner(r).raw(), codes.join(","))
                })
                .collect::<Vec<_>>()
                .join(" "),
            Err(DataError::Csv { line, message }) => format!("{line}: {message}"),
            Err(other) => format!("{other:?}"),
        }
    }

    /// The lossy outcome: kept rows, then the line of every retained error.
    fn lossy_outcome(read: Result<LossyRead, DataError>) -> String {
        match read {
            Ok(r) => {
                let lines: Vec<String> = r
                    .errors
                    .iter()
                    .map(|e| match e {
                        DataError::Csv { line, .. } => line.to_string(),
                        other => format!("{other:?}"),
                    })
                    .collect();
                format!("{} | skipped {} at [{}]", outcome(Ok(r.table)), r.rows_skipped, lines.join(","))
            }
            Err(e) => outcome(Err(e)),
        }
    }

    const NOT_IN_K: &str = "not found in domain of attribute `K`";

    #[test]
    fn golden_edge_case_documents() {
        let unknown = |label: &str, line: usize| format!("{line}: label `{label}` {NOT_IN_K}");
        let cases: Vec<(&str, String)> = vec![
            // A doubled quote inside quotes is one quote.
            ("K,S\n\"a\"\"b\",s\n", "0:0,0".into()),
            // Text after the closing quote is appended.
            ("K,S\n\"ab\"cd,t\n", "0:1,1".into()),
            // A stray quote in an unquoted field. With an odd quote count
            // the record runs to the end of input instead.
            ("K,S\nab\"c,\"s\n", "2: quote inside unquoted field".into()),
            ("K,S\nab\"c,s\nx,s\n", "2: unterminated quoted field".into()),
            ("K,S\n\"a\"b\"c\",s\n", "2: quote inside unquoted field".into()),
            // `"a""` never closes: the doubled quote is an escaped one.
            ("K,S\n\"a\"\",s\nx,s\n", "2: unterminated quoted field".into()),
            ("K,S\n\"a\"\",s\nx,s\"\n", unknown("a\",s\nx,s", 2)),
            // A multi-line quoted record keeps its start line, and the lines
            // inside it still count.
            ("K,S\n\n\"l1\nl2\",s\nx,t\n", "0:2,0 1:5,1".into()),
            ("K,S\n\"l1\nl2\",s\nzz,t\n", unknown("zz", 4)),
            // An odd quote at end of input wins over an earlier bad row.
            ("K,S\nzz,s\nx,s\n\"x,s", "4: unterminated quoted field".into()),
            // CRLF, and a trailing run of `\r`s, are line terminators.
            ("K,S\r\nx,s\r\nabcd,t\r\n", "0:5,0 1:1,1".into()),
            ("K,S\nx,s\r\r", "0:5,0".into()),
            ("K,S\nx,s\r\r\n\r\n", "0:5,0".into()),
            ("K,S\n\"x\"\r\n", "2: expected 2 fields, got 1".into()),
            ("K,S\n\"abcd\",\"t\"\r\n", "0:1,1".into()),
            // Blank lines (bare or `\r`) are skipped but numbered.
            ("\r\nK,S\n\n\nx,s\n\r\nzz,s\n", unknown("zz", 7)),
            // A trailing comma is one more (empty) field.
            ("K,S\nx,s,\n", "2: expected 2 fields, got 3".into()),
            ("K,S\nx,\n", "2: label `` not found in domain of attribute `S`".into()),
            // Header-only is an empty table; no header is an error.
            ("K,S\n", "".into()),
            ("K,S", "".into()),
            ("", "1: empty document".into()),
            ("\n\r\n\r", "1: empty document".into()),
            ("\"K,S\n", "1: unterminated quoted field".into()),
            // Header problems.
            ("__owner,K,__owner,S\n", "1: duplicate owner column".into()),
            ("K,K,S\n", "1: duplicate column `K`".into()),
            ("K\n", "1: missing column `S`".into()),
            ("K,S,Z\n", "1: unexpected column `Z`".into()),
            ("K,\"S\"\n", "".into()),
            // Owner ids parse as `u32`: `+7` is 7, `-1` is not an id.
            ("__owner,K,S\n+7,x,s\n", "7:5,0".into()),
            ("__owner,K,S\n-1,x,s\n", "2: invalid owner id `-1`".into()),
            ("S,__owner,K\nt,4294967295,x\n", "4294967295:5,1".into()),
            // Labels are not trimmed.
            ("K,S\n sp,s\n", "0:3,0".into()),
            ("K,S\nx ,s\n", unknown("x ", 2)),
            // A duplicated label resolves to its first occurrence.
            ("K,S\ndup,s\n", "0:4,0".into()),
            // Arity is checked after every field resolved.
            ("K,S\nx\n", "2: expected 2 fields, got 1".into()),
            ("K,S\nzz\n", unknown("zz", 2)),
            ("K,S\nx,s,\"q\n", "2: unterminated quoted field".into()),
        ];
        let wrong: Vec<String> = cases
            .iter()
            .map(|(doc, want)| (doc, want, outcome(from_str(&golden_schema(), doc))))
            .filter(|(_, want, got)| want != &got)
            .map(|(doc, want, got)| format!("{doc:?}: want {want:?}, got {got:?}"))
            .collect();
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn golden_lossy_outcomes() {
        let cases = [
            ("K,S\nzz,s\nx,s\n\"x,s", "1:5,0 | skipped 2 at [2,4]"),
            ("K,S\nab\"c,\"s\nx,t\n", "1:5,1 | skipped 1 at [2]"),
            ("K,S\nab\"c,s\nx,t\n", " | skipped 1 at [2]"),
            ("K,S\n\"l1\nl2\",zz\n\nx,t\r\n", "1:5,1 | skipped 1 at [2]"),
            // With no complete record there is no header.
            ("\"K,S\n", "1: empty document"),
            ("K,S,Z\nx,s,\"", "1: unexpected column `Z`"),
        ];
        let wrong: Vec<String> = cases
            .iter()
            .map(|&(doc, want)| (doc, want, lossy_outcome(from_str_lossy(&golden_schema(), doc))))
            .filter(|(_, want, got)| want != got)
            .map(|(doc, want, got)| format!("{doc:?}: want {want:?}, got {got:?}"))
            .collect();
        assert!(wrong.is_empty(), "{}", wrong.join("\n"));
    }

    #[test]
    fn non_utf8_input_is_an_io_error() {
        let bytes: &[u8] = b"K,S\nx,s\n\xff,s\n";
        for read in
            [read_table(&golden_schema(), bytes).err(), read_table_lossy(&golden_schema(), bytes).err()]
        {
            assert_eq!(read, Some(DataError::Io("stream did not contain valid UTF-8".into())));
        }
    }

    /// Schema of the mutation property: labels that need quoting.
    fn mutation_schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("N", Domain::nominal(["plain", "co,mma", "q\"uote", "l\nf", "c\rr", ""])),
            Attribute::quasi("A", Domain::int_range(0, 11)),
            Attribute::sensitive("S", Domain::nominal(["s", "t,u"])),
        ])
        .unwrap()
    }

    /// A document of `rows` over [`mutation_schema`], with or without
    /// owners, after `edits` each insert, delete or overwrite one of `,`,
    /// `"`, `\r` or `\n`.
    fn mutated_document(rows: &[u64], owners: bool, edits: &[u64]) -> String {
        let mut table = Table::new(mutation_schema());
        for (i, r) in rows.iter().enumerate() {
            let row = [Value((r % 6) as u32), Value((r / 6 % 12) as u32), Value((r / 72 % 2) as u32)];
            table.push_row(OwnerId(i as u32 * 5), &row).unwrap();
        }
        let mut doc = to_string(&table, owners).unwrap().into_bytes();
        for e in edits {
            let at = (e >> 8) as usize % (doc.len() + 1);
            let byte = [b',', b'"', b'\r', b'\n'][(e >> 2) as usize % 4];
            match e % 3 {
                0 => doc.insert(at, byte),
                1 if at < doc.len() => {
                    doc.remove(at);
                }
                _ if at < doc.len() => doc[at] = byte,
                _ => {}
            }
        }
        // Only ASCII is inserted or removed, so the document stays UTF-8.
        String::from_utf8(doc).unwrap()
    }

    /// A read in exactly `shards` shards (for a body of at least that many
    /// bytes); one shard is the sequential read.
    fn read_in(schema: &Schema, doc: &str, strict: bool, shards: usize) -> Result<LossyRead, DataError> {
        read_document(schema, doc, strict, || shards, 1)
    }

    /// The sharded body of `doc` in `shards` shards, bypassing the fallback.
    fn shards_of(schema: &Schema, doc: &str, shards: usize) -> Option<Table> {
        let mut cur = Cursor::new(doc);
        let start = cur.next_record().unwrap();
        let header = Header::read(schema, &mut cur, start).unwrap();
        read_shards(&header, doc, cur.pos, shards)
    }

    proptest::proptest! {
        #[test]
        fn mutated_documents_read_strictly_exactly_when_lossy_is_complete(
            rows in proptest::collection::vec(0u64..u64::MAX, 0..12),
            owners in 0u64..2,
            edits in proptest::collection::vec(0u64..u64::MAX, 0..4),
        ) {
            let schema = mutation_schema();
            let doc = mutated_document(&rows, owners == 1, &edits);
            match (from_str(&schema, &doc), from_str_lossy(&schema, &doc)) {
                (Ok(t), Ok(lossy)) => {
                    proptest::prop_assert!(lossy.is_complete(), "strict Ok but lossy skipped: {doc:?}");
                    proptest::prop_assert_eq!(lossy.table, t);
                }
                (Err(_), Ok(lossy)) => {
                    proptest::prop_assert!(!lossy.is_complete(), "strict Err but lossy complete: {doc:?}");
                }
                (Ok(_), Err(e)) => proptest::prop_assert!(false, "lossy failed alone: {e} on {doc:?}"),
                (Err(_), Err(_)) => {}
            }
        }

        #[test]
        fn sharded_reads_equal_the_sequential_read(
            rows in proptest::collection::vec(0u64..u64::MAX, 0..40),
            owners in 0u64..2,
            edits in proptest::collection::vec(0u64..u64::MAX, 0..3),
        ) {
            let schema = mutation_schema();
            let doc = mutated_document(&rows, owners == 1, &edits);
            for strict in [true, false] {
                let sequential = read_in(&schema, &doc, strict, 1);
                for shards in [2, 3, 8] {
                    let sharded = read_in(&schema, &doc, strict, shards);
                    proptest::prop_assert!(sharded == sequential, "{shards} shards of {doc:?}");
                }
            }
        }
    }

    #[test]
    fn a_cut_inside_a_quoted_field_falls_back_to_the_sequential_read() {
        // Every record spans two lines, so some cuts land inside quotes.
        let schema = mutation_schema();
        let rows: Vec<u64> = (0..50).map(|i| 3 + 6 * (i % 12)).collect();
        for owners in [false, true] {
            let doc = mutated_document(&rows, owners, &[]);
            let sequential = from_str(&schema, &doc).unwrap();
            let failed = (2..=8).filter(|&n| shards_of(&schema, &doc, n).is_none()).count();
            assert!(failed > 0, "no cut landed inside a quoted field");
            for shards in [1, 2, 3, 8] {
                assert_eq!(read_in(&schema, &doc, true, shards).unwrap().table, sequential);
            }
        }
    }

    #[test]
    fn an_error_in_any_shard_reads_as_the_sequential_error() {
        let schema = mutation_schema();
        // Only the single-line label `plain` on `N`.
        let rows: Vec<u64> = (0..64).map(|i| i * 6).collect();
        let clean = mutated_document(&rows, false, &[]);
        let sequential = from_str(&schema, &clean).unwrap();
        for shards in [2, 3, 8] {
            assert_eq!(shards_of(&schema, &clean, shards), Some(sequential.clone()));
            for shard in 0..shards {
                // Line 2 + row is the row's line; each edit lands in `shard`.
                let line = 2 + (shard * 64 + 32) / shards;
                let mut lines: Vec<&str> = clean.lines().collect();
                lines[line - 1] = "zz,1,s";
                let doc = lines.join("\n") + "\n";
                assert_eq!(shards_of(&schema, &doc, shards), None);
                for strict in [true, false] {
                    let got = read_in(&schema, &doc, strict, shards);
                    assert_eq!(got, read_in(&schema, &doc, strict, 1));
                }
                let want = "label `zz` not found in domain of attribute `N`";
                assert_eq!(from_str(&schema, &doc), Err(csv_error(line, want)));
            }
        }
    }

    #[test]
    fn a_large_document_reads_the_same_in_shards_of_the_real_size() {
        // Over 2 MiB: at least two shards of `MIN_SHARD_BYTES`.
        let table = crate::sal::generate(crate::sal::SalConfig { rows: 50_000, seed: 5 });
        for owners in [false, true] {
            let doc = to_string(&table, owners).unwrap();
            let sharded = read_document(table.schema(), &doc, true, || 8, MIN_SHARD_BYTES).unwrap();
            assert_eq!(sharded, read_in(table.schema(), &doc, true, 1).unwrap());
            let mut cur = Cursor::new(&doc);
            let start = cur.next_record().unwrap();
            Header::read(table.schema(), &mut cur, start).unwrap();
            assert!((doc.len() - cur.pos) / MIN_SHARD_BYTES >= 2);
            if owners {
                assert_eq!(sharded.table, table);
            }
        }
    }

    #[test]
    fn lossy_error_cap_bounds_retained_errors_not_the_count() {
        let mut text = String::from("Age,City,S\n");
        for _ in 0..(LOSSY_ERROR_CAP + 10) {
            text.push_str("bad-row\n");
        }
        let read = from_str_lossy(&schema(), &text).unwrap();
        assert_eq!(read.rows_skipped, LOSSY_ERROR_CAP + 10);
        assert_eq!(read.errors.len(), LOSSY_ERROR_CAP);
        assert!(read.table.is_empty());
    }
}
