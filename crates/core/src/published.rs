//! The released table `D*`.
//!
//! `D*` is not a conventional relation: each published tuple carries a
//! generalized QI region (identified by its recoding signature), an
//! *observed* sensitive value that may have been perturbed, and the size `G`
//! of its source QI-group (Step S3 of the paper's Phase 3).
//!
//! The recoding used in Phase 2 is part of the release — an adversary (and a
//! legitimate analyst) must be able to map any QI-vector to its unique
//! covering region, which is exactly Step A1 of the linking attack.

use acpp_data::{Schema, Taxonomy, Value};
use acpp_generalize::{Recoding, Signature};
use std::collections::{HashMap, HashSet};
use std::fmt::Write;
use std::sync::OnceLock;

/// One tuple of `D*`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublishedTuple {
    /// Recoding signature of the generalized QI region.
    pub signature: Signature,
    /// The observed (possibly perturbed) sensitive value `y`.
    pub sensitive: Value,
    /// `G` — the size of the source QI-group.
    pub group_size: usize,
}

/// The anonymized release `D*` together with the publication metadata that
/// the paper treats as public: the recoding, the retention probability `p`,
/// and the group-size floor `k`.
#[derive(Debug, Clone)]
pub struct PublishedTable {
    schema: Schema,
    recoding: Recoding,
    tuples: Vec<PublishedTuple>,
    /// Signature → tuple, built by the first [`PublishedTable::crucial_tuple`]:
    /// only linking attacks look tuples up by region, so a release that is
    /// only rendered never pays for it.
    sig_index: OnceLock<HashMap<Signature, usize>>,
    retention: f64,
    k: usize,
}

/// Equality is over the release itself; whether the lookup index has been
/// built yet is not part of it.
impl PartialEq for PublishedTable {
    fn eq(&self, other: &Self) -> bool {
        self.schema == other.schema
            && self.recoding == other.recoding
            && self.tuples == other.tuples
            && self.retention == other.retention
            && self.k == other.k
    }
}

impl PublishedTable {
    /// Assembles a published table.
    ///
    /// # Panics
    /// Panics if two tuples share a signature (would violate Step S2's
    /// one-tuple-per-group invariant).
    pub fn new(
        schema: Schema,
        recoding: Recoding,
        tuples: Vec<PublishedTuple>,
        retention: f64,
        k: usize,
    ) -> Self {
        assert!(signatures_distinct(&tuples), "duplicate signature in published table");
        PublishedTable { schema, recoding, tuples, sig_index: OnceLock::new(), retention, k }
    }

    /// Number of published tuples (`|D*|`).
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if nothing was published.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// The published tuples, ordered by QI-group id.
    pub fn tuples(&self) -> &[PublishedTuple] {
        &self.tuples
    }

    /// A single tuple.
    pub fn tuple(&self, i: usize) -> &PublishedTuple {
        &self.tuples[i]
    }

    /// The microdata schema the release was derived from.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// The Phase-2 recoding (public).
    pub fn recoding(&self) -> &Recoding {
        &self.recoding
    }

    /// The Phase-1 retention probability `p` (public).
    pub fn retention(&self) -> f64 {
        self.retention
    }

    /// The Phase-2 group-size floor `k` (public).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Step A1 of a linking attack: the unique published tuple whose
    /// generalized region covers the given QI vector, if any. (A region may
    /// have no published tuple when no microdata tuple fell into it.)
    pub fn crucial_tuple(&self, taxonomies: &[Taxonomy], qi: &[Value]) -> Option<usize> {
        let sig = self.recoding.signature(taxonomies, qi);
        let index = self.sig_index.get_or_init(|| {
            self.tuples.iter().enumerate().map(|(i, t)| (t.signature.clone(), i)).collect()
        });
        index.get(&sig).copied()
    }

    /// The generalized code interval of a tuple on QI position `qi_pos`.
    pub fn interval(&self, taxonomies: &[Taxonomy], i: usize, qi_pos: usize) -> (u32, u32) {
        self.recoding.interval(taxonomies, &self.tuples[i].signature, qi_pos)
    }

    /// Renders `D*` in the layout of the paper's Table IIc: one generalized
    /// column per QI attribute, the sensitive attribute, and `G`. A label's
    /// commas become `;` so every field stays one CSV field.
    pub fn render(&self, taxonomies: &[Taxonomy]) -> String {
        let mut out = String::new();
        self.render_with(taxonomies, &mut out, |_, _| false);
        out
    }

    /// The one tuple-line writer behind [`PublishedTable::render`]. Clears
    /// `out`, writes the header, then each tuple's line in group order.
    /// Before tuple `i`'s line, `carry(i, out)` runs: it may append that
    /// line itself, newline included and byte for byte what this writer
    /// would format, and return `true`; or return `false` to have the line
    /// formatted. Returns how many lines each way produced.
    pub fn render_with(
        &self,
        taxonomies: &[Taxonomy],
        out: &mut String,
        mut carry: impl FnMut(usize, &mut String) -> bool,
    ) -> RenderedLines {
        out.clear();
        for &col in self.schema.qi_indices() {
            out.push_str(self.schema.attribute(col).name());
            out.push(',');
        }
        out.push_str(self.schema.sensitive().name());
        out.push_str(",G\n");
        let sdom = self.schema.sensitive().domain();
        let mut label = String::new();
        let mut lines = RenderedLines::default();
        for (i, t) in self.tuples.iter().enumerate() {
            if carry(i, out) {
                lines.copied += 1;
                continue;
            }
            for pos in 0..self.schema.qi_arity() {
                label.clear();
                self.recoding.write_label(&mut label, &self.schema, taxonomies, &t.signature, pos);
                push_without_commas(out, &label);
                out.push(',');
            }
            push_without_commas(out, sdom.label(t.sensitive));
            // Writing to a `String` cannot fail.
            let _ = writeln!(out, ",{}", t.group_size);
            lines.formatted += 1;
        }
        lines
    }
}

/// True if no two tuples share a signature: one set of borrowed keys,
/// sized up front, so the check allocates once however many tuples there
/// are.
fn signatures_distinct(tuples: &[PublishedTuple]) -> bool {
    let mut seen: HashSet<&Signature> = HashSet::with_capacity(tuples.len());
    tuples.iter().all(|t| seen.insert(&t.signature))
}

/// How [`PublishedTable::render_with`] produced its tuple lines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RenderedLines {
    /// Lines the caller copied in.
    pub copied: usize,
    /// Lines the writer formatted.
    pub formatted: usize,
}

/// Appends `s` to `out` with every `,` written as `;`.
fn push_without_commas(out: &mut String, s: &str) {
    for (i, part) in s.split(',').enumerate() {
        if i > 0 {
            out.push(';');
        }
        out.push_str(part);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::taxonomy::Cut;
    use acpp_data::{Attribute, Domain};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::sensitive("S", Domain::nominal(["x", "y"])),
        ])
        .unwrap()
    }

    fn setup() -> (PublishedTable, Vec<Taxonomy>) {
        let taxes = vec![Taxonomy::intervals(8, 2)];
        let cut = Cut::at_depth(&taxes[0], 1); // two halves [0,3], [4,7]
        let recoding = Recoding::Cuts(vec![cut.clone()]);
        let sig_lo = recoding.signature(&taxes, &[Value(0)]);
        let sig_hi = recoding.signature(&taxes, &[Value(5)]);
        let tuples = vec![
            PublishedTuple { signature: sig_lo, sensitive: Value(0), group_size: 3 },
            PublishedTuple { signature: sig_hi, sensitive: Value(1), group_size: 2 },
        ];
        (PublishedTable::new(schema(), recoding, tuples, 0.25, 2), taxes)
    }

    #[test]
    fn crucial_tuple_lookup() {
        let (pt, taxes) = setup();
        assert_eq!(pt.len(), 2);
        assert_eq!(pt.crucial_tuple(&taxes, &[Value(2)]), Some(0));
        assert_eq!(pt.crucial_tuple(&taxes, &[Value(4)]), Some(1));
        assert_eq!(pt.tuple(1).group_size, 2);
        assert_eq!(pt.interval(&taxes, 0, 0), (0, 3));
        assert_eq!(pt.interval(&taxes, 1, 0), (4, 7));
        assert_eq!(pt.retention(), 0.25);
        assert_eq!(pt.k(), 2);
    }

    #[test]
    fn missing_region_returns_none() {
        let taxes = vec![Taxonomy::intervals(8, 2)];
        let recoding = Recoding::Cuts(vec![Cut::at_depth(&taxes[0], 1)]);
        let sig_lo = recoding.signature(&taxes, &[Value(0)]);
        let tuples =
            vec![PublishedTuple { signature: sig_lo, sensitive: Value(0), group_size: 3 }];
        let pt = PublishedTable::new(schema(), recoding, tuples, 0.3, 2);
        assert_eq!(pt.crucial_tuple(&taxes, &[Value(7)]), None, "uncovered region");
    }

    #[test]
    #[should_panic(expected = "duplicate signature")]
    fn duplicate_signatures_rejected() {
        let (pt, _taxes) = setup();
        let mut tuples = pt.tuples().to_vec();
        tuples[1].signature = tuples[0].signature.clone();
        let _ = PublishedTable::new(schema(), pt.recoding().clone(), tuples, 0.25, 2);
    }

    #[test]
    fn distinct_check_compares_whole_signatures() {
        let tuple =
            |signature: Signature| PublishedTuple { signature, sensitive: Value(0), group_size: 2 };
        // Multi-attribute signatures that share a prefix are distinct, and
        // a repeated one is caught wherever it sits.
        assert!(signatures_distinct(&[tuple(vec![1, 2]), tuple(vec![1, 3]), tuple(vec![2, 2])]));
        assert!(!signatures_distinct(&[tuple(vec![1, 2]), tuple(vec![2, 2]), tuple(vec![1, 2])]));
        // Sparse single-index signatures behave the same.
        assert!(signatures_distinct(&[tuple(vec![0]), tuple(vec![u32::MAX])]));
        assert!(!signatures_distinct(&[
            tuple(vec![u32::MAX]),
            tuple(vec![7]),
            tuple(vec![u32::MAX]),
        ]));
    }

    #[test]
    fn equality_ignores_whether_the_index_is_built() {
        let (pt, taxes) = setup();
        let indexed = pt.clone();
        assert_eq!(indexed.crucial_tuple(&taxes, &[Value(5)]), Some(1));
        assert_eq!(indexed, pt);
    }

    #[test]
    fn render_matches_table_2c_layout() {
        let (pt, taxes) = setup();
        let text = pt.render(&taxes);
        let mut lines = text.lines();
        assert_eq!(lines.next(), Some("A,S,G"));
        // Auto-generated interval labels are re-derived from domain labels.
        assert_eq!(lines.next(), Some("[0..3],x,3"));
        assert_eq!(lines.next(), Some("[4..7],y,2"));
    }

    #[test]
    fn copied_lines_stand_in_for_formatted_ones() {
        let (pt, taxes) = setup();
        let full = pt.render(&taxes);
        let mut out = String::from("stale");
        let lines = pt.render_with(&taxes, &mut out, |i, out| {
            if i == 1 {
                out.push_str("[4..7],y,2\n");
            }
            i == 1
        });
        assert_eq!(out, full);
        assert_eq!(lines, RenderedLines { copied: 1, formatted: 1 });
    }
}
