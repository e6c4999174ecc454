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
use std::collections::HashMap;
use std::fmt::Write;

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
#[derive(Debug, Clone, PartialEq)]
pub struct PublishedTable {
    schema: Schema,
    recoding: Recoding,
    tuples: Vec<PublishedTuple>,
    sig_index: HashMap<Signature, usize>,
    retention: f64,
    k: usize,
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
        let mut sig_index = HashMap::with_capacity(tuples.len());
        for (i, t) in tuples.iter().enumerate() {
            let prev = sig_index.insert(t.signature.clone(), i);
            assert!(prev.is_none(), "duplicate signature in published table");
        }
        PublishedTable { schema, recoding, tuples, sig_index, retention, k }
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
        self.sig_index.get(&sig).copied()
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
