//! Global recoding schemes.
//!
//! Property G3 of the paper requires *global recoding*: the generalized
//! QI-vectors of two distinct published tuples must not share any common
//! specialization — i.e. the generalized regions are disjoint, so that
//! every original QI-vector maps to at most one region. Equivalently, a
//! recoding is a total function from the QI space `U^q` onto a partition of
//! disjoint regions.
//!
//! Two families of recodings are supported:
//!
//! * [`Recoding::Cuts`] — per-attribute taxonomy cuts; a region is a product
//!   of one cut node per attribute. Produced by top-down specialization
//!   ([`crate::tds`]) and the full-domain lattice search
//!   ([`crate::incognito`]).
//! * [`Recoding::Boxes`] — a box partition of the QI space produced by
//!   Mondrian-style median splits ([`crate::mondrian`]). Boxes are finer
//!   than cut products in practice, which is what keeps PG's utility close
//!   to the `optimistic` baseline in the paper's Figure 2.

use crate::error::GeneralizeError;
use crate::qigroup::{GroupId, Grouping};
use acpp_data::taxonomy::Cut;
use acpp_data::{Schema, Table, Taxonomy, Value};
use std::collections::HashMap;
use std::ops::Range;

/// A generalized QI signature: one identifying code per dimension of the
/// recoding (taxonomy node ids for cut recodings; a single box index for box
/// recodings).
pub type Signature = Vec<u32>;

/// An axis-aligned box over QI codes: per QI position `i`, the inclusive
/// code range `[lows()[i], highs()[i]]`.
///
/// A box is a borrowed view. Box storage ([`BoxPartition`], the Mondrian
/// build arenas and the retained tree) keeps the bounds of every box in one
/// `Vec<u32>` with stride `2d`: the box's `d` lows, then its `d` highs. So
/// a box costs no allocation of its own, and copying a partition copies two
/// flat vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QiBox<'a> {
    bounds: &'a [u32],
}

impl<'a> QiBox<'a> {
    /// A view of `bounds`: `d` lows followed by `d` highs.
    pub fn new(bounds: &'a [u32]) -> Self {
        debug_assert!(bounds.len().is_multiple_of(2), "a box has as many lows as highs");
        QiBox { bounds }
    }

    /// Number of QI positions.
    fn dims(&self) -> usize {
        self.bounds.len() / 2
    }

    /// Lower code bound per QI position (inclusive).
    pub fn lows(&self) -> &'a [u32] {
        &self.bounds[..self.dims()]
    }

    /// Upper code bound per QI position (inclusive).
    pub fn highs(&self) -> &'a [u32] {
        &self.bounds[self.dims()..]
    }

    /// The flat bounds: lows, then highs.
    pub fn bounds(&self) -> &'a [u32] {
        self.bounds
    }

    /// True if the box contains a QI vector.
    pub fn contains(&self, qi: &[Value]) -> bool {
        let (lows, highs) = (self.lows(), self.highs());
        qi.iter().enumerate().all(|(i, v)| lows[i] <= v.code() && v.code() <= highs[i])
    }

    /// Code span of dimension `i`.
    pub fn span(&self, i: usize) -> u32 {
        self.highs()[i] - self.lows()[i] + 1
    }
}

/// Box `i`'s bounds in a flat buffer of boxes over `d` QI positions (the
/// layout of [`QiBox`]).
pub(crate) fn box_bounds(bounds: &[u32], d: usize, i: usize) -> &[u32] {
    boxes_bounds(bounds, d, i..i + 1)
}

/// The bounds of boxes `boxes` in a flat buffer of boxes over `d` QI
/// positions, back to back.
pub(crate) fn boxes_bounds(bounds: &[u32], d: usize, boxes: Range<usize>) -> &[u32] {
    &bounds[2 * d * boxes.start..2 * d * boxes.end]
}

/// Sets `highs()[dim]` of the flat box `bx` (see [`QiBox`]) and returns
/// the bound it replaced.
pub(crate) fn set_high(bx: &mut [u32], dim: usize, high: u32) -> u32 {
    let d = bx.len() / 2;
    std::mem::replace(&mut bx[d + dim], high)
}

/// Sets `lows()[dim]` of the flat box `bx` (see [`QiBox`]) and returns
/// the bound it replaced.
pub(crate) fn set_low(bx: &mut [u32], dim: usize, low: u32) -> u32 {
    std::mem::replace(&mut bx[dim], low)
}

/// Widens the flat box `bx` (see [`QiBox`]) to the smallest box that
/// also covers `other`.
pub(crate) fn cover(bx: &mut [u32], other: QiBox<'_>) {
    let (lows, highs) = bx.split_at_mut(bx.len() / 2);
    for (dim, (lo, hi)) in lows.iter_mut().zip(highs).enumerate() {
        *lo = (*lo).min(other.lows()[dim]);
        *hi = (*hi).max(other.highs()[dim]);
    }
}

/// The bounds of the full-space box for the given per-attribute domain
/// sizes, in the flat layout of [`QiBox`].
pub fn full_bounds(domain_sizes: &[u32]) -> Vec<u32> {
    let mut bounds = vec![0; domain_sizes.len()];
    bounds.extend(domain_sizes.iter().map(|&s| s - 1));
    bounds
}

/// One node of the binary split tree that indexes a box partition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SplitNode {
    /// An internal split: codes `<= cut` on QI position `qi_pos` go left.
    Split {
        /// QI position being split.
        qi_pos: usize,
        /// Inclusive upper bound of the left side.
        cut: u32,
        /// Left child node index.
        left: usize,
        /// Right child node index.
        right: usize,
    },
    /// A leaf holding a box index.
    Leaf(usize),
}

/// A partition of the QI space into disjoint boxes, indexed by a binary
/// split tree for O(depth) point location. Every split has two children,
/// so the tree holds one more leaf (box) than splits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BoxPartition {
    nodes: Vec<SplitNode>,
    /// Every box's bounds back to back, stride `2 * dims` (see [`QiBox`]).
    bounds: Vec<u32>,
    dims: usize,
    root: usize,
}

impl BoxPartition {
    /// Builds a partition over `dims` QI positions from its split tree and
    /// the flat bounds of its boxes (stride `2 * dims`, see [`QiBox`]).
    ///
    /// Intended for use by partitioning algorithms; [`BoxPartition::check`]
    /// validates the structure.
    pub fn new(nodes: Vec<SplitNode>, dims: usize, bounds: Vec<u32>, root: usize) -> Self {
        let part = BoxPartition { nodes, bounds, dims, root };
        debug_assert_eq!(part.bounds.len(), 2 * dims * part.len(), "one box per leaf");
        part
    }

    /// The single-box partition covering the whole space.
    pub fn trivial(domain_sizes: &[u32]) -> Self {
        let bounds = full_bounds(domain_sizes);
        BoxPartition::new(vec![SplitNode::Leaf(0)], domain_sizes.len(), bounds, 0)
    }

    /// Number of boxes: the leaves of the split tree.
    pub fn len(&self) -> usize {
        self.nodes.len().div_ceil(2)
    }

    /// True if the partition has no boxes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Box `b`.
    pub fn box_at(&self, b: usize) -> QiBox<'_> {
        QiBox::new(box_bounds(&self.bounds, self.dims, b))
    }

    /// The boxes, in box-id order.
    pub fn boxes(&self) -> impl ExactSizeIterator<Item = QiBox<'_>> + '_ {
        (0..self.len()).map(|b| self.box_at(b))
    }

    /// The flat bounds of every box, stride `2 * dims`.
    pub fn bounds(&self) -> &[u32] {
        &self.bounds
    }

    /// The split tree, node ids as stored (pre-order for Mondrian builds).
    pub fn nodes(&self) -> &[SplitNode] {
        &self.nodes
    }

    /// The root node id.
    pub fn root(&self) -> usize {
        self.root
    }

    /// Locates the unique box containing a QI vector.
    pub fn locate(&self, qi: &[Value]) -> usize {
        let mut cur = self.root;
        loop {
            match &self.nodes[cur] {
                SplitNode::Leaf(b) => return *b,
                SplitNode::Split { qi_pos, cut, left, right } => {
                    cur = if qi[*qi_pos].code() <= *cut { *left } else { *right };
                }
            }
        }
    }

    /// Validates that the tree reaches every box and that located boxes
    /// contain their query points, by probing every box corner.
    pub fn check(&self) -> Result<(), GeneralizeError> {
        let (mut lo, mut hi) = (Vec::new(), Vec::new());
        for (bi, b) in self.boxes().enumerate() {
            lo.clear();
            lo.extend(b.lows().iter().map(|&c| Value(c)));
            hi.clear();
            hi.extend(b.highs().iter().map(|&c| Value(c)));
            if self.locate(&lo) != bi || self.locate(&hi) != bi {
                return Err(GeneralizeError::InvalidParameter(format!(
                    "box {bi} is not located by its own corners"
                )));
            }
        }
        Ok(())
    }
}

/// A global recoding of the QI space (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub enum Recoding {
    /// Per-attribute taxonomy cuts (product regions).
    Cuts(Vec<Cut>),
    /// A Mondrian-style box partition.
    Boxes(BoxPartition),
}

impl Recoding {
    /// The identity recoding (finest cuts) — no generalization at all.
    pub fn identity(taxonomies: &[Taxonomy]) -> Self {
        Recoding::Cuts(taxonomies.iter().map(Cut::finest).collect())
    }

    /// The total recoding (coarsest cuts) — everything in one region.
    pub fn total(taxonomies: &[Taxonomy]) -> Self {
        Recoding::Cuts(taxonomies.iter().map(Cut::coarsest).collect())
    }

    /// Signature of a QI vector under this recoding.
    ///
    /// For cut recodings the signature lists the covering taxonomy node per
    /// QI position; for box recodings it is the single box index. Two QI
    /// vectors generalize to the same published region iff their signatures
    /// are equal — this is exactly the disjointness property G3.
    pub fn signature(&self, taxonomies: &[Taxonomy], qi: &[Value]) -> Signature {
        match self {
            Recoding::Cuts(cuts) => cuts
                .iter()
                .zip(taxonomies)
                .zip(qi)
                .map(|((cut, tax), v)| cut.generalize(tax, v.code()).0)
                .collect(),
            Recoding::Boxes(part) => vec![part.locate(qi) as u32],
        }
    }

    /// The generalized code interval of QI position `qi_pos` for a region
    /// identified by `sig`.
    pub fn interval(&self, taxonomies: &[Taxonomy], sig: &Signature, qi_pos: usize) -> (u32, u32) {
        match self {
            Recoding::Cuts(_) => {
                let node = taxonomies[qi_pos].node(acpp_data::NodeId(sig[qi_pos]));
                (node.lo, node.hi)
            }
            Recoding::Boxes(part) => {
                let b = part.box_at(sig[0] as usize);
                (b.lows()[qi_pos], b.highs()[qi_pos])
            }
        }
    }

    /// Human-readable label of the generalized value at `qi_pos` for a
    /// region. See [`Recoding::write_label`].
    pub fn label(
        &self,
        schema: &Schema,
        taxonomies: &[Taxonomy],
        sig: &Signature,
        qi_pos: usize,
    ) -> String {
        let mut out = String::new();
        self.write_label(&mut out, schema, taxonomies, sig, qi_pos);
        out
    }

    /// Appends the label of the generalized value at `qi_pos` for a region
    /// to `out`, using domain labels for the endpoints (or the taxonomy node
    /// label for cut recodings).
    pub fn write_label(
        &self,
        out: &mut String,
        schema: &Schema,
        taxonomies: &[Taxonomy],
        sig: &Signature,
        qi_pos: usize,
    ) {
        if let Recoding::Cuts(_) = self {
            let tax = &taxonomies[qi_pos];
            if tax.has_semantic_labels() {
                out.push_str(&tax.node(acpp_data::NodeId(sig[qi_pos])).label);
                return;
            }
        }
        // Auto-generated taxonomy labels (and all box partitions) are code
        // ranges; re-derive them from the attribute's domain labels.
        let (lo, hi) = self.interval(taxonomies, sig, qi_pos);
        let dom = schema.attribute(schema.qi_indices()[qi_pos]).domain();
        if lo == hi {
            out.push_str(dom.label(Value(lo)));
        } else if lo == 0 && hi == dom.size() - 1 {
            out.push('*');
        } else {
            for part in ["[", dom.label(Value(lo)), "..", dom.label(Value(hi)), "]"] {
                out.push_str(part);
            }
        }
    }

    /// Groups a table's rows by signature. Returns the grouping and, per
    /// group, the group's signature (in group-id order). Group ids are
    /// assigned in order of first appearance.
    pub fn group(&self, table: &Table, taxonomies: &[Taxonomy]) -> (Grouping, Vec<Signature>) {
        if let Recoding::Boxes(part) = self {
            return group_boxes(part, table);
        }
        let mut sig_to_group: HashMap<Signature, GroupId> = HashMap::new();
        let mut signatures: Vec<Signature> = Vec::new();
        let mut assignment = Vec::with_capacity(table.len());
        let qi_cols: Vec<usize> = table.schema().qi_indices().to_vec();
        let mut qi = vec![Value(0); qi_cols.len()];
        for row in table.rows() {
            for (i, &c) in qi_cols.iter().enumerate() {
                qi[i] = table.value(row, c);
            }
            let sig = self.signature(taxonomies, &qi);
            let gid = *sig_to_group.entry(sig.clone()).or_insert_with(|| {
                signatures.push(sig.clone());
                GroupId((signatures.len() - 1) as u32)
            });
            assignment.push(gid);
        }
        (Grouping::from_assignment(assignment, signatures.len()), signatures)
    }
}

/// Box-recoding grouping fast path: a box index *is* the signature, so the
/// per-row `HashMap<Signature, GroupId>` probe (and the heap-allocated key
/// it hashes) collapses to one direct array index per row. Group ids are
/// still assigned in order of first appearance — the output is
/// bit-identical to the generic path.
fn group_boxes(part: &BoxPartition, table: &Table) -> (Grouping, Vec<Signature>) {
    let cols: Vec<&[u32]> =
        table.schema().qi_indices().iter().map(|&c| table.column(c)).collect();
    let mut box_to_group: Vec<u32> = vec![u32::MAX; part.len()];
    let mut signatures: Vec<Signature> = Vec::new();
    let mut assignment: Vec<GroupId> = Vec::with_capacity(table.len());
    let mut qi: Vec<Value> = vec![Value(0); cols.len()];
    for row in 0..table.len() {
        for (slot, col) in qi.iter_mut().zip(&cols) {
            *slot = Value(col[row]);
        }
        let b = part.locate(&qi);
        let gid = if box_to_group[b] == u32::MAX {
            let g = signatures.len() as u32;
            signatures.push(vec![b as u32]);
            box_to_group[b] = g;
            g
        } else {
            box_to_group[b]
        };
        assignment.push(GroupId(gid));
    }
    (Grouping::from_assignment(assignment, signatures.len()), signatures)
}

/// Fixed shard width (rows) for [`group_from_box_assignment`]'s
/// parallel passes. The output is provably identical for *any* chunking
/// (see the function docs); a fixed width just keeps profiler samples
/// comparable across runs.
const GROUP_CHUNK_ROWS: usize = 16_384;

/// Builds a grouping straight from a per-row box assignment, as produced by
/// [`crate::mondrian::partition`] ([`crate::RetainedTree::assignment`]).
/// Group ids are assigned in order of first appearance over rows and each
/// group's signature is its box index — bit-identical to what
/// [`Recoding::group`] computes for the same partition, without the
/// per-row tree walk.
///
/// With `threads > 1` and enough rows the grouping runs in three sharded
/// passes: (1) each row shard reports its distinct boxes in
/// shard-local first-appearance order with per-shard counts (per-worker
/// stamp arrays make this allocation-free after warm-up); (2) a
/// sequential merge walks the shard lists in shard order, assigning group
/// ids — the first global appearance of a box is in the earliest shard
/// containing it, and shard-local order preserves global order within a
/// shard, so this reproduces the sequential first-appearance numbering
/// **exactly**, for any shard decomposition; (3) a parallel remap writes
/// each row's `GroupId` through the completed box→group table. Group
/// sizes come out of the merge for free, so the final membership fill
/// ([`Grouping::from_assignment_with_sizes`]) never reallocates.
///
/// Shards record profiler samples under the `phase.generalize` label
/// ([`crate::mondrian::PROF_PHASE`]) like every other Mondrian pass.
pub fn group_from_box_assignment(
    box_of_row: &[u32],
    n_boxes: usize,
    threads: usize,
) -> (Grouping, Vec<Signature>) {
    let n = box_of_row.len();
    if threads <= 1 || n < 2 * GROUP_CHUNK_ROWS {
        let mut box_to_group: Vec<u32> = vec![u32::MAX; n_boxes];
        let mut signatures: Vec<Signature> = Vec::new();
        let mut assignment: Vec<GroupId> = Vec::with_capacity(n);
        for &b in box_of_row {
            let slot = &mut box_to_group[b as usize];
            let gid = if *slot == u32::MAX {
                let g = signatures.len() as u32;
                signatures.push(vec![b]);
                *slot = g;
                g
            } else {
                *slot
            };
            assignment.push(GroupId(gid));
        }
        return (Grouping::from_assignment(assignment, signatures.len()), signatures);
    }

    // Pass 1: per-shard distinct boxes (first-appearance order) + counts.
    // Worker state is a pair of stamp/position arrays indexed by box;
    // stamps are the 1-based item index, distinct per item, so no clearing
    // between items is ever needed.
    let shards: Vec<(usize, &[u32])> =
        box_of_row.chunks(GROUP_CHUNK_ROWS).enumerate().collect();
    let (firsts, _) = crate::par::run_items(
        crate::mondrian::PROF_PHASE,
        threads,
        shards,
        |_| (vec![0u32; n_boxes], vec![0u32; n_boxes]),
        |(_, rows)| (rows.len() * 4) as u64,
        |(stamps, pos), i, (_, rows)| {
            let stamp = (i + 1) as u32;
            let mut local: Vec<(u32, u32)> = Vec::new();
            for &b in rows {
                let bi = b as usize;
                if stamps[bi] == stamp {
                    local[pos[bi] as usize].1 += 1;
                } else {
                    stamps[bi] = stamp;
                    pos[bi] = local.len() as u32;
                    local.push((b, 1));
                }
            }
            local
        },
    );

    // Pass 2 (sequential merge): global first-appearance numbering.
    let mut box_to_group: Vec<u32> = vec![u32::MAX; n_boxes];
    let mut signatures: Vec<Signature> = Vec::new();
    let mut sizes: Vec<usize> = Vec::new();
    for shard in &firsts {
        for &(b, c) in shard {
            let slot = &mut box_to_group[b as usize];
            if *slot == u32::MAX {
                *slot = signatures.len() as u32;
                signatures.push(vec![b]);
                sizes.push(c as usize);
            } else {
                sizes[*slot as usize] += c as usize;
            }
        }
    }

    // Pass 3: parallel remap through the completed table.
    let mut assignment: Vec<GroupId> = vec![GroupId(0); n];
    {
        let items: Vec<(&mut [GroupId], &[u32])> = assignment
            .chunks_mut(GROUP_CHUNK_ROWS)
            .zip(box_of_row.chunks(GROUP_CHUNK_ROWS))
            .collect();
        let box_to_group = &box_to_group;
        crate::par::run_items(
            crate::mondrian::PROF_PHASE,
            threads,
            items,
            |_| (),
            |(_, rows)| (rows.len() * 8) as u64,
            |_, _, (out, rows)| {
                for (slot, &b) in out.iter_mut().zip(rows) {
                    *slot = GroupId(box_to_group[b as usize]);
                }
            },
        );
    }
    (Grouping::from_assignment_with_sizes(assignment, &sizes), signatures)
}

/// Validates that `taxonomies` line up with the schema's QI attributes.
pub fn check_taxonomies(schema: &Schema, taxonomies: &[Taxonomy]) -> Result<(), GeneralizeError> {
    if taxonomies.len() != schema.qi_arity() {
        return Err(GeneralizeError::TaxonomyArityMismatch {
            qi_arity: schema.qi_arity(),
            taxonomies: taxonomies.len(),
        });
    }
    for (pos, (tax, &col)) in taxonomies.iter().zip(schema.qi_indices()).enumerate() {
        let domain_size = schema.attribute(col).domain().size();
        if tax.domain_size() != domain_size {
            return Err(GeneralizeError::TaxonomyDomainMismatch {
                qi_pos: pos,
                domain_size,
                taxonomy_size: tax.domain_size(),
            });
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use acpp_data::{Attribute, Domain, OwnerId, Schema};

    fn schema() -> Schema {
        Schema::new(vec![
            Attribute::quasi("A", Domain::indexed(8)),
            Attribute::quasi("B", Domain::indexed(4)),
            Attribute::sensitive("S", Domain::indexed(3)),
        ])
        .unwrap()
    }

    fn taxonomies() -> Vec<Taxonomy> {
        vec![Taxonomy::intervals(8, 2), Taxonomy::intervals(4, 2)]
    }

    fn table() -> Table {
        let mut t = Table::new(schema());
        let rows = [(0u32, 0u32, 0u32), (1, 1, 1), (4, 0, 2), (5, 1, 0), (7, 3, 1)];
        for (i, (a, b, s)) in rows.iter().enumerate() {
            t.push_row(OwnerId(i as u32), &[Value(*a), Value(*b), Value(*s)]).unwrap();
        }
        t
    }

    #[test]
    fn identity_recoding_groups_by_exact_vector() {
        let t = table();
        let taxes = taxonomies();
        let r = Recoding::identity(&taxes);
        let (g, sigs) = r.group(&t, &taxes);
        assert_eq!(g.group_count(), 5, "all rows distinct");
        assert!(g.validate());
        assert_eq!(sigs.len(), 5);
    }

    #[test]
    fn total_recoding_is_one_group() {
        let t = table();
        let taxes = taxonomies();
        let r = Recoding::total(&taxes);
        let (g, sigs) = r.group(&t, &taxes);
        assert_eq!(g.group_count(), 1);
        assert_eq!(g.members(GroupId(0)).len(), 5);
        assert_eq!(r.interval(&taxes, &sigs[0], 0), (0, 7));
        assert_eq!(r.interval(&taxes, &sigs[0], 1), (0, 3));
    }

    #[test]
    fn cut_recoding_mid_level() {
        let t = table();
        let taxes = taxonomies();
        // A generalized to spans of 4, B to spans of 2.
        let r = Recoding::Cuts(vec![
            Cut::at_depth(&taxes[0], 1),
            Cut::at_depth(&taxes[1], 1),
        ]);
        let (g, sigs) = r.group(&t, &taxes);
        // rows: A in {0,1,4,5,7} → halves {0,1},{4,5,7}; B in {0,1,0,1,3} → halves {0,1},{0,1},{3}
        // signatures: (A0,B0)x rows0,1 ; (A1,B0)x rows2,3 ; (A1,B1)x row4
        assert_eq!(g.group_count(), 3);
        assert_eq!(g.members(GroupId(0)), &[0, 1]);
        assert_eq!(g.members(GroupId(1)), &[2, 3]);
        assert_eq!(g.members(GroupId(2)), &[4]);
        assert_eq!(r.interval(&taxes, &sigs[1], 0), (4, 7));
        assert_eq!(r.label(&schema(), &taxes, &sigs[1], 0), "[4..7]");
    }

    #[test]
    fn signatures_equal_iff_same_region() {
        let taxes = taxonomies();
        let r = Recoding::Cuts(vec![
            Cut::at_depth(&taxes[0], 1),
            Cut::at_depth(&taxes[1], 1),
        ]);
        let s1 = r.signature(&taxes, &[Value(4), Value(0)]);
        let s2 = r.signature(&taxes, &[Value(7), Value(1)]);
        let s3 = r.signature(&taxes, &[Value(3), Value(0)]);
        assert_eq!(s1, s2);
        assert_ne!(s1, s3);
    }

    #[test]
    fn box_partition_locate_and_check() {
        // Split A at 3: boxes [0..3]x[0..3] and [4..7]x[0..3].
        let nodes = vec![
            SplitNode::Split { qi_pos: 0, cut: 3, left: 1, right: 2 },
            SplitNode::Leaf(0),
            SplitNode::Leaf(1),
        ];
        let bounds = vec![0, 0, 3, 3, 4, 0, 7, 3];
        let part = BoxPartition::new(nodes, 2, bounds, 0);
        part.check().unwrap();
        assert_eq!(part.locate(&[Value(2), Value(3)]), 0);
        assert_eq!(part.locate(&[Value(4), Value(0)]), 1);

        let t = table();
        let taxes = taxonomies();
        let r = Recoding::Boxes(part);
        let (g, sigs) = r.group(&t, &taxes);
        assert_eq!(g.group_count(), 2);
        assert_eq!(g.members(GroupId(0)), &[0, 1]);
        assert_eq!(g.members(GroupId(1)), &[2, 3, 4]);
        assert_eq!(r.interval(&taxes, &sigs[1], 0), (4, 7));
        assert_eq!(r.label(&schema(), &taxes, &sigs[1], 0), "[4..7]");
        assert_eq!(r.label(&schema(), &taxes, &sigs[1], 1), "*", "full-domain box renders as *");
    }

    #[test]
    fn qibox_helpers() {
        let full = full_bounds(&[8, 4]);
        let b = QiBox::new(&full);
        assert_eq!(b.span(0), 8);
        assert!(b.contains(&[Value(7), Value(3)]));
        assert!(!QiBox::new(&[2, 0, 3, 3]).contains(&[Value(4), Value(0)]));
        assert_eq!(box_bounds(&[0, 0, 3, 3, 4, 0, 7, 3], 2, 1), &[4, 0, 7, 3]);
        let mut bx = full.clone();
        assert_eq!(set_high(&mut bx, 0, 3), 7);
        assert_eq!(set_low(&mut bx, 1, 2), 0);
        assert_eq!(bx, [0, 2, 3, 3]);
        cover(&mut bx, QiBox::new(&[4, 1, 5, 1]));
        assert_eq!(bx, [0, 1, 5, 3]);
    }

    #[test]
    fn threaded_box_grouping_matches_sequential() {
        // Enough rows to cross several GROUP_CHUNK_ROWS shard boundaries,
        // with boxes whose first appearances are scattered across shards.
        let n = 5 * super::GROUP_CHUNK_ROWS + 137;
        let n_boxes = 211usize;
        let box_of_row: Vec<u32> =
            (0..n).map(|i| ((i * 2_654_435_761) % n_boxes) as u32).collect();
        let (g_seq, s_seq) = group_from_box_assignment(&box_of_row, n_boxes, 1);
        for threads in [2usize, 3, 8] {
            let (g, s) = group_from_box_assignment(&box_of_row, n_boxes, threads);
            assert_eq!(s, s_seq, "threads={threads}");
            assert_eq!(g, g_seq, "threads={threads}");
        }
    }

    #[test]
    fn check_taxonomies_validates() {
        let s = schema();
        assert!(check_taxonomies(&s, &taxonomies()).is_ok());
        assert!(matches!(
            check_taxonomies(&s, &taxonomies()[..1]),
            Err(GeneralizeError::TaxonomyArityMismatch { .. })
        ));
        let wrong = vec![Taxonomy::intervals(9, 2), Taxonomy::intervals(4, 2)];
        assert!(matches!(
            check_taxonomies(&s, &wrong),
            Err(GeneralizeError::TaxonomyDomainMismatch { qi_pos: 0, .. })
        ));
    }
}
