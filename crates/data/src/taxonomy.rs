//! Generalization hierarchies (taxonomy trees).
//!
//! Global-recoding generalization (property G3 of the paper) replaces each
//! QI value by an ancestor node in a per-attribute *taxonomy tree*. A
//! [`Taxonomy`] over a domain of size `n` is a rooted tree whose leaves are
//! exactly the codes `0..n` in order, and in which every node covers a
//! contiguous code range `[lo, hi]`. Ordered domains use balanced interval
//! hierarchies; nominal domains use hand-built trees whose code order is
//! chosen so that every semantic group is contiguous.
//!
//! A [`Cut`] is an antichain through the tree that covers every leaf exactly
//! once — the unit of state for top-down specialization (TDS) and the
//! product of full-domain generalization.

use crate::error::DataError;
use std::fmt;

/// Index of a node within a [`Taxonomy`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// One node of a taxonomy tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    /// Lowest leaf code covered by this node.
    pub lo: u32,
    /// Highest leaf code covered by this node (inclusive).
    pub hi: u32,
    /// Parent node; `None` for the root.
    pub parent: Option<NodeId>,
    /// Children, in code order; empty for leaves.
    pub children: Vec<NodeId>,
    /// Depth from the root (root = 0).
    pub depth: u32,
    /// Human-readable label (e.g. `"[17,24]"` or `"White-collar"`).
    pub label: String,
}

impl Node {
    /// Number of leaf codes covered.
    #[inline]
    pub fn span(&self) -> u32 {
        self.hi - self.lo + 1
    }

    /// True if the node is a single leaf code.
    #[inline]
    pub fn is_leaf(&self) -> bool {
        self.children.is_empty()
    }

    /// True if the node's range contains a code.
    #[inline]
    pub fn contains(&self, code: u32) -> bool {
        self.lo <= code && code <= self.hi
    }
}

/// A taxonomy tree over a finite domain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Taxonomy {
    nodes: Vec<Node>,
    /// Leaf node ids indexed by code.
    leaves: Vec<NodeId>,
    root: NodeId,
    domain_size: u32,
    /// True when node labels carry domain semantics (built from a
    /// [`Spec`]); false for auto-generated code-range labels
    /// ([`Taxonomy::flat`], [`Taxonomy::intervals`]), which renderers
    /// should re-derive from the attribute's domain labels.
    semantic_labels: bool,
}

/// A specification node used to build explicit taxonomies: either a named
/// group of children or a leaf label.
#[derive(Debug, Clone)]
pub enum Spec {
    /// A leaf of the taxonomy; its position in a left-to-right traversal of
    /// the spec determines its domain code.
    Leaf(String),
    /// An internal node with a label and children.
    Group(String, Vec<Spec>),
}

impl Spec {
    /// Convenience leaf constructor.
    pub fn leaf(label: impl Into<String>) -> Spec {
        Spec::Leaf(label.into())
    }

    /// Convenience group constructor.
    pub fn group(label: impl Into<String>, children: Vec<Spec>) -> Spec {
        Spec::Group(label.into(), children)
    }

    fn count_leaves(&self) -> u32 {
        match self {
            Spec::Leaf(_) => 1,
            Spec::Group(_, cs) => cs.iter().map(Spec::count_leaves).sum(),
        }
    }

    /// Labels of the leaves in code order; use this to build the matching
    /// [`crate::Domain`].
    pub fn leaf_labels(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.collect_leaves(&mut out);
        out
    }

    fn collect_leaves(&self, out: &mut Vec<String>) {
        match self {
            Spec::Leaf(l) => out.push(l.clone()),
            Spec::Group(_, cs) => cs.iter().for_each(|c| c.collect_leaves(out)),
        }
    }
}

impl Taxonomy {
    /// Builds the trivial "suppression" hierarchy: a root labelled `*` whose
    /// children are all `n` leaves.
    pub fn flat(domain_size: u32) -> Self {
        assert!(domain_size > 0, "taxonomy over empty domain");
        let mut nodes = Vec::with_capacity(domain_size as usize + 1);
        nodes.push(Node {
            lo: 0,
            hi: domain_size - 1,
            parent: None,
            children: (1..=domain_size).map(NodeId).collect(),
            depth: 0,
            label: "*".to_string(),
        });
        let mut leaves = Vec::with_capacity(domain_size as usize);
        for c in 0..domain_size {
            nodes.push(Node {
                lo: c,
                hi: c,
                parent: Some(NodeId(0)),
                children: Vec::new(),
                depth: 1,
                label: c.to_string(),
            });
            leaves.push(NodeId(c + 1));
        }
        Taxonomy { nodes, leaves, root: NodeId(0), domain_size, semantic_labels: false }
    }

    /// Builds a balanced interval hierarchy over an ordered domain: leaves
    /// are grouped into runs of `fanout`, recursively, until one root
    /// interval remains. Node labels are `[lo,hi]` code ranges.
    ///
    /// ```
    /// use acpp_data::taxonomy::{Cut, Taxonomy};
    ///
    /// let tax = Taxonomy::intervals(8, 2);
    /// // Depth 1 cuts the domain into two halves.
    /// let cut = Cut::at_depth(&tax, 1);
    /// let node = cut.generalize(&tax, 5);
    /// assert_eq!((tax.node(node).lo, tax.node(node).hi), (4, 7));
    /// ```
    pub fn intervals(domain_size: u32, fanout: u32) -> Self {
        assert!(domain_size > 0, "taxonomy over empty domain");
        assert!(fanout >= 2, "interval fanout must be at least 2");
        // Build bottom-up: level 0 = leaves, then repeatedly group runs.
        let mut nodes: Vec<Node> = Vec::new();
        let mut leaves = Vec::with_capacity(domain_size as usize);
        let mut current: Vec<NodeId> = Vec::with_capacity(domain_size as usize);
        for c in 0..domain_size {
            let id = NodeId(nodes.len() as u32);
            nodes.push(Node {
                lo: c,
                hi: c,
                parent: None,
                children: Vec::new(),
                depth: 0, // fixed up below
                label: c.to_string(),
            });
            leaves.push(id);
            current.push(id);
        }
        while current.len() > 1 {
            let mut next = Vec::with_capacity(current.len().div_ceil(fanout as usize));
            for chunk in current.chunks(fanout as usize) {
                let lo = nodes[chunk[0].index()].lo;
                let hi = nodes[chunk[chunk.len() - 1].index()].hi;
                let id = NodeId(nodes.len() as u32);
                for &c in chunk {
                    nodes[c.index()].parent = Some(id);
                }
                nodes.push(Node {
                    lo,
                    hi,
                    parent: None,
                    children: chunk.to_vec(),
                    depth: 0,
                    label: format!("[{lo},{hi}]"),
                });
                next.push(id);
            }
            current = next;
        }
        let root = current[0];
        let mut tax = Taxonomy { nodes, leaves, root, domain_size, semantic_labels: false };
        tax.fix_depths();
        tax
    }

    /// Builds an explicit taxonomy from a nested [`Spec`]. Leaf codes are
    /// assigned left-to-right; pair this with a domain built from
    /// [`Spec::leaf_labels`].
    pub fn from_spec(spec: &Spec) -> Result<Self, DataError> {
        let n = spec.count_leaves();
        if n == 0 {
            return Err(DataError::InvalidTaxonomy("spec has no leaves".into()));
        }
        let mut nodes = Vec::new();
        let mut leaves = vec![NodeId(0); n as usize];
        let mut next_code = 0u32;
        let root = Self::build_spec(spec, None, 0, &mut nodes, &mut leaves, &mut next_code)?;
        Ok(Taxonomy { nodes, leaves, root, domain_size: n, semantic_labels: true })
    }

    fn build_spec(
        spec: &Spec,
        parent: Option<NodeId>,
        depth: u32,
        nodes: &mut Vec<Node>,
        leaves: &mut [NodeId],
        next_code: &mut u32,
    ) -> Result<NodeId, DataError> {
        let id = NodeId(nodes.len() as u32);
        match spec {
            Spec::Leaf(label) => {
                let code = *next_code;
                *next_code += 1;
                nodes.push(Node {
                    lo: code,
                    hi: code,
                    parent,
                    children: Vec::new(),
                    depth,
                    label: label.clone(),
                });
                leaves[code as usize] = id;
                Ok(id)
            }
            Spec::Group(label, children) => {
                if children.is_empty() {
                    return Err(DataError::InvalidTaxonomy(format!(
                        "group `{label}` has no children"
                    )));
                }
                let lo = *next_code;
                nodes.push(Node {
                    lo,
                    hi: lo, // fixed below
                    parent,
                    children: Vec::new(),
                    depth,
                    label: label.clone(),
                });
                let mut child_ids = Vec::with_capacity(children.len());
                for ch in children {
                    child_ids.push(Self::build_spec(ch, Some(id), depth + 1, nodes, leaves, next_code)?);
                }
                nodes[id.index()].children = child_ids;
                nodes[id.index()].hi = *next_code - 1;
                Ok(id)
            }
        }
    }

    fn fix_depths(&mut self) {
        // BFS from root assigning depths.
        let mut stack = vec![(self.root, 0u32)];
        while let Some((id, d)) = stack.pop() {
            self.nodes[id.index()].depth = d;
            let children = self.nodes[id.index()].children.clone();
            for c in children {
                stack.push((c, d + 1));
            }
        }
    }

    /// True when node labels carry domain semantics (see the field docs).
    #[inline]
    pub fn has_semantic_labels(&self) -> bool {
        self.semantic_labels
    }

    /// The root node id.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// Size of the underlying domain.
    #[inline]
    pub fn domain_size(&self) -> u32 {
        self.domain_size
    }

    /// Access a node.
    #[inline]
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes in the tree.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The leaf node for a domain code.
    #[inline]
    pub fn leaf(&self, code: u32) -> NodeId {
        self.leaves[code as usize]
    }

    /// Maximum depth of any node (root depth is 0).
    pub fn height(&self) -> u32 {
        self.nodes.iter().map(|n| n.depth).max().unwrap_or(0)
    }

    /// Walks `steps` parents up from `id`, stopping at the root.
    pub fn ancestor(&self, id: NodeId, steps: u32) -> NodeId {
        let mut cur = id;
        for _ in 0..steps {
            match self.node(cur).parent {
                Some(p) => cur = p,
                None => break,
            }
        }
        cur
    }

    /// The ancestor of `code`'s leaf at exactly `depth`, or the shallowest
    /// node on the leaf's root path whose depth is `<= depth`.
    pub fn ancestor_at_depth(&self, code: u32, depth: u32) -> NodeId {
        let mut cur = self.leaf(code);
        while self.node(cur).depth > depth {
            match self.node(cur).parent {
                Some(p) => cur = p,
                // A parentless node has depth 0 <= depth; unreachable, but
                // stopping at the root is the correct degradation.
                None => break,
            }
        }
        cur
    }

    /// Validates tree invariants: contiguous leaf coverage, consistent
    /// parent/child links, ranges nested properly.
    pub fn check(&self) -> Result<(), DataError> {
        if self.leaves.len() != self.domain_size as usize {
            return Err(DataError::InvalidTaxonomy("leaf count != domain size".into()));
        }
        for (code, &leaf) in self.leaves.iter().enumerate() {
            let n = self.node(leaf);
            if !(n.is_leaf() && n.lo == code as u32 && n.hi == code as u32) {
                return Err(DataError::InvalidTaxonomy(format!(
                    "leaf for code {code} has range [{},{}]",
                    n.lo, n.hi
                )));
            }
        }
        for (i, n) in self.nodes.iter().enumerate() {
            let id = NodeId(i as u32);
            if !n.is_leaf() {
                let mut expect = n.lo;
                for &c in &n.children {
                    let cn = self.node(c);
                    if cn.parent != Some(id) {
                        return Err(DataError::InvalidTaxonomy(format!(
                            "child {c} of {id} has wrong parent"
                        )));
                    }
                    if cn.lo != expect {
                        return Err(DataError::InvalidTaxonomy(format!(
                            "child {c} of {id} starts at {} but expected {expect}",
                            cn.lo
                        )));
                    }
                    if cn.depth != n.depth + 1 {
                        return Err(DataError::InvalidTaxonomy(format!(
                            "child {c} of {id} has depth {} (parent depth {})",
                            cn.depth, n.depth
                        )));
                    }
                    expect = cn.hi + 1;
                }
                if expect != n.hi + 1 {
                    return Err(DataError::InvalidTaxonomy(format!(
                        "children of {id} cover up to {} but node ends at {}",
                        expect - 1,
                        n.hi
                    )));
                }
            }
        }
        let r = self.node(self.root);
        if r.parent.is_some() || r.lo != 0 || r.hi != self.domain_size - 1 || r.depth != 0 {
            return Err(DataError::InvalidTaxonomy("malformed root".into()));
        }
        Ok(())
    }
}

/// An antichain through a taxonomy that covers every leaf exactly once.
///
/// Cuts are the shared currency of global recoding: the full-domain lattice
/// search and top-down specialization both produce a cut per QI attribute,
/// and a cut maps every domain code to the covering node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Cut {
    /// Nodes of the cut, sorted by their `lo` code; ranges partition the
    /// domain.
    nodes: Vec<NodeId>,
}

impl Cut {
    /// The coarsest cut: just the root.
    pub fn coarsest(tax: &Taxonomy) -> Self {
        Cut { nodes: vec![tax.root()] }
    }

    /// The finest cut: all leaves.
    pub fn finest(tax: &Taxonomy) -> Self {
        Cut { nodes: (0..tax.domain_size()).map(|c| tax.leaf(c)).collect() }
    }

    /// Builds a cut from explicit nodes, validating the partition property.
    pub fn new(tax: &Taxonomy, mut nodes: Vec<NodeId>) -> Result<Self, DataError> {
        nodes.sort_by_key(|&id| tax.node(id).lo);
        let mut expect = 0u32;
        for &id in &nodes {
            let n = tax.node(id);
            if n.lo != expect {
                return Err(DataError::InvalidTaxonomy(format!(
                    "cut gap/overlap: node {id} starts at {} but expected {expect}",
                    n.lo
                )));
            }
            expect = n.hi + 1;
        }
        if expect != tax.domain_size() {
            return Err(DataError::InvalidTaxonomy(format!(
                "cut covers up to {} but domain size is {}",
                expect,
                tax.domain_size()
            )));
        }
        Ok(Cut { nodes })
    }

    /// The cut's nodes in code order.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// Number of nodes (i.e. generalized values) in the cut.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// A cut always covers the whole domain, so it is never empty; provided
    /// for API completeness alongside [`Cut::len`].
    pub fn is_empty(&self) -> bool {
        false
    }

    /// True if every cut node is a leaf.
    pub fn is_finest(&self, tax: &Taxonomy) -> bool {
        self.nodes.iter().all(|&id| tax.node(id).is_leaf())
    }

    /// Maps a domain code to the covering cut node (binary search).
    pub fn generalize(&self, tax: &Taxonomy, code: u32) -> NodeId {
        debug_assert!(code < tax.domain_size());
        let idx = self
            .nodes
            .partition_point(|&id| tax.node(id).hi < code);
        let id = self.nodes[idx];
        debug_assert!(tax.node(id).contains(code));
        id
    }

    /// Returns a new cut with `node` replaced by its children (a single TDS
    /// *specialization* step). Returns `None` if `node` is a leaf or not in
    /// the cut.
    pub fn specialize(&self, tax: &Taxonomy, node: NodeId) -> Option<Cut> {
        let pos = self.nodes.iter().position(|&id| id == node)?;
        let n = tax.node(node);
        if n.is_leaf() {
            return None;
        }
        let mut nodes = Vec::with_capacity(self.nodes.len() + n.children.len() - 1);
        nodes.extend_from_slice(&self.nodes[..pos]);
        nodes.extend_from_slice(&n.children);
        nodes.extend_from_slice(&self.nodes[pos + 1..]);
        Some(Cut { nodes })
    }

    /// Returns a new cut with every cut node replaced by the ancestor at
    /// `depth` (full-domain generalization to a uniform depth). Nodes above
    /// `depth` are left as-is.
    pub fn at_depth(tax: &Taxonomy, depth: u32) -> Cut {
        let mut nodes = Vec::new();
        let mut code = 0;
        while code < tax.domain_size() {
            let id = tax.ancestor_at_depth(code, depth);
            code = tax.node(id).hi + 1;
            nodes.push(id);
        }
        Cut { nodes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_taxonomy_shape() {
        let t = Taxonomy::flat(5);
        t.check().unwrap();
        assert_eq!(t.domain_size(), 5);
        assert_eq!(t.height(), 1);
        assert_eq!(t.node(t.root()).span(), 5);
        assert_eq!(t.node(t.leaf(3)).label, "3");
        assert_eq!(t.ancestor(t.leaf(3), 1), t.root());
        assert_eq!(t.ancestor(t.leaf(3), 10), t.root());
    }

    #[test]
    fn interval_taxonomy_shape() {
        let t = Taxonomy::intervals(8, 2);
        t.check().unwrap();
        assert_eq!(t.height(), 3);
        // Leaf 5 → [4,5] → [4,7] → [0,7]
        let ranges: Vec<(u32, u32)> = (0..=t.height())
            .map(|up| t.ancestor(t.leaf(5), up))
            .map(|id| (t.node(id).lo, t.node(id).hi))
            .collect();
        assert_eq!(ranges, vec![(5, 5), (4, 5), (4, 7), (0, 7)]);
        assert_eq!(t.node(t.ancestor_at_depth(5, 1)).label, "[4,7]");
    }

    #[test]
    fn interval_taxonomy_uneven() {
        // 10 leaves, fanout 4 → level1: [0,3][4,7][8,9], level2: root
        let t = Taxonomy::intervals(10, 4);
        t.check().unwrap();
        let cut = Cut::at_depth(&t, 1);
        let spans: Vec<u32> = cut.nodes().iter().map(|&id| t.node(id).span()).collect();
        assert_eq!(spans, vec![4, 4, 2]);
    }

    #[test]
    fn spec_taxonomy() {
        let spec = Spec::group(
            "Any",
            vec![
                Spec::group("Respiratory", vec![Spec::leaf("flu"), Spec::leaf("pneumonia")]),
                Spec::group("Viral", vec![Spec::leaf("hiv")]),
            ],
        );
        assert_eq!(spec.leaf_labels(), vec!["flu", "pneumonia", "hiv"]);
        let t = Taxonomy::from_spec(&spec).unwrap();
        t.check().unwrap();
        assert_eq!(t.domain_size(), 3);
        assert_eq!(t.node(t.ancestor_at_depth(1, 1)).label, "Respiratory");
        assert_eq!(t.node(t.ancestor_at_depth(2, 1)).label, "Viral");
        assert_eq!(t.node(t.root()).label, "Any");
    }

    #[test]
    fn spec_rejects_empty_group() {
        let spec = Spec::group("Any", vec![]);
        assert!(Taxonomy::from_spec(&spec).is_err());
    }

    #[test]
    fn cut_construction_and_generalize() {
        let t = Taxonomy::intervals(8, 2);
        let coarse = Cut::coarsest(&t);
        assert_eq!(coarse.generalize(&t, 6), t.root());

        let fine = Cut::finest(&t);
        assert!(fine.is_finest(&t));
        assert_eq!(fine.generalize(&t, 6), t.leaf(6));
        assert_eq!(fine.len(), 8);

        let mid = Cut::at_depth(&t, 2);
        assert_eq!(mid.len(), 4);
        let g = mid.generalize(&t, 5);
        assert_eq!((t.node(g).lo, t.node(g).hi), (4, 5));
    }

    #[test]
    fn cut_specialize_steps() {
        let t = Taxonomy::intervals(4, 2);
        let c0 = Cut::coarsest(&t);
        let c1 = c0.specialize(&t, t.root()).unwrap();
        assert_eq!(c1.len(), 2);
        // Specializing a node not in the cut fails.
        assert!(c1.specialize(&t, t.root()).is_none());
        // Specializing a leaf fails.
        let full = Cut::finest(&t);
        assert!(full.specialize(&t, t.leaf(0)).is_none());
        // Two more steps reach the finest cut.
        let c2 = c1.specialize(&t, c1.nodes()[0]).unwrap();
        let c3 = c2.specialize(&t, *c2.nodes().last().unwrap()).unwrap();
        assert!(c3.is_finest(&t));
    }

    #[test]
    fn cut_new_validates_partition() {
        let t = Taxonomy::intervals(8, 2);
        // Root alone is a valid explicit cut.
        assert!(Cut::new(&t, vec![t.root()]).is_ok());
        // A leaf alone is not (gap).
        assert!(Cut::new(&t, vec![t.leaf(0)]).is_err());
        // Overlap: root + a leaf.
        assert!(Cut::new(&t, vec![t.root(), t.leaf(0)]).is_err());
    }

    #[test]
    fn check_rejects_corrupted_tree() {
        let mut t = Taxonomy::intervals(4, 2);
        t.nodes[0].lo = 3; // corrupt a leaf range
        assert!(t.check().is_err());
    }
}
