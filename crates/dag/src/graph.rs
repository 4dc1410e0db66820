//! Compact CSR representation of a directed acyclic graph.

use std::fmt;

/// Identifier of a node in a [`Dag`].
///
/// A plain `u32` index newtype: the paper's production DAGs have up to
/// ~465k nodes (Table I, trace #11), far below `u32::MAX`, and halving the
/// index width keeps the CSR arrays and per-node side tables cache-friendly.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The node's position as a `usize`, for indexing side tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Construct from a `usize` index (panics if it does not fit in `u32`).
    #[inline]
    #[allow(clippy::expect_used, reason = "the documented panic")]
    pub fn from_index(i: usize) -> Self {
        NodeId(u32::try_from(i).expect("node index exceeds u32::MAX"))
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A directed acyclic graph in CSR form with both adjacency directions.
///
/// Construction goes through [`crate::DagBuilder`], which sorts the edges,
/// deduplicates them, verifies acyclicity, and precomputes the topological
/// order and the per-node *levels* (longest path from any source), since the
/// LevelBased scheduler needs levels for every instance anyway and computing
/// them costs a single `O(V + E)` pass (paper Theorem 2, precomputation).
#[derive(Clone)]
pub struct Dag {
    pub(crate) out_offsets: Vec<u32>,
    pub(crate) out_targets: Vec<NodeId>,
    pub(crate) in_offsets: Vec<u32>,
    pub(crate) in_sources: Vec<NodeId>,
    pub(crate) topo: Vec<NodeId>,
    pub(crate) levels: Vec<u32>,
    pub(crate) num_levels: u32,
}

impl Dag {
    /// Number of nodes `|V|`.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.out_offsets.len() - 1
    }

    /// Number of edges `|E|`.
    #[inline]
    pub fn edge_count(&self) -> usize {
        self.out_targets.len()
    }

    /// Iterate over all node ids in index order.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_count() as u32).map(NodeId)
    }

    /// Out-neighbors (children) of `v`.
    #[inline]
    pub fn children(&self, v: NodeId) -> &[NodeId] {
        let lo = self.out_offsets[v.index()] as usize;
        let hi = self.out_offsets[v.index() + 1] as usize;
        &self.out_targets[lo..hi]
    }

    /// In-neighbors (parents) of `v`.
    #[inline]
    pub fn parents(&self, v: NodeId) -> &[NodeId] {
        let lo = self.in_offsets[v.index()] as usize;
        let hi = self.in_offsets[v.index() + 1] as usize;
        &self.in_sources[lo..hi]
    }

    /// Out-degree of `v`.
    #[inline]
    pub fn out_degree(&self, v: NodeId) -> usize {
        self.children(v).len()
    }

    /// In-degree of `v`.
    #[inline]
    pub fn in_degree(&self, v: NodeId) -> usize {
        self.parents(v).len()
    }

    /// Source nodes: indegree 0. These represent the base data of the
    /// database (paper §II-A).
    pub fn sources(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&v| self.in_degree(v) == 0)
    }

    /// Sink nodes: outdegree 0.
    pub fn sinks(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes().filter(move |&v| self.out_degree(v) == 0)
    }

    /// A topological order of the nodes (parents before children).
    #[inline]
    pub fn topo_order(&self) -> &[NodeId] {
        &self.topo
    }

    /// The *level* of `v`: the maximum number of edges along any path from
    /// any source node to `v`; sources have level 0 (paper §II-B).
    #[inline]
    pub fn level(&self, v: NodeId) -> u32 {
        self.levels[v.index()]
    }

    /// Slice of all levels, indexed by node.
    #[inline]
    pub fn levels(&self) -> &[u32] {
        &self.levels
    }

    /// Number of distinct levels `L` (max level + 1); 0 for the empty graph.
    #[inline]
    pub fn num_levels(&self) -> u32 {
        self.num_levels
    }

    /// True if the graph contains edge `(u, v)` (binary search over the
    /// sorted child list).
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.children(u).binary_search(&v).is_ok()
    }

    /// Iterate over all edges `(u, v)`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId)> + '_ {
        self.nodes()
            .flat_map(move |u| self.children(u).iter().map(move |&v| (u, v)))
    }

    /// Count of nodes per level, indexed by level: the *width profile* used
    /// by the trace statistics and by the hybrid-scheduler analysis of
    /// shallow DAGs (Table III discussion).
    pub fn level_histogram(&self) -> Vec<usize> {
        let mut hist = vec![0usize; self.num_levels as usize];
        for &l in &self.levels {
            hist[l as usize] += 1;
        }
        hist
    }
}

impl fmt::Debug for Dag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Dag")
            .field("nodes", &self.node_count())
            .field("edges", &self.edge_count())
            .field("levels", &self.num_levels)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DagBuilder;

    fn diamond() -> Dag {
        // 0 -> 1, 0 -> 2, 1 -> 3, 2 -> 3
        let mut b = DagBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(2));
        b.add_edge(NodeId(1), NodeId(3));
        b.add_edge(NodeId(2), NodeId(3));
        b.build().unwrap()
    }

    #[test]
    fn counts() {
        let d = diamond();
        assert_eq!(d.node_count(), 4);
        assert_eq!(d.edge_count(), 4);
        assert_eq!(d.num_levels(), 3);
    }

    #[test]
    fn adjacency() {
        let d = diamond();
        assert_eq!(d.children(NodeId(0)), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.parents(NodeId(3)), &[NodeId(1), NodeId(2)]);
        assert_eq!(d.out_degree(NodeId(3)), 0);
        assert_eq!(d.in_degree(NodeId(0)), 0);
    }

    #[test]
    fn sources_and_sinks() {
        let d = diamond();
        assert_eq!(d.sources().collect::<Vec<_>>(), vec![NodeId(0)]);
        assert_eq!(d.sinks().collect::<Vec<_>>(), vec![NodeId(3)]);
    }

    #[test]
    fn levels_of_diamond() {
        let d = diamond();
        assert_eq!(d.level(NodeId(0)), 0);
        assert_eq!(d.level(NodeId(1)), 1);
        assert_eq!(d.level(NodeId(2)), 1);
        assert_eq!(d.level(NodeId(3)), 2);
        assert_eq!(d.level_histogram(), vec![1, 2, 1]);
    }

    #[test]
    fn has_edge_lookup() {
        let d = diamond();
        assert!(d.has_edge(NodeId(0), NodeId(1)));
        assert!(!d.has_edge(NodeId(1), NodeId(0)));
        assert!(!d.has_edge(NodeId(0), NodeId(3)));
    }

    #[test]
    fn edge_iter_matches_count() {
        let d = diamond();
        assert_eq!(d.edges().count(), d.edge_count());
    }

    #[test]
    fn isolated_nodes_are_both_source_and_sink() {
        let b = DagBuilder::new(3);
        let d = b.build().unwrap();
        assert_eq!(d.sources().count(), 3);
        assert_eq!(d.sinks().count(), 3);
        assert_eq!(d.num_levels(), 1);
    }

    #[test]
    fn empty_graph() {
        let d = DagBuilder::new(0).build().unwrap();
        assert_eq!(d.node_count(), 0);
        assert_eq!(d.num_levels(), 0);
        assert_eq!(d.topo_order().len(), 0);
    }

    #[test]
    fn node_id_roundtrip() {
        let v = NodeId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(format!("{v}"), "42");
        assert_eq!(format!("{v:?}"), "n42");
    }
}
