//! Builder that assembles a [`Dag`] from an edge list, rejecting cycles.

use crate::graph::{Dag, NodeId};

/// Errors raised when finalizing a [`DagBuilder`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// The edge set contains a directed cycle; acyclicity is a precondition
    /// of the whole model (paper §II-A). Carries one node on a cycle.
    Cycle(NodeId),
    /// An edge endpoint is out of range for the declared node count.
    NodeOutOfRange { node: NodeId, node_count: usize },
    /// A self-loop `(v, v)` was added.
    SelfLoop(NodeId),
}

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DagError::Cycle(v) => write!(f, "graph contains a cycle through node {v}"),
            DagError::NodeOutOfRange { node, node_count } => {
                write!(f, "node {node} out of range (node count {node_count})")
            }
            DagError::SelfLoop(v) => write!(f, "self-loop on node {v}"),
        }
    }
}

impl std::error::Error for DagError {}

/// Incrementally collects edges, then [`build`](DagBuilder::build)s the CSR
/// [`Dag`], computing the topological order and node levels in one pass.
#[derive(Clone, Debug, Default)]
pub struct DagBuilder {
    node_count: usize,
    edges: Vec<(NodeId, NodeId)>,
}

impl DagBuilder {
    /// A builder for a graph over nodes `0..node_count`.
    pub fn new(node_count: usize) -> Self {
        DagBuilder {
            node_count,
            edges: Vec::new(),
        }
    }

    /// Pre-size the edge list (the production traces have ~half a million
    /// edges; reserving avoids repeated growth).
    pub fn with_edge_capacity(node_count: usize, edges: usize) -> Self {
        DagBuilder {
            node_count,
            edges: Vec::with_capacity(edges),
        }
    }

    /// Grow the node set; returns the id of the newly added node.
    pub fn add_node(&mut self) -> NodeId {
        let id = NodeId::from_index(self.node_count);
        self.node_count += 1;
        id
    }

    /// Current number of declared nodes.
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// Current number of recorded edges (before dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Record edge `u -> v` (data flows from `u`'s output into `v`'s input).
    /// Duplicates are allowed and removed at build time.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) {
        self.edges.push((u, v));
    }

    /// Finalize: validate endpoints, sort + dedup edges, build CSR both
    /// ways, Kahn-topo-sort to verify acyclicity, and compute levels.
    pub fn build(self) -> Result<Dag, DagError> {
        let n = self.node_count;
        let mut edges = self.edges;
        for &(u, v) in &edges {
            if u.index() >= n {
                return Err(DagError::NodeOutOfRange {
                    node: u,
                    node_count: n,
                });
            }
            if v.index() >= n {
                return Err(DagError::NodeOutOfRange {
                    node: v,
                    node_count: n,
                });
            }
            if u == v {
                return Err(DagError::SelfLoop(u));
            }
        }
        edges.sort_unstable();
        edges.dedup();

        // CSR out-adjacency.
        let mut out_offsets = vec![0u32; n + 1];
        for &(u, _) in &edges {
            out_offsets[u.index() + 1] += 1;
        }
        for i in 0..n {
            out_offsets[i + 1] += out_offsets[i];
        }
        let out_targets: Vec<NodeId> = edges.iter().map(|&(_, v)| v).collect();

        // CSR in-adjacency (counting sort by target).
        let mut in_offsets = vec![0u32; n + 1];
        for &(_, v) in &edges {
            in_offsets[v.index() + 1] += 1;
        }
        for i in 0..n {
            in_offsets[i + 1] += in_offsets[i];
        }
        let mut cursor = in_offsets.clone();
        let mut in_sources = vec![NodeId(0); edges.len()];
        for &(u, v) in &edges {
            let c = &mut cursor[v.index()];
            in_sources[*c as usize] = u;
            *c += 1;
        }

        // Kahn's algorithm: topological order + levels in one pass.
        // level(v) = max over parents u of level(u) + 1; sources level 0.
        let mut indeg: Vec<u32> = (0..n)
            .map(|i| in_offsets[i + 1] - in_offsets[i])
            .collect();
        let mut topo = Vec::with_capacity(n);
        let mut levels = vec![0u32; n];
        let mut queue: Vec<NodeId> = (0..n as u32)
            .map(NodeId)
            .filter(|v| indeg[v.index()] == 0)
            .collect();
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head];
            head += 1;
            topo.push(u);
            let lo = out_offsets[u.index()] as usize;
            let hi = out_offsets[u.index() + 1] as usize;
            for &v in &out_targets[lo..hi] {
                let cand = levels[u.index()] + 1;
                if cand > levels[v.index()] {
                    levels[v.index()] = cand;
                }
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        if topo.len() != n {
            // Some node retained positive indegree: it lies on a cycle.
            #[allow(clippy::expect_used, reason = "Kahn's order missed a node, so one kept positive indegree")]
            let culprit = (0..n as u32)
                .map(NodeId)
                .find(|v| indeg[v.index()] > 0)
                .expect("cycle implies a node with residual indegree");
            return Err(DagError::Cycle(culprit));
        }

        let num_levels = if n == 0 {
            0
        } else {
            levels.iter().copied().max().unwrap_or(0) + 1
        };

        Ok(Dag {
            out_offsets,
            out_targets,
            in_offsets,
            in_sources,
            topo,
            levels,
            num_levels,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detects_cycle() {
        let mut b = DagBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(2));
        b.add_edge(NodeId(2), NodeId(0));
        assert!(matches!(b.build(), Err(DagError::Cycle(_))));
    }

    #[test]
    fn detects_self_loop() {
        let mut b = DagBuilder::new(2);
        b.add_edge(NodeId(1), NodeId(1));
        assert_eq!(b.build().unwrap_err(), DagError::SelfLoop(NodeId(1)));
    }

    #[test]
    fn detects_out_of_range() {
        let mut b = DagBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(7));
        assert!(matches!(
            b.build(),
            Err(DagError::NodeOutOfRange { node: NodeId(7), .. })
        ));
    }

    #[test]
    fn dedups_edges() {
        let mut b = DagBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(0), NodeId(1));
        let d = b.build().unwrap();
        assert_eq!(d.edge_count(), 1);
    }

    #[test]
    fn add_node_extends() {
        let mut b = DagBuilder::new(0);
        let a = b.add_node();
        let c = b.add_node();
        b.add_edge(a, c);
        let d = b.build().unwrap();
        assert_eq!(d.node_count(), 2);
        assert_eq!(d.level(c), 1);
    }

    #[test]
    fn topo_order_respects_edges() {
        let mut b = DagBuilder::new(6);
        // two chains sharing a sink: 0->1->2->5, 3->4->5
        for (u, v) in [(0, 1), (1, 2), (2, 5), (3, 4), (4, 5)] {
            b.add_edge(NodeId(u), NodeId(v));
        }
        let d = b.build().unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; 6];
            for (i, &v) in d.topo_order().iter().enumerate() {
                p[v.index()] = i;
            }
            p
        };
        for (u, v) in d.edges() {
            assert!(pos[u.index()] < pos[v.index()], "edge {u}->{v} violated");
        }
    }

    #[test]
    fn levels_are_longest_paths() {
        // 0->1->3, 0->3: level(3) must be 2 (longest path), not 1.
        let mut b = DagBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(3));
        b.add_edge(NodeId(0), NodeId(3));
        let d = b.build().unwrap();
        assert_eq!(d.level(NodeId(3)), 2);
    }
}
