//! The weighted graph type and the unique-MST tie-breaking order.

use std::error::Error;
use std::fmt;

/// Vertex identifier, `0..n`.
pub type NodeId = usize;

/// Edge identifier, `0..m`, in input order.
pub type EdgeId = usize;

/// Total order on edges that makes the minimum spanning tree unique.
///
/// The paper assumes unique edge weights w.l.o.g. (\[Pel00\] Ch. 5); the
/// standard realization is to compare `(weight, min endpoint, max endpoint)`
/// lexicographically. Every MST algorithm in this workspace — sequential and
/// distributed — compares edges through this key, so they all agree on a
/// single canonical MST.
///
/// ```
/// use dmst_graphs::{EdgeKey, WeightedGraph};
/// let g = WeightedGraph::new(3, vec![(0, 1, 5), (1, 2, 5), (0, 2, 5)]).unwrap();
/// // Equal weights are broken by endpoint ids, so keys are strictly ordered.
/// assert!(g.edge_key(0) < g.edge_key(2));
/// assert!(g.edge_key(2) < g.edge_key(1));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeKey {
    /// The raw weight.
    pub weight: u64,
    /// Smaller endpoint id.
    pub lo: NodeId,
    /// Larger endpoint id.
    pub hi: NodeId,
}

impl EdgeKey {
    /// Builds the key for an edge `(u, v)` of weight `w`.
    pub fn new(w: u64, u: NodeId, v: NodeId) -> Self {
        Self { weight: w, lo: u.min(v), hi: u.max(v) }
    }
}

impl fmt::Display for EdgeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}-{})", self.weight, self.lo, self.hi)
    }
}

/// Errors from [`WeightedGraph`] construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// An endpoint was `>= n`.
    EndpointOutOfRange {
        /// Offending edge index in the input list.
        edge: EdgeId,
        /// The out-of-range endpoint.
        endpoint: NodeId,
        /// Number of vertices.
        n: usize,
    },
    /// An edge joined a vertex to itself.
    SelfLoop {
        /// Offending edge index.
        edge: EdgeId,
    },
    /// The same vertex pair appeared twice.
    DuplicateEdge {
        /// Offending (second) edge index.
        edge: EdgeId,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::EndpointOutOfRange { edge, endpoint, n } => {
                write!(f, "edge {edge} references vertex {endpoint} but n = {n}")
            }
            GraphError::SelfLoop { edge } => write!(f, "edge {edge} is a self-loop"),
            GraphError::DuplicateEdge { edge } => {
                write!(f, "edge {edge} duplicates an earlier edge")
            }
        }
    }
}

impl Error for GraphError {}

/// An undirected, simple, weighted graph with an adjacency index.
///
/// Weights are `u64`; uniqueness of the MST comes from [`EdgeKey`], not from
/// the raw weights, so arbitrary (even all-equal) weights are fine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WeightedGraph {
    n: usize,
    edges: Vec<(NodeId, NodeId, u64)>,
    adj: Vec<Vec<(NodeId, EdgeId)>>,
}

impl WeightedGraph {
    /// Builds a graph on `n` vertices from an undirected edge list.
    ///
    /// # Errors
    ///
    /// Rejects self-loops, duplicate vertex pairs (either orientation), and
    /// endpoints `>= n` — see [`GraphError`].
    pub fn new(n: usize, edges: Vec<(NodeId, NodeId, u64)>) -> Result<Self, GraphError> {
        let mut adj: Vec<Vec<(NodeId, EdgeId)>> = vec![Vec::new(); n];
        #[expect(
            clippy::disallowed_types,
            reason = "membership-only duplicate check, never iterated"
        )]
        let mut seen = std::collections::HashSet::with_capacity(edges.len());
        for (eid, &(u, v, _)) in edges.iter().enumerate() {
            if u >= n {
                return Err(GraphError::EndpointOutOfRange { edge: eid, endpoint: u, n });
            }
            if v >= n {
                return Err(GraphError::EndpointOutOfRange { edge: eid, endpoint: v, n });
            }
            if u == v {
                return Err(GraphError::SelfLoop { edge: eid });
            }
            if !seen.insert((u.min(v), u.max(v))) {
                return Err(GraphError::DuplicateEdge { edge: eid });
            }
            adj[u].push((v, eid));
            adj[v].push((u, eid));
        }
        Ok(Self { n, edges, adj })
    }

    /// Number of vertices.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The edge list `(u, v, w)` in input order — the exact shape
    /// `congest_sim::Topology::new` takes.
    #[inline]
    pub fn edges(&self) -> &[(NodeId, NodeId, u64)] {
        &self.edges
    }

    /// Neighbors of `v` as `(neighbor, edge id)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn neighbors(&self, v: NodeId) -> &[(NodeId, EdgeId)] {
        &self.adj[v]
    }

    /// Degree of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj[v].len()
    }

    /// Endpoints `(u, v)` of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn endpoints(&self, e: EdgeId) -> (NodeId, NodeId) {
        let (u, v, _) = self.edges[e];
        (u, v)
    }

    /// Raw weight of edge `e`.
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn weight(&self, e: EdgeId) -> u64 {
        self.edges[e].2
    }

    /// Tie-breaking key of edge `e` (see [`EdgeKey`]).
    ///
    /// # Panics
    ///
    /// Panics if `e >= m`.
    #[inline]
    pub fn edge_key(&self, e: EdgeId) -> EdgeKey {
        let (u, v, w) = self.edges[e];
        EdgeKey::new(w, u, v)
    }

    /// Sum of raw weights over a set of edges.
    pub fn total_weight<I: IntoIterator<Item = EdgeId>>(&self, edges: I) -> u128 {
        edges.into_iter().map(|e| u128::from(self.weight(e))).sum()
    }

    /// Whether every pair of vertices is joined by a path. Graphs with at
    /// most one vertex count as connected.
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for &(u, _) in &self.adj[v] {
                if !seen[u] {
                    seen[u] = true;
                    count += 1;
                    stack.push(u);
                }
            }
        }
        count == self.n
    }

    /// Checks that `edges` forms a spanning tree of this graph: `n - 1`
    /// distinct edges, no cycle, all vertices covered.
    pub fn is_spanning_tree(&self, edges: &[EdgeId]) -> bool {
        if self.n == 0 {
            return edges.is_empty();
        }
        if edges.len() != self.n - 1 {
            return false;
        }
        let mut uf = crate::UnionFind::new(self.n);
        for &e in edges {
            if e >= self.edges.len() {
                return false;
            }
            let (u, v) = self.endpoints(e);
            if !uf.union(u, v) {
                return false; // cycle
            }
        }
        uf.num_sets() == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_key_total_order_breaks_ties() {
        let a = EdgeKey::new(5, 2, 1);
        let b = EdgeKey::new(5, 1, 3);
        let c = EdgeKey::new(4, 9, 8);
        assert_eq!(a, EdgeKey::new(5, 1, 2));
        assert!(c < a && a < b);
    }

    #[test]
    fn construction_validates() {
        assert!(WeightedGraph::new(2, vec![(0, 0, 1)]).is_err());
        assert!(WeightedGraph::new(2, vec![(0, 1, 1), (1, 0, 2)]).is_err());
        assert!(WeightedGraph::new(2, vec![(0, 5, 1)]).is_err());
        assert!(WeightedGraph::new(3, vec![(0, 1, 1), (1, 2, 1)]).is_ok());
    }

    #[test]
    fn accessors() {
        let g = WeightedGraph::new(3, vec![(0, 1, 7), (1, 2, 9)]).unwrap();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.degree(1), 2);
        assert_eq!(g.endpoints(1), (1, 2));
        assert_eq!(g.weight(0), 7);
        assert_eq!(g.total_weight([0, 1]), 16);
        assert!(g.is_connected());
    }

    #[test]
    fn spanning_tree_checker() {
        let g = WeightedGraph::new(4, vec![(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1)]).unwrap();
        assert!(g.is_spanning_tree(&[0, 1, 2]));
        assert!(!g.is_spanning_tree(&[0, 1])); // too few
        assert!(!g.is_spanning_tree(&[0, 1, 1])); // duplicate edge forms no tree
        let g2 = WeightedGraph::new(4, vec![(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1)]).unwrap();
        assert!(!g2.is_spanning_tree(&[0, 1, 2])); // triangle: cycle
    }

    #[test]
    fn disconnected_detected() {
        let g = WeightedGraph::new(4, vec![(0, 1, 1), (2, 3, 1)]).unwrap();
        assert!(!g.is_connected());
    }
}
