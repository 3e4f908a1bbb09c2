//! Sequential MST oracles: Kruskal, Prim, Borůvka.
//!
//! All three compare edges by [`EdgeKey`], so on a connected
//! graph they return the *same* canonical tree — the ground truth against
//! which every distributed execution in this workspace is verified. On a
//! disconnected graph they return the minimum spanning forest.

use std::collections::BinaryHeap;

use crate::{EdgeId, EdgeKey, UnionFind, WeightedGraph};

/// A minimum spanning tree (or forest): edge ids sorted ascending, plus the
/// total raw weight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MstResult {
    /// MST edge ids, sorted ascending for canonical comparison.
    pub edges: Vec<EdgeId>,
    /// Sum of the raw weights of those edges.
    pub total_weight: u128,
}

impl MstResult {
    fn from_edges(g: &WeightedGraph, mut edges: Vec<EdgeId>) -> Self {
        edges.sort_unstable();
        let total_weight = g.total_weight(edges.iter().copied());
        Self { edges, total_weight }
    }
}

/// Kruskal's algorithm: sort by [`EdgeKey`], union–find.
///
/// ```
/// use dmst_graphs::{mst, WeightedGraph};
/// let g = WeightedGraph::new(3, vec![(0, 1, 1), (1, 2, 2), (0, 2, 3)]).unwrap();
/// let t = mst::kruskal(&g);
/// assert_eq!(t.edges, vec![0, 1]);
/// assert_eq!(t.total_weight, 3);
/// ```
pub fn kruskal(g: &WeightedGraph) -> MstResult {
    let mut order: Vec<EdgeId> = (0..g.num_edges()).collect();
    order.sort_unstable_by_key(|&e| g.edge_key(e));
    let mut uf = UnionFind::new(g.num_nodes());
    let mut chosen = Vec::with_capacity(g.num_nodes().saturating_sub(1));
    for e in order {
        let (u, v) = g.endpoints(e);
        if uf.union(u, v) {
            chosen.push(e);
        }
    }
    MstResult::from_edges(g, chosen)
}

/// Prim's algorithm with a binary heap, restarted per component.
pub fn prim(g: &WeightedGraph) -> MstResult {
    let n = g.num_nodes();
    let mut in_tree = vec![false; n];
    let mut chosen = Vec::with_capacity(n.saturating_sub(1));
    // Max-heap on Reverse(key): pop the smallest EdgeKey first.
    let mut heap: BinaryHeap<(std::cmp::Reverse<EdgeKey>, EdgeId)> = BinaryHeap::new();
    for start in 0..n {
        if in_tree[start] {
            continue;
        }
        in_tree[start] = true;
        for &(_, e) in g.neighbors(start) {
            heap.push((std::cmp::Reverse(g.edge_key(e)), e));
        }
        while let Some((_, e)) = heap.pop() {
            let (u, v) = g.endpoints(e);
            let fresh = match (in_tree[u], in_tree[v]) {
                (true, false) => v,
                (false, true) => u,
                _ => continue,
            };
            in_tree[fresh] = true;
            chosen.push(e);
            for &(_, e2) in g.neighbors(fresh) {
                let (a, b) = g.endpoints(e2);
                if !in_tree[a] || !in_tree[b] {
                    heap.push((std::cmp::Reverse(g.edge_key(e2)), e2));
                }
            }
        }
    }
    MstResult::from_edges(g, chosen)
}

/// Borůvka's algorithm: repeatedly add every component's minimum-weight
/// outgoing edge (the sequential skeleton of the distributed algorithms).
pub fn boruvka(g: &WeightedGraph) -> MstResult {
    let n = g.num_nodes();
    let mut uf = UnionFind::new(n);
    let mut chosen: Vec<EdgeId> = Vec::with_capacity(n.saturating_sub(1));
    loop {
        // best[root of component] = lightest outgoing edge, by EdgeKey.
        let mut best: Vec<Option<EdgeId>> = vec![None; n];
        let mut any = false;
        for e in 0..g.num_edges() {
            let (u, v) = g.endpoints(e);
            let (ru, rv) = (uf.find(u), uf.find(v));
            if ru == rv {
                continue;
            }
            any = true;
            for r in [ru, rv] {
                if best[r].is_none_or(|b| g.edge_key(e) < g.edge_key(b)) {
                    best[r] = Some(e);
                }
            }
        }
        if !any {
            break;
        }
        for opt in &best {
            if let Some(e) = *opt {
                let (u, v) = g.endpoints(e);
                if uf.union(u, v) {
                    chosen.push(e);
                }
            }
        }
    }
    MstResult::from_edges(g, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, WeightRng};

    fn all_three(g: &WeightedGraph) -> MstResult {
        let k = kruskal(g);
        assert_eq!(k, prim(g), "Prim disagrees with Kruskal");
        assert_eq!(k, boruvka(g), "Boruvka disagrees with Kruskal");
        k
    }

    #[test]
    fn textbook_example() {
        let g =
            WeightedGraph::new(4, vec![(0, 1, 10), (1, 2, 6), (2, 3, 4), (3, 0, 5), (0, 2, 11)])
                .unwrap();
        let t = all_three(&g);
        assert_eq!(t.edges, vec![1, 2, 3]);
        assert_eq!(t.total_weight, 15);
        assert!(g.is_spanning_tree(&t.edges));
    }

    #[test]
    fn tree_input_is_its_own_mst() {
        let g = generators::random_tree(40, &mut WeightRng::new(2));
        let t = all_three(&g);
        assert_eq!(t.edges, (0..39).collect::<Vec<_>>());
    }

    #[test]
    fn equal_weights_resolved_by_tiebreak() {
        // All weights equal: the canonical MST is determined purely by ids.
        let edges = vec![(0, 1, 7), (1, 2, 7), (2, 0, 7), (2, 3, 7), (3, 0, 7)];
        let g = WeightedGraph::new(4, edges).unwrap();
        let t = all_three(&g);
        assert_eq!(t.edges.len(), 3);
        assert!(g.is_spanning_tree(&t.edges));
        // Kruskal order by key: (7,0,1) (7,0,2) (7,0,3) (7,1,2) (7,2,3)
        assert_eq!(t.edges, vec![0, 2, 4]);
    }

    #[test]
    fn random_graphs_agree() {
        let mut r = WeightRng::new(11);
        for n in [2usize, 3, 8, 40, 90] {
            let g = generators::random_connected(n, 2 * n, &mut r);
            let t = all_three(&g);
            assert_eq!(t.edges.len(), n - 1);
            assert!(g.is_spanning_tree(&t.edges));
        }
    }

    #[test]
    fn forest_on_disconnected() {
        let g = WeightedGraph::new(5, vec![(0, 1, 3), (1, 2, 2), (0, 2, 1), (3, 4, 9)]).unwrap();
        let t = all_three(&g);
        assert_eq!(t.edges.len(), 3); // 2 + 1
        assert_eq!(t.total_weight, 1 + 2 + 9);
    }

    #[test]
    fn single_vertex_and_empty() {
        let g1 = WeightedGraph::new(1, vec![]).unwrap();
        assert_eq!(all_three(&g1).edges, Vec::<EdgeId>::new());
        let g0 = WeightedGraph::new(0, vec![]).unwrap();
        assert_eq!(all_three(&g0).edges, Vec::<EdgeId>::new());
    }
}
