//! Static communication topology: the weighted graph the nodes live on.
//!
//! Internally the adjacency is a flat CSR arena (one `Vec<Port>` plus an
//! offset table) so the executor's hot loop walks contiguous memory, and
//! every *directed* port knows its reverse port and its owning node, the
//! two lookups the executor's delivery and capacity checks need.

use crate::error::SimError;

/// Identifier of a node (vertex) in the network, `0..n`.
pub type NodeId = usize;

/// Identifier of an undirected edge, `0..m`, in input order.
pub type EdgeId = usize;

/// Local port index at a node: position in that node's adjacency list.
///
/// Node programs address neighbors exclusively through ports; a node does not
/// a-priori know the identity of the neighbor behind a port (the *clean
/// network model* of the paper: initially a vertex knows only its own
/// identity and the weights of its incident edges).
pub type PortId = usize;

/// One entry of a node's adjacency list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Port {
    /// The node on the other side of this port. Exposed for *instrumentation
    /// and assembly* (the runner reading final states); faithful protocols
    /// learn neighbor identities by exchanging messages.
    pub neighbor: NodeId,
    /// Undirected edge identifier shared by both endpoints.
    pub edge: EdgeId,
    /// Weight of the incident edge (known locally, as in the weighted
    /// CONGEST model).
    pub weight: u64,
}

/// An immutable, validated communication graph.
///
/// Construction rejects self-loops, parallel edges, and out-of-range
/// endpoints; connectivity is *not* required (some protocols are exercised on
/// forests), but [`Topology::is_connected`] is provided for callers that need
/// the check.
///
/// Each undirected edge contributes one *directed port* per endpoint. A
/// directed port is identified globally by `port_start(v) + p` for node `v`'s
/// local port `p`; global port ids are node-contiguous, which is what lets
/// the sharded executor hand each shard an exclusive, contiguous slice of
/// every per-port table.
#[derive(Clone, Debug)]
pub struct Topology {
    n: usize,
    /// CSR offsets: node `v`'s ports live at `port_start[v]..port_start[v+1]`
    /// in every flat per-port table below.
    port_start: Vec<u32>,
    /// Flat adjacency arena, `2m` entries.
    ports: Vec<Port>,
    /// Global index of the reverse directed port (`peer[g]` is the port at
    /// the other endpoint of the same edge).
    peer: Vec<u32>,
    /// Owning node of each global directed port (inverse of `port_start`).
    port_node: Vec<u32>,
    /// Per node (same CSR offsets): the node's *local* port ids sorted by
    /// neighbor id. Draining inbound ring buffers in this order reproduces
    /// the sequential executor's inbox order (senders step in id order, and
    /// each sender's messages to one receiver travel one edge in FIFO
    /// order), which is the determinism contract of the sharded executor.
    drain: Vec<u32>,
}

impl Topology {
    /// Builds a topology on `n` nodes from an undirected weighted edge list.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidTopology`] on self-loops, duplicate edges
    /// (in either orientation), endpoints `>= n`, or sizes exceeding the
    /// `u32` port tables (`n` or `2m` beyond `u32`).
    pub fn new(n: usize, edges: &[(NodeId, NodeId, u64)]) -> Result<Self, SimError> {
        if n as u64 > u64::from(u32::MAX) || 2 * edges.len() as u64 > u64::from(u32::MAX) {
            return Err(SimError::InvalidTopology(format!(
                "topology too large for u32 port tables ({n} nodes, {} edges)",
                edges.len()
            )));
        }
        let mut degree = vec![0u32; n];
        #[expect(
            clippy::disallowed_types,
            reason = "membership-only duplicate check, never iterated"
        )]
        let mut seen = std::collections::HashSet::with_capacity(edges.len());
        for (eid, &(u, v, _)) in edges.iter().enumerate() {
            if u >= n || v >= n {
                return Err(SimError::InvalidTopology(format!(
                    "edge {eid} = ({u}, {v}) has an endpoint out of range (n = {n})"
                )));
            }
            if u == v {
                return Err(SimError::InvalidTopology(format!(
                    "edge {eid} = ({u}, {v}) is a self-loop"
                )));
            }
            let key = (u.min(v), u.max(v));
            if !seen.insert(key) {
                return Err(SimError::InvalidTopology(format!(
                    "edge {eid} = ({u}, {v}) duplicates an earlier edge"
                )));
            }
            degree[u] += 1;
            degree[v] += 1;
        }

        // CSR offsets, then a single O(m) fill pass using per-node cursors.
        // Ports keep the edge-input insertion order the nested-Vec layout
        // had, so local port numbering is unchanged for every protocol.
        let mut port_start = Vec::with_capacity(n + 1);
        let mut acc = 0u32;
        port_start.push(0);
        for &d in &degree {
            acc += d;
            port_start.push(acc);
        }
        let total = acc as usize;
        let dummy = Port { neighbor: 0, edge: 0, weight: 0 };
        let mut ports = vec![dummy; total];
        let mut peer = vec![0u32; total];
        let mut port_node = vec![0u32; total];
        let mut cursor: Vec<u32> = port_start[..n].to_vec();
        for (eid, &(u, v, w)) in edges.iter().enumerate() {
            let gu = cursor[u];
            cursor[u] += 1;
            let gv = cursor[v];
            cursor[v] += 1;
            ports[gu as usize] = Port { neighbor: v, edge: eid, weight: w };
            ports[gv as usize] = Port { neighbor: u, edge: eid, weight: w };
            peer[gu as usize] = gv;
            peer[gv as usize] = gu;
        }
        for v in 0..n {
            for g in port_start[v]..port_start[v + 1] {
                port_node[g as usize] = v as u32;
            }
        }
        let mut drain = vec![0u32; total];
        for v in 0..n {
            let lo = port_start[v] as usize;
            let hi = port_start[v + 1] as usize;
            let d = &mut drain[lo..hi];
            for (p, slot) in d.iter_mut().enumerate() {
                *slot = p as u32;
            }
            d.sort_unstable_by_key(|&p| ports[lo + p as usize].neighbor);
        }

        Ok(Self { n, port_start, ports, peer, port_node, drain })
    }

    /// Number of nodes.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.n
    }

    /// Number of undirected edges.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.ports.len() / 2
    }

    /// The adjacency list (ports) of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn ports(&self, v: NodeId) -> &[Port] {
        &self.ports[self.port_range(v)]
    }

    /// Degree of node `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v >= n`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        (self.port_start[v + 1] - self.port_start[v]) as usize
    }

    /// First global directed-port index of node `v` (CSR offset).
    #[inline]
    pub(crate) fn port_lo(&self, v: NodeId) -> usize {
        self.port_start[v] as usize
    }

    /// Global directed-port range of node `v`.
    #[inline]
    pub(crate) fn port_range(&self, v: NodeId) -> std::ops::Range<usize> {
        self.port_start[v] as usize..self.port_start[v + 1] as usize
    }

    /// Global index of the reverse directed port of `g`.
    #[inline]
    pub(crate) fn peer(&self, g: usize) -> usize {
        self.peer[g] as usize
    }

    /// Owning node of global port `g`.
    #[inline]
    pub(crate) fn port_node(&self, g: usize) -> NodeId {
        self.port_node[g] as usize
    }

    /// Node `v`'s local port ids sorted by neighbor id (inbound drain
    /// order; see the field docs).
    #[inline]
    pub(crate) fn drain_order(&self, v: NodeId) -> &[u32] {
        &self.drain[self.port_range(v)]
    }

    /// The port at `ports(v)[p].neighbor` leading back to `v`.
    #[cfg(test)]
    pub(crate) fn reverse_port(&self, v: NodeId, p: PortId) -> PortId {
        let back = self.peer(self.port_lo(v) + p);
        back - self.port_lo(self.port_node(back))
    }

    /// Whether the graph is connected (every pair of nodes joined by a path).
    /// An empty graph and a single-node graph are connected.
    pub fn is_connected(&self) -> bool {
        if self.n <= 1 {
            return true;
        }
        let mut seen = vec![false; self.n];
        let mut stack = vec![0];
        seen[0] = true;
        let mut count = 1;
        while let Some(v) = stack.pop() {
            for port in self.ports(v) {
                if !seen[port.neighbor] {
                    seen[port.neighbor] = true;
                    count += 1;
                    stack.push(port.neighbor);
                }
            }
        }
        count == self.n
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_ports_and_reverse() {
        let t = Topology::new(3, &[(0, 1, 5), (1, 2, 7)]).unwrap();
        assert_eq!(t.num_nodes(), 3);
        assert_eq!(t.num_edges(), 2);
        assert_eq!(t.degree(1), 2);
        assert_eq!(t.ports(0)[0], Port { neighbor: 1, edge: 0, weight: 5 });
        // reverse port round-trips
        for v in 0..3 {
            for (p, port) in t.ports(v).iter().enumerate() {
                let back = t.reverse_port(v, p);
                assert_eq!(t.ports(port.neighbor)[back].neighbor, v);
                assert_eq!(t.ports(port.neighbor)[back].edge, port.edge);
            }
        }
    }

    #[test]
    fn peers_agree_with_ports() {
        let t = Topology::new(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4), (0, 2, 5)]).unwrap();
        assert_eq!(t.num_edges(), 5);
        for v in 0..4 {
            for (p, port) in t.ports(v).iter().enumerate() {
                let g = t.port_lo(v) + p;
                assert_eq!(t.port_node(g), v);
                // The peer port lives at the neighbor and routes back here.
                let peer = t.peer(g);
                assert_eq!(t.port_node(peer), port.neighbor);
                assert_eq!(t.peer(peer), g);
                assert_eq!(peer, t.port_lo(port.neighbor) + t.reverse_port(v, p));
            }
        }
    }

    #[test]
    fn drain_order_sorts_ports_by_neighbor() {
        // Node 3's adjacency is built in edge-input order (2, 0, 1); the
        // drain order must visit neighbors ascending (0, 1, 2).
        let t = Topology::new(4, &[(3, 2, 1), (3, 0, 1), (3, 1, 1)]).unwrap();
        let nbrs: Vec<usize> =
            t.drain_order(3).iter().map(|&p| t.ports(3)[p as usize].neighbor).collect();
        assert_eq!(nbrs, vec![0, 1, 2]);
    }

    #[test]
    fn rejects_self_loop() {
        assert!(matches!(Topology::new(2, &[(1, 1, 1)]), Err(SimError::InvalidTopology(_))));
    }

    #[test]
    fn rejects_duplicate_edge_either_orientation() {
        assert!(Topology::new(2, &[(0, 1, 1), (1, 0, 2)]).is_err());
        assert!(Topology::new(2, &[(0, 1, 1), (0, 1, 2)]).is_err());
    }

    #[test]
    fn rejects_out_of_range() {
        assert!(Topology::new(2, &[(0, 2, 1)]).is_err());
    }

    #[test]
    fn connectivity() {
        assert!(Topology::new(1, &[]).unwrap().is_connected());
        assert!(Topology::new(3, &[(0, 1, 1), (1, 2, 1)]).unwrap().is_connected());
        assert!(!Topology::new(3, &[(0, 1, 1)]).unwrap().is_connected());
        assert!(!Topology::new(2, &[]).unwrap().is_connected());
    }
}
