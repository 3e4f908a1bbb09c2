//! Candidate edges: the tie-broken keys and records that flow through
//! convergecasts and pipelines.

/// The unique-MST comparison key of an edge: `(weight, min endpoint, max
/// endpoint)`, compared lexicographically. Mirrors
/// `dmst_graphs::EdgeKey`, but lives here so protocol messages do not drag
/// the graph crate into their representation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CandKey {
    /// Raw edge weight.
    pub weight: u64,
    /// Smaller endpoint vertex id.
    pub lo: u64,
    /// Larger endpoint vertex id.
    pub hi: u64,
}

impl CandKey {
    /// Key for the edge `(a, b)` with weight `w`; endpoint order is
    /// normalized.
    pub fn new(w: u64, a: u64, b: u64) -> Self {
        Self { weight: w, lo: a.min(b), hi: a.max(b) }
    }
}

/// A minimum-weight-outgoing-edge candidate produced inside a base fragment
/// during a Borůvka-on-top phase: the lightest edge leaving the *coarse*
/// fragment that the base fragment belongs to, found among the base
/// fragment's vertices (paper §3).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Candidate {
    /// Tie-broken edge key; also identifies the physical edge.
    pub key: CandKey,
    /// Coarse fragment id of the side the candidate was found on.
    pub src_coarse: u64,
    /// Coarse fragment id on the other side of the edge.
    pub dst_coarse: u64,
    /// Interval slot of the base fragment's root — the routing address the
    /// BFS root uses to answer (and to mark the edge chosen), and in
    /// Borůvka phase 0 how the root learns that the base fragment exists.
    pub src_slot: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_normalizes_and_orders() {
        let a = CandKey::new(3, 9, 2);
        assert_eq!(a, CandKey { weight: 3, lo: 2, hi: 9 });
        assert!(CandKey::new(2, 100, 200) < a);
        assert!(CandKey::new(3, 1, 9) < a);
        assert!(CandKey::new(3, 2, 8) < a);
    }
}
