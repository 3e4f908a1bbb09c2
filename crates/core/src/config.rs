//! Run configuration for the distributed MST algorithm.

/// Configuration of one algorithm execution.
///
/// The defaults reproduce the paper's Theorem 3.1 setting — standard
/// CONGEST (`b = 1`), automatic `k`, BFS root at vertex 0.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElkinConfig {
    /// The `b` of `CONGEST(b log n)` (Theorem 3.2). Must be positive:
    /// [`run_mst`](crate::run_mst) rejects `0` with
    /// [`RunError::ZeroBandwidth`](crate::RunError::ZeroBandwidth).
    pub bandwidth: u32,
    /// Override the base-forest parameter `k` (experiments F5/A3 sweep it,
    /// and F2/F6 set the paper's Eq. (1)
    /// [`choose_k`](crate::schedule::choose_k) through it). `None` lets the
    /// BFS root pick `k` after Stage A with the fitted round model
    /// [`choose_k_cost`](crate::schedule::choose_k_cost). The root clamps
    /// any `k` into `1..=2 * n.next_power_of_two()`: `k = 1` (or `0`) skips
    /// Controlled-GHS entirely (singleton base forest), and past the top no
    /// phase can merge anything.
    pub k_override: Option<u64>,
    /// The designated BFS root. It is given, not elected: no stage of the
    /// run elects a leader.
    pub root: usize,
    /// Simulator worker shards (forwarded to
    /// [`RunConfig::shards`](congest_sim::RunConfig)): `1` (the default)
    /// runs sequentially, `0` auto-sizes to the machine. Purely a wallclock
    /// knob — results are bit-identical for every value.
    pub shards: u32,
}

impl Default for ElkinConfig {
    fn default() -> Self {
        Self { bandwidth: 1, k_override: None, root: 0, shards: 1 }
    }
}

impl ElkinConfig {
    /// Paper defaults (Theorem 3.1).
    pub fn new() -> Self {
        Self::default()
    }

    /// `CONGEST(b log n)` variant (Theorem 3.2).
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn with_bandwidth(b: u32) -> Self {
        assert!(b > 0, "bandwidth must be positive");
        Self { bandwidth: b, ..Self::default() }
    }

    /// Fixes the base-forest parameter `k` (clamped by the BFS root; see
    /// [`ElkinConfig::k_override`]).
    pub fn with_k(k: u64) -> Self {
        Self { k_override: Some(k), ..Self::default() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = ElkinConfig::new();
        assert_eq!(c.bandwidth, 1);
        assert_eq!(c.k_override, None);
    }

    #[test]
    fn builders() {
        assert_eq!(ElkinConfig::with_bandwidth(4).bandwidth, 4);
        assert_eq!(ElkinConfig::with_k(0).k_override, Some(0));
        assert_eq!(ElkinConfig::with_k(7).k_override, Some(7));
    }
}
