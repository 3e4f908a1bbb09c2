//! Run configuration for the distributed MST algorithm.

use crate::schedule::{MergeControl, ScheduleMode};

/// Configuration of one algorithm execution.
///
/// The defaults reproduce the paper's Theorem 3.1 setting — standard
/// CONGEST (`b = 1`), automatic `k`, matched merging, BFS root at vertex 0
/// — under the adaptive Stage B schedule ([`ScheduleMode::Adaptive`], the
/// default since PR 3; it never changes the output MST). Use
/// [`ElkinConfig::fixed`] for the seed's padded worst-case windows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ElkinConfig {
    /// The `b` of `CONGEST(b log n)` (Theorem 3.2). Must be positive.
    pub bandwidth: u32,
    /// Override the base-forest parameter `k` (experiments F5/A3 sweep it);
    /// it wins over either automatic choice. `None` lets the BFS root pick
    /// `k` after Stage A: the fitted round model
    /// [`choose_k_cost`](crate::schedule::choose_k_cost) under
    /// [`ScheduleMode::Adaptive`], the paper's
    /// [`choose_k`](crate::schedule::choose_k) under
    /// [`ScheduleMode::Fixed`]. `k = 1` skips Controlled-GHS entirely
    /// (singleton base forest); the root clamps any `k` to
    /// `2 * n.next_power_of_two()`, past which no phase can merge anything.
    pub k_override: Option<u64>,
    /// The designated BFS root. It is given, not elected: no stage of the
    /// run elects a leader.
    pub root: usize,
    /// Merge policy of the Controlled-GHS stage (ablation A1 sets
    /// [`MergeControl::Uncontrolled`]).
    pub merge_control: MergeControl,
    /// Stage B round-scheduling discipline (experiment A4 ablates it).
    /// [`ScheduleMode::Adaptive`] tightens the per-window constants and
    /// picks `k` by a fitted round model; in both modes every phase ends on
    /// its schedule, and the output MST is the same (conformance-tested in
    /// both modes).
    pub schedule_mode: ScheduleMode,
    /// Simulator worker shards (forwarded to
    /// [`RunConfig::shards`](congest_sim::RunConfig)): `1` (the default)
    /// runs sequentially, `0` auto-sizes to the machine. Purely a wallclock
    /// knob — results are bit-identical for every value.
    pub shards: u32,
}

impl Default for ElkinConfig {
    fn default() -> Self {
        Self {
            bandwidth: 1,
            k_override: None,
            root: 0,
            merge_control: MergeControl::Matched,
            schedule_mode: ScheduleMode::Adaptive,
            shards: 1,
        }
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

    /// Fixes the base-forest parameter `k`.
    pub fn with_k(k: u64) -> Self {
        Self { k_override: Some(k.max(1)), ..Self::default() }
    }

    /// The seed's fixed Stage B scheduling (padded worst-case windows,
    /// `k = max(sqrt(n/b), H)`) with paper defaults otherwise.
    pub fn fixed() -> Self {
        Self { schedule_mode: ScheduleMode::Fixed, ..Self::default() }
    }

    /// Returns this configuration with the given schedule mode.
    #[must_use]
    pub fn with_schedule_mode(self, mode: ScheduleMode) -> Self {
        Self { schedule_mode: mode, ..self }
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
        assert_eq!(c.merge_control, MergeControl::Matched);
    }

    #[test]
    fn builders() {
        assert_eq!(ElkinConfig::with_bandwidth(4).bandwidth, 4);
        assert_eq!(ElkinConfig::with_k(0).k_override, Some(1));
        assert_eq!(ElkinConfig::fixed().schedule_mode, ScheduleMode::Fixed);
        assert_eq!(
            ElkinConfig::with_k(7).with_schedule_mode(ScheduleMode::Fixed).k_override,
            Some(7)
        );
        // Adaptive has soaked (PR 2 -> PR 3) and is now the default.
        assert_eq!(ElkinConfig::default().schedule_mode, ScheduleMode::Adaptive);
    }
}
