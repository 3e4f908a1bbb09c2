//! Run-time configuration of a simulation.

/// Number of words in one unit message.
///
/// The paper's model lets a message carry "`O(1)` edge weights and/or
/// identity numbers": one word is one `O(log n)`-bit quantity, and a unit
/// message is a small constant number of words. A unit message in our
/// protocols carries at most ~6 fields (a tag, a weight, two endpoint ids,
/// two fragment ids); 8 gives slack while staying `O(1)` words =
/// `O(log n)` bits. Protocols never need the budget themselves:
/// [`RoundCtx::try_send`](crate::RoundCtx::try_send) checks it.
pub const UNIT_WORDS: u32 = 8;

/// Configuration for [`Network::run`](crate::Network::run).
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// The `b` of `CONGEST(b log n)`: how many unit messages each edge
    /// direction carries per round. The standard CONGEST model is `b = 1`.
    /// The per-edge-direction budget per round is `bandwidth *`
    /// [`UNIT_WORDS`] words, and it is always enforced: a send past it
    /// aborts the run with
    /// [`SimError::CapacityExceeded`](crate::SimError::CapacityExceeded),
    /// because a protocol that oversends is *wrong*, not slow.
    pub bandwidth: u32,
    /// Hard cap on rounds; exceeding it aborts with
    /// [`SimError::MaxRoundsExceeded`](crate::SimError). Guards against
    /// non-terminating protocols in tests.
    pub max_rounds: u64,
    /// Number of executor shards (worker threads). `1` (the default) runs
    /// the whole network on the calling thread; `0` asks for one shard per
    /// available CPU. The shard count is a *performance* knob only: results
    /// — [`RunStats`](crate::RunStats) and final node states — are
    /// bit-identical for every value (see the executor docs on the per-port
    /// FIFO determinism contract).
    pub shards: u32,
}

impl RunConfig {
    /// Words available per edge direction per round.
    #[inline]
    pub fn capacity_words(&self) -> u64 {
        u64::from(self.bandwidth) * u64::from(UNIT_WORDS)
    }

    /// Standard CONGEST (`b = 1`) with the default unit-message width.
    pub fn congest() -> Self {
        Self::default()
    }

    /// `CONGEST(b log n)` with the given `b`.
    ///
    /// # Panics
    ///
    /// Panics if `b == 0`.
    pub fn congest_b(b: u32) -> Self {
        assert!(b > 0, "bandwidth must be positive");
        Self { bandwidth: b, ..Self::default() }
    }
}

impl Default for RunConfig {
    fn default() -> Self {
        Self { bandwidth: 1, max_rounds: 10_000_000, shards: 1 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacity_words_scales_with_b() {
        assert_eq!(RunConfig::congest().capacity_words(), 8);
        assert_eq!(RunConfig::congest_b(4).capacity_words(), 32);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn zero_bandwidth_rejected() {
        let _ = RunConfig::congest_b(0);
    }
}
