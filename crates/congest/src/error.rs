//! Simulation errors.

use std::error::Error;
use std::fmt;

use crate::topology::NodeId;

/// Errors raised while constructing a topology or running a simulation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SimError {
    /// The edge list did not describe a simple graph on `n` nodes.
    InvalidTopology(String),
    /// A node sent more words over one edge direction in one round than
    /// the budget ([`RunConfig::capacity_words`](crate::RunConfig::capacity_words))
    /// allows. This indicates a protocol bug, not congestion.
    CapacityExceeded {
        /// Round in which the violation occurred.
        round: u64,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Words enqueued on this direction this round, including the
        /// violating message.
        words: u64,
        /// Allowed words per direction per round.
        capacity: u64,
    },
    /// The run exceeded [`RunConfig::max_rounds`](crate::RunConfig).
    MaxRoundsExceeded {
        /// The configured cap.
        max_rounds: u64,
        /// Nodes still not done when the cap was hit.
        pending_nodes: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidTopology(msg) => write!(f, "invalid topology: {msg}"),
            SimError::CapacityExceeded { round, from, to, words, capacity } => write!(
                f,
                "bandwidth exceeded at round {round} on edge {from} -> {to}: \
                 {words} words sent, {capacity} allowed"
            ),
            SimError::MaxRoundsExceeded { max_rounds, pending_nodes } => write!(
                f,
                "simulation did not terminate within {max_rounds} rounds \
                 ({pending_nodes} nodes still running)"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = SimError::CapacityExceeded { round: 3, from: 1, to: 2, words: 9, capacity: 8 };
        let s = e.to_string();
        assert!(s.contains("round 3"));
        assert!(s.contains("1 -> 2"));
    }
}
