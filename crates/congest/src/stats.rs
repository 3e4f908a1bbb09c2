//! Run statistics: the quantities the paper's theorems bound.

use std::collections::BTreeMap;

/// Message/word counts for one message tag.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TagStats {
    /// Number of messages with this tag.
    pub messages: u64,
    /// Total encoded words shipped through the rings for those messages —
    /// the same words the bandwidth budget charges.
    pub wire_words: u64,
}

/// Aggregate statistics of one simulation run.
///
/// `rounds` and `messages` are the two quantities Elkin's theorems bound
/// (`O((D + sqrt(n)) log n)` and `O(m log n + n log n log* n)` respectively
/// for the main algorithm); the rest is diagnostic detail.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Number of synchronous rounds until global quiescence (all nodes done
    /// and no messages in flight).
    pub rounds: u64,
    /// Total messages delivered over the whole run.
    pub messages: u64,
    /// Total encoded words shipped on the wire: the sum of every message's
    /// encoded length, which is also what the capacity budget charges.
    pub wire_words: u64,
    /// Largest number of messages delivered in any single round.
    pub peak_round_messages: u64,
    /// Largest number of words sent over a single edge direction in a single
    /// round (never exceeds the budget under strict capacity).
    pub peak_edge_words: u64,
    /// Per-tag breakdown, ordered by tag for stable output.
    pub by_tag: BTreeMap<&'static str, TagStats>,
    /// Rounds attributed to each protocol stage, as reported by
    /// [`NodeProgram::stage_tag`](crate::NodeProgram::stage_tag): a round
    /// counts toward the *earliest* (smallest, by string order) non-empty
    /// tag any node reports after executing it, so laggards hold the round
    /// in the earlier stage. Empty when no node reports tags. When every
    /// node reports a tag in every round, the counts partition `rounds`
    /// exactly.
    pub rounds_by_stage: BTreeMap<&'static str, u64>,
}

impl RunStats {
    /// Messages carrying the given tag (0 if the tag never appeared).
    pub fn messages_with_tag(&self, tag: &str) -> u64 {
        self.by_tag.get(tag).map_or(0, |t| t.messages)
    }

    /// Encoded wire words carried by the given tag (0 if it never appeared).
    pub fn wire_words_with_tag(&self, tag: &str) -> u64 {
        self.by_tag.get(tag).map_or(0, |t| t.wire_words)
    }

    /// Rounds attributed to the given stage tag (0 if it never appeared).
    pub fn rounds_in_stage(&self, tag: &str) -> u64 {
        self.rounds_by_stage.get(tag).copied().unwrap_or(0)
    }

    /// Renders the per-tag breakdown as an aligned table, one tag per line.
    pub fn tag_table(&self) -> String {
        let mut out = String::new();
        for (tag, t) in &self.by_tag {
            out.push_str(&format!(
                "{tag:<24} {:>12} msgs {:>14} words\n",
                t.messages, t.wire_words
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_accessors() {
        let mut s = RunStats::default();
        s.by_tag.insert("bfs", TagStats { messages: 7, wire_words: 7 });
        assert_eq!(s.messages_with_tag("bfs"), 7);
        assert_eq!(s.messages_with_tag("nope"), 0);
        assert_eq!(s.wire_words_with_tag("bfs"), 7);
        assert_eq!(s.wire_words_with_tag("nope"), 0);
        assert!(s.tag_table().contains("bfs"));
        s.rounds_by_stage.insert("a", 12);
        assert_eq!(s.rounds_in_stage("a"), 12);
        assert_eq!(s.rounds_in_stage("z"), 0);
    }
}
