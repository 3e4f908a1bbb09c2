//! The fragment-graph computations of Stage D (paper §3).
//!
//! Each Borůvka phase, the BFS root `rt` holds the best candidate edge per
//! coarse fragment and must (a) merge fragments along their MWOEs, (b)
//! decide which candidate edges become MST edges, (c) assign each component
//! a fresh coarse id, and (d) detect global termination
//! ([`merge_fragment_graph`]). Once few coarse fragments remain on a tall
//! BFS tree, the root orders a *finish* instead ([`orders_finish`]): one
//! Kruskal pipelined up the BFS tree, each vertex forwarding only the
//! candidates that close no cycle ([`CycleFilter`], Kutten–Peleg's filter,
//! which the Pipeline baseline runs too). Both merges are one Kruskal over
//! a [`CycleFilter`]. This module is the *pure* version of those
//! computations, unit-tested independently of the message machinery in
//! `node::stage_cd`.

use std::collections::BTreeMap;

use crate::candidate::{CandKey, Candidate};
use crate::util::isqrt;

/// Outcome of one root-local merge.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MergeOutcome {
    /// The candidates chosen as MST edges, in key order.
    pub chosen: Vec<Candidate>,
    /// New coarse id for every old coarse id (new id = minimum old id in
    /// the merged component).
    pub new_id: BTreeMap<u64, u64>,
    /// Number of coarse fragments the merge leaves.
    pub remaining: usize,
    /// Whether a single coarse fragment remains (global termination).
    pub done: bool,
}

/// Merges the fragment graph over the coarse ids `coarse_ids`: Kruskal
/// ([`CycleFilter::kruskal`]) over the candidates queued in `filter`.
///
/// In a regular phase `filter` is a fresh one, offered each coarse
/// fragment's MWOE in ascending source order. With unique tie-broken keys
/// those edges form a forest except for mutual pairs, two records of one
/// physical edge; the filter keeps the first offered, the lower source's.
/// In a finish it is the BFS root's own filter.
///
/// Properties (unit-tested below):
///
/// * every component's new id is the minimum old id it contains;
/// * exactly `#old - #new` candidates are chosen (a forest over the coarse
///   ids);
/// * `done` iff one component remains.
///
/// # Panics
///
/// Panics if a chosen candidate references a coarse id not in
/// `coarse_ids`.
pub fn merge_fragment_graph(coarse_ids: &[u64], filter: &mut CycleFilter) -> MergeOutcome {
    let chosen = filter.kruskal();
    let new_id: BTreeMap<u64, u64> = coarse_ids.iter().map(|&c| (c, filter.label(c))).collect();
    for rec in &chosen {
        for c in [rec.src_coarse, rec.dst_coarse] {
            assert!(new_id.contains_key(&c), "candidate points at unknown coarse id {c}");
        }
    }
    let remaining = new_id.iter().filter(|(c, id)| c == id).count();
    MergeOutcome { chosen, new_id, remaining, done: remaining <= 1 }
}

/// Whether the BFS root orders a finish for phase `j`, after a merge that
/// left `coarse` coarse fragments on a BFS tree of height `h`.
///
/// * Never at `j = 0`: the root learns the base fragments only from phase
///   0's candidates, so phase 1 is the first it can order one for.
/// * Never below 4 fragments: with three or fewer, one regular phase
///   always ends the run, so a finish saves nothing.
/// * Never above `⌊√h⌋`: the finish forwards up to `coarse - 1`
///   candidates over every BFS edge, so the cap keeps its pipeline within
///   about `h + √h` rounds and `√h · n` candidate messages. With `h < 16`
///   the cap is below 4 and the rule never fires.
pub fn orders_finish(j: u64, coarse: usize, h: u64) -> bool {
    j >= 1 && coarse >= 4 && coarse as u64 <= isqrt(h)
}

/// Union–find over arbitrary `u64` labels (coarse or fragment ids).
#[derive(Clone, Debug, Default)]
struct LabelUf {
    parent: BTreeMap<u64, u64>,
}

impl LabelUf {
    fn find(&mut self, x: u64) -> u64 {
        let p = *self.parent.entry(x).or_insert(x);
        if p == x {
            return x;
        }
        let r = self.find(p);
        self.parent.insert(x, r);
        r
    }

    /// Returns `true` if the labels were in different sets. The smaller
    /// root becomes the root, so every root is its component's minimum.
    fn union(&mut self, a: u64, b: u64) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent.insert(ra.max(rb), ra.min(rb));
        true
    }
}

/// Kutten–Peleg's cycle filter: one vertex's share of a Kruskal pipelined
/// up a BFS tree (KP98, which the paper cites).
///
/// A candidate is an edge between two labels (its `src_coarse` and
/// `dst_coarse`). Every BFS child sends its candidates in nondecreasing
/// key order, so the last key heard from a child, its *watermark*, bounds
/// everything still to come from it. The filter releases its smallest
/// queued candidate only once every child has closed or passed that key,
/// so its own output is in nondecreasing key order as well. It drops each
/// candidate whose labels the candidates released before it already
/// connect: such an edge is the heaviest on a cycle of lighter edges and
/// is in no MST. Each release joins two components, so over `F` labels at
/// most `F - 1` candidates leave a vertex.
///
/// A vertex queues all of its own candidates ([`offer`](Self::offer))
/// before it releases any.
#[derive(Clone, Debug)]
pub struct CycleFilter {
    /// Candidates not yet released or dropped, by key.
    pending: BTreeMap<CandKey, Candidate>,
    /// Components of the labels, over the released candidates.
    uf: LabelUf,
    /// Per child: the largest key received.
    last_from: Vec<Option<CandKey>>,
    /// Per child: it sent its last candidate.
    closed: Vec<bool>,
}

impl CycleFilter {
    /// A filter for a vertex with `children` BFS children.
    pub fn new(children: usize) -> Self {
        Self {
            pending: BTreeMap::new(),
            uf: LabelUf::default(),
            last_from: vec![None; children],
            closed: vec![false; children],
        }
    }

    /// Queues one of this vertex's own candidates. A second copy of an
    /// edge already queued is ignored.
    pub fn offer(&mut self, rec: Candidate) {
        self.pending.entry(rec.key).or_insert(rec);
    }

    /// Queues a candidate from child `child` and raises its watermark.
    pub fn receive(&mut self, child: usize, rec: Candidate) {
        let last = &mut self.last_from[child];
        debug_assert!(last.is_none_or(|l| l <= rec.key), "child {child} sent out of key order");
        *last = Some(rec.key);
        self.offer(rec);
    }

    /// Child `child` sent its last candidate.
    pub fn close(&mut self, child: usize) {
        self.closed[child] = true;
    }

    /// Whether every child has closed or passed `key`.
    fn passed(&self, key: CandKey) -> bool {
        self.closed
            .iter()
            .zip(&self.last_from)
            .all(|(&c, last)| c || last.is_some_and(|l| l >= key))
    }

    /// Whether the smallest queued candidate has passed every child's
    /// watermark, so that [`peek`](Self::peek) would release or drop it.
    /// Changes nothing, so a wake hint can ask.
    pub fn ready(&self) -> bool {
        self.pending.keys().next().is_some_and(|&key| self.passed(key))
    }

    /// The next candidate to release: the smallest queued one, once every
    /// child has closed or passed it. Queued candidates that would close a
    /// cycle are dropped on the way.
    pub fn peek(&mut self) -> Option<Candidate> {
        while let Some((&key, &rec)) = self.pending.iter().next() {
            if !self.passed(key) {
                return None;
            }
            if self.uf.find(rec.src_coarse) != self.uf.find(rec.dst_coarse) {
                return Some(rec);
            }
            self.pending.remove(&key);
        }
        None
    }

    /// Releases the candidate [`peek`](Self::peek) returned: it joins its
    /// two labels' components.
    ///
    /// # Panics
    ///
    /// Panics if nothing is queued.
    pub fn release(&mut self) -> Candidate {
        let (_, rec) = self.pending.pop_first().expect("release after a successful peek");
        self.uf.union(rec.src_coarse, rec.dst_coarse);
        rec
    }

    /// Every child closed and nothing is queued: this vertex has released
    /// its last candidate.
    pub fn exhausted(&self) -> bool {
        self.pending.is_empty() && self.closed.iter().all(|&c| c)
    }

    /// Kruskal over the queue, at a vertex whose children have all closed
    /// (the BFS root): every queued candidate in key order, kept iff it
    /// joins two components. Over a connected fragment graph with `F`
    /// labels it keeps exactly `F - 1`.
    pub fn kruskal(&mut self) -> Vec<Candidate> {
        debug_assert!(self.closed.iter().all(|&c| c), "Kruskal before every child closed");
        std::iter::from_fn(|| self.peek().map(|_| self.release())).collect()
    }

    /// The smallest label in `label`'s component over the released
    /// candidates; a label no release touched is its own.
    pub fn label(&mut self, label: u64) -> u64 {
        self.uf.find(label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::CandKey;

    fn cand(src: u64, dst: u64, w: u64, slot: u64) -> Candidate {
        Candidate {
            key: CandKey::new(w, src, dst),
            src_coarse: src,
            dst_coarse: dst,
            src_slot: slot,
        }
    }

    /// A regular phase's merge: the MWOEs `best` offered to a fresh filter
    /// in the given order (the root offers them in ascending source order).
    fn merge(ids: &[u64], best: &[Candidate]) -> MergeOutcome {
        let mut filter = CycleFilter::new(0);
        for &rec in best {
            filter.offer(rec);
        }
        merge_fragment_graph(ids, &mut filter)
    }

    fn slots(out: &MergeOutcome) -> Vec<u64> {
        out.chosen.iter().map(|r| r.src_slot).collect()
    }

    #[test]
    fn chain_merges_to_one() {
        // 0 -> 1 -> 2 -> 3, each via its own edge.
        let ids = [0u64, 1, 2, 3];
        let best = [cand(0, 1, 5, 10), cand(1, 2, 3, 11), cand(2, 3, 4, 12), cand(3, 2, 4, 13)];
        let out = merge(&ids, &best);
        assert!(out.done);
        assert!(ids.iter().all(|c| out.new_id[c] == 0));
        // 3 -> 2 is the mutual twin of 2 -> 3 (same key): the first
        // offered, the lower source's, is chosen.
        assert_eq!(slots(&out), [11, 12, 10], "in key order");
    }

    #[test]
    fn two_components_not_done() {
        let best = [
            cand(0, 1, 1, 20),
            cand(1, 0, 1, 21), // mutual with the above
            cand(7, 9, 2, 22),
            cand(9, 7, 2, 23), // mutual
        ];
        let out = merge(&[0, 1, 7, 9], &best);
        assert!(!out.done);
        assert_eq!(out.remaining, 2);
        assert_eq!(out.new_id[&0], 0);
        assert_eq!(out.new_id[&1], 0);
        assert_eq!(out.new_id[&7], 7);
        assert_eq!(out.new_id[&9], 7);
        assert_eq!(slots(&out), [20, 22]);
    }

    #[test]
    fn missing_candidates_leave_singletons() {
        // Fragment 5 has no outgoing candidate (possible only when it is
        // alone, but the pure function tolerates it).
        let out = merge(&[5], &[]);
        assert!(out.done);
        assert_eq!(out.new_id[&5], 5);
        assert!(out.chosen.is_empty());
    }

    #[test]
    fn star_merge_picks_min_id() {
        // 3, 8, 12 all point at 2.
        let ids = [2u64, 3, 8, 12];
        let best = [
            cand(2, 3, 1, 33), // mutual with 3 -> 2
            cand(3, 2, 1, 30),
            cand(8, 2, 2, 31),
            cand(12, 2, 3, 32),
        ];
        let out = merge(&ids, &best);
        assert!(out.done);
        assert!(ids.iter().all(|c| out.new_id[c] == 2));
        assert_eq!(slots(&out), [33, 31, 32], "three physical edges used");
    }

    #[test]
    fn label_is_the_component_minimum() {
        let mut f = CycleFilter::new(0);
        for rec in [cand(9, 4, 1, 0), cand(4, 7, 2, 0), cand(3, 5, 3, 0)] {
            f.offer(rec);
        }
        assert_eq!(f.label(9), 9, "nothing released yet");
        assert_eq!(f.kruskal().len(), 3);
        assert_eq!([9, 7, 4].map(|c| f.label(c)), [4, 4, 4]);
        assert_eq!([5, 3].map(|c| f.label(c)), [3, 3]);
        assert_eq!(f.label(1), 1, "a label never offered is its own");
    }

    #[test]
    fn finish_rule() {
        // Never at phase 0, whatever the counts.
        assert!((0..64).all(|f| !orders_finish(0, f, 4095)));
        // Never with three or fewer coarse fragments.
        assert!((0..=3).all(|f| !orders_finish(1, f, 4095)));
        // Never on the random graphs' BFS heights (H = 7 or 8, cap 2).
        for h in [7, 8] {
            assert!((1..4).all(|j| (0..64).all(|f| !orders_finish(j, f, h))), "H = {h}");
        }
        // The n = 16384 cliquepath's phase-1 counts at H = 4095 (cap 63).
        assert!((15..=20).all(|f| orders_finish(1, f, 4095)));
        // The cap is floor(sqrt(H)): 4 at H = 16, 7 at H = 63.
        assert!(orders_finish(1, 4, 16) && !orders_finish(1, 5, 16) && !orders_finish(1, 4, 15));
        assert!(orders_finish(1, 5, 63) && orders_finish(2, 7, 63) && !orders_finish(1, 8, 63));
    }

    /// A candidate edge between coarse ids `src` and `dst`, with a key of
    /// weight `w` whose endpoints `(src, dst + 100)` keep every key unique.
    fn edge(src: u64, dst: u64, w: u64) -> Candidate {
        Candidate {
            key: CandKey::new(w, src, dst + 100),
            src_coarse: src,
            dst_coarse: dst,
            src_slot: src,
        }
    }

    #[test]
    fn kruskal_keeps_a_spanning_tree_of_the_coarse_ids() {
        // Five coarse ids. Besides a spanning tree (weights 1, 2, 3, 5),
        // the survivors hold a heavier parallel edge (0-1 at 4), a cycle
        // closer (1-3 at 6, over 1-2-3), and the tree edge 2-3 a second
        // time from its other side.
        let survivors = [
            edge(3, 4, 5),
            edge(0, 1, 4),
            edge(1, 3, 6),
            edge(0, 1, 1),
            edge(1, 2, 2),
            edge(2, 3, 3),
            Candidate { src_coarse: 3, dst_coarse: 2, src_slot: 3, ..edge(2, 3, 3) },
        ];
        let mut root = CycleFilter::new(0);
        for rec in survivors {
            root.offer(rec);
        }
        let chosen = root.kruskal();
        assert_eq!(chosen.len(), 5 - 1, "F - 1 edges");
        let weights: Vec<u64> = chosen.iter().map(|r| r.key.weight).collect();
        assert_eq!(weights, [1, 2, 3, 5], "in key order, parallel and cycle edges dropped");
        let mut uf = LabelUf::default();
        assert!(chosen.iter().all(|r| uf.union(r.src_coarse, r.dst_coarse)), "a forest");
        assert!((0..5).all(|c| uf.find(c) == uf.find(0)), "spanning the coarse ids");
        assert!(root.exhausted());
    }

    #[test]
    fn filter_waits_for_every_watermark_and_forwards_a_forest() {
        // A vertex with two BFS children, over F = 6 coarse ids.
        let mut f = CycleFilter::new(2);
        f.offer(edge(0, 1, 3));
        f.offer(edge(1, 2, 9));
        assert!(!f.ready() && f.peek().is_none(), "no child has passed key 3 yet");
        f.receive(0, edge(2, 3, 1));
        assert!(f.peek().is_none(), "child 1 is silent, so even key 1 waits");
        f.receive(1, edge(3, 4, 2));
        // Watermarks 1 and 2: key 1 leaves, key 2 waits for child 0.
        assert!(f.ready());
        let mut sent = vec![f.release()];
        assert!(!f.ready() && f.peek().is_none(), "key 2 waits for child 0");
        f.receive(0, edge(0, 2, 4));
        f.receive(0, edge(4, 5, 7));
        f.close(1);
        while f.peek().is_some() {
            sent.push(f.release());
        }
        // Keys 2, 3, 4 and 7 left; key 9 waits, since child 0 may still
        // send anything from 7 up.
        assert!(f.peek().is_none() && !f.exhausted());
        f.receive(0, edge(2, 5, 8));
        f.receive(0, edge(0, 5, 10));
        f.close(0);
        while f.peek().is_some() {
            sent.push(f.release());
        }
        assert!(f.exhausted());
        // Keys 8, 9 (1-2, over 0-1 and 0-2) and 10 close cycles: dropped.
        let weights: Vec<u64> = sent.iter().map(|r| r.key.weight).collect();
        assert_eq!(weights, [1, 2, 3, 4, 7], "nondecreasing, cycle closers dropped");
        assert!(sent.len() < 6, "at most F - 1 = 5 candidates leave");
    }

    #[test]
    #[should_panic(expected = "unknown coarse id")]
    fn foreign_destination_rejected() {
        let _ = merge(&[0], &[cand(0, 99, 1, 0)]);
    }
}
