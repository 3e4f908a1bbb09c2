//! Global parameters and the round schedule of the Controlled-GHS stage.
//!
//! The synchronous model gives every vertex a shared clock, so once the BFS
//! root has broadcast `(n, H, k, t0)` (end of Stage A), every vertex computes
//! the *same* schedule locally and knows, for any absolute round, which
//! sub-step of which Controlled-GHS phase is executing. This realizes the
//! paper's implicit phase synchronization with explicit budget constants.
//!
//! # Window table and derivation
//!
//! Per phase `i` (participation radius `p = 2^i`), a participating fragment
//! has height `<= p` (that is exactly what the probe's depth budget tests),
//! so each sub-step's latency is a small multiple of `p`. Each window lasts
//! exactly the longest message chain of its sub-step, where a message sent
//! in round `r` is processed in round `r + 1`:
//!
//! | window | length | longest chain |
//! |---|---|---|
//! | Announce | `1` | one local send; delivered at the next window's offset 0 |
//! | Probe | `2p+1` | descend `p` (depth-`j` vertex hears at offset `j`), ascend `p`: root hears the last `MwoeUp` at offset `2p` |
//! | Connect | `p+2` | the Connect walk descends `<= p` and crosses (+1): delivered at offset `<= p+1`, the window's last round, where the mutual-MWOE tie is resolved |
//! | Exchange × L | `2p+2` | `ColorDown` descends `<= p`, `ColorUp` crosses (+1) and ascends `<= p`: root holds the parent color at offset `2p+1` and evaluates that round |
//! | Collect (×6) | `p+1` | pure convergecast, ascend `<= p` |
//! | Accept (×6) | `2p+2` | the Accept walk descends `<= p` and crosses (+1), `MatchedUp` ascends `<= p`; alongside, the Status walk descends `<= p` and crosses (+1), landing by offset `p+1` |
//! | MergeGo | `p+2` | the Merge walk descends `<= p` and crosses (+1) |
//! | MergeFlood | `5p+5` | flood depth `<= 5p+4`: initiator fragment `<= p`, cross (+1), partner entered anywhere so `<= 2p` internally, cross to a pendant (+1), pendant `<= 2p` |
//!
//! `L = max(steps_to_six(n), 1)` Cole–Vishkin bit-ladder steps leave six
//! color classes, and Collect/Accept run once per class, for classes
//! 5, 4, …, 0 in that order. Summed, a phase lasts `(2L+27)p + (2L+29)`
//! rounds.
//!
//! Every phase ends on its schedule: the merge flood sleeps out its
//! worst-case window, so the whole Stage B timeline is a pure function of
//! the broadcast parameters and [`Schedule::locate`] maps any absolute
//! round to its slot at every vertex alike.
//!
//! # One table, one copy per run
//!
//! [`Schedule::new`] lays every phase's windows end to end into one table
//! of `(start, length, phase, window)` rows. [`Schedule::locate`] and
//! [`Schedule::next_boundary`], which every vertex calls at every Stage B
//! step, are one binary search over it, and [`Schedule::phase_len`] is a
//! view of it. Because the table depends only on what the BFS root
//! broadcast, one copy serves a whole run: [`run_mst`](crate::run_mst)
//! hands every vertex the same cell, the first vertex to adopt the
//! broadcast [`Params`] builds the table into it, and every other vertex
//! asserts that the table was built from the parameters it received.

use crate::cv::steps_to_six;
use crate::util::{ceil_log2, isqrt};

/// The globally agreed parameters broadcast by the BFS root at the end of
/// Stage A.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Params {
    /// Number of vertices.
    pub n: u64,
    /// BFS tree height (`H <= D <= 2H`).
    pub h: u64,
    /// Base-forest parameter `k`.
    pub k: u64,
    /// Absolute round at which Stage B starts.
    pub t0: u64,
}

/// The paper's parameter choice (§3): `k = sqrt(n/b)` in the small-diameter
/// regime and `k = Θ(D)` in the large-diameter regime, implemented as
/// `max(sqrt(n/b), H)` with the BFS height `H` standing in for `D`
/// (`H <= D <= 2H`). Always at least 1. The BFS root picks `k` with
/// [`choose_k_cost`] instead; a run reaches this choice only through
/// [`ElkinConfig::k_override`](crate::ElkinConfig::k_override).
pub fn choose_k(n: u64, h: u64, bandwidth: u32) -> u64 {
    let nb = n.div_euclid(u64::from(bandwidth.max(1))).max(1);
    isqrt(nb).max(h).max(1)
}

// Stage D constants of `choose_k_cost` in 32nds of a round, fitted by
// relative least squares to the measured post-Stage-B rounds of 96 runs
// (the T1 trio at n = 256, 1024 and 2304, the A3 and S1 workloads, and the
// n = 16384 random graph, each swept over `k`; DESIGN.md §2): `α = 27/32`
// rounds per Borůvka phase per unit of BFS height, `γ = 152/32` rounds per
// phase, and `β = 9/32` rounds per base fragment per unit of bandwidth.
const CD_ALPHA: u128 = 27;
const CD_GAMMA: u128 = 152;
const CD_BETA: u128 = 9;
const CD_SCALE: u128 = 32;

/// The automatic choice of `k`, evaluated by the BFS root once Stage A has
/// measured `n` and `H`.
///
/// Every candidate `k` gets a predicted round count: Stage B is the sum of
/// the schedule's [`Schedule::phase_len`] over its `ceil(log2 k)`
/// phases (exact, since every phase ends on its schedule), and Stage D
/// is `ceil(log2(n/k)) * (α·H + γ) + β·n/(k·b)` (constants above). The
/// candidates are the powers of two from 2 plus the cap `isqrt(n/b)` — the
/// paper's `k` (Eq. (1)), past which Stage B only grows — restricted to
/// `k >= min(ceil(H/8), cap)`. That floor is the paper's reason for
/// `k = Θ(D)`: below it Stage D's `n/k` candidates, each climbing up to `H`
/// hops, cost more messages than the shorter Stage B saves. The cheapest
/// candidate wins, the smallest on a tie; costs are compared as exact
/// fractions, so `k` is non-decreasing in `h` and non-increasing in `b`.
/// Always `1 <= k <= max(isqrt(n/b), 1)`.
pub fn choose_k_cost(n: u64, h: u64, bandwidth: u32) -> u64 {
    let b = u64::from(bandwidth.max(1));
    let cap = isqrt(n / b).max(1);
    let floor = h.div_ceil(8).min(cap);
    // 32·k·b times the predicted rounds of `k`: `scaled(x)·y < scaled(y)·x`
    // compares the predictions of `x` and `y` exactly.
    let scaled = |k: u64| {
        let params = Params { n, h, k, t0: 0 };
        let stage_b = Schedule::new(&params).end();
        let phases = ceil_log2(n.div_ceil(k).max(1));
        let per_kb = CD_SCALE * u128::from(stage_b)
            + u128::from(phases) * (CD_ALPHA * u128::from(h) + CD_GAMMA);
        let kb = u128::from(k) * u128::from(b);
        per_kb.saturating_mul(kb).saturating_add(CD_BETA * u128::from(n))
    };
    std::iter::successors(Some(2u64), |&k| k.checked_mul(2))
        .take_while(|&k| k < cap)
        .chain([cap])
        .filter(|&k| k >= floor)
        .map(|k| (k, scaled(k)))
        .min_by(|&(x, sx), &(y, sy)| sx.saturating_mul(y.into()).cmp(&sy.saturating_mul(x.into())))
        .expect("the cap is always a candidate")
        .0
}

/// One scheduled window of a Controlled-GHS phase.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Window {
    /// Fragment-id refresh (1 round).
    Announce,
    /// Depth-budgeted probe + MWOE convergecast.
    Probe,
    /// Argmin downcast and cross-edge connect.
    Connect,
    /// One Cole–Vishkin bit-ladder exchange ([`crate::cv::cv_step`]).
    Exchange(u32),
    /// Matching: collect unmatched children (for color class `c`).
    MatchCollect(u8),
    /// Matching: accept one child and tell the own forest parent (for
    /// color class `c`).
    MatchAccept(u8),
    /// Unmatched fragments fire their MWOE.
    MergeGo,
    /// New-fragment flood: ids + re-orientation.
    MergeFlood,
}

/// Where a round falls inside the Stage B schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Slot {
    /// Phase index `i` (participation radius `2^i`).
    pub phase: u32,
    /// The window within the phase.
    pub window: Window,
    /// Offset of this round within the window (0-based).
    pub offset: u64,
    /// Whether this is the window's final round (safe evaluation point).
    pub last: bool,
}

/// One window of the flattened Stage B timeline: its absolute first round,
/// its length, and where it sits in the phase structure.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Span {
    start: u64,
    len: u64,
    phase: u32,
    window: Window,
}

/// The fully determined Stage B schedule, identical at every vertex: a
/// pure function of the broadcast parameters.
/// [`Schedule::new`] flattens every phase's windows into one table in
/// round order, so [`Schedule::locate`] and [`Schedule::next_boundary`] are
/// one binary search each.
#[derive(Clone, Debug)]
pub struct Schedule {
    params: Params,
    num_phases: u32,
    exchanges: u32,
    /// Every window of every phase in round order; each phase holds the
    /// same number of windows, so phase `i` is the `i`-th equal chunk.
    table: Vec<Span>,
}

impl Schedule {
    /// Builds the schedule from the broadcast parameters.
    pub fn new(params: &Params) -> Self {
        let num_phases = if params.k <= 1 { 0 } else { ceil_log2(params.k) as u32 };
        let mut s = Self {
            params: *params,
            num_phases,
            // At least one: the first `ColorDown` tells a fragment's
            // non-root vertices that it participates.
            exchanges: steps_to_six(params.n).max(1),
            table: Vec::new(),
        };
        let mut start = params.t0;
        for phase in 0..num_phases {
            for (window, len) in s.layout(phase) {
                s.table.push(Span { start, len, phase, window });
                start += len;
            }
        }
        s
    }

    /// Whether this is the schedule [`Schedule::new`] builds from exactly
    /// these parameters.
    pub(crate) fn built_from(&self, params: &Params) -> bool {
        self.params == *params
    }

    /// Number of Controlled-GHS phases (`ceil(log2 k)`).
    pub fn num_phases(&self) -> u32 {
        self.num_phases
    }

    /// Number of CV exchange windows per phase.
    pub fn exchanges(&self) -> u32 {
        self.exchanges
    }

    /// First round of Stage B.
    pub fn start(&self) -> u64 {
        self.params.t0
    }

    /// First round *after* Stage B (Stage D entry point).
    pub fn end(&self) -> u64 {
        self.table.last().map_or(self.params.t0, |s| s.start + s.len)
    }

    /// The participation radius `2^i` of phase `i`.
    pub fn radius(&self, phase: u32) -> u64 {
        1u64 << phase
    }

    /// The window layout of one phase: `(window, length)` in order, the
    /// module table's lengths. Only
    /// [`Schedule::new`] (and a test) reads it; everything else reads the
    /// table.
    fn layout(&self, phase: u32) -> Vec<(Window, u64)> {
        let p = self.radius(phase);
        let mut v = Vec::with_capacity(5 + self.exchanges as usize + 12);
        v.push((Window::Announce, 1));
        v.push((Window::Probe, 2 * p + 1));
        v.push((Window::Connect, p + 2));
        for x in 0..self.exchanges {
            v.push((Window::Exchange(x), 2 * p + 2));
        }
        for c in (0..6u8).rev() {
            v.push((Window::MatchCollect(c), p + 1));
            v.push((Window::MatchAccept(c), 2 * p + 2));
        }
        v.push((Window::MergeGo, p + 2));
        v.push((Window::MergeFlood, 5 * p + 5));
        v
    }

    /// The table rows of phase `i` (`i < num_phases`).
    fn phase_spans(&self, phase: u32) -> &[Span] {
        let per = self.table.len() / self.num_phases as usize;
        &self.table[phase as usize * per..][..per]
    }

    /// Total length of phase `i` in rounds (`i < num_phases`): the sum of
    /// its windows.
    pub fn phase_len(&self, phase: u32) -> u64 {
        self.phase_spans(phase).iter().map(|s| s.len).sum()
    }

    /// The window containing `round`, which must lie in `[t0, end)`.
    fn span_at(&self, round: u64) -> Span {
        self.table[self.table.partition_point(|s| s.start <= round) - 1]
    }

    /// Locates an absolute round within the Stage B schedule. `None` before
    /// `t0` or at/after [`Schedule::end`].
    pub fn locate(&self, round: u64) -> Option<Slot> {
        if round < self.params.t0 || round >= self.end() {
            return None;
        }
        let s = self.span_at(round);
        let offset = round - s.start;
        Some(Slot { phase: s.phase, window: s.window, offset, last: offset + 1 == s.len })
    }

    /// The next round strictly after `round` that is a window's first or
    /// final round, or [`Schedule::end`] (the Stage D transition) when no
    /// window remains. These are exactly the rounds at which
    /// [`crate::node::ElkinNode`] acts spontaneously — every window arms its
    /// actions at offset 0 and/or its last round — so they are the Stage B
    /// wake points of the executor's idle-skip contract. Before `t0` the
    /// answer is `t0` itself; at or past the end (not a Stage B round) it
    /// degenerates to `round + 1`.
    pub fn next_boundary(&self, round: u64) -> u64 {
        if round < self.params.t0 {
            return self.params.t0;
        }
        if round >= self.end() {
            return round + 1;
        }
        let s = self.span_at(round);
        let last = s.start + s.len - 1;
        if last > round {
            last
        } else {
            s.start + s.len
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u64, k: u64) -> Params {
        Params { n, h: 3, k, t0: 100 }
    }

    #[test]
    fn choose_k_regimes() {
        // Small diameter: k = sqrt(n).
        assert_eq!(choose_k(1024, 10, 1), 32);
        // Large diameter: k = H.
        assert_eq!(choose_k(1024, 100, 1), 100);
        // Bandwidth shrinks the sqrt term: sqrt(1024/4) = 16.
        assert_eq!(choose_k(1024, 10, 4), 16);
        // Never below 1.
        assert_eq!(choose_k(1, 0, 1), 1);
    }

    #[test]
    fn choose_k_cost_pins() {
        // The benchmark's random graph (H = 7): a small k, not the cap 128.
        assert_eq!(choose_k_cost(16384, 7, 1), 8);
        // Its cliquepath (H = 4095) and the T1 cliquepath 288x8 (H = 575):
        // the H/8 floor reaches the cap, so k stays at isqrt(n), a power of
        // two or not.
        assert_eq!(choose_k_cost(16384, 4095, 1), 128);
        assert_eq!(choose_k_cost(2304, 575, 1), 48);
        // Tiny inputs give 1.
        assert_eq!(choose_k_cost(1, 0, 1), 1);
        assert_eq!(choose_k_cost(3, 0, 8), 1);
    }

    #[test]
    fn phases_count() {
        let phases = |k| Schedule::new(&params(100, k)).num_phases();
        assert_eq!(phases(1), 0);
        assert_eq!(phases(2), 1);
        assert_eq!(phases(8), 3);
        assert_eq!(phases(9), 4);
    }

    #[test]
    fn table_matches_a_walk_of_the_layouts() {
        // Every round of [t0 - 2, end + 10): the table's answers equal a
        // linear walk of the per-phase layouts laid end to end from t0.
        // Each phase runs its windows in the module table's order, the six
        // color classes' Collect/Accept pairs from class 5 down to 0, and
        // past Stage B every round is its own successor. `(n, L)`: below
        // seven vertices the ladder has nothing to reduce, yet one exchange
        // still runs, since its `ColorDown` carries participation.
        let sizes = [(2, 1), (6, 1), (64, 3), (16384, 4)];
        for (k, (n, ladder)) in [1, 2, 3, 8, 64].into_iter().flat_map(|k| sizes.map(|s| (k, s))) {
            let s = Schedule::new(&params(n, k));
            let case = format!("k={k}/n={n}");
            assert_eq!(s.exchanges(), ladder, "{case}");
            let mut order = vec![Window::Announce, Window::Probe, Window::Connect];
            order.extend((0..s.exchanges()).map(Window::Exchange));
            for c in (0..6).rev() {
                order.extend([Window::MatchCollect(c), Window::MatchAccept(c)]);
            }
            order.extend([Window::MergeGo, Window::MergeFlood]);
            let at = |r: u64| (s.locate(r), s.next_boundary(r));
            for r in s.start() - 2..s.start() {
                assert_eq!(at(r), (None, s.start()), "{case}: round {r}");
            }
            let mut start = s.start();
            for phase in 0..s.num_phases() {
                let layout = s.layout(phase);
                assert_eq!(layout.first(), Some(&(Window::Announce, 1)), "{case}");
                assert!(layout.iter().map(|w| w.0).eq(order.iter().copied()), "{case}");
                for (window, len) in layout {
                    let last = start + len - 1;
                    for r in start..=last {
                        let slot = Slot { phase, window, offset: r - start, last: r == last };
                        let next = if r < last { last } else { last + 1 };
                        assert_eq!(at(r), (Some(slot), next), "{case}: round {r}");
                    }
                    start += len;
                }
            }
            assert_eq!(s.end(), start, "{case}");
            for r in start..start + 10 {
                assert_eq!(at(r), (None, r + 1), "{case}: round {r}");
            }
        }
    }

    #[test]
    fn phase_lengths_follow_the_closed_forms() {
        // Every phase of k = 64 (p = 2^i, L CV exchanges): the sums of the
        // module table's lengths.
        for n in [2, 6, 64, 16384] {
            let s = Schedule::new(&params(n, 64));
            let l = u64::from(s.exchanges());
            assert_eq!(s.num_phases(), 6);
            for i in 0..s.num_phases() {
                let p = s.radius(i);
                let want = (2 * l + 27) * p + 2 * l + 29;
                assert_eq!(s.phase_len(i), want, "n={n}: phase {i}");
            }
        }
    }

    #[test]
    fn phase_budgets_grow_geometrically() {
        let s = Schedule::new(&params(1 << 16, 64));
        for i in 1..s.num_phases() {
            let a = s.phase_len(i - 1);
            let b = s.phase_len(i);
            assert!(b > a && b < 3 * a, "phase budgets should roughly double");
        }
        // Total Stage B length is O(k log* n): generous constant check.
        let total = s.end() - s.start();
        let bound = 200 * 64 + 500;
        assert!(total < bound, "stage B budget {total} exceeds {bound}");
    }
}
