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
//! | Connect | `p+2` | the Connect walk descends `<= p` and crosses (+1): delivered at offset `<= p+1`, the window's last round; the mutual-MWOE tie is resolved when `Exchange(0)` opens |
//! | Exchange × L | `2p+2` | `ColorDown` descends `<= p`, `ColorUp` crosses (+1) and ascends `<= p`: root holds the parent color at offset `2p+1` and takes the step when the next window opens |
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
//! the broadcast parameters and [`Schedule::opening`] names the window
//! that opens in any absolute round at every vertex alike.
//!
//! # One clock
//!
//! Each window covers its longest chain, so every message of a window has
//! landed when the next window opens, and a round handles its mail before
//! it acts. A vertex therefore acts on its own only in the round a window
//! opens, and at [`Schedule::end`], where Stage D begins: an action that
//! needs a window's results runs when the next window opens.
//! [`Schedule::next_opening`] is the Stage B wake hint.
//!
//! Every phase has the same windows, each `a·p + b` rounds long, so a
//! [`Schedule`] is a `Copy` value of the broadcast [`Params`] and two
//! counts. It finds a round's window by arithmetic: a loop over at most
//! `ceil(log2 k)` closed-form phase lengths, then the table's offsets.

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

/// The fully determined Stage B schedule, identical at every vertex: a
/// pure function of the broadcast parameters, which it holds together
/// with its phase and exchange counts. [`Schedule::opening`] and
/// [`Schedule::next_opening`] find a round's window by arithmetic.
#[derive(Clone, Copy, Debug)]
pub struct Schedule {
    params: Params,
    num_phases: u32,
    exchanges: u32,
}

impl Schedule {
    /// Builds the schedule from the broadcast parameters.
    pub fn new(params: &Params) -> Self {
        Self {
            params: *params,
            num_phases: if params.k <= 1 { 0 } else { ceil_log2(params.k) as u32 },
            // At least one: the first `ColorDown` tells a fragment's
            // non-root vertices that it participates.
            exchanges: steps_to_six(params.n).max(1),
        }
    }

    /// The broadcast parameters this schedule is derived from.
    pub fn params(&self) -> Params {
        self.params
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

    /// First round *after* Stage B (Stage D entry point): the phase
    /// lengths summed, `(2L+27)(2^P - 1) + (2L+29)P` rounds past `t0` for
    /// `P` phases.
    pub fn end(&self) -> u64 {
        let (l, phases) = (u64::from(self.exchanges), self.num_phases);
        self.params.t0 + (2 * l + 27) * (self.radius(phases) - 1) + (2 * l + 29) * u64::from(phases)
    }

    /// The participation radius `2^i` of phase `i`.
    pub fn radius(&self, phase: u32) -> u64 {
        1u64 << phase
    }

    /// Total length of phase `i` in rounds: the module table's lengths
    /// summed, `(2L+27)p + (2L+29)`.
    pub fn phase_len(&self, phase: u32) -> u64 {
        let l = u64::from(self.exchanges);
        (2 * l + 27) * self.radius(phase) + 2 * l + 29
    }

    /// The window containing `round`, as its phase, the window, its first
    /// round and the first round after it; `None` outside `[t0, end)`.
    fn window_at(&self, round: u64) -> Option<(u32, Window, u64, u64)> {
        let mut start = self.params.t0;
        if round < start {
            return None;
        }
        for phase in 0..self.num_phases {
            let (len, offset) = (self.phase_len(phase), round - start);
            if offset < len {
                let (window, first, width) = self.window_in_phase(self.radius(phase), offset);
                return Some((phase, window, start + first, start + first + width));
            }
            start += len;
        }
        None
    }

    /// The window at offset `o` of a phase of radius `p`, with its first
    /// offset and its length, read off the module table: Announce at 0,
    /// Probe at 1, Connect at `2p + 2`, the exchanges from `3p + 4`, then
    /// the six Collect/Accept pairs, MergeGo and MergeFlood.
    fn window_in_phase(&self, p: u64, o: u64) -> (Window, u64, u64) {
        let exchanges = 3 * p + 4;
        let pairs = exchanges + u64::from(self.exchanges) * (2 * p + 2);
        let go = pairs + 6 * (3 * p + 3);
        if o == 0 {
            (Window::Announce, 0, 1)
        } else if o < 2 * p + 2 {
            (Window::Probe, 1, 2 * p + 1)
        } else if o < exchanges {
            (Window::Connect, 2 * p + 2, p + 2)
        } else if o < pairs {
            let x = (o - exchanges) / (2 * p + 2);
            (Window::Exchange(x as u32), exchanges + x * (2 * p + 2), 2 * p + 2)
        } else if o < go {
            let j = (o - pairs) / (3 * p + 3);
            let (first, class) = (pairs + j * (3 * p + 3), 5 - j as u8);
            if o < first + p + 1 {
                (Window::MatchCollect(class), first, p + 1)
            } else {
                (Window::MatchAccept(class), first + p + 1, 2 * p + 2)
            }
        } else if o < go + p + 2 {
            (Window::MergeGo, go, p + 2)
        } else {
            (Window::MergeFlood, go + p + 2, 5 * p + 5)
        }
    }

    /// The window that opens in `round`, with its phase; `None` in every
    /// other round, before `t0` and from [`Schedule::end`] on.
    pub fn opening(&self, round: u64) -> Option<(u32, Window)> {
        let (phase, window, first, _) = self.window_at(round)?;
        (first == round).then_some((phase, window))
    }

    /// The next round strictly after `round` in which a window opens, or
    /// [`Schedule::end`] (the Stage D transition) once no window remains.
    /// These are the only rounds in which [`crate::node::ElkinNode`] acts
    /// on its own in Stage B, so they are its Stage B wake points under
    /// the executor's idle-skip contract. Before `t0` the answer is `t0`
    /// itself; from the end on (not a Stage B round) it degenerates to
    /// `round + 1`.
    pub fn next_opening(&self, round: u64) -> u64 {
        match self.window_at(round) {
            Some((.., next)) => next,
            None if round < self.params.t0 => self.params.t0,
            None => round + 1,
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

    /// The module table as a walk: the windows of a phase of radius `p`
    /// with `l` exchanges, and their lengths, in order. Each phase runs
    /// the six color classes' Collect/Accept pairs from class 5 down to 0.
    fn layout(p: u64, l: u32) -> Vec<(Window, u64)> {
        let mut v =
            vec![(Window::Announce, 1), (Window::Probe, 2 * p + 1), (Window::Connect, p + 2)];
        v.extend((0..l).map(|x| (Window::Exchange(x), 2 * p + 2)));
        for c in (0..6).rev() {
            v.extend([(Window::MatchCollect(c), p + 1), (Window::MatchAccept(c), 2 * p + 2)]);
        }
        v.extend([(Window::MergeGo, p + 2), (Window::MergeFlood, 5 * p + 5)]);
        v
    }

    #[test]
    fn openings_match_a_walk_of_the_layouts() {
        // Every round of [t0 - 2, end + 10): `opening` and `next_opening`
        // equal a linear walk of the per-phase layouts laid end to end from
        // t0. A window opens in its first round only, every round of it
        // points to the next window's first round, and past Stage B every
        // round is its own successor. `(n, L)`: below seven vertices the
        // ladder has nothing to reduce, yet one exchange still runs, since
        // its `ColorDown` carries participation.
        let sizes = [(2, 1), (6, 1), (64, 3), (16384, 4)];
        for (k, (n, ladder)) in [1, 2, 3, 8, 64].into_iter().flat_map(|k| sizes.map(|s| (k, s))) {
            let s = Schedule::new(&params(n, k));
            let case = format!("k={k}/n={n}");
            assert_eq!(s.exchanges(), ladder, "{case}");
            let at = |r: u64| (s.opening(r), s.next_opening(r));
            for r in s.start() - 2..s.start() {
                assert_eq!(at(r), (None, s.start()), "{case}: round {r}");
            }
            let mut start = s.start();
            for phase in 0..s.num_phases() {
                for (window, len) in layout(s.radius(phase), ladder) {
                    for r in start..start + len {
                        let opening = (r == start).then_some((phase, window));
                        assert_eq!(at(r), (opening, start + len), "{case}: round {r}");
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
                let walked: u64 = layout(p, s.exchanges()).iter().map(|w| w.1).sum();
                assert_eq!(walked, want, "n={n}: phase {i}");
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
