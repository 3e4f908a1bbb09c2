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
//! so each sub-step's latency is a small multiple of `p`. The two columns
//! below are the **Fixed** (seed, deliberately padded) and **Adaptive**
//! (provably minimal) window lengths; the derivation of each adaptive
//! length is the longest message chain of the sub-step, where a message
//! sent in round `r` is processed in round `r + 1`:
//!
//! | window | fixed | adaptive | longest chain (adaptive) |
//! |---|---|---|---|
//! | Announce | `1` | `1` | one local send; delivered at the next window's offset 0 |
//! | Probe | `2p+2` | `2p+1` | descend `p` (depth-`j` vertex hears at offset `j`), ascend `p`: root hears the last `MwoeUp` at offset `2p` |
//! | Connect | `p+3` | `p+2` | `MwoePath` descends `<= p`, `ConnectReq` crosses (+1): delivered at offset `<= p+1`, the window's last round, where the mutual-MWOE tie is resolved |
//! | Kids | `p+2` | `p+1` | all vertices start at offset 0; ascend `<= p` |
//! | Exchange × X | `2p+3` | `2p+2` | `ColorDown` descends `<= p`, `ColorCross` (+1), `ColorUp` ascends `<= p`: root holds the parent color at offset `2p+1` and evaluates that round |
//! | Collect (×3) | `p+2` | `p+1` | pure convergecast, ascend `<= p` |
//! | Accept (×3) | `2p+4` | `2p+2` | `AcceptPath` descends `<= p`, `AcceptCross` (+1), `MatchedUp` ascends `<= p` |
//! | Status (×3) | `p+3` | `p+2` | `StatusDown` descends `<= p`, `StatusCross` (+1) |
//! | MergeGo | `p+2` / `2p+4` unc. | `p+2` / `2p+2` unc. | `MergePath` descends `<= p`, `MergeCross` (+1); uncontrolled adds the mutual `MatchedUp` ascent `<= p` |
//! | MergeFlood | `6p+6` / `n+2p+6` unc. | see below | flood depth `<= 5p+4`: initiator fragment `<= p`, cross (+1), partner entered anywhere so `<= 2p` internally, cross to a pendant (+1), pendant `<= 2p` |
//!
//! `X = steps_to_six(n) + 6` Cole–Vishkin iterations as before.
//!
//! # Adaptive phase ends (`ScheduleMode::Adaptive`)
//!
//! The merge flood is the one window whose worst case (`5p+4` hops, or
//! `Θ(n)` uncontrolled) is usually far from its actual depth — fragments
//! merge along short chains long before the radius saturates. Adaptive
//! mode therefore ends each phase one of two ways, chosen **per phase** by
//! a deterministic rule every vertex evaluates identically (it depends
//! only on the broadcast `(n, H)` and the phase index):
//!
//! * **Scheduled end** when the worst-case flood window is already cheaper
//!   than a tree sync (`flood_window <= 2H + 5`): sleep out the tight
//!   `5p+5` (matched) window exactly like Fixed mode, just with the
//!   minimal constant.
//! * **Sync end** otherwise (`flood_window > 2H + 5`, e.g. uncontrolled
//!   mode, or `p >> H`): the flood carries acks (`FloodAck` retraces every
//!   `NewFrag` edge), fragment roots that provably expect no flood
//!   broadcast `SyncNoFlood` down their old fragment tree, and every
//!   vertex that has settled reports `SyncUp` up the Stage A BFS tree once
//!   its BFS subtree has. When the BFS root has heard the whole tree it
//!   broadcasts `SyncStart { phase+1, t }` with `t = now + H + 1`, and the
//!   next phase's Announce window opens at the absolute round `t` at every
//!   vertex simultaneously. Cost: `O(actual flood depth + H)` instead of
//!   the worst-case window — the phase ends as soon as every fragment's
//!   merge flood has settled.
//!
//! The **uncontrolled** mode (ablation A1) skips coloring and matching
//! entirely and lets every fragment merge along its MWOE; its fixed flood
//! window must cover `Θ(n)` because without matching the fragment diameter
//! is unbounded — that blow-up is exactly what the ablation demonstrates
//! (and exactly where sync-ended phases help most).

use crate::cv::steps_to_six;
use crate::util::{ceil_log2, isqrt};

/// Whether Controlled-GHS merges via maximal matching (the paper) or merges
/// every fragment along its MWOE (ablation A1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MergeControl {
    /// Paper behaviour: 3-coloring + maximal matching bounds fragment
    /// diameter by `O(2^i)` per phase.
    #[default]
    Matched,
    /// Ablation: pure Borůvka merging; diameter may blow up to `Θ(n)`.
    Uncontrolled,
}

/// How Stage B rounds are scheduled (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum ScheduleMode {
    /// The seed behaviour: padded windows, every phase sleeps out its
    /// worst case, `k = max(sqrt(n/b), H)`.
    Fixed,
    /// Tightened windows, per-phase scheduled-vs-sync ends, and `k` from
    /// the fitted round model [`choose_k_cost`]: the candidate up to the
    /// paper's `sqrt(n/b)` with the fewest predicted rounds, never below
    /// `H/8`. The default; `Fixed` stays a supported knob and remains in
    /// the conformance matrix.
    #[default]
    Adaptive,
}

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
/// (`H <= D <= 2H`). Always at least 1.
pub fn choose_k(n: u64, h: u64, bandwidth: u32) -> u64 {
    let nb = n.div_euclid(u64::from(bandwidth.max(1))).max(1);
    isqrt(nb).max(h).max(1)
}

// Stage C/D constants of `choose_k_cost` in 32nds of a round, fitted by
// relative least squares to the measured Stage C + D rounds of 96 runs
// (the T1 trio at n = 256, 1024 and 2304, the A3 and S1 workloads, and the
// n = 16384 random graph, each swept over `k`; DESIGN.md §2): `α = 27/32`
// rounds per Borůvka phase per unit of BFS height, `γ = 152/32` rounds per
// phase, and `β = 9/32` rounds per base fragment per unit of bandwidth.
const CD_ALPHA: u128 = 27;
const CD_GAMMA: u128 = 152;
const CD_BETA: u128 = 9;
const CD_SCALE: u128 = 32;

/// The cost-model choice of `k` ([`ScheduleMode::Adaptive`]), evaluated by
/// the BFS root once Stage A has measured `n` and `H`.
///
/// Every candidate `k` gets a predicted round count: Stage B is the sum of
/// the adaptive schedule's [`Schedule::phase_len`] over its `ceil(log2 k)`
/// phases, and Stages C/D are `ceil(log2(n/k)) * (α·H + γ) + β·n/(k·b)`
/// (constants above). The candidates are the powers of two from 2 plus the
/// cap `isqrt(n/b)` — the paper's `k` (Eq. (1)), past which Stage B only
/// grows — restricted to `k >= min(ceil(H/8), cap)`. That floor is the
/// paper's reason for `k = Θ(D)`: below it Stage D's `n/k` candidates, each
/// climbing up to `H` hops, cost more messages than the shorter Stage B
/// saves. The cheapest candidate wins, the smallest on a tie; costs are
/// compared as exact fractions, so `k` is non-decreasing in `h` and
/// non-increasing in `b`. Always `1 <= k <= max(isqrt(n/b), 1)`.
pub fn choose_k_cost(n: u64, h: u64, bandwidth: u32, merge: MergeControl) -> u64 {
    let b = u64::from(bandwidth.max(1));
    let cap = isqrt(n / b).max(1);
    let floor = h.div_ceil(8).min(cap);
    // 32·k·b times the predicted rounds of `k`: `scaled(x)·y < scaled(y)·x`
    // compares the predictions of `x` and `y` exactly.
    let scaled = |k: u64| {
        let params = Params { n, h, k, t0: 0 };
        let stage_b = Schedule::new(&params, merge, ScheduleMode::Adaptive).end();
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
    /// Participate flood, argmin downcast, cross-edge connect.
    Connect,
    /// Foreign-children existence convergecast.
    Kids,
    /// One Cole–Vishkin exchange; see [`ExchangeKind`].
    Exchange(u32),
    /// Matching: collect unmatched children (for color class `c`).
    MatchCollect(u8),
    /// Matching: accept one child (for color class `c`).
    MatchAccept(u8),
    /// Matching: propagate new matched statuses (for color class `c`).
    MatchStatus(u8),
    /// Unmatched fragments fire their MWOE.
    MergeGo,
    /// New-fragment flood: ids + re-orientation.
    MergeFlood,
}

/// Semantic classification of an exchange index within the CV reduction.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExchangeKind {
    /// Bit-ladder step ([`crate::cv::cv_step`]).
    Ladder,
    /// Shift-down preceding the recoloring of `class`.
    ShiftDown(u64),
    /// Recoloring of color `class` into `{0, 1, 2}`.
    Recolor(u64),
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

/// The fully determined Stage B schedule, identical at every vertex.
///
/// In [`ScheduleMode::Fixed`] the schedule is a pure function of the
/// broadcast parameters and [`Schedule::locate`] maps absolute rounds to
/// slots. In [`ScheduleMode::Adaptive`] phases that end by sync have no
/// predetermined length; the node tracks the current phase's start round
/// and uses [`Schedule::locate_rel`], with [`Schedule::sync_phase`]
/// deciding per phase which ending applies.
#[derive(Clone, Debug)]
pub struct Schedule {
    t0: u64,
    num_phases: u32,
    exchanges: u32,
    merge: MergeControl,
    mode: ScheduleMode,
    n: u64,
    h: u64,
    /// Start round of each phase (absolute), plus the end sentinel. In
    /// adaptive mode these are *nominal* (as if every phase ended on
    /// schedule) and only [`Schedule::phase_len`] of scheduled-end phases
    /// is meaningful to the executor.
    phase_starts: Vec<u64>,
}

impl Schedule {
    /// Builds the schedule from the broadcast parameters.
    pub fn new(params: &Params, merge: MergeControl, mode: ScheduleMode) -> Self {
        let num_phases = if params.k <= 1 { 0 } else { ceil_log2(params.k) as u32 };
        let exchanges = steps_to_six(params.n) + 6;
        let mut phase_starts = Vec::with_capacity(num_phases as usize + 1);
        let mut start = params.t0;
        for i in 0..num_phases {
            phase_starts.push(start);
            start += Self::phase_len_for(i, exchanges, merge, mode, params.n);
        }
        phase_starts.push(start);
        Self {
            t0: params.t0,
            num_phases,
            exchanges,
            merge,
            mode,
            n: params.n,
            h: params.h,
            phase_starts,
        }
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
        self.t0
    }

    /// First round *after* Stage B (Stage C entry point). Nominal in
    /// adaptive mode (sync-ended phases end earlier or later at run time).
    pub fn end(&self) -> u64 {
        *self.phase_starts.last().expect("sentinel always present")
    }

    /// The participation radius `2^i` of phase `i`.
    pub fn radius(&self, phase: u32) -> u64 {
        1u64 << phase
    }

    /// The BFS-tree height the schedule was built with.
    pub fn height(&self) -> u64 {
        self.h
    }

    /// Worst-case merge-flood window of phase `i` under the given merge
    /// control and schedule mode.
    fn flood_len_for(phase: u32, merge: MergeControl, mode: ScheduleMode, n: u64) -> u64 {
        let p = 1u64 << phase;
        match (merge, mode) {
            (MergeControl::Matched, ScheduleMode::Fixed) => 6 * p + 6,
            (MergeControl::Matched, ScheduleMode::Adaptive) => 5 * p + 5,
            (MergeControl::Uncontrolled, _) => n + 2 * p + 6,
        }
    }

    /// Whether phase `i` ends by the BFS-tree sync protocol instead of a
    /// scheduled flood window (adaptive mode only; see the module docs).
    /// The rule is a pure function of broadcast data, so every vertex
    /// agrees on it without communication.
    pub fn sync_phase(&self, phase: u32) -> bool {
        self.mode == ScheduleMode::Adaptive
            && Self::flood_len_for(phase, self.merge, self.mode, self.n) > 2 * self.h + 5
    }

    /// The window layout of one phase: `(window, length)` in order.
    fn layout(&self, phase: u32) -> Vec<(Window, u64)> {
        let p = self.radius(phase);
        // Per-window padding beyond the provable minimum: 0 in adaptive
        // mode, the seed's slack in fixed mode (see the module table).
        let pad = u64::from(self.mode == ScheduleMode::Fixed);
        let flood = Self::flood_len_for(phase, self.merge, self.mode, self.n);
        let mut v = Vec::with_capacity(7 + self.exchanges as usize + 9);
        v.push((Window::Announce, 1));
        v.push((Window::Probe, 2 * p + 1 + pad));
        v.push((Window::Connect, p + 2 + pad));
        match self.merge {
            MergeControl::Matched => {
                v.push((Window::Kids, p + 1 + pad));
                for x in 0..self.exchanges {
                    v.push((Window::Exchange(x), 2 * p + 2 + pad));
                }
                for c in 0..3u8 {
                    v.push((Window::MatchCollect(c), p + 1 + pad));
                    v.push((Window::MatchAccept(c), 2 * p + 2 + 2 * pad));
                    v.push((Window::MatchStatus(c), p + 2 + pad));
                }
                v.push((Window::MergeGo, p + 2));
                v.push((Window::MergeFlood, flood));
            }
            MergeControl::Uncontrolled => {
                v.push((Window::MergeGo, 2 * p + 2 + 2 * pad));
                v.push((Window::MergeFlood, flood));
            }
        }
        v
    }

    fn phase_len_for(
        phase: u32,
        exchanges: u32,
        merge: MergeControl,
        mode: ScheduleMode,
        n: u64,
    ) -> u64 {
        let p = 1u64 << phase;
        let pad = u64::from(mode == ScheduleMode::Fixed);
        let flood = Self::flood_len_for(phase, merge, mode, n);
        match merge {
            MergeControl::Matched => {
                1 + (2 * p + 1 + pad)
                    + (p + 2 + pad)
                    + (p + 1 + pad)
                    + u64::from(exchanges) * (2 * p + 2 + pad)
                    + 3 * ((p + 1 + pad) + (2 * p + 2 + 2 * pad) + (p + 2 + pad))
                    + (p + 2)
                    + flood
            }
            MergeControl::Uncontrolled => {
                1 + (2 * p + 1 + pad) + (p + 2 + pad) + (2 * p + 2 + 2 * pad) + flood
            }
        }
    }

    /// Total length of phase `i` in rounds (worst case; the *actual*
    /// length of a sync-ended adaptive phase is decided at run time).
    pub fn phase_len(&self, phase: u32) -> u64 {
        Self::phase_len_for(phase, self.exchanges, self.merge, self.mode, self.n)
    }

    /// Classifies exchange window `x` as ladder / shift-down / recolor.
    pub fn exchange_kind(&self, x: u32) -> ExchangeKind {
        let ladder = self.exchanges - 6;
        if x < ladder {
            ExchangeKind::Ladder
        } else {
            let r = x - ladder;
            let class = 3 + u64::from(r / 2);
            if r.is_multiple_of(2) {
                ExchangeKind::ShiftDown(class)
            } else {
                ExchangeKind::Recolor(class)
            }
        }
    }

    /// Locates an absolute round within the Stage B schedule. `None` before
    /// `t0` or at/after [`Schedule::end`]. Only meaningful in
    /// [`ScheduleMode::Fixed`] (adaptive phase starts move at run time; use
    /// [`Schedule::locate_rel`]).
    pub fn locate(&self, round: u64) -> Option<Slot> {
        if round < self.t0 || round >= self.end() {
            return None;
        }
        // phase_starts is sorted; find the phase containing `round`.
        let phase = match self.phase_starts.binary_search(&round) {
            Ok(i) => i,
            Err(i) => i - 1,
        } as u32;
        Some(self.locate_rel(phase, round - self.phase_starts[phase as usize]))
    }

    /// The smallest relative offset `> rel` within phase `phase` that is a
    /// window's first or final round, or the phase length (the phase-end
    /// transition round) when no such offset remains. These are exactly the
    /// offsets at which [`crate::node::ElkinNode`] acts spontaneously —
    /// every window arms its actions at offset 0 and/or its last round — so
    /// they are the Stage B wake points of the executor's idle-skip
    /// contract. Returns a value `<= rel` only when `rel` is already at or
    /// past the phase length (open-ended flood tail): no boundary remains.
    pub fn next_boundary_rel(&self, phase: u32, rel: u64) -> u64 {
        let mut start = 0u64;
        for (_, len) in self.layout(phase) {
            if start > rel {
                return start;
            }
            let last = start + len - 1;
            if last > rel {
                return last;
            }
            start += len;
        }
        start
    }

    /// Absolute-round companion of [`Schedule::next_boundary_rel`] for
    /// [`ScheduleMode::Fixed`], where phase starts are nominal: the next
    /// boundary round strictly after `round`. Before `t0` that is `t0`
    /// itself; at or past [`Schedule::end`] (not a Stage B round) it
    /// degenerates to `round + 1`.
    pub fn next_boundary(&self, round: u64) -> u64 {
        if round < self.t0 {
            return self.t0;
        }
        if round >= self.end() {
            return round + 1;
        }
        let phase = match self.phase_starts.binary_search(&round) {
            Ok(i) => i,
            Err(i) => i - 1,
        };
        let start = self.phase_starts[phase];
        start + self.next_boundary_rel(phase as u32, round - start)
    }

    /// Locates round `rel` (0-based) within phase `phase`, independent of
    /// absolute time. Offsets beyond the nominal layout stay in the
    /// (open-ended) merge-flood window — that is how sync-ended adaptive
    /// phases wait for the `SyncStart` broadcast.
    pub fn locate_rel(&self, phase: u32, rel: u64) -> Slot {
        let mut off = rel;
        let layout = self.layout(phase);
        let count = layout.len();
        for (i, (window, len)) in layout.into_iter().enumerate() {
            if off < len || i + 1 == count {
                let last = off + 1 == len;
                return Slot { phase, window, offset: off, last };
            }
            off -= len;
        }
        unreachable!("layout is never empty");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params(n: u64, k: u64) -> Params {
        Params { n, h: 3, k, t0: 100 }
    }

    fn fixed(n: u64, k: u64) -> Schedule {
        Schedule::new(&params(n, k), MergeControl::Matched, ScheduleMode::Fixed)
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
        let k = |n, h, b| choose_k_cost(n, h, b, MergeControl::Matched);
        // The benchmark's random graph (H = 7): a small k, not the cap 128.
        assert_eq!(k(16384, 7, 1), 8);
        // Its cliquepath (H = 4095) and the T1 cliquepath 288x8 (H = 575):
        // the H/8 floor reaches the cap, so k stays at isqrt(n), a power of
        // two or not.
        assert_eq!(k(16384, 4095, 1), 128);
        assert_eq!(k(2304, 575, 1), 48);
        // Tiny inputs give 1.
        assert_eq!(k(1, 0, 1), 1);
        assert_eq!(k(3, 0, 8), 1);
    }

    #[test]
    fn phases_count() {
        assert_eq!(fixed(100, 1).num_phases(), 0);
        assert_eq!(fixed(100, 2).num_phases(), 1);
        assert_eq!(fixed(100, 8).num_phases(), 3);
        assert_eq!(fixed(100, 9).num_phases(), 4);
    }

    #[test]
    fn locate_covers_every_round_exactly_once() {
        let s = fixed(64, 8);
        assert!(s.locate(99).is_none());
        assert!(s.locate(s.end()).is_none());
        let mut prev: Option<Slot> = None;
        for r in s.start()..s.end() {
            let slot = s.locate(r).expect("round inside stage B must be scheduled");
            if let Some(p) = prev {
                // Progress is monotone: same window with +1 offset, or a new window.
                if p.window == slot.window && p.phase == slot.phase {
                    assert_eq!(slot.offset, p.offset + 1);
                } else {
                    assert_eq!(slot.offset, 0);
                    assert!(p.last, "window changed before its final round");
                }
            } else {
                assert_eq!(
                    slot,
                    Slot { phase: 0, window: Window::Announce, offset: 0, last: true }
                );
            }
            prev = Some(slot);
        }
        let last = prev.unwrap();
        assert_eq!(last.phase, s.num_phases() - 1);
        assert_eq!(last.window, Window::MergeFlood);
        assert!(last.last);
    }

    #[test]
    fn adaptive_windows_are_tighter_phase_by_phase() {
        let p = params(1 << 16, 64);
        let f = Schedule::new(&p, MergeControl::Matched, ScheduleMode::Fixed);
        let a = Schedule::new(&p, MergeControl::Matched, ScheduleMode::Adaptive);
        assert_eq!(f.num_phases(), a.num_phases());
        for i in 0..f.num_phases() {
            assert!(
                a.phase_len(i) < f.phase_len(i),
                "adaptive phase {i} ({}) not tighter than fixed ({})",
                a.phase_len(i),
                f.phase_len(i)
            );
        }
    }

    #[test]
    fn locate_rel_is_total_and_open_ended() {
        let p = params(64, 8);
        let s = Schedule::new(&p, MergeControl::Matched, ScheduleMode::Adaptive);
        for phase in 0..s.num_phases() {
            let len = s.phase_len(phase);
            let mut prev: Option<Slot> = None;
            for rel in 0..len {
                let slot = s.locate_rel(phase, rel);
                assert_eq!(slot.phase, phase);
                if let Some(pv) = prev {
                    if pv.window == slot.window {
                        assert_eq!(slot.offset, pv.offset + 1);
                    } else {
                        assert!(pv.last);
                        assert_eq!(slot.offset, 0);
                    }
                }
                prev = Some(slot);
            }
            // Beyond the nominal layout: still MergeFlood, never `last`.
            let over = s.locate_rel(phase, len + 17);
            assert_eq!(over.window, Window::MergeFlood);
            assert!(!over.last);
        }
    }

    #[test]
    fn sync_rule_is_deterministic_in_broadcast_data() {
        // h = 3: matched floods are 5p+5; sync once 5p+5 > 2*3+5 = 11,
        // i.e. from p = 2 (phase 1) on.
        let s = Schedule::new(&params(64, 16), MergeControl::Matched, ScheduleMode::Adaptive);
        assert!(!s.sync_phase(0));
        assert!(s.sync_phase(1));
        assert!(s.sync_phase(3));
        // Fixed mode never syncs.
        assert!(!fixed(64, 16).sync_phase(3));
        // Uncontrolled floods are Θ(n): every adaptive phase syncs.
        let u = Schedule::new(&params(64, 16), MergeControl::Uncontrolled, ScheduleMode::Adaptive);
        assert!(u.sync_phase(0));
        // A tall BFS tree pushes the rule back toward scheduled ends.
        let tall = Params { n: 64, h: 1000, k: 16, t0: 0 };
        let t = Schedule::new(&tall, MergeControl::Matched, ScheduleMode::Adaptive);
        assert!(!t.sync_phase(3));
    }

    #[test]
    fn next_boundary_matches_naive_scan() {
        for (merge, mode) in [
            (MergeControl::Matched, ScheduleMode::Fixed),
            (MergeControl::Matched, ScheduleMode::Adaptive),
            (MergeControl::Uncontrolled, ScheduleMode::Fixed),
        ] {
            let s = Schedule::new(&params(64, 8), merge, mode);
            // A round is a wake boundary iff it opens or closes a window;
            // the stage-end transition round (end()) is one as well.
            let is_boundary = |r: u64| {
                s.locate(r).map(|slot| slot.offset == 0 || slot.last).unwrap_or(r == s.end())
            };
            for r in s.start().saturating_sub(2)..s.end() {
                let nb = s.next_boundary(r);
                assert!(
                    nb > r && is_boundary(nb),
                    "{merge:?}/{mode:?}: bad boundary {nb} after {r}"
                );
                for mid in (r + 1)..nb {
                    assert!(
                        !is_boundary(mid),
                        "{merge:?}/{mode:?}: missed boundary {mid} after {r}"
                    );
                }
            }
        }
    }

    #[test]
    fn next_boundary_rel_walks_window_edges() {
        let s = Schedule::new(&params(64, 8), MergeControl::Matched, ScheduleMode::Adaptive);
        for phase in 0..s.num_phases() {
            let len = s.phase_len(phase);
            for rel in 0..len {
                let nb = s.next_boundary_rel(phase, rel);
                assert!(nb > rel && nb <= len);
                if nb < len {
                    let slot = s.locate_rel(phase, nb);
                    assert!(slot.offset == 0 || slot.last);
                    for mid in (rel + 1)..nb {
                        let m = s.locate_rel(phase, mid);
                        assert!(m.offset != 0 && !m.last, "missed rel boundary {mid}");
                    }
                }
            }
            // Past the nominal layout no boundary remains.
            assert!(s.next_boundary_rel(phase, len) <= len);
            assert!(s.next_boundary_rel(phase, len + 9) <= len + 9);
        }
    }

    #[test]
    fn exchange_kinds_partition() {
        let s = fixed(1 << 20, 4);
        let ladder = s.exchanges() - 6;
        assert!(matches!(s.exchange_kind(0), ExchangeKind::Ladder));
        assert_eq!(s.exchange_kind(ladder), ExchangeKind::ShiftDown(3));
        assert_eq!(s.exchange_kind(ladder + 1), ExchangeKind::Recolor(3));
        assert_eq!(s.exchange_kind(ladder + 4), ExchangeKind::ShiftDown(5));
        assert_eq!(s.exchange_kind(ladder + 5), ExchangeKind::Recolor(5));
    }

    #[test]
    fn uncontrolled_layout_has_no_matching() {
        let s = Schedule::new(&params(64, 8), MergeControl::Uncontrolled, ScheduleMode::Fixed);
        for r in s.start()..s.end() {
            let slot = s.locate(r).unwrap();
            assert!(
                !matches!(
                    slot.window,
                    Window::Kids
                        | Window::Exchange(_)
                        | Window::MatchCollect(_)
                        | Window::MatchAccept(_)
                        | Window::MatchStatus(_)
                ),
                "uncontrolled schedule contains {:?}",
                slot.window
            );
        }
        // The flood window is Θ(n).
        assert!(s.phase_len(0) > 64);
    }

    #[test]
    fn phase_budgets_grow_geometrically() {
        for mode in [ScheduleMode::Fixed, ScheduleMode::Adaptive] {
            let s = Schedule::new(&params(1 << 16, 64), MergeControl::Matched, mode);
            for i in 1..s.num_phases() {
                let a = s.phase_len(i - 1);
                let b = s.phase_len(i);
                assert!(b > a && b < 3 * a, "phase budgets should roughly double ({mode:?})");
            }
            // Total Stage B length is O(k log* n): generous constant check.
            let total = s.end() - s.start();
            let bound = 200 * 64 + 500;
            assert!(total < bound, "stage B budget {total} exceeds {bound} ({mode:?})");
        }
    }
}
