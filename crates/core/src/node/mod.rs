//! The per-vertex state machine implementing Elkin's algorithm.
//!
//! One [`ElkinNode`] runs at every vertex of the simulated network and
//! progresses through three stages:
//!
//! * **Stage A** (`stage_a.rs`): BFS tree from the designated root, subtree
//!   size/height convergecast, broadcast of the agreed parameters
//!   `(n, H, k, t0)` together with each vertex's interval label (paper §3,
//!   "auxiliary BFS tree").
//! * **Stage B** (`stage_b.rs`): Controlled-GHS on the fixed round schedule
//!   of [`Schedule`](crate::schedule::Schedule), producing the
//!   `(O(n/k), O(k))` base MST forest (paper §4).
//! * **Stage D** (`stage_cd.rs`): Borůvka phases over the base forest with
//!   pipelined, filtered candidate upcasts and interval-routed downcasts
//!   (paper §3). Phase 0 opens at every vertex when Stage B ends. Phases
//!   are *fused*: there is no per-phase barrier — every sub-step triggers
//!   on local completion events, and the next phase rides the previous
//!   phase's answer path (see `stage_cd.rs` and DESIGN.md §2).
//!
//! Stage D is event-driven (completion messages, not round windows);
//! DESIGN.md explains why this is faithful to the paper's cost accounting.

mod stage_a;
mod stage_b;
mod stage_cd;

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::sync::{Arc, OnceLock};

use congest_sim::{NodeInfo, NodeProgram, PortId, RoundCtx};

use crate::candidate::{CandKey, Candidate};
use crate::config::ElkinConfig;
use crate::msg::{Msg, Walk};
use crate::schedule::{Params, Schedule};

/// Marker for "unknown neighbor data" in port-indexed tables.
pub(crate) const UNKNOWN: u64 = u64::MAX;

/// Lane indices into a [`PortArena`]. The arena is lane-major: lane `L`
/// occupies `buf[L * deg .. (L + 1) * deg]`, so the stage loops that scan
/// one attribute across every port (the MWOE scans) walk contiguous memory.
mod lane {
    /// Incident edge weight (immutable after construction).
    pub const WEIGHT: usize = 0;
    /// Neighbor vertex id, learned from the one `Bfs` or `BfsChild` every
    /// neighbor sends over the edge in Stage A (`UNKNOWN` until heard).
    pub const NBR_ID: usize = 1;
    /// Neighbor base-fragment id: its vertex id from Stage A's wave (a
    /// singleton's fragment id), then whatever it announces in Stage B.
    /// Goes stale once the port is retired.
    pub const NBR_FRAG: usize = 2;
    /// Neighbor coarse id for the current Borůvka phase (stale once the
    /// port is retired).
    pub const NBR_COARSE: usize = 3;
    /// Neighbor coarse id announced one phase early (fused-phase skew).
    pub const NBR_COARSE_NEXT: usize = 4;
    /// Total `CoarseAnnounce`s received on this port (its value *is* the
    /// phase of the next announce, by the once-per-phase send discipline).
    pub const ANN_COUNT: usize = 5;
    /// Total `UpDone`s received on this port.
    pub const UPDONE_COUNT: usize = 6;
    /// Per-port flag bits, see [`flag`](super::flag).
    pub const FLAGS: usize = 7;
    /// Number of lanes.
    pub const COUNT: usize = 8;
}

/// Bits of the [`lane::FLAGS`] lane.
mod flag {
    /// The incident edge has been marked an MST edge.
    pub const MST: u64 = 1;
    /// The port is retired: both endpoints once held the same fragment or
    /// coarse id, so the edge is internal for good and carries no more
    /// announces (GHS's permanent reject).
    pub const RETIRED: u64 = 2;
}

/// Struct-of-arrays per-port state: every port-indexed attribute of an
/// [`ElkinNode`] packed into one `Box<[u64]>` (lane-major, see [`lane`]) —
/// one allocation per node, and each hot per-port scan stays contiguous.
///
/// Booleans are stored as 0/1; the typed accessors do the narrowing.
#[derive(Clone, Debug)]
pub(crate) struct PortArena {
    deg: usize,
    buf: Box<[u64]>,
}

impl PortArena {
    /// Builds the arena for a vertex of degree `deg`; `weights` yields the
    /// incident edge weights in port order.
    pub(crate) fn new(deg: usize, weights: impl Iterator<Item = u64>) -> Self {
        let mut buf = vec![0u64; lane::COUNT * deg].into_boxed_slice();
        for (q, w) in weights.enumerate() {
            buf[lane::WEIGHT * deg + q] = w;
        }
        for l in [lane::NBR_ID, lane::NBR_FRAG, lane::NBR_COARSE, lane::NBR_COARSE_NEXT] {
            buf[l * deg..(l + 1) * deg].fill(UNKNOWN);
        }
        Self { deg, buf }
    }

    #[inline]
    fn get(&self, l: usize, q: usize) -> u64 {
        self.buf[l * self.deg + q]
    }

    #[inline]
    fn set(&mut self, l: usize, q: usize, v: u64) {
        self.buf[l * self.deg + q] = v;
    }

    /// Weight of the edge behind port `q`.
    #[inline]
    pub(crate) fn weight(&self, q: usize) -> u64 {
        self.get(lane::WEIGHT, q)
    }

    /// Neighbor vertex id behind port `q` (`UNKNOWN` until Stage A's wave
    /// crosses the edge).
    #[inline]
    pub(crate) fn nbr_id(&self, q: usize) -> u64 {
        self.get(lane::NBR_ID, q)
    }

    #[inline]
    pub(crate) fn set_nbr_id(&mut self, q: usize, v: u64) {
        self.set(lane::NBR_ID, q, v);
    }

    /// Neighbor base-fragment id behind port `q`.
    #[inline]
    pub(crate) fn nbr_frag(&self, q: usize) -> u64 {
        self.get(lane::NBR_FRAG, q)
    }

    #[inline]
    pub(crate) fn set_nbr_frag(&mut self, q: usize, v: u64) {
        self.set(lane::NBR_FRAG, q, v);
    }

    /// Neighbor coarse id for the current phase.
    #[inline]
    pub(crate) fn nbr_coarse(&self, q: usize) -> u64 {
        self.get(lane::NBR_COARSE, q)
    }

    #[inline]
    pub(crate) fn set_nbr_coarse(&mut self, q: usize, v: u64) {
        self.set(lane::NBR_COARSE, q, v);
    }

    /// Neighbor coarse id announced one phase early (`UNKNOWN` if none).
    #[inline]
    pub(crate) fn nbr_coarse_next(&self, q: usize) -> u64 {
        self.get(lane::NBR_COARSE_NEXT, q)
    }

    #[inline]
    pub(crate) fn set_nbr_coarse_next(&mut self, q: usize, v: u64) {
        self.set(lane::NBR_COARSE_NEXT, q, v);
    }

    /// Consumes one `CoarseAnnounce` on port `q`: returns the phase it
    /// belongs to (the pre-increment count) and advances the count.
    #[inline]
    pub(crate) fn bump_ann_count(&mut self, q: usize) -> u64 {
        let ph = self.get(lane::ANN_COUNT, q);
        self.set(lane::ANN_COUNT, q, ph + 1);
        ph
    }

    /// Phase that `Candidate`s arriving on port `q` belong to (the number
    /// of `UpDone`s seen on it).
    #[inline]
    pub(crate) fn updone_count(&self, q: usize) -> u64 {
        self.get(lane::UPDONE_COUNT, q)
    }

    /// Consumes one `UpDone` on port `q`: returns its phase (the
    /// pre-increment count) and advances the count.
    #[inline]
    pub(crate) fn bump_updone_count(&mut self, q: usize) -> u64 {
        let ph = self.get(lane::UPDONE_COUNT, q);
        self.set(lane::UPDONE_COUNT, q, ph + 1);
        ph
    }

    #[inline]
    fn has_flag(&self, q: usize, bit: u64) -> bool {
        self.get(lane::FLAGS, q) & bit != 0
    }

    #[inline]
    fn raise_flag(&mut self, q: usize, bit: u64) {
        self.set(lane::FLAGS, q, self.get(lane::FLAGS, q) | bit);
    }

    /// Whether the edge behind port `q` is marked as an MST edge.
    #[inline]
    pub(crate) fn mst(&self, q: usize) -> bool {
        self.has_flag(q, flag::MST)
    }

    /// Marks the edge behind port `q` as an MST edge.
    #[inline]
    pub(crate) fn mark_mst(&mut self, q: usize) {
        self.raise_flag(q, flag::MST);
    }

    /// Whether port `q` is retired (its edge is internal for good).
    #[inline]
    pub(crate) fn retired(&self, q: usize) -> bool {
        self.has_flag(q, flag::RETIRED)
    }

    /// Retires every live port whose neighbor id in lane `l` equals `mine`
    /// and returns how many it retired.
    fn retire_matching(&mut self, l: usize, mine: u64) -> usize {
        let mut retired = 0;
        for q in 0..self.deg {
            if !self.retired(q) && self.get(l, q) == mine {
                self.raise_flag(q, flag::RETIRED);
                retired += 1;
            }
        }
        retired
    }
}

/// Which direction a subtree minimum came from during an argmin
/// convergecast (the downcast retraces these selections).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub(crate) enum Sel {
    /// No candidate in my subtree.
    #[default]
    None,
    /// My own incident edge at this port.
    Mine(PortId),
    /// Reported by the fragment child behind this port.
    Child(PortId),
}

/// A running argmin and the direction it came from: what an argmin
/// convergecast leaves at each vertex, and what [`ElkinNode::walk`]
/// descends.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Argmin<K> {
    pub best: Option<K>,
    pub sel: Sel,
}

impl<K> Default for Argmin<K> {
    fn default() -> Self {
        Self { best: None, sel: Sel::None }
    }
}

impl<K: Copy + Ord> Argmin<K> {
    /// Keeps `key`, reached through `sel`, if it beats the best so far; a
    /// tie keeps the earlier offer.
    pub fn offer(&mut self, key: K, sel: Sel) {
        if self.best.is_none_or(|b| key < b) {
            self.best = Some(key);
            self.sel = sel;
        }
    }
}

/// Stage A working state.
#[derive(Clone, Debug, Default)]
pub(crate) struct AState {
    pub seen: bool,
    pub close_round: u64,
    pub closed: bool,
    pub size_pending: usize,
    pub acc_size: u64,
    pub acc_height: u64,
    pub reported: bool,
}

/// Per-phase Controlled-GHS scratch (reset at each Announce window).
#[derive(Clone, Debug, Default)]
pub(crate) struct BScratch {
    pub probed: bool,
    pub probe_pending: usize,
    /// The probe's convergecast: my subtree's lightest edge leaving the
    /// fragment, which the Connect, Status and Merge walks descend.
    pub mwoe: Argmin<CandKey>,
    pub overflow: bool,
    pub responded: bool,
    /// Set at the root in the Connect window, and at every other vertex of
    /// the fragment by the first exchange's `ColorDown`.
    pub participating: bool,
    pub out_port: Option<PortId>,
    /// Port-indexed: `(child fragment id, matched?)` for registered foreign
    /// children.
    pub foreign_child: Vec<Option<(u64, bool)>>,
    pub color: u64,
    pub prev_color: u64,
    pub parent_color: Option<u64>,
    /// Set at a matched fragment's root: the partner fragment's id.
    pub partner: Option<u64>,
    pub col_pending: usize,
    /// A Collect window's convergecast: my subtree's smallest unmatched
    /// foreign-child fragment id, which the Accept walk descends.
    pub unmatched: Argmin<u64>,
    pub merge_ports: Vec<PortId>,
    pub matched_port: Option<PortId>,
    pub flooded: bool,
}

/// Per-phase Stage D scratch, replaced wholesale when the phase rolls
/// (`ElkinNode::cd_roll_phase`, triggered by the `Assign`/`NewCoarse`
/// answer path). Messages of the *next* phase that arrive early are held
/// in the node-level skew buffers (`ann_recv_next` & co.) and folded in at
/// the roll — under the fused-phase protocol neighboring vertices are
/// never more than one phase apart.
#[derive(Clone, Debug, Default)]
pub(crate) struct DScratch {
    /// The phase this scratch belongs to.
    pub phase: u64,
    /// This vertex broadcast its `CoarseAnnounce` for `phase`.
    pub announced: bool,
    /// `CoarseAnnounce`s of `phase` received. Only live ports carry them,
    /// so aggregation may start at `ElkinNode::live` — *local* readiness;
    /// no global announce barrier exists.
    pub ann_recv: usize,
    /// `FragMwoeUp`s of `phase` received from fragment children.
    pub frag_up_recv: usize,
    /// Running best candidate `(key, dst coarse)` over my fragment subtree
    /// (children merged on arrival, own edges at completion), which the
    /// Mark walk descends. The source coarse id is this vertex's own
    /// `coarse`.
    pub mwoe: Argmin<(CandKey, u64)>,
    /// `FragMwoeUp` sent up (or, at fragment roots, the aggregate turned
    /// into a pipelined record — see `injected`).
    pub responded: bool,
    pub injected: bool,
    /// Best known candidate per source coarse id (also the BFS root's
    /// collection).
    pub up_best: BTreeMap<u64, Candidate>,
    /// Entries of `up_best` not yet forwarded, ordered by key (send queue).
    pub up_pending: std::collections::BTreeSet<(CandKey, u64)>,
    pub updone_children: usize,
    pub updone_sent: bool,
}

/// Coordination state held only by the BFS root (the paper's `rt`, which
/// stores the fragment graph locally).
#[derive(Clone, Debug, Default)]
pub(crate) struct RootState {
    /// Current coarse id of each base fragment, by its root's slot; filled
    /// from phase 0's candidates (see `cd_root_merge`).
    pub slot_coarse: BTreeMap<u64, u64>,
}

/// The algorithm's per-vertex program. Construct via [`ElkinNode::new`] and
/// run under `congest_sim::Network`; after quiescence,
/// [`ElkinNode::mst_ports`] holds the output.
#[derive(Clone, Debug)]
pub struct ElkinNode {
    // Immutable identity.
    pub(crate) id: u64,
    pub(crate) deg: usize,
    pub(crate) cfg: ElkinConfig,
    /// Stop after Stage B, leaving the `(O(n/k), O(k))` base forest as the
    /// output (Theorem 4.3 standalone; set by
    /// [`run_forest`](crate::run_forest)).
    pub(crate) forest_only: bool,

    /// All port-indexed state — weights, neighbor knowledge, announce and
    /// `UpDone` counts, MST and retirement marks — in one lane-major
    /// allocation.
    pub(crate) ports: PortArena,
    /// Number of ports not yet retired.
    pub(crate) live: usize,
    /// The fragment id my live neighbors hold for me: my vertex id until
    /// I first announce another.
    pub(crate) known_frag: u64,

    // Stage progression.
    pub(crate) stage: Stage,
    pub(crate) finished: bool,
    /// The global done flag arrived; we finish once our queues drain.
    pub(crate) done_seen: bool,

    pub(crate) a: AState,
    pub(crate) params: Option<Params>,
    /// The Stage B timeline. `run_mst` hands every vertex of a run the same
    /// cell; the first vertex to adopt the broadcast [`Params`] fills it and
    /// every other vertex checks it against its own. A bare
    /// [`ElkinNode::new`] node has no cell until it adopts, then makes a
    /// private one.
    pub(crate) sched: Option<Arc<OnceLock<Schedule>>>,

    // BFS tree (stage A output).
    pub(crate) depth: u64,
    pub(crate) bfs_parent: Option<PortId>,
    pub(crate) bfs_children: Vec<PortId>,
    pub(crate) child_sizes: Vec<u64>,

    // Fragment membership (evolves through stage B; fixed in D).
    pub(crate) frag_id: u64,
    pub(crate) frag_parent: Option<PortId>,
    pub(crate) frag_children: Vec<PortId>,

    pub(crate) b: BScratch,

    // Interval label (stage A output): my slot and my BFS children's
    // intervals, by which stage D routes its answers.
    pub(crate) slot: u64,
    pub(crate) child_ivs: Vec<(u64, u64)>,

    // Stage D state. The coarse id is current for `d.phase`: the roll and
    // the id update are one event.
    pub(crate) coarse: u64,
    pub(crate) d: DScratch,

    // Fused-phase skew buffers (survive the per-phase scratch roll).
    // Per-edge FIFO delivery plus once-per-phase send discipline let the
    // receiver infer the phase of `CoarseAnnounce`/`Candidate`/`UpDone`
    // from the cumulative per-port counts in `ports` (the `ANN_COUNT` /
    // `UPDONE_COUNT` / `NBR_COARSE_NEXT` lanes); anything one phase ahead
    // of the local scratch parks here until `cd_roll_phase`.
    /// Number of phase-`d.phase + 1` announcements already received.
    pub(crate) ann_recv_next: usize,
    /// `UpDone`s of phase `d.phase + 1` already received from BFS children.
    pub(crate) updone_next: usize,
    /// Candidate records of phase `d.phase + 1` received early.
    pub(crate) cand_next: Vec<Candidate>,
    /// Pipelined downcast queues, one per BFS child (parallel to
    /// `bfs_children`).
    pub(crate) down: Vec<VecDeque<Msg>>,
    pub(crate) root: Option<Box<RootState>>,
}

/// Coarse stage marker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) enum Stage {
    A,
    B,
    CD,
}

impl Stage {
    /// The census letter `stage_tag` reports, which opens every wire tag
    /// of this stage's messages (`msg::tests::tag_guards_mirror_tags`).
    /// Stage D opens at every vertex in the round Stage B ends
    /// (`run_forest`'s vertices finish in that round, and report "d" as
    /// well).
    pub(crate) fn letter(self) -> &'static str {
        match self {
            Stage::A => "a",
            Stage::B => "b",
            Stage::CD => "d",
        }
    }
}

impl ElkinNode {
    /// Builds the program for one vertex from its simulator-provided
    /// [`NodeInfo`] and the run configuration.
    pub fn new(info: NodeInfo<'_>, cfg: ElkinConfig) -> Self {
        let deg = info.ports.len();
        Self {
            id: info.id as u64,
            deg,
            ports: PortArena::new(deg, info.ports.iter().map(|p| p.weight)),
            live: deg,
            known_frag: info.id as u64,
            cfg,
            forest_only: false,
            stage: Stage::A,
            finished: false,
            done_seen: false,
            a: AState::default(),
            params: None,
            sched: None,
            depth: 0,
            bfs_parent: None,
            bfs_children: Vec::new(),
            child_sizes: Vec::new(),
            frag_id: info.id as u64,
            frag_parent: None,
            frag_children: Vec::new(),
            b: BScratch::default(),
            slot: 0,
            child_ivs: Vec::new(),
            coarse: 0,
            d: DScratch::default(),
            ann_recv_next: 0,
            updone_next: 0,
            cand_next: Vec::new(),
            down: Vec::new(),
            root: None,
        }
    }

    /// Whether this vertex is the designated BFS root.
    #[inline]
    pub(crate) fn is_bfs_root(&self) -> bool {
        self.id == self.cfg.root as u64
    }

    /// Whether this vertex is currently its fragment's root.
    #[inline]
    pub(crate) fn is_frag_root(&self) -> bool {
        self.frag_id == self.id
    }

    /// Retires every live port whose neighbor's id in lane `nbr` equals
    /// `mine`, the id this vertex last announced. Both ends compare the
    /// same pair of ids, so they retire the edge together, and fragments
    /// only ever merge, so an edge whose ends once shared an id stays
    /// internal for good.
    pub(crate) fn retire_internal(&mut self, nbr: usize, mine: u64) {
        self.live -= self.ports.retire_matching(nbr, mine);
    }

    /// The ports not yet retired, in ascending order.
    pub(crate) fn live_ports(&self) -> impl Iterator<Item = PortId> + '_ {
        (0..self.deg).filter(|&q| !self.ports.retired(q))
    }

    /// One hop of an argmin walk: the vertex whose own port holds the
    /// minimum acts on that edge and crosses it, any other vertex passes
    /// the walk on to the fragment child its convergecast selected.
    pub(crate) fn walk(&mut self, ctx: &mut RoundCtx<'_, Msg>, kind: Walk) {
        let sel = match kind {
            Walk::Connect | Walk::Status | Walk::Merge => self.b.mwoe.sel,
            Walk::Accept => self.b.unmatched.sel,
            Walk::Mark => self.d.mwoe.sel,
        };
        match sel {
            Sel::Mine(q) => {
                match kind {
                    Walk::Connect => self.b.out_port = Some(q),
                    Walk::Accept => {
                        self.b.matched_port = Some(q);
                        self.ports.mark_mst(q);
                    }
                    // The fragment behind the MWOE is my foreign child: I
                    // am the higher side of a mutual MWOE and have no
                    // forest parent to tell.
                    Walk::Status if self.b.foreign_child[q].is_some() => return,
                    Walk::Status => {}
                    Walk::Merge | Walk::Mark => self.ports.mark_mst(q),
                }
                ctx.send(q, Msg::Cross(kind));
            }
            Sel::Child(c) => ctx.send(c, Msg::Path(kind)),
            Sel::None => unreachable!("a {kind:?} walk reached a subtree without a candidate"),
        }
    }

    /// Ports that are incident MST edges, in ascending order — the
    /// algorithm's required per-vertex output.
    pub fn mst_ports(&self) -> Vec<PortId> {
        (0..self.deg).filter(|&p| self.ports.mst(p)).collect()
    }

    /// The parameter `k` this run settled on (after Stage A).
    pub fn chosen_k(&self) -> Option<u64> {
        self.params.map(|p| p.k)
    }

    /// The base-fragment id this vertex ended Stage B with.
    pub fn base_fragment(&self) -> u64 {
        self.frag_id
    }

    /// This vertex's fragment-tree parent port, if any.
    pub fn fragment_parent(&self) -> Option<PortId> {
        self.frag_parent
    }

    /// This vertex's BFS depth (valid after Stage A).
    pub fn bfs_depth(&self) -> u64 {
        self.depth
    }

    /// This vertex's BFS-tree parent port (valid after Stage A; `None` at
    /// the BFS root).
    pub fn bfs_parent_port(&self) -> Option<PortId> {
        self.bfs_parent
    }
}

impl NodeProgram for ElkinNode {
    type Msg = Msg;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        // Messages first (they were sent last round and logically precede
        // this round's actions), then stage-specific scheduled actions.
        match self.stage {
            Stage::A => {
                self.a_handle(ctx);
                self.a_act(ctx);
            }
            Stage::B => {
                self.b_handle(ctx);
                self.b_act(ctx);
            }
            Stage::CD => {
                self.cd_handle(ctx);
                self.cd_act(ctx);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }

    // Idle-skip hints (see the trait contract): each stage reports the next
    // round at which it would act spontaneously; everything else is
    // message-driven and the simulator wakes us on delivery. A wrong hint
    // here changes message timing; `congest_sim::EveryRound` catches it.
    fn next_wake(&self, after: u64) -> Option<u64> {
        if self.finished {
            return None;
        }
        match self.stage {
            Stage::A => {
                if self.a.seen && !self.a.closed {
                    // `BfsChild` replies close two rounds after our send.
                    Some(self.a.close_round)
                } else {
                    // With parameters agreed, Stage B starts at t0; until
                    // then everything (BFS wave, size convergecast, the
                    // params broadcast) arrives as messages.
                    self.params.map(|p| p.t0)
                }
            }
            Stage::B => self.b_next_wake(after),
            Stage::CD => self.cd_next_wake(after),
        }
    }

    fn stage_tag(&self) -> &'static str {
        self.stage.letter()
    }
}
