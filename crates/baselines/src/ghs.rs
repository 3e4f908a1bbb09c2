//! A synchronous GHS-style Borůvka baseline (\[GHS83\]/\[CT85\] row of the
//! paper's §1.1 comparison).
//!
//! Fragments merge along their minimum-weight outgoing edges every phase,
//! with **no diameter control**: fragment trees grow as tall as the MST
//! itself, so convergecasts cost `Θ(Diam(MST))` per phase. The classic
//! test/accept/reject edge search keeps message complexity at
//! `O(m + n log n)`:
//!
//! * every vertex scans its incident edges in tie-broken weight order;
//! * a `Test` answered "same fragment" rejects the edge *permanently*
//!   (amortized `O(m)` over the whole run);
//! * the currently accepted edge is re-tested once per phase
//!   (`O(n log n)` total).
//!
//! Phase structure (event-driven, barriers over an auxiliary BFS tree):
//! `PhaseStart` flood → per-fragment `SearchGo` + sequential testing →
//! MWOE convergecast → `Connect` over the chosen edge → merge flood
//! (`NewFrag`, new root = higher-id endpoint of the mutual-connect core
//! edge, as in classic GHS) → `PhaseEnd` barrier. A fragment root that
//! finds no outgoing edge owns the whole graph and broadcasts `AlgoDone`.
//!
//! Expected complexity: `O((D + Diam(MST) + Δ) log n)` rounds and
//! `O(m + n log n)` messages.

use congest_sim::{Message, NodeInfo, NodeProgram, PortId, RoundCtx, WireReader, WireWriter};

use dmst_core::CandKey;

/// Wire protocol of the GHS baseline.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GhsMsg {
    /// One-time identity exchange (clean network model).
    Hello {
        /// Sender's vertex id.
        me: u64,
    },
    /// BFS wave for the auxiliary barrier tree.
    Bfs,
    /// BFS child registration.
    BfsChild,
    /// Barrier: my BFS subtree finished building.
    Ready,
    /// Root broadcast: a new Borůvka phase begins.
    PhaseStart,
    /// Fragment-internal broadcast: start the MWOE search.
    SearchGo,
    /// Edge probe carrying the sender's fragment id.
    Test {
        /// Sender's fragment id.
        frag: u64,
    },
    /// Probe answer.
    TestReply {
        /// Whether both endpoints are in the same fragment (reject).
        same: bool,
    },
    /// Fragment convergecast of the minimum outgoing edge.
    MwoeUp {
        /// Best candidate key in the subtree, if any.
        cand: Option<CandKey>,
    },
    /// Downcast along the argmin path.
    MwoePath,
    /// Merge request over the chosen MWOE.
    Connect,
    /// Merge flood: new fragment id + re-orientation.
    NewFrag {
        /// New fragment id (the winning endpoint's vertex id).
        id: u64,
    },
    /// Barrier: my BFS subtree finished this phase.
    PhaseEnd,
    /// The single remaining fragment announces global termination.
    AlgoDone,
}

impl Message for GhsMsg {
    fn tag(&self) -> &'static str {
        match self {
            GhsMsg::Hello { .. } => "ghs:hello",
            GhsMsg::Bfs | GhsMsg::BfsChild | GhsMsg::Ready => "ghs:bfs",
            GhsMsg::PhaseStart | GhsMsg::PhaseEnd | GhsMsg::AlgoDone => "ghs:control",
            GhsMsg::SearchGo | GhsMsg::MwoeUp { .. } | GhsMsg::MwoePath => "ghs:search",
            GhsMsg::Test { .. } | GhsMsg::TestReply { .. } => "ghs:test",
            GhsMsg::Connect | GhsMsg::NewFrag { .. } => "ghs:merge",
        }
    }

    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            GhsMsg::Hello { me } => {
                w.tag(0);
                w.pack(*me);
            }
            GhsMsg::Bfs => w.tag(1),
            GhsMsg::BfsChild => w.tag(2),
            GhsMsg::Ready => w.tag(3),
            GhsMsg::PhaseStart => w.tag(4),
            GhsMsg::SearchGo => w.tag(5),
            GhsMsg::Test { frag } => {
                w.tag(6);
                w.pack(*frag);
            }
            GhsMsg::TestReply { same } => {
                w.tag(7);
                w.flag(0, *same);
            }
            GhsMsg::MwoeUp { cand } => {
                // 3 words: the endpoint `lo` (a vertex id) packs into the
                // tag word, the full-range weight and `hi` get whole words.
                w.tag(8);
                w.flag(0, cand.is_some());
                let key = cand.unwrap_or(CandKey { weight: 0, lo: 0, hi: 0 });
                w.pack(key.lo);
                w.word(key.weight);
                w.word(key.hi);
            }
            GhsMsg::MwoePath => w.tag(9),
            GhsMsg::Connect => w.tag(10),
            GhsMsg::NewFrag { id } => {
                w.tag(11);
                w.pack(*id);
            }
            GhsMsg::PhaseEnd => w.tag(12),
            GhsMsg::AlgoDone => w.tag(13),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            0 => GhsMsg::Hello { me: r.packed() },
            1 => GhsMsg::Bfs,
            2 => GhsMsg::BfsChild,
            3 => GhsMsg::Ready,
            4 => GhsMsg::PhaseStart,
            5 => GhsMsg::SearchGo,
            6 => GhsMsg::Test { frag: r.packed() },
            7 => GhsMsg::TestReply { same: r.flag(0) },
            8 => {
                let some = r.flag(0);
                let lo = r.packed();
                let weight = r.word();
                let hi = r.word();
                GhsMsg::MwoeUp { cand: some.then_some(CandKey { weight, lo, hi }) }
            }
            9 => GhsMsg::MwoePath,
            10 => GhsMsg::Connect,
            11 => GhsMsg::NewFrag { id: r.packed() },
            12 => GhsMsg::PhaseEnd,
            13 => GhsMsg::AlgoDone,
            other => unreachable!("unknown GhsMsg wire tag {other}"),
        }
    }
}

#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
enum Sel {
    #[default]
    None,
    Mine(PortId),
    Child(PortId),
}

/// Per-phase scratch.
#[derive(Clone, Debug, Default)]
struct Phase {
    started: bool,
    searching: bool,
    search_done: bool,
    test_inflight: bool,
    local: Option<CandKey>,
    pending: usize,
    responded: bool,
    agg: Option<CandKey>,
    sel: Sel,
    sent_connect: Vec<bool>,
    connect_in: Vec<PortId>,
    flooded: bool,
    end_children: usize,
    end_sent: bool,
}

/// The GHS-style baseline node program. The designated root is vertex 0.
#[derive(Clone, Debug)]
pub struct GhsNode {
    id: u64,
    deg: usize,
    weights: Vec<u64>,
    root: usize,

    // Auxiliary BFS tree for barriers.
    bfs_seen: bool,
    bfs_parent: Option<PortId>,
    bfs_children: Vec<PortId>,
    close_round: u64,
    closed: bool,
    ready_children: usize,
    ready_sent: bool,

    nbr_id: Vec<u64>,

    frag_id: u64,
    frag_parent: Option<PortId>,
    frag_children: Vec<PortId>,

    /// Incident ports in tie-broken weight order; `ptr` is the test cursor.
    order: Vec<PortId>,
    ptr: usize,

    mst: Vec<bool>,
    p: Phase,
    /// Whether this vertex's fragment already merged in the current phase.
    /// Persists across the scratch reset at `PhaseEnd` so that a `Connect`
    /// from a slower fragment still gets its `NewFrag` answer.
    merged: bool,
    finished: bool,
}

impl GhsNode {
    /// Builds the program for one vertex; `root` designates the barrier-tree
    /// root (conventionally vertex 0).
    pub fn new(info: NodeInfo<'_>, root: usize) -> Self {
        let deg = info.ports.len();
        Self {
            id: info.id as u64,
            deg,
            weights: info.ports.iter().map(|p| p.weight).collect(),
            root,
            bfs_seen: false,
            bfs_parent: None,
            bfs_children: Vec::new(),
            close_round: 0,
            closed: false,
            ready_children: 0,
            ready_sent: false,
            nbr_id: vec![u64::MAX; deg],
            frag_id: info.id as u64,
            frag_parent: None,
            frag_children: Vec::new(),
            order: Vec::new(),
            ptr: 0,
            mst: vec![false; deg],
            p: Phase { sent_connect: vec![false; deg], ..Phase::default() },
            merged: false,
            finished: false,
        }
    }

    /// Which incident ports ended up in the MST.
    pub fn mst_ports(&self) -> Vec<PortId> {
        self.mst.iter().enumerate().filter(|(_, &m)| m).map(|(q, _)| q).collect()
    }

    fn is_frag_root(&self) -> bool {
        self.frag_id == self.id
    }

    fn fresh_phase(&mut self) -> Phase {
        Phase { sent_connect: vec![false; self.deg], ..Phase::default() }
    }

    /// Advance the test cursor: skip fragment-tree ports locally, fire a
    /// `Test` on the next candidate, or conclude the local search.
    fn step_search(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        if self.p.test_inflight || self.p.search_done {
            return;
        }
        while self.ptr < self.order.len() {
            let q = self.order[self.ptr];
            let is_tree = Some(q) == self.frag_parent || self.frag_children.contains(&q);
            if is_tree {
                self.ptr += 1;
                continue;
            }
            ctx.send(q, GhsMsg::Test { frag: self.frag_id });
            self.p.test_inflight = true;
            return;
        }
        self.p.local = None;
        self.finish_search(ctx);
    }

    fn finish_search(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        self.p.search_done = true;
        if let Some(k) = self.p.local {
            if self.p.agg.is_none_or(|a| k < a) {
                self.p.agg = Some(k);
                self.p.sel = Sel::Mine(self.order[self.ptr]);
            }
        }
        self.maybe_respond(ctx);
    }

    fn maybe_respond(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        if !self.p.search_done || self.p.pending > 0 || self.p.responded {
            return;
        }
        self.p.responded = true;
        if self.is_frag_root() {
            match self.p.sel {
                Sel::None => {
                    // No outgoing edge: the fragment spans the whole graph.
                    self.finished = true;
                    for &q in &self.frag_children {
                        ctx.send(q, GhsMsg::AlgoDone);
                    }
                }
                Sel::Mine(q) => self.fire_connect(ctx, q),
                Sel::Child(c) => ctx.send(c, GhsMsg::MwoePath),
            }
        } else {
            let up = self.frag_parent.expect("non-root has a fragment parent");
            ctx.send(up, GhsMsg::MwoeUp { cand: self.p.agg });
        }
    }

    fn fire_connect(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>, q: PortId) {
        self.mst[q] = true;
        self.p.sent_connect[q] = true;
        ctx.send(q, GhsMsg::Connect);
        self.check_mutual(ctx, q);
    }

    /// Both endpoints fired `Connect` over the same edge: the higher-id
    /// endpoint becomes the merged fragment's root (the classic GHS core).
    fn check_mutual(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>, q: PortId) {
        if self.p.sent_connect[q] && self.p.connect_in.contains(&q) && self.id > self.nbr_id[q] {
            self.flood_init(ctx);
        }
    }

    fn flood_ports(&self, except: Option<PortId>) -> Vec<PortId> {
        let mut fwd: Vec<PortId> = Vec::new();
        let mut push = |p: PortId| {
            if Some(p) != except && !fwd.contains(&p) {
                fwd.push(p);
            }
        };
        if let Some(p) = self.frag_parent {
            push(p);
        }
        for &p in &self.frag_children {
            push(p);
        }
        for &p in &self.p.connect_in {
            push(p);
        }
        for (p, &sent) in self.p.sent_connect.iter().enumerate() {
            if sent {
                push(p);
            }
        }
        fwd
    }

    fn flood_init(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        self.p.flooded = true;
        self.merged = true;
        let fwd = self.flood_ports(None);
        self.frag_id = self.id;
        self.frag_parent = None;
        self.frag_children = fwd;
        for &q in &self.frag_children {
            ctx.send(q, GhsMsg::NewFrag { id: self.id });
        }
    }

    fn flood_receive(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>, port: PortId, id: u64) {
        debug_assert!(!self.p.flooded, "duplicate merge flood at {}", self.id);
        self.p.flooded = true;
        self.merged = true;
        let fwd = self.flood_ports(Some(port));
        self.frag_id = id;
        self.frag_parent = Some(port);
        self.frag_children = fwd;
        for &q in &self.frag_children {
            ctx.send(q, GhsMsg::NewFrag { id });
        }
    }

    fn maybe_phase_end(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        if !self.p.flooded || self.p.end_sent || self.p.end_children != self.bfs_children.len() {
            return;
        }
        self.p.end_sent = true;
        if let Some(up) = self.bfs_parent {
            ctx.send(up, GhsMsg::PhaseEnd);
            self.p = self.fresh_phase();
        } else {
            self.start_phase(ctx);
        }
    }

    fn start_phase(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        self.p = self.fresh_phase();
        self.p.started = true;
        self.merged = false;
        for &q in &self.bfs_children {
            ctx.send(q, GhsMsg::PhaseStart);
        }
        if self.is_frag_root() {
            self.begin_search(ctx);
        }
    }

    fn begin_search(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        self.p.searching = true;
        self.p.pending = self.frag_children.len();
        for &q in &self.frag_children {
            ctx.send(q, GhsMsg::SearchGo);
        }
        self.step_search(ctx);
    }
}

impl NodeProgram for GhsNode {
    type Msg = GhsMsg;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, GhsMsg>) {
        let round = ctx.round();
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                GhsMsg::Hello { me } => self.nbr_id[port] = me,
                GhsMsg::Bfs => {
                    if !self.bfs_seen {
                        self.bfs_seen = true;
                        self.bfs_parent = Some(port);
                        self.close_round = round + 2;
                        ctx.send(port, GhsMsg::BfsChild);
                        for q in 0..self.deg {
                            if q != port {
                                ctx.send(q, GhsMsg::Bfs);
                            }
                        }
                    }
                }
                GhsMsg::BfsChild => self.bfs_children.push(port),
                GhsMsg::Ready => {
                    self.ready_children += 1;
                }
                GhsMsg::PhaseStart => {
                    self.p.started = true;
                    self.merged = false;
                    for &q in &self.bfs_children {
                        ctx.send(q, GhsMsg::PhaseStart);
                    }
                    if self.is_frag_root() {
                        self.begin_search(ctx);
                    }
                }
                GhsMsg::SearchGo => {
                    self.p.searching = true;
                    self.p.pending = self.frag_children.len();
                    for &q in &self.frag_children {
                        ctx.send(q, GhsMsg::SearchGo);
                    }
                    self.step_search(ctx);
                }
                GhsMsg::Test { frag } => {
                    ctx.send(port, GhsMsg::TestReply { same: frag == self.frag_id });
                }
                GhsMsg::TestReply { same } => {
                    self.p.test_inflight = false;
                    if same {
                        // Permanent reject: both sides stay merged forever.
                        self.ptr += 1;
                        self.step_search(ctx);
                    } else {
                        let q = self.order[self.ptr];
                        self.p.local = Some(CandKey::new(self.weights[q], self.id, self.nbr_id[q]));
                        self.finish_search(ctx);
                    }
                }
                GhsMsg::MwoeUp { cand } => {
                    if let Some(k) = cand {
                        if self.p.agg.is_none_or(|a| k < a) {
                            self.p.agg = Some(k);
                            self.p.sel = Sel::Child(port);
                        }
                    }
                    self.p.pending -= 1;
                    self.maybe_respond(ctx);
                }
                GhsMsg::MwoePath => match self.p.sel {
                    Sel::Mine(q) => self.fire_connect(ctx, q),
                    Sel::Child(c) => ctx.send(c, GhsMsg::MwoePath),
                    Sel::None => unreachable!("MwoePath into an empty subtree"),
                },
                GhsMsg::Connect => {
                    self.mst[port] = true;
                    if self.merged {
                        // Our merge flood already passed: adopt the pendant
                        // fragment directly so it still learns its new id.
                        self.frag_children.push(port);
                        ctx.send(port, GhsMsg::NewFrag { id: self.frag_id });
                    } else {
                        self.p.connect_in.push(port);
                        self.check_mutual(ctx, port);
                    }
                }
                GhsMsg::NewFrag { id } => self.flood_receive(ctx, port, id),
                GhsMsg::PhaseEnd => self.p.end_children += 1,
                GhsMsg::AlgoDone => {
                    self.finished = true;
                    for &q in &self.frag_children {
                        ctx.send(q, GhsMsg::AlgoDone);
                    }
                }
            }
        }

        // Kick-off and barrier-tree milestones.
        if round == 0 {
            for q in 0..self.deg {
                ctx.send(q, GhsMsg::Hello { me: self.id });
            }
            if self.id == self.root as u64 {
                self.bfs_seen = true;
                self.close_round = 2;
                if self.deg == 0 {
                    self.finished = true;
                    return;
                }
                for q in 0..self.deg {
                    ctx.send(q, GhsMsg::Bfs);
                }
            }
        }

        if round == 1 {
            // All Hello messages are in: fix the tie-broken test order.
            let mut order: Vec<PortId> = (0..self.deg).collect();
            order.sort_unstable_by_key(|&q| CandKey::new(self.weights[q], self.id, self.nbr_id[q]));
            self.order = order;
        }

        if self.bfs_seen && !self.closed && round == self.close_round && round > 0 {
            self.closed = true;
        }

        // Phase-end check runs every round: the merge flood, the barrier
        // count, and the initiator's own flood can each complete it.
        if !self.finished {
            self.maybe_phase_end(ctx);
        }
        if self.closed && !self.ready_sent && self.ready_children == self.bfs_children.len() {
            self.ready_sent = true;
            if let Some(up) = self.bfs_parent {
                ctx.send(up, GhsMsg::Ready);
            } else {
                self.start_phase(ctx);
            }
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use congest_sim::{Network, RunConfig, Topology};
    use dmst_graphs::generators as gen;

    /// Regression test for the late-`Connect` deadlock: a fragment whose
    /// `Connect` lands after the receiver finished its phase must still be
    /// adopted. Dumps node states if the run stalls.
    #[test]
    fn grid_terminates_without_deadlock() {
        let g = gen::grid_2d(6, 6, &mut gen::WeightRng::new(17));
        let topo = Topology::new(g.num_nodes(), g.edges()).unwrap();
        let mut net = Network::new(topo, |info| GhsNode::new(info, 0));
        let cfg = RunConfig { max_rounds: 20_000, ..RunConfig::default() };
        if let Err(e) = net.run(&cfg) {
            for (v, nd) in net.nodes().iter().enumerate() {
                eprintln!(
                    "v{v}: frag={} done={} started={} searching={} sdone={} inflight={} pend={} resp={} flooded={} endkids={}/{} endsent={} ptr={}/{} sel={:?}",
                    nd.frag_id, nd.finished, nd.p.started, nd.p.searching, nd.p.search_done,
                    nd.p.test_inflight, nd.p.pending, nd.p.responded, nd.p.flooded,
                    nd.p.end_children, nd.bfs_children.len(), nd.p.end_sent,
                    nd.ptr, nd.order.len(), nd.p.sel
                );
            }
            panic!("deadlock: {e}");
        }
    }
}
