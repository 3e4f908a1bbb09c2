//! The GKP98/KP98 Pipeline baseline: the message-heavy, nearly
//! time-optimal predecessor the paper improves on (§1.2).
//!
//! Phase 1 (Controlled-GHS with `k = sqrt(n)`) is executed by
//! [`dmst_core::run_forest`]; this module implements Phase 2, **Pipeline
//! MST**: all inter-fragment candidate edges stream up the BFS tree in
//! globally nondecreasing key order, every intermediate vertex discarding
//! edges whose endpoints its local union–find already connects (such an
//! edge is the heaviest on a cycle of lighter forwarded edges, so it cannot
//! be in the MST — the classic cycle filter, [`CycleFilter`], which Elkin's
//! Stage D finish runs too). The BFS root runs the final
//! Kruskal over fragments and floods the chosen `O(sqrt(n))` edges to the
//! whole graph, which is what drives the message complexity to
//! `Θ(m + n^{3/2})` and motivates Elkin's Borůvka-on-top replacement.
//!
//! The two phases run as chained simulations over the same topology (the
//! second starts from the first's final state); the reported cost is the
//! sum — see DESIGN.md.

use std::collections::VecDeque;

use congest_sim::{Message, NodeInfo, NodeProgram, PortId, RoundCtx, WireReader, WireWriter};

use dmst_core::fraggraph::CycleFilter;
use dmst_core::{CandKey, Candidate, ForestRun};

/// Wire protocol of Pipeline MST (phase 2).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PipeMsg {
    /// One-time `(fragment id, vertex id)` exchange.
    Hello {
        /// Sender's base fragment.
        frag: u64,
        /// Sender's vertex id.
        me: u64,
    },
    /// A candidate inter-fragment edge moving up the BFS tree.
    Cand {
        /// Tie-broken edge key (identifies the edge).
        key: CandKey,
        /// Fragment on the `lo` side.
        src: u64,
        /// Fragment on the `hi` side.
        dst: u64,
    },
    /// The sender's subtree has no further candidates.
    PipeDone,
    /// A chosen MST edge, flooded down the BFS tree.
    Chosen {
        /// The edge's key; endpoints recognise and mark it.
        key: CandKey,
    },
    /// All chosen edges announced; terminate.
    DoneAll,
}

impl Message for PipeMsg {
    fn tag(&self) -> &'static str {
        match self {
            PipeMsg::Hello { .. } => "pipe:hello",
            PipeMsg::Cand { .. } | PipeMsg::PipeDone => "pipe:upcast",
            PipeMsg::Chosen { .. } | PipeMsg::DoneAll => "pipe:announce",
        }
    }

    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            PipeMsg::Hello { frag, me } => {
                w.tag(0);
                w.pack(*frag); // fragment ids are vertex ids < n
                w.word(*me);
            }
            PipeMsg::Cand { key, src, dst } => {
                w.tag(1);
                w.pack(*src);
                w.word(key.weight);
                w.word(key.lo);
                w.word(key.hi);
                w.word(*dst);
            }
            PipeMsg::PipeDone => w.tag(2),
            PipeMsg::Chosen { key } => {
                w.tag(3);
                w.pack(key.lo);
                w.word(key.weight);
                w.word(key.hi);
            }
            PipeMsg::DoneAll => w.tag(4),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            0 => PipeMsg::Hello { frag: r.packed(), me: r.word() },
            1 => {
                let src = r.packed();
                let key = CandKey { weight: r.word(), lo: r.word(), hi: r.word() };
                PipeMsg::Cand { key, src, dst: r.word() }
            }
            2 => PipeMsg::PipeDone,
            3 => {
                let lo = r.packed();
                PipeMsg::Chosen { key: CandKey { weight: r.word(), lo, hi: r.word() } }
            }
            4 => PipeMsg::DoneAll,
            other => unreachable!("unknown PipeMsg wire tag {other}"),
        }
    }
}

/// The inter-fragment edge `key` between fragments `src` and `dst`, as a
/// filter record.
fn edge(key: CandKey, src: u64, dst: u64) -> Candidate {
    Candidate { key, src_coarse: src, dst_coarse: dst, src_slot: 0 }
}

/// Phase 2 node, preloaded with the Phase 1 outcome (base fragment, BFS
/// tree, fragment-tree MST marks).
#[derive(Clone, Debug)]
pub struct PipeNode {
    id: u64,
    deg: usize,
    weights: Vec<u64>,

    frag: u64,
    bfs_parent: Option<PortId>,
    bfs_children: Vec<PortId>,

    nbr_id: Vec<u64>,
    nbr_frag: Vec<u64>,

    /// Candidates not yet forwarded, released in key order through the
    /// cycle filter (`src_coarse`/`dst_coarse` hold the fragment ids on
    /// the edge's two sides; `src_slot` is unused).
    filter: CycleFilter,
    enumerated: bool,
    done_sent: bool,

    /// Root only: accepted inter-fragment MST edges.
    chosen: Vec<CandKey>,
    /// Downcast queues (per BFS child) for `Chosen`/`DoneAll`.
    down: Vec<VecDeque<PipeMsg>>,
    announced: bool,

    mst: Vec<bool>,
    finished: bool,
}

impl PipeNode {
    /// Builds the phase 2 program for vertex `info.id` from the phase 1
    /// outcome. `forest` supplies the base fragment and BFS structure.
    pub fn new(info: NodeInfo<'_>, forest: &ForestRun) -> Self {
        let v = info.id;
        let deg = info.ports.len();
        let bfs_parent = forest.bfs_parent_of[v].map(|pv| {
            info.ports.iter().position(|p| p.neighbor == pv).expect("parent is a neighbor")
        });
        let bfs_children: Vec<PortId> = info
            .ports
            .iter()
            .enumerate()
            .filter(|(_, p)| forest.bfs_parent_of[p.neighbor] == Some(v))
            .map(|(q, _)| q)
            .collect();
        // Fragment-tree edges are already MST edges (phase 1 output).
        let mut mst = vec![false; deg];
        if let Some(pv) = forest.parent_of[v] {
            let q = info.ports.iter().position(|p| p.neighbor == pv).expect("tree parent adjacent");
            mst[q] = true;
        }
        for (q, p) in info.ports.iter().enumerate() {
            if forest.parent_of[p.neighbor] == Some(v) {
                mst[q] = true;
            }
        }
        let nchild = bfs_children.len();
        Self {
            id: v as u64,
            deg,
            weights: info.ports.iter().map(|p| p.weight).collect(),
            frag: forest.fragment_of[v],
            bfs_parent,
            bfs_children,
            nbr_id: vec![u64::MAX; deg],
            nbr_frag: vec![u64::MAX; deg],
            filter: CycleFilter::new(nchild),
            enumerated: false,
            done_sent: false,
            chosen: Vec::new(),
            down: vec![VecDeque::new(); nchild],
            announced: false,
            mst,
            finished: false,
        }
    }

    /// Which incident ports ended up in the MST (union of both phases).
    pub fn mst_ports(&self) -> Vec<PortId> {
        self.mst.iter().enumerate().filter(|(_, &m)| m).map(|(q, _)| q).collect()
    }

    fn child_index(&self, port: PortId) -> usize {
        self.bfs_children.iter().position(|&q| q == port).expect("message from a BFS child")
    }

    /// Mark the endpoint ports of a chosen edge if we are one of them.
    fn mark_if_mine(&mut self, key: CandKey) {
        if self.id != key.lo && self.id != key.hi {
            return;
        }
        let other = if self.id == key.lo { key.hi } else { key.lo };
        for q in 0..self.deg {
            if self.nbr_id[q] == other && self.weights[q] == key.weight {
                self.mst[q] = true;
            }
        }
    }
}

impl NodeProgram for PipeNode {
    type Msg = PipeMsg;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, PipeMsg>) {
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                PipeMsg::Hello { frag, me } => {
                    self.nbr_frag[port] = frag;
                    self.nbr_id[port] = me;
                }
                PipeMsg::Cand { key, src, dst } => {
                    let idx = self.child_index(port);
                    self.filter.receive(idx, edge(key, src, dst));
                }
                PipeMsg::PipeDone => {
                    let idx = self.child_index(port);
                    self.filter.close(idx);
                }
                PipeMsg::Chosen { key } => {
                    self.mark_if_mine(key);
                    for q in self.down.iter_mut() {
                        q.push_back(PipeMsg::Chosen { key });
                    }
                }
                PipeMsg::DoneAll => {
                    for q in self.down.iter_mut() {
                        q.push_back(PipeMsg::DoneAll);
                    }
                    self.announced = true;
                }
            }
        }

        let round = ctx.round();
        if round == 0 {
            for q in 0..self.deg {
                ctx.send(q, PipeMsg::Hello { frag: self.frag, me: self.id });
            }
        }
        if round == 1 && !self.enumerated {
            // Hellos are in: enumerate my incident inter-fragment edges.
            // Each edge is emitted by its `lo` endpoint only.
            self.enumerated = true;
            for q in 0..self.deg {
                if self.nbr_frag[q] != self.frag && self.id < self.nbr_id[q] {
                    let key = CandKey::new(self.weights[q], self.id, self.nbr_id[q]);
                    self.filter.offer(edge(key, self.frag, self.nbr_frag[q]));
                }
            }
        }

        // In-order filtered release toward the BFS root (one candidate per
        // round per edge: b = 1 unit messages; filtering is free).
        if self.enumerated && !self.done_sent {
            while self.filter.peek().is_some() {
                let Candidate { key, src_coarse: src, dst_coarse: dst, .. } = self.filter.release();
                if let Some(up) = self.bfs_parent {
                    ctx.send(up, PipeMsg::Cand { key, src, dst });
                    break; // one message per round per edge
                }
                // The root can absorb several per round.
                self.chosen.push(key);
                self.mark_if_mine(key);
            }

            // Subtree exhausted?
            if self.filter.exhausted() {
                self.done_sent = true;
                if let Some(up) = self.bfs_parent {
                    ctx.send(up, PipeMsg::PipeDone);
                } else {
                    // Root: announce the chosen edges to everyone.
                    self.announced = true;
                    for q in self.down.iter_mut() {
                        for &key in &self.chosen {
                            q.push_back(PipeMsg::Chosen { key });
                        }
                        q.push_back(PipeMsg::DoneAll);
                    }
                }
            }
        }

        // Flush the downcast queues (one message per round per edge).
        for i in 0..self.down.len() {
            if let Some(m) = self.down[i].pop_front() {
                ctx.send(self.bfs_children[i], m);
            }
        }

        if self.announced && self.down.iter().all(|q| q.is_empty()) {
            self.finished = true;
        }
    }

    fn is_done(&self) -> bool {
        self.finished
    }
}
