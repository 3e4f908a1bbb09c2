//! The round-driven network executor.
//!
//! The executor advances the network in synchronous rounds over flat arena
//! state indexed by the topology's CSR port numbering: one `u64` word ring
//! per *directed edge* buffers in-flight messages in their wire encoding
//! (no `Msg` values are stored — [`RoundCtx::send`] [`Message::encode`]s
//! straight into an outgoing word batch, delivery copies the words into
//! the rings, drains [`Message::decode`] them back out), and per-node
//! stamps track mail, termination, and stage-tag transitions
//! incrementally. Per-round cost is proportional to the nodes that act and
//! the messages that move — never to `n` itself.
//!
//! # Bandwidth
//!
//! A message costs exactly the words its encoding occupies. One stamped
//! [`EdgeMeter`] per directed edge is the only per-edge ledger: every send
//! charges it with the encoded length, and [`RoundCtx::try_send`] consults
//! it to hand back a message that would overfill the edge this round, so
//! protocols that pipeline "whatever still fits" keep no ledger of their
//! own.
//!
//! # Sharded execution
//!
//! [`RunConfig::shards`] `> 1` partitions nodes into contiguous id ranges,
//! one worker thread per extra shard. Each shard exclusively owns its nodes
//! and the rings of its *inbound* ports; cross-shard messages travel as
//! per-round *word blocks* over channels — length-framed encoded messages
//! that delivery routes by header alone and appends to the destination
//! rings without decoding. Because every ring has exactly one writer (one directed edge, one
//! sender) and a receiver drains its rings in ascending-neighbor order, each
//! inbox comes out exactly as the sequential executor builds it — messages
//! grouped per sender in FIFO blocks, senders in ascending id order — no
//! matter how the shard batches interleave. Results are therefore
//! bit-identical for every shard count; the dual-executor proptests in
//! `tests/` hold the engine to that contract. (After an *error* return the
//! node states of shards past the offending one may have advanced further
//! than under sequential execution; successful runs are always identical.)
//! A panic inside a worker shard — a node program's, or a broken encoding
//! caught by the send path — propagates out of [`Network::run`] with its
//! original payload, exactly as it would from the sequential executor.
//!
//! # Idle skipping
//!
//! [`NodeProgram::next_wake`] lets a program promise it will not act
//! spontaneously before a given round. The executor then steps a node only
//! when mail arrives or its wake round is due, and fast-forwards whole
//! rounds when the network is globally idle, attributing the skipped rounds
//! to the current stage census exactly as if they had been executed. The
//! default hint (`Some(0)`) steps the node every round;
//! [`EveryRound`](crate::EveryRound) forces that for any program and
//! checks the promises it overrides.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::mpsc::{self, Receiver, Sender};

use crate::config::RunConfig;
use crate::error::SimError;
use crate::message::{Message, WireReader, WireWriter};
use crate::stats::{RunStats, TagStats};
use crate::topology::{NodeId, Port, PortId, Topology};

/// What a node is told at construction time: its identity and its local
/// ports (incident edges with weights). This is the *clean network model*:
/// neighbor identities are not included; protocols learn them by talking.
#[derive(Clone, Copy, Debug)]
pub struct NodeInfo<'a> {
    /// This node's identity.
    pub id: NodeId,
    /// This node's incident ports (neighbor field is for instrumentation
    /// only; see [`Port`]).
    pub ports: &'a [Port],
}

/// A per-node protocol state machine.
///
/// The simulator calls [`on_round`](NodeProgram::on_round) for every node in
/// every round, passing the messages that arrived at the start of the round.
/// Messages sent during a round are delivered at the start of the next round
/// (synchronous CONGEST semantics). A program that implements
/// [`next_wake`](NodeProgram::next_wake) may be *skipped* in rounds where it
/// promised to be a no-op; the observable behavior is identical either way.
pub trait NodeProgram {
    /// The protocol's message type.
    type Msg: Message;

    /// Executes one synchronous round: read [`RoundCtx::inbox`], update local
    /// state, and [`RoundCtx::send`] messages for next-round delivery.
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Self::Msg>);

    /// Local termination flag. The simulation halts when every node reports
    /// `true` *and* no messages are in flight. A node may be reawakened by a
    /// later message even after reporting done.
    fn is_done(&self) -> bool;

    /// Which protocol stage this node is currently in, as a short static
    /// tag (e.g. `"a"`, `"b"`, ...). The network attributes each executed
    /// round to the smallest non-empty tag reported across all nodes
    /// ([`RunStats::rounds_by_stage`]), so a round counts toward a stage
    /// until the *last* node has left it. The default (empty string)
    /// disables attribution for this node.
    fn stage_tag(&self) -> &'static str {
        ""
    }

    /// Wake hint: the earliest round strictly after `after` (the round just
    /// executed for this node) at which this node might act *spontaneously*
    /// — i.e. do anything other than nothing when its inbox is empty.
    ///
    /// Contract: if this returns `Some(w)` (with `w > after`), then calling
    /// [`on_round`](NodeProgram::on_round) with an empty inbox in any round
    /// `r` with `after < r < w` must leave the node's entire observable
    /// state unchanged and send nothing. `None` promises the node is purely
    /// message-driven until further notice. Arrival of a message always
    /// wakes a node regardless of the hint, and a hinted node may still be
    /// stepped *earlier* than its hint (a stale earlier hint is allowed to
    /// fire; by the same contract such a step is a no-op).
    ///
    /// The default, `Some(0)`, requests a step every round, which is always
    /// safe. Returning accurate hints is purely a performance optimization:
    /// [`EveryRound`](crate::EveryRound) steps a program every round and
    /// panics on a step that breaks its promise, and the determinism suites
    /// check that hinted runs are bit-identical to every-round runs.
    fn next_wake(&self, after: u64) -> Option<u64> {
        let _ = after;
        Some(0)
    }
}

/// Per-round execution context handed to [`NodeProgram::on_round`].
pub struct RoundCtx<'a, M: Message> {
    round: u64,
    id: NodeId,
    /// Global directed-port index of this node's port 0.
    base: usize,
    ports: &'a [Port],
    topo: &'a Topology,
    inbox: &'a [(PortId, M)],
    out: &'a mut Outbox,
}

impl<'a, M: Message> RoundCtx<'a, M> {
    /// The current round number (0-based).
    #[inline]
    pub fn round(&self) -> u64 {
        self.round
    }

    /// This node's identity.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of incident ports (the node's degree).
    #[inline]
    pub fn degree(&self) -> usize {
        self.ports.len()
    }

    /// Messages that arrived this round, as `(port, message)` pairs in
    /// deterministic order: grouped per sending neighbor in contiguous FIFO
    /// blocks, neighbors in ascending node-id order (the order the
    /// sequential executor produces by stepping senders in id order).
    ///
    /// The slice lives for the whole round, not just this borrow, so a
    /// handler can iterate it in place while it sends.
    #[inline]
    pub fn inbox(&self) -> &'a [(PortId, M)] {
        self.inbox
    }

    /// Messages this node's shard has sent so far this round; a step sent
    /// something iff the count moved across it.
    #[inline]
    pub(crate) fn shard_round_messages(&self) -> u64 {
        self.out.round_messages
    }

    /// Sends `msg` over port `p`, to be delivered next round, and charges
    /// its encoded length to the edge's meter. A send that overfills the
    /// edge fails the run with [`SimError::CapacityExceeded`].
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range, or if `msg` encodes to zero words.
    #[inline]
    pub fn send(&mut self, p: PortId, msg: M) {
        self.put(p, &msg, false);
    }

    /// Sends `msg` over port `p` only if its encoded length still fits the
    /// edge's budget this round ([`RunConfig::capacity_words`] minus what
    /// this round's sends on the edge have already charged). Otherwise
    /// nothing is sent, charged or counted, and the message comes back as
    /// `Err(msg)` — typically to be retried next round, when the edge's
    /// budget is fresh.
    ///
    /// # Errors
    ///
    /// Returns the message unchanged when it does not fit.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range, or if `msg` encodes to zero words.
    #[inline]
    pub fn try_send(&mut self, p: PortId, msg: M) -> Result<(), M> {
        if self.put(p, &msg, true) {
            Ok(())
        } else {
            Err(msg)
        }
    }

    /// Encodes `msg` for port `p` straight into the word batch of the
    /// receiver's shard, behind a frame header, and charges the encoded
    /// length to the edge meter. With `gated`, a message that would
    /// overfill the edge is cut back out of the batch and `false` returned.
    fn put(&mut self, p: PortId, msg: &M, gated: bool) -> bool {
        assert!(p < self.ports.len(), "send on nonexistent port {p}");
        let out = &mut *self.out;
        let g = self.base + p;
        let dest = self.topo.peer(g);
        let batch = &mut out.batches[self.topo.port_node(dest) / out.cfg.chunk];
        let header = batch.len();
        batch.push(0);
        let len = {
            let mut w = WireWriter::new(batch);
            msg.encode(&mut w);
            w.len()
        };
        assert!(
            len >= 1,
            "Message::encode wrote no words for tag {:?} (node {}, round {}); every message \
             must encode to at least one word, or the unframed rings desync",
            msg.tag(),
            self.id,
            self.round,
        );
        // dmst-analysis:allow(panic-hygiene) -- sender-side port of an owned node; in range by construction
        let meter = &mut out.meters[g - out.plo];
        if meter.round != self.round {
            *meter = EdgeMeter { round: self.round, charged: 0 };
        }
        let charged = meter.charged + len as u64;
        if charged > out.cfg.capacity {
            if gated {
                batch.truncate(header);
                return false;
            }
            out.error.get_or_insert(SimError::CapacityExceeded {
                round: self.round,
                from: self.id,
                to: (self.topo.route(g) >> 32) as NodeId,
                words: charged,
                capacity: out.cfg.capacity,
            });
        }
        meter.charged = charged;
        batch[header] = frame_header(dest as u32, len);
        let totals = &mut out.totals;
        totals.peak_edge_words = totals.peak_edge_words.max(charged);
        bump_tag_totals(&mut totals.by_tag, msg.tag(), len as u64);
        totals.messages += 1;
        totals.wire_words += len as u64;
        out.round_messages += 1;
        true
    }
}

/// Messages crossing a shard boundary in one round, already encoded: a
/// flat word block of `[header, payload...]*` frames in sender-step
/// order. The header word holds the destination global directed port in
/// bits `0..32` and the payload length in words in bits `32..64`, so
/// delivery can route each frame without decoding it.
type WordBatch = Vec<u64>;

/// Builds one batch frame header (see [`WordBatch`]).
#[inline]
fn frame_header(dest_port: u32, len: usize) -> u64 {
    u64::from(dest_port) | ((len as u64) << 32)
}

/// Receiver-owned wire buffer for one inbound directed edge: encoded
/// message words appended in sender FIFO order, decoded back into
/// messages when the owning node drains its ports. `head` is the read
/// cursor during a drain; between rounds the ring is empty and `head`
/// is 0. No `Msg` values are ever stored — the ring *is* the wire.
#[derive(Default)]
struct WordRing {
    words: Vec<u64>,
    head: usize,
}

/// Executor knobs shared by every shard, resolved once per run.
#[derive(Clone, Copy)]
struct EngineCfg {
    capacity: u64,
    /// Nodes per shard: `shard_of(v) = v / chunk`.
    chunk: usize,
    num_shards: usize,
}

/// What a shard reports to the coordinator after executing one round.
struct RoundSummary {
    round_messages: u64,
    done: u64,
    census: Vec<(&'static str, u64)>,
    next_due: Option<u64>,
    error: Option<SimError>,
}

/// Run-total counters a shard accumulates locally and surrenders at halt.
#[derive(Default)]
struct ShardTotals {
    messages: u64,
    wire_words: u64,
    peak_edge_words: u64,
    by_tag: Vec<(&'static str, TagStats)>,
}

enum Decision {
    Round(u64),
    Halt,
}

/// Channel ends connecting one shard to every other shard: `to`/`from`
/// carry round word batches, `ret_*` recycle the emptied `Vec`s
/// backwards. Entry `s` talks to shard `s`; the self entry is `None`.
/// Batches are plain `u64` blocks, so the links are independent of the
/// protocol's message type.
struct Links {
    to: Vec<Option<Sender<WordBatch>>>,
    from: Vec<Option<Receiver<WordBatch>>>,
    ret_to: Vec<Option<Sender<WordBatch>>>,
    ret_from: Vec<Option<Receiver<WordBatch>>>,
}

impl Links {
    fn empty(num_shards: usize) -> Self {
        Self {
            to: (0..num_shards).map(|_| None).collect(),
            from: (0..num_shards).map(|_| None).collect(),
            ret_to: (0..num_shards).map(|_| None).collect(),
            ret_from: (0..num_shards).map(|_| None).collect(),
        }
    }
}

fn bump_census(census: &mut Vec<(&'static str, u64)>, tag: &'static str, up: bool) {
    match census.binary_search_by(|e| e.0.cmp(tag)) {
        Ok(i) => {
            if up {
                census[i].1 += 1;
            } else {
                census[i].1 -= 1;
            }
        }
        Err(i) => {
            debug_assert!(up, "decrement of an absent census tag");
            census.insert(i, (tag, 1));
        }
    }
}

fn bump_tag_totals(tags: &mut Vec<(&'static str, TagStats)>, tag: &'static str, wire_words: u64) {
    match tags.binary_search_by(|e| e.0.cmp(tag)) {
        Ok(i) => {
            tags[i].1.messages += 1;
            tags[i].1.wire_words += wire_words;
        }
        Err(i) => tags.insert(i, (tag, TagStats { messages: 1, wire_words })),
    }
}

/// The earliest non-empty stage tag any shard currently reports.
fn current_stage(censuses: &[Vec<(&'static str, u64)>]) -> Option<&'static str> {
    censuses.iter().flatten().filter(|e| e.1 > 0).map(|e| e.0).min()
}

/// One contiguous slice of the network: nodes `lo..lo + nodes.len()` plus
/// every per-port and per-node arena for that range.
struct Shard<'a, P: NodeProgram> {
    idx: usize,
    lo: usize,
    /// First global directed-port index owned by this shard.
    plo: usize,
    nodes: &'a mut [P],
    topo: &'a Topology,
    /// Encoded-word FIFO ring per owned inbound directed port, indexed
    /// `g - plo`.
    rings: Vec<WordRing>,
    /// Per owned node: round stamp of the last mail delivery.
    mail: Vec<u64>,
    /// Nodes (global ids) with mail in the round being assembled.
    touched: Vec<NodeId>,
    actives: Vec<NodeId>,
    /// Wake heap, `(due round, node)` with lazy deletion: stale earlier
    /// entries pop as no-op steps (guaranteed harmless by the
    /// [`NodeProgram::next_wake`] contract). Only *far* wakes (beyond the
    /// next round) live here; the overwhelmingly common "step me again next
    /// round" hint takes the O(1) [`Self::due`] path instead, so a dense
    /// always-active workload never pays the heap's O(log n) per step.
    wake: BinaryHeap<Reverse<(u64, NodeId)>>,
    /// Nodes due at the next executed round, whatever its number (a wake
    /// for round + 1 stays valid across a fast-forward: firing at a later
    /// round is exactly the heap's `w <= round` pop rule).
    due: Vec<NodeId>,
    done: u64,
    prev_done: Vec<bool>,
    prev_tag: Vec<&'static str>,
    /// Non-empty stage tags with live node counts, sorted by tag.
    census: Vec<(&'static str, u64)>,
    inbox: Vec<(PortId, P::Msg)>,
    out: Outbox,
}

/// The send side of one shard: everything [`RoundCtx::send`] writes.
struct Outbox {
    cfg: EngineCfg,
    /// First global directed-port index owned by the shard.
    plo: usize,
    /// Bandwidth meter per owned outbound directed port, indexed `g - plo`.
    meters: Vec<EdgeMeter>,
    /// Outgoing encoded batches per destination shard (self entry
    /// delivered locally).
    batches: Vec<WordBatch>,
    totals: ShardTotals,
    /// Messages sent in the round being executed.
    round_messages: u64,
    /// The round's first capacity violation.
    error: Option<SimError>,
}

/// Per-round bandwidth accumulator for one outbound directed edge. The
/// stamp makes resets lazy: a slot is only zeroed when the edge first
/// sends in a round, so idle edges cost nothing.
#[derive(Clone, Copy)]
struct EdgeMeter {
    /// Round this meter was last charged in (`u64::MAX` = never).
    round: u64,
    /// Encoded words sent over this edge direction during that round; the
    /// capacity checks run against this accumulator.
    charged: u64,
}

impl EdgeMeter {
    const IDLE: EdgeMeter = EdgeMeter { round: u64::MAX, charged: 0 };
}

impl<'a, P: NodeProgram> Shard<'a, P> {
    fn new(idx: usize, lo: usize, nodes: &'a mut [P], topo: &'a Topology, cfg: EngineCfg) -> Self {
        let count = nodes.len();
        let plo = topo.port_lo(lo);
        let phi = topo.port_lo(lo + count);
        let mut done = 0u64;
        let mut prev_done = Vec::with_capacity(nodes.len());
        let mut prev_tag = Vec::with_capacity(nodes.len());
        let mut census: Vec<(&'static str, u64)> = Vec::new();
        for node in nodes.iter() {
            let d = node.is_done();
            prev_done.push(d);
            done += u64::from(d);
            let t = node.stage_tag();
            prev_tag.push(t);
            if !t.is_empty() {
                bump_census(&mut census, t, true);
            }
        }
        Self {
            idx,
            lo,
            plo,
            nodes,
            topo,
            rings: (plo..phi).map(|_| WordRing::default()).collect(),
            mail: vec![u64::MAX; count],
            touched: Vec::new(),
            actives: Vec::new(),
            wake: BinaryHeap::new(),
            // Every node gets an initial step at the first executed round,
            // like the legacy executor; its own hints take over from there.
            due: (lo..lo + count).collect(),
            done,
            prev_done,
            prev_tag,
            census,
            inbox: Vec::new(),
            out: Outbox {
                cfg,
                plo,
                meters: vec![EdgeMeter::IDLE; phi - plo],
                batches: (0..cfg.num_shards).map(|_| Vec::new()).collect(),
                totals: ShardTotals::default(),
                round_messages: 0,
                error: None,
            },
        }
    }

    /// Appends a batch of inbound encoded frames (for the round about to
    /// execute) to the destination rings, marking receivers as mailed.
    /// Frames are routed by header word alone — payloads are copied into
    /// the rings without decoding. The batch is emptied for recycling.
    fn deliver(&mut self, round: u64, batch: &mut WordBatch) {
        let mut i = 0;
        while i < batch.len() {
            let header = batch[i];
            let g = (header & 0xFFFF_FFFF) as usize;
            let len = (header >> 32) as usize;
            let v = self.topo.port_node(g);
            let ni = v - self.lo;
            if self.mail[ni] != round {
                self.mail[ni] = round;
                self.touched.push(v);
            }
            // dmst-analysis:allow(panic-hygiene) -- g >= plo by shard ownership; frame bounds produced by our own send path
            self.rings[g - self.plo].words.extend_from_slice(&batch[i + 1..i + 1 + len]);
            i += 1 + len;
        }
        batch.clear();
    }

    /// Executes one round over this shard's active set.
    fn execute(&mut self, round: u64) -> RoundSummary {
        self.actives.clear();
        self.actives.append(&mut self.touched);
        self.actives.append(&mut self.due);
        while let Some(&Reverse((w, v))) = self.wake.peek() {
            if w > round {
                break;
            }
            self.wake.pop();
            self.actives.push(v);
        }
        self.actives.sort_unstable();
        self.actives.dedup();

        for i in 0..self.actives.len() {
            let v = self.actives[i];
            let ni = v - self.lo;
            let base = self.topo.port_lo(v);
            self.inbox.clear();
            if self.mail[ni] == round {
                for &p in self.topo.drain_order(v) {
                    // dmst-analysis:allow(panic-hygiene) -- port base of an owned node; in range by construction
                    let ring = &mut self.rings[base + p as usize - self.plo];
                    debug_assert_eq!(ring.head, 0, "ring left mid-drain");
                    while ring.head < ring.words.len() {
                        let used;
                        {
                            let mut r = WireReader::new(&ring.words[ring.head..]);
                            self.inbox.push((p as PortId, P::Msg::decode(&mut r)));
                            debug_assert!(r.consumed() >= 1, "decode consumed no words");
                            used = r.consumed().max(1);
                        }
                        ring.head += used;
                    }
                    ring.words.clear();
                    ring.head = 0;
                }
            }
            let mut ctx = RoundCtx {
                round,
                id: v,
                base,
                ports: self.topo.ports(v),
                topo: self.topo,
                inbox: &self.inbox,
                out: &mut self.out,
            };
            self.nodes[ni].on_round(&mut ctx);
            if self.out.error.is_some() {
                break;
            }

            let node = &self.nodes[ni];
            let d = node.is_done();
            if d != self.prev_done[ni] {
                self.prev_done[ni] = d;
                if d {
                    self.done += 1;
                } else {
                    self.done -= 1;
                }
            }
            let t = node.stage_tag();
            if t != self.prev_tag[ni] {
                if !self.prev_tag[ni].is_empty() {
                    bump_census(&mut self.census, self.prev_tag[ni], false);
                }
                if !t.is_empty() {
                    bump_census(&mut self.census, t, true);
                }
                self.prev_tag[ni] = t;
            }
            if let Some(w) = node.next_wake(round) {
                if w <= round + 1 {
                    self.due.push(v);
                } else {
                    self.wake.push(Reverse((w, v)));
                }
            }
        }

        RoundSummary {
            round_messages: std::mem::take(&mut self.out.round_messages),
            done: self.done,
            census: self.census.clone(),
            next_due: if self.due.is_empty() {
                // Everything <= round was popped above, so the peek is the
                // true minimum over both wake structures.
                self.wake.peek().map(|&Reverse((w, _))| w)
            } else {
                Some(round + 1)
            },
            error: self.out.error.take(),
        }
    }
}

/// One full round on one shard: deliver queued batches, execute, ship
/// outgoing batches. `primed` is false only before the shard's first
/// executed round (no peer has sent anything yet).
fn shard_round<P: NodeProgram>(
    shard: &mut Shard<'_, P>,
    links: &Links,
    round: u64,
    primed: bool,
) -> RoundSummary {
    let me = shard.idx;
    let mut own = std::mem::take(&mut shard.out.batches[me]);
    shard.deliver(round, &mut own);
    shard.out.batches[me] = own;
    if primed {
        for s in 0..links.from.len() {
            let Some(rx) = &links.from[s] else { continue };
            // dmst-analysis:allow(panic-hygiene) -- peer holds its sender until Halt; a closed channel is a bug
            let mut batch = rx.recv().expect("peer shard alive until halt");
            shard.deliver(round, &mut batch);
            if let Some(ret) = &links.ret_to[s] {
                let _ = ret.send(batch);
            }
        }
    }
    let summary = shard.execute(round);
    for s in 0..links.to.len() {
        let Some(tx) = &links.to[s] else { continue };
        let batch = std::mem::take(&mut shard.out.batches[s]);
        // A peer that hung up has panicked; the coordinator re-raises its
        // panic, so a failed send here must not mask it with another one.
        let _ = tx.send(batch);
        if let Some(ret) = &links.ret_from[s] {
            if let Ok(recycled) = ret.try_recv() {
                shard.out.batches[s] = recycled;
            }
        }
    }
    summary
}

fn worker_loop<P: NodeProgram>(
    mut shard: Shard<'_, P>,
    links: Links,
    decisions: Receiver<Decision>,
    summaries: Sender<RoundSummary>,
    totals: Sender<ShardTotals>,
) {
    let mut primed = false;
    while let Ok(Decision::Round(round)) = decisions.recv() {
        let summary = shard_round(&mut shard, &links, round, primed);
        primed = true;
        if summaries.send(summary).is_err() {
            return; // coordinator gone (panic unwinding elsewhere)
        }
    }
    let _ = totals.send(std::mem::take(&mut shard.out.totals));
}

/// A network of nodes executing a [`NodeProgram`] over a [`Topology`].
#[derive(Debug)]
pub struct Network<P: NodeProgram> {
    topo: Topology,
    nodes: Vec<P>,
}

impl<P: NodeProgram> Network<P> {
    /// Instantiates one program per node via `factory`, called in node-id
    /// order with that node's [`NodeInfo`].
    pub fn new<F>(topo: Topology, mut factory: F) -> Self
    where
        F: FnMut(NodeInfo<'_>) -> P,
    {
        let nodes = (0..topo.num_nodes())
            .map(|id| factory(NodeInfo { id, ports: topo.ports(id) }))
            .collect();
        Self { topo, nodes }
    }

    /// The topology this network runs on.
    #[inline]
    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    /// Read access to all node programs (e.g. to extract final states).
    #[inline]
    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    /// Consumes the network, returning the node programs.
    pub fn into_nodes(self) -> Vec<P> {
        self.nodes
    }

    /// Runs rounds until quiescence (every node done, no messages in
    /// flight) or an error. See the module docs for the execution model;
    /// [`RunConfig::shards`] picks sequential vs. sharded execution with
    /// bit-identical results.
    ///
    /// # Errors
    ///
    /// * [`SimError::CapacityExceeded`] when a round oversubscribes an edge
    ///   direction.
    /// * [`SimError::MaxRoundsExceeded`] when `config.max_rounds` is hit.
    pub fn run(&mut self, config: &RunConfig) -> Result<RunStats, SimError>
    where
        P: Send,
        P::Msg: Send,
    {
        let n = self.topo.num_nodes();
        if n == 0 {
            return Ok(RunStats::default());
        }
        let requested = match config.shards {
            0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
            s => s as usize,
        };
        let chunk = n.div_ceil(requested.clamp(1, n));
        let num_shards = n.div_ceil(chunk);
        let cfg = EngineCfg { capacity: config.capacity_words(), chunk, num_shards };

        let topo = &self.topo;
        let mut shards: Vec<Shard<'_, P>> = Vec::with_capacity(num_shards);
        {
            let mut rest: &mut [P] = &mut self.nodes;
            for s in 0..num_shards {
                let len = chunk.min(rest.len());
                let (head, tail) = rest.split_at_mut(len);
                rest = tail;
                shards.push(Shard::new(s, s * chunk, head, topo, cfg));
            }
        }

        // Cross-shard plumbing: batch + recycle channels per ordered pair,
        // decision/summary/totals channels per worker. With one shard the
        // links stay empty and no thread is spawned.
        let mut links: Vec<Links> = (0..num_shards).map(|_| Links::empty(num_shards)).collect();
        for a in 0..num_shards {
            for b in 0..num_shards {
                if a == b {
                    continue;
                }
                let (tx, rx) = mpsc::channel();
                links[a].to[b] = Some(tx);
                links[b].from[a] = Some(rx);
                let (rtx, rrx) = mpsc::channel();
                links[b].ret_to[a] = Some(rtx);
                links[a].ret_from[b] = Some(rrx);
            }
        }

        let mut done_total: u64 = shards.iter().map(|s| s.done).sum();
        let mut censuses: Vec<Vec<(&'static str, u64)>> =
            shards.iter().map(|s| s.census.clone()).collect();
        let mut next_dues: Vec<Option<u64>> = vec![Some(0); num_shards];
        let mut inflight: u64 = 0;
        let max_rounds = config.max_rounds;

        let mut shard_iter = shards.into_iter();
        // dmst-analysis:allow(panic-hygiene) -- num_shards >= 1 is asserted at partitioning
        let mut shard0 = shard_iter.next().expect("at least one shard");
        let mut links_iter = links.into_iter();
        // dmst-analysis:allow(panic-hygiene) -- same length as shards by construction
        let links0 = links_iter.next().expect("at least one shard");

        std::thread::scope(|scope| {
            let mut decision_txs = Vec::with_capacity(num_shards - 1);
            let mut summary_rxs = Vec::with_capacity(num_shards - 1);
            let mut totals_rxs = Vec::with_capacity(num_shards - 1);
            let mut workers = Vec::with_capacity(num_shards - 1);
            for (shard, link) in shard_iter.zip(links_iter) {
                let (dtx, drx) = mpsc::channel();
                let (stx, srx) = mpsc::channel();
                let (ttx, trx) = mpsc::channel();
                decision_txs.push(dtx);
                summary_rxs.push(srx);
                totals_rxs.push(trx);
                workers.push(scope.spawn(move || worker_loop(shard, link, drx, stx, ttx)));
            }

            let mut stats = RunStats::default();
            let mut round: u64 = 0;
            let mut primed = false;
            let outcome: Result<(), SimError> = loop {
                if inflight == 0 && done_total == n as u64 {
                    break Ok(());
                }
                if round >= max_rounds {
                    break Err(SimError::MaxRoundsExceeded {
                        max_rounds,
                        pending_nodes: (n as u64 - done_total) as usize,
                    });
                }
                if inflight == 0 {
                    // Globally idle: fast-forward to the earliest due wake
                    // (or the round cap), attributing the skipped rounds to
                    // the frozen stage census — nothing can transition while
                    // no node steps and no message is in flight.
                    let due = next_dues.iter().filter_map(|&d| d).min();
                    let target = due.unwrap_or(max_rounds).min(max_rounds);
                    if target > round {
                        if let Some(tag) = current_stage(&censuses) {
                            *stats.rounds_by_stage.entry(tag).or_insert(0) += target - round;
                        }
                        round = target;
                        continue;
                    }
                }

                for dtx in &decision_txs {
                    // dmst-analysis:allow(panic-hygiene) -- workers only exit after Halt; a dead worker is a bug
                    dtx.send(Decision::Round(round)).expect("worker alive");
                }
                let s0 = shard_round(&mut shard0, &links0, round, primed);
                primed = true;

                let mut round_messages = s0.round_messages;
                done_total = s0.done;
                next_dues[0] = s0.next_due;
                censuses[0] = s0.census;
                let mut error = s0.error;
                for (s, srx) in summary_rxs.iter().enumerate() {
                    let Ok(summary) = srx.recv() else {
                        // A worker hangs up mid-run only by panicking:
                        // re-raise its panic here. The scope then joins the
                        // other workers, which exit as the channels close.
                        let panic = match workers.swap_remove(s).join() {
                            Err(panic) => panic,
                            Ok(()) => Box::new("worker shard hung up mid-run"),
                        };
                        std::panic::resume_unwind(panic);
                    };
                    round_messages += summary.round_messages;
                    done_total += summary.done;
                    // dmst-analysis:allow(panic-hygiene) -- slot s + 1 exists: next_dues holds num_shards entries
                    next_dues[s + 1] = summary.next_due;
                    // dmst-analysis:allow(panic-hygiene) -- slot s + 1 exists: censuses holds num_shards entries
                    censuses[s + 1] = summary.census;
                    if error.is_none() {
                        error = summary.error;
                    }
                }
                if let Some(e) = error {
                    break Err(e);
                }
                inflight = round_messages;
                stats.peak_round_messages = stats.peak_round_messages.max(round_messages);
                if let Some(tag) = current_stage(&censuses) {
                    *stats.rounds_by_stage.entry(tag).or_insert(0) += 1;
                }
                round += 1;
            };

            for dtx in &decision_txs {
                let _ = dtx.send(Decision::Halt);
            }
            let mut all_totals = vec![std::mem::take(&mut shard0.out.totals)];
            for trx in &totals_rxs {
                // dmst-analysis:allow(panic-hygiene) -- every worker sends its totals before exiting
                all_totals.push(trx.recv().expect("worker exits cleanly"));
            }
            outcome.map(|()| {
                for t in all_totals {
                    stats.messages += t.messages;
                    stats.wire_words += t.wire_words;
                    stats.peak_edge_words = stats.peak_edge_words.max(t.peak_edge_words);
                    for (tag, ts) in t.by_tag {
                        let entry = stats.by_tag.entry(tag).or_default();
                        entry.messages += ts.messages;
                        entry.wire_words += ts.wire_words;
                    }
                }
                stats.rounds = round;
                stats
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RunConfig;

    /// Counts rounds until it has seen `wait_for` messages, echoing each.
    struct Echo {
        to_send: u32,
        seen: u32,
        wait_for: u32,
    }

    impl NodeProgram for Echo {
        type Msg = u64;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, u64>) {
            for _ in 0..self.to_send {
                ctx.send(0, 42);
            }
            self.to_send = 0;
            self.seen += ctx.inbox().len() as u32;
        }
        fn is_done(&self) -> bool {
            self.seen >= self.wait_for
        }
    }

    fn pair() -> Topology {
        Topology::new(2, &[(0, 1, 1)]).unwrap()
    }

    #[test]
    fn delivers_next_round_and_counts() {
        let mut net = Network::new(pair(), |i| Echo {
            to_send: u32::from(i.id == 0),
            seen: 0,
            wait_for: u32::from(i.id == 1),
        });
        let stats = net.run(&RunConfig::congest()).unwrap();
        assert_eq!(stats.messages, 1);
        assert_eq!(stats.wire_words, 1);
        // Round 0: node 0 sends. Round 1: node 1 receives; quiescent after.
        assert_eq!(stats.rounds, 2);
        assert_eq!(net.nodes()[1].seen, 1);
    }

    #[test]
    fn strict_capacity_rejects_oversend() {
        // b = 1 with 8 words/unit allows 8 one-word messages; send 9.
        let mut net = Network::new(pair(), |i| Echo {
            to_send: if i.id == 0 { 9 } else { 0 },
            seen: 0,
            wait_for: u32::from(i.id == 1),
        });
        let err = net.run(&RunConfig::congest()).unwrap_err();
        assert!(matches!(err, SimError::CapacityExceeded { round: 0, from: 0, to: 1, .. }));
    }

    /// A message of `self.0` words: its length, then zero padding.
    #[derive(Clone, Debug, PartialEq)]
    struct Blob(u64);

    impl Message for Blob {
        fn encode(&self, out: &mut WireWriter<'_>) {
            out.word(self.0);
            for _ in 1..self.0 {
                out.word(0);
            }
        }
        fn decode(r: &mut WireReader<'_>) -> Self {
            let len = r.word();
            for _ in 1..len {
                r.word();
            }
            Blob(len)
        }
    }

    /// Node 0 plays `plan[r]` on its port 0 in round `r` — `(gated, len)`
    /// sends of a `Blob(len)` through `try_send` (gated) or `send` — and
    /// logs every refused message; node 1 logs what arrives.
    struct Scripted {
        plan: Vec<Vec<(bool, u64)>>,
        next: usize,
        refused: Vec<(u64, Blob)>,
        got: Vec<(u64, Blob)>,
    }

    impl NodeProgram for Scripted {
        type Msg = Blob;
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, Blob>) {
            let r = ctx.round();
            self.got.extend(ctx.inbox().iter().map(|(_, m)| (r, m.clone())));
            for &(gated, len) in self.plan.get(self.next).map_or(&[][..], Vec::as_slice) {
                if !gated {
                    ctx.send(0, Blob(len));
                } else if let Err(m) = ctx.try_send(0, Blob(len)) {
                    self.refused.push((r, m));
                }
            }
            self.next = self.plan.len().min(self.next + 1);
        }
        fn is_done(&self) -> bool {
            self.next == self.plan.len()
        }
    }

    fn scripted(plan: &[Vec<(bool, u64)>]) -> (Result<RunStats, SimError>, Vec<Scripted>) {
        let mut net = Network::new(pair(), |i| Scripted {
            plan: if i.id == 0 { plan.to_vec() } else { Vec::new() },
            next: 0,
            refused: Vec::new(),
            got: Vec::new(),
        });
        let res = net.run(&RunConfig::congest());
        (res, net.into_nodes())
    }

    #[test]
    fn try_send_refuses_a_full_edge_without_charging_and_fits_next_round() {
        // Round 0: 5 words sent, 4 more refused, 3 still fit exactly (so the
        // refusal charged nothing), then the full edge refuses 1. Round 1
        // retries the refused messages on a fresh budget.
        let plan = [vec![(false, 5), (true, 4), (true, 3), (true, 1)], vec![(true, 4), (true, 1)]];
        let (res, nodes) = scripted(&plan);
        let stats = res.unwrap();
        assert_eq!(nodes[0].refused, vec![(0, Blob(4)), (0, Blob(1))], "returned intact");
        assert_eq!(nodes[1].got, vec![(1, Blob(5)), (1, Blob(3)), (2, Blob(4)), (2, Blob(1))]);
        // Refusals are not counted either.
        assert_eq!((stats.messages, stats.wire_words, stats.peak_edge_words), (4, 13, 8));
    }

    #[test]
    fn send_and_try_send_share_one_meter() {
        // try_send sees what send charged and vice versa, per round.
        let plan = [vec![(true, 6), (false, 2), (true, 1)], vec![(false, 7), (true, 2), (true, 1)]];
        let (res, nodes) = scripted(&plan);
        let stats = res.unwrap();
        assert_eq!(nodes[0].refused, vec![(0, Blob(1)), (1, Blob(2))]);
        assert_eq!((stats.messages, stats.wire_words, stats.peak_edge_words), (4, 16, 8));
        // A send on top of a try_send that filled the edge is an overflow.
        let plan = [vec![(true, 8), (false, 1)]];
        let (res, _) = scripted(&plan);
        assert!(matches!(res, Err(SimError::CapacityExceeded { round: 0, words: 9, .. })));
    }

    #[test]
    fn higher_bandwidth_admits_more() {
        let mut net = Network::new(pair(), |i| Echo {
            to_send: if i.id == 0 { 9 } else { 0 },
            seen: 0,
            wait_for: if i.id == 1 { 9 } else { 0 },
        });
        let stats = net.run(&RunConfig::congest_b(2)).unwrap();
        assert_eq!(stats.messages, 9);
    }

    #[test]
    fn nonterminating_protocol_hits_round_cap() {
        struct Spin;
        impl NodeProgram for Spin {
            type Msg = ();
            fn on_round(&mut self, _: &mut RoundCtx<'_, ()>) {}
            fn is_done(&self) -> bool {
                false
            }
        }
        let mut net = Network::new(pair(), |_| Spin);
        let cfg = RunConfig { max_rounds: 10, ..RunConfig::congest() };
        assert!(matches!(
            net.run(&cfg),
            Err(SimError::MaxRoundsExceeded { max_rounds: 10, pending_nodes: 2 })
        ));
    }

    #[test]
    fn sleeping_nonterminating_protocol_hits_round_cap() {
        /// Never done, never acts: promises a wake far past the cap.
        struct DeepSleep;
        impl NodeProgram for DeepSleep {
            type Msg = ();
            fn on_round(&mut self, _: &mut RoundCtx<'_, ()>) {}
            fn is_done(&self) -> bool {
                false
            }
            fn next_wake(&self, _: u64) -> Option<u64> {
                Some(1_000_000)
            }
        }
        let mut net = Network::new(pair(), |_| DeepSleep);
        let cfg = RunConfig { max_rounds: 10, ..RunConfig::congest() };
        // The fast-forward must stop at the cap, not sail past it.
        assert!(matches!(
            net.run(&cfg),
            Err(SimError::MaxRoundsExceeded { max_rounds: 10, pending_nodes: 2 })
        ));
    }

    #[test]
    fn immediate_quiescence_is_zero_rounds() {
        struct Done;
        impl NodeProgram for Done {
            type Msg = ();
            fn on_round(&mut self, _: &mut RoundCtx<'_, ()>) {}
            fn is_done(&self) -> bool {
                true
            }
        }
        let mut net = Network::new(pair(), |_| Done);
        let stats = net.run(&RunConfig::congest()).unwrap();
        assert_eq!(stats.rounds, 0);
        assert_eq!(stats.messages, 0);
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let topo = Topology::new(4, &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 0, 4)]).unwrap();
            let mut net = Network::new(topo, |i| Echo {
                to_send: if i.id == 0 { 2 } else { 0 },
                seen: 0,
                wait_for: u32::from(i.id == 1) * 2,
            });
            net.run(&RunConfig::congest()).unwrap()
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn messages_arrive_with_correct_reverse_port() {
        /// Node 1 records the port a message arrives on.
        struct PortCheck {
            got: Option<PortId>,
            fire: bool,
        }
        impl NodeProgram for PortCheck {
            type Msg = ();
            fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) {
                if self.fire {
                    self.fire = false;
                    ctx.send(0, ());
                }
                if let Some(&(p, _)) = ctx.inbox().first() {
                    self.got = Some(p);
                }
            }
            fn is_done(&self) -> bool {
                !self.fire
            }
        }
        // Node 2's ports: port 0 -> 0 (edge 1), port 1 -> 1 (edge 2).
        let topo = Topology::new(3, &[(0, 1, 1), (0, 2, 1), (1, 2, 1)]).unwrap();
        let mut net = Network::new(topo, |i| PortCheck { got: None, fire: i.id == 1 });
        // Node 1 sends on its port 0, which is edge (0,1) -> node 0 hears on
        // its own port 0.
        net.run(&RunConfig::congest()).unwrap();
        assert_eq!(net.nodes()[0].got, Some(0));
    }

    /// Sleeps (accurate hint) until `fire_at`, acts once, then is done.
    struct Napper {
        fire_at: u64,
        fired: bool,
    }
    impl NodeProgram for Napper {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) {
            if ctx.round() == self.fire_at {
                self.fired = true;
            }
        }
        fn is_done(&self) -> bool {
            self.fired
        }
        fn stage_tag(&self) -> &'static str {
            "z"
        }
        fn next_wake(&self, _: u64) -> Option<u64> {
            if self.fired {
                None
            } else {
                Some(self.fire_at)
            }
        }
    }

    #[test]
    fn fast_forward_skips_idle_rounds_and_attributes_them() {
        let mut net = Network::new(pair(), |_| Napper { fire_at: 5, fired: false });
        let stats = net.run(&RunConfig::congest()).unwrap();
        // Rounds 1-4 are skipped wholesale but still counted + attributed.
        assert_eq!(stats.rounds, 6);
        assert_eq!(stats.rounds_in_stage("z"), 6);
        assert_eq!(stats.messages, 0);
        assert!(net.nodes().iter().all(|n| n.fired));
    }

    #[test]
    fn hinted_runs_match_every_round_stepping() {
        let nap = |_: NodeInfo<'_>| Napper { fire_at: 9, fired: false };
        let cfg = |shards| RunConfig { shards, ..RunConfig::congest() };
        let every_round = |shards| {
            Network::new(pair(), |i| crate::EveryRound::new(nap(i))).run(&cfg(shards)).unwrap()
        };
        let baseline = every_round(1);
        assert_eq!(baseline, Network::new(pair(), nap).run(&cfg(1)).unwrap());
        assert_eq!(baseline, Network::new(pair(), nap).run(&cfg(2)).unwrap());
        assert_eq!(baseline, every_round(2));
    }

    #[test]
    fn sharded_run_matches_sequential() {
        let run = |shards: u32| {
            let topo = Topology::new(
                5,
                &[(0, 1, 1), (1, 2, 2), (2, 3, 3), (3, 4, 4), (4, 0, 5), (1, 3, 6)],
            )
            .unwrap();
            let mut net = Network::new(topo, |i| Echo {
                to_send: if i.id == 0 { 3 } else { 0 },
                seen: 0,
                wait_for: u32::from(i.id == 1) * 3,
            });
            let stats = net.run(&RunConfig { shards, ..RunConfig::congest() }).unwrap();
            let seen: Vec<u32> = net.nodes().iter().map(|n| n.seen).collect();
            (stats, seen)
        };
        let seq = run(1);
        for s in [2, 3, 4, 5, 8] {
            assert_eq!(seq, run(s), "shards = {s} diverged");
        }
    }
}
