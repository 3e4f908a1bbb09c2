//! Dual-executor determinism: the sharded, idle-skipping executor must be
//! bit-identical to sequential every-round stepping ([`EveryRound`]) —
//! same [`RunStats`], same final node states, same errors — on every
//! topology family.
//!
//! The workload is a staggered gossip with wake hints, so these tests
//! exercise the whole hot path at once: per-port FIFO merge order across
//! shard boundaries, the wake calendar, fast-forward, and the incremental
//! done/stage censuses.

use std::collections::BTreeSet;

use congest_sim::{
    EveryRound, Message, Network, NodeInfo, NodeProgram, RoundCtx, RunConfig, RunStats, SimError,
    Topology,
};
use proptest::prelude::*;

/// Gossip token carrying its origin and hop count. Encoded length and tag
/// vary with the origin so the per-tag tables and word accounting are
/// exercised.
#[derive(Clone, Debug)]
struct Token {
    origin: u64,
    hops: u32,
}
impl Message for Token {
    fn tag(&self) -> &'static str {
        if self.origin.is_multiple_of(2) {
            "even"
        } else {
            "odd"
        }
    }
    // A deliberately variable-width encoding: origin and hops share word 0
    // (origins here are node ids, far below 2^32), followed by `origin % 3`
    // zero pad words, so a token costs `1 + origin % 3` words.
    fn encode(&self, out: &mut congest_sim::WireWriter<'_>) {
        debug_assert!(self.origin < u64::from(u32::MAX));
        out.word(self.origin | (u64::from(self.hops) << 32));
        for _ in 0..self.origin % 3 {
            out.word(0);
        }
    }
    fn decode(r: &mut congest_sim::WireReader<'_>) -> Self {
        let w0 = r.word();
        let origin = w0 & 0xFFFF_FFFF;
        for _ in 0..origin % 3 {
            r.word();
        }
        Token { origin, hops: (w0 >> 32) as u32 }
    }
}

/// Staggered gossip: node `v` sleeps until round `3 * (v mod 5)` (a wake
/// hint), then floods its own token; every *new* origin heard is re-flooded
/// once. The log records `(round, port, origin, hops)` for every delivery,
/// so any divergence in timing, order, or content between executors shows
/// up in the final state comparison.
struct Gossip {
    id: u64,
    fire_at: u64,
    fired: bool,
    seen: BTreeSet<u64>,
    log: Vec<(u64, usize, u64, u32)>,
}

impl NodeProgram for Gossip {
    type Msg = Token;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
        let round = ctx.round();
        for &(port, ref t) in ctx.inbox() {
            self.log.push((round, port, t.origin, t.hops));
            if self.seen.insert(t.origin) {
                for p in 0..ctx.degree() {
                    ctx.send(p, Token { origin: t.origin, hops: t.hops + 1 });
                }
            }
        }
        if !self.fired && round >= self.fire_at {
            self.fired = true;
            self.seen.insert(self.id);
            for p in 0..ctx.degree() {
                ctx.send(p, Token { origin: self.id, hops: 0 });
            }
        }
    }

    fn is_done(&self) -> bool {
        self.fired
    }

    fn stage_tag(&self) -> &'static str {
        if self.fired {
            "live"
        } else {
            "idle"
        }
    }

    fn next_wake(&self, after: u64) -> Option<u64> {
        if self.fired {
            None // everything after ignition is message-driven
        } else {
            Some(self.fire_at.max(after + 1))
        }
    }
}

/// Snapshot of one node's externally observable state.
type NodeState = (bool, Vec<u64>, Vec<(u64, usize, u64, u32)>);

/// Runs `factory`'s programs on `shards` shards, hinted or wrapped in
/// [`EveryRound`], and returns the outcome and the final programs.
fn run_net<P>(
    topo: Topology,
    factory: impl Fn(NodeInfo<'_>) -> P,
    shards: u32,
    bandwidth: u32,
    every_round: bool,
) -> (Result<RunStats, SimError>, Vec<P>)
where
    P: NodeProgram + Send,
    P::Msg: Send,
{
    let cfg = RunConfig { shards, ..RunConfig::congest_b(bandwidth) };
    if every_round {
        let mut net = Network::new(topo, |i| EveryRound::new(factory(i)));
        let res = net.run(&cfg);
        (res, net.into_nodes().into_iter().map(EveryRound::into_inner).collect())
    } else {
        let mut net = Network::new(topo, factory);
        (net.run(&cfg), net.into_nodes())
    }
}

fn run_gossip(
    n: usize,
    edges: &[(usize, usize, u64)],
    shards: u32,
    every_round: bool,
) -> (RunStats, Vec<NodeState>) {
    let gossip = |i: NodeInfo<'_>| Gossip {
        id: i.id as u64,
        fire_at: 3 * (i.id as u64 % 5),
        fired: false,
        seen: BTreeSet::new(),
        log: Vec::new(),
    };
    // Dense nodes legitimately echo several origins in one round. Each
    // origin crosses an edge direction at most once, and all 24 possible
    // origins together cost 48 words, so 6 unit messages per round always
    // fit. (Capacity-error determinism has its own test below.)
    let (res, nodes) = run_net(Topology::new(n, edges).unwrap(), gossip, shards, 6, every_round);
    let states =
        nodes.into_iter().map(|g| (g.fired, g.seen.into_iter().collect(), g.log)).collect();
    (res.unwrap(), states)
}

/// Executor matrix `(shards, every_round)`, checked against every-round
/// stepping on one shard.
const MATRIX: [(u32, bool); 5] = [(1, false), (2, false), (3, false), (8, false), (2, true)];

fn assert_all_executors_agree(n: usize, edges: &[(usize, usize, u64)], label: &str) {
    let baseline = run_gossip(n, edges, 1, true);
    for (shards, every_round) in MATRIX {
        let got = run_gossip(n, edges, shards, every_round);
        assert_eq!(
            got, baseline,
            "{label}: shards={shards} every_round={every_round} diverged from the baseline"
        );
    }
}

fn path(n: usize) -> Vec<(usize, usize, u64)> {
    (0..n - 1).map(|i| (i, i + 1, 1 + (i as u64 % 7))).collect()
}

fn cycle(n: usize) -> Vec<(usize, usize, u64)> {
    (0..n).map(|i| (i, (i + 1) % n, 1 + (i as u64 % 7))).collect()
}

fn star(n: usize) -> Vec<(usize, usize, u64)> {
    (1..n).map(|i| (0, i, i as u64)).collect()
}

fn clique(n: usize) -> Vec<(usize, usize, u64)> {
    let mut e = Vec::new();
    for a in 0..n {
        for b in a + 1..n {
            e.push((a, b, (a * n + b) as u64));
        }
    }
    e
}

fn grid(w: usize, h: usize) -> Vec<(usize, usize, u64)> {
    let mut e = Vec::new();
    for y in 0..h {
        for x in 0..w {
            let v = y * w + x;
            if x + 1 < w {
                e.push((v, v + 1, (v % 9 + 1) as u64));
            }
            if y + 1 < h {
                e.push((v, v + w, (v % 5 + 1) as u64));
            }
        }
    }
    e
}

/// Two cliques joined by a long path: shard boundaries fall inside dense
/// *and* sparse regions at once.
fn barbell(k: usize, bridge: usize) -> (usize, Vec<(usize, usize, u64)>) {
    let n = 2 * k + bridge;
    let mut e = clique(k);
    for (a, b, w) in clique(k) {
        e.push((a + k + bridge, b + k + bridge, w + 100));
    }
    let mut prev = k - 1;
    for i in 0..bridge {
        e.push((prev, k + i, 7));
        prev = k + i;
    }
    e.push((prev, k + bridge, 7));
    (n, e)
}

#[test]
fn every_topology_family_is_executor_invariant() {
    assert_all_executors_agree(13, &path(13), "path-13");
    assert_all_executors_agree(12, &cycle(12), "cycle-12");
    assert_all_executors_agree(14, &star(14), "star-14");
    assert_all_executors_agree(9, &clique(9), "clique-9");
    assert_all_executors_agree(20, &grid(5, 4), "grid-5x4");
    let (n, e) = barbell(6, 5);
    assert_all_executors_agree(n, &e, "barbell-6+5+6");
    // Disconnected: two independent components must still quiesce in step.
    let mut e = path(5);
    e.extend(cycle(4).into_iter().map(|(a, b, w)| (a + 5, b + 5, w)));
    assert_all_executors_agree(9, &e, "disconnected path+cycle");
    // Edgeless: every node is a degree-0 island.
    assert_all_executors_agree(6, &[], "edgeless-6");
}

/// Over-capacity sends must fail with the *same* error on every executor:
/// the first violation in (round, node id) order wins, regardless of which
/// shard trips it.
struct Blaster {
    burst: u32,
    at: u64,
    done: bool,
}
impl NodeProgram for Blaster {
    type Msg = Token;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
        if !self.done && ctx.round() == self.at && ctx.degree() > 0 {
            self.done = true;
            for i in 0..self.burst {
                ctx.send(0, Token { origin: u64::from(i) * 2, hops: 0 });
            }
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
    fn next_wake(&self, _after: u64) -> Option<u64> {
        if self.done {
            None
        } else {
            Some(self.at)
        }
    }
}

#[test]
fn strict_capacity_errors_are_executor_invariant() {
    // Nodes 2, 3 and 5 all blow the 8-word budget in round 4; node 2 must
    // be reported by every executor.
    let edges: Vec<(usize, usize, u64)> = (0..7).map(|i| (i, (i + 1) % 8, 1)).collect();
    let run = |shards: u32, every_round: bool| {
        let blaster = |i: NodeInfo<'_>| Blaster {
            burst: if [2, 3, 5].contains(&i.id) { 9 } else { 1 },
            at: 4,
            done: false,
        };
        let topo = Topology::new(8, &edges).unwrap();
        run_net(topo, blaster, shards, 1, every_round).0.unwrap_err()
    };
    let baseline = run(1, true);
    assert!(
        matches!(baseline, SimError::CapacityExceeded { round: 4, from: 2, .. }),
        "unexpected baseline error: {baseline:?}"
    );
    for (shards, every_round) in MATRIX {
        assert_eq!(run(shards, every_round), baseline, "shards={shards} every_round={every_round}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// Random multi-component topologies: all executor configurations
    /// produce bit-identical statistics and node states.
    #[test]
    fn random_topologies_are_executor_invariant(
        n in 2usize..24,
        pairs in proptest::collection::vec((0usize..24, 0usize..24, 1u64..100), 0..60),
    ) {
        let mut seen = BTreeSet::new();
        let mut edges = Vec::new();
        for (a, b, w) in pairs {
            let (a, b) = (a % n, b % n);
            if a != b && seen.insert((a.min(b), a.max(b))) {
                edges.push((a, b, w));
            }
        }
        let baseline = run_gossip(n, &edges, 1, true);
        for (shards, every_round) in MATRIX {
            let got = run_gossip(n, &edges, shards, every_round);
            prop_assert_eq!(
                &got, &baseline,
                "n={} m={} shards={} every_round={}", n, edges.len(), shards, every_round
            );
        }
    }
}
