//! Simulator stress and property tests: ordering, accounting, determinism.

use congest_sim::{Message, Network, NodeInfo, NodeProgram, PortId, RoundCtx, RunConfig, Topology};
use proptest::prelude::*;

/// Message carrying a sequence number, for FIFO checks.
#[derive(Clone, Debug)]
struct Seq(u32);
impl Message for Seq {
    fn encode(&self, out: &mut congest_sim::WireWriter<'_>) {
        out.word(u64::from(self.0));
    }
    fn decode(r: &mut congest_sim::WireReader<'_>) -> Self {
        Seq(r.word() as u32)
    }
}

/// Node 0 sends `count` numbered messages over several rounds; node 1
/// checks they arrive in order.
struct FifoCheck {
    sender: bool,
    next: u32,
    count: u32,
    got: Vec<u32>,
}

impl NodeProgram for FifoCheck {
    type Msg = Seq;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Seq>) {
        if self.sender {
            // Up to 3 per round (within an 8-word budget).
            for _ in 0..3 {
                if self.next < self.count {
                    ctx.send(0, Seq(self.next));
                    self.next += 1;
                }
            }
        }
        for &(_, Seq(v)) in ctx.inbox() {
            self.got.push(v);
        }
    }
    fn is_done(&self) -> bool {
        if self.sender {
            self.next >= self.count
        } else {
            self.got.len() as u32 >= self.count
        }
    }
}

#[test]
fn per_edge_fifo_order_is_preserved() {
    let topo = Topology::new(2, &[(0, 1, 1)]).unwrap();
    let mut net = Network::new(topo, |i: NodeInfo<'_>| FifoCheck {
        sender: i.id == 0,
        next: 0,
        count: 50,
        got: Vec::new(),
    });
    net.run(&RunConfig::congest()).unwrap();
    let got = &net.nodes()[1].got;
    assert_eq!(*got, (0..50).collect::<Vec<_>>(), "messages must arrive in send order");
}

/// Every node floods a token once; used for accounting checks.
struct FloodOnce {
    fired: bool,
}
impl NodeProgram for FloodOnce {
    type Msg = Seq;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Seq>) {
        if !self.fired {
            self.fired = true;
            for p in 0..ctx.degree() {
                ctx.send(p, Seq(0));
            }
        }
    }
    fn is_done(&self) -> bool {
        self.fired
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Message accounting is exact: an all-at-round-0 flood sends exactly
    /// 2m messages (one per edge direction), independent of topology.
    #[test]
    fn accounting_exact_on_random_topologies(
        n in 2usize..20,
        pairs in proptest::collection::vec((0usize..20, 0usize..20), 1..40),
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let mut edges = Vec::new();
        for (a, b) in pairs {
            let (a, b) = (a % n, b % n);
            if a != b && seen.insert((a.min(b), a.max(b))) {
                edges.push((a, b, 1u64));
            }
        }
        prop_assume!(!edges.is_empty());
        let topo = Topology::new(n, &edges).unwrap();
        let mut net = Network::new(topo, |_| FloodOnce { fired: false });
        let stats = net.run(&RunConfig::congest()).unwrap();
        prop_assert_eq!(stats.messages, 2 * edges.len() as u64);
        prop_assert_eq!(stats.wire_words, 2 * edges.len() as u64);
        prop_assert!(stats.peak_edge_words <= 8);
        // Deterministic repeat.
        let topo2 = Topology::new(n, &edges).unwrap();
        let mut net2 = Network::new(topo2, |_| FloodOnce { fired: false });
        prop_assert_eq!(stats, net2.run(&RunConfig::congest()).unwrap());
    }
}

/// A deliberately bursty sender, to probe the per-edge budget.
struct Burst {
    port: Option<PortId>,
    n: u32,
    done: bool,
}
impl NodeProgram for Burst {
    type Msg = Seq;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Seq>) {
        if let Some(p) = self.port {
            if !self.done {
                self.done = true;
                for i in 0..self.n {
                    ctx.send(p, Seq(i));
                }
            }
        } else {
            self.done = true;
        }
    }
    fn is_done(&self) -> bool {
        self.done
    }
}

#[test]
fn strict_vs_unchecked_boundary() {
    // Exactly at capacity (8 one-word messages at b = 1): allowed. One
    // word more is an error.
    for (n, ok) in [(8u32, true), (9, false)] {
        let topo = Topology::new(2, &[(0, 1, 1)]).unwrap();
        let mut net = Network::new(topo, |i: NodeInfo<'_>| Burst {
            port: (i.id == 0).then_some(0),
            n,
            done: false,
        });
        let res = net.run(&RunConfig::congest());
        assert_eq!(res.is_ok(), ok, "n = {n}");
    }
}

#[test]
fn opposite_directions_have_separate_budgets() {
    // Both endpoints send 8 words in the same round: no violation.
    let topo = Topology::new(2, &[(0, 1, 1)]).unwrap();
    let mut net = Network::new(topo, |_| Burst { port: Some(0), n: 8, done: false });
    assert!(net.run(&RunConfig::congest()).is_ok());
}

/// A node that walks through named stages on a fixed per-node timetable,
/// for stage-attribution checks.
struct Staged {
    /// `(stage tag, first round of the NEXT stage)` boundaries, ascending.
    plan: Vec<(&'static str, u64)>,
    round: u64,
    done_at: u64,
    pinged: bool,
}

impl NodeProgram for Staged {
    type Msg = Seq;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Seq>) {
        self.round = ctx.round() + 1; // post-round sampling sees the new stage
        if !self.pinged {
            self.pinged = true;
            for p in 0..ctx.degree() {
                ctx.send(p, Seq(0));
            }
        }
    }
    fn is_done(&self) -> bool {
        self.round >= self.done_at
    }
    fn stage_tag(&self) -> &'static str {
        for &(tag, until) in &self.plan {
            if self.round < until {
                return tag;
            }
        }
        self.plan.last().map_or("", |&(tag, _)| tag)
    }
}

#[test]
fn stage_attribution_partitions_rounds_and_respects_laggards() {
    // Node 0 flips to "b" during round 2, node 1 only during round 4
    // (post-round sampling: executed round r reads the state after
    // on_round(r)). Rounds 0..=3 must all be charged to "a" (earliest
    // stage any node still reports), the rest to "b", and the breakdown
    // must sum to the total.
    let topo = Topology::new(2, &[(0, 1, 1)]).unwrap();
    let mut net = Network::new(topo, |i: NodeInfo<'_>| Staged {
        plan: vec![("a", if i.id == 0 { 3 } else { 5 }), ("b", u64::MAX)],
        round: 0,
        done_at: 9,
        pinged: false,
    });
    let stats = net.run(&RunConfig::congest()).unwrap();
    let total: u64 = stats.rounds_by_stage.values().sum();
    assert_eq!(total, stats.rounds, "stage breakdown must partition the executed rounds");
    assert_eq!(stats.rounds_in_stage("a"), 4, "laggard holds the round in the earlier stage");
    assert_eq!(stats.rounds_in_stage("b"), stats.rounds - 4);
    assert_eq!(stats.rounds_in_stage("zz"), 0);
}

#[test]
fn stage_attribution_absent_without_tags() {
    // Programs that do not override stage_tag report nothing.
    let topo = Topology::new(2, &[(0, 1, 1)]).unwrap();
    let mut net = Network::new(topo, |_| FloodOnce { fired: false });
    let stats = net.run(&RunConfig::congest()).unwrap();
    assert!(stats.rounds_by_stage.is_empty());
}
