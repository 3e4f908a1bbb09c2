//! Stage-census and message-contract properties.
//!
//! The executor keeps `rounds_by_stage` as an *incremental* census (updated
//! only when a node's tag changes) instead of an O(n) per-round scan. These
//! tests pin its documented semantics (`stats.rs`): an executed round is
//! attributed to the earliest (smallest, by string order) non-empty tag any
//! node reports *after* that round, so laggards hold rounds in the earlier
//! stage, empty-tag nodes abstain, and when any node always reports a tag
//! the counts partition `rounds` exactly.

use std::collections::BTreeMap;

use congest_sim::{Message, Network, NodeInfo, NodeProgram, RoundCtx, RunConfig, Topology};
use proptest::prelude::*;

#[derive(Clone, Debug)]
struct Ping;
impl Message for Ping {
    fn encode(&self, out: &mut congest_sim::WireWriter<'_>) {
        out.word(0);
    }
    fn decode(r: &mut congest_sim::WireReader<'_>) -> Self {
        r.word();
        Ping
    }
}

/// Walks through a per-node timetable of stage tags; sends one initial
/// flood so there is message traffic, and stays alive until `done_at`.
/// `round` tracks the post-round sample point (executed round + 1), which
/// is exactly what the executor's census sees.
struct Staged {
    plan: Vec<(&'static str, u64)>, // (tag, first round of the NEXT stage)
    round: u64,
    done_at: u64,
    pinged: bool,
}

fn plan_tag(plan: &[(&'static str, u64)], round: u64) -> &'static str {
    for &(tag, until) in plan {
        if round < until {
            return tag;
        }
    }
    plan.last().map_or("", |&(tag, _)| tag)
}

impl NodeProgram for Staged {
    type Msg = Ping;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Ping>) {
        self.round = ctx.round() + 1;
        if !self.pinged {
            self.pinged = true;
            for p in 0..ctx.degree() {
                ctx.send(p, Ping);
            }
        }
    }
    fn is_done(&self) -> bool {
        self.round >= self.done_at
    }
    fn stage_tag(&self) -> &'static str {
        plan_tag(&self.plan, self.round)
    }
}

/// The tag pool: includes `""` (abstains from the census entirely).
const TAGS: [&str; 4] = ["", "a", "b", "c"];

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Attribution equals the naive per-round model, and the counts
    /// partition `rounds` whenever any node reports a tag every round.
    #[test]
    fn census_matches_naive_model_on_random_schedules(
        n in 1usize..10,
        pairs in proptest::collection::vec((0usize..10, 0usize..10), 0..20),
        raw_plans in proptest::collection::vec(
            proptest::collection::vec((0usize..TAGS.len(), 1u64..8), 1..4),
            1..10,
        ),
        done_at in 3u64..20,
    ) {
        let mut seen = std::collections::BTreeSet::new();
        let mut edges = Vec::new();
        for (a, b) in pairs {
            let (a, b) = (a % n, b % n);
            if a != b && seen.insert((a.min(b), a.max(b))) {
                edges.push((a, b, 1u64));
            }
        }

        // Fixed per-node timetables: tag i runs for `len` rounds. Node v
        // uses raw_plans[v % len(raw_plans)] shifted by v so neighbors lag
        // each other (the laggard case the docs call out).
        let plans: Vec<Vec<(&'static str, u64)>> = (0..n)
            .map(|v| {
                let raw = &raw_plans[v % raw_plans.len()];
                let mut acc = v as u64; // stagger: later nodes lag behind
                let mut plan = Vec::new();
                for &(t, len) in raw {
                    acc += len;
                    plan.push((TAGS[t], acc));
                }
                plan
            })
            .collect();

        let topo = Topology::new(n, &edges).unwrap();
        let mk_plans = plans.clone();
        let mut net = Network::new(topo, move |i: NodeInfo<'_>| Staged {
            plan: mk_plans[i.id].clone(),
            round: 0,
            done_at,
            pinged: false,
        });
        let stats = net.run(&RunConfig::congest()).unwrap();

        // Naive model: replay the timetables round by round.
        let mut expected: BTreeMap<&'static str, u64> = BTreeMap::new();
        for r in 0..stats.rounds {
            let min_tag = plans
                .iter()
                .map(|p| plan_tag(p, r + 1))
                .filter(|t| !t.is_empty())
                .min();
            if let Some(t) = min_tag {
                *expected.entry(t).or_insert(0) += 1;
            }
        }
        prop_assert_eq!(&stats.rounds_by_stage, &expected);

        // Partition invariant: if some node reports a non-empty tag in
        // every round, the counts sum to the executed rounds exactly.
        let always_tagged = (0..stats.rounds)
            .all(|r| plans.iter().any(|p| !plan_tag(p, r + 1).is_empty()));
        let total: u64 = stats.rounds_by_stage.values().sum();
        if always_tagged {
            prop_assert_eq!(total, stats.rounds, "census must partition the rounds");
        } else {
            prop_assert!(total <= stats.rounds);
        }
    }
}

/// A message whose encoding is empty: it would desync the unframed rings.
#[derive(Clone, Debug)]
struct Weightless;
impl Message for Weightless {
    fn encode(&self, _: &mut congest_sim::WireWriter<'_>) {}
    fn decode(_: &mut congest_sim::WireReader<'_>) -> Self {
        Weightless
    }
}

struct SendOnce {
    fire: bool,
    sent: bool,
}
impl NodeProgram for SendOnce {
    type Msg = Weightless;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Weightless>) {
        if self.fire && !self.sent {
            ctx.send(0, Weightless);
        }
        self.sent = true;
    }
    fn is_done(&self) -> bool {
        self.sent
    }
}

/// Runs a path of `n` nodes on `shards` shards where node `culprit` sends
/// one empty encoding in round 0.
fn send_empty_encoding(n: usize, culprit: usize, shards: u32) {
    let edges: Vec<(usize, usize, u64)> = (1..n).map(|v| (v - 1, v, 1)).collect();
    let topo = Topology::new(n, &edges).unwrap();
    let mut net =
        Network::new(topo, |i: NodeInfo<'_>| SendOnce { fire: i.id == culprit, sent: false });
    let _ = net.run(&RunConfig { shards, ..RunConfig::congest() });
}

/// Every message encodes to at least one word: the send path asserts it in
/// every build, so an empty encoding panics instead of desyncing a ring.
#[test]
#[should_panic(expected = "Message::encode wrote no words")]
fn zero_word_messages_violate_the_contract() {
    send_empty_encoding(2, 0, 1);
}

/// The same panic raised inside a worker shard reaches the caller of
/// `run` with its own payload: no hang, and no secondary channel error in
/// its place.
#[test]
#[should_panic(expected = "Message::encode wrote no words")]
fn zero_word_messages_panic_out_of_a_worker_shard() {
    // 8 nodes on 4 shards of 2: node 5 runs in worker shard 2.
    send_empty_encoding(8, 5, 4);
}
