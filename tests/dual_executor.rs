//! Executor equivalences on the real algorithm, over the T1 trio.
//!
//! Sequential vs sharded: the full four-stage run must produce
//! bit-identical [`RunStats`](dmst::congest::RunStats) — rounds, messages,
//! per-tag tables, and the `rounds_by_stage` census — and the same MST,
//! for every shard count. Together with the absolute pins of
//! `tests/round_pins.rs` this locks the incremental stage census to the
//! legacy per-round scan.
//!
//! Hinted vs every round: [`EveryRound`] steps every `ElkinNode` in every
//! round and panics on a step that breaks its wake hint, so the hints the
//! executor skips rounds on are checked on the protocol itself; the run
//! must also equal `run_mst`'s bit for bit.

use dmst::congest::{EveryRound, Network, RunConfig, Topology};
use dmst::core::{marked_mst_edges, run_mst, ElkinConfig, ElkinNode, MergeControl};
use dmst_bench::standard_trio;

#[test]
fn t1_trio_stats_are_shard_invariant() {
    for w in standard_trio(256, 0x51) {
        let base_cfg = ElkinConfig::default();
        let baseline = run_mst(&w.graph, &base_cfg).expect("sequential run");
        let total: u64 = baseline.stats.rounds_by_stage.values().sum();
        assert_eq!(
            total, baseline.stats.rounds,
            "{}: stage census must partition the rounds",
            w.name
        );
        for shards in [0, 2, 4] {
            let cfg = ElkinConfig { shards, ..base_cfg };
            let run = run_mst(&w.graph, &cfg).expect("sharded run");
            assert_eq!(run.edges, baseline.edges, "{}: MST changed (shards={shards})", w.name);
            assert_eq!(run.stats, baseline.stats, "{}: stats diverged (shards={shards})", w.name);
        }
    }
}

#[test]
fn t1_trio_matches_every_round_stepping() {
    let uncontrolled =
        ElkinConfig { merge_control: MergeControl::Uncontrolled, ..ElkinConfig::default() };
    for cfg in [ElkinConfig::default(), ElkinConfig::fixed(), uncontrolled] {
        let label = format!("{:?}, {:?}", cfg.schedule_mode, cfg.merge_control);
        for w in standard_trio(256, 0x51) {
            let g = &w.graph;
            let topo = Topology::new(g.num_nodes(), g.edges()).expect("valid topology");
            let mut net = Network::new(topo, |info| EveryRound::new(ElkinNode::new(info, cfg)));
            let stats = net.run(&RunConfig::congest_b(cfg.bandwidth)).expect("every-round run");
            let edges =
                marked_mst_edges(g, &net, |n: &EveryRound<ElkinNode>| n.inner().mst_ports())
                    .expect("symmetric marks");
            let hinted = run_mst(g, &cfg).expect("hinted run");
            assert_eq!(edges, hinted.edges, "{} ({label}): MST diverged", w.name);
            assert_eq!(stats, hinted.stats, "{} ({label}): stats diverged", w.name);
        }
    }
}
