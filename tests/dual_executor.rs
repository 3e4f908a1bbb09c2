//! Executor equivalences on the real algorithm, over the T1 trio.
//!
//! Sequential vs sharded: the full run (Stages A, B and D) must produce
//! bit-identical [`RunStats`](dmst::congest::RunStats) — rounds, messages,
//! per-tag tables, and the `rounds_by_stage` census — and the same MST,
//! for every shard count. Together with the absolute pins of
//! `tests/round_pins.rs` this locks the incremental stage census to the
//! legacy per-round scan.
//!
//! Hinted vs every round: [`EveryRound`] steps every `ElkinNode` in every
//! round and panics on a step that breaks its wake hint, so the hints the
//! executor skips rounds on are checked on the protocol itself; the run
//! must also equal `run_mst`'s bit for bit. One extra input, a graph that
//! Stage B collapses to a single base fragment, covers the lone-fragment
//! finish of Stage D.

use dmst::congest::{EveryRound, Network, RunConfig, Topology};
use dmst::core::{marked_mst_edges, run_mst, ElkinConfig, ElkinNode};
use dmst::graphs::generators as gen;
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
    let mut inputs = Vec::new();
    // k = 16 runs four Stage B phases where the automatic k runs one to
    // three, so the wake hints of the later phases' wider windows are
    // checked too.
    for cfg in [ElkinConfig::default(), ElkinConfig::with_k(16)] {
        let label = format!("k = {:?}", cfg.k_override);
        for w in standard_trio(256, 0x51) {
            inputs.push((format!("{} ({label})", w.name), w.graph, cfg));
        }
    }
    // One base fragment (`forest_shape::oversized_k_override_is_clamped`).
    let lone = gen::random_connected(20, 40, &mut gen::WeightRng::new(8));
    inputs.push(("lone base fragment".to_string(), lone, ElkinConfig::with_k(1 << 20)));
    for (label, g, cfg) in &inputs {
        // Equal stats need equal rounds, so the hinted run's round count
        // caps the every-round run: a stall fails at once instead of
        // stepping every node up to the default cap.
        let hinted = run_mst(g, cfg).expect("hinted run");
        let cap =
            RunConfig { max_rounds: hinted.stats.rounds, ..RunConfig::congest_b(cfg.bandwidth) };
        let topo = Topology::new(g.num_nodes(), g.edges()).expect("valid topology");
        let mut net = Network::new(topo, |info| EveryRound::new(ElkinNode::new(info, *cfg)));
        let stats = net.run(&cap).unwrap_or_else(|e| panic!("{label}: every-round run: {e}"));
        let edges = marked_mst_edges(g, &net, |n: &EveryRound<ElkinNode>| n.inner().mst_ports())
            .expect("symmetric marks");
        assert_eq!(edges, hinted.edges, "{label}: MST diverged");
        assert_eq!(stats, hinted.stats, "{label}: stats diverged");
    }
}
