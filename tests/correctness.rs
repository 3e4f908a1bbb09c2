//! Cross-crate integration tests: every distributed algorithm in the
//! workspace must produce the canonical MST on every graph family, under
//! every configuration knob. All checks go through the shared
//! `dmst::testkit` conformance harness.

use dmst::core::ElkinConfig;
use dmst::graphs::{generators as gen, WeightedGraph};
use dmst::testkit::{self, Algorithm};

#[test]
fn all_algorithms_all_families() {
    let r = &mut gen::WeightRng::new(0xC0FFEE);
    for (label, g) in testkit::family_matrix(r) {
        testkit::assert_all_match(&g, label);
    }
}

#[test]
fn equal_weights_everywhere() {
    // All-equal weights stress the tie-breaking path end to end.
    let edges = gen::grid_2d(5, 7, &mut gen::WeightRng::new(1))
        .edges()
        .iter()
        .map(|&(u, v, _)| (u, v, 42))
        .collect();
    let g = WeightedGraph::new(35, edges).unwrap();
    testkit::assert_all_match(&g, "grid-equal-weights");
}

#[test]
fn extreme_weights() {
    // Huge weights must not overflow any aggregation.
    let edges = gen::cycle(20, &mut gen::WeightRng::new(2))
        .edges()
        .iter()
        .enumerate()
        .map(|(i, &(u, v, _))| (u, v, u64::MAX - i as u64))
        .collect();
    let g = WeightedGraph::new(20, edges).unwrap();
    testkit::assert_all_match(&g, "cycle-huge-weights");
}

#[test]
fn empty_and_single_vertex_graphs() {
    for n in [0, 1] {
        let g = WeightedGraph::new(n, vec![]).unwrap();
        testkit::assert_all_match(&g, &format!("edgeless n={n}"));
    }
}

#[test]
fn many_seeds_random_graphs() {
    for seed in 0..12u64 {
        let r = &mut gen::WeightRng::new(seed);
        let n = 24 + (seed as usize * 7) % 60;
        let g = gen::random_connected(n, 2 * n, r);
        testkit::assert_all_match(&g, &format!("random seed={seed} n={n}"));
    }
}

#[test]
fn elkin_every_knob() {
    let r = &mut gen::WeightRng::new(9);
    let g = gen::random_connected(64, 160, r);
    let cfgs = testkit::config_matrix(g.num_nodes());
    assert!(cfgs.len() >= 100, "knob matrix unexpectedly small: {}", cfgs.len());
    for cfg in cfgs {
        let algo = Algorithm::Elkin(cfg);
        testkit::assert_matches_oracle(&algo, &g, &format!("{cfg:?}"));
    }
}

#[test]
fn forest_invariants_across_k() {
    let r = &mut gen::WeightRng::new(21);
    let g = gen::random_connected(80, 240, r);
    for k in [1u64, 2, 8, 32, 200] {
        testkit::assert_forest_invariants(&g, k, &format!("random-80 k={k}"));
    }
}

#[test]
fn determinism_end_to_end() {
    let g = gen::torus_2d(6, 6, &mut gen::WeightRng::new(4));
    let a = dmst::core::run_mst(&g, &ElkinConfig::default()).unwrap();
    let b = dmst::core::run_mst(&g, &ElkinConfig::default()).unwrap();
    assert_eq!(a.edges, b.edges);
    assert_eq!(a.stats, b.stats, "two identical runs must have identical statistics");
}

#[test]
fn disconnected_and_invalid_inputs() {
    let g = WeightedGraph::new(4, vec![(0, 1, 1), (2, 3, 1)]).unwrap();
    for algo in Algorithm::all() {
        assert!(algo.run(&g).is_err(), "{} accepted a disconnected graph", algo.name());
    }
    let g2 = gen::path(3, &mut gen::WeightRng::new(0));
    let cfg = ElkinConfig { root: 99, ..ElkinConfig::default() };
    assert!(Algorithm::Elkin(cfg).run(&g2).is_err());
}
