//! Exhaustive small-graph testing: run every distributed algorithm on
//! *every* connected graph on 4 and 5 vertices (all edge subsets of K4 and
//! K5 that span), under three adversarial weight patterns each, via the
//! shared `dmst::testkit` enumerator. Any protocol race that depends on
//! structure rather than scale tends to show up here first.

use dmst::core::ElkinConfig;
use dmst::testkit::{self, Algorithm, WeightPattern};

#[test]
fn every_connected_graph_on_4_vertices() {
    let (graphs, runs) = testkit::for_each_connected_graph(4, |g, label, _| {
        testkit::assert_all_match(g, label);
    });
    assert_eq!(graphs, 38, "there are 38 connected labeled graphs on 4 vertices");
    assert_eq!(runs, 38 * 3);
}

#[test]
fn every_connected_graph_on_5_vertices() {
    // Every algorithm on every weighting is ~6500 distributed runs; keep
    // the 5-vertex sweep to Elkin (the paper's algorithm) plus a GHS
    // cross-check on the all-equal (pure tie-breaking) pattern to stay fast.
    let (graphs, runs) = testkit::for_each_connected_graph(5, |g, label, pattern| {
        testkit::assert_matches_oracle(&Algorithm::Elkin(ElkinConfig::default()), g, label);
        if pattern == WeightPattern::Equal {
            testkit::assert_matches_oracle(&Algorithm::Ghs, g, label);
        }
    });
    assert_eq!(graphs, 728, "there are 728 connected labeled graphs on 5 vertices");
    assert_eq!(runs, 728 * 3);
}
