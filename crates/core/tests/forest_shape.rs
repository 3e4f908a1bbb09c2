//! Structural tests of the Controlled-GHS output on hand-crafted inputs
//! where the correct fragment shape is known exactly.

use dmst_core::{analyze_forest, run_forest, run_mst, ElkinConfig, MergeControl};
use dmst_graphs::{generators as gen, mst, WeightedGraph};

/// An ascending-weight path: at phase `i`, fragments are contiguous runs;
/// the matching limits each merge, so fragment sizes stay near `2^i`.
fn ascending_path(n: usize) -> WeightedGraph {
    let edges = (1..n).map(|v| (v - 1, v, v as u64)).collect();
    WeightedGraph::new(n, edges).expect("valid path")
}

#[test]
fn path_fragments_are_contiguous_runs() {
    let g = ascending_path(64);
    for k in [2u64, 4, 8, 16] {
        let run = run_forest(&g, &ElkinConfig::with_k(k)).unwrap();
        // Contiguity: vertices of one fragment form an interval of the path.
        for v in 1..64usize {
            let same = run.fragment_of[v] == run.fragment_of[v - 1];
            if !same {
                // A fragment boundary: no later vertex may rejoin an
                // earlier fragment (intervals never interleave on a path).
                let left = run.fragment_of[v - 1];
                assert!(
                    run.fragment_of[v..].iter().all(|&f| f != left),
                    "fragment {left} reappears after the boundary at {v} (k={k})"
                );
            }
        }
        let report = analyze_forest(&g, &run);
        assert!(report.min_size as u64 >= k / 2, "k={k}: fragments too small: {report:?}");
    }
}

#[test]
fn k_exceeding_n_yields_one_fragment() {
    let g = gen::random_connected(30, 60, &mut gen::WeightRng::new(8));
    let run = run_forest(&g, &ElkinConfig::with_k(512)).unwrap();
    let report = analyze_forest(&g, &run);
    assert_eq!(report.num_fragments, 1, "with k >> n the forest collapses to the MST");
    assert_eq!(report.tree_edges, 29);
}

/// An override far past `n` is clamped at the BFS root to
/// `2 * n.next_power_of_two()`: it neither runs into the round cap nor
/// overflows the schedule, and still collapses the forest to the MST.
#[test]
fn oversized_k_override_is_clamped() {
    let g = gen::random_connected(20, 40, &mut gen::WeightRng::new(8));
    let truth = mst::kruskal(&g);
    for k in [1u64 << 20, 1 << 62, u64::MAX] {
        let cfg = ElkinConfig::with_k(k);
        let run = run_mst(&g, &cfg).unwrap_or_else(|e| panic!("k = {k}: {e}"));
        assert_eq!(run.edges, truth.edges, "k = {k}: wrong MST");
        assert_eq!(run.k, 64, "k = {k}: not clamped to 2 * 32");
        let forest = run_forest(&g, &cfg).unwrap_or_else(|e| panic!("k = {k}: {e}"));
        assert_eq!(analyze_forest(&g, &forest).num_fragments, 1, "k = {k}");
    }
}

#[test]
fn k_one_keeps_singletons() {
    let g = gen::random_connected(30, 60, &mut gen::WeightRng::new(9));
    let run = run_forest(&g, &ElkinConfig::with_k(1)).unwrap();
    let report = analyze_forest(&g, &run);
    assert_eq!(report.num_fragments, 30, "k = 1 skips Controlled-GHS entirely");
    assert_eq!(report.max_diameter, 0);
}

#[test]
fn uncontrolled_on_ascending_path_collapses_immediately() {
    // Every vertex's MWOE points left, so plain Boruvka merging builds a
    // single chain in phase 0 — Lemma 4.1's failure mode.
    let g = ascending_path(40);
    let cfg = ElkinConfig {
        k_override: Some(8),
        merge_control: MergeControl::Uncontrolled,
        ..ElkinConfig::default()
    };
    let run = run_forest(&g, &cfg).unwrap();
    let report = analyze_forest(&g, &run);
    assert_eq!(report.num_fragments, 1);
    assert_eq!(report.max_diameter, 39);
}

#[test]
fn two_cliques_one_bridge() {
    // The bridge is the heaviest edge by far, but MWOE selection is about
    // *outgoing* edges: once a clique has merged internally, the bridge is
    // its only way out and WILL be taken. With a single phase (k = 2) the
    // cliques are still fragmented internally and the bridge stays unused.
    let mut edges = Vec::new();
    for u in 0..5usize {
        for v in (u + 1)..5 {
            edges.push((u, v, 10 + (u * 5 + v) as u64));
            edges.push((5 + u, 5 + v, 40 + (u * 5 + v) as u64));
        }
    }
    let bridge = edges.len();
    edges.push((4, 5, 1_000_000));
    let g = WeightedGraph::new(10, edges).unwrap();

    // k = 2: one phase of singleton merges; every MWOE is intra-clique.
    let run = run_forest(&g, &ElkinConfig::with_k(2)).unwrap();
    assert_ne!(
        run.fragment_of[4], run.fragment_of[5],
        "one phase cannot cross the bridge: every singleton has a cheaper neighbor"
    );

    // k = 8: the cliques complete internally and then bridge: one fragment
    // spanning everything, with the bridge as a tree edge.
    let run = run_forest(&g, &ElkinConfig::with_k(8)).unwrap();
    let report = analyze_forest(&g, &run);
    assert_eq!(report.num_fragments, 1);
    assert_eq!(report.tree_edges, 9);
    let (u, v) = g.endpoints(bridge);
    assert!(
        run.parent_of[u] == Some(v) || run.parent_of[v] == Some(u),
        "the bridge must be a fragment-tree (hence MST) edge"
    );
}
