//! Ablation A1 — why Controlled-GHS controls merging (paper §4).
//!
//! With the Cole–Vishkin + maximal-matching control, phase-`i` fragments
//! have diameter `O(2^i)`, so the final forest diameter is `O(k)`. With
//! plain Borůvka merging (every fragment fires its MWOE), fragments can
//! chain: on a path with monotone weights the very first phase glues
//! everything into one `Θ(n)`-diameter fragment.
//!
//! Fragment diameter is a property of the merge rule, not of the
//! protocol, so the uncontrolled side is a sequential replay: plain
//! Borůvka stopped after the same `ceil(log2 k)` phases that
//! Controlled-GHS runs ([`mst::boruvka_phases`]). Both forests go through
//! the same [`analyze_forest`] checks.

use congest_sim::RunStats;
use dmst_bench::{banner, header, row};
use dmst_core::util::ceil_log2;
use dmst_core::{analyze_forest, run_forest, ElkinConfig, ForestRun};
use dmst_graphs::{analysis, generators as gen, mst, EdgeId, WeightedGraph};

/// A path whose weights increase left to right: every vertex's MWOE points
/// left, so uncontrolled merging builds one long chain immediately.
fn monotone_path(n: usize) -> WeightedGraph {
    let edges = (1..n).map(|v| (v - 1, v, v as u64)).collect();
    WeightedGraph::new(n, edges).expect("valid path")
}

/// The forest `edges` spans in `g`, shaped like a [`run_forest`] result:
/// each tree is named after and rooted at its smallest vertex
/// ([`analysis::components`]'s label). A replay has no run, so its
/// statistics are empty.
fn replay_forest(g: &WeightedGraph, edges: &[EdgeId], k: u64) -> ForestRun {
    let n = g.num_nodes();
    let forest = WeightedGraph::new(n, edges.iter().map(|&e| g.edges()[e]).collect())
        .expect("a sub-forest of a valid graph");
    let (label, _) = analysis::components(&forest);
    let mut parent_of = vec![None; n];
    for root in (0..n).filter(|&v| label[v] == v) {
        for (v, p) in analysis::bfs_parents(&forest, root).into_iter().enumerate() {
            parent_of[v] = parent_of[v].or(p);
        }
    }
    ForestRun {
        fragment_of: label.into_iter().map(|f| f as u64).collect(),
        parent_of,
        bfs_parent_of: vec![None; n],
        stats: RunStats::default(),
        k,
        bfs_height: 0,
    }
}

fn main() {
    banner(
        "A1: matched vs uncontrolled merging (fragment diameter control)",
        "matching keeps fragment diameter O(k); uncontrolled merging reaches Theta(n)",
    );

    header(&["workload", "n", "k", "mode", "frags", "max diam"]);
    let mut r = gen::WeightRng::new(0xA1);
    let cases: Vec<(String, WeightedGraph)> = vec![
        ("monotone path".into(), monotone_path(512)),
        ("grid 16x32".into(), gen::grid_2d(16, 32, &mut r)),
        ("random n=512".into(), gen::random_connected(512, 1536, &mut r)),
    ];

    for (name, g) in &cases {
        let n = g.num_nodes();
        for k in [8u64, 32] {
            let cfg = ElkinConfig::with_k(k);
            let matched = analyze_forest(g, &run_forest(g, &cfg).expect("forest run"));
            assert!(matched.max_diameter <= 24 * k, "matched diameter exploded: {matched:?}");
            let phases = ceil_log2(k) as usize;
            let replay = replay_forest(g, &mst::boruvka_phases(g, phases).edges, k);
            let uncontrolled = analyze_forest(g, &replay);
            if name == "monotone path" {
                assert_eq!(
                    (uncontrolled.num_fragments, uncontrolled.max_diameter),
                    (1, n as u64 - 1),
                    "plain Boruvka must chain the monotone path into one fragment"
                );
            }
            for (label, report) in [("matched", matched), ("uncontrolled", uncontrolled)] {
                row(&[
                    name.clone(),
                    n.to_string(),
                    k.to_string(),
                    label.to_string(),
                    report.num_fragments.to_string(),
                    report.max_diameter.to_string(),
                ]);
            }
        }
    }
    println!(
        "\nshape check: matched diameters stay within ~24k on every input;\n\
         uncontrolled diameters on the monotone path hit Theta(n) after the\n\
         first phase — the failure mode the matching exists to prevent."
    );
}
