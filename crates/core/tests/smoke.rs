//! End-to-end smoke tests of the full algorithm across graph families,
//! bandwidths, and k overrides.

use dmst_core::{analyze_forest, run_forest, run_mst, ElkinConfig, MergeControl, ScheduleMode};
use dmst_graphs::{generators as gen, mst, WeightedGraph};

fn check(g: &WeightedGraph, cfg: &ElkinConfig, label: &str) {
    let truth = mst::kruskal(g);
    let run = run_mst(g, cfg).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(run.edges, truth.edges, "{label}: wrong MST");
    // The schedule mode may change round counts, never the tree: re-run
    // the same configuration in the other mode and demand the same MST.
    let other = match cfg.schedule_mode {
        ScheduleMode::Fixed => ScheduleMode::Adaptive,
        ScheduleMode::Adaptive => ScheduleMode::Fixed,
    };
    let alt = run_mst(g, &cfg.with_schedule_mode(other))
        .unwrap_or_else(|e| panic!("{label} ({other:?}): {e}"));
    assert_eq!(alt.edges, truth.edges, "{label} ({other:?}): wrong MST");
}

#[test]
fn families_default_config() {
    let r = &mut gen::WeightRng::new(42);
    let cases: Vec<(&str, WeightedGraph)> = vec![
        ("path", gen::path(40, r)),
        ("cycle", gen::cycle(41, r)),
        ("complete", gen::complete(24, r)),
        ("star", gen::star(30, r)),
        ("grid", gen::grid_2d(7, 9, r)),
        ("torus", gen::torus_2d(6, 7, r)),
        ("hypercube", gen::hypercube(6, r)),
        ("random", gen::random_connected(80, 160, r)),
        ("tree", gen::random_tree(64, r)),
        ("barbell", gen::barbell(8, 10, r)),
        ("lollipop", gen::lollipop(10, 15, r)),
        ("cliquepath", gen::path_of_cliques(8, 5, r)),
        ("caterpillar", gen::caterpillar(12, 3, r)),
        ("broom", gen::broom(5, 8, r)),
        ("circulant", gen::circulant(50, &[7, 13], r)),
        ("tiny2", gen::path(2, r)),
        ("tiny3", gen::cycle(3, r)),
    ];
    for (label, g) in cases {
        check(&g, &ElkinConfig::default(), label);
    }
}

#[test]
fn bandwidth_and_k_sweeps() {
    let r = &mut gen::WeightRng::new(7);
    let g = gen::random_connected(70, 200, r);
    for b in [1u32, 2, 4, 8] {
        check(&g, &ElkinConfig::with_bandwidth(b), &format!("b={b}"));
    }
    for k in [1u64, 2, 3, 8, 20, 64] {
        check(&g, &ElkinConfig::with_k(k), &format!("k={k}"));
    }
}

#[test]
fn uncontrolled_merge_still_correct() {
    let r = &mut gen::WeightRng::new(9);
    let g = gen::grid_2d(6, 6, r);
    let cfg = ElkinConfig { merge_control: MergeControl::Uncontrolled, ..Default::default() };
    check(&g, &cfg, "uncontrolled");
}

#[test]
fn forest_invariants() {
    let r = &mut gen::WeightRng::new(5);
    let g = gen::random_connected(100, 300, r);
    for k in [2u64, 4, 10, 16] {
        let run = run_forest(&g, &ElkinConfig::with_k(k)).unwrap();
        let report = analyze_forest(&g, &run);
        assert!(
            report.num_fragments as u64 <= (2 * 100) / k + 1,
            "k={k}: too many fragments: {report:?}"
        );
        assert!(report.max_diameter <= 24 * k, "k={k}: diameter too large: {report:?}");
    }
}

#[test]
fn single_and_tiny_graphs() {
    let r = &mut gen::WeightRng::new(1);
    for n in [0, 1] {
        let g = WeightedGraph::new(n, vec![]).unwrap();
        let run = run_mst(&g, &ElkinConfig::default()).unwrap();
        assert!(run.edges.is_empty(), "n={n}");
        assert_eq!((run.k, run.bfs_height), (1, 0), "n={n}: the empty tree");
        let forest = run_forest(&g, &ElkinConfig::default()).unwrap();
        assert_eq!((forest.fragment_of.len(), forest.k), (n, 1), "n={n}");
    }
    check(&gen::path(2, r), &ElkinConfig::default(), "n=2");
}

#[test]
fn alternate_root() {
    let r = &mut gen::WeightRng::new(3);
    let g = gen::grid_2d(5, 5, r);
    let cfg = ElkinConfig { root: 24, ..Default::default() };
    check(&g, &cfg, "root=24");
}
