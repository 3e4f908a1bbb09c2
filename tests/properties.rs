//! Property-based tests: the headline invariant (distributed MST ==
//! sequential MST) on randomly generated graphs and configurations, plus
//! structural invariants of the substrate.

use proptest::prelude::*;

use dmst::core::{analyze_forest, run_forest, run_mst, ElkinConfig};
use dmst::graphs::{generators as gen, mst, UnionFind, WeightedGraph};

/// Strategy: a connected random graph with `n` in [2, 40], arbitrary extra
/// chords, and arbitrary (possibly colliding) weights.
fn connected_graph() -> impl Strategy<Value = WeightedGraph> {
    (2usize..40, 0usize..80, any::<u64>(), 1u64..1000).prop_map(|(n, extra, seed, wmax)| {
        let r = &mut gen::WeightRng::new(seed);
        let g = gen::random_connected(n, extra, r);
        // Re-draw weights in a small range so collisions are common and the
        // tie-breaking path is exercised hard.
        let edges = g.edges().iter().map(|&(u, v, w)| (u, v, w % wmax + 1)).collect();
        WeightedGraph::new(n, edges).expect("structure unchanged")
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    /// The flagship property: Elkin's distributed MST equals Kruskal's on
    /// arbitrary connected graphs with arbitrary (colliding) weights.
    #[test]
    fn distributed_equals_sequential(g in connected_graph(), b in 1u32..4) {
        let truth = mst::kruskal(&g);
        let cfg = ElkinConfig { bandwidth: b, ..ElkinConfig::default() };
        let run = run_mst(&g, &cfg).expect("run succeeds on connected input");
        prop_assert_eq!(run.edges, truth.edges);
    }

    /// Regression for the fused-phase argmin race: the Mark walk retraces
    /// the remembered argmin path through per-phase `DScratch` that the
    /// `NewCoarse` roll replaces — under the barrier protocol a late hop
    /// hit scratch the phase barrier had already reset (the `unreachable!`
    /// in `ElkinNode::walk`). The fix is ordering, not state: each
    /// `Path(Walk::Mark)` hop is sent before the same edge's `NewCoarse`, so
    /// per-edge FIFO delivers it while the phase-`j` selection is intact.
    /// Drive deep fragment trees (tall caterpillar MSTs, forced `k`) with
    /// colliding weights: a mis-ordered roll either trips that
    /// `unreachable!` or leaves a chosen edge marked on one endpoint only,
    /// which `run_mst` rejects as `BadOutput` — so a clean pass asserts
    /// every chosen edge was marked on both endpoints, every phase.
    #[test]
    fn argmin_path_marks_survive_fused_phase_rolls(
        spine in 4usize..40,
        legs in 0usize..3,
        k in 2u64..40,
        seed in any::<u64>(),
        wmax in 1u64..20,
    ) {
        let r = &mut gen::WeightRng::new(seed);
        let g = gen::caterpillar(spine, legs, r);
        // Colliding weights exercise the tie-broken argmin selection.
        let edges = g.edges().iter().map(|&(u, v, w)| (u, v, w % wmax + 1)).collect();
        let g = WeightedGraph::new(g.num_nodes(), edges).expect("structure unchanged");
        let truth = mst::kruskal(&g);
        let cfg = ElkinConfig { k_override: Some(k), ..ElkinConfig::default() };
        let run = run_mst(&g, &cfg).expect("fused-phase marks must stay symmetric");
        prop_assert_eq!(&run.edges, &truth.edges);
    }

    /// The three sequential oracles agree with each other.
    #[test]
    fn sequential_oracles_agree(g in connected_graph()) {
        let k = mst::kruskal(&g);
        prop_assert_eq!(&k, &mst::prim(&g));
        prop_assert_eq!(&k, &mst::boruvka(&g));
        prop_assert!(g.is_spanning_tree(&k.edges));
    }

    /// Controlled-GHS forests satisfy Theorem 4.3's shape for random k.
    #[test]
    fn forest_shape(g in connected_graph(), k in 1u64..64) {
        let n = g.num_nodes() as u64;
        let run = run_forest(&g, &ElkinConfig::with_k(k)).expect("forest run");
        let report = analyze_forest(&g, &run); // panics on broken invariants
        prop_assert!(report.num_fragments as u64 <= 2 * n / k.min(n) + 1);
        prop_assert!(report.max_diameter <= 24 * k);
    }

    /// The Cole–Vishkin ladder six-colors arbitrary rooted forests properly.
    #[test]
    fn cv_six_colors_forests(parents in proptest::collection::vec(0usize..20, 1..60)) {
        // parent[v] = some earlier vertex (or MAX for roots).
        let parent: Vec<usize> = parents
            .iter()
            .enumerate()
            .map(|(v, &p)| if v == 0 || p >= v { usize::MAX } else { p })
            .collect();
        let colors = dmst::core::cv::six_color_forest(&parent);
        for (v, &p) in parent.iter().enumerate() {
            prop_assert!(colors[v] < 6);
            if p != usize::MAX {
                prop_assert_ne!(colors[v], colors[p]);
            }
        }
    }

    /// Union–find agrees with a naive component count.
    #[test]
    fn union_find_counts_components(
        n in 1usize..30,
        edges in proptest::collection::vec((0usize..30, 0usize..30), 0..60),
    ) {
        let mut uf = UnionFind::new(n);
        let mut adj = vec![Vec::new(); n];
        for &(a, b) in &edges {
            let (a, b) = (a % n, b % n);
            uf.union(a, b);
            adj[a].push(b);
            adj[b].push(a);
        }
        // Naive DFS component count.
        let mut seen = vec![false; n];
        let mut comps = 0;
        for s in 0..n {
            if seen[s] { continue; }
            comps += 1;
            let mut stack = vec![s];
            seen[s] = true;
            while let Some(v) = stack.pop() {
                for &u in &adj[v] {
                    if !seen[u] { seen[u] = true; stack.push(u); }
                }
            }
        }
        prop_assert_eq!(uf.num_sets(), comps);
    }

    /// Generator sanity: every family is simple, connected, right-sized.
    #[test]
    fn generators_simple_connected(seed in any::<u64>(), n in 3usize..30) {
        let r = &mut gen::WeightRng::new(seed);
        for g in [
            gen::path(n, r),
            gen::cycle(n, r),
            gen::star(n, r),
            gen::random_tree(n, r),
            gen::random_connected(n, n, r),
        ] {
            prop_assert!(g.is_connected());
            prop_assert!(g.num_edges() >= n - 1);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The two baselines also match Kruskal on arbitrary connected inputs
    /// (fewer cases: the GHS baseline is deliberately slow on tall MSTs).
    #[test]
    fn baselines_equal_sequential(g in connected_graph()) {
        let truth = mst::kruskal(&g);
        let ghs = dmst::baselines::run_ghs(&g).expect("ghs run");
        prop_assert_eq!(&ghs.edges, &truth.edges);
        let pipe = dmst::baselines::run_pipeline(&g).expect("pipeline run");
        prop_assert_eq!(&pipe.edges, &truth.edges);
    }

    /// DIMACS round trip is the identity on arbitrary graphs.
    #[test]
    fn dimacs_roundtrip(g in connected_graph()) {
        let mut buf = Vec::new();
        dmst::graphs::io::write_dimacs(&g, &mut buf).expect("write");
        let back = dmst::graphs::io::parse_dimacs(buf.as_slice()).expect("parse");
        prop_assert_eq!(g, back);
    }
}
