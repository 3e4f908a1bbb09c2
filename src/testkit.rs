//! Shared conformance harness: every distributed MST algorithm in the
//! workspace, tested through one scenario matrix against one oracle.
//!
//! The headline invariant of the reproduction — *distributed MST ≡
//! sequential MST* — used to be re-implemented ad hoc by each integration
//! suite. This module centralizes it:
//!
//! * [`Algorithm`] names one algorithm under test (Elkin under a specific
//!   [`ElkinConfig`], GHS, Pipeline) behind a single [`Algorithm::run`]
//!   entry point returning canonical sorted MST edge ids;
//! * [`assert_matches_oracle`] / [`assert_all_match`] compare a run against
//!   the golden Kruskal tree and panic with a labelled diagnostic;
//! * [`family_matrix`], [`config_matrix`], and [`WeightPattern`] span the
//!   scenario space (graph family × `ElkinConfig` knobs × bandwidth ×
//!   adversarial weight patterns);
//! * [`for_each_connected_graph`] enumerates *every* connected labelled
//!   graph on `n` vertices for exhaustive small-graph sweeps;
//! * [`assert_forest_invariants`] checks Controlled-GHS output against the
//!   fragment-shape guarantees of Theorem 4.3.
//!
//! ```
//! use dmst::testkit;
//! use dmst::graphs::generators as gen;
//!
//! let g = gen::grid_2d(4, 4, &mut gen::WeightRng::new(11));
//! testkit::assert_all_match(&g, "doc-grid"); // Elkin + GHS + Pipeline vs Kruskal
//! ```

use crate::baselines::{run_ghs, run_pipeline};
use crate::congest::RunStats;
use crate::core::{analyze_forest, run_forest, run_mst, ElkinConfig};
use crate::graphs::{generators as gen, mst, EdgeId, UnionFind, WeightedGraph};

/// One distributed MST algorithm under conformance test.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Algorithm {
    /// Elkin's algorithm (PODC 2017) under the given configuration.
    Elkin(ElkinConfig),
    /// The GHS83/CT85-style synchronous Borůvka baseline.
    Ghs,
    /// The GKP98 Pipeline baseline (Controlled-GHS + pipelined upcast).
    Pipeline,
}

impl Algorithm {
    /// The algorithms under conformance test, each in its default
    /// configuration: Elkin and the two baselines.
    pub fn all() -> Vec<Algorithm> {
        vec![Algorithm::Elkin(ElkinConfig::default()), Algorithm::Ghs, Algorithm::Pipeline]
    }

    /// Display name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            Algorithm::Elkin(_) => "elkin",
            Algorithm::Ghs => "ghs",
            Algorithm::Pipeline => "pipeline",
        }
    }

    /// Runs the algorithm, returning canonical sorted MST edge ids and the
    /// runner's *self-reported* total weight (checked independently against
    /// the oracle by [`assert_matches_oracle`], pinning the reporting path).
    ///
    /// # Errors
    ///
    /// Stringified runner error (disconnected input, simulator violation,
    /// inconsistent output).
    pub fn run(&self, g: &WeightedGraph) -> Result<(Vec<EdgeId>, u128), String> {
        self.run_stats(g).map(|(edges, weight, _)| (edges, weight))
    }

    /// Like [`Algorithm::run`], but also returns the simulator's
    /// [`RunStats`] — the raw material for exact count pins.
    ///
    /// # Errors
    ///
    /// Stringified runner error, as for [`Algorithm::run`].
    pub fn run_stats(&self, g: &WeightedGraph) -> Result<(Vec<EdgeId>, u128, RunStats), String> {
        match self {
            Algorithm::Elkin(cfg) => run_mst(g, cfg)
                .map(|r| (r.edges, r.total_weight, r.stats))
                .map_err(|e| e.to_string()),
            Algorithm::Ghs => {
                run_ghs(g).map(|r| (r.edges, r.total_weight, r.stats)).map_err(|e| e.to_string())
            }
            Algorithm::Pipeline => run_pipeline(g)
                .map(|r| (r.edges, r.total_weight, r.stats))
                .map_err(|e| e.to_string()),
        }
    }
}

/// The exact golden counts of one `(algorithm, workload)` pair: rounds,
/// messages and wire words of a healthy run. [`assert_count_pin`] turns the
/// pin into a regression test that fails `cargo test` instead of silently
/// drifting in EXPERIMENTS.md tables.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CountPin {
    /// Golden number of rounds.
    pub rounds: u64,
    /// Golden number of messages.
    pub messages: u64,
    /// Golden number of encoded wire words.
    pub wire_words: u64,
}

impl CountPin {
    /// A pin of these three counts.
    pub fn new(rounds: u64, messages: u64, wire_words: u64) -> Self {
        Self { rounds, messages, wire_words }
    }

    /// The counts a run measured.
    pub fn of(stats: &RunStats) -> Self {
        Self::new(stats.rounds, stats.messages, stats.wire_words)
    }
}

/// Runs `algo` on `g`, asserts the MST matches the Kruskal oracle, and
/// asserts the run's rounds, messages and wire words equal `pin` exactly.
/// The simulator is fully deterministic, so equal inputs give bit-equal
/// counts: any change, up or down, must re-pin deliberately
/// (`cargo run --release --example repin` prints every pin).
///
/// # Panics
///
/// Panics with `label`, the algorithm name, and the measured-vs-pinned
/// counts on any violation.
pub fn assert_count_pin(algo: &Algorithm, g: &WeightedGraph, label: &str, pin: CountPin) {
    let truth = mst::kruskal(g);
    let (edges, _, stats) =
        algo.run_stats(g).unwrap_or_else(|e| panic!("{} failed on {label}: {e}", algo.name()));
    assert_eq!(edges, truth.edges, "{} produced a wrong MST on {label}", algo.name());
    assert_eq!(CountPin::of(&stats), pin, "{} counts moved on {label}; re-pin", algo.name());
}

/// Runs `algo` on `g` and asserts its output equals the golden Kruskal MST
/// (edge ids *and* total weight).
///
/// # Panics
///
/// Panics with `label` and the algorithm name on any mismatch or run error.
pub fn assert_matches_oracle(algo: &Algorithm, g: &WeightedGraph, label: &str) {
    let truth = mst::kruskal(g);
    let (edges, reported_weight) =
        algo.run(g).unwrap_or_else(|e| panic!("{} failed on {label}: {e}", algo.name()));
    assert_eq!(edges, truth.edges, "{} produced a wrong MST on {label}", algo.name());
    assert_eq!(
        reported_weight,
        truth.total_weight,
        "{} self-reported tree weight mismatch on {label}",
        algo.name()
    );
}

/// Asserts every algorithm in [`Algorithm::all`] (Elkin, GHS, Pipeline;
/// default configurations) matches the Kruskal oracle on `g`.
///
/// # Panics
///
/// Panics with `label` on the first mismatch.
pub fn assert_all_match(g: &WeightedGraph, label: &str) {
    for algo in Algorithm::all() {
        assert_matches_oracle(&algo, g, label);
    }
}

/// The named graph-family matrix: one representative per generator,
/// spanning the paper's low-diameter, high-diameter, tree, and adversarial
/// regimes. Structure and weights are drawn deterministically from `rng`.
pub fn family_matrix(rng: &mut gen::WeightRng) -> Vec<(&'static str, WeightedGraph)> {
    vec![
        ("path", gen::path(48, rng)),
        ("cycle", gen::cycle(47, rng)),
        ("complete", gen::complete(20, rng)),
        ("star", gen::star(33, rng)),
        ("binary-tree", gen::binary_tree(40, rng)),
        ("random-tree", gen::random_tree(50, rng)),
        ("grid", gen::grid_2d(6, 8, rng)),
        ("torus", gen::torus_2d(5, 8, rng)),
        ("hypercube", gen::hypercube(5, rng)),
        ("circulant", gen::circulant(40, &[9, 17], rng)),
        ("random", gen::random_connected(72, 180, rng)),
        ("barbell", gen::barbell(7, 9, rng)),
        ("lollipop", gen::lollipop(9, 12, rng)),
        ("cliquepath", gen::path_of_cliques(9, 4, rng)),
        ("caterpillar", gen::caterpillar(10, 3, rng)),
        ("broom", gen::broom(4, 7, rng)),
        ("snake", gen::snake_torus(6, 6, rng)),
    ]
}

/// The `ElkinConfig` knob matrix for a graph on `n` vertices: bandwidth ×
/// `k` override × shard count × root placement. Roots
/// outside `0..n` are clamped away, and duplicate configurations are
/// removed.
pub fn config_matrix(n: usize) -> Vec<ElkinConfig> {
    let mut out = Vec::new();
    for bandwidth in [1u32, 2, 3, 8] {
        for k_override in [None, Some(1), Some(5), Some(16), Some(200)] {
            for shards in [1, 2] {
                for root in [0, n / 3, n.saturating_sub(1)] {
                    let cfg = ElkinConfig { bandwidth, k_override, root, shards };
                    if !out.contains(&cfg) {
                        out.push(cfg);
                    }
                }
            }
        }
    }
    out
}

/// An adversarial weight pattern, stressing tie-breaking and ordering.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WeightPattern {
    /// Weights `1..=m` in edge order.
    Ascending,
    /// Weights `m..=1` in edge order.
    Descending,
    /// All edges share one weight (pure tie-breaking).
    Equal,
}

impl WeightPattern {
    /// Every pattern, in the order [`for_each_connected_graph`] visits them.
    pub const ALL: [WeightPattern; 3] =
        [WeightPattern::Ascending, WeightPattern::Descending, WeightPattern::Equal];

    /// The concrete weight vector for a graph with `m` edges.
    pub fn weights(self, m: usize) -> Vec<u64> {
        match self {
            WeightPattern::Ascending => (1..=m as u64).collect(),
            WeightPattern::Descending => (1..=m as u64).rev().collect(),
            WeightPattern::Equal => vec![7; m],
        }
    }
}

/// Enumerates every connected labelled graph on `n` vertices (every edge
/// subset of `K_n` that spans), weighted by every [`WeightPattern`], and
/// calls `f(graph, label, pattern)` on each. Returns `(distinct structures,
/// weighted graphs visited)`.
///
/// Feasible for `n <= 5` (38 structures on 4 vertices, 728 on 5).
///
/// # Panics
///
/// Panics if `n < 2` or `n > 5` (the sweep would be degenerate or
/// intractably large).
pub fn for_each_connected_graph<F>(n: usize, mut f: F) -> (u32, u32)
where
    F: FnMut(&WeightedGraph, &str, WeightPattern),
{
    assert!((2..=5).contains(&n), "exhaustive sweep supports 2..=5 vertices, got {n}");
    let mut pairs = Vec::new();
    for a in 0..n {
        for b in (a + 1)..n {
            pairs.push((a, b));
        }
    }
    let full = pairs.len();
    let mut structures = 0;
    let mut visited = 0;
    for mask in 1u32..(1 << full) {
        let chosen: Vec<(usize, usize)> =
            pairs.iter().enumerate().filter(|(i, _)| mask >> i & 1 == 1).map(|(_, &p)| p).collect();
        if chosen.len() < n - 1 {
            continue;
        }
        let mut uf = UnionFind::new(n);
        for &(a, b) in &chosen {
            uf.union(a, b);
        }
        if uf.num_sets() != 1 {
            continue;
        }
        structures += 1;
        for pattern in WeightPattern::ALL {
            let weights = pattern.weights(chosen.len());
            let edges: Vec<(usize, usize, u64)> =
                chosen.iter().zip(&weights).map(|(&(a, b), &w)| (a, b, w)).collect();
            let g = WeightedGraph::new(n, edges).expect("simple by construction");
            let label = format!("n={n} mask={mask:#b} pattern={pattern:?}");
            f(&g, &label, pattern);
            visited += 1;
        }
    }
    (structures, visited)
}

/// Runs Controlled-GHS with parameter `k` on `g` and checks the output
/// forest against Theorem 4.3's shape guarantees: at most `2n/k + 1`
/// fragments, strong diameter `O(k)`, and all structural invariants
/// enforced by [`analyze_forest`] (fragments are connected, uniquely
/// rooted, and consist of MST edges).
///
/// # Panics
///
/// Panics on any violated invariant.
pub fn assert_forest_invariants(g: &WeightedGraph, k: u64, label: &str) {
    let n = g.num_nodes() as u64;
    let run = run_forest(g, &ElkinConfig::with_k(k))
        .unwrap_or_else(|e| panic!("forest run failed on {label}: {e}"));
    let report = analyze_forest(g, &run); // panics internally on broken structure
    assert!(
        report.num_fragments as u64 <= 2 * n / k.min(n) + 1,
        "{label}: {} fragments exceed 2n/k + 1 for n={n}, k={k}",
        report.num_fragments
    );
    assert!(
        report.max_diameter <= 24 * k,
        "{label}: fragment diameter {} exceeds O(k) for k={k}",
        report.max_diameter
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn algorithm_names_and_all() {
        let all = Algorithm::all();
        let names: Vec<&str> = all.iter().map(Algorithm::name).collect();
        assert_eq!(names, ["elkin", "ghs", "pipeline"]);
    }

    #[test]
    fn count_pin_accepts_the_exact_counts() {
        let g = gen::path(12, &mut gen::WeightRng::new(3));
        let algo = Algorithm::Ghs;
        let (_, _, stats) = algo.run_stats(&g).unwrap();
        assert_count_pin(&algo, &g, "self-pin", CountPin::of(&stats));
    }

    #[test]
    fn count_pin_rejects_any_count_off_by_one() {
        let g = gen::path(12, &mut gen::WeightRng::new(3));
        let algo = Algorithm::Ghs;
        let (_, _, stats) = algo.run_stats(&g).unwrap();
        let exact = CountPin::of(&stats);
        for delta in [-1i64, 1] {
            let off = |count: u64| count.checked_add_signed(delta).unwrap();
            let pins = [
                CountPin { rounds: off(exact.rounds), ..exact },
                CountPin { messages: off(exact.messages), ..exact },
                CountPin { wire_words: off(exact.wire_words), ..exact },
            ];
            for pin in pins {
                let check = || assert_count_pin(&algo, &g, "off-by-one", pin);
                let failed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(check)).is_err();
                assert!(failed, "{pin:?} passed against {exact:?}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "counts moved on too-tight-pin")]
    fn round_budget_rejects_regression() {
        let g = gen::path(12, &mut gen::WeightRng::new(3));
        let algo = Algorithm::Ghs;
        let (_, _, stats) = algo.run_stats(&g).unwrap();
        // Pin one round below the measured counts: the run must trip the pin.
        let pin = CountPin { rounds: stats.rounds - 1, ..CountPin::of(&stats) };
        assert_count_pin(&algo, &g, "too-tight-pin", pin);
    }

    #[test]
    #[should_panic(expected = "counts moved on stale-pin")]
    fn round_budget_rejects_stale_pin() {
        let g = gen::path(12, &mut gen::WeightRng::new(3));
        let algo = Algorithm::Ghs;
        let (_, _, stats) = algo.run_stats(&g).unwrap();
        // Pin one message above the measured counts: a run that got cheaper must re-pin.
        let pin = CountPin { messages: stats.messages + 1, ..CountPin::of(&stats) };
        assert_count_pin(&algo, &g, "stale-pin", pin);
    }

    #[test]
    fn config_matrix_is_deduplicated_and_valid() {
        let cfgs = config_matrix(10);
        for (i, a) in cfgs.iter().enumerate() {
            assert!(a.root < 10);
            assert!(a.bandwidth >= 1);
            assert!(cfgs[i + 1..].iter().all(|b| b != a), "duplicate config {a:?}");
        }
        // n small enough that the three root choices collapse partially.
        assert!(config_matrix(2).len() < cfgs.len());
    }

    #[test]
    fn family_matrix_is_deterministic_and_connected() {
        let a = family_matrix(&mut gen::WeightRng::new(5));
        let b = family_matrix(&mut gen::WeightRng::new(5));
        assert_eq!(a.len(), 17);
        for ((la, ga), (lb, gb)) in a.iter().zip(&b) {
            assert_eq!(la, lb);
            assert_eq!(ga, gb, "family {la} not deterministic");
            assert!(ga.is_connected(), "family {la} disconnected");
        }
    }

    #[test]
    fn exhaustive_enumeration_counts_n3() {
        // 4 connected labelled graphs on 3 vertices: three 2-edge paths + K3.
        let mut equal_patterns = 0;
        let (structures, visited) = for_each_connected_graph(3, |g, _, pattern| {
            assert!(g.is_connected());
            if pattern == WeightPattern::Equal {
                equal_patterns += 1;
                assert!(g.edges().iter().all(|&(_, _, w)| w == g.edges()[0].2));
            }
        });
        assert_eq!(equal_patterns, 4, "every structure must visit the Equal pattern");
        assert_eq!(structures, 4);
        assert_eq!(visited, 4 * 3);
    }

    #[test]
    #[should_panic(expected = "failed on disconnected-pair")]
    fn run_errors_panic_through_the_harness() {
        let g = WeightedGraph::new(4, vec![(0, 1, 1), (2, 3, 1)]).unwrap();
        assert_matches_oracle(&Algorithm::Ghs, &g, "disconnected-pair");
    }
}
