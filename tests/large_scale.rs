//! Large-scale validation, ignored by default (minutes of CPU in debug
//! builds). Run explicitly with:
//!
//! ```text
//! cargo test --release --test large_scale -- --ignored
//! ```

use dmst::baselines::run_pipeline;
use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{generators as gen, mst};

/// Promoted from the `#[ignore]`d set: the T1 cliquepath at n = 2304 runs
/// in the default suite. Its goldens are 6898 rounds in total and 2535 in
/// Stage D, within ~6% of the 4H + 2k = 2396-round floor of the two
/// Borůvka phases this workload needs (H = 575, k = 48; see EXPERIMENTS.md
/// S1). The caps are those goldens with the suite's standard 10% slack;
/// `exp_t1_comparison -- --smoke` re-checks the total in release CI
/// together with a fixed 2590-round Stage D ceiling.
#[test]
fn cliquepath_2304_adaptive_within_budget() {
    let g = dmst_bench::standard_trio(2304, 0x51)
        .into_iter()
        .find(|w| w.name.starts_with("cliquepath"))
        .expect("trio contains a cliquepath")
        .graph;
    let truth = mst::kruskal(&g);
    let run = run_mst(&g, &ElkinConfig::default()).expect("run");
    assert_eq!(run.edges, truth.edges);
    assert!(
        run.stats.rounds <= 7588,
        "cliquepath rounds {} exceed the 6898-round golden (+10%)",
        run.stats.rounds
    );
    assert!(
        run.stats.rounds_in_stage("d") <= 2789,
        "cliquepath Stage D rounds {} exceed the 2535-round golden (+10%)",
        run.stats.rounds_in_stage("d")
    );
}

/// The executor-rebuild acceptance run: one million vertices, all three
/// stages, through the *sharded* executor, checked against the Kruskal
/// oracle. Sharding is forced (`shards: 2`) so the cross-shard delivery
/// path runs at scale even on a single-core runner; the stats are
/// bit-identical to a sequential run by the determinism gate
/// (`crates/congest/tests/determinism.rs`, `tests/dual_executor.rs`).
/// Release CI runs it with the rest of this suite (see
/// `.github/workflows/ci.yml`); see EXPERIMENTS.md "Simulator throughput"
/// for the measured wallclock.
#[test]
#[ignore = "large: run with --release -- --ignored"]
fn million_vertex_random_end_to_end() {
    let r = &mut gen::WeightRng::new(0x5CA1E);
    let g = gen::random_connected(1_000_000, 2_000_000, r);
    let truth = mst::kruskal(&g);
    let cfg = ElkinConfig { shards: 2, ..ElkinConfig::default() };
    let run = run_mst(&g, &cfg).expect("million-vertex run");
    assert_eq!(run.edges, truth.edges, "MST must match the oracle at n = 10^6");
    let total: u64 = run.stats.rounds_by_stage.values().sum();
    assert_eq!(total, run.stats.rounds, "stage census must partition the rounds");
    assert!(
        run.stats.rounds_in_stage("d") > 0,
        "all three stages must actually execute (got {:?})",
        run.stats.rounds_by_stage
    );
}

#[test]
#[ignore = "large: run with --release -- --ignored"]
fn torus_16k_all_checks() {
    let r = &mut gen::WeightRng::new(0x16);
    let g = gen::torus_2d(128, 128, r); // n = 16384, D = 128 = sqrt(n)
    let truth = mst::kruskal(&g);
    let run = run_mst(&g, &ElkinConfig::default()).expect("run");
    assert_eq!(run.edges, truth.edges);
    // Theorem 3.1 with the same constant as tests/bounds.rs.
    let n = g.num_nodes() as f64;
    let bound = 60.0 * (128.0 + n.sqrt()) * n.log2().ceil();
    assert!((run.stats.rounds as f64) < bound);
}

#[test]
#[ignore = "large: run with --release -- --ignored"]
fn random_16k_bandwidth_sweep() {
    let r = &mut gen::WeightRng::new(0x17);
    let g = gen::random_connected(16384, 3 * 16384, r);
    let truth = mst::kruskal(&g);
    let mut prev_rounds = u64::MAX;
    for b in [1u32, 8, 64] {
        let run = run_mst(&g, &ElkinConfig::with_bandwidth(b)).expect("run");
        assert_eq!(run.edges, truth.edges, "b = {b}");
        assert!(run.stats.rounds <= prev_rounds, "rounds must not grow with b");
        prev_rounds = run.stats.rounds;
    }
}

#[test]
#[ignore = "large: run with --release -- --ignored"]
fn cliquepath_4608_matches_oracle() {
    let r = &mut gen::WeightRng::new(0x19);
    let g = gen::path_of_cliques(576, 8, r); // n = 4608, D = Θ(n)
    let run = run_mst(&g, &ElkinConfig::default()).expect("run");
    assert_eq!(run.edges, mst::kruskal(&g).edges);
}

#[test]
#[ignore = "large: run with --release -- --ignored"]
fn snake_8k_pipeline_vs_elkin() {
    let r = &mut gen::WeightRng::new(0x18);
    let g = gen::snake_torus(90, 90, r); // n = 8100
    let truth = mst::kruskal(&g);
    let elkin = run_mst(&g, &ElkinConfig::default()).expect("elkin");
    let pipe = run_pipeline(&g).expect("pipeline");
    assert_eq!(elkin.edges, truth.edges);
    assert_eq!(pipe.edges, truth.edges);
    assert!(
        pipe.stats.messages > elkin.stats.messages,
        "at n = 8100 the pipeline's n^(3/2) broadcast must dominate"
    );
}
