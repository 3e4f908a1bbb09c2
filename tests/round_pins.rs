//! Pinned round/message budgets for the T1 comparison topologies: perf
//! regressions now fail `cargo test` instead of silently drifting in the
//! EXPERIMENTS.md tables.
//!
//! Every pin is a golden count from a healthy release run (the simulator
//! is deterministic, so debug/release measure identically) with the
//! standard 10% slack of [`dmst::testkit::RoundBudget`]. A measured count
//! above `pin * 1.10` is a regression; far below `pin / 2.2` the pin is
//! stale and must be consciously re-measured (see EXPERIMENTS.md for the
//! snapshot these numbers come from).
//!
//! The n = 256 trio runs in the default suite; the n = 2304 cliquepath
//! ratio check (the adaptive-scheduling acceptance bar) is `#[ignore]`d
//! for debug runs and executed in release by CI alongside
//! `cargo bench --bench exp_t1_comparison -- --smoke`.

use std::iter::successors;

use dmst::core::util::isqrt;
use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{generators as gen, WeightedGraph};
use dmst::testkit::{assert_round_budget, Algorithm, RoundBudget};
use dmst_bench::standard_trio;

/// The T1 workload trio at n = 256 — the very graphs the
/// `exp_t1_comparison` tables measure (shared generator, same seed).
fn trio_256() -> Vec<(String, WeightedGraph)> {
    let trio = standard_trio(256, 0x51);
    assert_eq!(trio.len(), 4, "pins below are ordered for the 4-workload trio");
    trio.into_iter().map(|w| (w.name, w.graph)).collect()
}

#[test]
fn elkin_fixed_t1_trio_pins() {
    let pins = [
        RoundBudget::new(1098, 23954),
        RoundBudget::new(992, 31976),
        RoundBudget::new(3515, 37690),
        RoundBudget::new(1022, 23798),
    ];
    let algo = Algorithm::Elkin(ElkinConfig::fixed());
    for ((label, g), pin) in trio_256().iter().zip(&pins) {
        assert_round_budget(&algo, g, label, pin);
    }
}

#[test]
fn elkin_adaptive_t1_trio_pins() {
    let pins = [
        RoundBudget::new(310, 15811),
        RoundBudget::new(198, 17701),
        RoundBudget::new(1150, 29773),
        RoundBudget::new(231, 11146),
    ];
    let algo = Algorithm::Elkin(ElkinConfig::default());
    for ((label, g), pin) in trio_256().iter().zip(&pins) {
        assert_round_budget(&algo, g, label, pin);
    }
}

/// The k-choice guard: on every n = 256 trio row, the automatic `k` needs
/// at most 1.5x the rounds of the best power-of-two `k` in `2..=isqrt(n)`,
/// and no more messages than the paper's `k = isqrt(n)`.
#[test]
fn auto_k_is_near_optimal_on_t1_trio() {
    for (label, g) in trio_256() {
        let stats =
            |cfg: ElkinConfig| run_mst(&g, &cfg).unwrap_or_else(|e| panic!("{label}: {e}")).stats;
        let auto = run_mst(&g, &ElkinConfig::default()).expect("auto run");
        let cap = isqrt(g.num_nodes() as u64);
        let (best_k, best) = successors(Some(2u64), |k| Some(2 * k))
            .take_while(|&k| k <= cap)
            .map(|k| (k, stats(ElkinConfig::with_k(k)).rounds))
            .min_by_key(|&(_, rounds)| rounds)
            .expect("n = 256 admits k = 2");
        assert!(
            2 * auto.stats.rounds <= 3 * best,
            "{label}: auto k = {} takes {} rounds, past 1.5x the {best} of k = {best_k}",
            auto.k,
            auto.stats.rounds
        );
        let paper = stats(ElkinConfig::with_k(cap)).messages;
        assert!(
            auto.stats.messages <= paper,
            "{label}: auto k = {} sends {} messages, more than the {paper} of k = {cap}",
            auto.k,
            auto.stats.messages
        );
    }
}

#[test]
fn baseline_t1_trio_pins() {
    let ghs_pins = [
        RoundBudget::new(406, 10921),
        RoundBudget::new(228, 15237),
        RoundBudget::new(1319, 14921),
        RoundBudget::new(1064, 5884),
    ];
    // The Pipeline baseline's phase 1 reuses `run_forest`, so it also
    // rides the (now default) adaptive Stage B schedule.
    let pipe_pins = [
        RoundBudget::new(907, 24294),
        RoundBudget::new(817, 32419),
        RoundBudget::new(1115, 27278),
        RoundBudget::new(901, 27641),
    ];
    for ((label, g), (ghs, pipe)) in trio_256().iter().zip(ghs_pins.iter().zip(&pipe_pins)) {
        assert_round_budget(&Algorithm::Ghs, g, label, ghs);
        assert_round_budget(&Algorithm::Pipeline, g, label, pipe);
    }
}

/// The tentpole guard at a mid size: on the high-diameter cliquepath the
/// adaptive schedule must keep holding its ~3.2x win over Fixed (pinned
/// absolutely so the test costs one adaptive run, not a slow fixed one).
#[test]
fn elkin_adaptive_cliquepath_1024_pin() {
    let r = &mut gen::WeightRng::new(0x51);
    let g = gen::path_of_cliques(128, 8, r);
    assert_round_budget(
        &Algorithm::Elkin(ElkinConfig::default()),
        &g,
        "cliquepath 128x8",
        &RoundBudget::new(4392, 170_187),
    );
}

/// The acceptance bar of the adaptive-scheduling change, verbatim: T1
/// cliquepath n = 2304 total rounds under `ScheduleMode::Adaptive` is at
/// most 1/3 of the Fixed baseline. Release-only (CI runs it with
/// `--include-ignored`); the Fixed run alone is ~51k rounds.
#[test]
#[ignore = "release-scale: run with --release -- --include-ignored"]
fn adaptive_cliquepath_2304_is_three_times_faster() {
    let g = standard_trio(2304, 0x51)
        .into_iter()
        .find(|w| w.name.starts_with("cliquepath"))
        .expect("trio contains a cliquepath")
        .graph;
    let fixed = Algorithm::Elkin(ElkinConfig::fixed());
    let adaptive = Algorithm::Elkin(ElkinConfig::default());
    let (fe, _, fs) = fixed.run_stats(&g).expect("fixed run");
    let (ae, _, als) = adaptive.run_stats(&g).expect("adaptive run");
    assert_eq!(fe, ae, "schedule mode changed the MST");
    assert!(
        3 * als.rounds <= fs.rounds,
        "adaptive ({}) must be <= 1/3 of fixed ({}) on the n=2304 cliquepath",
        als.rounds,
        fs.rounds
    );
}
