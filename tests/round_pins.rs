//! Exact round, message and wire-word pins for the T1 comparison
//! topologies: a count that moves fails `cargo test` instead of silently
//! drifting in the EXPERIMENTS.md tables.
//!
//! Every pin is the golden count of a healthy release run (the simulator
//! is deterministic, so debug/release measure identically), compared
//! exactly by [`dmst::testkit::assert_count_pin`]: a count that moves by
//! one, either way, fails until it is deliberately re-pinned.
//! `cargo run --release --example repin` prints every row below as the
//! literal this file holds. The n = 2304 cliquepath goldens are
//! `dmst_bench` constants, which `tests/large_scale.rs` and the T1 smoke
//! (`cargo bench --bench exp_t1_comparison -- --smoke`) both read.

use std::iter::successors;

use dmst::core::util::isqrt;
use dmst::core::{run_mst, ElkinConfig, Params, Schedule};
use dmst::graphs::{generators as gen, WeightedGraph};
use dmst::testkit::{assert_count_pin, Algorithm, CountPin};
use dmst_bench::{paper_k, standard_trio};

/// The T1 workload trio at n = 256 — the very graphs the
/// `exp_t1_comparison` tables measure (shared generator, same seed).
fn trio_256() -> Vec<(String, WeightedGraph)> {
    let trio = standard_trio(256, 0x51);
    assert_eq!(trio.len(), 4, "pins below are ordered for the 4-workload trio");
    trio.into_iter().map(|w| (w.name, w.graph)).collect()
}

/// The paper's Eq. (1) `k = max(sqrt(n), H)` (16, 16, 63 and 16 here):
/// larger than the automatic `k` (2, 2, 8 and 2), so Stage B runs three
/// more phases.
#[test]
fn elkin_paper_k_t1_trio_pins() {
    let pins = [
        CountPin::new(792, 13514, 18962),
        CountPin::new(726, 19388, 24152),
        CountPin::new(2630, 20014, 25354),
        CountPin::new(755, 14621, 19043),
    ];
    for ((label, g), pin) in trio_256().iter().zip(pins) {
        let algo = Algorithm::Elkin(ElkinConfig::with_k(paper_k(g, 1)));
        assert_count_pin(&algo, g, label, pin);
    }
}

#[test]
fn elkin_adaptive_t1_trio_pins() {
    let pins = [
        CountPin::new(256, 10913, 25122),
        CountPin::new(163, 12356, 19248),
        CountPin::new(819, 13901, 21589),
        CountPin::new(194, 6653, 14282),
    ];
    let algo = Algorithm::Elkin(ElkinConfig::default());
    for ((label, g), pin) in trio_256().iter().zip(pins) {
        assert_count_pin(&algo, g, label, pin);
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

/// Stage B lasts exactly its schedule: on every n = 256 trio row, at
/// `k` in {2, 4, 8, 16}, the rounds charged to Stage B equal the length of
/// the schedule the root broadcast. Every phase ends on its window, so
/// `choose_k_cost`'s Stage B term is exact.
///
/// At `k = 2` Stage B is the single phase 0, whose fragment ids are the
/// vertex ids Stage A's wave already delivered, so it sends no
/// `FragAnnounce`.
#[test]
fn stage_b_lasts_exactly_its_schedule() {
    for (label, g) in trio_256() {
        let n = g.num_nodes() as u64;
        for k in [2u64, 4, 8, 16] {
            let run =
                run_mst(&g, &ElkinConfig::with_k(k)).unwrap_or_else(|e| panic!("{label}: {e}"));
            let params = Params { n, h: run.bfs_height, k: run.k, t0: 0 };
            let scheduled = Schedule::new(&params).end();
            assert_eq!(
                run.stats.rounds_in_stage("b"),
                scheduled,
                "{label}, k = {k}: Stage B ran past its schedule"
            );
            if k == 2 {
                let announces = run.stats.messages_with_tag("b:announce");
                assert_eq!(announces, 0, "{label}: phase 0 announced");
            }
            // Stage D opens in the round Stage B ends: no "c" round and no
            // "c:" message stand between them.
            assert_eq!(run.stats.rounds_in_stage("c"), 0, "{label}, k = {k}");
            let c_tags: Vec<_> = run.stats.by_tag.keys().filter(|t| t.starts_with("c:")).collect();
            assert!(c_tags.is_empty(), "{label}, k = {k}: {c_tags:?}");
        }
    }
}

#[test]
fn baseline_t1_trio_pins() {
    let ghs_pins = [
        CountPin::new(406, 10921, 12763),
        CountPin::new(228, 15237, 17135),
        CountPin::new(1319, 14921, 17265),
        CountPin::new(1064, 5884, 6394),
    ];
    // The Pipeline baseline's phase 1 reuses `run_forest` at k = isqrt(n),
    // so it rides the same Stage B schedule.
    let pipe_pins = [
        CountPin::new(738, 15211, 25624),
        CountPin::new(670, 19184, 28116),
        CountPin::new(972, 17386, 27382),
        CountPin::new(746, 18583, 31986),
    ];
    for ((label, g), (ghs, pipe)) in trio_256().iter().zip(ghs_pins.into_iter().zip(pipe_pins)) {
        assert_count_pin(&Algorithm::Ghs, g, label, ghs);
        assert_count_pin(&Algorithm::Pipeline, g, label, pipe);
    }
}

/// A mid-size pin on the high-diameter cliquepath (n = 1024), between the
/// n = 256 trio and the n = 2304 goldens.
#[test]
fn elkin_adaptive_cliquepath_1024_pin() {
    let r = &mut gen::WeightRng::new(0x51);
    let g = gen::path_of_cliques(128, 8, r);
    assert_count_pin(
        &Algorithm::Elkin(ElkinConfig::default()),
        &g,
        "cliquepath 128x8",
        CountPin::new(3161, 80723, 113895),
    );
}

/// A mid-size pin on a random graph (n = 1024, m = 3072): the row whose
/// Stage D receives `Candidate`s one phase early, which the receiver
/// parks until its own phase rolls. Without it no tier-1 row takes that
/// path.
#[test]
fn elkin_adaptive_random_1024_pin() {
    let g = gen::random_connected(1024, 3072, &mut gen::WeightRng::new(0));
    assert_count_pin(
        &Algorithm::Elkin(ElkinConfig::default()),
        &g,
        "random n=1024 m=3072",
        CountPin::new(314, 61786, 100525),
    );
}
