//! Experiment T1 — the paper's §1.1 comparison table, measured.
//!
//! | algorithm | time | messages |
//! |---|---|---|
//! | GHS83/CT85 | `O(n log n)`-ish | `O(m + n log n)` |
//! | GKP98 Pipeline | `O(D + sqrt(n) log* n)` | `O(m + n^{3/2})` |
//! | Elkin 2017 | `O((D + sqrt(n)) log n)` | `O(m log n + n log n log* n)` |
//!
//! Expected shape: GHS wins on messages but pays heavily in rounds on
//! high-diameter inputs; Pipeline is fast but message-hungry as `n` grows;
//! Elkin is close to Pipeline's speed at near-GHS message volume. The
//! `elkin-adaptive` rows add the `ScheduleMode::Adaptive` knob (same MST,
//! tighter Stage B scheduling, `k` from a fitted round model) — on the
//! high-diameter cliquepath it removes most of Elkin's fixed-window
//! penalty, elsewhere the smaller `k` cuts rounds and messages alike.
//!
//! Pass `--smoke` to run only the CI guard: the n = 2304 cliquepath in
//! both modes (asserting the >= 3x adaptive win, the fused-Stage-D round
//! budgets, the Stage D share ceiling, and per-row total-wire-word
//! ceilings at measured x 1.1) plus one low-diameter sanity point.

use dmst_baselines::{run_ghs, run_pipeline};
use dmst_bench::{banner, header, row, standard_trio};
use dmst_core::{run_mst, ElkinConfig};

fn smoke() {
    banner(
        "T1 (smoke): adaptive-schedule + fused-Stage-D round budget guard",
        "cliquepath n=2304: Adaptive <= 1/3 of Fixed, total <= 8640, Stage D <= 2820 and <= 36% of the run; identical MST",
    );
    header(&["workload", "mode", "rounds", "stage D", "messages", "wire words"]);
    let cliquepath = standard_trio(2304, 0x51)
        .into_iter()
        .find(|w| w.name.starts_with("cliquepath"))
        .expect("trio contains a cliquepath");
    let fixed = run_mst(&cliquepath.graph, &ElkinConfig::fixed()).expect("fixed run");
    let ada = run_mst(&cliquepath.graph, &ElkinConfig::default()).expect("adaptive run");
    assert_eq!(fixed.edges, ada.edges, "schedule mode changed the MST");
    for (mode, run) in [("fixed", &fixed), ("adaptive", &ada)] {
        row(&[
            cliquepath.name.clone(),
            mode.to_string(),
            run.stats.rounds.to_string(),
            run.stats.rounds_in_stage("d").to_string(),
            run.stats.messages.to_string(),
            run.stats.wire_words.to_string(),
        ]);
    }
    assert!(
        3 * ada.stats.rounds <= fixed.stats.rounds,
        "adaptive ({}) must be <= 1/3 of fixed ({}) on the n=2304 cliquepath",
        ada.stats.rounds,
        fixed.stats.rounds
    );
    // Fused-Stage-D gates (PR 3): golden 7853 total / 2565 Stage D rounds
    // (+10% slack), plus a share ceiling so Stage D cannot quietly become
    // the bottleneck again. The measured Stage D sits within ~3% of the
    // 4H + 2k floor of this workload's two Borůvka phases.
    assert!(
        ada.stats.rounds <= 8640,
        "adaptive cliquepath total {} exceeds the 7853-round golden (+10%)",
        ada.stats.rounds
    );
    assert!(
        ada.stats.rounds_in_stage("d") <= 2820,
        "adaptive cliquepath Stage D {} exceeds the 2565-round golden (+10%)",
        ada.stats.rounds_in_stage("d")
    );
    assert!(
        100 * ada.stats.rounds_in_stage("d") <= 36 * ada.stats.rounds,
        "Stage D share {}/{} exceeds the 36% ceiling on the cliquepath",
        ada.stats.rounds_in_stage("d"),
        ada.stats.rounds
    );
    let torus = standard_trio(256, 0x51).into_iter().next().expect("trio has a torus");
    let tf = run_mst(&torus.graph, &ElkinConfig::fixed()).expect("torus fixed");
    let ta = run_mst(&torus.graph, &ElkinConfig::default()).expect("torus adaptive");
    assert_eq!(tf.edges, ta.edges);
    assert!(ta.stats.rounds <= tf.stats.rounds, "adaptive must not regress the torus");
    // Total-wire-words gate, one ceiling per smoke row: the measured
    // encoded volume of each run + 10% slack. `wire_words` counts the
    // words `Message::encode` actually wrote into the rings (not the
    // declared `words()` the capacity check charges), so a protocol change
    // that bloats the physical representation trips this even when the
    // declared budgets stay flat.
    for (label, run, ceiling) in [
        ("cliquepath/fixed", &fixed, 902_122u64),
        ("cliquepath/adaptive", &ada, 743_958),
        ("torus/fixed", &tf, 40_872),
        ("torus/adaptive", &ta, 42_816),
    ] {
        println!("wire gate: {label:<22} {:>9} (ceiling {ceiling})", run.stats.wire_words);
        assert!(
            run.stats.wire_words <= ceiling,
            "{label}: total wire words {} exceed the measured-x-1.1 ceiling {ceiling}",
            run.stats.wire_words
        );
    }
    println!(
        "\nsmoke ok: adaptive/fixed = {}/{}, stage D = {}",
        ada.stats.rounds,
        fixed.stats.rounds,
        ada.stats.rounds_in_stage("d")
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    banner(
        "T1: algorithm comparison (rounds & messages)",
        "Elkin simultaneously approaches the best time and the best message count",
    );

    header(&["workload", "n", "algorithm", "rounds", "messages"]);
    for n in [256usize, 1024, 2304] {
        for w in standard_trio(n, 0x51) {
            let g = &w.graph;
            let ghs = run_ghs(g).expect("ghs run");
            let pipe = run_pipeline(g).expect("pipeline run");
            let elkin = run_mst(g, &ElkinConfig::fixed()).expect("elkin run");
            let ada = run_mst(g, &ElkinConfig::default()).expect("elkin adaptive run");
            assert_eq!(ghs.edges, elkin.edges, "baselines disagree on the MST");
            assert_eq!(pipe.edges, elkin.edges, "baselines disagree on the MST");
            assert_eq!(ada.edges, elkin.edges, "schedule mode changed the MST");
            for (name, stats) in [
                ("ghs", &ghs.stats),
                ("pipeline", &pipe.stats),
                ("elkin", &elkin.stats),
                ("elkin-adaptive", &ada.stats),
            ] {
                row(&[
                    w.name.clone(),
                    n.to_string(),
                    name.to_string(),
                    stats.rounds.to_string(),
                    stats.messages.to_string(),
                ]);
            }
        }
    }
    println!(
        "\nshape check: on the cliquepath (high D), ghs rounds blow up; on all\n\
         inputs pipeline messages grow fastest; elkin stays near the best of\n\
         both columns, and elkin-adaptive removes the fixed-window penalty\n\
         (>= 3x on the n=2304 cliquepath) while sending fewer messages."
    );
}
