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
//! Elkin is close to Pipeline's speed at near-GHS message volume.
//!
//! Pass `--smoke` to run only the CI guard: the n = 2304 cliquepath
//! (asserting the oracle MST and its exact total rounds, Stage D rounds
//! and wire words) plus one low-diameter sanity point with its exact wire
//! words.

use dmst_baselines::{run_ghs, run_pipeline};
use dmst_bench::{
    banner, header, row, standard_trio, Workload, CLIQUEPATH_2304_ROUNDS,
    CLIQUEPATH_2304_STAGE_D_ROUNDS, CLIQUEPATH_2304_WIRE_WORDS, TORUS_256_WIRE_WORDS,
};
use dmst_core::{run_mst, ElkinConfig};
use dmst_graphs::mst;

fn smoke() {
    let claim = format!(
        "cliquepath n=2304: {CLIQUEPATH_2304_ROUNDS} rounds, Stage D \
         {CLIQUEPATH_2304_STAGE_D_ROUNDS}, {CLIQUEPATH_2304_WIRE_WORDS} wire words; \
         torus 16x16: {TORUS_256_WIRE_WORDS} wire words; oracle MST"
    );
    banner("T1 (smoke): exact round and wire-word pins", &claim);
    header(&["workload", "rounds", "stage D", "messages", "wire words"]);
    let cliquepath = standard_trio(2304, 0x51)
        .into_iter()
        .find(|w| w.name.starts_with("cliquepath"))
        .expect("trio contains a cliquepath");
    let torus = standard_trio(256, 0x51).into_iter().next().expect("trio has a torus");
    let solve = |w: &Workload| {
        let run = run_mst(&w.graph, &ElkinConfig::default()).expect("run");
        assert_eq!(run.edges, mst::kruskal(&w.graph).edges, "{}: wrong MST", w.name);
        row(&[
            w.name.clone(),
            run.stats.rounds.to_string(),
            run.stats.rounds_in_stage("d").to_string(),
            run.stats.messages.to_string(),
            run.stats.wire_words.to_string(),
        ]);
        run
    };
    let (cp, tor) = (solve(&cliquepath), solve(&torus));
    // Exact pins (the goldens live in `dmst_bench`): any moved count fails,
    // so a deliberate protocol change re-pins them from `repin -- --large`.
    // Stage D has its own pin, so it cannot quietly become the bottleneck
    // again behind a faster Stage B. `wire_words` counts the words
    // `Message::encode` wrote into the rings, the same length the capacity
    // check charges, so a change that bloats the encoding fails even when
    // rounds and messages stay flat.
    let pins = [
        ("cliquepath rounds", cp.stats.rounds, CLIQUEPATH_2304_ROUNDS),
        (
            "cliquepath Stage D rounds",
            cp.stats.rounds_in_stage("d"),
            CLIQUEPATH_2304_STAGE_D_ROUNDS,
        ),
        ("cliquepath wire words", cp.stats.wire_words, CLIQUEPATH_2304_WIRE_WORDS),
        ("torus wire words", tor.stats.wire_words, TORUS_256_WIRE_WORDS),
    ];
    for (label, got, golden) in pins {
        println!("pin: {label:<26} {got:>9} (golden {golden})");
        assert_eq!(got, golden, "{label} moved off the golden");
    }
    println!("\nsmoke ok");
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
            let elkin = run_mst(g, &ElkinConfig::default()).expect("elkin run");
            assert_eq!(ghs.edges, elkin.edges, "baselines disagree on the MST");
            assert_eq!(pipe.edges, elkin.edges, "baselines disagree on the MST");
            for (name, stats) in
                [("ghs", &ghs.stats), ("pipeline", &pipe.stats), ("elkin", &elkin.stats)]
            {
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
         both columns."
    );
}
