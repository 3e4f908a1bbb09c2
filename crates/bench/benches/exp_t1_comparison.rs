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
//! (asserting the oracle MST, the total and Stage D round budgets and a
//! total-wire-word ceiling at measured x 1.1) plus one low-diameter
//! sanity point with its own wire-word ceiling.

use dmst_baselines::{run_ghs, run_pipeline};
use dmst_bench::{
    banner, budget, header, row, standard_trio, Workload, CLIQUEPATH_2304_ROUNDS,
    CLIQUEPATH_2304_STAGE_D_CEILING, CLIQUEPATH_2304_WIRE_WORDS, TORUS_256_WIRE_WORDS,
};
use dmst_core::{run_mst, ElkinConfig};
use dmst_graphs::mst;

fn smoke() {
    let claim = format!(
        "cliquepath n=2304: total <= {}, Stage D <= {CLIQUEPATH_2304_STAGE_D_CEILING}; \
         wire words <= golden x 1.1; oracle MST",
        budget(CLIQUEPATH_2304_ROUNDS)
    );
    banner("T1 (smoke): round and wire-word budget guard", &claim);
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
    // Stage D gates: the golden total rounds (+10% slack), and the fixed
    // Stage D ceiling, so Stage D cannot quietly become the bottleneck
    // again (the goldens live in `dmst_bench`).
    let cap = budget(CLIQUEPATH_2304_ROUNDS);
    assert!(
        cp.stats.rounds <= cap,
        "cliquepath total {} exceeds {cap}, the {CLIQUEPATH_2304_ROUNDS}-round golden (+10%)",
        cp.stats.rounds
    );
    assert!(
        cp.stats.rounds_in_stage("d") <= CLIQUEPATH_2304_STAGE_D_CEILING,
        "cliquepath Stage D {} exceeds the {CLIQUEPATH_2304_STAGE_D_CEILING}-round ceiling",
        cp.stats.rounds_in_stage("d")
    );
    // Total-wire-words gate, one ceiling per smoke row: the golden
    // encoded volume of each run + 10% slack. `wire_words` counts the
    // words `Message::encode` wrote into the rings, the same length the
    // capacity check charges, so a protocol change that bloats the
    // encoding trips this even when rounds and messages stay flat.
    let rows = [
        ("cliquepath", &cp, budget(CLIQUEPATH_2304_WIRE_WORDS)),
        ("torus", &tor, budget(TORUS_256_WIRE_WORDS)),
    ];
    for (label, run, ceiling) in rows {
        println!("wire gate: {label:<22} {:>9} (ceiling {ceiling})", run.stats.wire_words);
        assert!(
            run.stats.wire_words <= ceiling,
            "{label}: total wire words {} exceed the golden-x-1.1 ceiling {ceiling}",
            run.stats.wire_words
        );
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
