//! Experiment F6 — the §3 regime split: automatic `k` selection follows
//! `max(sqrt(n), Θ(D))` as the diameter interpolates from `O(log n)` to
//! `Θ(n)` at fixed `n`.
//!
//! Family: path-of-cliques at fixed n = 1024 with clique sizes from 512
//! (D = 3) down to 2 (D = 767), plus a random graph and a path as the two
//! extremes.

use dmst_bench::{banner, header, row, Workload};
use dmst_core::{run_mst, ElkinConfig};
use dmst_graphs::generators as gen;

fn main() {
    banner(
        "F6: regime crossover (k selection vs diameter)",
        "k = sqrt(n) while D <= sqrt(n), then k tracks Theta(D); rounds stay within bound in both regimes",
    );

    let n = 1024usize;
    let sqrt_n = 32u64;
    header(&["workload", "D", "sqrt n", "k", "regime", "rounds", "messages"]);

    let mut cases: Vec<Workload> = Vec::new();
    {
        let r = &mut gen::WeightRng::new(0xF6);
        cases.push(Workload::new("random", gen::random_connected(n, 3 * n, r)));
        for (count, size) in [(4usize, 256usize), (16, 64), (64, 16), (256, 4), (512, 2)] {
            cases.push(Workload::new(
                format!("cliquepath {count}x{size}"),
                gen::path_of_cliques(count, size, r),
            ));
        }
        cases.push(Workload::new("path", gen::path(n, r)));
    }

    for w in cases {
        // The regime split under test is the paper's choose_k, i.e. the
        // Fixed schedule (Adaptive never picks k above sqrt(n/b)).
        let run = run_mst(&w.graph, &ElkinConfig::fixed()).expect("run");
        let regime = if run.k > sqrt_n { "large-D" } else { "small-D" };
        // k never falls below sqrt(n) and never exceeds ~D (BFS height <= D).
        assert!(run.k >= sqrt_n, "k dropped below sqrt(n) on {}", w.name);
        assert!(
            run.k <= u64::from(w.diameter).max(sqrt_n),
            "k = {} exceeds max(D, sqrt n) = {} on {}",
            run.k,
            u64::from(w.diameter).max(sqrt_n),
            w.name
        );
        row(&[
            w.name.clone(),
            w.diameter.to_string(),
            sqrt_n.to_string(),
            run.k.to_string(),
            regime.to_string(),
            run.stats.rounds.to_string(),
            run.stats.messages.to_string(),
        ]);
    }
    println!(
        "\nshape check: the regime column flips exactly where D crosses sqrt(n);\n\
         messages stay near-linear on both sides (no D*sqrt(n) blow-up)."
    );
}
