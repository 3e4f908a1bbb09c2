//! Experiment F2 — Theorem 3.1, large-diameter regime: at fixed `n`,
//! rounds grow linearly with `D` (the `O(D log n)` term), and the chosen
//! `k` tracks `Θ(D)`.
//!
//! Family: path-of-cliques with `n = count * size` fixed at ~1024 while the
//! clique count (hence the diameter) sweeps 16x. Every run sets the paper's
//! Eq. (1) `k = max(sqrt(n), H)` through `k_override` ([`paper_k`]); the
//! automatic choice, a fitted round model, never goes past `sqrt(n/b)`.

use dmst_bench::{banner, f3, header, paper_k, row, Workload};
use dmst_core::{run_mst, ElkinConfig};
use dmst_graphs::generators as gen;

fn main() {
    banner(
        "F2: round scaling vs D at fixed n (large-diameter regime)",
        "rounds / (D log n) flat; k = Θ(D) once D > sqrt(n)",
    );

    header(&["cliques", "size", "n", "D", "k", "rounds", "rnds/(D lg n)"]);
    for (count, size) in [(16usize, 64usize), (32, 32), (64, 16), (128, 8), (256, 4)] {
        let r = &mut gen::WeightRng::new((count * size) as u64);
        let w = Workload::new("cliquepath", gen::path_of_cliques(count, size, r));
        let n = w.graph.num_nodes();
        let run = run_mst(&w.graph, &ElkinConfig::with_k(paper_k(&w.graph, 1))).expect("run");
        let lg = (n as f64).log2();
        let d = w.diameter();
        let norm = run.stats.rounds as f64 / (f64::from(d).max(1.0) * lg);
        row(&[
            count.to_string(),
            size.to_string(),
            n.to_string(),
            d.to_string(),
            run.k.to_string(),
            run.stats.rounds.to_string(),
            f3(norm),
        ]);
    }
    println!(
        "\nshape check: the last column stabilizes as D grows past sqrt(n)~32,\n\
         and k rises with D (the paper's k = D choice)."
    );
}
