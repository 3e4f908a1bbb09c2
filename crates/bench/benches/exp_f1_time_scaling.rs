//! Experiment F1 — Theorem 3.1 time bound: rounds `= O((D + sqrt(n)) log n)`.
//!
//! Sweep `n` on square tori (`D = Θ(sqrt(n))`) and on random graphs
//! (`D = O(log n)`); the ratio rounds / ((D + sqrt(n)) log n) should stay
//! roughly flat as `n` grows by 16x.

use dmst_bench::{banner, f3, header, round_bound, row, Workload};
use dmst_core::{run_mst, ElkinConfig};
use dmst_graphs::generators as gen;

fn main() {
    banner(
        "F1: round scaling vs n (Theorem 3.1)",
        "rounds / ((D + sqrt n) log n) is flat across a 16x growth in n",
    );

    header(&["workload", "n", "D", "k", "rounds", "bound", "ratio"]);
    let mut ratios = Vec::new();
    for side in [16usize, 24, 32, 48, 64] {
        let r = &mut gen::WeightRng::new(side as u64);
        let n = side * side;
        for w in [
            Workload::new(format!("torus {side}x{side}"), gen::torus_2d(side, side, r)),
            Workload::new(format!("random n={n}"), gen::random_connected(n, 3 * n, r)),
        ] {
            let run = run_mst(&w.graph, &ElkinConfig::default()).expect("run");
            let d = w.diameter();
            let bound = round_bound(n as u64, u64::from(d), 1);
            let ratio = run.stats.rounds as f64 / bound;
            ratios.push(ratio);
            row(&[
                w.name.clone(),
                n.to_string(),
                d.to_string(),
                run.k.to_string(),
                run.stats.rounds.to_string(),
                f3(bound),
                f3(ratio),
            ]);
        }
    }
    let (lo, hi) = ratios.iter().fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    println!(
        "\nratio spread: min {} / max {} (flat within a small constant = bound holds)",
        f3(lo),
        f3(hi)
    );
}
