//! Experiment F4 — Theorem 3.2: in `CONGEST(b log n)`, rounds scale as
//! `(D + sqrt(n/b)) log n` while the message count is essentially flat.
//!
//! Fixed torus (low D, so the sqrt term dominates) with `b` sweeping 1..32.

use dmst_bench::{banner, f3, header, round_bound, row, Workload};
use dmst_core::{run_mst, ElkinConfig};
use dmst_graphs::generators as gen;

fn main() {
    banner(
        "F4: CONGEST(b log n) bandwidth sweep (Theorem 3.2)",
        "rounds ~ (D + sqrt(n/b)) log n falling with b; messages ~ constant",
    );

    // Low diameter (D ~ 7 << sqrt(n) = 64), so the sqrt(n/b) term is what
    // the bandwidth attacks.
    let r = &mut gen::WeightRng::new(0xF4);
    let w = Workload::new("random n=4096", gen::random_connected(4096, 3 * 4096, r));
    let n = w.graph.num_nodes() as u64;
    let d = u64::from(w.diameter());
    println!("workload: {}, n = {n}, D = {d}\n", w.name);

    header(&["b", "k", "rounds", "bound", "ratio", "messages"]);
    let mut first_msgs = None;
    for b in [1u32, 2, 4, 8, 16, 32] {
        let run = run_mst(&w.graph, &ElkinConfig::with_bandwidth(b)).expect("run");
        let bound = round_bound(n, d, u64::from(b));
        row(&[
            b.to_string(),
            run.k.to_string(),
            run.stats.rounds.to_string(),
            f3(bound),
            f3(run.stats.rounds as f64 / bound),
            run.stats.messages.to_string(),
        ]);
        let base = *first_msgs.get_or_insert(run.stats.messages);
        assert!(run.stats.messages <= 2 * base, "message count should not grow materially with b");
    }
    println!(
        "\nshape check: the ratio column stays flat (the bound tracks the\n\
         measurement as b changes) and the message column barely moves."
    );
}
