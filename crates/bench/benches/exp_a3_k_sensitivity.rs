//! Ablation A3 — Eq. (1) of the paper: rounds behave like
//! `(D + k + n/k) log n`, so `k = sqrt(n)` balances the last two terms.
//!
//! `k` sweeps 1..512 on a 1024-vertex torus (`D = 32 = sqrt(n)`).
//!
//! Measured nuance worth reporting: the *right* branch (`k log* n` from
//! Controlled-GHS windows) rises exactly as predicted, but the *left*
//! branch rises much more gently than `n/k log n` — our pipelined
//! upcast/downcast spreads the `|F|` records across disjoint BFS subtrees,
//! so the `n/k` term only bites on the edges where fragments concentrate.
//! Eq. (1) charges the single-edge worst case. Consequently the measured
//! optimum sits well below `sqrt(n)` — the fused Stage D cut its
//! per-phase constant ~3x, flattening the `n/k` branch again — so the
//! automatic choice is not the paper's `sqrt(n/b)` but the fitted round
//! model `choose_k_cost`, which must land within 1.5x of the adaptive
//! sweep's optimum (asserted; the automatic choice *is* adaptive).

use dmst_bench::{banner, f3, header, row, Workload};
use dmst_core::{run_mst, ElkinConfig, ScheduleMode};
use dmst_graphs::generators as gen;

fn main() {
    banner(
        "A3: k sensitivity (Eq. 1): rounds ~ (D + k + n/k) log n",
        "right branch ~ k; left branch flattened by subtree-parallel pipelining",
    );

    let r = &mut gen::WeightRng::new(0xA3);
    let w = Workload::new("torus 32x32", gen::torus_2d(32, 32, r));
    let n = w.graph.num_nodes() as u64;
    let d = u64::from(w.diameter);
    println!("workload: {}, n = {n}, D = {d}\n", w.name);

    header(&["k", "rounds", "adaptive", "(D+k+n/k)lg n", "ratio", "messages"]);
    let mut curve = Vec::new();
    let mut ada_curve = Vec::new();
    for k in [1u64, 2, 4, 8, 16, 32, 64, 128, 256, 512] {
        // Pin the baseline to the Fixed schedule explicitly — with_k alone
        // now inherits the Adaptive default, which would make the
        // comparison below vacuous.
        let run =
            run_mst(&w.graph, &ElkinConfig::with_k(k).with_schedule_mode(ScheduleMode::Fixed))
                .expect("run");
        let ada =
            run_mst(&w.graph, &ElkinConfig::with_k(k).with_schedule_mode(ScheduleMode::Adaptive))
                .expect("adaptive run");
        assert_eq!(run.edges, ada.edges, "schedule mode changed the MST at k={k}");
        assert!(
            ada.stats.rounds <= run.stats.rounds,
            "adaptive regressed at k={k}: {} > {}",
            ada.stats.rounds,
            run.stats.rounds
        );
        let model = (d + k + n / k) as f64 * (n as f64).log2();
        curve.push((k, run.stats.rounds));
        ada_curve.push((k, ada.stats.rounds));
        row(&[
            k.to_string(),
            run.stats.rounds.to_string(),
            ada.stats.rounds.to_string(),
            f3(model),
            f3(run.stats.rounds as f64 / model),
            run.stats.messages.to_string(),
        ]);
    }
    let auto = run_mst(&w.graph, &ElkinConfig::default()).expect("auto run");
    let (best_k, best_rounds) = ada_curve.iter().copied().min_by_key(|&(_, r)| r).expect("curve");
    let (_, worst_rounds) = curve.last().copied().expect("curve");
    println!(
        "\nautomatic choice: k = {} -> {} rounds; adaptive sweep minimum: k = {best_k} -> {best_rounds} rounds",
        auto.k, auto.stats.rounds
    );

    // The right branch must rise steeply (the k log* n cost is real) ...
    assert!(worst_rounds > 4 * best_rounds, "k >> sqrt(n) should cost several times the optimum");
    // ... and the cost model's choice must stay near the sweep optimum
    // despite the flattened left branch (see the module docs).
    assert!(
        2 * auto.stats.rounds <= 3 * best_rounds,
        "automatic k ({} rounds) strayed past 1.5x the sweep optimum ({best_rounds})",
        auto.stats.rounds
    );
    println!(
        "shape check: rounds rise ~linearly in k past sqrt(n); below sqrt(n)\n\
         the curve is flat-to-slightly-rising because pipelining parallelizes\n\
         the n/k term across BFS subtrees (Eq. (1) charges its single-edge\n\
         worst case). The automatic k is within 1.5x of the sweep optimum."
    );
}
