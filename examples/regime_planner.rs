//! The two regimes of the paper's §3: `D <= sqrt(n)` (base parameter
//! `k = sqrt(n)`) versus `D > sqrt(n)` (`k = Θ(D)`).
//!
//! Scenario: the same number of routers can be wired as a flat mesh, a
//! ring, or a chain of dense racks. This example shows how the paper's
//! Eq. (1) `k` reacts to the topology's hop-diameter and what that does to
//! round/message costs — the design decision that lets the paper avoid the
//! neighborhood-cover machinery of [PRS17].
//!
//! ```text
//! cargo run --release --example regime_planner
//! ```

use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{analysis, generators, WeightedGraph};
use dmst_bench::paper_k;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = generators::WeightRng::new(99);
    // Six topologies on roughly 256 vertices, diameters from 1 to n-1.
    let cases: Vec<(&str, WeightedGraph)> = vec![
        ("complete (D=1)", generators::complete(256, &mut rng)),
        ("hypercube (D=8)", generators::hypercube(8, &mut rng)),
        ("torus 16x16 (D=16)", generators::torus_2d(16, 16, &mut rng)),
        ("grid 8x32 (D=38)", generators::grid_2d(8, 32, &mut rng)),
        ("path-of-cliques (D~63)", generators::path_of_cliques(32, 8, &mut rng)),
        ("cycle (D=128)", generators::cycle(256, &mut rng)),
        ("path (D=255)", generators::path(256, &mut rng)),
    ];

    println!(
        "{:<24} {:>5} {:>5} {:>6} {:>7} {:>9} {:>10}",
        "topology", "n", "D", "sqrt n", "k", "rounds", "messages"
    );
    for (name, g) in cases {
        let n = g.num_nodes();
        let d = analysis::diameter_exact(&g);
        // Eq. (1) goes through k_override: the automatic k is a fitted round
        // model that never goes past sqrt(n/b).
        let run = run_mst(&g, &ElkinConfig::with_k(paper_k(&g, 1)))?;
        let sqrt_n = (n as f64).sqrt().round() as u64;
        let regime = if run.k > sqrt_n { "large-D" } else { "small-D" };
        println!(
            "{name:<24} {n:>5} {d:>5} {sqrt_n:>6} {:>7} {:>9} {:>10}   {regime}",
            run.k, run.stats.rounds, run.stats.messages
        );
    }

    println!(
        "\nreading: once D exceeds sqrt(n) the algorithm grows its base\n\
         fragments to k = Θ(D), so fewer fragments are pipelined through the\n\
         BFS root and the message count stays near-linear even on chains."
    );
    Ok(())
}
