//! The `CONGEST(b log n)` trade-off (Theorem 3.2): more per-edge bandwidth
//! buys rounds, while the message count stays put.
//!
//! Scenario: you operate a sensor mesh and can provision link bandwidth in
//! multiples of the base `O(log n)` packet. How much latency does each
//! multiple buy for a spanning-tree recomputation? The paper predicts
//! rounds `~ (D + sqrt(n/b)) log n`: the sqrt term shrinks with `b` until
//! the diameter floor takes over.
//!
//! ```text
//! cargo run --release --example bandwidth_tradeoff
//! ```

use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{analysis, generators};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut rng = generators::WeightRng::new(7);
    let g = generators::torus_2d(24, 24, &mut rng); // n = 576, D = 24
    let d = analysis::diameter_exact(&g);
    println!("torus 24x24: n = {}, m = {}, D = {d}", g.num_nodes(), g.num_edges());
    println!("\n{:>4} {:>8} {:>10} {:>10} {:>6}", "b", "rounds", "messages", "words", "k");

    let mut base_rounds = None;
    for b in [1u32, 2, 4, 8, 16, 32] {
        let run = run_mst(&g, &ElkinConfig::with_bandwidth(b))?;
        let speedup = base_rounds
            .get_or_insert(run.stats.rounds)
            .checked_div(run.stats.rounds.max(1))
            .unwrap_or(0);
        println!(
            "{b:>4} {:>8} {:>10} {:>10} {:>6}   ({speedup}x vs b=1)",
            run.stats.rounds, run.stats.messages, run.stats.wire_words, run.k
        );
    }

    println!(
        "\nreading: rounds fall roughly with sqrt(1/b) and flatten once the\n\
         D*log(n) term dominates; messages barely move — exactly the shape\n\
         of Theorem 3.2."
    );
    Ok(())
}
