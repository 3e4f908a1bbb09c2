//! Quickstart: compute an MST distributively and check it against Kruskal.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{analysis, generators, mst};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 16 x 16 torus: n = 256 vertices, m = 512 edges, diameter 16.
    let mut rng = generators::WeightRng::new(2017);
    let g = generators::torus_2d(16, 16, &mut rng);
    let (n, m) = (g.num_nodes(), g.num_edges());
    let d = analysis::diameter_exact(&g);
    println!("input: torus 16x16, n = {n}, m = {m}, hop-diameter D = {d}");

    // Run Elkin's deterministic distributed MST algorithm in standard
    // CONGEST (b = 1).
    let run = run_mst(&g, &ElkinConfig::default())?;
    println!("distributed MST: {} edges, total weight {}", run.edges.len(), run.total_weight);
    println!(
        "cost: {} rounds, {} messages ({} words); chosen k = {}",
        run.stats.rounds, run.stats.messages, run.stats.wire_words, run.k
    );

    // The distributed result must equal the sequential canonical MST.
    let truth = mst::kruskal(&g);
    assert_eq!(run.edges, truth.edges, "distributed result diverged from Kruskal");
    println!("verified: identical to sequential Kruskal ({} edges)", truth.edges.len());

    // Where did the messages go? Per-protocol-step breakdown.
    println!("\nmessage breakdown by protocol step:");
    print!("{}", run.stats.tag_table());
    Ok(())
}
