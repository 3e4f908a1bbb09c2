//! Solve a DIMACS edge-format graph file distributively and report all
//! three algorithms' costs.
//!
//! ```text
//! cargo run --release --example solve_file [path/to/graph.dimacs]
//! ```
//!
//! Without an argument, a sample graph is generated, written to a
//! temporary file, and read back — demonstrating the I/O round trip.

use std::fs::File;
use std::io::BufReader;

use dmst::baselines::{run_ghs, run_pipeline};
use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{generators, io, mst};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let path = match std::env::args().nth(1) {
        Some(p) => p,
        None => {
            // No input given: produce a demo file first.
            let g = generators::random_connected(200, 600, &mut generators::WeightRng::new(11));
            let path = std::env::temp_dir().join("dmst_demo.dimacs");
            io::write_dimacs(&g, File::create(&path)?)?;
            println!("no input file given; wrote a demo graph to {}", path.display());
            path.to_string_lossy().into_owned()
        }
    };

    let g = io::parse_dimacs(BufReader::new(File::open(&path)?))?;
    println!(
        "loaded {}: n = {}, m = {}, connected = {}",
        path,
        g.num_nodes(),
        g.num_edges(),
        g.is_connected()
    );

    let truth = mst::kruskal(&g);
    println!(
        "sequential Kruskal: {} edges, total weight {}\n",
        truth.edges.len(),
        truth.total_weight
    );

    println!("{:<10} {:>10} {:>12} {:>8}", "algorithm", "rounds", "messages", "ok");
    let elkin = run_mst(&g, &ElkinConfig::default())?;
    println!(
        "{:<10} {:>10} {:>12} {:>8}",
        "elkin",
        elkin.stats.rounds,
        elkin.stats.messages,
        elkin.edges == truth.edges
    );
    let ghs = run_ghs(&g)?;
    println!(
        "{:<10} {:>10} {:>12} {:>8}",
        "ghs",
        ghs.stats.rounds,
        ghs.stats.messages,
        ghs.edges == truth.edges
    );
    let pipe = run_pipeline(&g)?;
    println!(
        "{:<10} {:>10} {:>12} {:>8}",
        "pipeline",
        pipe.stats.rounds,
        pipe.stats.messages,
        pipe.edges == truth.edges
    );

    println!(
        "\nstage profile (elkin): A={} B={} D={} rounds; k = {}",
        elkin.stats.rounds_in_stage("a"),
        elkin.stats.rounds_in_stage("b"),
        elkin.stats.rounds_in_stage("d"),
        elkin.k
    );
    Ok(())
}
