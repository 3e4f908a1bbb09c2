//! Scaling probe: runs the full algorithm (Stages A, B, D) on a random connected
//! graph and prints rounds, messages, per-stage attribution, and wallclock
//! — the measurement tool behind the EXPERIMENTS.md simulator-throughput
//! table and the first-pin numbers of the wallclock gate.
//!
//! ```text
//! cargo run --release --example scale_probe -- [n] [extra_edges] [shards]
//! ```

use std::time::Instant;

use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::generators as gen;

fn main() {
    let mut args = std::env::args().skip(1);
    let n: usize = args.next().map_or(65_536, |a| a.parse().expect("n"));
    let extra: usize = args.next().map_or(2 * n, |a| a.parse().expect("extra"));
    let shards: u32 = args.next().map_or(1, |a| a.parse().expect("shards"));

    let t0 = Instant::now();
    let g = gen::random_connected(n, extra, &mut gen::WeightRng::new(0x5CA1E));
    println!("generate: n = {}, m = {} ({:.2?})", g.num_nodes(), g.num_edges(), t0.elapsed());

    let cfg = ElkinConfig { shards, ..ElkinConfig::default() };
    let t1 = Instant::now();
    let run = run_mst(&g, &cfg).expect("run");
    let dt = t1.elapsed();
    let [a, b, d] = ["a", "b", "d"].map(|s| run.stats.rounds_in_stage(s));
    println!(
        "solve:    rounds = {} (a {} / b {} / d {}), messages = {}, words = {}, k = {}",
        run.stats.rounds, a, b, d, run.stats.messages, run.stats.wire_words, run.k,
    );
    let node_rounds = run.stats.rounds as u128 * g.num_nodes() as u128;
    println!(
        "wallclock {:.2?}, shards = {shards}, {:.1} Mnode-rounds/s, {:.1} ns/node-round",
        dt,
        node_rounds as f64 / dt.as_secs_f64() / 1e6,
        dt.as_nanos() as f64 / node_rounds as f64,
    );
}
