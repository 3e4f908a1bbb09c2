//! Re-pin helper: prints every exact pin of `tests/round_pins.rs`, in pin
//! order, as the `CountPin::new(rounds, messages, wire words)` row that
//! file holds, so a conscious protocol change can re-pin every row from
//! one run:
//!
//! ```text
//! cargo run --release --example repin            # the round_pins rows
//! cargo run --release --example repin -- --large # + the n = 2304 cliquepath
//!                                                #   and the two n = 16384
//!                                                #   `wallclock -- --gate` runs,
//!                                                #   with their per-tag counts
//! ```
//!
//! The simulator is deterministic, so these numbers are bit-exact across
//! machines and build profiles.

use dmst::core::{run_mst, ElkinConfig};
use dmst::graphs::{generators as gen, WeightedGraph};
use dmst::testkit::Algorithm;
use dmst_bench::{paper_k, standard_trio};

fn print_pin(algo: &Algorithm, g: &WeightedGraph, label: &str) {
    let (_, _, stats) = algo.run_stats(g).unwrap_or_else(|e| panic!("{label}: {e}"));
    println!("        CountPin::new({}, {}, {}),", stats.rounds, stats.messages, stats.wire_words);
}

fn main() {
    let large = std::env::args().any(|a| a == "--large");

    let trio: Vec<_> = standard_trio(256, 0x51).into_iter().map(|w| (w.name, w.graph)).collect();
    let rows: Vec<&str> = trio.iter().map(|(label, _)| label.as_str()).collect();
    println!("# tests/round_pins.rs exact pins, in pin order; trio rows: {}", rows.join(", "));
    println!("\n# elkin_paper_k_t1_trio_pins (Eq. (1) k via k_override)");
    for (label, g) in &trio {
        print_pin(&Algorithm::Elkin(ElkinConfig::with_k(paper_k(g, 1))), g, label);
    }
    for (test, algo) in [
        ("elkin_adaptive_t1_trio_pins", Algorithm::Elkin(ElkinConfig::default())),
        ("baseline_t1_trio_pins: ghs_pins", Algorithm::Ghs),
        ("baseline_t1_trio_pins: pipe_pins", Algorithm::Pipeline),
    ] {
        println!("\n# {test}");
        for (label, g) in &trio {
            print_pin(&algo, g, label);
        }
    }

    println!("\n# elkin_adaptive_cliquepath_1024_pin");
    let r = &mut gen::WeightRng::new(0x51);
    let g1024 = gen::path_of_cliques(128, 8, r);
    print_pin(&Algorithm::Elkin(ElkinConfig::default()), &g1024, "cliquepath 128x8");

    println!("\n# elkin_adaptive_random_1024_pin");
    let random1024 = gen::random_connected(1024, 3072, &mut gen::WeightRng::new(0));
    print_pin(&Algorithm::Elkin(ElkinConfig::default()), &random1024, "random n=1024 m=3072");

    if large {
        let g2304 = standard_trio(2304, 0x51)
            .into_iter()
            .find(|w| w.name.starts_with("cliquepath"))
            .expect("trio contains a cliquepath")
            .graph;
        let run = run_mst(&g2304, &ElkinConfig::default()).expect("cliquepath 2304");
        let [a, b, d] = ["a", "b", "d"].map(|s| run.stats.rounds_in_stage(s));
        println!(
            "cliquepath 288x8: rounds {} messages {} wire words {} \
             profile a/b/d = {}/{}/{}",
            run.stats.rounds, run.stats.messages, run.stats.wire_words, a, b, d
        );

        println!("\n# crates/bench/benches/wallclock.rs --gate exact pins\n");
        let gates = [
            (
                "elkin_random_16384",
                gen::random_connected(16_384, 32_768, &mut gen::WeightRng::new(0x5CA1E)),
            ),
            (
                "elkin_cliquepath_16384",
                gen::path_of_cliques(2048, 8, &mut gen::WeightRng::new(0x51)),
            ),
        ];
        for (label, g) in &gates {
            let stats = run_mst(g, &ElkinConfig::default()).expect(label).stats;
            println!(
                "{label:<24} rounds {} messages {} wire words {}",
                stats.rounds, stats.messages, stats.wire_words
            );
            for (tag, t) in &stats.by_tag {
                println!("    {tag:<12} messages {:>9} wire words {:>9}", t.messages, t.wire_words);
            }
        }
    }
}
