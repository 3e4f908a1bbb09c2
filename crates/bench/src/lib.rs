//! # dmst-bench — the experiment harness
//!
//! Shared utilities for the bench targets that regenerate every
//! table/figure of the reproduction (see `DESIGN.md` §5 and
//! `EXPERIMENTS.md`). Each `benches/exp_*.rs` file is a `harness = false`
//! bench target: `cargo bench` runs them all and prints the tables.

#![warn(missing_docs)]

use dmst_core::choose_k;
use dmst_core::util::{ceil_log2, log_star};
use dmst_graphs::{analysis, generators as gen, WeightedGraph};

/// One prepared workload: a named graph.
#[derive(Clone, Debug)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The graph.
    pub graph: WeightedGraph,
}

impl Workload {
    /// Wraps a graph.
    pub fn new(name: impl Into<String>, graph: WeightedGraph) -> Self {
        Self { name: name.into(), graph }
    }

    /// The graph's hop-diameter, measured on each call: exactly below 5000
    /// vertices (an all-sources BFS), by double sweep (a lower bound)
    /// above.
    pub fn diameter(&self) -> u32 {
        if self.graph.num_nodes() <= 5000 {
            analysis::diameter_exact(&self.graph)
        } else {
            analysis::diameter_double_sweep(&self.graph)
        }
    }
}

/// The standard workload trio used by the comparison experiments: a
/// low-diameter torus, a random graph, and a high-diameter path-of-cliques,
/// all with ~`n` vertices.
pub fn standard_trio(n: usize, seed: u64) -> Vec<Workload> {
    let r = &mut gen::WeightRng::new(seed);
    let side = (n as f64).sqrt().round() as usize;
    let cliques = (n / 8).max(2);
    vec![
        Workload::new(format!("torus {side}x{side}"), gen::torus_2d(side, side, r)),
        Workload::new(format!("random n={n} m={}", 4 * n), gen::random_connected(n, 3 * n, r)),
        Workload::new(format!("cliquepath {cliques}x8"), gen::path_of_cliques(cliques, 8, r)),
        Workload::new(format!("snake {side}x{side}"), gen::snake_torus(side, side, r)),
    ]
}

/// Golden total rounds of the T1 cliquepath at n = 2304 (the cliquepath row
/// of `standard_trio(2304, 0x51)`), as `repin -- --large` prints them. The
/// T1 smoke (`exp_t1_comparison -- --smoke`) and
/// `large_scale::cliquepath_2304_adaptive_pin` both check the run against
/// it and the other n = 2304 goldens exactly.
pub const CLIQUEPATH_2304_ROUNDS: u64 = 6590;

/// Golden Stage D rounds of the same run (the `d` of its a/b/d profile).
pub const CLIQUEPATH_2304_STAGE_D_ROUNDS: u64 = 2434;

/// Golden total wire words of the same run.
pub const CLIQUEPATH_2304_WIRE_WORDS: u64 = 293_740;

/// Golden total wire words of the T1 torus 16x16 (`standard_trio(256,
/// 0x51)`'s first row), the T1 smoke's low-diameter sanity point.
pub const TORUS_256_WIRE_WORDS: u64 = 25_122;

/// The paper's Eq. (1) `k = max(sqrt(n/b), H)` for `g` at bandwidth `b`,
/// with `H` the eccentricity of vertex 0: the BFS height Stage A measures
/// from the default root. Runs set it through `ElkinConfig::k_override`.
///
/// # Panics
///
/// Panics if `g` has no vertices.
pub fn paper_k(g: &WeightedGraph, b: u32) -> u64 {
    choose_k(g.num_nodes() as u64, u64::from(analysis::eccentricity(g, 0)), b)
}

/// The analytic round bound of Theorem 3.1/3.2:
/// `(D + sqrt(n/b)) * log2 n`.
pub fn round_bound(n: u64, d: u64, b: u64) -> f64 {
    let nb = (n / b.max(1)).max(1) as f64;
    (d as f64 + nb.sqrt()) * (ceil_log2(n.max(2)) as f64)
}

/// The analytic message bound of Theorem 3.1:
/// `m log n + n log n log* n`.
pub fn message_bound(n: u64, m: u64) -> f64 {
    let lg = ceil_log2(n.max(2)) as f64;
    let ls = log_star(n.max(2)) as f64;
    (m as f64) * lg + (n as f64) * lg * ls
}

/// The forest-construction bounds of Theorem 4.3:
/// `(k log* n, m log k + n log k log* n)`.
pub fn forest_bounds(n: u64, m: u64, k: u64) -> (f64, f64) {
    let ls = log_star(n.max(2)) as f64;
    let lk = ceil_log2(k.max(2)) as f64;
    (k as f64 * ls, (m as f64) * lk + (n as f64) * lk * ls)
}

/// Prints a header row followed by a rule, `|`-separated, fixed-width.
pub fn header(cols: &[&str]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" | "));
    println!("{}", vec!["-".repeat(12); cols.len()].join("-+-"));
}

/// Prints one data row matching [`header`].
pub fn row(cells: &[String]) {
    let line: Vec<String> = cells.iter().map(|c| format!("{c:>12}")).collect();
    println!("{}", line.join(" | "));
}

/// Formats a float to 3 significant-ish decimals.
pub fn f3(x: f64) -> String {
    format!("{x:.3}")
}

/// Prints the experiment banner.
pub fn banner(id: &str, claim: &str) {
    println!("\n=== {id} ===");
    println!("claim: {claim}\n");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bounds_are_monotone() {
        assert!(round_bound(1024, 10, 1) > round_bound(1024, 10, 4));
        assert!(message_bound(1024, 4096) > message_bound(1024, 2048));
        let (t1, m1) = forest_bounds(1024, 4096, 8);
        let (t2, m2) = forest_bounds(1024, 4096, 32);
        assert!(t2 > t1 && m2 > m1);
    }

    #[test]
    fn paper_k_reads_stage_a_height() {
        for w in standard_trio(64, 3) {
            let run = dmst_core::run_forest(&w.graph, &dmst_core::ElkinConfig::with_k(2)).unwrap();
            assert_eq!(paper_k(&w.graph, 2), choose_k(64, run.bfs_height, 2), "{}", w.name);
        }
    }

    #[test]
    fn standard_trio_is_connected() {
        for w in standard_trio(128, 3) {
            assert!(w.graph.is_connected(), "{} disconnected", w.name);
            assert!(w.diameter() > 0);
        }
    }
}
