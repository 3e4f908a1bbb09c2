//! # dmst-baselines — the algorithms Elkin (PODC 2017) compares against
//!
//! Two baseline distributed MST algorithms over the same `congest_sim`
//! substrate, implementing the rows of the paper's §1.1 comparison:
//!
//! | algorithm | time | messages |
//! |---|---|---|
//! | [`run_ghs`] (GHS83/CT85 style) | `O((D + Diam(MST) + Δ) log n)` | `O(m + n log n)` |
//! | [`run_pipeline`] (GKP98/KP98) | `O(D + sqrt(n) log* n)` | `O(m + n^{3/2})` |
//! | `dmst_core::run_mst` (Elkin) | `O((D + sqrt(n)) log n)` | `O(m log n + n log n log* n)` |
//!
//! Both return a [`BaselineRun`] whose `edges` are checked by the callers'
//! tests to equal the canonical MST.
//!
//! ```
//! use dmst_baselines::{run_ghs, run_pipeline};
//! use dmst_graphs::{generators, mst};
//!
//! let g = generators::grid_2d(5, 5, &mut generators::WeightRng::new(3));
//! let truth = mst::kruskal(&g);
//! assert_eq!(run_ghs(&g)?.edges, truth.edges);
//! assert_eq!(run_pipeline(&g)?.edges, truth.edges);
//! # Ok::<(), dmst_baselines::BaselineError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

pub mod ghs;
pub mod pipeline;

use std::error::Error;
use std::fmt;

use congest_sim::{Network, RunConfig, RunStats, SimError, Topology};
use dmst_core::{marked_mst_edges, run_forest, ElkinConfig, RunError};
use dmst_graphs::{EdgeId, WeightedGraph};

pub use ghs::{GhsMsg, GhsNode};
pub use pipeline::{PipeMsg, PipeNode};

/// Errors from the baseline runners.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BaselineError {
    /// The input graph is not connected.
    Disconnected,
    /// The simulator rejected the execution.
    Sim(SimError),
    /// Inconsistent per-vertex outputs (algorithm bug).
    BadOutput(String),
}

impl fmt::Display for BaselineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BaselineError::Disconnected => write!(f, "input graph is not connected"),
            BaselineError::Sim(e) => write!(f, "simulation failed: {e}"),
            BaselineError::BadOutput(m) => write!(f, "inconsistent output: {m}"),
        }
    }
}

impl Error for BaselineError {}

impl From<SimError> for BaselineError {
    fn from(e: SimError) -> Self {
        BaselineError::Sim(e)
    }
}

impl From<RunError> for BaselineError {
    fn from(e: RunError) -> Self {
        match e {
            RunError::Disconnected => BaselineError::Disconnected,
            RunError::Sim(s) => BaselineError::Sim(s),
            RunError::BadOutput(m) => BaselineError::BadOutput(m),
            other => BaselineError::BadOutput(other.to_string()),
        }
    }
}

/// Result of a baseline MST computation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BaselineRun {
    /// MST edge ids, sorted ascending.
    pub edges: Vec<EdgeId>,
    /// Total raw weight.
    pub total_weight: u128,
    /// Combined statistics (for [`run_pipeline`], the sum over both chained
    /// simulations).
    pub stats: RunStats,
}

/// Adds `b` into `a`: rounds/messages/wire words sum, peaks take the max,
/// tags merge.
pub fn combine_stats(a: &mut RunStats, b: &RunStats) {
    a.rounds += b.rounds;
    a.messages += b.messages;
    a.wire_words += b.wire_words;
    a.peak_round_messages = a.peak_round_messages.max(b.peak_round_messages);
    a.peak_edge_words = a.peak_edge_words.max(b.peak_edge_words);
    for (tag, t) in &b.by_tag {
        let e = a.by_tag.entry(tag).or_default();
        e.messages += t.messages;
        e.wire_words += t.wire_words;
    }
}

fn sim_config(g: &WeightedGraph) -> RunConfig {
    RunConfig { max_rounds: 1_000_000 + 600 * g.num_nodes() as u64, ..RunConfig::default() }
}

/// Runs the GHS-style synchronous Borůvka baseline (root = vertex 0).
///
/// # Errors
///
/// [`BaselineError::Disconnected`] on disconnected input; simulator and
/// consistency failures otherwise.
pub fn run_ghs(g: &WeightedGraph) -> Result<BaselineRun, BaselineError> {
    if !g.is_connected() {
        return Err(BaselineError::Disconnected);
    }
    let topo = Topology::new(g.num_nodes(), g.edges())
        .map_err(|e| BaselineError::BadOutput(e.to_string()))?;
    let mut net = Network::new(topo, |info| GhsNode::new(info, 0));
    let stats = net.run(&sim_config(g))?;
    let edges = marked_mst_edges(g, &net, GhsNode::mst_ports)?;
    let total_weight = g.total_weight(edges.iter().copied());
    Ok(BaselineRun { edges, total_weight, stats })
}

/// Runs the GKP98 Pipeline baseline: Controlled-GHS with `k = sqrt(n)`
/// (phase 1, via `dmst_core::run_forest`), then Pipeline-MST with cycle
/// filtering and a chosen-edge broadcast (phase 2). Costs are summed over
/// the two chained simulations.
///
/// # Errors
///
/// [`BaselineError::Disconnected`] on disconnected input; simulator and
/// consistency failures otherwise.
pub fn run_pipeline(g: &WeightedGraph) -> Result<BaselineRun, BaselineError> {
    let n = g.num_nodes() as u64;
    let k = dmst_core::util::isqrt(n).max(1);
    let cfg = ElkinConfig { k_override: Some(k), ..ElkinConfig::default() };
    let forest = run_forest(g, &cfg)?;

    let topo = Topology::new(g.num_nodes(), g.edges())
        .map_err(|e| BaselineError::BadOutput(e.to_string()))?;
    let mut net = Network::new(topo, |info| PipeNode::new(info, &forest));
    let phase2 = net.run(&sim_config(g))?;

    let edges = marked_mst_edges(g, &net, PipeNode::mst_ports)?;
    let total_weight = g.total_weight(edges.iter().copied());
    let mut stats = forest.stats.clone();
    combine_stats(&mut stats, &phase2);
    Ok(BaselineRun { edges, total_weight, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmst_graphs::{generators as gen, mst};

    fn check_both(g: &WeightedGraph, label: &str) {
        let truth = mst::kruskal(g);
        let ghs = run_ghs(g).unwrap_or_else(|e| panic!("ghs {label}: {e}"));
        assert_eq!(ghs.edges, truth.edges, "ghs {label}");
        let pipe = run_pipeline(g).unwrap_or_else(|e| panic!("pipeline {label}: {e}"));
        assert_eq!(pipe.edges, truth.edges, "pipeline {label}");
    }

    #[test]
    fn baselines_across_families() {
        let r = &mut gen::WeightRng::new(17);
        check_both(&gen::path(30, r), "path");
        check_both(&gen::cycle(25, r), "cycle");
        check_both(&gen::complete(16, r), "complete");
        check_both(&gen::grid_2d(6, 6, r), "grid");
        check_both(&gen::random_connected(60, 150, r), "random");
        check_both(&gen::path_of_cliques(6, 4, r), "cliquepath");
        check_both(&gen::star(20, r), "star");
        check_both(&gen::path(2, r), "n2");
    }

    #[test]
    fn ghs_message_complexity_stays_near_linear() {
        let r = &mut gen::WeightRng::new(23);
        let g = gen::random_connected(128, 512, r);
        let run = run_ghs(&g).unwrap();
        let m = g.num_edges() as u64;
        let n = g.num_nodes() as u64;
        let bound = 16 * (m + n * 7); // generous constant on O(m + n log n)
        assert!(run.stats.messages < bound, "{} >= {bound}", run.stats.messages);
    }

    #[test]
    fn disconnected_rejected() {
        let g = WeightedGraph::new(4, vec![(0, 1, 1), (2, 3, 1)]).unwrap();
        assert_eq!(run_ghs(&g), Err(BaselineError::Disconnected));
        assert!(matches!(run_pipeline(&g), Err(BaselineError::Disconnected)));
    }

    #[test]
    fn combine_stats_sums_and_merges() {
        let mut a = RunStats { rounds: 5, messages: 10, wire_words: 20, ..Default::default() };
        a.by_tag.insert("x", congest_sim::TagStats { messages: 10, wire_words: 20 });
        let mut b = RunStats { rounds: 7, messages: 1, wire_words: 2, ..Default::default() };
        b.by_tag.insert("x", congest_sim::TagStats { messages: 1, wire_words: 2 });
        b.by_tag.insert("y", congest_sim::TagStats { messages: 0, wire_words: 0 });
        combine_stats(&mut a, &b);
        assert_eq!(a.rounds, 12);
        assert_eq!(a.messages, 11);
        assert_eq!(a.wire_words, 22);
        assert_eq!(a.by_tag["x"].messages, 11);
        assert!(a.by_tag.contains_key("y"));
    }
}
