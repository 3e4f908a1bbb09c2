//! High-level entry points: run the algorithm on a graph, collect the MST
//! and the round/message statistics.

use std::error::Error;
use std::fmt;

use congest_sim::{Network, NodeProgram, PortId, RunConfig, RunStats, SimError, Topology};
use dmst_graphs::{EdgeId, WeightedGraph};

use crate::config::ElkinConfig;
use crate::node::ElkinNode;

/// Errors from [`run_mst`] / [`run_forest`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RunError {
    /// The input graph is not connected (the algorithm, like the paper,
    /// assumes a connected network).
    Disconnected,
    /// The configured root vertex does not exist.
    InvalidRoot {
        /// The offending root id.
        root: usize,
        /// Number of vertices.
        n: usize,
    },
    /// The simulator rejected the execution (bandwidth violation or round
    /// cap — either indicates a protocol bug, not an input problem).
    Sim(SimError),
    /// The per-vertex outputs were inconsistent (e.g. an edge marked at one
    /// endpoint only). Indicates an algorithm bug.
    BadOutput(String),
}

impl fmt::Display for RunError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RunError::Disconnected => write!(f, "input graph is not connected"),
            RunError::InvalidRoot { root, n } => {
                write!(f, "root {root} out of range for {n} vertices")
            }
            RunError::Sim(e) => write!(f, "simulation failed: {e}"),
            RunError::BadOutput(msg) => write!(f, "inconsistent output: {msg}"),
        }
    }
}

impl Error for RunError {}

impl From<SimError> for RunError {
    fn from(e: SimError) -> Self {
        RunError::Sim(e)
    }
}

/// Result of a full distributed MST computation.
#[derive(Clone, Debug)]
pub struct MstRun {
    /// MST edge ids, sorted ascending (canonical form, comparable to
    /// `dmst_graphs::mst::MstResult::edges`).
    pub edges: Vec<EdgeId>,
    /// Total raw weight of the tree.
    pub total_weight: u128,
    /// Rounds, messages, words, per-tag breakdown. Rounds per stage are
    /// `stats.rounds_in_stage("a")` through `"d"`: the simulator charges
    /// every executed round to the earliest stage any vertex is still in,
    /// so each boundary reflects the *last* vertex to cross it and the four
    /// counts partition `stats.rounds`. (Stages C and D overlap per vertex
    /// under the fused protocol; a round is "c" until the last vertex holds
    /// its initial coarse id.)
    pub stats: RunStats,
    /// The base-forest parameter the run settled on.
    pub k: u64,
    /// BFS tree height measured by Stage A (`H <= D <= 2H`).
    pub bfs_height: u64,
}

/// Result of a standalone Controlled-GHS run (Theorem 4.3).
#[derive(Clone, Debug)]
pub struct ForestRun {
    /// Fragment id of every vertex.
    pub fragment_of: Vec<u64>,
    /// Fragment-tree parent (as a *neighbor vertex id*) of every vertex;
    /// `None` at fragment roots.
    pub parent_of: Vec<Option<usize>>,
    /// BFS-tree parent (vertex id) of every vertex; `None` at the BFS root.
    /// Lets follow-up protocols (e.g. the GKP Pipeline baseline) reuse the
    /// auxiliary tree Stage A built.
    pub bfs_parent_of: Vec<Option<usize>>,
    /// Rounds, messages, words, per-tag breakdown.
    pub stats: RunStats,
    /// The parameter `k` used.
    pub k: u64,
    /// BFS tree height measured by Stage A.
    pub bfs_height: u64,
}

/// Builds the network of `ElkinNode`s for `g`; with `forest_only` every
/// vertex stops after Stage B (see [`run_forest`]).
fn network_for(
    g: &WeightedGraph,
    cfg: &ElkinConfig,
    forest_only: bool,
) -> Result<Network<ElkinNode>, RunError> {
    if cfg.root >= g.num_nodes().max(1) {
        return Err(RunError::InvalidRoot { root: cfg.root, n: g.num_nodes() });
    }
    if !g.is_connected() {
        return Err(RunError::Disconnected);
    }
    let topo = Topology::new(g.num_nodes(), g.edges())
        .map_err(|e| RunError::BadOutput(format!("graph/topology mismatch: {e}")))?;
    let cfg = *cfg;
    Ok(Network::new(topo, move |info| ElkinNode { forest_only, ..ElkinNode::new(info, cfg) }))
}

/// The `k` the BFS root settled on and the BFS height, read off a finished
/// network. An empty graph has no root: its empty tree is a `k = 1`,
/// height-0 forest.
fn k_and_height(net: &Network<ElkinNode>, cfg: &ElkinConfig) -> (u64, u64) {
    let k = net.nodes().get(cfg.root).and_then(ElkinNode::chosen_k).unwrap_or(1);
    let bfs_height = net.nodes().iter().map(ElkinNode::bfs_depth).max().unwrap_or(0);
    (k, bfs_height)
}

fn sim_config(g: &WeightedGraph, cfg: &ElkinConfig) -> RunConfig {
    RunConfig {
        bandwidth: cfg.bandwidth,
        // Generous but finite: Stage B budgets are O(k log* n) <= O(n), each
        // Boruvka phase is O(n), and there are O(log n) of them.
        max_rounds: 1_000_000 + 600 * g.num_nodes() as u64,
        shards: cfg.shards,
    }
}

/// The MST edges a finished network marked, sorted ascending: `ports_of`
/// lists a vertex's marked ports, every edge must be marked at both of its
/// endpoints or at neither, and a nonempty graph must get `n - 1` edges.
///
/// # Errors
///
/// [`RunError::BadOutput`] on a one-sided mark or a wrong edge count.
pub fn marked_mst_edges<P: NodeProgram>(
    g: &WeightedGraph,
    net: &Network<P>,
    ports_of: impl Fn(&P) -> Vec<PortId>,
) -> Result<Vec<EdgeId>, RunError> {
    let topo = net.topology();
    let mut marks: Vec<u8> = vec![0; g.num_edges()];
    for (v, node) in net.nodes().iter().enumerate() {
        for p in ports_of(node) {
            marks[topo.ports(v)[p].edge] += 1;
        }
    }
    let mut edges = Vec::new();
    for (e, &m) in marks.iter().enumerate() {
        match m {
            0 => {}
            2 => edges.push(e),
            _ => {
                return Err(RunError::BadOutput(format!(
                    "edge {e} marked at {m} endpoint(s), expected 0 or 2"
                )))
            }
        }
    }
    if g.num_nodes() > 0 && edges.len() != g.num_nodes() - 1 {
        return Err(RunError::BadOutput(format!(
            "{} MST edges for {} vertices",
            edges.len(),
            g.num_nodes()
        )));
    }
    Ok(edges)
}

/// Runs Elkin's deterministic distributed MST algorithm on `g` and returns
/// the canonical MST together with the measured complexity.
///
/// # Errors
///
/// See [`RunError`]; notably the graph must be connected.
///
/// ```
/// use dmst_core::{run_mst, ElkinConfig};
/// use dmst_graphs::{generators, mst};
///
/// let g = generators::random_connected(40, 80, &mut generators::WeightRng::new(5));
/// let run = run_mst(&g, &ElkinConfig::default())?;
/// assert_eq!(run.edges, mst::kruskal(&g).edges);
/// # Ok::<(), dmst_core::RunError>(())
/// ```
pub fn run_mst(g: &WeightedGraph, cfg: &ElkinConfig) -> Result<MstRun, RunError> {
    let mut net = network_for(g, cfg, false)?;
    let stats = net.run(&sim_config(g, cfg))?;

    let edges = marked_mst_edges(g, &net, ElkinNode::mst_ports)?;
    let (k, bfs_height) = k_and_height(&net, cfg);
    let total_weight = g.total_weight(edges.iter().copied());

    // Every ElkinNode reports a stage tag every round, so the simulator's
    // per-stage attribution partitions the run exactly.
    debug_assert_eq!(
        ["a", "b", "c", "d"].iter().map(|s| stats.rounds_in_stage(s)).sum::<u64>(),
        stats.rounds,
        "stage attribution must partition the run"
    );
    Ok(MstRun { edges, total_weight, stats, k, bfs_height })
}

/// Runs only Stages A+B (BFS + Controlled-GHS) and returns the
/// `(O(n/k), O(k))` base MST forest — the standalone object of the paper's
/// Theorem 4.3.
///
/// # Errors
///
/// See [`RunError`].
pub fn run_forest(g: &WeightedGraph, cfg: &ElkinConfig) -> Result<ForestRun, RunError> {
    let mut net = network_for(g, cfg, true)?;
    let stats = net.run(&sim_config(g, cfg))?;

    let topo = net.topology();
    let fragment_of: Vec<u64> = net.nodes().iter().map(ElkinNode::base_fragment).collect();
    let neighbor_of = |port: fn(&ElkinNode) -> Option<PortId>| -> Vec<Option<usize>> {
        let nodes = net.nodes().iter().enumerate();
        nodes.map(|(v, nd)| port(nd).map(|p| topo.ports(v)[p].neighbor)).collect()
    };
    let parent_of = neighbor_of(ElkinNode::fragment_parent);
    let bfs_parent_of = neighbor_of(ElkinNode::bfs_parent_port);
    let (k, bfs_height) = k_and_height(&net, cfg);
    Ok(ForestRun { fragment_of, parent_of, bfs_parent_of, stats, k, bfs_height })
}
