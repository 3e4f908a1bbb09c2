//! # dmst — deterministic distributed MST, reproduced
//!
//! Umbrella crate for the reproduction of Michael Elkin, *"A Simple
//! Deterministic Distributed MST Algorithm, with Near-Optimal Time and
//! Message Complexities"* (PODC 2017, arXiv:1703.02411). It re-exports the
//! four workspace crates:
//!
//! * [`congest`] — the deterministic synchronous `CONGEST(b log n)`
//!   simulator (rounds, per-edge bandwidth in words, message statistics);
//! * [`graphs`] — weighted graphs, deterministic generators, BFS/diameter
//!   analysis, and the sequential MST oracles (Kruskal/Prim/Borůvka);
//! * [`core`] — Elkin's algorithm itself (Stages A, B and D) plus the
//!   standalone Controlled-GHS forest construction of Theorem 4.3;
//! * [`baselines`] — the GHS-style and GKP98 Pipeline baselines from the
//!   paper's §1.1 comparison.
//!
//! ```
//! use dmst::core::{run_mst, ElkinConfig};
//! use dmst::graphs::{generators, mst};
//!
//! let g = generators::grid_2d(8, 8, &mut generators::WeightRng::new(42));
//! let run = run_mst(&g, &ElkinConfig::default())?;
//! assert_eq!(run.edges, mst::kruskal(&g).edges);
//! println!(
//!     "n = {}, rounds = {}, messages = {}",
//!     g.num_nodes(),
//!     run.stats.rounds,
//!     run.stats.messages
//! );
//! # Ok::<(), dmst::core::RunError>(())
//! ```
//!
//! See `DESIGN.md` for the system inventory and the per-experiment index,
//! and `EXPERIMENTS.md` for paper-vs-measured results.

#![warn(missing_docs)]

pub use congest_sim as congest;
pub use dmst_baselines as baselines;
pub use dmst_core as core;
pub use dmst_graphs as graphs;

pub mod testkit;
