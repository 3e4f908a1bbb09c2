//! # dmst-core — Elkin's deterministic distributed MST algorithm
//!
//! A faithful implementation of *"A Simple Deterministic Distributed MST
//! Algorithm, with Near-Optimal Time and Message Complexities"* (Michael
//! Elkin, PODC 2017) as per-vertex message-passing programs over the
//! [`congest_sim`] simulator.
//!
//! The algorithm computes the (unique, tie-broken) minimum spanning tree in
//! the synchronous `CONGEST(b log n)` model in `O((D + sqrt(n/b)) log n)`
//! rounds using `O(m log n + n log n log* n)` messages (Theorems 3.1/3.2),
//! via:
//!
//! 1. an auxiliary BFS tree, global parameter agreement, and interval
//!    labeling of the BFS tree for point-to-point routing, the labels
//!    riding the parameter broadcast (Stage A);
//! 2. **Controlled-GHS** (paper §4): `ceil(log k)` phases of bounded-radius
//!    MWOE probing, Cole–Vishkin 3-coloring of the fragment forest
//!    ([`cv`]), maximal matching, and merge floods, yielding an
//!    `(O(n/k), O(k))` base MST forest (Theorem 4.3, standalone via
//!    [`run_forest`]);
//! 3. Borůvka phases over the base forest, opened as soon as Stage B ends,
//!    with pipelined, filtered candidate upcasts to the BFS root,
//!    root-local fragment-graph merging, and interval-routed answers
//!    (Stage D; the stages keep the letters of the census tags).
//!
//! ## Quick start
//!
//! ```
//! use dmst_core::{run_mst, ElkinConfig};
//! use dmst_graphs::{generators, mst};
//!
//! let g = generators::torus_2d(6, 6, &mut generators::WeightRng::new(1));
//! let run = run_mst(&g, &ElkinConfig::default())?;
//! assert_eq!(run.edges, mst::kruskal(&g).edges);
//! println!("rounds = {}, messages = {}", run.stats.rounds, run.stats.messages);
//! # Ok::<(), dmst_core::RunError>(())
//! ```

#![warn(missing_docs)]

mod candidate;
mod config;
pub mod cv;
mod forest;
pub mod fraggraph;
pub mod intervals;
mod msg;
mod node;
mod runner;
mod schedule;
pub mod util;

pub use candidate::{CandKey, Candidate};
pub use config::ElkinConfig;
pub use forest::{analyze_forest, ForestReport};
pub use msg::{Msg, Walk};
pub use node::ElkinNode;
pub use runner::{marked_mst_edges, run_forest, run_mst, ForestRun, MstRun, RunError};
pub use schedule::{choose_k, choose_k_cost, ExchangeKind, Params, Schedule, Slot, Window};
