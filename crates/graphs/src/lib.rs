//! # dmst-graphs — weighted graphs, generators, and sequential MST oracles
//!
//! Substrate crate for the reproduction of Elkin's deterministic distributed
//! MST algorithm (PODC 2017). It provides:
//!
//! * [`WeightedGraph`]: a validated, undirected, simple weighted graph.
//! * [`EdgeKey`]: the lexicographic tie-breaking order `(w, min(u,v),
//!   max(u,v))` that makes the MST unique for *any* weight assignment — the
//!   standard reduction the paper cites (\[Pel00\], Ch. 5).
//! * [`generators`]: deterministic families used by the experiments (paths,
//!   grids, tori, hypercubes, random connected graphs, path-of-cliques with
//!   controlled diameter, ...).
//! * [`analysis`]: BFS, eccentricities, exact and two-sweep diameter,
//!   connected components.
//! * [`mst`]: sequential Kruskal, Prim, and Borůvka — the ground truth every
//!   distributed run is checked against.
//! * [`UnionFind`]: path-halving + union-by-rank disjoint sets.
//!
//! ```
//! use dmst_graphs::{generators, mst, analysis};
//!
//! let g = generators::torus_2d(8, 8, &mut generators::WeightRng::new(7));
//! let tree = mst::kruskal(&g);
//! assert_eq!(tree.edges.len(), g.num_nodes() - 1);
//! assert_eq!(tree, mst::prim(&g));
//! let d = analysis::diameter_exact(&g);
//! assert_eq!(d, 8); // 4 + 4 hops around the torus
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

pub mod analysis;
pub mod generators;
mod graph;
pub mod io;
pub mod mst;
mod unionfind;

pub use graph::{EdgeId, EdgeKey, GraphError, NodeId, WeightedGraph};
pub use unionfind::UnionFind;
