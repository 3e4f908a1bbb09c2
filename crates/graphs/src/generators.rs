//! Deterministic graph families used by the experiments.
//!
//! Every generator takes a [`WeightRng`] so structure and weights are fully
//! reproducible from a seed. Families are chosen to exercise the regimes the
//! paper distinguishes:
//!
//! * **low diameter** (`D <= sqrt(n)`): [`torus_2d`], [`hypercube`],
//!   [`complete`], [`random_connected`], [`circulant`];
//! * **high diameter** (`D > sqrt(n)`): [`path`], [`cycle`],
//!   [`path_of_cliques`] (diameter dialed by the number of cliques),
//!   [`barbell`], [`lollipop`], [`broom`], [`caterpillar`];
//! * **trees** (MST = graph): [`random_tree`], [`binary_tree`], [`star`].

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{NodeId, WeightedGraph};

/// Default weight range; large enough that uniform draws rarely collide,
/// while collisions remain harmless thanks to [`EdgeKey`](crate::EdgeKey)
/// tie-breaking.
pub const MAX_WEIGHT: u64 = 1_000_000;

/// Seeded random source for generator structure and edge weights.
#[derive(Clone, Debug)]
pub struct WeightRng {
    rng: StdRng,
}

impl WeightRng {
    /// Creates a source from a seed; equal seeds give equal graphs.
    pub fn new(seed: u64) -> Self {
        Self { rng: StdRng::seed_from_u64(seed) }
    }

    /// A uniform weight in `1..=MAX_WEIGHT`.
    pub fn weight(&mut self) -> u64 {
        self.rng.gen_range(1..=MAX_WEIGHT)
    }

    /// A uniform integer in `0..bound`.
    ///
    /// # Panics
    ///
    /// Panics if `bound == 0`.
    pub fn index(&mut self, bound: usize) -> usize {
        self.rng.gen_range(0..bound)
    }
}

fn build(n: usize, mut edges: Vec<(NodeId, NodeId, u64)>, rng: &mut WeightRng) -> WeightedGraph {
    for e in &mut edges {
        e.2 = rng.weight();
    }
    WeightedGraph::new(n, edges).expect("generator produced an invalid graph")
}

/// The path `0 - 1 - ... - (n-1)`; diameter `n - 1`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn path(n: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(n > 0, "path needs at least one vertex");
    build(n, (1..n).map(|v| (v - 1, v, 0)).collect(), rng)
}

/// The cycle on `n >= 3` vertices; diameter `floor(n/2)`.
///
/// # Panics
///
/// Panics if `n < 3`.
pub fn cycle(n: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(n >= 3, "cycle needs at least three vertices");
    let mut edges: Vec<(NodeId, NodeId, u64)> = (1..n).map(|v| (v - 1, v, 0)).collect();
    edges.push((n - 1, 0, 0));
    build(n, edges, rng)
}

/// The complete graph `K_n`; diameter 1.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn complete(n: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(n > 0, "complete graph needs at least one vertex");
    let mut edges = Vec::with_capacity(n * (n - 1) / 2);
    for u in 0..n {
        for v in (u + 1)..n {
            edges.push((u, v, 0));
        }
    }
    build(n, edges, rng)
}

/// The star with center 0 and `n - 1` leaves; diameter 2.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn star(n: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(n > 0, "star needs at least one vertex");
    build(n, (1..n).map(|v| (0, v, 0)).collect(), rng)
}

/// The complete binary tree on `n` vertices (heap layout: parent of `v` is
/// `(v - 1) / 2`).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn binary_tree(n: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(n > 0, "binary tree needs at least one vertex");
    build(n, (1..n).map(|v| ((v - 1) / 2, v, 0)).collect(), rng)
}

/// A uniformly random recursive tree: vertex `v` attaches to a uniform
/// earlier vertex. Expected diameter `O(log n)`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_tree(n: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(n > 0, "tree needs at least one vertex");
    let edges = (1..n).map(|v| (rng.index(v), v, 0)).collect();
    build(n, edges, rng)
}

/// The `rows x cols` grid; diameter `rows + cols - 2`.
///
/// # Panics
///
/// Panics if either dimension is 0.
pub fn grid_2d(rows: usize, cols: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(rows > 0 && cols > 0, "grid needs positive dimensions");
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            if c + 1 < cols {
                edges.push((id(r, c), id(r, c + 1), 0));
            }
            if r + 1 < rows {
                edges.push((id(r, c), id(r + 1, c), 0));
            }
        }
    }
    build(rows * cols, edges, rng)
}

/// The `rows x cols` torus (grid with wraparound); diameter
/// `floor(rows/2) + floor(cols/2)`. Needs `rows, cols >= 3` to stay simple.
///
/// # Panics
///
/// Panics if either dimension is below 3.
pub fn torus_2d(rows: usize, cols: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(rows >= 3 && cols >= 3, "torus needs both dimensions >= 3");
    let id = |r: usize, c: usize| r * cols + c;
    let mut edges = Vec::new();
    for r in 0..rows {
        for c in 0..cols {
            edges.push((id(r, c), id(r, (c + 1) % cols), 0));
            edges.push((id(r, c), id((r + 1) % rows, c), 0));
        }
    }
    build(rows * cols, edges, rng)
}

/// The `dim`-dimensional hypercube on `2^dim` vertices; diameter `dim`.
///
/// # Panics
///
/// Panics if `dim == 0` or `dim >= 24`.
pub fn hypercube(dim: u32, rng: &mut WeightRng) -> WeightedGraph {
    assert!(dim > 0 && dim < 24, "hypercube dimension must be in 1..24");
    let n = 1usize << dim;
    let mut edges = Vec::with_capacity(n * dim as usize / 2);
    for v in 0..n {
        for b in 0..dim {
            let u = v ^ (1 << b);
            if v < u {
                edges.push((v, u, 0));
            }
        }
    }
    build(n, edges, rng)
}

/// The circulant graph: a cycle on `n` vertices plus chords at the given
/// offsets. Low diameter for well-spread offsets; a cheap deterministic
/// expander stand-in.
///
/// # Panics
///
/// Panics if `n < 3` or any offset is 0 or `>= n / 2 + 1`.
pub fn circulant(n: usize, offsets: &[usize], rng: &mut WeightRng) -> WeightedGraph {
    assert!(n >= 3, "circulant needs at least three vertices");
    let mut edges = Vec::new();
    let mut all = vec![1usize];
    all.extend_from_slice(offsets);
    all.sort_unstable();
    all.dedup();
    for &o in &all {
        assert!(o >= 1 && 2 * o <= n, "offset {o} invalid for n = {n}");
        for v in 0..n {
            let u = (v + o) % n;
            // For the half-way offset each edge would be generated twice.
            if 2 * o == n && v >= u {
                continue;
            }
            edges.push((v, u, 0));
        }
    }
    build(n, edges, rng)
}

/// A connected random graph: a random recursive tree plus `extra` uniform
/// non-duplicate chords. `m = n - 1 + extra` (chords that collide with
/// existing edges are re-drawn a bounded number of times, so `m` can fall
/// slightly short on dense inputs).
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn random_connected(n: usize, extra: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(n > 0, "graph needs at least one vertex");
    let mut edges: Vec<(NodeId, NodeId, u64)> = (1..n).map(|v| (rng.index(v), v, 0)).collect();
    #[expect(
        clippy::disallowed_types,
        reason = "membership-only rejection sampling set, never iterated"
    )]
    let mut seen: std::collections::HashSet<(NodeId, NodeId)> =
        edges.iter().map(|&(u, v, _)| (u.min(v), u.max(v))).collect();
    let max_extra = n.saturating_mul(n.saturating_sub(1)) / 2 - edges.len();
    let want = extra.min(max_extra);
    let mut added = 0;
    let mut attempts = 0;
    while added < want && attempts < 20 * want + 100 {
        attempts += 1;
        let u = rng.index(n);
        let v = rng.index(n);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        if seen.insert(key) {
            edges.push((key.0, key.1, 0));
            added += 1;
        }
    }
    build(n, edges, rng)
}

/// Two cliques of size `clique` joined by a path of `path_len` extra
/// vertices; diameter `path_len + 3` (for `clique >= 2`).
///
/// # Panics
///
/// Panics if `clique < 2`.
pub fn barbell(clique: usize, path_len: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(clique >= 2, "barbell cliques need at least two vertices");
    let n = 2 * clique + path_len;
    let mut edges = Vec::new();
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v, 0));
            edges.push((clique + path_len + u, clique + path_len + v, 0));
        }
    }
    // Path bridging the cliques: clique-1 .. bridge vertices .. clique+path_len.
    let mut prev = clique - 1;
    for i in 0..path_len {
        edges.push((prev, clique + i, 0));
        prev = clique + i;
    }
    edges.push((prev, clique + path_len, 0));
    build(n, edges, rng)
}

/// A clique of size `clique` with a path of `path_len` vertices hanging off
/// one clique vertex; the classic high-diameter, locally-dense family.
///
/// # Panics
///
/// Panics if `clique < 2`.
pub fn lollipop(clique: usize, path_len: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(clique >= 2, "lollipop clique needs at least two vertices");
    let n = clique + path_len;
    let mut edges = Vec::new();
    for u in 0..clique {
        for v in (u + 1)..clique {
            edges.push((u, v, 0));
        }
    }
    let mut prev = clique - 1;
    for i in 0..path_len {
        edges.push((prev, clique + i, 0));
        prev = clique + i;
    }
    build(n, edges, rng)
}

/// `count` cliques of size `size` arranged in a row, consecutive cliques
/// joined by a single edge. `n = count * size`, `m = Θ(count * size²)`,
/// diameter `Θ(count)` — the family that dials `D` independently of `n`,
/// used for the paper's large-diameter regime (`k = D`).
///
/// # Panics
///
/// Panics if `count == 0` or `size < 2`.
pub fn path_of_cliques(count: usize, size: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(count > 0, "need at least one clique");
    assert!(size >= 2, "cliques need at least two vertices");
    let n = count * size;
    let mut edges = Vec::new();
    for c in 0..count {
        let base = c * size;
        for u in 0..size {
            for v in (u + 1)..size {
                edges.push((base + u, base + v, 0));
            }
        }
        if c + 1 < count {
            // Last vertex of this clique to first vertex of the next.
            edges.push((base + size - 1, base + size, 0));
        }
    }
    build(n, edges, rng)
}

/// A torus whose weights force the MST to be a Hamiltonian "snake": the
/// boustrophedon row-major path gets ascending small weights, every other
/// edge a weight above them all. `D = Θ(sqrt(n))` but `Diam(MST) = n - 1`
/// — the adversarial input separating diameter-controlled algorithms
/// (Elkin: `O((D + sqrt n) log n)` rounds) from GHS-style merging (`Θ(n)`
/// tall fragments, `Θ(n log n)` rounds).
///
/// # Panics
///
/// Panics if either dimension is below 3.
pub fn snake_torus(rows: usize, cols: usize, rng: &mut WeightRng) -> WeightedGraph {
    let g = torus_2d(rows, cols, rng);
    let n = g.num_nodes() as u64;
    let id = |r: usize, c: usize| r * cols + c;
    // Consecutive vertices along the snake: row 0 left-to-right, row 1
    // right-to-left, ...
    let mut snake_rank = std::collections::BTreeMap::new();
    let mut prev: Option<usize> = None;
    let mut rank = 0u64;
    for r in 0..rows {
        let cs: Vec<usize> =
            if r % 2 == 0 { (0..cols).collect() } else { (0..cols).rev().collect() };
        for c in cs {
            if let Some(p) = prev {
                snake_rank.insert((p.min(id(r, c)), p.max(id(r, c))), rank);
                rank += 1;
            }
            prev = Some(id(r, c));
        }
    }
    let edges = g
        .edges()
        .iter()
        .map(|&(u, v, _)| {
            let w = match snake_rank.get(&(u.min(v), u.max(v))) {
                Some(&r) => 1 + r,
                None => 10 * n + rng.index(n as usize) as u64,
            };
            (u, v, w)
        })
        .collect();
    WeightedGraph::new(rows * cols, edges).expect("same structure as the torus")
}

/// A caterpillar: a spine path of `spine` vertices, each with `legs` leaves.
///
/// # Panics
///
/// Panics if `spine == 0`.
pub fn caterpillar(spine: usize, legs: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(spine > 0, "caterpillar needs a spine");
    let n = spine * (1 + legs);
    let mut edges = Vec::new();
    for s in 1..spine {
        edges.push((s - 1, s, 0));
    }
    for s in 0..spine {
        for l in 0..legs {
            edges.push((s, spine + s * legs + l, 0));
        }
    }
    build(n, edges, rng)
}

/// A broom (star of paths): `paths` disjoint paths of length `len` all
/// attached to a central vertex 0; diameter `2 * len`.
///
/// # Panics
///
/// Panics if `paths == 0` or `len == 0`.
pub fn broom(paths: usize, len: usize, rng: &mut WeightRng) -> WeightedGraph {
    assert!(paths > 0 && len > 0, "broom needs positive arms");
    let n = 1 + paths * len;
    let mut edges = Vec::new();
    for p in 0..paths {
        let base = 1 + p * len;
        edges.push((0, base, 0));
        for i in 1..len {
            edges.push((base + i - 1, base + i, 0));
        }
    }
    build(n, edges, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis;

    fn rng() -> WeightRng {
        WeightRng::new(0xDEADBEEF)
    }

    #[test]
    fn sizes_and_connectivity() {
        let r = &mut rng();
        let cases: Vec<(WeightedGraph, usize, usize)> = vec![
            (path(10, r), 10, 9),
            (cycle(10, r), 10, 10),
            (complete(6, r), 6, 15),
            (star(7, r), 7, 6),
            (binary_tree(10, r), 10, 9),
            (random_tree(33, r), 33, 32),
            (grid_2d(4, 5, r), 20, 31),
            (torus_2d(4, 5, r), 20, 40),
            (hypercube(4, r), 16, 32),
            (circulant(12, &[3, 5], r), 12, 36),
            (barbell(4, 3, r), 11, 16),
            (lollipop(5, 4, r), 9, 14),
            (path_of_cliques(4, 3, r), 12, 15),
            (caterpillar(5, 2, r), 15, 14),
            (broom(3, 4, r), 13, 12),
        ];
        for (g, n, m) in cases {
            assert_eq!(g.num_nodes(), n);
            assert_eq!(g.num_edges(), m, "wrong edge count for n = {n}");
            assert!(g.is_connected(), "generator output disconnected (n = {n})");
        }
    }

    #[test]
    fn diameters_match_formulas() {
        let r = &mut rng();
        assert_eq!(analysis::diameter_exact(&path(9, r)), 8);
        assert_eq!(analysis::diameter_exact(&cycle(9, r)), 4);
        assert_eq!(analysis::diameter_exact(&complete(9, r)), 1);
        assert_eq!(analysis::diameter_exact(&star(9, r)), 2);
        assert_eq!(analysis::diameter_exact(&grid_2d(3, 4, r)), 5);
        assert_eq!(analysis::diameter_exact(&torus_2d(4, 6, r)), 5);
        assert_eq!(analysis::diameter_exact(&hypercube(5, r)), 5);
        assert_eq!(analysis::diameter_exact(&broom(4, 3, r)), 6);
        assert_eq!(analysis::diameter_exact(&barbell(3, 2, r)), 5);
    }

    #[test]
    fn path_of_cliques_diameter_scales_with_count() {
        let r = &mut rng();
        let d4 = analysis::diameter_exact(&path_of_cliques(4, 4, r));
        let d8 = analysis::diameter_exact(&path_of_cliques(8, 4, r));
        assert!(d8 > d4);
        assert_eq!(d4, 2 * 4 - 1); // alternating clique hop + bridge hop
    }

    #[test]
    fn snake_torus_mst_is_the_snake() {
        let r = &mut rng();
        let g = snake_torus(4, 5, r);
        assert_eq!(g.num_nodes(), 20);
        assert_eq!(g.num_edges(), 40);
        let t = crate::mst::kruskal(&g);
        assert_eq!(t.edges.len(), 19);
        // The MST is a path of diameter n-1: check via its total weight
        // (snake weights are 1..n-1) and its degree profile.
        assert_eq!(t.total_weight, (1..=19u128).sum());
        let mut deg = [0u32; 20];
        for &e in &t.edges {
            let (u, v) = g.endpoints(e);
            deg[u] += 1;
            deg[v] += 1;
        }
        assert_eq!(deg.iter().filter(|&&d| d == 1).count(), 2, "a path has two leaves");
        assert!(deg.iter().all(|&d| d <= 2), "a path has max degree 2");
    }

    #[test]
    fn random_connected_edge_budget() {
        let r = &mut rng();
        let g = random_connected(50, 100, r);
        assert_eq!(g.num_nodes(), 50);
        assert_eq!(g.num_edges(), 149);
        assert!(g.is_connected());
        // Requesting more chords than the complete graph holds saturates.
        let g2 = random_connected(5, 1000, r);
        assert_eq!(g2.num_edges(), 10);
    }

    #[test]
    fn determinism_by_seed() {
        let g1 = random_connected(40, 60, &mut WeightRng::new(7));
        let g2 = random_connected(40, 60, &mut WeightRng::new(7));
        let g3 = random_connected(40, 60, &mut WeightRng::new(8));
        assert_eq!(g1, g2);
        assert_ne!(g1, g3);
    }

    #[test]
    fn weights_in_range() {
        let g = complete(8, &mut rng());
        assert!(g.edges().iter().all(|&(_, _, w)| (1..=MAX_WEIGHT).contains(&w)));
    }
}
