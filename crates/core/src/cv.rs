//! Cole–Vishkin deterministic color reduction on rooted forests \[CV86\].
//!
//! Section 4 of the paper 3-colors the candidate fragment graph `G'_i` (a
//! rooted forest: every fragment points at the fragment behind its MWOE) in
//! `log* n + O(1)` communication steps, then extracts a maximal matching in 3
//! more steps, one per color class. Any proper coloring gives a maximal
//! matching that way, one step per class, so this reproduction stops at six
//! colors and runs six matching steps instead of reducing six colors to
//! three first (DESIGN.md §2). This module holds the *pure* per-vertex color
//! transitions; the distributed driver (who talks to whom, in which round)
//! lives in the Controlled-GHS stage of the node program.
//!
//! **Bit-ladder steps** ([`cv_step`] / [`cv_step_root`]): with colors in
//! `0..K`, a vertex takes `2 * i + bit_i(c)` where `i` is the lowest bit
//! position at which its color differs from its parent's. Colors drop to
//! `0..2*ceil(log2 K)`; iterating reaches the fixed point `K = 6` after
//! [`steps_to_six`] iterations.
//!
//! All functions are deterministic and total; properness invariants are
//! exercised by unit tests and a whole-forest property test.

/// Number of bit-ladder iterations needed to bring colors from `0..initial`
/// down to `0..=5`. Every vertex must run the *same* number of iterations,
/// so the count depends only on the public bound (`n`), not on local state.
pub fn steps_to_six(initial: u64) -> u32 {
    let mut k = initial.max(1);
    let mut steps = 0;
    while k > 6 {
        k = 2 * crate::util::ceil_log2(k);
        steps += 1;
    }
    steps
}

/// One bit-ladder step for a vertex with a parent. Requires `my != parent`
/// (a proper coloring); produces colors that remain proper.
///
/// # Panics
///
/// Panics (debug) if `my == parent`, which would mean the input coloring was
/// not proper.
pub fn cv_step(my: u64, parent: u64) -> u64 {
    debug_assert_ne!(my, parent, "Cole-Vishkin requires a proper input coloring");
    let i = u64::from((my ^ parent).trailing_zeros());
    2 * i + ((my >> i) & 1)
}

/// One bit-ladder step for a root: it pretends its parent's color is its own
/// with bit 0 flipped, so it lands in `{0, 1}` and stays distinct from any
/// child that branched at bit 0.
pub fn cv_step_root(my: u64) -> u64 {
    my & 1
}

/// Reference driver: runs the bit ladder on an explicitly represented
/// rooted forest (`parent[v] == usize::MAX` for roots) starting from the
/// coloring `color[v] = v`. Returns a proper coloring with colors in `0..6`.
///
/// The Controlled-GHS stage runs these transitions, one communication step
/// per iteration; this function exists so tests can check them on whole
/// forests.
///
/// # Panics
///
/// Panics if `parent` contains an out-of-range entry or a self-loop.
pub fn six_color_forest(parent: &[usize]) -> Vec<u64> {
    let n = parent.len();
    for (v, &p) in parent.iter().enumerate() {
        assert!(p == usize::MAX || (p < n && p != v), "invalid parent pointer at {v}");
    }
    let mut color: Vec<u64> = (0..n as u64).collect();
    for _ in 0..steps_to_six(n as u64) {
        let prev = color.clone();
        for v in 0..n {
            color[v] = if parent[v] == usize::MAX {
                cv_step_root(prev[v])
            } else {
                cv_step(prev[v], prev[parent[v]])
            };
        }
    }
    color
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_proper(parent: &[usize], color: &[u64]) {
        for (v, &p) in parent.iter().enumerate() {
            if p != usize::MAX {
                assert_ne!(color[v], color[p], "vertex {v} collides with parent {p}");
            }
        }
    }

    #[test]
    fn steps_to_six_values() {
        assert_eq!(steps_to_six(1), 0);
        assert_eq!(steps_to_six(6), 0);
        assert_eq!(steps_to_six(7), 1); // 7 -> 2*ceil(log2 7) = 6
        assert_eq!(steps_to_six(64), 3); // 64 -> 12 -> 8 -> 6
    }

    #[test]
    fn cv_step_keeps_properness() {
        for my in 0..64u64 {
            for parent in 0..64u64 {
                if my == parent {
                    continue;
                }
                let a = cv_step(my, parent);
                // Simulate the parent against an arbitrary grandparent.
                for gp in 0..64u64 {
                    if gp == parent {
                        continue;
                    }
                    let b = cv_step(parent, gp);
                    assert_ne!(a, b, "collision: child({my},{parent}) vs parent({parent},{gp})");
                }
                let b_root = cv_step_root(parent);
                assert_ne!(a, b_root, "collision against root parent ({my}, {parent})");
            }
        }
    }

    #[test]
    fn chain_reduces_to_six() {
        let n = 200;
        let parent: Vec<usize> = (0..n).map(|v| if v == 0 { usize::MAX } else { v - 1 }).collect();
        let color = six_color_forest(&parent);
        assert_proper(&parent, &color);
        assert!(color.iter().all(|&c| c < 6));
    }

    #[test]
    fn stars_and_forests() {
        // Star: root 0, all others children of 0.
        let parent: Vec<usize> =
            std::iter::once(usize::MAX).chain(std::iter::repeat(0)).take(50).collect();
        let color = six_color_forest(&parent);
        assert_proper(&parent, &color);
        assert!(color.iter().all(|&c| c < 6));

        // Forest of two chains.
        let p2 = vec![usize::MAX, 0, 1, usize::MAX, 3, 4];
        let color = six_color_forest(&p2);
        assert_proper(&p2, &color);
        assert!(color.iter().all(|&c| c < 6));
    }

    #[test]
    fn singleton_and_empty() {
        assert_eq!(six_color_forest(&[]), Vec::<u64>::new());
        let c = six_color_forest(&[usize::MAX]);
        assert!(c[0] < 6);
    }
}
