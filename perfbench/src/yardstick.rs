//! A fixed reference kernel that measures how fast the machine runs right
//! now, so end-to-end timings can be reported at a nominal machine speed.
//!
//! On a shared machine the speed one process gets drifts by up to 2x over
//! minutes, and every timing in a run drifts with it: the ratio of a solve
//! to set-up work in the same run stays within a few percent while both
//! move together. The benchmark therefore times this kernel between its
//! solves and scales each end-to-end timing by
//! [`NOMINAL_S`]` / median(kernel time)`: the result reads as seconds on a
//! machine where the kernel takes [`NOMINAL_S`]. The kernel belongs to the
//! benchmark and does not change with the program, so the scale is the same
//! on every commit.

use std::hint::black_box;
use std::time::Instant;

/// Kernel time, in seconds, that defines the nominal machine speed.
pub const NOMINAL_S: f64 = 0.05;

/// Words the kernel sorts and gathers from: 8 MiB, past the private
/// caches, like the simulator's per-edge rings and node arenas.
const LEN: usize = 1 << 20;

/// Wallclock of one run of the kernel.
pub fn kernel_s() -> f64 {
    let start = Instant::now();
    black_box(kernel(0));
    start.elapsed().as_secs_f64()
}

/// Sorts `LEN` pseudo-random words, then gathers `LEN` of them at random.
fn kernel(seed: u64) -> u64 {
    let mut x = (seed + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut v: Vec<u64> = (0..LEN).map(|_| next()).collect();
    v.sort_unstable();
    (0..LEN).fold(0u64, |acc, _| acc.wrapping_add(v[next() as usize & (LEN - 1)]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_deterministic_and_timed() {
        assert_eq!(kernel(3), kernel(3));
        assert_ne!(kernel(0), kernel(1));
        assert!(kernel_s() > 0.0);
    }
}
