//! Small integer helpers used by schedule formulas and analysis.

/// The iterated logarithm `log* n`: how many times `log2` must be applied to
/// `n` before the value drops to at most 1. `log_star(1) == 0`,
/// `log_star(2) == 1`, `log_star(16) == 3`, `log_star(65536) == 4`.
pub fn log_star(n: u64) -> u32 {
    let mut x = n;
    let mut count = 0;
    while x > 1 {
        x = ceil_log2(x);
        count += 1;
    }
    count
}

/// `ceil(log2 n)` for `n >= 1`; `ceil_log2(1) == 0`.
///
/// # Panics
///
/// Panics if `n == 0`.
pub fn ceil_log2(n: u64) -> u64 {
    assert!(n > 0, "log2 of zero");
    u64::from(64 - (n - 1).leading_zeros()).min(63)
}

/// Integer square root: the largest `r` with `r * r <= n`.
pub fn isqrt(n: u64) -> u64 {
    if n == 0 {
        return 0;
    }
    let mut r = (n as f64).sqrt() as u64;
    while r.checked_mul(r).is_none_or(|sq| sq > n) {
        r -= 1;
    }
    while (r + 1).checked_mul(r + 1).is_some_and(|sq| sq <= n) {
        r += 1;
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn log_star_values() {
        assert_eq!(log_star(1), 0);
        assert_eq!(log_star(2), 1);
        assert_eq!(log_star(4), 2);
        assert_eq!(log_star(16), 3);
        assert_eq!(log_star(65536), 4);
        assert_eq!(log_star(u64::MAX), 5);
    }

    #[test]
    fn ceil_log2_values() {
        assert_eq!(ceil_log2(1), 0);
        assert_eq!(ceil_log2(2), 1);
        assert_eq!(ceil_log2(3), 2);
        assert_eq!(ceil_log2(4), 2);
        assert_eq!(ceil_log2(5), 3);
        assert_eq!(ceil_log2(1 << 40), 40);
    }

    #[test]
    fn isqrt_values() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(15), 3);
        assert_eq!(isqrt(16), 4);
        assert_eq!(isqrt(17), 4);
        assert_eq!(isqrt(u64::MAX), (1u64 << 32) - 1);
        for n in 0..2000u64 {
            let r = isqrt(n);
            assert!(r * r <= n && (r + 1) * (r + 1) > n);
        }
    }
}
