//! Property test for the DIMACS reader: any `p edge n m` header across the
//! whole `u64` range, followed by a few edge lines, yields a graph or an
//! error — never a panic, and never an allocation sized by the header.

use proptest::prelude::*;

use dmst_graphs::io::parse_dimacs;

/// Draws from every magnitude of `u64` alike: a uniform word shifted right
/// by a uniform `0..64` bits, so `0..8` is as likely as `2^63..`.
fn any_magnitude() -> impl Strategy<Value = u64> {
    (any::<u64>(), 0u32..64).prop_map(|(x, shift)| x >> shift)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 1024, ..ProptestConfig::default() })]

    #[test]
    fn any_header_parses_or_errors(
        n in any_magnitude(),
        m in any_magnitude(),
        edges in collection::vec((0u64..9, 0u64..9, any_magnitude()), 0..4),
    ) {
        let mut text = format!("p edge {n} {m}\n");
        for (u, v, w) in &edges {
            text += &format!("e {u} {v} {w}\n");
        }
        if let Ok(g) = parse_dimacs(text.as_bytes()) {
            prop_assert_eq!((g.num_nodes() as u64, g.num_edges() as u64), (n, m));
            prop_assert!(n <= 2 * m + 1);
        }
    }
}
