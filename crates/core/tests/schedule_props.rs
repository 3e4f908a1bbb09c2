//! Property tests for the Stage B schedule: total coverage, window order,
//! and budget sanity over arbitrary parameters.

use proptest::prelude::*;

use dmst_core::util::isqrt;
use dmst_core::{choose_k, choose_k_cost, Params, Schedule, Window};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Walking `next_opening` from t0 visits every window once: `opening`
    /// is `Some` exactly at the rounds the walk reaches, `17 + L` times per
    /// phase (Announce, Probe, Connect, `L` exchanges, six Collect/Accept
    /// pairs, MergeGo, MergeFlood), phases in order, and the walk ends at
    /// `end`, where the phase lengths sum to the stage length.
    #[test]
    fn openings_total_and_monotone(n in 2u64..100_000, k in 1u64..600, t0 in 0u64..10_000) {
        let s = Schedule::new(&Params { n, h: 5, k, t0 });
        prop_assert!(s.opening(t0.wrapping_sub(1)).is_none() || t0 == 0);
        prop_assert!(s.opening(s.end()).is_none());
        prop_assert_eq!(s.next_opening(s.end()), s.end() + 1);
        let mut per_phase = vec![0u32; s.num_phases() as usize];
        let mut last_phase = 0;
        let mut r = s.start();
        while r < s.end() {
            let (phase, _) = s.opening(r).expect("the walk stops at openings");
            prop_assert!(phase >= last_phase, "phase {} after {}", phase, last_phase);
            last_phase = phase;
            per_phase[phase as usize] += 1;
            let next = s.next_opening(r);
            prop_assert!(next > r);
            for q in r + 1..next {
                prop_assert!(s.opening(q).is_none(), "round {} opens nothing", q);
            }
            r = next;
        }
        prop_assert_eq!(r, s.end());
        prop_assert!(per_phase.iter().all(|&w| w == 17 + s.exchanges()), "{:?}", per_phase);
        let total: u64 = (0..s.num_phases()).map(|i| s.phase_len(i)).sum();
        prop_assert_eq!(total, s.end() - s.start());
    }

    /// The phases tile `[t0, end)`: each phase opens with its single
    /// Announce round, its last round opens nothing and hands over to the
    /// next phase's Announce, or past Stage B after the last phase.
    #[test]
    fn phase_boundaries(
        n in 2u64..10_000,
        k in 2u64..200,
        h in 0u64..500,
        t0 in 0u64..1_000,
    ) {
        let s = Schedule::new(&Params { n, h, k, t0 });
        let mut start = t0;
        for i in 0..s.num_phases() {
            let len = s.phase_len(i);
            prop_assert_eq!(s.opening(start), Some((i, Window::Announce)));
            prop_assert_eq!(s.next_opening(start), start + 1, "announce is a single round");
            prop_assert_eq!(s.opening(start + len - 1), None);
            prop_assert_eq!(s.next_opening(start + len - 1), start + len);
            match s.opening(start + len) {
                Some(over) => prop_assert_eq!(over, (i + 1, Window::Announce)),
                None => prop_assert_eq!((i + 1, start + len), (s.num_phases(), s.end())),
            }
            start += len;
        }
        prop_assert_eq!(start, s.end());
    }

    /// choose_k honors both regimes and never returns zero.
    #[test]
    fn choose_k_sane(n in 1u64..1_000_000, h in 0u64..5_000, b in 1u32..64) {
        let k = choose_k(n, h, b);
        prop_assert!(k >= 1);
        prop_assert!(k >= h.min(n));
        // k is never larger than max(h, sqrt(n)) + 1.
        let sq = (n as f64).sqrt() as u64 + 1;
        prop_assert!(k <= h.max(sq));
    }

    /// The cost model stays in `1..=isqrt(n/b)`, returns a power of two or
    /// the cap itself, and moves monotonically: up with `h`, down with `b`.
    #[test]
    fn choose_k_cost_sane(
        n in 1u64..1_000_000,
        h in 0u64..5_000,
        dh in 0u64..2_000,
        b in 1u32..64,
        db in 0u32..64,
    ) {
        let k = choose_k_cost(n, h, b);
        let cap = isqrt(n / u64::from(b)).max(1);
        prop_assert!((1..=cap).contains(&k), "k = {} outside 1..={}", k, cap);
        prop_assert!(k.is_power_of_two() || k == cap, "k = {} is neither 2^i nor the cap", k);
        let taller = choose_k_cost(n, h + dh, b);
        prop_assert!(taller >= k, "k fell from {} to {} as h grew by {}", k, taller, dh);
        let wider = choose_k_cost(n, h, b + db);
        prop_assert!(wider <= k, "k rose from {} to {} as b grew by {}", k, wider, db);
    }
}
