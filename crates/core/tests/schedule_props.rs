//! Property tests for the Stage B schedule: total coverage, window order,
//! and budget sanity over arbitrary parameters.

use proptest::prelude::*;

use dmst_core::util::isqrt;
use dmst_core::{choose_k, choose_k_cost, MergeControl, Params, Schedule, ScheduleMode, Window};

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Every round in [t0, end) maps to exactly one slot; offsets advance
    /// by one; windows only change after their final round; phases are
    /// visited in order.
    #[test]
    fn locate_total_and_monotone(
        n in 2u64..100_000,
        k in 1u64..600,
        t0 in 0u64..10_000,
        uncontrolled in any::<bool>(),
    ) {
        let mode = if uncontrolled { MergeControl::Uncontrolled } else { MergeControl::Matched };
        let params = Params { n, h: 5, k, t0 };
        let s = Schedule::new(&params, mode, ScheduleMode::Fixed);
        prop_assert!(s.locate(t0.wrapping_sub(1)).is_none() || t0 == 0);
        prop_assert!(s.locate(s.end()).is_none());
        if k <= 1 {
            prop_assert_eq!(s.end(), t0);
            return Ok(());
        }
        let mut prev: Option<dmst_core::Slot> = None;
        // Sample the whole range when small, a strided subset when huge.
        let len = s.end() - s.start();
        let stride = (len / 5000).max(1);
        let mut r = s.start();
        while r < s.end() {
            let slot = s.locate(r).expect("round inside stage B");
            if stride == 1 {
                if let Some(p) = prev {
                    if p.phase == slot.phase && p.window == slot.window {
                        prop_assert_eq!(slot.offset, p.offset + 1);
                    } else {
                        prop_assert!(p.last);
                        prop_assert_eq!(slot.offset, 0);
                        prop_assert!(slot.phase >= p.phase);
                    }
                }
                prev = Some(slot);
            }
            r += stride;
        }
        // Phase budgets sum to the stage length.
        let total: u64 = (0..s.num_phases()).map(|i| s.phase_len(i)).sum();
        prop_assert_eq!(total, s.end() - s.start());
    }

    /// The first window of every phase is Announce with length 1, and the
    /// last is MergeFlood.
    #[test]
    fn phase_boundaries(n in 2u64..10_000, k in 2u64..200) {
        let s = Schedule::new(&Params { n, h: 1, k, t0: 0 }, MergeControl::Matched,
            ScheduleMode::Fixed);
        let mut start = 0;
        for i in 0..s.num_phases() {
            let first = s.locate(start).unwrap();
            prop_assert_eq!(first.phase, i);
            prop_assert_eq!(first.window, Window::Announce);
            prop_assert!(first.last, "announce is a single round");
            let last = s.locate(start + s.phase_len(i) - 1).unwrap();
            prop_assert_eq!(last.phase, i);
            prop_assert_eq!(last.window, Window::MergeFlood);
            prop_assert!(last.last);
            start += s.phase_len(i);
        }
    }

    /// Relative location (the adaptive executor's view) agrees with the
    /// phase layout: Announce at offset 0, every phase's nominal end is the
    /// merge flood, and offsets past the layout stay in the flood window.
    #[test]
    fn locate_rel_matches_layout(
        n in 2u64..10_000,
        k in 2u64..200,
        h in 0u64..500,
        uncontrolled in any::<bool>(),
    ) {
        let merge = if uncontrolled { MergeControl::Uncontrolled } else { MergeControl::Matched };
        let s = Schedule::new(&Params { n, h, k, t0: 0 }, merge, ScheduleMode::Adaptive);
        for i in 0..s.num_phases() {
            let len = s.phase_len(i);
            let first = s.locate_rel(i, 0);
            prop_assert_eq!(first.window, Window::Announce);
            prop_assert!(first.last);
            let last = s.locate_rel(i, len - 1);
            prop_assert_eq!(last.window, Window::MergeFlood);
            prop_assert!(last.last);
            let over = s.locate_rel(i, len + 3);
            prop_assert_eq!(over.window, Window::MergeFlood);
            prop_assert!(!over.last);
            // Adaptive phases are never longer than fixed ones on paper.
            let f = Schedule::new(&Params { n, h, k, t0: 0 }, merge, ScheduleMode::Fixed);
            prop_assert!(s.phase_len(i) <= f.phase_len(i));
        }
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
        uncontrolled in any::<bool>(),
    ) {
        let merge = if uncontrolled { MergeControl::Uncontrolled } else { MergeControl::Matched };
        let k = choose_k_cost(n, h, b, merge);
        let cap = isqrt(n / u64::from(b)).max(1);
        prop_assert!((1..=cap).contains(&k), "k = {} outside 1..={}", k, cap);
        prop_assert!(k.is_power_of_two() || k == cap, "k = {} is neither 2^i nor the cap", k);
        let taller = choose_k_cost(n, h + dh, b, merge);
        prop_assert!(taller >= k, "k fell from {} to {} as h grew by {}", k, taller, dh);
        let wider = choose_k_cost(n, h, b + db, merge);
        prop_assert!(wider <= k, "k rose from {} to {} as b grew by {}", k, wider, db);
    }
}
