//! Wire-format round-trip properties for the baseline protocols
//! ([`GhsMsg`], [`PipeMsg`]): `decode(encode(m)) == m`, decode consumes
//! exactly the encoded words, and `1 <= len <= UNIT_WORDS` for every
//! variant — the same contract `crates/core/tests/wire_roundtrip.rs` pins
//! for the Elkin protocol.
//!
//! Domain notes: `GhsMsg::MwoeUp` and `PipeMsg::Chosen` pack `key.lo`
//! (a vertex id) into the tag word, so the generators build keys with at
//! least one endpoint `< 2^32` — `CandKey::new` normalizes `lo` to the
//! smaller endpoint, which is then packable. Weights carry full words.

use congest_sim::{Message, WireReader, WireWriter, UNIT_WORDS};
use dmst_baselines::{GhsMsg, PipeMsg};
use dmst_core::CandKey;
use proptest::prelude::*;

/// Encode, check the length bounds, decode, check identity and consumed
/// span (the executor ring advances by exactly this much).
fn check<M: Message + PartialEq + std::fmt::Debug>(m: &M) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    let mut w = WireWriter::new(&mut buf);
    m.encode(&mut w);
    let len = w.len();
    prop_assert!((1..=UNIT_WORDS as usize).contains(&len), "{:?} encodes to {} words", m, len);
    let mut r = WireReader::new(&buf);
    let back = M::decode(&mut r);
    prop_assert_eq!(&back, m);
    prop_assert_eq!(r.consumed(), buf.len(), "decode consumed a different span for {:?}", m);
    Ok(())
}

fn build_ghs(sel: usize, small: u32, big: u64, big2: u64, flag: bool) -> GhsMsg {
    let id = u64::from(small);
    // `lo = min(id, big2) <= id < 2^32`: packable.
    let key = CandKey::new(big, id, big2);
    match sel {
        0 => GhsMsg::Hello { me: id },
        1 => GhsMsg::Bfs,
        2 => GhsMsg::BfsChild,
        3 => GhsMsg::Ready,
        4 => GhsMsg::PhaseStart,
        5 => GhsMsg::SearchGo,
        6 => GhsMsg::Test { frag: id },
        7 => GhsMsg::TestReply { same: flag },
        8 => GhsMsg::MwoeUp { cand: flag.then_some(key) },
        9 => GhsMsg::MwoePath,
        10 => GhsMsg::Connect,
        11 => GhsMsg::NewFrag { id },
        12 => GhsMsg::PhaseEnd,
        _ => GhsMsg::AlgoDone,
    }
}

fn build_pipe(sel: usize, small: u32, big: u64, big2: u64, big3: u64) -> PipeMsg {
    let id = u64::from(small);
    match sel {
        0 => PipeMsg::Hello { frag: id, me: big },
        // `Cand` stores the whole key in full words: no packing constraint.
        1 => PipeMsg::Cand { key: CandKey::new(big, big2, big3), src: id, dst: big2 },
        2 => PipeMsg::PipeDone,
        // `Chosen` packs `key.lo`: keep one endpoint small.
        3 => PipeMsg::Chosen { key: CandKey::new(big, id, big3) },
        _ => PipeMsg::DoneAll,
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn ghs_roundtrip(
        sel in 0usize..14,
        small in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        flag in any::<bool>(),
    ) {
        check(&build_ghs(sel, small, big, big2, flag))?;
    }

    #[test]
    fn pipe_roundtrip(
        sel in 0usize..5,
        small in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        big3 in any::<u64>(),
    ) {
        check(&build_pipe(sel, small, big, big2, big3))?;
    }

    /// Mixed back-to-back encoding into one unframed buffer decodes
    /// sequentially (ring behavior).
    #[test]
    fn ghs_ring_roundtrip(
        sels in proptest::collection::vec(0usize..14, 1..8),
        small in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        flag in any::<bool>(),
    ) {
        let msgs: Vec<GhsMsg> =
            sels.iter().map(|&s| build_ghs(s, small, big, big2, flag)).collect();
        let mut ring = Vec::new();
        for m in &msgs {
            let mut w = WireWriter::new(&mut ring);
            m.encode(&mut w);
        }
        let mut head = 0usize;
        for m in &msgs {
            let mut r = WireReader::new(&ring[head..]);
            prop_assert_eq!(&GhsMsg::decode(&mut r), m);
            head += r.consumed();
        }
        prop_assert_eq!(head, ring.len());
    }
}
