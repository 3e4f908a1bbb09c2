//! Wire-format round-trip properties for the baseline protocols
//! ([`GhsMsg`], [`PipeMsg`]): `decode(encode(m)) == m`, decode consumes
//! exactly the encoded words, and `1 <= len <= UNIT_WORDS` for every
//! variant — the same contract `crates/core/tests/wire_roundtrip.rs` pins
//! for the Elkin protocol. Every test walks one sample of every variant
//! (`every_ghs`, `every_pipe`), so a new variant is covered once it
//! compiles.
//!
//! Domain notes: `GhsMsg::MwoeUp` and `PipeMsg::Chosen` pack `key.lo`
//! (a vertex id) into the tag word, so the walks build keys with at
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

/// One `GhsMsg` of every variant, in declaration order, built from raw
/// components. Each arm names the next variant's sample and the match has
/// no wildcard arm, so a new variant does not compile until it has one.
fn every_ghs(small: u32, big: u64, big2: u64, flag: bool) -> Vec<GhsMsg> {
    let id = u64::from(small);
    // `lo = min(id, big2) <= id < 2^32`: packable.
    let key = CandKey::new(big, id, big2);
    std::iter::successors(Some(GhsMsg::Hello { me: id }), |m| {
        Some(match m {
            GhsMsg::Hello { .. } => GhsMsg::Bfs,
            GhsMsg::Bfs => GhsMsg::BfsChild,
            GhsMsg::BfsChild => GhsMsg::Ready,
            GhsMsg::Ready => GhsMsg::PhaseStart,
            GhsMsg::PhaseStart => GhsMsg::SearchGo,
            GhsMsg::SearchGo => GhsMsg::Test { frag: id },
            GhsMsg::Test { .. } => GhsMsg::TestReply { same: flag },
            GhsMsg::TestReply { .. } => GhsMsg::MwoeUp { cand: flag.then_some(key) },
            GhsMsg::MwoeUp { .. } => GhsMsg::MwoePath,
            GhsMsg::MwoePath => GhsMsg::Connect,
            GhsMsg::Connect => GhsMsg::NewFrag { id },
            GhsMsg::NewFrag { .. } => GhsMsg::PhaseEnd,
            GhsMsg::PhaseEnd => GhsMsg::AlgoDone,
            GhsMsg::AlgoDone => return None,
        })
    })
    .collect()
}

/// The same walk over `PipeMsg`.
fn every_pipe(small: u32, big: u64, big2: u64, big3: u64) -> Vec<PipeMsg> {
    let id = u64::from(small);
    std::iter::successors(Some(PipeMsg::Hello { frag: id, me: big }), |m| {
        Some(match m {
            // `Cand` stores the whole key in full words: no packing constraint.
            PipeMsg::Hello { .. } => {
                PipeMsg::Cand { key: CandKey::new(big, big2, big3), src: id, dst: big2 }
            }
            PipeMsg::Cand { .. } => PipeMsg::PipeDone,
            // `Chosen` packs `key.lo`: keep one endpoint small.
            PipeMsg::PipeDone => PipeMsg::Chosen { key: CandKey::new(big, id, big3) },
            PipeMsg::Chosen { .. } => PipeMsg::DoneAll,
            PipeMsg::DoneAll => return None,
        })
    })
    .collect()
}

#[test]
fn every_ghs_variant_roundtrips() {
    for m in every_ghs(u32::MAX, u64::MAX, 0, true) {
        check(&m).unwrap();
    }
}

#[test]
fn every_pipe_variant_roundtrips() {
    for m in every_pipe(u32::MAX, u64::MAX, 0, u64::MAX - 1) {
        check(&m).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    #[test]
    fn ghs_roundtrip(
        small in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        flag in any::<bool>(),
    ) {
        for m in every_ghs(small, big, big2, flag) {
            check(&m)?;
        }
    }

    #[test]
    fn pipe_roundtrip(
        small in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        big3 in any::<u64>(),
    ) {
        for m in every_pipe(small, big, big2, big3) {
            check(&m)?;
        }
    }

    /// Mixed back-to-back encoding into one unframed buffer decodes
    /// sequentially (ring behavior).
    #[test]
    fn ghs_ring_roundtrip(
        sels in proptest::collection::vec(any::<usize>(), 1..8),
        small in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        flag in any::<bool>(),
    ) {
        let all = every_ghs(small, big, big2, flag);
        let msgs: Vec<&GhsMsg> = sels.iter().map(|&s| &all[s % all.len()]).collect();
        let mut ring = Vec::new();
        for m in &msgs {
            let mut w = WireWriter::new(&mut ring);
            m.encode(&mut w);
        }
        let mut head = 0usize;
        for m in &msgs {
            let mut r = WireReader::new(&ring[head..]);
            prop_assert_eq!(&GhsMsg::decode(&mut r), *m);
            head += r.consumed();
        }
        prop_assert_eq!(head, ring.len());
    }
}
