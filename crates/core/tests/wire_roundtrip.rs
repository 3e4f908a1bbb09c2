//! Wire-format round-trip properties for the Elkin protocol: for every
//! [`Msg`] variant, `decode(encode(m)) == m`, decode consumes exactly the
//! encoded words, and `1 <= len <= UNIT_WORDS`. The first two are the
//! length contract the executor's unframed word rings rely on (a mismatch
//! would desynchronize every later message in a ring); the bound keeps
//! every variant sendable at `b = 1`, where a longer message could never
//! pass `RoundCtx::try_send` and would stall its pipeline.
//!
//! Field domains mirror the protocol's: vertex ids, fragment ids, slots,
//! colors, and coarse ids are `< 2^32` (the simulator caps `n` at
//! `u32::MAX`, and the wire format packs them into tag words); weights and
//! key components carry full words.

use congest_sim::{Message, WireReader, WireWriter, UNIT_WORDS};
use dmst_core::{CandKey, Candidate, Msg, Walk};
use proptest::prelude::*;

/// Encode, check the length bounds, decode, check identity and that the
/// reader consumed exactly the encoded span (ring-cursor advance).
fn check(m: &Msg) -> Result<(), TestCaseError> {
    let mut buf = Vec::new();
    let mut w = WireWriter::new(&mut buf);
    m.encode(&mut w);
    let len = w.len();
    prop_assert!((1..=UNIT_WORDS as usize).contains(&len), "{:?} encodes to {} words", m, len);
    let mut r = WireReader::new(&buf);
    let back = Msg::decode(&mut r);
    prop_assert_eq!(&back, m);
    prop_assert_eq!(r.consumed(), buf.len(), "decode consumed a different span for {:?}", m);
    Ok(())
}

/// Deterministically builds one of the 20 variants from raw components
/// (the two walk messages with any of the five kinds).
/// `small*` feed packed (tag-word) fields, `big*` feed full-word fields.
#[expect(clippy::too_many_arguments, reason = "one parameter per proptest strategy")]
fn build(
    sel: usize,
    small: u32,
    small2: u32,
    big: u64,
    big2: u64,
    big3: u64,
    flag: bool,
    flag2: bool,
) -> Msg {
    let id = u64::from(small);
    let id2 = u64::from(small2);
    let key = CandKey::new(big, big2, big3);
    let walk = Walk::ALL[small2 as usize % Walk::ALL.len()];
    match sel {
        0 => Msg::Bfs { me: id },
        1 => Msg::BfsChild { me: id2 },
        2 => Msg::SizeUp { size: id, height: big },
        3 => Msg::Params { n: id, h: big, k: big2, t0: big3, slot: big.rotate_left(32) },
        4 => Msg::FragAnnounce { frag: id },
        5 => Msg::Probe { ttl: small },
        6 => Msg::MwoeUp { cand: flag.then_some(key), overflow: flag2 },
        7 => Msg::ColorDown { color: id },
        8 => Msg::ColorUp { color: id },
        9 => Msg::UnmatchedUp { child: flag.then_some(id) },
        10 => Msg::MatchedUp { partner: id },
        11 => Msg::NewFrag { id },
        12 => Msg::CoarseAnnounce { coarse: id },
        13 => Msg::FragMwoeUp { cand: flag.then_some((key, id2)) },
        14 => Msg::Candidate {
            rec: Candidate { key, src_coarse: big, dst_coarse: big2, src_slot: id },
        },
        15 => Msg::UpDone,
        16 => Msg::Assign {
            dest_slot: id,
            new_coarse: big,
            chosen: flag,
            done: flag2,
            finish: big2 & 1 == 1,
        },
        17 => Msg::NewCoarse { id, done: flag, finish: flag2 },
        18 => Msg::Path(walk),
        _ => Msg::Cross(walk),
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 512, ..ProptestConfig::default() })]

    /// Every variant survives one encode/decode cycle within one unit
    /// message.
    #[test]
    fn msg_roundtrip(
        sel in 0usize..20,
        small in any::<u32>(),
        small2 in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        big3 in any::<u64>(),
        flag in any::<bool>(),
        flag2 in any::<bool>(),
    ) {
        check(&build(sel, small, small2, big, big2, big3, flag, flag2))?;
    }

    /// Ring behavior: messages encoded back-to-back into one buffer (no
    /// per-message framing, exactly like an executor word ring) decode
    /// sequentially to the original sequence, each consuming its own span.
    #[test]
    fn msg_ring_roundtrip(
        sels in proptest::collection::vec(0usize..20, 1..8),
        small in any::<u32>(),
        small2 in any::<u32>(),
        big in any::<u64>(),
        big2 in any::<u64>(),
        big3 in any::<u64>(),
        flag in any::<bool>(),
        flag2 in any::<bool>(),
    ) {
        let msgs: Vec<Msg> =
            sels.iter().map(|&s| build(s, small, small2, big, big2, big3, flag, flag2)).collect();
        let mut ring = Vec::new();
        for m in &msgs {
            m.encode(&mut WireWriter::new(&mut ring));
        }
        let mut head = 0usize;
        for m in &msgs {
            let mut r = WireReader::new(&ring[head..]);
            prop_assert_eq!(&Msg::decode(&mut r), m);
            head += r.consumed();
        }
        prop_assert_eq!(head, ring.len());
    }
}
