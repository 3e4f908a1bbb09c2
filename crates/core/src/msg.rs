//! The wire protocol: every message Elkin's algorithm sends.
//!
//! Sizes follow the model of the paper's Section 2: one word is one
//! `O(log n)`-bit quantity (vertex id, fragment id, edge weight, small
//! counter). A message costs exactly the words of its encoding — every
//! variant has an exact [`Message::encode`]/[`Message::decode`] pair (see
//! the `TAG_*` discriminants below), and the simulator charges the encoded
//! length against the per-edge budget. The largest message
//! ([`Msg::Candidate`]) encodes to 6 words, under the 8-word unit-message
//! budget; the `wire_roundtrip` proptests pin `1 <= len <= UNIT_WORDS` for
//! every variant, so each one fits an edge at `b = 1`.
//!
//! Quantities bounded by the vertex count (ids, slots, colors, phases —
//! `Topology` caps `n` at `u32::MAX`) ride in the tag word's packed half,
//! which holds one of them per message; a second one takes a whole word,
//! and full-range edge weights always do.

use congest_sim::{Message, WireReader, WireWriter};

use crate::candidate::{CandKey, Candidate};

// Wire discriminants, one per variant, in declaration order. `decode`
// matches on these; a tag outside the table is a wire-corruption bug.
const TAG_BFS: u8 = 0;
const TAG_BFS_CHILD: u8 = 1;
const TAG_SIZE_UP: u8 = 2;
const TAG_PARAMS: u8 = 3;
const TAG_FRAG_ANNOUNCE: u8 = 4;
const TAG_PROBE: u8 = 5;
const TAG_MWOE_UP: u8 = 6;
const TAG_COLOR_DOWN: u8 = 7;
const TAG_COLOR_UP: u8 = 8;
const TAG_UNMATCHED_UP: u8 = 9;
const TAG_MATCHED_UP: u8 = 10;
const TAG_NEW_FRAG: u8 = 11;
const TAG_COARSE_ANNOUNCE: u8 = 12;
const TAG_FRAG_MWOE_UP: u8 = 13;
const TAG_CANDIDATE: u8 = 14;
const TAG_UP_DONE: u8 = 15;
const TAG_ASSIGN: u8 = 16;
const TAG_NEW_COARSE: u8 = 17;
const TAG_PATH: u8 = 18;
const TAG_CROSS: u8 = 19;

/// Writes a [`CandKey`] as three full words (the weight needs all 64
/// bits; the endpoints get whole words so the key stays one fixed shape
/// everywhere it is embedded).
fn encode_key(w: &mut WireWriter<'_>, k: &CandKey) {
    w.word(k.weight);
    w.word(k.lo);
    w.word(k.hi);
}

/// Mirror of [`encode_key`].
fn decode_key(r: &mut WireReader<'_>) -> CandKey {
    CandKey { weight: r.word(), lo: r.word(), hi: r.word() }
}

/// Protocol messages, grouped by stage. The stage/phase a message belongs to
/// is implicit in the (synchronized) round schedule for Stage B and in the
/// explicit control flow for Stages A and D.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Msg {
    // ---- Stage A: BFS tree, sizes, parameter broadcast and interval
    // labels (paper §3) ----
    /// BFS wave from the root; receivers adopt the sender as parent.
    /// Every vertex sends exactly one `Bfs` or [`Msg::BfsChild`] over each
    /// of its ports, so the pair teaches every vertex its neighbors' ids.
    Bfs {
        /// Sender's vertex id.
        me: u64,
    },
    /// "You are my BFS parent" — lets parents learn their child ports.
    BfsChild {
        /// Sender's vertex id.
        me: u64,
    },
    /// Convergecast of `(subtree size, subtree height)` toward the BFS root.
    SizeUp {
        /// Number of vertices in the sender's BFS subtree.
        size: u64,
        /// Height of that subtree (max depth below the sender).
        height: u64,
    },
    /// Root broadcast of the globally agreed parameters. Each copy also
    /// carries where its receiver's interval of the BFS tree starts (see
    /// [`intervals`](crate::intervals)): the receiver's slot, the address
    /// Stage D answers are routed by.
    Params {
        /// Number of vertices.
        n: u64,
        /// Height of the BFS tree (so `H <= D <= 2H`).
        h: u64,
        /// Base-forest parameter `k` (paper §3: `sqrt(n/b)` or `H`).
        k: u64,
        /// Absolute round at which Stage B begins.
        t0: u64,
        /// The receiver's interval start: its own slot.
        slot: u64,
    },

    // ---- Stage B: Controlled-GHS (paper §4). Every phase ends on its
    // round schedule, so no message marks a phase end: the window a
    // message belongs to is implicit in the round. ----
    /// The sender's new fragment id, sent at a phase's Announce window
    /// over its live ports, and only if the id changed since its last
    /// announce (Stage A's wave delivered the first: a vertex id).
    FragAnnounce {
        /// Sender's current fragment id.
        frag: u64,
    },
    /// Depth-budgeted broadcast from the fragment root; participation test.
    Probe {
        /// Remaining hops the probe may still descend.
        ttl: u32,
    },
    /// Convergecast response to [`Msg::Probe`].
    MwoeUp {
        /// Best outgoing-edge candidate key in the subtree, if any.
        cand: Option<CandKey>,
        /// Whether the subtree extends beyond the probe's depth budget
        /// (fragment too tall to participate this phase).
        overflow: bool,
    },
    /// Fragment-internal broadcast of the fragment's current CV color. The
    /// first exchange's copy also tells every vertex of a participating
    /// fragment that it participates this phase.
    ColorDown {
        /// The color.
        color: u64,
    },
    /// The parent fragment's color, sent over each foreign child's cross
    /// edge and routed from that edge's endpoint up to the child's root.
    ColorUp {
        /// Parent fragment's color.
        color: u64,
    },
    /// Matching convergecast: smallest unmatched foreign-child fragment id.
    UnmatchedUp {
        /// Argmin over the subtree, if any unmatched child exists.
        child: Option<u64>,
    },
    /// The child fragment routes the acceptance up to its root.
    MatchedUp {
        /// The partner (parent) fragment's id.
        partner: u64,
    },
    /// Flood establishing the merged fragment: new id + re-orientation.
    NewFrag {
        /// Id of the merged fragment (its new root's vertex id).
        id: u64,
    },

    // ---- Stage D: Boruvka on top of the base forest (paper §3).
    //
    // Phases are event-driven and fused: no per-phase barrier messages
    // exist. Every vertex opens phase 0 when Stage B ends, announces phase
    // `j` as soon as its coarse id for `j` is current, aggregates its
    // fragment subtree as soon as all of its *own* neighbors'
    // announcements have landed, and starts phase `j+1` the moment the
    // phase-`j` answer (`Assign`/`NewCoarse`) reaches it. Neighboring
    // vertices are never more than one phase apart (the per-phase `UpDone`
    // convergecast gates the root merge on every vertex), so receivers
    // classify `CoarseAnnounce` / `Candidate` / `UpDone` by per-port FIFO
    // counting. ----
    /// Per-phase refresh of the sender's coarse id over its live ports.
    /// Sent exactly once per phase in phase order until the port is
    /// retired, so the receiver infers the phase from its per-port receive
    /// count (per-edge FIFO). Sent even when the id did not change: the
    /// announce is also the receiver's readiness signal.
    CoarseAnnounce {
        /// Sender's current coarse fragment id.
        coarse: u64,
    },
    /// Event-driven base-fragment convergecast of the best candidate
    /// w.r.t. the coarse partition: sent to the fragment parent as soon
    /// as the sender is locally ready (all neighbor announcements in) and
    /// its fragment subtree has reported. Always matches the receiver's
    /// current phase (the subtree cannot outrun its own fragment root), so
    /// its source coarse id is the receiver's own and does not travel.
    FragMwoeUp {
        /// Best candidate in the subtree (key + the coarse id on the far
        /// side of the edge), if any.
        cand: Option<(CandKey, u64)>,
    },
    /// A candidate record in the pipelined, filtered upcast to the BFS root.
    Candidate {
        /// The record.
        rec: Candidate,
    },
    /// Pipeline completion marker for the candidate upcast: sent once per
    /// phase in phase order (receivers count per port, like
    /// [`Msg::CoarseAnnounce`]).
    UpDone,
    /// Interval-routed answer to one base fragment (pipelined downcast).
    /// Receipt closes the answered phase and opens the next one, so
    /// fragments re-announce immediately.
    Assign {
        /// Destination slot (the base fragment root's interval start).
        dest_slot: u64,
        /// The base fragment's new coarse id.
        new_coarse: u64,
        /// Whether this base fragment's candidate was chosen as an MST edge.
        chosen: bool,
        /// Whether the algorithm is globally finished after this phase.
        done: bool,
    },
    /// Base-fragment-internal broadcast of the new coarse id (+ done
    /// flag): the fragment-local leg of [`Msg::Assign`], and the whole
    /// answer when a lone base fragment spans the graph.
    NewCoarse {
        /// New coarse id.
        id: u64,
        /// Global termination flag.
        done: bool,
    },

    // ---- Argmin walks, both stages (see `Walk`) ----
    /// One hop of a walk down its argmin path, from a vertex to the
    /// fragment child its convergecast selected.
    Path(Walk),
    /// The walk crossing the selected edge to its far endpoint.
    Cross(Walk),
}

/// What an argmin walk does. A walk retraces the selections an argmin
/// convergecast left behind ([`Msg::Path`], one fragment-tree edge per
/// hop) to the vertex whose own port holds the minimum, which acts on that
/// edge and crosses it ([`Msg::Cross`]). The kind rides in the tag word,
/// so both messages are one word.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Walk {
    /// Stage B, Connect window, down the MWOE path: registers the sender's
    /// fragment as a foreign child of the receiver's (paper §4). The
    /// receiver reads its id off the port: both ends retire a port
    /// together, so a live port's neighbor fragment id is current.
    Connect,
    /// Stage B, Accept window, down the collect's path: the edge joins the
    /// MST and the chosen foreign child learns that it is matched.
    Accept,
    /// Stage B, Accept window, down the MWOE path of a fragment that just
    /// accepted a child: its forest parent learns that it is matched.
    Status,
    /// Stage B, MergeGo window, down an unmatched fragment's MWOE path: the
    /// edge joins the MST and the receiver's side absorbs the sender.
    Merge,
    /// Stage D, down the phase's argmin path: the chosen candidate edge is
    /// marked at both ends. Sent before the same phase's
    /// [`Msg::NewCoarse`] over the same edges, so per-edge FIFO delivers it
    /// before each hop's `DScratch` rolls.
    Mark,
}

impl Walk {
    /// Every kind, in wire order: `kind as u64` indexes it.
    pub const ALL: [Walk; 5] = [Walk::Connect, Walk::Accept, Walk::Status, Walk::Merge, Walk::Mark];
}

impl Message for Msg {
    fn tag(&self) -> &'static str {
        match self {
            Msg::Bfs { .. } | Msg::BfsChild { .. } | Msg::SizeUp { .. } | Msg::Params { .. } => {
                "a:bfs"
            }
            Msg::FragAnnounce { .. } => "b:announce",
            Msg::Probe { .. } | Msg::MwoeUp { .. } => "b:mwoe",
            Msg::ColorDown { .. } | Msg::ColorUp { .. } => "b:color",
            Msg::UnmatchedUp { .. } | Msg::MatchedUp { .. } => "b:match",
            Msg::NewFrag { .. } => "b:merge",
            Msg::CoarseAnnounce { .. } => "d:announce",
            Msg::FragMwoeUp { .. } => "d:fragmwoe",
            Msg::Candidate { .. } | Msg::UpDone => "d:upcast",
            Msg::Assign { .. } => "d:downcast",
            Msg::NewCoarse { .. } => "d:newcoarse",
            Msg::Path(walk) | Msg::Cross(walk) => match walk {
                Walk::Connect => "b:connect",
                Walk::Accept | Walk::Status => "b:match",
                Walk::Merge => "b:merge",
                Walk::Mark => "d:newcoarse",
            },
        }
    }

    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            Msg::Bfs { me } => {
                w.tag(TAG_BFS);
                w.pack(*me);
            }
            Msg::BfsChild { me } => {
                w.tag(TAG_BFS_CHILD);
                w.pack(*me);
            }
            Msg::SizeUp { size, height } => {
                w.tag(TAG_SIZE_UP);
                w.pack(*size); // subtree size <= n
                w.word(*height);
            }
            Msg::Params { n, h, k, t0, slot } => {
                w.tag(TAG_PARAMS);
                w.pack(*n);
                w.word(*h);
                w.word(*k);
                w.word(*t0);
                w.word(*slot);
            }
            Msg::FragAnnounce { frag } => {
                w.tag(TAG_FRAG_ANNOUNCE);
                w.pack(*frag); // fragment ids are vertex ids
            }
            Msg::Probe { ttl } => {
                w.tag(TAG_PROBE);
                w.pack(u64::from(*ttl));
            }
            Msg::MwoeUp { cand, overflow } => {
                w.tag(TAG_MWOE_UP);
                w.flag(0, cand.is_some());
                w.flag(1, *overflow);
                encode_key(w, &cand.unwrap_or(CandKey { weight: 0, lo: 0, hi: 0 }));
            }
            Msg::ColorDown { color } => {
                w.tag(TAG_COLOR_DOWN);
                w.pack(*color);
            }
            Msg::ColorUp { color } => {
                w.tag(TAG_COLOR_UP);
                w.pack(*color);
            }
            Msg::UnmatchedUp { child } => {
                w.tag(TAG_UNMATCHED_UP);
                w.flag(0, child.is_some());
                w.pack(child.unwrap_or(0)); // child fragment id < n
            }
            Msg::MatchedUp { partner } => {
                w.tag(TAG_MATCHED_UP);
                w.pack(*partner);
            }
            Msg::NewFrag { id } => {
                w.tag(TAG_NEW_FRAG);
                w.pack(*id);
            }
            Msg::CoarseAnnounce { coarse } => {
                w.tag(TAG_COARSE_ANNOUNCE);
                w.pack(*coarse); // coarse ids are vertex ids < n
            }
            Msg::FragMwoeUp { cand } => {
                w.tag(TAG_FRAG_MWOE_UP);
                w.flag(0, cand.is_some());
                let (key, dst) = cand.unwrap_or((CandKey { weight: 0, lo: 0, hi: 0 }, 0));
                w.pack(dst); // coarse ids are vertex ids < n
                encode_key(w, &key);
            }
            Msg::Candidate { rec } => {
                w.tag(TAG_CANDIDATE);
                w.pack(rec.src_slot);
                encode_key(w, &rec.key);
                w.word(rec.src_coarse);
                w.word(rec.dst_coarse);
            }
            Msg::UpDone => w.tag(TAG_UP_DONE),
            Msg::Assign { dest_slot, new_coarse, chosen, done } => {
                w.tag(TAG_ASSIGN);
                w.flag(0, *chosen);
                w.flag(1, *done);
                w.pack(*dest_slot); // slots are < n
                w.word(*new_coarse);
            }
            Msg::NewCoarse { id, done } => {
                w.tag(TAG_NEW_COARSE);
                w.flag(0, *done);
                w.pack(*id);
            }
            Msg::Path(walk) => {
                w.tag(TAG_PATH);
                w.pack(*walk as u64);
            }
            Msg::Cross(walk) => {
                w.tag(TAG_CROSS);
                w.pack(*walk as u64);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            TAG_BFS => Msg::Bfs { me: r.packed() },
            TAG_BFS_CHILD => Msg::BfsChild { me: r.packed() },
            TAG_SIZE_UP => Msg::SizeUp { size: r.packed(), height: r.word() },
            TAG_PARAMS => Msg::Params {
                n: r.packed(),
                h: r.word(),
                k: r.word(),
                t0: r.word(),
                slot: r.word(),
            },
            TAG_FRAG_ANNOUNCE => Msg::FragAnnounce { frag: r.packed() },
            TAG_PROBE => Msg::Probe { ttl: r.packed() as u32 },
            TAG_MWOE_UP => {
                let some = r.flag(0);
                let overflow = r.flag(1);
                let key = decode_key(r);
                Msg::MwoeUp { cand: some.then_some(key), overflow }
            }
            TAG_COLOR_DOWN => Msg::ColorDown { color: r.packed() },
            TAG_COLOR_UP => Msg::ColorUp { color: r.packed() },
            TAG_UNMATCHED_UP => Msg::UnmatchedUp { child: r.flag(0).then_some(r.packed()) },
            TAG_MATCHED_UP => Msg::MatchedUp { partner: r.packed() },
            TAG_NEW_FRAG => Msg::NewFrag { id: r.packed() },
            TAG_COARSE_ANNOUNCE => Msg::CoarseAnnounce { coarse: r.packed() },
            TAG_FRAG_MWOE_UP => {
                let some = r.flag(0);
                let dst = r.packed();
                Msg::FragMwoeUp { cand: some.then_some((decode_key(r), dst)) }
            }
            TAG_CANDIDATE => {
                let src_slot = r.packed();
                let key = decode_key(r);
                Msg::Candidate {
                    rec: Candidate { key, src_coarse: r.word(), dst_coarse: r.word(), src_slot },
                }
            }
            TAG_UP_DONE => Msg::UpDone,
            TAG_ASSIGN => Msg::Assign {
                dest_slot: r.packed(),
                new_coarse: r.word(),
                chosen: r.flag(0),
                done: r.flag(1),
            },
            TAG_NEW_COARSE => Msg::NewCoarse { id: r.packed(), done: r.flag(0) },
            TAG_PATH => Msg::Path(Walk::ALL[r.packed() as usize]),
            TAG_CROSS => Msg::Cross(Walk::ALL[r.packed() as usize]),
            other => unreachable!("unknown Msg wire tag {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::{CandKey, Candidate};

    fn encoded_len(m: &Msg) -> usize {
        let mut buf = Vec::new();
        m.encode(&mut WireWriter::new(&mut buf));
        buf.len()
    }

    /// One sample of every variant, in declaration order. Each arm names
    /// the next variant's sample and the match has no wildcard arm, so a
    /// new variant does not compile until it has a sample here.
    fn every_variant() -> Vec<Msg> {
        let key = CandKey::new(u64::MAX, 3, 4);
        let rec = Candidate { key, src_coarse: 5, dst_coarse: 6, src_slot: 7 };
        std::iter::successors(Some(Msg::Bfs { me: 1 }), |m| {
            Some(match m {
                Msg::Bfs { .. } => Msg::BfsChild { me: 2 },
                Msg::BfsChild { .. } => Msg::SizeUp { size: 3, height: 4 },
                Msg::SizeUp { .. } => Msg::Params { n: 5, h: 6, k: 7, t0: 8, slot: 9 },
                Msg::Params { .. } => Msg::FragAnnounce { frag: 1 },
                Msg::FragAnnounce { .. } => Msg::Probe { ttl: 2 },
                Msg::Probe { .. } => Msg::MwoeUp { cand: Some(key), overflow: true },
                Msg::MwoeUp { .. } => Msg::ColorDown { color: 4 },
                Msg::ColorDown { .. } => Msg::ColorUp { color: 6 },
                Msg::ColorUp { .. } => Msg::UnmatchedUp { child: Some(7) },
                Msg::UnmatchedUp { .. } => Msg::MatchedUp { partner: 9 },
                Msg::MatchedUp { .. } => Msg::NewFrag { id: 1 },
                Msg::NewFrag { .. } => Msg::CoarseAnnounce { coarse: 2 },
                Msg::CoarseAnnounce { .. } => Msg::FragMwoeUp { cand: Some((key, 4)) },
                Msg::FragMwoeUp { .. } => Msg::Candidate { rec },
                Msg::Candidate { .. } => Msg::UpDone,
                Msg::UpDone => {
                    Msg::Assign { dest_slot: 5, new_coarse: 6, chosen: true, done: false }
                }
                Msg::Assign { .. } => Msg::NewCoarse { id: 7, done: true },
                Msg::NewCoarse { .. } => Msg::Path(Walk::Connect),
                Msg::Path(walk) => Msg::Cross(*walk),
                Msg::Cross(walk) => Msg::Path(match walk {
                    Walk::Connect => Walk::Accept,
                    Walk::Accept => Walk::Status,
                    Walk::Status => Walk::Merge,
                    Walk::Merge => Walk::Mark,
                    Walk::Mark => return None,
                }),
            })
        })
        .collect()
    }

    #[test]
    fn every_variant_roundtrips() {
        for m in every_variant() {
            let mut buf = Vec::new();
            m.encode(&mut WireWriter::new(&mut buf));
            let mut r = WireReader::new(&buf);
            assert_eq!(Msg::decode(&mut r), m);
            assert_eq!(r.consumed(), buf.len(), "{m:?} decoded a different span");
        }
    }

    #[test]
    fn all_messages_fit_one_unit() {
        for m in every_variant() {
            let len = encoded_len(&m);
            assert!(
                (1..=congest_sim::UNIT_WORDS as usize).contains(&len),
                "{m:?} out of unit budget"
            );
        }
    }

    #[test]
    fn answers_pack_their_address() {
        // `Assign`'s slot and `NewCoarse`'s id are below n, so they ride
        // in the tag word: at b = 1 an edge carries four `Assign`s a round.
        let assign = Msg::Assign { dest_slot: 7, new_coarse: 3, chosen: true, done: true };
        assert_eq!(encoded_len(&assign), 2);
        assert_eq!(encoded_len(&Msg::NewCoarse { id: 7, done: true }), 1);
    }

    #[test]
    fn ids_ride_the_packed_half() {
        // Stage A's wave carries the sender's id in the tag word, so it
        // stays one word and the announces need no id of their own.
        for m in [
            Msg::Bfs { me: 7 },
            Msg::BfsChild { me: 7 },
            Msg::FragAnnounce { frag: 7 },
            Msg::CoarseAnnounce { coarse: 7 },
        ] {
            assert_eq!(encoded_len(&m), 1, "{m:?}");
        }
        // `FragMwoeUp` packs its far coarse id the same way: the tag word
        // and the key's three words.
        let up = Msg::FragMwoeUp { cand: Some((CandKey::new(u64::MAX, 3, 4), 7)) };
        assert_eq!(encoded_len(&up), 4);
    }

    #[test]
    fn tags_group_by_stage() {
        assert_eq!(Msg::Bfs { me: 0 }.tag(), "a:bfs");
        assert_eq!(Msg::NewFrag { id: 3 }.tag(), "b:merge");
        assert_eq!(Msg::NewCoarse { id: 0, done: true }.tag(), "d:newcoarse");
        assert_eq!(Msg::UpDone.tag(), "d:upcast");
    }

    #[test]
    fn tag_set_is_pinned() {
        // perfbench's `core.msgs.*` metrics and the `RunStats::by_tag`
        // readers key on these strings (DESIGN.md §2's table): a message
        // moved to a new tag would silently read 0 there.
        let all = every_variant();
        let tags: std::collections::BTreeSet<&str> = all.iter().map(Message::tag).collect();
        let census = "a:bfs b:announce b:color b:connect b:match b:merge b:mwoe \
                      d:announce d:downcast d:fragmwoe d:newcoarse d:upcast";
        assert_eq!(tags.into_iter().collect::<Vec<_>>().join(" "), census);
        for walk in Walk::ALL {
            assert!(all.contains(&Msg::Path(walk)), "no Path({walk:?}) sample");
            assert!(all.contains(&Msg::Cross(walk)), "no Cross({walk:?}) sample");
        }
    }

    #[test]
    fn tag_guards_mirror_tags() {
        // The tag-guard rule: every wire tag is `<letter>:<name>`, and its
        // letter is one that `stage_tag` reports, so the census charges
        // each tag's messages to the stage that sends it.
        use crate::node::Stage;
        let letters = [Stage::A, Stage::B, Stage::CD].map(Stage::letter);
        for m in every_variant() {
            let tag = m.tag();
            let letter = tag.split_once(':').map(|(l, _)| l);
            assert!(letter.is_some_and(|l| letters.contains(&l)), "{m:?} has tag {tag:?}");
        }
    }
}
