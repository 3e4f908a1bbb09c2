//! The [`Message`] trait: what node programs exchange — and the
//! word-level wire format they travel in.
//!
//! The simulator does not move `Msg` enum values through its rings at
//! all: every send is [`Message::encode`]d into `u64` words on the
//! receiver's per-edge ring, and every drain [`Message::decode`]s them
//! back. A message's size is therefore the length of its encoding: the
//! one number the executor charges against the bandwidth budget and
//! reports as wire words.

/// Append-only writer for a message's wire encoding.
///
/// The conventional layout is a *tag word* followed by zero or more full
/// payload words:
///
/// ```text
/// word 0:  [63        32][31    16][15     8][7      0]
///          [packed u32  ][reserved][flags   ][tag disc]
/// word 1+: full 64-bit payload words (weights, second ids, ...)
/// ```
///
/// * [`tag`](WireWriter::tag) starts the message and writes the
///   discriminant into bits `0..8`.
/// * [`flag`](WireWriter::flag) sets a boolean in bits `8..16` of the tag
///   word (e.g. `Option` presence).
/// * [`pack`](WireWriter::pack) stores one value `< 2^32` in bits
///   `32..64` of the tag word. Every quantity bounded by the vertex count
///   fits ([`Topology`](crate::Topology) caps `n` at `u32::MAX`); only
///   full-range edge weights need whole words.
/// * [`word`](WireWriter::word) appends a full payload word.
///
/// Simple messages (unit tokens, raw integers) may skip `tag()` and
/// write bare words; the layout is the implementor's to define, as long
/// as `decode(encode(m)) == m` and decode consumes exactly the words
/// encode wrote (see [`Message`]).
pub struct WireWriter<'a> {
    out: &'a mut Vec<u64>,
    base: usize,
    head: Option<usize>,
}

impl<'a> WireWriter<'a> {
    /// Starts an encoding that appends to `out` (which may already hold
    /// earlier messages; [`len`](WireWriter::len) counts only this one).
    pub fn new(out: &'a mut Vec<u64>) -> Self {
        let base = out.len();
        WireWriter { out, base, head: None }
    }

    /// Writes the tag word with discriminant `disc` in bits `0..8`.
    /// Call at most once, before any `flag`/`pack`.
    pub fn tag(&mut self, disc: u8) {
        debug_assert!(self.head.is_none(), "WireWriter::tag called twice");
        self.head = Some(self.out.len());
        self.out.push(disc as u64);
    }

    /// Sets flag `bit` (0..8) in the tag word when `v` is true.
    pub fn flag(&mut self, bit: u8, v: bool) {
        debug_assert!(bit < 8, "WireWriter::flag bit out of range");
        let head = self.head.expect("WireWriter::flag before tag");
        if v {
            self.out[head] |= 1u64 << (8 + bit);
        }
    }

    /// Packs one value `<= u32::MAX` into bits `32..64` of the tag word.
    /// Call at most once per message.
    pub fn pack(&mut self, v: u64) {
        debug_assert!(v <= u32::MAX as u64, "WireWriter::pack value {v} exceeds 32 bits");
        let head = self.head.expect("WireWriter::pack before tag");
        debug_assert_eq!(self.out[head] >> 32, 0, "WireWriter::pack called twice");
        self.out[head] |= v << 32;
    }

    /// Appends a full 64-bit payload word.
    pub fn word(&mut self, v: u64) {
        self.out.push(v);
    }

    /// Number of words written by this encoding so far.
    pub fn len(&self) -> usize {
        self.out.len() - self.base
    }

    /// True if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Sequential reader over a message's wire encoding; the mirror of
/// [`WireWriter`].
///
/// Call [`tag`](WireReader::tag) first when the encoding starts with a
/// tag word; [`flag`](WireReader::flag) and [`packed`](WireReader::packed)
/// then read the remembered tag word, and [`word`](WireReader::word)
/// yields subsequent payload words.
pub struct WireReader<'a> {
    words: &'a [u64],
    pos: usize,
    head: u64,
}

impl<'a> WireReader<'a> {
    /// Starts reading at the beginning of `words` (which may extend past
    /// this message; decode consumes exactly the encoded length).
    pub fn new(words: &'a [u64]) -> Self {
        WireReader { words, pos: 0, head: 0 }
    }

    /// Reads the tag word, remembers it for `flag`/`packed`, and returns
    /// the discriminant in bits `0..8`.
    pub fn tag(&mut self) -> u8 {
        self.head = self.word();
        (self.head & 0xFF) as u8
    }

    /// Reads flag `bit` (0..8) of the last tag word.
    pub fn flag(&self, bit: u8) -> bool {
        debug_assert!(bit < 8, "WireReader::flag bit out of range");
        (self.head >> (8 + bit)) & 1 == 1
    }

    /// Reads the packed value from bits `32..64` of the last tag word.
    pub fn packed(&self) -> u64 {
        self.head >> 32
    }

    /// Reads the next full payload word.
    pub fn word(&mut self) -> u64 {
        let v = self.words[self.pos];
        self.pos += 1;
        v
    }

    /// Number of words consumed so far.
    pub fn consumed(&self) -> usize {
        self.pos
    }
}

/// A message exchanged between neighboring nodes.
///
/// Implementors define a wire encoding in *words* — one word is one
/// `O(log n)`-bit quantity (a vertex identity, an edge weight, a small
/// counter). The simulator [`encode`](Message::encode)s every send
/// straight into its outgoing word batch, charges the encoded length
/// against the per-edge, per-direction, per-round bandwidth budget (see
/// [`RunConfig`](crate::RunConfig)), ships the words through its rings,
/// and aggregates statistics per [`tag`](Message::tag).
///
/// # Contract: the encoding is self-delimiting
///
/// * `encode` writes at least one word: every message occupies the
///   channel. The executor `assert!`s this on every send, in every build —
///   an empty encoding would desync the unframed ring.
/// * `decode` consumes exactly the words `encode` wrote, and
///   `decode(encode(m)) == m`. The rings carry no per-message framing, so
///   a mis-sized decode corrupts every later message on the edge.
///
/// A protocol whose pipelines must fit `b = 1` should also keep every
/// encoding within [`UNIT_WORDS`](crate::UNIT_WORDS): a longer message never
/// passes [`RoundCtx::try_send`](crate::RoundCtx::try_send) at that
/// bandwidth.
///
/// ```
/// use congest_sim::{Message, WireReader, WireWriter};
///
/// #[derive(Clone, Debug, PartialEq)]
/// enum Proto {
///     Ping,
///     Report { weight: u64, endpoint: usize },
/// }
///
/// impl Message for Proto {
///     fn tag(&self) -> &'static str {
///         match self {
///             Proto::Ping => "ping",
///             Proto::Report { .. } => "report",
///         }
///     }
///     fn encode(&self, w: &mut WireWriter<'_>) {
///         match self {
///             Proto::Ping => w.tag(0),
///             Proto::Report { weight, endpoint } => {
///                 w.tag(1);
///                 w.pack(*endpoint as u64); // endpoint < n <= u32::MAX
///                 w.word(*weight); // weights need the full 64 bits
///             }
///         }
///     }
///     fn decode(r: &mut WireReader<'_>) -> Self {
///         match r.tag() {
///             0 => Proto::Ping,
///             1 => {
///                 let endpoint = r.packed() as usize;
///                 Proto::Report { weight: r.word(), endpoint }
///             }
///             other => unreachable!("unknown Proto tag {other}"),
///         }
///     }
/// }
///
/// let m = Proto::Report { weight: 1 << 40, endpoint: 7 };
/// let mut buf = Vec::new();
/// m.encode(&mut WireWriter::new(&mut buf));
/// assert_eq!(buf.len(), 2); // tag word (with the packed endpoint) + weight
/// let mut r = WireReader::new(&buf);
/// assert_eq!(Proto::decode(&mut r), m);
/// assert_eq!(r.consumed(), buf.len());
/// ```
pub trait Message: Clone {
    /// A short static label used to aggregate statistics by message kind
    /// (e.g. `"bfs"`, `"mwoe"`). Purely observational.
    fn tag(&self) -> &'static str {
        "msg"
    }

    /// Writes this message's wire representation — at least one `u64`
    /// word — appended to `out`.
    fn encode(&self, out: &mut WireWriter<'_>);

    /// Reconstructs a message from its wire representation, consuming
    /// exactly the words [`encode`](Message::encode) wrote.
    fn decode(r: &mut WireReader<'_>) -> Self;
}

impl Message for () {
    fn encode(&self, out: &mut WireWriter<'_>) {
        out.word(0);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.word();
    }
}

impl Message for u64 {
    fn encode(&self, out: &mut WireWriter<'_>) {
        out.word(*self);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        r.word()
    }
}

impl Message for (u64, u64) {
    fn encode(&self, out: &mut WireWriter<'_>) {
        out.word(self.0);
        out.word(self.1);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        (r.word(), r.word())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn encoded_len<M: Message>(m: &M) -> usize {
        let mut buf = Vec::new();
        m.encode(&mut WireWriter::new(&mut buf));
        buf.len()
    }

    #[test]
    fn default_words_and_tag() {
        assert_eq!(encoded_len(&()), 1);
        assert_eq!(().tag(), "msg");
        assert_eq!(encoded_len(&(3u64, 4u64)), 2);
    }

    #[test]
    fn builtin_impls_roundtrip_at_declared_length() {
        let mut buf = Vec::new();
        ().encode(&mut WireWriter::new(&mut buf));
        assert_eq!(buf.len(), 1);
        <()>::decode(&mut WireReader::new(&buf));

        let mut buf = Vec::new();
        0xDEAD_BEEF_0BAD_F00Du64.encode(&mut WireWriter::new(&mut buf));
        assert_eq!(buf.len(), 1);
        assert_eq!(u64::decode(&mut WireReader::new(&buf)), 0xDEAD_BEEF_0BAD_F00D);

        let pair = (u64::MAX, 17u64);
        let mut buf = Vec::new();
        pair.encode(&mut WireWriter::new(&mut buf));
        assert_eq!(buf.len(), 2);
        assert_eq!(<(u64, u64)>::decode(&mut WireReader::new(&buf)), pair);
    }

    #[test]
    fn tag_word_packs_disc_flags_and_u32() {
        let mut buf = Vec::new();
        let mut w = WireWriter::new(&mut buf);
        w.tag(13);
        w.flag(0, true);
        w.flag(1, false);
        w.flag(2, true);
        w.pack(0xFFFF_FFFF);
        w.word(42);
        assert_eq!(w.len(), 2);

        let mut r = WireReader::new(&buf);
        assert_eq!(r.tag(), 13);
        assert!(r.flag(0));
        assert!(!r.flag(1));
        assert!(r.flag(2));
        assert_eq!(r.packed(), 0xFFFF_FFFF);
        assert_eq!(r.word(), 42);
        assert_eq!(r.consumed(), 2);
    }

    #[test]
    fn writer_appends_after_existing_words() {
        let mut buf = vec![7, 8, 9];
        let mut w = WireWriter::new(&mut buf);
        assert!(w.is_empty());
        w.tag(1);
        w.word(2);
        assert_eq!(w.len(), 2);
        assert_eq!(buf, vec![7, 8, 9, 1, 2]);
    }
}
