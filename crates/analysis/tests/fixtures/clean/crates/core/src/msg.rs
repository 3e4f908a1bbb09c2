//! A clean protocol file: exhaustive encode()/decode(), mirrored tags.

pub enum Msg {
    Ping,
    Pong { weight: u64 },
}

impl Message for Msg {
    fn tag(&self) -> &'static str {
        match self {
            Msg::Ping => "a:bfs",
            Msg::Pong { .. } => "b:reply",
        }
    }
}

pub(crate) const TAG_GUARDS: &[(&str, char, &str)] =
    &[("a:bfs", 'a', "next_wake"), ("b:reply", 'b', "next_wake")];

pub struct Node {
    counts: std::collections::BTreeMap<u64, u64>,
}

impl Node {
    fn stage_tag(&self) -> &'static str {
        match self.counts.len() {
            0 => "a",
            _ => "b",
        }
    }

    fn next_wake(&self) -> Option<u64> {
        None
    }
}

impl Msg {
    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            Msg::Ping => w.tag(0),
            Msg::Pong { weight } => {
                w.tag(1);
                w.word(*weight);
            }
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            0 => Msg::Ping,
            1 => Msg::Pong { weight: r.word() },
            other => unreachable!("unknown tag {other}"),
        }
    }
}
