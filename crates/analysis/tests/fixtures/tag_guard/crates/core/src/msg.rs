//! Seeded violation: a wire tag with no TAG_GUARDS row, and a stale row.

pub enum Msg {
    Ping,
    Burst,
}

impl Message for Msg {
    fn tag(&self) -> &'static str {
        match self {
            Msg::Ping => "a:bfs",
            Msg::Burst => "b:burst",
        }
    }
}

impl Msg {
    fn encode(&self, w: &mut WireWriter<'_>) {
        match self {
            Msg::Ping => w.tag(0),
            Msg::Burst => w.tag(1),
        }
    }

    fn decode(r: &mut WireReader<'_>) -> Self {
        match r.tag() {
            0 => Msg::Ping,
            1 => Msg::Burst,
            other => unreachable!("unknown tag {other}"),
        }
    }
}
