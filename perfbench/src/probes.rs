//! Executor probes: two trivial `NodeProgram`s that isolate costs of the
//! `congest-sim` executor from protocol work.
//!
//! * [`Relay`] keeps every port busy: each node sends a one-word token on
//!   every port for a fixed number of rounds, so its time per message is
//!   the pure message path (encode, meter, deliver, decode).
//! * [`Ping`] keeps the network nearly idle: node 0 and the neighbour
//!   behind its port 0 bounce one token, every other node sleeps. Its time
//!   per round is the executor's fixed per-round cost, and at `shards > 1`
//!   the lockstep coordination between shards.

use congest_sim::{Message, Network, NodeProgram, RoundCtx, RunConfig, RunStats, Topology};
use congest_sim::{SimError, WireReader, WireWriter};

/// A one-word probe token carrying a hop count.
#[derive(Clone, Debug)]
pub struct Token(u64);

impl Message for Token {
    fn tag(&self) -> &'static str {
        "probe"
    }
    fn encode(&self, out: &mut WireWriter<'_>) {
        out.word(self.0);
    }
    fn decode(r: &mut WireReader<'_>) -> Self {
        Token(r.word())
    }
}

/// Sends a token on every port for `rounds_left` more rounds.
pub struct Relay {
    rounds_left: u64,
}

impl NodeProgram for Relay {
    type Msg = Token;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            for p in 0..ctx.degree() {
                ctx.send(p, Token(0));
            }
        }
    }
    fn is_done(&self) -> bool {
        self.rounds_left == 0
    }
}

/// Bounces a token until it has made `hops` hops; purely message-driven
/// apart from the starter's first step.
pub struct Ping {
    starter: bool,
    hops: u64,
}

impl NodeProgram for Ping {
    type Msg = Token;
    fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
        if self.starter {
            self.starter = false;
            ctx.send(0, Token(1));
        }
        let reply = ctx.inbox().first().map(|(p, t)| (*p, t.0));
        if let Some((p, h)) = reply {
            if h < self.hops {
                ctx.send(p, Token(h + 1));
            }
        }
    }
    fn is_done(&self) -> bool {
        !self.starter
    }
    fn next_wake(&self, _after: u64) -> Option<u64> {
        None
    }
}

/// Which probe to run, with its length.
#[derive(Clone, Copy, Debug)]
pub enum Probe {
    /// Every node floods all its ports for this many rounds.
    Relay(u64),
    /// One token makes this many hops.
    Ping(u64),
}

impl Probe {
    /// Builds the probe's network on `topo`. Construction is kept apart
    /// from [`ProbeNet::run`] so only the executor is timed.
    pub fn network(self, topo: Topology) -> ProbeNet {
        match self {
            Probe::Relay(rounds) => {
                ProbeNet::Relay(Network::new(topo, |_| Relay { rounds_left: rounds }))
            }
            Probe::Ping(hops) => {
                ProbeNet::Ping(Network::new(topo, |i| Ping { starter: i.id == 0, hops }))
            }
        }
    }

    /// The `(rounds, messages)` a correct executor reports for this probe
    /// on a graph with `m` undirected edges.
    pub fn expected(self, m: u64) -> (u64, u64) {
        match self {
            Probe::Relay(rounds) => (rounds + 1, 2 * m * rounds),
            Probe::Ping(hops) => (hops + 1, hops),
        }
    }
}

/// A constructed probe network, ready to run once.
pub enum ProbeNet {
    /// See [`Relay`].
    Relay(Network<Relay>),
    /// See [`Ping`].
    Ping(Network<Ping>),
}

impl ProbeNet {
    /// Runs the probe with strict capacity on `shards` executor shards.
    pub fn run(&mut self, shards: u32) -> Result<RunStats, SimError> {
        let cfg = RunConfig { shards, ..RunConfig::default() };
        match self {
            ProbeNet::Relay(net) => net.run(&cfg),
            ProbeNet::Ping(net) => net.run(&cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmst_graphs::generators as gen;

    #[test]
    fn probes_report_expected_counts_at_every_shard_count() {
        let g = gen::random_connected(64, 128, &mut gen::WeightRng::new(3));
        let m = g.num_edges() as u64;
        for probe in [Probe::Relay(5), Probe::Ping(40)] {
            for shards in [1, 2] {
                let topo = Topology::new(g.num_nodes(), g.edges()).unwrap();
                let stats = probe.network(topo).run(shards).unwrap();
                assert_eq!((stats.rounds, stats.messages), probe.expected(m), "{probe:?}");
            }
        }
    }
}
