//! # congest-sim — a deterministic synchronous `CONGEST(b log n)` simulator
//!
//! This crate is the substrate for the reproduction of Elkin's deterministic
//! distributed MST algorithm (PODC 2017). It models the synchronous
//! message-passing network of the paper's Section 2:
//!
//! * Every vertex of the communication graph hosts a processor (a
//!   [`NodeProgram`] state machine).
//! * Computation proceeds in **synchronous rounds**. In each round every node
//!   receives the messages sent to it in the previous round, performs local
//!   computation, and sends messages to its neighbors.
//! * Every edge carries, per direction per round, at most `b` *unit messages*
//!   of `O(log n)` bits each. A unit message holds up to [`UNIT_WORDS`]
//!   *words*, where one word is a single `O(log n)`-bit quantity (a vertex
//!   identity or an edge weight). This is the "`O(1)` edge weights and/or
//!   identity numbers" formulation the paper gives as an alternative to
//!   bit-counting. A message costs exactly the words its wire encoding
//!   occupies.
//!
//! The simulator is fully deterministic: the quantities the paper bounds —
//! **rounds** and **messages** — are exactly what [`RunStats`] reports, so a
//! run is a measurement, not an approximation. Execution may be sequential
//! or sharded across worker threads ([`RunConfig::shards`]); the per-port
//! FIFO merge order makes the results bit-identical either way, so
//! parallelism is purely a wallclock knob. Programs may promise idle
//! rounds ([`NodeProgram::next_wake`]) so the executor can skip them;
//! wrapping a program in [`EveryRound`] steps it every round instead and
//! checks each promise.
//!
//! ## Quick example
//!
//! ```
//! use congest_sim::{Message, Network, NodeInfo, NodeProgram, RoundCtx, RunConfig, Topology};
//!
//! /// A trivial broadcast: node 0 floods a token; everyone halts on receipt.
//! #[derive(Clone, Debug)]
//! struct Token;
//! impl Message for Token {
//!     fn encode(&self, out: &mut congest_sim::WireWriter<'_>) { out.word(0) }
//!     fn decode(r: &mut congest_sim::WireReader<'_>) -> Self { r.word(); Token }
//! }
//!
//! struct Flood { seen: bool, origin: bool }
//! impl NodeProgram for Flood {
//!     type Msg = Token;
//!     fn on_round(&mut self, ctx: &mut RoundCtx<'_, Token>) {
//!         let fire = (self.origin || !ctx.inbox().is_empty()) && !self.seen;
//!         if fire {
//!             self.seen = true;
//!             for p in 0..ctx.degree() {
//!                 ctx.send(p, Token);
//!             }
//!         }
//!     }
//!     fn is_done(&self) -> bool { self.seen }
//! }
//!
//! # fn main() -> Result<(), congest_sim::SimError> {
//! let topo = Topology::new(3, &[(0, 1, 1), (1, 2, 1)])?;
//! let mut net = Network::new(topo, |info: NodeInfo<'_>| Flood {
//!     seen: false,
//!     origin: info.id == 0,
//! });
//! let stats = net.run(&RunConfig::default())?;
//! assert!(net.nodes().iter().all(|n| n.seen));
//! assert_eq!(stats.messages, 4); // 0->1, then 1->0 and 1->2, then 2->1
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![deny(clippy::allow_attributes, clippy::allow_attributes_without_reason)]
#![warn(missing_docs)]

mod config;
mod error;
mod every_round;
mod message;
mod network;
mod stats;
mod topology;

pub use config::{RunConfig, UNIT_WORDS};
pub use error::SimError;
pub use every_round::EveryRound;
pub use message::{Message, WireReader, WireWriter};
pub use network::{Network, NodeInfo, NodeProgram, RoundCtx};
pub use stats::{RunStats, TagStats};
pub use topology::{EdgeId, NodeId, Port, PortId, Topology};
