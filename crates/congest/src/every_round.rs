//! Every-round stepping that checks the wake contract.

use crate::network::{NodeProgram, RoundCtx};

/// Steps the wrapped program in every round, ignoring its
/// [`NodeProgram::next_wake`] hints, and checks each promise it ignores.
///
/// The executor skips a program in the rounds its hint promises to be
/// idle. `EveryRound` steps it in those rounds too, and panics, naming the
/// node, the round and the stage tag, if such a step (inside a promised
/// sleep, with an empty inbox) sends a message or changes
/// [`is_done`](NodeProgram::is_done) or
/// [`stage_tag`](NodeProgram::stage_tag). A promise holds from the last
/// step the executor would also have taken (one with mail, or one at or
/// past the promised round), just as the executor keeps a hint until it
/// fires. A program whose hints keep their promises therefore runs
/// bit-identically with and without the wrapper: same
/// [`RunStats`](crate::RunStats), same final states.
#[derive(Clone, Debug)]
pub struct EveryRound<P> {
    inner: P,
    /// The wrapped program's last hint: no spontaneous step before this
    /// round (`None`: none until mail arrives).
    hint: Option<u64>,
}

impl<P> EveryRound<P> {
    /// Wraps `inner`.
    pub fn new(inner: P) -> Self {
        Self { inner, hint: Some(0) }
    }

    /// The wrapped program.
    pub fn inner(&self) -> &P {
        &self.inner
    }

    /// Unwraps the program.
    pub fn into_inner(self) -> P {
        self.inner
    }
}

impl<P: NodeProgram> NodeProgram for EveryRound<P> {
    type Msg = P::Msg;

    fn on_round(&mut self, ctx: &mut RoundCtx<'_, P::Msg>) {
        let round = ctx.round();
        if !ctx.inbox().is_empty() || self.hint.is_some_and(|w| w <= round) {
            // A step the executor would take too: it renews the promise.
            self.inner.on_round(ctx);
            self.hint = self.inner.next_wake(round);
            return;
        }
        let seen = |p: &P, ctx: &RoundCtx<'_, P::Msg>| {
            (p.is_done(), p.stage_tag(), ctx.shard_round_messages())
        };
        let before = seen(&self.inner, ctx);
        self.inner.on_round(ctx);
        assert_eq!(
            seen(&self.inner, ctx),
            before,
            "node {} broke its wake hint in round {round} (stage {:?}): it promised no \
             spontaneous step before {:?}, yet a step with an empty inbox changed \
             (is_done, stage_tag, messages sent)",
            ctx.id(),
            before.1,
            self.hint,
        );
    }

    fn is_done(&self) -> bool {
        self.inner.is_done()
    }

    fn stage_tag(&self) -> &'static str {
        self.inner.stage_tag()
    }

    // The default `next_wake`, `Some(0)`, has the executor step the
    // wrapper every round.
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Network, RunConfig, Topology};

    /// Promises to sleep until round 5, but acts in round 2: it finishes,
    /// or with `send` it messages its neighbor instead.
    struct Oversleeper {
        send: bool,
        done: bool,
    }

    impl NodeProgram for Oversleeper {
        type Msg = ();
        fn on_round(&mut self, ctx: &mut RoundCtx<'_, ()>) {
            if ctx.round() == 2 && self.send {
                ctx.send(0, ());
            }
            self.done |= ctx.round() == 2 && !self.send;
        }
        fn is_done(&self) -> bool {
            self.done
        }
        fn stage_tag(&self) -> &'static str {
            "nap"
        }
        fn next_wake(&self, _after: u64) -> Option<u64> {
            Some(5)
        }
    }

    fn run(send: bool) {
        let topo = Topology::new(2, &[(0, 1, 1)]).unwrap();
        let mut net = Network::new(topo, |_| EveryRound::new(Oversleeper { send, done: false }));
        let _ = net.run(&RunConfig::default());
    }

    #[test]
    #[should_panic(expected = "node 0 broke its wake hint in round 2 (stage \"nap\")")]
    fn a_send_inside_a_promised_sleep_panics() {
        run(true);
    }

    #[test]
    #[should_panic(expected = "node 0 broke its wake hint in round 2 (stage \"nap\")")]
    fn a_state_change_inside_a_promised_sleep_panics() {
        run(false);
    }
}
