//! Stage A: BFS tree construction, size/height convergecast, parameter
//! broadcast (paper §3, the auxiliary tree `τ` and its preprocessing).
//!
//! The broadcast also labels `τ` with nested intervals: a vertex holds its
//! children's subtree sizes by the time `Params` reaches it, so each copy
//! it passes down carries the child's interval start (its slot; see
//! [`intervals`](crate::intervals)).
//!
//! Costs: `O(D)` rounds (BFS wave down, convergecast up, broadcast down) and
//! `O(m)` messages (each edge carries one `Bfs` or `BfsChild` per direction
//! plus `O(n)` tree messages), matching the paper's accounting for this
//! step. Both carry the sender's id, so the wave teaches every vertex its
//! neighbors' ids, which double as their phase-0 fragment ids, and no
//! later message carries one.

use congest_sim::RoundCtx;

use crate::intervals;
use crate::msg::Msg;
use crate::schedule::{choose_k_cost, Params, Schedule};

use super::{ElkinNode, Stage};

impl ElkinNode {
    pub(crate) fn a_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let round = ctx.round();
        for &(port, ref msg) in ctx.inbox() {
            if let Msg::Bfs { me } | Msg::BfsChild { me } = *msg {
                self.ports.set_nbr_id(port, me);
                // A singleton's fragment id is its vertex id, so phase 0
                // of Stage B needs no announce.
                self.ports.set_nbr_frag(port, me);
            }
            match *msg {
                Msg::Bfs { .. } => {
                    if !self.a.seen {
                        self.a.seen = true;
                        self.depth = round;
                        self.bfs_parent = Some(port);
                        self.a.close_round = round + 2;
                        ctx.send(port, Msg::BfsChild { me: self.id });
                        for p in 0..self.ports.deg() {
                            if p != port {
                                ctx.send(p, Msg::Bfs { me: self.id });
                            }
                        }
                    }
                }
                Msg::BfsChild { .. } => self.bfs_children.push(port),
                Msg::SizeUp { size, height } => {
                    let idx = self
                        .bfs_children
                        .iter()
                        .position(|&p| p == port)
                        .expect("SizeUp only arrives from registered children");
                    self.child_sizes[idx] = size;
                    self.a.acc_size += size;
                    self.a.acc_height = self.a.acc_height.max(height + 1);
                    self.a.size_pending -= 1;
                    if self.a.size_pending == 0 {
                        self.a_report(ctx);
                    }
                }
                Msg::Params { n, h, k, t0, slot } => {
                    self.a_adopt(ctx, Params { n, h, k, t0 }, slot)
                }
                ref other => unreachable!("stage A received {other:?}"),
            }
        }
    }

    pub(crate) fn a_act(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let round = ctx.round();

        // Kick-off: the designated root starts the BFS wave at round 0.
        if round == 0 && self.is_bfs_root() {
            self.a.seen = true;
            self.depth = 0;
            self.a.close_round = 2;
            if self.ports.deg() == 0 {
                // Single-vertex graph: the MST is empty and we are done.
                self.finished = true;
                return;
            }
            for p in 0..self.ports.deg() {
                ctx.send(p, Msg::Bfs { me: self.id });
            }
        }

        // Two rounds after our own BFS send, all `BfsChild` replies are in.
        if self.a.seen && !self.a.closed && round == self.a.close_round {
            self.a.closed = true;
            self.a.size_pending = self.bfs_children.len();
            self.child_sizes = vec![0; self.bfs_children.len()];
            if self.a.size_pending == 0 {
                self.a_report(ctx);
            }
        }

        // Stage B begins at the globally agreed round t0.
        if self.sched.is_some_and(|s| s.start() == round) {
            self.stage = Stage::B;
            self.b_act(ctx);
        }
    }

    /// Subtree complete: report to the parent, or — at the BFS root —
    /// finalize the global parameters and broadcast them.
    fn a_report(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        debug_assert!(!self.a.reported);
        self.a.reported = true;
        let size = self.a.acc_size + 1;
        let height = self.a.acc_height;
        if let Some(parent) = self.bfs_parent {
            ctx.send(parent, Msg::SizeUp { size, height });
        } else {
            // BFS root: size is n, height is H.
            let n = size;
            let h = height;
            let b = self.cfg.bandwidth;
            let k = self.cfg.k_override.unwrap_or_else(|| choose_k_cost(n, h, b));
            // An override of 0 runs as 1 (no Controlled-GHS phase). Past
            // 2 * n.next_power_of_two() an override only adds phases that
            // find one fragment left (at most ceil(log2 n) + 1 are needed),
            // so clamp it before it exhausts the round cap or overflows the
            // schedule.
            let k = k.clamp(1, 2 * n.next_power_of_two());
            let t0 = ctx.round() + h + 2;
            self.a_adopt(ctx, Params { n, h, k, t0 }, 0);
        }
    }

    /// Adopts the broadcast parameters and the Stage B schedule they
    /// determine, takes the interval starting at `slot` (the BFS root owns
    /// `[0, n)`) and passes the parameters on, each BFS child's copy
    /// carrying its sub-interval's start.
    fn a_adopt(&mut self, ctx: &mut RoundCtx<'_, Msg>, params: Params, slot: u64) {
        self.sched = Some(Schedule::new(&params));
        self.slot = slot;
        self.child_ivs = intervals::assign_children(slot, &self.child_sizes);
        let Params { n, h, k, t0 } = params;
        for (&p, &(start, _)) in self.bfs_children.iter().zip(&self.child_ivs) {
            ctx.send(p, Msg::Params { n, h, k, t0, slot: start });
        }
    }
}
