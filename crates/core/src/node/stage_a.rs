//! Stage A: BFS tree construction, size/height convergecast, parameter
//! broadcast (paper §3, the auxiliary tree `τ` and its preprocessing).
//!
//! Costs: `O(D)` rounds (BFS wave down, convergecast up, broadcast down) and
//! `O(m)` messages (each edge carries at most one `Bfs` per direction plus
//! `O(n)` tree messages), matching the paper's accounting for this step.

use congest_sim::RoundCtx;

use crate::msg::Msg;
use crate::schedule::{choose_k, choose_k_cost, Params, Schedule, ScheduleMode};

use super::{ElkinNode, Stage};

impl ElkinNode {
    pub(crate) fn a_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let round = ctx.round();
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                Msg::Bfs => {
                    if !self.a.seen {
                        self.a.seen = true;
                        self.depth = round;
                        self.bfs_parent = Some(port);
                        self.a.close_round = round + 2;
                        ctx.send(port, Msg::BfsChild);
                        for p in 0..self.deg {
                            if p != port {
                                ctx.send(p, Msg::Bfs);
                            }
                        }
                    }
                }
                Msg::BfsChild => {
                    self.bfs_children.push(port);
                }
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
                Msg::Params { n, h, k, t0 } => {
                    self.a_adopt_params(Params { n, h, k, t0 });
                    for &p in &self.bfs_children.clone() {
                        ctx.send(p, Msg::Params { n, h, k, t0 });
                    }
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
            if self.deg == 0 {
                // Single-vertex graph: the MST is empty and we are done.
                self.finished = true;
                return;
            }
            for p in 0..self.deg {
                ctx.send(p, Msg::Bfs);
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
        if let Some(p) = self.params {
            if round == p.t0 {
                self.stage = Stage::B;
                self.b_act(ctx);
            }
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
            let k = self.cfg.k_override.unwrap_or_else(|| match self.cfg.schedule_mode {
                ScheduleMode::Fixed => choose_k(n, h, self.cfg.bandwidth),
                ScheduleMode::Adaptive => {
                    choose_k_cost(n, h, self.cfg.bandwidth, self.cfg.merge_control)
                }
            });
            // Past 2 * n.next_power_of_two() an override only adds phases
            // that find one fragment left (at most ceil(log2 n) + 1 are
            // needed), so clamp it before it exhausts the round cap or
            // overflows the schedule.
            let k = k.min(2 * n.next_power_of_two());
            let t0 = ctx.round() + h + 2;
            let params = Params { n, h, k, t0 };
            self.a_adopt_params(params);
            for &p in &self.bfs_children.clone() {
                ctx.send(p, Msg::Params { n, h, k, t0 });
            }
        }
    }

    fn a_adopt_params(&mut self, params: Params) {
        self.sched = Some(Schedule::new(&params, self.cfg.merge_control, self.cfg.schedule_mode));
        self.params = Some(params);
    }
}
