//! Stage D: the fused, event-driven Borůvka phases over the base forest
//! (paper §3).
//!
//! Unlike Stage B, this stage is *event-driven*: every sub-step triggers
//! on local completion events. The Borůvka phases are **fused** — no
//! per-phase BFS-tree barrier exists. An earlier protocol spent four
//! `O(H)` tree traversals per phase (`AnnDone` up, `MwoeGo` down,
//! `PhaseDone` up, `StartPhase` down) purely on control flow; the paper's
//! `O((D + k + n/(kb)) log n)` budget for this stage never required them,
//! and Pandurangan–Robinson–Scquizzato (PRS17 in `PAPER.md`) run the same
//! Borůvka-over-a-BFS-backbone with phases driven by local completion.
//!
//! Phase 0 opens at every vertex in the round Stage B ends: each base
//! fragment is its own coarse fragment, with its id (`frag_id`, a vertex
//! id) as coarse id, and the slots of Stage A's interval labels are the
//! answers' addresses. Per phase `j`, fused:
//!
//! 1. A vertex sends `CoarseAnnounce` over its live ports the moment its
//!    coarse id for phase `j` is current (at once for `j = 0`, on the
//!    `Assign`/`NewCoarse` answer of phase `j - 1` otherwise). A port is
//!    retired, and carries no more announces, once both of its ends held
//!    the same id: Stage D opens with Stage B's retire sweep run once
//!    more, and before adopting its phase-`j + 1` id a vertex retires
//!    every live port whose neighbor announced the same phase-`j` coarse
//!    id as the vertex itself. All of phase `j`'s announces have landed
//!    by then, since the root merges `j` only after every vertex
//!    aggregated `j`, and both ends compare the same pair of ids. An
//!    unchanged coarse id is still announced: no global window marks the
//!    phase, so the announce itself is the readiness signal, and a
//!    skipped one would look like one from a neighbor still in phase
//!    `j - 1`.
//! 2. It aggregates its *fragment subtree* as soon as the announces of all
//!    of its **own** live ports have landed (local readiness — no global
//!    announce barrier) and all fragment children reported, then sends
//!    `FragMwoeUp` to its fragment parent; fragment roots turn the
//!    aggregate into a pipelined `Candidate` record instead.
//! 3. Candidates flow up the BFS tree filtered per coarse id; `UpDone`
//!    retires a subtree. This convergecast is the *only* per-phase global
//!    serialization — it is what the root merge needs anyway, and it
//!    bounds the phase skew between any two vertices to one.
//! 4. The BFS root merges the fragment graph locally (exactly the
//!    computation the paper assigns to `rt`) and answers every base
//!    fragment with an interval-routed, pipelined `Assign`: receipt closes
//!    phase `j` and opens `j + 1` in one event, so fragments re-announce
//!    immediately. The root learns the base fragments themselves from
//!    phase 0's candidates: with two or more base fragments in a connected
//!    graph each has an outgoing edge, and in phase 0 each has a coarse id
//!    of its own, so the per-coarse-id filter passes every one of them.
//! 5. Fragment roots broadcast `NewCoarse`; a chosen candidate is marked
//!    at both ends by a [`Walk::Mark`] down the phase's argmin path and
//!    across the edge. Each hop is sent before the same edge's
//!    `NewCoarse`, so per-edge FIFO delivers it while the phase-`j`
//!    scratch (and its `Argmin`) is intact.
//!    Termination needs no extra control flow: `done` rides the final
//!    answer path and every vertex quiesces once its queues drain. A lone
//!    base fragment (phase 0 finds no outgoing edge) spans the graph: its
//!    root floods `NewCoarse { done: true }` itself, and the BFS root,
//!    whose upcast that fragment root never completes, never merges.
//!
//! Messages of phase `j + 1` can arrive while a vertex still works on `j`
//! (its own answer may be stuck in the pipelined downcast); they park in
//! the node-level skew buffers and fold in when the phase rolls. Skew
//! beyond one phase is impossible: the root cannot merge `j + 1` before
//! every vertex contributed `UpDone` for it, which requires that vertex to
//! have finished `j`.

use congest_sim::RoundCtx;

use crate::candidate::{CandKey, Candidate};
use crate::msg::{Msg, Walk};

use super::{lane, DScratch, ElkinNode, Sel, UNKNOWN};

impl ElkinNode {
    /// Called once when Stage B's schedule ends: retires the ports Stage
    /// B's last announces showed internal and opens Borůvka phase 0, in
    /// which every base fragment is its own coarse fragment.
    pub(crate) fn cd_enter(&mut self) {
        if self.forest_only {
            // Theorem 4.3 standalone: the base forest is the deliverable.
            self.finished = true;
            return;
        }
        self.retire_internal(lane::NBR_FRAG, self.known_frag);
        self.down = vec![std::collections::VecDeque::new(); self.bfs_children.len()];
        if self.is_bfs_root() {
            self.root = Some(Box::default());
        }
        self.coarse = self.frag_id;
    }

    pub(crate) fn cd_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                Msg::CoarseAnnounce { coarse } => {
                    assert!(!self.ports.retired(port), "CoarseAnnounce over a retired port");
                    // The sender announces once per phase in phase order
                    // while the port is live, so the per-port count *is*
                    // the announce's phase.
                    let ph = self.ports.bump_ann_count(port);
                    if ph == self.d.phase {
                        self.ports.set_nbr_coarse(port, coarse);
                        self.d.ann_recv += 1;
                    } else {
                        debug_assert_eq!(
                            ph,
                            self.d.phase + 1,
                            "announce phase skew > 1 at vertex {}",
                            self.id
                        );
                        self.ports.set_nbr_coarse_next(port, coarse);
                        self.ann_recv_next += 1;
                    }
                }
                Msg::FragMwoeUp { cand } => {
                    // A fragment subtree cannot outrun its own root, so
                    // this always belongs to the current phase.
                    debug_assert!(self.frag_children.contains(&port));
                    debug_assert!(
                        !self.d.responded,
                        "FragMwoeUp after subtree completion at vertex {}",
                        self.id
                    );
                    if let Some(cand) = cand {
                        self.d.mwoe.offer(cand, Sel::Child(port));
                    }
                    self.d.frag_up_recv += 1;
                }
                Msg::Candidate { rec } => {
                    // Candidates from a port belong to the phase after the
                    // last `UpDone` seen on it (per-edge FIFO).
                    let ph = self.ports.updone_count(port);
                    if ph == self.d.phase {
                        self.cd_offer(rec);
                    } else {
                        debug_assert_eq!(
                            ph,
                            self.d.phase + 1,
                            "candidate phase skew > 1 at vertex {}",
                            self.id
                        );
                        self.cand_next.push(rec);
                    }
                }
                Msg::UpDone => {
                    let ph = self.ports.bump_updone_count(port);
                    if ph == self.d.phase {
                        self.d.updone_children += 1;
                    } else {
                        debug_assert_eq!(
                            ph,
                            self.d.phase + 1,
                            "UpDone phase skew > 1 at vertex {}",
                            self.id
                        );
                        self.updone_next += 1;
                    }
                }
                Msg::Assign { dest_slot, new_coarse, chosen, done } => {
                    if dest_slot == self.slot {
                        self.cd_consume_assign(ctx, new_coarse, chosen, done);
                    } else {
                        let idx = self.cd_route(dest_slot);
                        self.down[idx].push_back(msg.clone());
                    }
                }
                Msg::NewCoarse { id, done } => self.cd_apply_new_coarse(ctx, id, done),
                // The `Mark` path hop was sent before the same phase's
                // `NewCoarse` on this edge, so FIFO guarantees it is
                // processed while `d.mwoe` still holds the phase's argmin
                // selection.
                Msg::Path(Walk::Mark) => self.walk(ctx, Walk::Mark),
                Msg::Cross(Walk::Mark) => self.ports.mark_mst(port),
                ref other => unreachable!("stage D received {other:?}"),
            }
        }
    }

    /// Per-round scheduled work. Unconditional control sends (handler
    /// forwards, announce, `FragMwoeUp`, `NewCoarse` and the Mark walk via the
    /// root merge) run before the pipeline flushes, which go through
    /// [`RoundCtx::try_send`] and so spend exactly what is left of each
    /// edge's word budget this round. The completion marker (`UpDone`) is
    /// gated the same way and deferred while the
    /// edge is full, so a shared BFS-/fragment-tree edge is never
    /// oversubscribed and no headroom needs reserving; the simulator's
    /// capacity check loudly rejects any future unconditional send placed
    /// after the flushes.
    ///
    /// Each step runs under one readiness predicate (`cd_*_ready`), the
    /// same one [`cd_next_wake`](Self::cd_next_wake) ORs into the wake
    /// hint.
    pub(crate) fn cd_act(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        // (a) Announce the current phase: phase 0 from the round Stage B
        // ends, later phases as soon as the answer path rolls them.
        if self.cd_announce_ready() {
            self.d.announced = true;
            let coarse = self.coarse;
            for q in self.live_ports() {
                ctx.send(q, Msg::CoarseAnnounce { coarse });
            }
        }

        // (b) Fragment-subtree aggregation completes on *local* readiness:
        // all of my own neighbors announced and my fragment children
        // reported. No probe broadcast and no global go-signal exist.
        if self.cd_aggregate_ready() {
            self.d.responded = true;
            self.cd_offer_local();
            if self.is_frag_root() && self.d.phase == 0 && self.d.mwoe.best.is_none() {
                // No edge leaves this base fragment: it spans the graph,
                // so it answers itself and the run is over.
                self.cd_apply_new_coarse(ctx, self.coarse, true);
            } else if self.is_frag_root() {
                self.cd_inject();
            } else {
                let up = self.frag_parent.expect("non-root has a fragment parent");
                ctx.send(up, Msg::FragMwoeUp { cand: self.d.mwoe.best });
            }
        }

        // (c) Candidate pipeline flush toward the BFS parent.
        if let Some(parent) = self.bfs_parent.filter(|_| self.cd_upcast_ready()) {
            while let Some(&(key, sc)) = self.d.up_pending.iter().next() {
                let rec = self.d.up_best[&sc];
                debug_assert_eq!(rec.key, key);
                if ctx.try_send(parent, Msg::Candidate { rec }).is_err() {
                    break;
                }
                self.d.up_pending.remove(&(key, sc));
            }
        }

        // (d) Upcast completion / root-local merge. `UpDone` may fire in
        // the same round as the last candidate (it follows them in FIFO
        // order) and is deferred while the edge is full.
        if self.cd_updone_ready() {
            if let Some(parent) = self.bfs_parent {
                if ctx.try_send(parent, Msg::UpDone).is_ok() {
                    self.d.updone_sent = true;
                }
            } else {
                self.d.updone_sent = true;
                self.cd_root_merge(ctx);
            }
        }

        // (e) Downcast pipeline flush (also drains the answers the root
        // merge just queued, and keeps draining after `done`).
        if self.cd_downcast_ready() {
            for (queue, &port) in self.down.iter_mut().zip(&self.bfs_children) {
                while let Some(msg) = queue.pop_front() {
                    if let Err(msg) = ctx.try_send(port, msg) {
                        queue.push_front(msg);
                        break;
                    }
                }
            }
        }

        // Quiesce only when everything queued has been flushed.
        if self.cd_quiesce_ready() {
            debug_assert!(self.cand_next.is_empty(), "buffered candidates past termination");
            self.finished = true;
        }
    }

    /// Idle-skip hint for Stage D (the `NodeProgram::next_wake`
    /// contract): `Some(after + 1)` iff the readiness predicate of some
    /// `cd_act` step holds, else `None` (purely message-driven).
    ///
    /// Every step either makes monotone progress on a queue or latches a
    /// flag, so a `true` here never repeats forever. Budget-gated sends
    /// (`RoundCtx::try_send`) that defer leave their predicate standing,
    /// which correctly re-arms the wake for the next round, when the
    /// edge's budget is fresh.
    pub(crate) fn cd_next_wake(&self, after: u64) -> Option<u64> {
        (self.cd_announce_ready()
            || self.cd_aggregate_ready()
            || self.cd_upcast_ready()
            || self.cd_updone_ready()
            || self.cd_downcast_ready()
            || self.cd_quiesce_ready())
        .then_some(after + 1)
    }

    // ---- readiness predicates of the `cd_act` steps ----

    /// (a) The current phase is not yet announced.
    fn cd_announce_ready(&self) -> bool {
        !self.done_seen && !self.d.announced
    }

    /// (b) Every live port announced and every fragment child reported.
    fn cd_aggregate_ready(&self) -> bool {
        self.d.announced
            && !self.d.responded
            && self.d.ann_recv == self.live
            && self.d.frag_up_recv == self.frag_children.len()
    }

    /// (c) Candidates wait to go up.
    fn cd_upcast_ready(&self) -> bool {
        self.bfs_parent.is_some() && !self.d.up_pending.is_empty()
    }

    /// (d) My subtree's upcast is complete: send `UpDone`, or at the BFS
    /// root, merge.
    fn cd_updone_ready(&self) -> bool {
        !self.done_seen
            && !self.d.updone_sent
            && (!self.is_frag_root() || self.d.injected)
            && self.d.updone_children == self.bfs_children.len()
            && self.d.up_pending.is_empty()
    }

    /// (e) Answers wait to go down.
    fn cd_downcast_ready(&self) -> bool {
        self.down.iter().any(|q| !q.is_empty())
    }

    /// `done` arrived and every queue is flushed: finish.
    fn cd_quiesce_ready(&self) -> bool {
        self.done_seen
            && !self.finished
            && self.d.up_pending.is_empty()
            && self.down.iter().all(|q| q.is_empty())
    }

    // ---- helpers ----

    /// Offers my incident edges leaving my *coarse* fragment, each with
    /// the coarse id on its far side, to the subtree aggregate. A retired
    /// port's `nbr_coarse` is stale, but its edge is internal anyway.
    fn cd_offer_local(&mut self) {
        let mut mwoe = std::mem::take(&mut self.d.mwoe);
        for q in self.live_ports() {
            let nc = self.ports.nbr_coarse(q);
            if nc != self.coarse {
                let key = CandKey::new(self.ports.weight(q), self.id, self.ports.nbr_id(q));
                mwoe.offer((key, nc), Sel::Mine(q));
            }
        }
        self.d.mwoe = mwoe;
    }

    /// Fragment root: turn the aggregate into a pipelined record. Every
    /// vertex of the base fragment holds the same coarse id, so the
    /// source side is the root's own.
    fn cd_inject(&mut self) {
        debug_assert!(!self.d.injected);
        self.d.injected = true;
        if let Some((key, dc)) = self.d.mwoe.best {
            let src_coarse = self.coarse;
            let rec = Candidate { key, src_coarse, dst_coarse: dc, src_slot: self.slot };
            self.cd_offer(rec);
        }
    }

    /// Filtered insert into the upcast buffer (also the BFS root's
    /// collection): keep only improvements per source coarse id.
    fn cd_offer(&mut self, rec: Candidate) {
        let sc = rec.src_coarse;
        if let Some(old) = self.d.up_best.get(&sc) {
            if old.key <= rec.key {
                return;
            }
            self.d.up_pending.remove(&(old.key, sc));
        }
        self.d.up_best.insert(sc, rec);
        if self.bfs_parent.is_some() {
            self.d.up_pending.insert((rec.key, sc));
        }
    }

    /// BFS-root-local Borůvka merge of the fragment graph (paper §3: `rt`
    /// computes the MWOEs, merges fragments, and answers every base
    /// fragment). Under the fused protocol the answers are also the next
    /// phase's start signal: a fragment re-announces the moment its
    /// `Assign` lands — the `PhaseDone`/`StartPhase` barrier pair this
    /// replaces is gone. The pure computation lives in
    /// [`merge_fragment_graph`](crate::fraggraph::merge_fragment_graph).
    fn cd_root_merge(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let mut root = self.root.take().expect("only the BFS root merges");
        if self.d.phase == 0 {
            // Every base fragment's candidate got through (module docs):
            // they name the fragments this root answers from now on.
            let base = self.d.up_best.values().map(|rec| (rec.src_slot, rec.src_coarse));
            root.slot_coarse = base.collect();
        }

        let coarse_ids: Vec<u64> = root.slot_coarse.values().copied().collect();
        let outcome = crate::fraggraph::merge_fragment_graph(&coarse_ids, &self.d.up_best);
        let done = outcome.done;

        // Answer every base fragment with its new coarse id.
        for (&slot, coarse) in &mut root.slot_coarse {
            let nc = outcome.new_id[coarse];
            *coarse = nc;
            let chosen = outcome.chosen_slots.contains(&slot);
            if slot == self.slot {
                self.cd_consume_assign(ctx, nc, chosen, done);
            } else {
                let idx = self.cd_route(slot);
                let answer = Msg::Assign { dest_slot: slot, new_coarse: nc, chosen, done };
                self.down[idx].push_back(answer);
            }
        }
        self.root = Some(root);
    }

    /// Which BFS child's interval contains `dest`?
    fn cd_route(&self, dest: u64) -> usize {
        crate::intervals::route(&self.child_ivs, dest)
            .unwrap_or_else(|| panic!("slot {dest} not in any child interval of {}", self.id))
    }

    /// A base-fragment root received its phase answer: walk to the chosen
    /// edge and mark it (before `NewCoarse`, so FIFO protects every hop's
    /// `Sel`), broadcast the new coarse id, and roll into the next phase
    /// myself.
    fn cd_consume_assign(
        &mut self,
        ctx: &mut RoundCtx<'_, Msg>,
        nc: u64,
        chosen: bool,
        done: bool,
    ) {
        debug_assert!(self.is_frag_root());
        if chosen {
            self.walk(ctx, Walk::Mark);
        }
        self.cd_apply_new_coarse(ctx, nc, done);
    }

    /// The one phase-roll call site: pass the new coarse id down the
    /// fragment, retire the ports this phase's announces showed internal,
    /// adopt the new id, roll the scratch, and latch global termination.
    fn cd_apply_new_coarse(&mut self, ctx: &mut RoundCtx<'_, Msg>, id: u64, done: bool) {
        for &q in &self.frag_children {
            ctx.send(q, Msg::NewCoarse { id, done });
        }
        self.retire_internal(lane::NBR_COARSE, self.coarse);
        self.coarse = id;
        self.cd_roll_phase();
        if done {
            self.done_seen = true;
        }
    }

    /// Replace the per-phase scratch with a fresh one for `d.phase + 1`,
    /// folding in whatever next-phase traffic arrived early (the skew
    /// buffers; see `DScratch`).
    fn cd_roll_phase(&mut self) {
        self.d = DScratch { phase: self.d.phase + 1, ..DScratch::default() };
        self.d.ann_recv = std::mem::take(&mut self.ann_recv_next);
        self.d.updone_children = std::mem::take(&mut self.updone_next);
        for q in 0..self.deg {
            let next = self.ports.nbr_coarse_next(q);
            if next != UNKNOWN {
                self.ports.set_nbr_coarse(q, next);
                self.ports.set_nbr_coarse_next(q, UNKNOWN);
            }
        }
        for rec in std::mem::take(&mut self.cand_next) {
            self.cd_offer(rec);
        }
    }
}
