//! Stages C and D: interval labeling, fragment registration, and the
//! fused, event-driven Borůvka phases over the base forest (paper §3).
//!
//! Unlike Stage B, these stages are *event-driven*: every sub-step triggers
//! on local completion events. Since PR 3 the Borůvka phases are **fused**
//! — no per-phase BFS-tree barrier exists. The seed protocol spent four
//! `O(H)` tree traversals per phase (`AnnDone` up, `MwoeGo` down,
//! `PhaseDone` up, `StartPhase` down) purely on control flow; the paper's
//! `O((D + k + n/(kb)) log n)` budget for this stage never required them,
//! and Pandurangan–Robinson–Scquizzato (arXiv:1703.02411) run the same
//! Borůvka-over-a-BFS-backbone with phases driven by local completion.
//!
//! Per phase `j`, fused:
//!
//! 1. A vertex broadcasts `CoarseAnnounce` to all neighbors the moment its
//!    coarse id for phase `j` is current (`InitCoarse` for `j = 0`, the
//!    `Assign`/`NewCoarse` answer of phase `j - 1` otherwise).
//! 2. It aggregates its *fragment subtree* as soon as all of its **own**
//!    neighbors' announcements have landed (local readiness — no global
//!    announce barrier) and all fragment children reported, then sends
//!    `FragMwoeUp` to its fragment parent; fragment roots turn the
//!    aggregate into a pipelined `Candidate` record instead.
//! 3. Candidates flow up the BFS tree filtered per coarse id; `UpDone`
//!    retires a subtree. This convergecast is the *only* per-phase global
//!    serialization — it is what the root merge needs anyway, and it
//!    bounds the phase skew between any two vertices to one.
//! 4. The BFS root merges the fragment graph locally (exactly the
//!    computation the paper assigns to `rt`) and answers every base
//!    fragment with an interval-routed, pipelined `Assign` **carrying
//!    phase `j + 1`**: receipt closes phase `j` and opens `j + 1` in one
//!    event, so fragments re-announce immediately.
//! 5. Fragment roots broadcast `NewCoarse` (also carrying `j + 1`); chosen
//!    candidates are marked by a `MarkPath` downcast along the remembered
//!    argmin path plus a `MarkCross` over the edge itself. `MarkPath` is
//!    always sent before the same edge's `NewCoarse`, so per-edge FIFO
//!    delivers it while the phase-`j` scratch (and its `Sel`) is intact.
//!    Termination needs no extra control flow: `done` rides the final
//!    answer path and every vertex quiesces once its queues drain.
//!
//! Messages of phase `j + 1` can arrive while a vertex still works on `j`
//! (its own answer may be stuck in the pipelined downcast); they park in
//! the node-level skew buffers and fold in when the phase rolls. Skew
//! beyond one phase is impossible: the root cannot merge `j + 1` before
//! every vertex contributed `UpDone` for it, which requires that vertex to
//! have finished `j`.

use congest_sim::RoundCtx;

use crate::candidate::{CandKey, Candidate};
use crate::msg::Msg;

use super::{DScratch, ElkinNode, Sel, UNKNOWN};

impl ElkinNode {
    /// Called once when Stage B's schedule ends.
    pub(crate) fn cd_enter(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        debug_assert!(!self.c.entered);
        self.c.entered = true;
        self.milestones.entered_cd = ctx.round();
        if self.cfg.stop_after_forest {
            // Theorem 4.3 standalone: the base forest is the deliverable.
            self.finished = true;
            return;
        }
        self.down = vec![std::collections::VecDeque::new(); self.bfs_children.len()];
        if self.is_bfs_root() {
            self.root = Some(Box::default());
            self.cd_take_interval(ctx, 0);
        }
    }

    /// Receive my interval, hand sub-intervals to my BFS children, and (if I
    /// root a base fragment) register with the BFS root and initialize my
    /// fragment's coarse id — which opens Borůvka phase 0 for me.
    fn cd_take_interval(&mut self, ctx: &mut RoundCtx<'_, Msg>, start: u64) {
        self.slot = start;
        self.c.interval_received = true;
        self.child_ivs = crate::intervals::assign_children(start, &self.child_sizes);
        for (&q, &(cstart, size)) in self.bfs_children.iter().zip(&self.child_ivs) {
            ctx.send(q, Msg::Interval { start: cstart, size });
        }
        if self.is_frag_root() {
            self.c.registered = true;
            let slot = self.slot;
            if let Some(root) = self.root.as_mut() {
                root.slots.push(slot);
                root.slot_coarse.insert(slot, slot);
            } else {
                self.c.reg_queue.push_back(slot);
            }
            self.coarse = slot;
            self.coarse_ready = Some(0);
            self.milestones.entered_d = ctx.round();
            for &q in &self.frag_children {
                ctx.send(q, Msg::InitCoarse { id: slot });
            }
        }
    }

    pub(crate) fn cd_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let inbox: Vec<(usize, Msg)> = ctx.inbox().to_vec();
        for (port, msg) in inbox {
            match msg {
                Msg::Interval { start, .. } => self.cd_take_interval(ctx, start),
                Msg::InitCoarse { id } => {
                    self.coarse = id;
                    self.coarse_ready = Some(0);
                    self.milestones.entered_d = ctx.round();
                    for &q in &self.frag_children {
                        ctx.send(q, Msg::InitCoarse { id });
                    }
                }
                Msg::Register { slot } => {
                    if let Some(root) = self.root.as_mut() {
                        root.slots.push(slot);
                        root.slot_coarse.insert(slot, slot);
                    } else {
                        self.c.reg_queue.push_back(slot);
                    }
                }
                Msg::RegDone => {
                    if let Some(root) = self.root.as_mut() {
                        root.reg_done_children += 1;
                    } else {
                        self.c.reg_done_children += 1;
                    }
                }
                Msg::CoarseAnnounce { coarse, me } => {
                    // The sender announces once per phase in phase order,
                    // so the per-port count *is* the announce's phase.
                    self.ports.set_nbr_id(port, me);
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
                    if let Some((key, sc, dc)) = cand {
                        if self.d.agg.is_none_or(|(a, _, _)| key < a) {
                            self.d.agg = Some((key, sc, dc));
                            self.d.sel = Sel::Child(port);
                        }
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
                Msg::Assign { dest_slot, new_coarse, chosen, done, next } => {
                    if dest_slot == self.slot {
                        self.cd_consume_assign(ctx, new_coarse, chosen, done, next);
                    } else {
                        let idx = self.cd_route(dest_slot);
                        self.down[idx].push_back(Msg::Assign {
                            dest_slot,
                            new_coarse,
                            chosen,
                            done,
                            next,
                        });
                    }
                }
                Msg::NewCoarse { id, done, next } => {
                    self.cd_apply_new_coarse(ctx, id, done, next);
                }
                // `MarkPath` was sent before the same phase's `NewCoarse`
                // on this edge, so FIFO guarantees it is processed while
                // `d.sel` still holds the phase's argmin selection.
                Msg::MarkPath => match self.d.sel {
                    Sel::Mine(q) => {
                        self.ports.mark_mst(q);
                        ctx.send(q, Msg::MarkCross);
                    }
                    Sel::Child(c) => ctx.send(c, Msg::MarkPath),
                    Sel::None => unreachable!("MarkPath reached a subtree without a candidate"),
                },
                Msg::MarkCross => self.ports.mark_mst(port),
                other => unreachable!("stage C/D received {other:?}"),
            }
        }
    }

    /// Per-round scheduled work. Unconditional control sends (handler
    /// forwards, announce, `FragMwoeUp`, `NewCoarse`/`MarkPath` via the
    /// root merge) run before the pipeline flushes, which go through
    /// [`RoundCtx::try_send`] and so spend exactly what is left of each
    /// edge's word budget this round. The completion markers
    /// (`UpDone`/`RegDone`) are gated the same way and deferred while the
    /// edge is full, so a shared BFS-/fragment-tree edge is never
    /// oversubscribed and no headroom needs reserving; the simulator's
    /// strict capacity check loudly rejects any future unconditional send
    /// placed after the flushes.
    pub(crate) fn cd_act(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        // --- Stage C: root-side registration completion (gates merge 0).
        if let Some(root) = self.root.as_mut() {
            if !root.reg_complete
                && self.c.interval_received
                && root.reg_done_children == self.bfs_children.len()
            {
                root.reg_complete = true;
                root.slots.sort_unstable();
            }
        }

        // (a) Announce the current phase as soon as the coarse id is
        // current (for phase 0 that is `InitCoarse` receipt; afterwards
        // the answer path rolls `coarse_ready` and `d.phase` together).
        if !self.done_seen && !self.d.announced && self.coarse_ready == Some(self.d.phase) {
            self.d.announced = true;
            let coarse = self.coarse;
            for q in 0..self.deg {
                ctx.send(q, Msg::CoarseAnnounce { coarse, me: self.id });
            }
        }

        // (b) Fragment-subtree aggregation completes on *local* readiness:
        // all of my own neighbors announced and my fragment children
        // reported. No probe broadcast and no global go-signal exist.
        if self.d.announced
            && !self.d.responded
            && self.d.ann_recv == self.deg
            && self.d.frag_up_recv == self.frag_children.len()
        {
            self.d.responded = true;
            let (mine, sel) = self.cd_local_candidate();
            if let Some((key, sc, dc)) = mine {
                if self.d.agg.is_none_or(|(a, _, _)| key < a) {
                    self.d.agg = Some((key, sc, dc));
                    self.d.sel = sel;
                }
            }
            if self.is_frag_root() {
                self.cd_inject();
            } else {
                let up = self.frag_parent.expect("non-root has a fragment parent");
                ctx.send(up, Msg::FragMwoeUp { cand: self.d.agg });
            }
        }

        // (c) Stage C registration pipeline toward the BFS root.
        if self.c.interval_received && !self.c.reg_done_sent {
            if let Some(parent) = self.bfs_parent {
                while let Some(&slot) = self.c.reg_queue.front() {
                    if ctx.try_send(parent, Msg::Register { slot }).is_err() {
                        break;
                    }
                    self.c.reg_queue.pop_front();
                }
                let my_duty = !self.is_frag_root() || self.c.registered;
                if my_duty
                    && self.c.reg_queue.is_empty()
                    && self.c.reg_done_children == self.bfs_children.len()
                    && ctx.try_send(parent, Msg::RegDone).is_ok()
                {
                    self.c.reg_done_sent = true;
                }
            }
        }

        // (d) Candidate pipeline flush toward the BFS parent.
        if let Some(parent) = self.bfs_parent {
            while let Some(&(key, sc)) = self.d.up_pending.iter().next() {
                let rec = self.d.up_best[&sc];
                debug_assert_eq!(rec.key, key);
                if ctx.try_send(parent, Msg::Candidate { rec }).is_err() {
                    break;
                }
                self.d.up_pending.remove(&(key, sc));
                self.d.up_sent.insert(sc, key);
            }
        }

        // (e) Upcast completion / root-local merge. `UpDone` may fire in
        // the same round as the last candidate (it follows them in FIFO
        // order) and is deferred while the edge is full.
        let my_inject_done = !self.is_frag_root() || self.d.injected;
        if !self.done_seen
            && !self.d.updone_sent
            && my_inject_done
            && self.d.updone_children == self.bfs_children.len()
            && self.d.up_pending.is_empty()
        {
            if let Some(parent) = self.bfs_parent {
                if ctx.try_send(parent, Msg::UpDone).is_ok() {
                    self.d.updone_sent = true;
                }
            } else if self.root.as_ref().is_some_and(|r| r.reg_complete) {
                self.d.updone_sent = true;
                self.cd_root_merge(ctx);
            }
        }

        // (f) Downcast pipeline flush (also drains the answers the root
        // merge just queued, and keeps draining after `done`).
        for (queue, &port) in self.down.iter_mut().zip(&self.bfs_children) {
            while let Some(msg) = queue.pop_front() {
                if let Err(msg) = ctx.try_send(port, msg) {
                    queue.push_front(msg);
                    break;
                }
            }
        }

        // Quiesce only when everything queued has been flushed.
        if self.done_seen
            && self.d.up_pending.is_empty()
            && self.c.reg_queue.is_empty()
            && self.down.iter().all(|q| q.is_empty())
        {
            debug_assert!(self.cand_next.is_empty(), "buffered candidates past termination");
            if !self.finished {
                self.milestones.finished_at = ctx.round();
            }
            self.finished = true;
        }
    }

    /// Idle-skip hint for Stages C/D (the `NodeProgram::next_wake`
    /// contract): `Some(after + 1)` iff any `cd_act` step would fire next
    /// round without new messages, else `None` (purely message-driven).
    ///
    /// This mirrors `cd_act`'s guards one-for-one — keep the two in sync.
    /// Every mirrored step either makes monotone progress on a queue or
    /// latches a flag, so a `true` here never repeats forever. Budget-gated
    /// sends (`RoundCtx::try_send`) that defer leave their guard standing,
    /// which correctly re-arms the wake for the next round, when the edge's
    /// budget is fresh.
    pub(crate) fn cd_next_wake(&self, after: u64) -> Option<u64> {
        // Root-side registration-completion latch.
        let root_latch_pending = self.root.as_ref().is_some_and(|root| {
            !root.reg_complete
                && self.c.interval_received
                && root.reg_done_children == self.bfs_children.len()
        });
        // (a) announce the current phase.
        let announce_pending =
            !self.done_seen && !self.d.announced && self.coarse_ready == Some(self.d.phase);
        // (b) fragment-subtree aggregation completion.
        let aggregate_pending = self.d.announced
            && !self.d.responded
            && self.d.ann_recv == self.deg
            && self.d.frag_up_recv == self.frag_children.len();
        // (c) registration pipeline: queued slots, or a due `RegDone`.
        let register_pending = self.c.interval_received
            && !self.c.reg_done_sent
            && self.bfs_parent.is_some()
            && (!self.c.reg_queue.is_empty()
                || ((!self.is_frag_root() || self.c.registered)
                    && self.c.reg_done_children == self.bfs_children.len()));
        // (d) candidate pipeline flush.
        let upcast_pending = self.bfs_parent.is_some() && !self.d.up_pending.is_empty();
        // (e) `UpDone` / root-local merge. The BFS root also fires when the
        // latch above completes registration this coming round.
        let updone_pending = !self.done_seen
            && !self.d.updone_sent
            && (!self.is_frag_root() || self.d.injected)
            && self.d.updone_children == self.bfs_children.len()
            && self.d.up_pending.is_empty()
            && (self.bfs_parent.is_some()
                || root_latch_pending
                || self.root.as_ref().is_some_and(|r| r.reg_complete));
        // (f) downcast pipeline flush.
        let downcast_pending = self.down.iter().any(|q| !q.is_empty());
        // Final quiescence check (flips `finished`).
        let quiesce_pending = self.done_seen
            && !self.finished
            && self.d.up_pending.is_empty()
            && self.c.reg_queue.is_empty()
            && self.down.iter().all(|q| q.is_empty());

        (root_latch_pending
            || announce_pending
            || aggregate_pending
            || register_pending
            || upcast_pending
            || updone_pending
            || downcast_pending
            || quiesce_pending)
            .then_some(after + 1)
    }

    // ---- helpers ----

    /// Lightest incident edge leaving my *coarse* fragment.
    fn cd_local_candidate(&self) -> (Option<(CandKey, u64, u64)>, Sel) {
        let mut best: Option<(CandKey, u64, u64)> = None;
        let mut sel = Sel::None;
        for q in 0..self.deg {
            let nc = self.ports.nbr_coarse(q);
            if nc != self.coarse && nc != UNKNOWN {
                let key = CandKey::new(self.ports.weight(q), self.id, self.ports.nbr_id(q));
                if best.is_none_or(|(b, _, _)| key < b) {
                    best = Some((key, self.coarse, nc));
                    sel = Sel::Mine(q);
                }
            }
        }
        (best, sel)
    }

    /// Fragment root: turn the aggregate into a pipelined record.
    fn cd_inject(&mut self) {
        debug_assert!(!self.d.injected);
        self.d.injected = true;
        if let Some((key, sc, dc)) = self.d.agg {
            let rec = Candidate { key, src_coarse: sc, dst_coarse: dc, src_slot: self.slot };
            self.cd_offer(rec);
        }
    }

    /// Filtered insert into the upcast buffer (also the BFS root's
    /// collection): keep only improvements per source coarse id.
    fn cd_offer(&mut self, rec: Candidate) {
        let sc = rec.src_coarse;
        if self.d.up_sent.get(&sc).is_some_and(|s| *s <= rec.key) {
            return;
        }
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
    /// phase's start signal: every `Assign` carries phase `j + 1`, so a
    /// fragment re-announces the moment its answer lands — the
    /// `PhaseDone`/`StartPhase` barrier pair this replaces is gone. The
    /// pure computation lives in
    /// [`merge_fragment_graph`](crate::fraggraph::merge_fragment_graph).
    fn cd_root_merge(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let mut root = self.root.take().expect("only the BFS root merges");

        let coarse_ids: Vec<u64> = root.slot_coarse.values().copied().collect();
        let outcome = crate::fraggraph::merge_fragment_graph(&coarse_ids, &self.d.up_best);
        let done = outcome.done;
        let next = self.d.phase + 1;

        // Answer every base fragment with its new coarse id (+ next phase).
        let slots = root.slots.clone();
        for &slot in &slots {
            let old = root.slot_coarse[&slot];
            let nc = outcome.new_id[&old];
            root.slot_coarse.insert(slot, nc);
            let chosen = outcome.chosen_slots.contains(&slot);
            if slot == self.slot {
                self.root = Some(root);
                self.cd_consume_assign(ctx, nc, chosen, done, next);
                root = self.root.take().expect("restored above");
            } else {
                let idx = self.cd_route(slot);
                self.down[idx].push_back(Msg::Assign {
                    dest_slot: slot,
                    new_coarse: nc,
                    chosen,
                    done,
                    next,
                });
            }
        }
        self.root = Some(root);
    }

    /// Which BFS child's interval contains `dest`?
    fn cd_route(&self, dest: u64) -> usize {
        crate::intervals::route(&self.child_ivs, dest)
            .unwrap_or_else(|| panic!("slot {dest} not in any child interval of {}", self.id))
    }

    /// A base-fragment root received its phase answer: mark the chosen
    /// edge (before `NewCoarse`, so FIFO protects every hop's `Sel`),
    /// broadcast the new coarse id, and roll into phase `next` myself.
    fn cd_consume_assign(
        &mut self,
        ctx: &mut RoundCtx<'_, Msg>,
        nc: u64,
        chosen: bool,
        done: bool,
        next: u64,
    ) {
        debug_assert!(self.is_frag_root());
        if chosen {
            match self.d.sel {
                Sel::Mine(q) => {
                    self.ports.mark_mst(q);
                    ctx.send(q, Msg::MarkCross);
                }
                Sel::Child(c) => ctx.send(c, Msg::MarkPath),
                Sel::None => unreachable!("chosen candidate without a selection"),
            }
        }
        for &q in &self.frag_children {
            ctx.send(q, Msg::NewCoarse { id: nc, done, next });
        }
        self.cd_apply_new_coarse_local(nc, done, next);
    }

    fn cd_apply_new_coarse(&mut self, ctx: &mut RoundCtx<'_, Msg>, id: u64, done: bool, next: u64) {
        for &q in &self.frag_children {
            ctx.send(q, Msg::NewCoarse { id, done, next });
        }
        self.cd_apply_new_coarse_local(id, done, next);
    }

    /// The one phase-roll call site: adopt the new coarse id, roll the
    /// scratch, and latch global termination.
    fn cd_apply_new_coarse_local(&mut self, id: u64, done: bool, next: u64) {
        debug_assert_eq!(next, self.d.phase + 1, "answer path phase skew at vertex {}", self.id);
        self.coarse = id;
        self.coarse_ready = Some(next);
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
