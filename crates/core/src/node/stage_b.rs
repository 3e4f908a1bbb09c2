//! Stage B: Controlled-GHS on the fixed round schedule (paper §4).
//!
//! Each phase `i` (participation radius `p = 2^i`) runs the windows laid out
//! in [`Schedule`](crate::schedule::Schedule):
//!
//! 1. **Announce** — a vertex first retires every live port whose
//!    neighbor announced the id it announced itself: both ends held one
//!    fragment id at the last window, so the edge is internal for good
//!    and both ends retire it together. Then, only if its fragment id
//!    changed since its last announce, it sends the new id over its live
//!    ports. Stage A's wave already delivered every vertex id, which is a
//!    singleton's fragment id, so phase 0 sends nothing.
//! 2. **Probe** — fragment roots launch a depth-`p` budgeted
//!    broadcast/convergecast computing the fragment MWOE; subtrees deeper
//!    than the budget report *overflow*, excluding tall fragments
//!    (participation = height ≤ p, so every fragment of diameter ≤ p
//!    participates; see DESIGN.md).
//! 3. **Connect** — participating roots route `MwoePath` along the argmin
//!    path, and the MWOE endpoint fires `ConnectReq` across the edge,
//!    registering a *foreign child* on the other side. Mutual-MWOE pairs
//!    resolve parenthood by higher fragment id (paper §4).
//! 4. **Exchange × X** — Cole–Vishkin 3-coloring of the fragment forest:
//!    each exchange broadcasts the fragment color, crosses child MWOEs, and
//!    routes the parent color back to the child's root. A recoloring root
//!    excludes its own pre-shift color whether or not it has a foreign
//!    child, since no one reads a childless fragment's color. Only
//!    participating roots start an exchange, so the first `ColorDown` is
//!    also what tells the rest of the fragment that it participates; no
//!    vertex but the root reads that before the Collect windows.
//! 5. **Collect / Accept × 3** — maximal matching, one color class at a
//!    time: roots of class-`c` unmatched fragments pick their smallest
//!    unmatched foreign child and notify it. In the same window each
//!    accepting root tells its own forest parent, the only fragment whose
//!    choice its matched status can change: `StatusPath` down its MWOE
//!    argmin path, then `StatusCross` across the MWOE.
//! 6. **MergeGo / MergeFlood** — unmatched fragments merge along their
//!    MWOEs; the merged fragment's new root (higher-id endpoint of the
//!    matched pair, or the untouched root of a non-participating fragment)
//!    floods `NewFrag`, re-orienting parent pointers and installing the new
//!    fragment id. Every edge that joins two fragments is marked MST at
//!    both endpoints the moment it is used.

use std::sync::OnceLock;

use congest_sim::{PortId, RoundCtx};

use crate::candidate::CandKey;
use crate::cv;
use crate::msg::Msg;
use crate::schedule::{ExchangeKind, Schedule, Slot, Window};

use super::{lane, BScratch, ElkinNode, Sel, Stage};

impl ElkinNode {
    pub(crate) fn b_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                Msg::FragAnnounce { frag } => {
                    assert!(!self.ports.retired(port), "FragAnnounce over a retired port");
                    self.ports.set_nbr_frag(port, frag);
                }
                Msg::Probe { ttl } => self.b_probe_receive(ctx, port, ttl),
                Msg::MwoeUp { cand, overflow } => {
                    self.b.overflow |= overflow;
                    if let Some(k) = cand {
                        if self.b.agg.is_none_or(|a| k < a) {
                            self.b.agg = Some(k);
                            self.b.sel = Sel::Child(port);
                        }
                    }
                    self.b.probe_pending -= 1;
                    if self.b.probe_pending == 0 {
                        self.b_probe_complete(ctx);
                    }
                }
                Msg::MwoePath => self.b_mwoe_path(ctx),
                Msg::ConnectReq => {
                    self.b.foreign_child[port] = Some((self.ports.nbr_frag(port), false));
                }
                Msg::ColorDown { color } => {
                    self.b.participating = true;
                    self.b.color = color;
                    for &p in &self.frag_children {
                        ctx.send(p, Msg::ColorDown { color });
                    }
                    self.b_cross_color(ctx, color);
                }
                Msg::ColorCross { color } => {
                    if Some(port) == self.b.out_port {
                        self.b_color_up(ctx, color);
                    }
                }
                Msg::ColorUp { color } => self.b_color_up(ctx, color),
                Msg::UnmatchedUp { child } => {
                    if let Some(c) = child {
                        if self.b.col_agg.is_none_or(|a| c < a) {
                            self.b.col_agg = Some(c);
                            self.b.col_sel = Sel::Child(port);
                        }
                    }
                    self.b.col_pending -= 1;
                    if self.b.col_pending == 0 {
                        self.b_collect_complete(ctx);
                    }
                }
                Msg::AcceptPath => self.b_accept_path(ctx),
                Msg::AcceptCross => {
                    self.b.matched_port = Some(port);
                    self.ports.mark_mst(port);
                    self.b_matched_up(ctx, self.ports.nbr_frag(port));
                }
                Msg::MatchedUp { partner } => self.b_matched_up(ctx, partner),
                Msg::StatusPath => self.b_status_path(ctx),
                Msg::StatusCross => {
                    let child = self.b.foreign_child[port].as_mut();
                    child.expect("a status notice comes from a registered foreign child").1 = true;
                }
                Msg::MergePath => self.b_merge_path(ctx),
                Msg::MergeCross => {
                    self.ports.mark_mst(port);
                    self.b.merge_ports.push(port);
                }
                Msg::NewFrag { id } => self.b_flood_receive(ctx, port, id),
                ref other => unreachable!("stage B received {other:?}"),
            }
        }
    }

    /// Runs the scheduled actions of this round, from the round Stage B
    /// begins (`t0`) until its schedule ends, where the vertex enters
    /// Stage D (at once when `k = 1` leaves zero phases).
    pub(crate) fn b_act(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        // Moved out and back rather than cloned: no refcount traffic.
        let cell = self.sched.take().expect("schedule adopted before stage B");
        let sched = cell.get().expect("adoption fills the cell");
        match sched.locate(ctx.round()) {
            Some(slot) => self.b_dispatch(ctx, sched, slot),
            None => {
                self.stage = Stage::CD;
                self.cd_enter();
            }
        }
        self.sched = Some(cell);
    }

    /// Idle-skip hint for Stage B (the `NodeProgram::next_wake` contract):
    /// the next round at which `b_act` does anything with an empty inbox.
    /// `b_dispatch` only acts at window boundaries (`offset == 0` or
    /// `slot.last`) and at the Stage D transition, so those are the only
    /// rounds worth waking for; everything in between is message-driven
    /// (`b_handle`).
    pub(crate) fn b_next_wake(&self, after: u64) -> Option<u64> {
        self.sched.as_deref().and_then(OnceLock::get).map(|s| s.next_boundary(after))
    }

    /// Executes one scheduled round: the window actions of `slot`.
    fn b_dispatch(&mut self, ctx: &mut RoundCtx<'_, Msg>, sched: &Schedule, slot: Slot) {
        let p = sched.radius(slot.phase);

        match slot.window {
            Window::Announce => {
                debug_assert!(slot.offset == 0);
                self.b = BScratch {
                    foreign_child: vec![None; self.deg],
                    color: self.frag_id,
                    prev_color: self.frag_id,
                    ..BScratch::default()
                };
                self.retire_internal(lane::NBR_FRAG, self.known_frag);
                if self.frag_id != self.known_frag {
                    self.known_frag = self.frag_id;
                    let frag = self.frag_id;
                    for q in self.live_ports() {
                        ctx.send(q, Msg::FragAnnounce { frag });
                    }
                }
            }
            Window::Probe => {
                if slot.offset == 0 && self.is_frag_root() {
                    self.b_probe_start(ctx, p);
                }
            }
            Window::Connect => {
                if slot.offset == 0
                    && self.is_frag_root()
                    && self.b.probed
                    && self.b.probe_pending == 0
                    && !self.b.overflow
                {
                    // The rest of the fragment learns it participates from
                    // the first exchange's `ColorDown`.
                    self.b.participating = true;
                    // No outgoing edge: the whole graph is one fragment.
                    if self.b.sel != Sel::None {
                        self.b_mwoe_path(ctx);
                    }
                }
                if slot.last {
                    // Mutual-MWOE resolution: if the neighbor fragment on my
                    // own out-edge has the higher id, it is my parent, not my
                    // child.
                    if let Some(q) = self.b.out_port {
                        if self.b.foreign_child[q].is_some()
                            && self.ports.nbr_frag(q) > self.frag_id
                        {
                            self.b.foreign_child[q] = None;
                        }
                    }
                }
            }
            Window::Exchange(x) => {
                if slot.offset == 0 && self.b.participating && self.is_frag_root() {
                    let color = self.b.color;
                    for &q in &self.frag_children {
                        ctx.send(q, Msg::ColorDown { color });
                    }
                    self.b_cross_color(ctx, color);
                }
                if slot.last && self.b.participating && self.is_frag_root() {
                    self.b_exchange_eval(sched.exchange_kind(x));
                }
            }
            Window::MatchCollect(_) => {
                if slot.offset == 0 && self.b.participating {
                    self.b.col_agg = None;
                    self.b.col_sel = Sel::None;
                    if let Some(q) = self.b_local_unmatched_child() {
                        self.b.col_agg = Some(self.b.foreign_child[q].expect("just found").0);
                        self.b.col_sel = Sel::Mine(q);
                    }
                    self.b.col_pending = self.frag_children.len();
                    if self.b.col_pending == 0 {
                        self.b_collect_complete(ctx);
                    }
                }
            }
            Window::MatchAccept(c) => {
                if slot.offset == 0
                    && self.b.participating
                    && self.is_frag_root()
                    && self.b.color == u64::from(c)
                    && !self.b.matched
                {
                    if let Some(child) = self.b.col_agg {
                        self.b.matched = true;
                        self.b.partner = Some(child);
                        self.b_accept_path(ctx);
                        self.b_status_path(ctx);
                    }
                }
            }
            Window::MergeGo => {
                if slot.offset == 0
                    && self.b.participating
                    && self.is_frag_root()
                    && !self.b.matched
                    && self.b.sel != Sel::None
                {
                    self.b_merge_path(ctx);
                }
            }
            Window::MergeFlood => {
                if slot.offset == 0 {
                    // Higher-id root of the matched pair floods.
                    let initiator = self.b.participating
                        && self.is_frag_root()
                        && self.b.matched
                        && self.b.partner.is_some_and(|pid| pid < self.frag_id);
                    if initiator {
                        self.b_flood_init(ctx);
                    } else if !self.b.participating {
                        // Big-fragment attachment points adopt the pendants
                        // without re-flooding their own fragment.
                        let id = self.frag_id;
                        for q in std::mem::take(&mut self.b.merge_ports) {
                            ctx.send(q, Msg::NewFrag { id });
                            if !self.frag_children.contains(&q) {
                                self.frag_children.push(q);
                            }
                        }
                    }
                }
            }
        }
    }

    // ---- probe / MWOE ----

    /// Lightest incident edge leaving my fragment. A retired port's
    /// `nbr_frag` is stale, but its edge is internal anyway.
    fn b_local_candidate(&self) -> (Option<CandKey>, Sel) {
        let mut best: Option<CandKey> = None;
        let mut sel = Sel::None;
        for q in self.live_ports() {
            if self.ports.nbr_frag(q) != self.frag_id {
                let k = CandKey::new(self.ports.weight(q), self.id, self.ports.nbr_id(q));
                if best.is_none_or(|b| k < b) {
                    best = Some(k);
                    sel = Sel::Mine(q);
                }
            }
        }
        (best, sel)
    }

    fn b_probe_start(&mut self, ctx: &mut RoundCtx<'_, Msg>, p: u64) {
        self.b.probed = true;
        let (best, sel) = self.b_local_candidate();
        self.b.agg = best;
        self.b.sel = sel;
        self.b.probe_pending = self.frag_children.len();
        if self.b.probe_pending == 0 {
            return; // complete: singleton or leaf-root
        }
        let ttl = (p - 1) as u32;
        for &q in &self.frag_children {
            ctx.send(q, Msg::Probe { ttl });
        }
    }

    fn b_probe_receive(&mut self, ctx: &mut RoundCtx<'_, Msg>, port: PortId, ttl: u32) {
        debug_assert!(!self.b.probed, "duplicate probe within a phase");
        debug_assert_eq!(Some(port), self.frag_parent);
        self.b.probed = true;
        let (best, sel) = self.b_local_candidate();
        self.b.agg = best;
        self.b.sel = sel;
        if self.frag_children.is_empty() {
            ctx.send(port, Msg::MwoeUp { cand: self.b.agg, overflow: false });
            self.b.responded = true;
        } else if ttl == 0 {
            // Fragment extends beyond the participation radius.
            ctx.send(port, Msg::MwoeUp { cand: self.b.agg, overflow: true });
            self.b.responded = true;
        } else {
            self.b.probe_pending = self.frag_children.len();
            for &q in &self.frag_children {
                ctx.send(q, Msg::Probe { ttl: ttl - 1 });
            }
        }
    }

    fn b_probe_complete(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        if self.is_frag_root() || self.b.responded {
            return;
        }
        self.b.responded = true;
        let up = self.frag_parent.expect("non-root has a fragment parent");
        ctx.send(up, Msg::MwoeUp { cand: self.b.agg, overflow: self.b.overflow });
    }

    /// One hop down the MWOE argmin path; its endpoint fires `ConnectReq`.
    fn b_mwoe_path(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        match self.b.sel {
            Sel::Mine(q) => {
                self.b.out_port = Some(q);
                ctx.send(q, Msg::ConnectReq);
            }
            Sel::Child(c) => ctx.send(c, Msg::MwoePath),
            Sel::None => unreachable!("MwoePath reached a subtree without a candidate"),
        }
    }

    // ---- Cole–Vishkin exchanges ----

    /// Forward my fragment's color over every cross edge on which a foreign
    /// child registered.
    fn b_cross_color(&mut self, ctx: &mut RoundCtx<'_, Msg>, color: u64) {
        for q in 0..self.deg {
            if self.b.foreign_child[q].is_some() {
                ctx.send(q, Msg::ColorCross { color });
            }
        }
    }

    /// Carries the parent fragment's color up to the fragment root.
    fn b_color_up(&mut self, ctx: &mut RoundCtx<'_, Msg>, color: u64) {
        if self.is_frag_root() {
            self.b.parent_color = Some(color);
        } else {
            let up = self.frag_parent.expect("non-root has a fragment parent");
            ctx.send(up, Msg::ColorUp { color });
        }
    }

    fn b_exchange_eval(&mut self, kind: ExchangeKind) {
        let parent = self.b.parent_color.take();
        match kind {
            ExchangeKind::Ladder => {
                self.b.color = match parent {
                    Some(pc) => cv::cv_step(self.b.color, pc),
                    None => cv::cv_step_root(self.b.color),
                };
            }
            ExchangeKind::ShiftDown(_) => {
                self.b.prev_color = self.b.color;
                self.b.color = match parent {
                    Some(pc) => cv::shift_down(pc),
                    None => cv::shift_down_root(self.b.color),
                };
            }
            ExchangeKind::Recolor(class) => {
                if self.b.color == class {
                    self.b.color = cv::recolor(parent, self.b.prev_color);
                }
            }
        }
    }

    // ---- matching ----

    /// My smallest unmatched registered foreign child, by fragment id.
    fn b_local_unmatched_child(&self) -> Option<PortId> {
        let mut best: Option<(u64, PortId)> = None;
        for q in 0..self.deg {
            if let Some((id, matched)) = self.b.foreign_child[q] {
                if !matched && best.is_none_or(|(b, _)| id < b) {
                    best = Some((id, q));
                }
            }
        }
        best.map(|(_, q)| q)
    }

    fn b_collect_complete(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        if self.is_frag_root() {
            return; // aggregate stays local; used in the Accept window
        }
        let up = self.frag_parent.expect("non-root has a fragment parent");
        ctx.send(up, Msg::UnmatchedUp { child: self.b.col_agg });
    }

    /// One hop down the collect's argmin path; its endpoint accepts the
    /// chosen child across their cross edge, which joins the MST.
    fn b_accept_path(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        match self.b.col_sel {
            Sel::Mine(q) => {
                self.b.matched_port = Some(q);
                self.ports.mark_mst(q);
                ctx.send(q, Msg::AcceptCross);
            }
            Sel::Child(c) => ctx.send(c, Msg::AcceptPath),
            Sel::None => unreachable!("AcceptPath reached a subtree without a candidate"),
        }
    }

    /// Carries a match up to the fragment root, which records its partner:
    /// the forest parent that picked the fragment.
    fn b_matched_up(&mut self, ctx: &mut RoundCtx<'_, Msg>, partner: u64) {
        if self.is_frag_root() {
            self.b.matched = true;
            self.b.partner = Some(partner);
        } else {
            let up = self.frag_parent.expect("non-root has a fragment parent");
            ctx.send(up, Msg::MatchedUp { partner });
        }
    }

    /// One hop of the accepting root's notice to its own forest parent,
    /// the only fragment whose choice its matched status can change: down
    /// the MWOE argmin path, then across the MWOE. A fragment that its
    /// parent matched tells no one: only that parent could pick it.
    fn b_status_path(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        match self.b.sel {
            // The fragment behind the MWOE is my foreign child: I am the
            // higher side of a mutual MWOE and have no forest parent.
            Sel::Mine(q) if self.b.foreign_child[q].is_some() => {}
            Sel::Mine(q) => ctx.send(q, Msg::StatusCross),
            Sel::Child(c) => ctx.send(c, Msg::StatusPath),
            Sel::None => unreachable!("a fragment with a foreign child has an MWOE"),
        }
    }

    // ---- merge flood ----

    /// One hop down the MWOE argmin path of a merging fragment; its
    /// endpoint marks the MWOE and crosses it.
    fn b_merge_path(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        match self.b.sel {
            Sel::Mine(q) => {
                self.ports.mark_mst(q);
                ctx.send(q, Msg::MergeCross);
            }
            Sel::Child(c) => ctx.send(c, Msg::MergePath),
            Sel::None => unreachable!("MergePath reached a subtree without a candidate"),
        }
    }

    fn b_flood_init(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        self.b.flooded = true;
        // The new root keeps its children and adopts every merge edge.
        for &q in self.b.merge_ports.iter().chain(&self.b.matched_port) {
            if !self.frag_children.contains(&q) {
                self.frag_children.push(q);
            }
        }
        self.frag_parent = None;
        let id = self.frag_id;
        for &q in &self.frag_children {
            ctx.send(q, Msg::NewFrag { id });
        }
    }

    fn b_flood_receive(&mut self, ctx: &mut RoundCtx<'_, Msg>, port: PortId, id: u64) {
        debug_assert!(self.b.participating, "flood entered a non-participating fragment");
        if self.b.flooded {
            // Duplicate floods cannot occur (the merge structure is a
            // forest); never re-flood if one does.
            debug_assert!(false, "duplicate NewFrag at vertex {}", self.id);
            return;
        }
        self.b.flooded = true;
        // Re-orientation: every tree or merge edge except the one the
        // flood arrived on now leads to a child.
        let mut fwd: Vec<PortId> = Vec::new();
        let tree = self.frag_parent.iter().chain(&self.frag_children);
        for &q in tree.chain(&self.b.merge_ports).chain(&self.b.matched_port) {
            if q != port && !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        self.frag_id = id;
        self.frag_parent = Some(port);
        self.frag_children = fwd;
        for &q in &self.frag_children {
            ctx.send(q, Msg::NewFrag { id });
        }
    }
}
