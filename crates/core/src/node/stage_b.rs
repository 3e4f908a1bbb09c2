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
//! 3. **Connect** — participating roots walk to the MWOE, which the walk
//!    crosses to register a *foreign child* on the other side. Mutual-MWOE
//!    pairs resolve parenthood by higher fragment id (paper §4).
//! 4. **Exchange × X** — Cole–Vishkin 3-coloring of the fragment forest:
//!    each exchange broadcasts the fragment color, which crosses child
//!    MWOEs and climbs to the child's root as `ColorUp`. A recoloring root
//!    excludes its own pre-shift color whether or not it has a foreign
//!    child, since no one reads a childless fragment's color. Only
//!    participating roots start an exchange, so the first `ColorDown` is
//!    also what tells the rest of the fragment that it participates; no
//!    vertex but the root reads that before the Collect windows.
//! 5. **Collect / Accept × 3** — maximal matching, one color class at a
//!    time: roots of class-`c` unmatched fragments pick their smallest
//!    unmatched foreign child and walk to it. In the same window each
//!    accepting root walks to its MWOE to tell its own forest parent, the
//!    only fragment whose choice its matched status can change.
//! 6. **MergeGo / MergeFlood** — unmatched fragments walk to their MWOEs
//!    and merge across them; the merged fragment's new root (higher-id
//!    endpoint of the matched pair, or the untouched root of a
//!    non-participating fragment) floods `NewFrag`, re-orienting parent
//!    pointers and installing the new fragment id. Every edge that joins
//!    two fragments is marked MST at both endpoints the moment it is used.
//!
//! Each walk is one [`Walk`] kind of [`ElkinNode::walk`], down the
//! selections that the Probe or Collect convergecast's [`Argmin`] left.

use std::sync::OnceLock;

use congest_sim::{PortId, RoundCtx};

use crate::candidate::CandKey;
use crate::cv;
use crate::msg::{Msg, Walk};
use crate::schedule::{ExchangeKind, Schedule, Slot, Window};

use super::{lane, Argmin, BScratch, ElkinNode, Sel, Stage};

impl ElkinNode {
    pub(crate) fn b_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                Msg::FragAnnounce { frag } => {
                    assert!(!self.ports.retired(port), "FragAnnounce over a retired port");
                    self.ports.set_nbr_frag(port, frag);
                }
                Msg::Probe { ttl } => {
                    debug_assert_eq!(Some(port), self.frag_parent);
                    self.b_probe(ctx, ttl);
                }
                Msg::MwoeUp { cand, overflow } => {
                    self.b.overflow |= overflow;
                    if let Some(k) = cand {
                        self.b.mwoe.offer(k, Sel::Child(port));
                    }
                    self.b.probe_pending -= 1;
                    if self.b.probe_pending == 0 {
                        self.b_probe_complete(ctx);
                    }
                }
                Msg::ColorDown { color } => {
                    self.b.participating = true;
                    self.b.color = color;
                    self.b_color_down(ctx, color);
                }
                Msg::ColorUp { color } => {
                    // The parent's color crosses to the port my
                    // `Cross(Connect)` left by, then climbs child to parent.
                    debug_assert!(
                        Some(port) == self.b.out_port || self.frag_children.contains(&port),
                        "ColorUp from neither my MWOE nor a fragment child"
                    );
                    self.b_color_up(ctx, color);
                }
                Msg::UnmatchedUp { child } => {
                    if let Some(c) = child {
                        self.b.unmatched.offer(c, Sel::Child(port));
                    }
                    self.b.col_pending -= 1;
                    if self.b.col_pending == 0 {
                        self.b_collect_complete(ctx);
                    }
                }
                Msg::MatchedUp { partner } => self.b_matched_up(ctx, partner),
                Msg::Path(kind @ (Walk::Connect | Walk::Accept | Walk::Status | Walk::Merge)) => {
                    self.walk(ctx, kind);
                }
                Msg::Cross(Walk::Connect) => {
                    self.b.foreign_child[port] = Some((self.ports.nbr_frag(port), false));
                }
                Msg::Cross(Walk::Accept) => {
                    self.b.matched_port = Some(port);
                    self.ports.mark_mst(port);
                    self.b_matched_up(ctx, self.ports.nbr_frag(port));
                }
                Msg::Cross(Walk::Status) => {
                    let child = self.b.foreign_child[port].as_mut();
                    child.expect("a status notice comes from a registered foreign child").1 = true;
                }
                Msg::Cross(Walk::Merge) => {
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
                    self.b_probe(ctx, p as u32);
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
                    if self.b.mwoe.sel != Sel::None {
                        self.walk(ctx, Walk::Connect);
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
                    self.b_color_down(ctx, self.b.color);
                }
                if slot.last && self.b.participating && self.is_frag_root() {
                    self.b_exchange_eval(sched.exchange_kind(x));
                }
            }
            Window::MatchCollect(_) => {
                if slot.offset == 0 && self.b.participating {
                    self.b.unmatched = Argmin::default();
                    for (q, child) in self.b.foreign_child.iter().enumerate() {
                        if let Some((id, false)) = *child {
                            self.b.unmatched.offer(id, Sel::Mine(q));
                        }
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
                    && self.b.partner.is_none()
                {
                    if let Some(child) = self.b.unmatched.best {
                        self.b.partner = Some(child);
                        self.walk(ctx, Walk::Accept);
                        self.walk(ctx, Walk::Status);
                    }
                }
            }
            Window::MergeGo => {
                if slot.offset == 0
                    && self.b.participating
                    && self.is_frag_root()
                    && self.b.partner.is_none()
                    && self.b.mwoe.sel != Sel::None
                {
                    self.walk(ctx, Walk::Merge);
                }
            }
            Window::MergeFlood => {
                if slot.offset == 0 {
                    // Higher-id root of the matched pair floods.
                    let initiator = self.b.participating
                        && self.is_frag_root()
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

    /// Probes my fragment subtree `ttl` hops deeper: seeds the MWOE
    /// convergecast with my lightest incident edge leaving the fragment (a
    /// retired port's `nbr_frag` is stale, but its edge is internal
    /// anyway), then passes the probe on, or reports at once as a leaf or
    /// where the budget runs out.
    fn b_probe(&mut self, ctx: &mut RoundCtx<'_, Msg>, ttl: u32) {
        debug_assert!(!self.b.probed, "duplicate probe within a phase");
        self.b.probed = true;
        let mut mwoe = Argmin::default();
        for q in self.live_ports() {
            if self.ports.nbr_frag(q) != self.frag_id {
                let k = CandKey::new(self.ports.weight(q), self.id, self.ports.nbr_id(q));
                mwoe.offer(k, Sel::Mine(q));
            }
        }
        self.b.mwoe = mwoe;
        if self.frag_children.is_empty() || ttl == 0 {
            // Children below an exhausted budget: the fragment extends
            // beyond the participation radius.
            self.b.overflow = !self.frag_children.is_empty();
            self.b_probe_complete(ctx);
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
        ctx.send(up, Msg::MwoeUp { cand: self.b.mwoe.best, overflow: self.b.overflow });
    }

    // ---- Cole–Vishkin exchanges ----

    /// Passes my fragment's color down the fragment tree and over every
    /// cross edge on which a foreign child registered, whose endpoint
    /// routes it up to the child's root.
    fn b_color_down(&self, ctx: &mut RoundCtx<'_, Msg>, color: u64) {
        for &q in &self.frag_children {
            ctx.send(q, Msg::ColorDown { color });
        }
        for (q, child) in self.b.foreign_child.iter().enumerate() {
            if child.is_some() {
                ctx.send(q, Msg::ColorUp { color });
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

    fn b_collect_complete(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        if self.is_frag_root() {
            return; // aggregate stays local; used in the Accept window
        }
        let up = self.frag_parent.expect("non-root has a fragment parent");
        ctx.send(up, Msg::UnmatchedUp { child: self.b.unmatched.best });
    }

    /// Carries a match up to the fragment root, which records its partner:
    /// the forest parent that picked the fragment.
    fn b_matched_up(&mut self, ctx: &mut RoundCtx<'_, Msg>, partner: u64) {
        if self.is_frag_root() {
            self.b.partner = Some(partner);
        } else {
            let up = self.frag_parent.expect("non-root has a fragment parent");
            ctx.send(up, Msg::MatchedUp { partner });
        }
    }

    // ---- merge flood ----

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
