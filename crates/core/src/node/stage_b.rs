//! Stage B: Controlled-GHS on the fixed round schedule (paper §4).
//!
//! Each phase `i` (participation radius `p = 2^i`) runs the windows laid out
//! in [`Schedule`](crate::schedule::Schedule):
//!
//! 1. **Announce** — every vertex refreshes `(fragment id, own id)` to all
//!    neighbors.
//! 2. **Probe** — fragment roots launch a depth-`p` budgeted
//!    broadcast/convergecast computing the fragment MWOE; subtrees deeper
//!    than the budget report *overflow*, excluding tall fragments
//!    (participation = height ≤ p, so every fragment of diameter ≤ p
//!    participates; see DESIGN.md).
//! 3. **Connect** — participating roots flood `Participate`, route
//!    `MwoePath` along the argmin path, and the MWOE endpoint fires
//!    `ConnectReq` across the edge, registering a *foreign child* on the
//!    other side. Mutual-MWOE pairs resolve parenthood by higher fragment
//!    id (paper §4).
//! 4. **Kids** — convergecast: does this fragment have any foreign child?
//!    (needed by the Cole–Vishkin recolor step).
//! 5. **Exchange × X** — Cole–Vishkin 3-coloring of the fragment forest:
//!    each exchange broadcasts the fragment color, crosses child MWOEs, and
//!    routes the parent color back to the child's root.
//! 6. **Collect / Accept / Status × 3** — maximal matching, one color class
//!    at a time: roots of class-`c` unmatched fragments pick their smallest
//!    unmatched foreign child and notify it; new statuses propagate.
//! 7. **MergeGo / MergeFlood** — unmatched fragments merge along their
//!    MWOEs; the merged fragment's new root (higher-id endpoint of the
//!    matched pair, or the untouched root of a non-participating fragment)
//!    floods `NewFrag`, re-orienting parent pointers and installing the new
//!    fragment id. Every edge that joins two fragments is marked MST at
//!    both endpoints the moment it is used.

use congest_sim::{PortId, RoundCtx};

use crate::candidate::CandKey;
use crate::cv;
use crate::msg::Msg;
use crate::schedule::{ExchangeKind, MergeControl, Schedule, Slot, Window};

use super::{BScratch, ElkinNode, Sel, Stage};

impl ElkinNode {
    pub(crate) fn b_handle(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        for &(port, ref msg) in ctx.inbox() {
            match *msg {
                Msg::FragAnnounce { frag, me } => {
                    self.ports.set_nbr_frag(port, frag);
                    self.ports.set_nbr_id(port, me);
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
                Msg::Participate => {
                    if !self.b.participating {
                        self.b.participating = true;
                        for &p in &self.frag_children.clone() {
                            ctx.send(p, Msg::Participate);
                        }
                    }
                }
                Msg::MwoePath => match self.b.sel {
                    Sel::Mine(q) => {
                        self.b.out_port = Some(q);
                        ctx.send(q, Msg::ConnectReq { child_frag: self.frag_id });
                    }
                    Sel::Child(c) => ctx.send(c, Msg::MwoePath),
                    Sel::None => unreachable!("MwoePath reached a subtree without a candidate"),
                },
                Msg::ConnectReq { child_frag } => {
                    self.b.foreign_child[port] = Some((child_frag, false));
                }
                Msg::KidsUp { has } => {
                    self.b.kids_agg |= has;
                    self.b.kids_pending -= 1;
                    if self.b.kids_pending == 0 {
                        self.b_kids_complete(ctx);
                    }
                }
                Msg::ColorDown { color } => {
                    self.b.color = color;
                    for &p in &self.frag_children.clone() {
                        ctx.send(p, Msg::ColorDown { color });
                    }
                    self.b_cross_color(ctx, color);
                }
                Msg::ColorCross { color } => {
                    if Some(port) == self.b.out_port {
                        if self.is_frag_root() {
                            self.b.parent_color = Some(color);
                        } else {
                            let up = self.frag_parent.expect("non-root has a fragment parent");
                            ctx.send(up, Msg::ColorUp { color });
                        }
                    }
                }
                Msg::ColorUp { color } => {
                    if self.is_frag_root() {
                        self.b.parent_color = Some(color);
                    } else {
                        let up = self.frag_parent.expect("non-root has a fragment parent");
                        ctx.send(up, Msg::ColorUp { color });
                    }
                }
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
                Msg::AcceptPath => match self.b.col_sel {
                    Sel::Mine(q) => {
                        self.b.matched_port = Some(q);
                        self.ports.mark_mst(q);
                        ctx.send(q, Msg::AcceptCross { parent_frag: self.frag_id });
                    }
                    Sel::Child(c) => ctx.send(c, Msg::AcceptPath),
                    Sel::None => unreachable!("AcceptPath reached a subtree without a candidate"),
                },
                Msg::AcceptCross { parent_frag } => {
                    self.b.matched_port = Some(port);
                    self.ports.mark_mst(port);
                    if self.is_frag_root() {
                        self.b.matched = true;
                        self.b.newly_matched = true;
                        self.b.partner = Some(parent_frag);
                    } else {
                        let up = self.frag_parent.expect("non-root has a fragment parent");
                        ctx.send(up, Msg::MatchedUp { partner: parent_frag });
                    }
                }
                Msg::MatchedUp { partner } => {
                    if self.is_frag_root() {
                        // In matched mode: our fragment was picked by its
                        // forest parent. In uncontrolled mode: our MWOE is
                        // mutual; `partner` decides who initiates the flood.
                        self.b.matched = true;
                        self.b.newly_matched = true;
                        self.b.partner = Some(partner);
                    } else {
                        let up = self.frag_parent.expect("non-root has a fragment parent");
                        ctx.send(up, Msg::MatchedUp { partner });
                    }
                }
                Msg::StatusDown => {
                    for &p in &self.frag_children.clone() {
                        ctx.send(p, Msg::StatusDown);
                    }
                    self.b_status_duties(ctx);
                }
                Msg::StatusCross => {
                    if let Some((_, matched)) = &mut self.b.foreign_child[port] {
                        *matched = true;
                    }
                }
                Msg::MergePath => match self.b.sel {
                    Sel::Mine(q) => {
                        self.ports.mark_mst(q);
                        ctx.send(q, Msg::MergeCross);
                    }
                    Sel::Child(c) => ctx.send(c, Msg::MergePath),
                    Sel::None => unreachable!("MergePath reached a subtree without a candidate"),
                },
                Msg::MergeCross => {
                    self.ports.mark_mst(port);
                    self.b.merge_ports.push(port);
                    if self.cfg.merge_control == MergeControl::Uncontrolled
                        && Some(port) == self.b.out_port
                    {
                        // Mutual MWOE: tell the root so the higher-id side
                        // can initiate the flood.
                        let partner = self.ports.nbr_frag(port);
                        if self.is_frag_root() {
                            self.b.partner = Some(partner);
                        } else {
                            let up = self.frag_parent.expect("non-root has a fragment parent");
                            ctx.send(up, Msg::MatchedUp { partner });
                        }
                    }
                }
                Msg::NewFrag { id } => self.b_flood_receive(ctx, port, id),
                ref other => unreachable!("stage B received {other:?}"),
            }
        }
    }

    /// Runs the scheduled actions of this round, from the round Stage B
    /// begins (`t0`) until its schedule ends, where the vertex enters
    /// Stage C (at once when `k = 1` leaves zero phases).
    pub(crate) fn b_act(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let sched = self.sched.take().expect("schedule set in stage B");
        match sched.locate(ctx.round()) {
            Some(slot) => self.b_dispatch(ctx, &sched, slot),
            None => {
                self.stage = Stage::CD;
                self.cd_enter(ctx);
            }
        }
        self.sched = Some(sched);
    }

    /// Idle-skip hint for Stage B (the `NodeProgram::next_wake` contract):
    /// the next round at which `b_act` does anything with an empty inbox.
    /// `b_dispatch` only acts at window boundaries (`offset == 0` or
    /// `slot.last`) and at the Stage C transition, so those are the only
    /// rounds worth waking for; everything in between is message-driven
    /// (`b_handle`).
    pub(crate) fn b_next_wake(&self, after: u64) -> Option<u64> {
        self.sched.as_ref().map(|s| s.next_boundary(after))
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
                for q in 0..self.deg {
                    ctx.send(q, Msg::FragAnnounce { frag: self.frag_id, me: self.id });
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
                    self.b.participating = true;
                    for &q in &self.frag_children.clone() {
                        ctx.send(q, Msg::Participate);
                    }
                    match self.b.sel {
                        Sel::Mine(q) => {
                            self.b.out_port = Some(q);
                            ctx.send(q, Msg::ConnectReq { child_frag: self.frag_id });
                        }
                        Sel::Child(c) => ctx.send(c, Msg::MwoePath),
                        Sel::None => {} // no outgoing edge: whole graph is one fragment
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
            Window::Kids => {
                if slot.offset == 0 && self.b.participating {
                    self.b.kids_pending = self.frag_children.len();
                    if self.b.kids_pending == 0 {
                        self.b_kids_complete(ctx);
                    }
                }
            }
            Window::Exchange(x) => {
                if slot.offset == 0 && self.b.participating && self.is_frag_root() {
                    let color = self.b.color;
                    for &q in &self.frag_children.clone() {
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
                        self.b.newly_matched = true;
                        self.b.partner = Some(child);
                        match self.b.col_sel {
                            Sel::Mine(q) => {
                                self.b.matched_port = Some(q);
                                self.ports.mark_mst(q);
                                ctx.send(q, Msg::AcceptCross { parent_frag: self.frag_id });
                            }
                            Sel::Child(ch) => ctx.send(ch, Msg::AcceptPath),
                            Sel::None => unreachable!("col_agg implies a selection"),
                        }
                    }
                }
            }
            Window::MatchStatus(_) => {
                if slot.offset == 0
                    && self.b.participating
                    && self.is_frag_root()
                    && self.b.newly_matched
                {
                    self.b.newly_matched = false;
                    for &q in &self.frag_children.clone() {
                        ctx.send(q, Msg::StatusDown);
                    }
                    self.b_status_duties(ctx);
                }
            }
            Window::MergeGo => {
                let fire = match self.cfg.merge_control {
                    MergeControl::Matched => !self.b.matched,
                    MergeControl::Uncontrolled => true,
                };
                if slot.offset == 0
                    && self.b.participating
                    && self.is_frag_root()
                    && fire
                    && self.b.sel != Sel::None
                {
                    match self.b.sel {
                        Sel::Mine(q) => {
                            self.ports.mark_mst(q);
                            ctx.send(q, Msg::MergeCross);
                        }
                        Sel::Child(c) => ctx.send(c, Msg::MergePath),
                        Sel::None => unreachable!("guarded above"),
                    }
                }
            }
            Window::MergeFlood => {
                if slot.offset == 0 {
                    let initiator = match self.cfg.merge_control {
                        // Higher-id root of the matched pair floods.
                        MergeControl::Matched => {
                            self.b.participating
                                && self.is_frag_root()
                                && self.b.matched
                                && self.b.partner.is_some_and(|pid| pid < self.frag_id)
                        }
                        // Higher-id side of the (unique) mutual MWOE floods.
                        MergeControl::Uncontrolled => {
                            self.b.participating
                                && self.is_frag_root()
                                && self.b.partner.is_some_and(|pid| pid < self.frag_id)
                        }
                    };
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

    fn b_local_candidate(&self) -> (Option<CandKey>, Sel) {
        let mut best: Option<CandKey> = None;
        let mut sel = Sel::None;
        for q in 0..self.deg {
            if self.ports.nbr_frag(q) != self.frag_id && self.ports.nbr_frag(q) != super::UNKNOWN {
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
        for &q in &self.frag_children.clone() {
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
            for &q in &self.frag_children.clone() {
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

    // ---- kids convergecast ----

    fn b_kids_complete(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        let local = self.b.foreign_child.iter().any(Option::is_some);
        let has = self.b.kids_agg || local;
        if self.is_frag_root() {
            self.b.has_kids = has;
        } else {
            let up = self.frag_parent.expect("non-root has a fragment parent");
            ctx.send(up, Msg::KidsUp { has });
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
                    let children = self.b.has_kids.then_some(self.b.prev_color);
                    self.b.color = cv::recolor(parent, children);
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

    fn b_status_duties(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        for q in 0..self.deg {
            if self.b.foreign_child[q].is_some() {
                ctx.send(q, Msg::StatusCross);
            }
        }
        if let Some(q) = self.b.out_port {
            ctx.send(q, Msg::StatusCross);
        }
    }

    // ---- merge flood ----

    fn b_flood_init(&mut self, ctx: &mut RoundCtx<'_, Msg>) {
        self.b.flooded = true;
        let mut fwd = self.frag_children.clone();
        for &q in &self.b.merge_ports {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        if let Some(q) = self.b.matched_port {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        self.frag_parent = None;
        self.frag_children = fwd.clone();
        let id = self.frag_id;
        for q in fwd {
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
        let mut fwd: Vec<PortId> = Vec::new();
        if let Some(q) = self.frag_parent {
            fwd.push(q);
        }
        for &q in &self.frag_children {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        for &q in &self.b.merge_ports {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        if let Some(q) = self.b.matched_port {
            if !fwd.contains(&q) {
                fwd.push(q);
            }
        }
        fwd.retain(|&q| q != port);
        self.frag_id = id;
        self.frag_parent = Some(port);
        self.frag_children = fwd.clone();
        for q in fwd {
            ctx.send(q, Msg::NewFrag { id });
        }
    }
}
