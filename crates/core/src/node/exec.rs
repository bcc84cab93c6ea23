//! Execution: per-cycle sampling, data shipment, windowed join
//! computation and result delivery (§2.2, §3.2).

use super::{GhtGroup, JoinNode, PairState};
use crate::msg::{side, Msg, Pair, Route};
use crate::shared::Algorithm;
use sensor_net::NodeId;
use sensor_query::{Tuple, TupleSource};
use sensor_sim::Ctx;
use std::collections::VecDeque;

/// Insert into a bounded window, evicting the oldest.
fn push_window(win: &mut VecDeque<Tuple>, t: Tuple, w: usize) {
    if win.len() == w {
        win.pop_front();
    }
    win.push_back(t);
}

impl JoinNode {
    // ----- sampling --------------------------------------------------------

    pub(super) fn sample_and_send(&mut self, ctx: &mut Ctx<'_, Msg>, cycle: u32) {
        if !self.have_query || (!self.is_s && !self.is_t) {
            // Yang+07 targets still maintain their local window below.
            if self.sh.cfg.algorithm == Algorithm::Yang07 {
                self.yang_maintain_window(cycle);
            }
            return;
        }
        let tuple = self.sh.data.sample(self.id, cycle);
        let a = &self.sh.spec.analysis;
        let s_sends = self.is_s && a.s_sends(&tuple);
        let t_sends = self.is_t && a.t_sends(&tuple);
        let sides = (s_sends as u8 * side::S) | (t_sends as u8 * side::T);
        if self.sh.cfg.algorithm == Algorithm::Yang07 && t_sends {
            // Yang+07: T-side data never travels; it waits locally.
            push_window(&mut self.yang_win, tuple, self.sh.spec.window);
        }
        if sides == 0 {
            return;
        }
        // Failure fallback buffer: the last w tuples this producer sent.
        push_window(&mut self.sent, tuple, self.sh.spec.window);

        match self.sh.cfg.algorithm {
            Algorithm::Naive => self.send_to_base(ctx, sides, tuple, None),
            Algorithm::Base => {
                self.send_to_base(ctx, sides, tuple, None);
            }
            Algorithm::Yang07 => {
                if s_sends {
                    self.send_to_base(ctx, side::S, tuple, None);
                }
            }
            Algorithm::Ght => self.ght_send(ctx, sides, tuple),
            Algorithm::Innet => self.innet_send(ctx, sides, tuple),
        }
    }

    fn yang_maintain_window(&mut self, cycle: u32) {
        if self.is_t {
            let tuple = self.sh.data.sample(self.id, cycle);
            if self.sh.spec.analysis.t_sends(&tuple) {
                push_window(&mut self.yang_win, tuple, self.sh.spec.window);
            }
        }
    }

    pub(super) fn send_to_base(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        sides: u8,
        tuple: Tuple,
        fallback: Option<Pair>,
    ) {
        let msg = Msg::Data {
            from: self.id,
            sides,
            tuple,
            route: Route::TreeUp,
            fallback,
        };
        if !self.forward_tree_up(ctx, msg) {
            // I am the base myself (possible for GHT homes near the root).
            self.base_consume_data(ctx, self.id, sides, tuple, fallback);
        }
    }

    fn ght_send(&mut self, ctx: &mut Ctx<'_, Msg>, sides: u8, tuple: Tuple) {
        for i in 0..self.ght_routes.len() {
            let (key, ref path, route_sides) = self.ght_routes[i];
            let use_sides = sides & route_sides;
            if use_sides == 0 {
                continue;
            }
            if path.len() <= 1 {
                // I am the home node.
                self.ght_consume(ctx, key, self.id, use_sides, tuple);
                continue;
            }
            let next = path[1];
            let msg = Msg::Data {
                from: self.id,
                sides: use_sides,
                tuple,
                route: Route::Path {
                    path: path.clone(),
                    pos: 1,
                },
                fallback: None,
            };
            self.send(ctx, next, msg);
        }
    }

    fn innet_send(&mut self, ctx: &mut Ctx<'_, Msg>, sides: u8, tuple: Tuple) {
        // Split assignments by transport: base-mode pairs share one TreeUp
        // message; multicast covers all on-tree join nodes with one send;
        // remaining pairs get per-path unicasts (deduped per join node).
        let mut any_base = false;
        let mut local: Vec<(Pair, bool)> = Vec::new();
        let mut unicast: Vec<(NodeId, Vec<NodeId>)> = Vec::new(); // (j, my path to j)
        let use_mcast = self.sh.cfg.innet.multicast && self.mc_tree.is_some();
        for asg in self.assigns.values() {
            let my_side_s = asg.pair.s == self.id;
            let relevant =
                (my_side_s && sides & side::S != 0) || (!my_side_s && sides & side::T != 0);
            if !relevant {
                continue;
            }
            let j_idx = match asg.j_idx {
                Some(j_idx) if !asg.base_mode => j_idx,
                _ => {
                    any_base = true;
                    continue;
                }
            };
            let j = asg.path[j_idx];
            if j == self.id {
                // I am the join node for my own pair: local insert.
                local.push((asg.pair, my_side_s));
                continue;
            }
            if use_mcast
                && self
                    .mc_tree
                    .as_ref()
                    .is_some_and(|t| t.terminals().contains(&j))
            {
                continue; // covered by the multicast below
            }
            if !unicast.iter().any(|(jj, _)| *jj == j) {
                unicast.push((j, asg.route_to_j(self.id).expect("innet route")));
            }
        }
        for (pair, my_side_s) in local {
            self.local_join_insert(ctx, pair, my_side_s, tuple);
        }
        if any_base {
            self.send_to_base(ctx, sides, tuple, None);
        }
        if use_mcast {
            let msg = Msg::Data {
                from: self.id,
                sides,
                tuple,
                route: Route::Mcast { owner: self.id },
                fallback: None,
            };
            self.forward_mcast(ctx, self.id, msg);
        }
        for (_, path) in unicast {
            let next = path[1];
            let msg = Msg::Data {
                from: self.id,
                sides,
                tuple,
                route: Route::Path { path, pos: 1 },
                fallback: None,
            };
            self.send(ctx, next, msg);
        }
    }

    /// Forward a multicast message to this node's children for `owner`.
    pub(super) fn forward_mcast(&self, ctx: &mut Ctx<'_, Msg>, owner: NodeId, msg: Msg) {
        let children: &[NodeId] = if owner == self.id {
            self.mc_tree.as_ref().map_or(&[], |t| t.children(self.id))
        } else {
            self.mc_children.get(&owner).map_or(&[], Vec::as_slice)
        };
        for &c in children {
            self.send(ctx, c, msg.clone());
        }
    }

    // ----- data handling -----------------------------------------------------

    pub(super) fn on_data(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin: NodeId,
        sides: u8,
        tuple: Tuple,
        route: Route,
        fallback: Option<Pair>,
    ) {
        match route {
            Route::TreeUp => {
                let msg = Msg::Data {
                    from: origin,
                    sides,
                    tuple,
                    route: Route::TreeUp,
                    fallback,
                };
                if !self.forward_tree_up(ctx, msg) {
                    self.base_consume_data(ctx, origin, sides, tuple, fallback);
                }
            }
            Route::Path { path, pos } => {
                let forwarded = self.forward_path(ctx, path, pos, |path, pos| Msg::Data {
                    from: origin,
                    sides,
                    tuple,
                    route: Route::Path { path, pos },
                    fallback,
                });
                if !forwarded {
                    self.consume_data_at_terminus(ctx, origin, sides, tuple);
                }
            }
            Route::Mcast { owner } => {
                let msg = Msg::Data {
                    from: origin,
                    sides,
                    tuple,
                    route: Route::Mcast { owner },
                    fallback,
                };
                self.forward_mcast(ctx, owner, msg);
                // Consume if I am a join node for any of the owner's pairs.
                if self
                    .pairs
                    .values()
                    .any(|p| p.pair.s == origin || p.pair.t == origin)
                {
                    self.consume_data_at_terminus(ctx, origin, sides, tuple);
                }
            }
        }
    }

    /// A data tuple reached a path terminus: Innet join node, GHT home, or
    /// a Yang+07 target.
    fn consume_data_at_terminus(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin: NodeId,
        sides: u8,
        tuple: Tuple,
    ) {
        match self.sh.cfg.algorithm {
            Algorithm::Yang07 => self.yang_target_join(ctx, tuple),
            Algorithm::Ght => {
                let keys: Vec<u64> = self
                    .ght_groups
                    .iter()
                    .filter(|(_, g)| g.members.iter().any(|(n, _, _)| *n == origin))
                    .map(|(k, _)| *k)
                    .collect();
                for key in keys {
                    self.ght_consume(ctx, key, origin, sides, tuple);
                }
            }
            _ => self.innet_join(ctx, origin, sides, tuple),
        }
    }

    /// Windowed join at an Innet join node for all pairs involving the
    /// sender.
    fn innet_join(&mut self, ctx: &mut Ctx<'_, Msg>, origin: NodeId, sides: u8, tuple: Tuple) {
        let spec = &self.sh.spec;
        let mut results = 0u32;
        for st in self.pairs.values_mut() {
            if (st.pair.s == origin && sides & side::S != 0)
                || (st.pair.t == origin && sides & side::T != 0)
            {
                results += join_into_pair(spec, st, origin, tuple, spec.window);
            }
        }
        self.produced_results += results as u64;
        if results > 0 {
            self.emit_results(ctx, results, tuple.cycle);
        }
    }

    /// Local-insert shortcut when the producer is its own join node.
    fn local_join_insert(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        _my_side_s: bool,
        tuple: Tuple,
    ) {
        let spec = &self.sh.spec;
        if let Some(st) = self.pairs.get_mut(&pair) {
            let results = join_into_pair(spec, st, self.id, tuple, spec.window);
            self.produced_results += results as u64;
            if results > 0 {
                self.emit_results(ctx, results, tuple.cycle);
            }
        }
    }

    /// Yang+07 target: probe the local window of own samples.
    fn yang_target_join(&mut self, ctx: &mut Ctx<'_, Msg>, s_tuple: Tuple) {
        let a = &self.sh.spec.analysis;
        let results = self
            .yang_win
            .iter()
            .filter(|t_tuple| a.join_matches(&s_tuple, t_tuple))
            .count() as u32;
        if results > 0 {
            self.emit_results(ctx, results, s_tuple.cycle);
        }
    }

    /// GHT home: probe opposite-side windows of all group members.
    pub(super) fn ght_consume(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        key: u64,
        origin: NodeId,
        sides: u8,
        tuple: Tuple,
    ) {
        let spec = &self.sh.spec;
        let w = spec.window;
        let mut results = 0u32;
        if let Some(GhtGroup { members, windows }) = self.ght_groups.get_mut(&key) {
            // As S tuple: probe T members' windows.
            if sides & side::S != 0 {
                for (m, m_sides, m_statics) in members.iter() {
                    if *m == origin || m_sides & side::T == 0 {
                        continue;
                    }
                    if !spec.analysis.static_join_matches(&tuple, m_statics) {
                        continue;
                    }
                    if let Some(win) = windows.get(&(*m, side::T)) {
                        results += win
                            .iter()
                            .filter(|tt| spec.analysis.join_matches(&tuple, tt))
                            .count() as u32;
                    }
                }
                push_window(windows.entry((origin, side::S)).or_default(), tuple, w);
            }
            if sides & side::T != 0 {
                for (m, m_sides, m_statics) in members.iter() {
                    if *m == origin || m_sides & side::S == 0 {
                        continue;
                    }
                    if !spec.analysis.static_join_matches(m_statics, &tuple) {
                        continue;
                    }
                    if let Some(win) = windows.get(&(*m, side::S)) {
                        results += win
                            .iter()
                            .filter(|ss| spec.analysis.join_matches(ss, &tuple))
                            .count() as u32;
                    }
                }
                push_window(windows.entry((origin, side::T)).or_default(), tuple, w);
            }
        }
        self.produced_results += results as u64;
        if results > 0 {
            self.emit_results(ctx, results, tuple.cycle);
        }
    }

    /// Ship `count` fresh join results toward the base (merged into one
    /// message — opportunistic merging, Appendix E).
    pub(super) fn emit_results(&mut self, ctx: &mut Ctx<'_, Msg>, count: u32, gen_cycle: u32) {
        let mut remaining = count;
        while remaining > 0 {
            let batch = remaining.min(u16::MAX as u32) as u16;
            remaining -= batch as u32;
            let msg = Msg::Result {
                count: batch,
                gen_cycle,
                route: Route::TreeUp,
            };
            if !self.forward_tree_up(ctx, msg) {
                self.base_record_results(ctx.now, batch as u64, gen_cycle);
            }
        }
    }

    pub(super) fn on_result(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        count: u16,
        gen_cycle: u32,
        route: Route,
    ) {
        let msg = Msg::Result {
            count,
            gen_cycle,
            route,
        };
        if !self.forward_tree_up(ctx, msg) {
            self.base_record_results(ctx.now, count as u64, gen_cycle);
        }
    }

    pub(super) fn base_record_results(&mut self, now: u64, count: u64, gen_cycle: u32) {
        let tx_per = u64::from(self.sh.tx_per_sampling_cycle);
        let b = self.base.as_mut().expect("result recorded off-base");
        let born = gen_cycle as u64 * tx_per;
        let delay = now.saturating_sub(born) as u32;
        b.results += count;
        for _ in 0..count {
            b.delay_sum += delay as u64;
            b.delays.push(delay);
        }
    }

    // ----- base-station join ---------------------------------------------------

    /// The base joins every arriving base-mode tuple against the windows
    /// of statically-matching senders (grouped join at the base; also the
    /// destination of fallbacks and group decisions).
    pub(super) fn base_consume_data(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        origin: NodeId,
        sides: u8,
        tuple: Tuple,
        fallback: Option<Pair>,
    ) {
        let now = ctx.now;
        let spec = &self.sh.spec;
        let w = spec.window;
        let origin_static = *self.sh.data.static_of(origin);
        let Some(b) = self.base.as_mut() else {
            return;
        };
        if let Some(pair) = fallback {
            b.pairs.entry(pair).or_insert_with(|| PairState {
                pair,
                seq: u32::MAX, // fallback pins the pair at the base
                path: Vec::new(),
                hops: Vec::new(),
                j_idx: None,
                assumed: crate::cost::Sigma::new(1.0, 1.0, 1.0),
                win_s: VecDeque::new(),
                win_t: VecDeque::new(),
                stats: crate::learn::PairStats::default(),
            });
        }
        let mut produced = 0u64;
        for probe_side in [side::S, side::T] {
            if sides & probe_side == 0 {
                continue;
            }
            let opposite = if probe_side == side::S {
                side::T
            } else {
                side::S
            };
            for (&(partner, sd), p_static) in &b.senders {
                if sd != opposite || partner == origin {
                    continue;
                }
                let statically_joins = if probe_side == side::S {
                    spec.analysis.s_eligible(&origin_static)
                        && spec.analysis.t_eligible(p_static)
                        && spec.analysis.static_join_matches(&origin_static, p_static)
                } else {
                    spec.analysis.s_eligible(p_static)
                        && spec.analysis.t_eligible(&origin_static)
                        && spec.analysis.static_join_matches(p_static, &origin_static)
                };
                if !statically_joins {
                    continue;
                }
                if let Some(win) = b.windows.get(&(partner, opposite)) {
                    let matches = win
                        .iter()
                        .filter(|other| {
                            if probe_side == side::S {
                                spec.analysis.join_matches(&tuple, other)
                            } else {
                                spec.analysis.join_matches(other, &tuple)
                            }
                        })
                        .count() as u64;
                    produced += matches;
                    // Learning bookkeeping for registered at-base pairs.
                    let pair = if probe_side == side::S {
                        Pair::new(origin, partner)
                    } else {
                        Pair::new(partner, origin)
                    };
                    if let Some(ps) = b.pairs.get_mut(&pair) {
                        ps.stats.record_results(matches as u32);
                    }
                }
            }
            b.senders.insert((origin, probe_side), origin_static);
            push_window(b.windows.entry((origin, probe_side)).or_default(), tuple, w);
            // Pair stats: count arrivals.
            for ps in b.pairs.values_mut() {
                if probe_side == side::S && ps.pair.s == origin {
                    ps.stats.record_s();
                } else if probe_side == side::T && ps.pair.t == origin {
                    ps.stats.record_t();
                }
            }
        }
        if produced > 0 {
            self.produced_results += produced;
            self.base_record_results(now, produced, tuple.cycle);
        }
        // Yang+07: the base re-routes S data down to matching targets.
        if self.sh.cfg.algorithm == Algorithm::Yang07 && sides & side::S != 0 {
            self.yang_forward_down(ctx, origin, tuple);
        }
    }

    fn yang_forward_down(&mut self, ctx: &mut Ctx<'_, Msg>, origin: NodeId, tuple: Tuple) {
        let a = &self.sh.spec.analysis;
        let origin_static = *self.sh.data.static_of(origin);
        let targets: Vec<NodeId> = self
            .sh
            .topo
            .node_ids()
            .filter(|&n| n != origin && n != self.id)
            .filter(|&n| {
                let t_static = self.sh.data.static_of(n);
                a.t_eligible(t_static) && a.static_join_matches(&origin_static, t_static)
            })
            .collect();
        for t in targets {
            let path = self.sh.tree_path(self.id, t);
            if path.len() > 1 {
                let next = path[1];
                let msg = Msg::Data {
                    from: origin,
                    sides: side::S,
                    tuple,
                    route: Route::Path { path, pos: 1 },
                    fallback: None,
                };
                self.send(ctx, next, msg);
            }
        }
    }
}

/// Probe-then-insert windowed join for one pair at its join node.
/// Returns the number of result tuples.
pub(super) fn join_into_pair(
    spec: &sensor_query::JoinQuerySpec,
    st: &mut PairState,
    origin: NodeId,
    tuple: Tuple,
    w: usize,
) -> u32 {
    let mut results = 0u32;
    if origin == st.pair.s {
        st.stats.record_s();
        results += st
            .win_t
            .iter()
            .filter(|t| spec.analysis.join_matches(&tuple, t))
            .count() as u32;
        push_window(&mut st.win_s, tuple, w);
    }
    if origin == st.pair.t {
        st.stats.record_t();
        results += st
            .win_s
            .iter()
            .filter(|s| spec.analysis.join_matches(s, &tuple))
            .count() as u32;
        push_window(&mut st.win_t, tuple, w);
    }
    st.stats.record_results(results);
    results
}
