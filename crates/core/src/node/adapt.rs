//! Adaptation: selectivity learning with join-node migration (§6) and
//! best-effort failure recovery (§7).

use super::{JoinNode, PairState};
use crate::cost::{place_join_node, Placement, Sigma};
use crate::msg::{side, Msg, Pair, Route};
use sensor_net::NodeId;
use sensor_query::Tuple;
use sensor_routing::repair::repair_path;
use sensor_sim::Ctx;

impl JoinNode {
    // ----- learning (§6) ----------------------------------------------------

    /// Per-sampling-cycle learning bookkeeping at join nodes (and at the
    /// base for its registered pairs).
    pub(super) fn learning_tick(&mut self, ctx: &mut Ctx<'_, Msg>, cycle: u32) {
        if !self.sh.cfg.innet.learning {
            return;
        }
        let interval = self.sh.cfg.learn_interval.max(1);
        for st in self.pairs.values_mut() {
            st.stats.tick();
        }
        if let Some(b) = self.base.as_mut() {
            for st in b.pairs.values_mut() {
                st.stats.tick();
            }
        }
        if cycle == 0 || !cycle.is_multiple_of(interval) {
            return;
        }
        // Evaluate join-node pairs.
        let here: Vec<Pair> = self.pairs.keys().copied().collect();
        for pair in here {
            self.evaluate_pair(ctx, pair, false);
        }
        let at_base: Vec<Pair> = self
            .base
            .as_ref()
            .map(|b| b.pairs.keys().copied().collect())
            .unwrap_or_default();
        for pair in at_base {
            self.evaluate_pair(ctx, pair, true);
        }
    }

    /// Re-estimate a pair's selectivities; migrate the join node when the
    /// estimates diverge >33% from the values the placement assumed.
    fn evaluate_pair(&mut self, ctx: &mut Ctx<'_, Msg>, pair: Pair, at_base: bool) {
        let w = self.sh.spec.window;
        let threshold = self.sh.cfg.divergence_threshold;
        let st = if at_base {
            self.base.as_mut().and_then(|b| b.pairs.get_mut(&pair))
        } else {
            self.pairs.get_mut(&pair)
        };
        let Some(st) = st else { return };
        if st.path.is_empty() {
            // Fallback-pinned pair: nothing to re-place.
            st.stats.reset();
            return;
        }
        let Some(est) = st.stats.estimate(w) else {
            // No evidence yet: leave the local time span running.
            // (`learning_tick` already ticked every pair this cycle; an
            // extra tick here double-counted evaluation cycles and deflated
            // every σ estimate — ISSUE 3 regression.)
            return;
        };
        if !st.assumed.diverged(&est, threshold) {
            // Close enough: keep running, restart the local time span.
            st.stats.reset();
            return;
        }
        let placement = place_join_node(est, w, &st.hops);
        let new_j_idx = match placement {
            Placement::OnPath { index, .. } => Some(index),
            Placement::AtBase { .. } => None,
        };
        if new_j_idx == st.j_idx {
            // Same node still optimal: adopt the estimates and move on.
            st.assumed = est;
            st.stats.reset();
            return;
        }
        // Migrate: hand the windows to the new join node so computation
        // resumes "seamlessly without loss of results".
        let seq = st.seq + 1;
        let path = st.path.clone();
        let hops = st.hops.clone();
        let win_s: Vec<Tuple> = st.win_s.iter().copied().collect();
        let win_t: Vec<Tuple> = st.win_t.iter().copied().collect();
        if at_base {
            self.base.as_mut().unwrap().pairs.remove(&pair);
        } else {
            self.pairs.remove(&pair);
        }
        self.dispatch_window_xfer(ctx, pair, seq, path, hops, new_j_idx, est, win_s, win_t);
    }

    /// Route a WindowXfer from the current join point to the new one.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn dispatch_window_xfer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        hops: Vec<u16>,
        new_j_idx: Option<usize>,
        assumed: Sigma,
        win_s: Vec<Tuple>,
        win_t: Vec<Tuple>,
    ) {
        match new_j_idx {
            None => {
                // Moving to the base.
                let msg = Msg::WindowXfer {
                    pair,
                    seq,
                    path,
                    hops,
                    new_j_idx,
                    assumed,
                    win_s,
                    win_t,
                    route: Route::TreeUp,
                };
                let wb = msg.wire_bytes(self.sh.data_bytes(), self.sh.result_bytes()) as u64;
                if self.forward_tree_up(ctx, msg) {
                    self.xfer_bytes += wb;
                } else {
                    self.adopt_transferred_pair(
                        ctx,
                        pair,
                        seq,
                        Vec::new(),
                        Vec::new(),
                        None,
                        assumed,
                        Vec::new(),
                        Vec::new(),
                    );
                }
            }
            Some(j) => {
                let new_j = path[j];
                if new_j == self.id {
                    let (p, h) = (path.clone(), hops.clone());
                    self.adopt_transferred_pair(
                        ctx,
                        pair,
                        seq,
                        p,
                        h,
                        Some(j),
                        assumed,
                        win_s,
                        win_t,
                    );
                    return;
                }
                // Route along the pair's path if I am on it; otherwise
                // (migrating away from the base) use the primary tree.
                let route_path = match path.iter().position(|&n| n == self.id) {
                    Some(my_idx) if my_idx < j => path[my_idx..=j].to_vec(),
                    Some(my_idx) => {
                        let mut p = path[j..=my_idx].to_vec();
                        p.reverse();
                        p
                    }
                    None => self.sh.tree_path(self.id, new_j),
                };
                if route_path.len() > 1 {
                    let msg = Msg::WindowXfer {
                        pair,
                        seq,
                        path,
                        hops,
                        new_j_idx,
                        assumed,
                        win_s,
                        win_t,
                        route: Route::Path {
                            path: route_path.clone(),
                            pos: 1,
                        },
                    };
                    self.xfer_bytes +=
                        msg.wire_bytes(self.sh.data_bytes(), self.sh.result_bytes()) as u64;
                    self.send(ctx, route_path[1], msg);
                }
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    pub(super) fn on_window_xfer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        hops: Vec<u16>,
        new_j_idx: Option<usize>,
        assumed: Sigma,
        win_s: Vec<Tuple>,
        win_t: Vec<Tuple>,
        route: Route,
    ) {
        match route {
            Route::TreeUp => {
                let msg = Msg::WindowXfer {
                    pair,
                    seq,
                    path: path.clone(),
                    hops: hops.clone(),
                    new_j_idx,
                    assumed,
                    win_s: win_s.clone(),
                    win_t: win_t.clone(),
                    route: Route::TreeUp,
                };
                let wb = msg.wire_bytes(self.sh.data_bytes(), self.sh.result_bytes()) as u64;
                if self.forward_tree_up(ctx, msg) {
                    self.xfer_bytes += wb;
                    return;
                }
                self.adopt_transferred_pair(
                    ctx, pair, seq, path, hops, new_j_idx, assumed, win_s, win_t,
                );
            }
            Route::Path { path: rpath, pos } => {
                debug_assert_eq!(rpath.get(pos), Some(&self.id), "path routing desync");
                if pos + 1 < rpath.len() {
                    let next = rpath[pos + 1];
                    let msg = Msg::WindowXfer {
                        pair,
                        seq,
                        path,
                        hops,
                        new_j_idx,
                        assumed,
                        win_s,
                        win_t,
                        route: Route::Path {
                            path: rpath,
                            pos: pos + 1,
                        },
                    };
                    self.xfer_bytes +=
                        msg.wire_bytes(self.sh.data_bytes(), self.sh.result_bytes()) as u64;
                    self.send(ctx, next, msg);
                } else {
                    self.adopt_transferred_pair(
                        ctx, pair, seq, path, hops, new_j_idx, assumed, win_s, win_t,
                    );
                }
            }
            Route::Mcast { .. } => unreachable!("window transfers are unicast"),
        }
    }

    /// The new join node adopts a migrated pair and re-points both
    /// producers at itself.
    #[allow(clippy::too_many_arguments)]
    fn adopt_transferred_pair(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        seq: u32,
        path: Vec<NodeId>,
        hops: Vec<u16>,
        j_idx: Option<usize>,
        assumed: Sigma,
        win_s: Vec<Tuple>,
        win_t: Vec<Tuple>,
    ) {
        let state = PairState {
            pair,
            seq,
            path: path.clone(),
            hops,
            j_idx,
            assumed,
            win_s: win_s.into(),
            win_t: win_t.into(),
            stats: crate::learn::PairStats::default(),
        };
        self.migrations_adopted += 1;
        match j_idx {
            Some(_) => {
                self.pairs.insert(pair, state);
            }
            None => {
                if let Some(b) = self.base.as_mut() {
                    b.pairs.insert(pair, state);
                }
            }
        }
        self.send_assign(ctx, pair, seq, path.clone(), j_idx, false);
        self.send_assign(ctx, pair, seq, path, j_idx, true);
    }

    // ----- failure handling (§7) ----------------------------------------------

    /// A unicast abandoned after retries: the next hop is dead. Repair the
    /// route locally, or notify the producer to fall back to the base.
    pub(super) fn handle_send_failure(&mut self, ctx: &mut Ctx<'_, Msg>, to: NodeId, msg: Msg) {
        self.known_dead.insert(to);
        // Local liveness probing around the failure (costed).
        self.recovery.control_bytes +=
            Msg::Probe.wire_bytes(self.sh.data_bytes(), self.sh.result_bytes()) as u64;
        self.broadcast(ctx, Msg::Probe);
        // Splice my own stored paths around the dead node so later traffic
        // and placement decisions stop referencing it.
        self.patch_paths_around(to);
        match msg {
            Msg::Data {
                from,
                sides,
                tuple,
                route: Route::Path { path, pos },
                fallback,
            } => {
                self.recovery.repair_attempts += 1;
                let alive = |n: NodeId| !self.known_dead.contains(&n) && !self.sh.is_dead(n);
                match repair_path(&self.sh.topo, &path, to, alive) {
                    Some(new_path) => {
                        self.recovery.repair_successes += 1;
                        // Resume from my position on the repaired path and
                        // tell the producer about the detour.
                        let resume = new_path
                            .iter()
                            .position(|&n| n == self.id)
                            .filter(|&p| p + 1 < new_path.len());
                        match resume {
                            Some(my_pos) => {
                                let m = Msg::Data {
                                    from,
                                    sides,
                                    tuple,
                                    route: Route::Path {
                                        path: new_path.clone(),
                                        pos: my_pos + 1,
                                    },
                                    fallback,
                                };
                                self.send(ctx, new_path[my_pos + 1], m);
                            }
                            None => {
                                // The repaired path no longer runs through
                                // me (stale or desynced route). Divert the
                                // in-flight tuple onto the routing tree
                                // instead of dropping it (ISSUE 3
                                // regression). `forward_tree_up` returns
                                // true even with no alive parent, so check
                                // the parent to keep the salvage counter
                                // honest.
                                let m = Msg::Data {
                                    from,
                                    sides,
                                    tuple,
                                    route: Route::TreeUp,
                                    fallback,
                                };
                                if !self.forward_tree_up(ctx, m) {
                                    self.base_consume_data(ctx, from, sides, tuple, fallback);
                                    self.recovery.tuples_rerouted += 1;
                                } else if self.alive_parent().is_some() {
                                    self.recovery.tuples_rerouted += 1;
                                } else {
                                    // Isolated from the tree: nothing left.
                                    self.recovery.tuples_lost += 1;
                                }
                            }
                        }
                        self.notify_route_broken(ctx, from, to, &path, pos, false);
                    }
                    None => {
                        // No local bypass: this tuple instance is gone; the
                        // producer's buffered fallback (§7) re-ships its
                        // window to the base.
                        self.recovery.tuples_lost += 1;
                        self.notify_route_broken(ctx, from, to, &path, pos, true);
                    }
                }
            }
            // Tree-up traffic heals by re-parenting; re-send once.
            Msg::Data {
                from,
                sides,
                tuple,
                route: Route::TreeUp,
                fallback,
            } => {
                let m = Msg::Data {
                    from,
                    sides,
                    tuple,
                    route: Route::TreeUp,
                    fallback,
                };
                let _ = self.forward_tree_up(ctx, m);
            }
            Msg::Result {
                count,
                gen_cycle,
                route: Route::TreeUp,
            } => {
                let m = Msg::Result {
                    count,
                    gen_cycle,
                    route: Route::TreeUp,
                };
                let _ = self.forward_tree_up(ctx, m);
            }
            // Multicast branch died: tell the owner; it will rebuild
            // around the failure or fall back.
            Msg::Data {
                from,
                route: Route::Mcast { owner },
                ..
            } => {
                let _ = from;
                self.recovery.tuples_lost += 1;
                self.notify_route_broken(ctx, owner, to, &[], 0, true);
            }
            // A lost migration hand-off would strand the pair entirely —
            // the old join node already dropped its state. Divert the
            // transfer onto the routing tree with the destination retargeted
            // to the base (`new_j_idx: None`): the intended join node is
            // unreachable, and a tree-up transfer that kept `Some(j)` would
            // make the base adopt a pair whose assigns point at a node that
            // never received the window state.
            Msg::WindowXfer {
                pair,
                seq,
                path,
                hops,
                assumed,
                win_s,
                win_t,
                ..
            } => {
                if self.id == self.sh.base() || self.alive_parent().is_some() {
                    self.on_window_xfer(
                        ctx,
                        pair,
                        seq,
                        path,
                        hops,
                        None,
                        assumed,
                        win_s,
                        win_t,
                        Route::TreeUp,
                    );
                } else {
                    // Isolated from the tree: the migration state is
                    // unrecoverable (the old join node already dropped it).
                    // Record the loss instead of pretending the divert
                    // succeeded.
                    self.recovery.tuples_lost += (win_s.len() + win_t.len()) as u64;
                }
            }
            // Control traffic losses during initiation self-correct via
            // re-nomination; drop silently.
            _ => {}
        }
    }

    /// Splice every stored path (producer assignments, join-node pair
    /// state, base-registered pairs) around a newly-dead node, recomputing
    /// the `hops` base-distance vector and remapping `j_idx` — stale
    /// pre-repair distances would otherwise keep feeding §6's placement
    /// decisions (ISSUE 3 regression). Paths whose join node *is* the dead
    /// node are left for the fatal base-fallback handling.
    pub(super) fn patch_paths_around(&mut self, failed: NodeId) {
        let sh = &self.sh;
        let known_dead = &self.known_dead;
        let alive = |n: NodeId| !known_dead.contains(&n) && !sh.is_dead(n) && n != failed;
        let patch =
            |path: &mut Vec<NodeId>, hops: &mut Vec<u16>, j_idx: &mut Option<usize>| -> bool {
                if path.is_empty() || !path.contains(&failed) {
                    return false;
                }
                let old_j = j_idx.map(|j| path[j]);
                if old_j == Some(failed) {
                    return false;
                }
                let Some(new_path) = repair_path(&sh.topo, path, failed, alive) else {
                    return false;
                };
                let new_j = match old_j {
                    // Bypass splices keep every non-failed node, but guard
                    // anyway: losing the join node would corrupt j_idx.
                    Some(j) => match new_path.iter().position(|&n| n == j) {
                        Some(p) => Some(p),
                        None => return false,
                    },
                    None => None,
                };
                *hops = new_path.iter().map(|&n| sh.sub.hops_to_base(n)).collect();
                *path = new_path;
                *j_idx = new_j;
                true
            };
        let mut patched = 0u64;
        let mut assigns_patched = false;
        for a in self.assigns.values_mut() {
            if !a.base_mode && patch(&mut a.path, &mut a.hops, &mut a.j_idx) {
                patched += 1;
                assigns_patched = true;
            }
        }
        for st in self.pairs.values_mut() {
            if patch(&mut st.path, &mut st.hops, &mut st.j_idx) {
                patched += 1;
            }
        }
        if let Some(b) = self.base.as_mut() {
            for st in b.pairs.values_mut() {
                if patch(&mut st.path, &mut st.hops, &mut st.j_idx) {
                    patched += 1;
                }
            }
        }
        self.recovery.paths_patched += patched;
        if assigns_patched {
            // Producer routes changed: the multicast tree must follow.
            self.mc_dirty = true;
        }
    }

    /// Walk a RouteBroken notification back toward the producer.
    fn notify_route_broken(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        producer: NodeId,
        failed: NodeId,
        path: &[NodeId],
        pos: usize,
        fatal: bool,
    ) {
        if producer == self.id {
            self.producer_route_broken(ctx, failed, fatal);
            return;
        }
        // Reverse along the data path if I am on it; else tree-route.
        let back_path: Vec<NodeId> =
            if !path.is_empty() && pos > 0 && path.get(pos) == Some(&self.id) {
                let mut p = path[..=pos].to_vec();
                p.reverse();
                p
            } else {
                self.sh.tree_path(self.id, producer)
            };
        if back_path.len() > 1 {
            let msg = Msg::RouteBroken {
                pair: Pair::new(producer, failed), // s slot = producer, t slot unused
                failed,
                path: back_path.clone(),
                pos: 1,
            };
            self.recovery.control_bytes +=
                msg.wire_bytes(self.sh.data_bytes(), self.sh.result_bytes()) as u64;
            self.send(ctx, back_path[1], msg);
        }
    }

    pub(super) fn on_route_broken(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        pair: Pair,
        failed: NodeId,
        path: Vec<NodeId>,
        pos: usize,
    ) {
        let forwarded = self.forward_path(ctx, path, pos, |path, pos| Msg::RouteBroken {
            pair,
            failed,
            path,
            pos,
        });
        if !forwarded {
            self.producer_route_broken(ctx, failed, true);
        }
    }

    /// §7: producer-side reaction — switch every pair whose path includes
    /// the failed node to joining at the base, forwarding the last `w`
    /// tuples so the base can reconstruct the join window.
    fn producer_route_broken(&mut self, ctx: &mut Ctx<'_, Msg>, failed: NodeId, fatal: bool) {
        self.known_dead.insert(failed);
        // Adopt the detour locally: splice my stored paths around the dead
        // node so future tuples route past it directly instead of hitting
        // the same upstream repair every cycle.
        self.patch_paths_around(failed);
        if !fatal {
            return;
        }
        // Only pairs the local splice could not save (join node dead, or
        // no bypass within limited exploration) fall back to the base.
        let affected: Vec<Pair> = self
            .assigns
            .values()
            .filter(|a| !a.base_mode && a.path.contains(&failed))
            .map(|a| a.pair)
            .collect();
        if affected.is_empty() {
            return;
        }
        let buffered: Vec<Tuple> = self.sent.iter().copied().collect();
        for pair in &affected {
            if let Some(a) = self.assigns.get_mut(pair) {
                a.base_mode = true;
            }
        }
        self.recovery.base_fallbacks += affected.len() as u64;
        self.mc_dirty = true;
        // Forward the last w tuples, tagged so the base pins the pair.
        let my_side = if affected.iter().any(|p| p.s == self.id) {
            side::S
        } else {
            side::T
        };
        for tuple in buffered {
            self.send_to_base(ctx, my_side, tuple, Some(affected[0]));
        }
    }
}
