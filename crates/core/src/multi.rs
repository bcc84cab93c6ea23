//! Concurrent multi-query execution over one shared network.
//!
//! The paper evaluates one long-running join at a time; realistic
//! deployments run *populations* of them. This module instantiates N
//! concurrent join queries — each with its own spec, algorithm
//! configuration, pair state, operator placement and adaptation — over a
//! single topology, workload and routing substrate, contending for every
//! node's shared MAC budget (and, optionally, energy budget) in one
//! engine. Every [`crate::Session`] runs on it, the single-query figure
//! runs included.
//!
//! Architecture: the engine stays single-protocol. [`MultiNode`] is a
//! wrapper protocol hosting one [`JoinNode`] instance per query at every
//! node; each inner message is re-framed as a query-tagged [`MultiMsg`]
//! frame. Each query is an engine *flow* (query `q` → flow `q + 1`), so
//! per-query radio costs are accounted separately and
//! [`sensor_sim::SimConfig::fair_mac`] can arbitrate the MAC budget across
//! queries.
//!
//! Two delivery disciplines ([`Sharing`]):
//!
//! - [`Sharing::Independent`] — each query behaves as if it were alone:
//!   every inner message travels in its own link frame (plus the query
//!   tag), enqueued as it is sent ([`sensor_sim::Ctx::wrap`]). N queries
//!   pay N link headers even when their messages ride the same hop in the
//!   same cycle.
//! - [`Sharing::SharedTree`] — queries share the routing substrate's
//!   delivery paths *and* link frames: inner messages emitted by
//!   co-located query instances toward the same next hop in the same
//!   dispatch are staged ([`sensor_sim::Ctx::sandbox`]) and aggregated into
//!   one [`MultiMsg::Batch`] frame (bounded by [`MAX_AGG_PAYLOAD`]), paying
//!   one link header and one MAC slot. Under contention this measurably
//!   beats independent delivery on base load and total traffic — the
//!   headline experiment of `experiments multiq`.
//!
//! The tag is [`QUERY_TAG_BYTES`] wide, or 0 bytes on a
//! [`crate::SessionBuilder::bare_wire`] session: one fixed query has
//! nothing to demultiplex, so its frames are the paper's original
//! single-query traffic byte for byte.
//!
//! Query lifecycle is part of the scenario: each [`QueryInstance`] has an
//! arrival cycle and an optional departure cycle. Queries arriving at
//! cycle 0 run the standard initiation phase to quiescence (contending
//! with each other); later arrivals initiate *live*, their
//! [`crate::scenario::InitStep`]s spread over sampling cycles while the
//! resident queries keep streaming. Lifecycle events fire at the same
//! sampling-cycle boundaries as [`sensor_sim::dynamics::DynamicsPlan`]
//! events (departures, then arrivals and due live-init steps, then plan
//! kills/loss shifts) and are reported alongside them in the session's
//! [`crate::Outcome`].

use crate::cost::Sigma;
use crate::msg::Msg;
use crate::node::{JoinNode, RecoveryStats};
use crate::scenario::{default_indexed_attrs, InitStep};
use crate::shared::{AlgoConfig, Shared};
use sensor_net::{NodeId, Topology};
use sensor_query::JoinQuerySpec;
use sensor_routing::substrate::MultiTreeSubstrate;
use sensor_sim::{Ctx, Emitted, Engine, FlowMetrics, Protocol, SimConfig};
use sensor_workload::WorkloadData;
use std::sync::Arc;

/// Wire bytes of the per-frame query tag (up to 256 concurrent queries).
pub const QUERY_TAG_BYTES: u32 = 1;

/// Aggregation cap: a batch frame's payload (count byte + tagged inner
/// payloads) never exceeds this, modeling the 802.15.4-class frame budget.
/// Inner messages larger than the cap travel solo.
pub const MAX_AGG_PAYLOAD: u32 = 96;

/// Sampling cycles between the live-initiation steps of a query arriving
/// mid-run (each spacing gives the step's control traffic two full
/// sampling periods to converge while data keeps flowing).
pub const LIVE_INIT_SPACING: u32 = 2;

/// How concurrent queries share the network's delivery capacity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sharing {
    /// Per-query frames: every inner message pays its own link header.
    Independent,
    /// Cross-query frame aggregation on the shared routing tree: same-hop
    /// messages from co-located query instances share one frame.
    SharedTree,
}

impl Sharing {
    pub fn name(self) -> &'static str {
        match self {
            Sharing::Independent => "independent",
            Sharing::SharedTree => "shared",
        }
    }

    pub fn parse(s: &str) -> Option<Sharing> {
        match s.to_ascii_lowercase().as_str() {
            "independent" | "indep" => Some(Sharing::Independent),
            "shared" | "shared-tree" => Some(Sharing::SharedTree),
            _ => None,
        }
    }
}

/// Arrival/departure schedule of one query (sampling cycles; departure is
/// exclusive — the query last samples at `departure - 1`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lifecycle {
    pub arrival: u32,
    pub departure: Option<u32>,
}

impl Lifecycle {
    /// Present for the whole run.
    pub const STATIC: Lifecycle = Lifecycle {
        arrival: 0,
        departure: None,
    };

    pub fn arriving(arrival: u32) -> Lifecycle {
        Lifecycle {
            arrival,
            departure: None,
        }
    }
}

/// One member of a [`QuerySet`]: a compiled query, how to execute it, and
/// when it is present.
pub struct QueryInstance {
    pub spec: JoinQuerySpec,
    pub cfg: AlgoConfig,
    pub lifecycle: Lifecycle,
}

/// The multi-query scenario layer: N concurrent join queries over one
/// topology + workload + substrate, run through
/// [`QuerySet::session`]. The single-query [`crate::Scenario`] is the
/// N = 1 case on the untagged wire.
pub struct QuerySet {
    pub topo: Topology,
    pub data: WorkloadData,
    pub queries: Vec<QueryInstance>,
    pub sim: SimConfig,
    pub num_trees: usize,
    pub sharing: Sharing,
}

/// The outer protocol message: inner protocol messages tagged with their
/// query, solo or aggregated.
#[derive(Debug, Clone)]
pub enum MultiMsg {
    /// One inner message of query `q`.
    One { q: u16, inner: Msg },
    /// Several same-next-hop inner messages sharing one link frame
    /// (SharedTree aggregation).
    Batch { frames: Vec<(u16, Msg)> },
}

/// Per-query protocol slot at one node.
struct Slot {
    sh: Arc<Shared>,
    node: JoinNode,
    active: bool,
}

/// The wrapper protocol instance at one node: one [`JoinNode`] per query,
/// plus the staging buffer the frame aggregator works from.
pub struct MultiNode {
    pub id: NodeId,
    slots: Vec<Slot>,
    sharing: Sharing,
    /// Wire bytes of the per-frame query tag: [`QUERY_TAG_BYTES`], or 0
    /// on a bare-wire session.
    tag_bytes: u32,
    /// SharedTree emissions of the current dispatch, awaiting framing.
    staged: Vec<(u16, Emitted<Msg>)>,
    /// Frames that arrived for inactive (departed / not-yet-arrived)
    /// queries and were dropped.
    pub expired_frames: u64,
}

impl MultiNode {
    /// A node hosting no queries yet (each admission adds a slot).
    pub fn new(id: NodeId, sharing: Sharing, tag_bytes: u32) -> Self {
        MultiNode {
            id,
            slots: Vec::new(),
            sharing,
            tag_bytes,
            staged: Vec::new(),
            expired_frames: 0,
        }
    }

    /// Bring query `q` online at this node with fresh protocol state.
    pub fn activate(&mut self, q: usize) {
        let slot = &mut self.slots[q];
        slot.node = JoinNode::new(self.id, slot.sh.clone());
        slot.active = true;
    }

    /// Take query `q` offline, returning its final protocol state (the
    /// harness snapshots the base station's result counters from it).
    pub fn deactivate(&mut self, q: usize) -> JoinNode {
        let slot = &mut self.slots[q];
        slot.active = false;
        std::mem::replace(&mut slot.node, JoinNode::new(self.id, slot.sh.clone()))
    }

    pub fn is_active(&self, q: usize) -> bool {
        self.slots[q].active
    }

    /// Read access to query `q`'s protocol instance.
    pub fn query_node(&self, q: usize) -> &JoinNode {
        &self.slots[q].node
    }

    /// Harness-driven entry point into query `q`'s instance (initiation
    /// steps). Emissions are framed exactly like message-handler output.
    pub fn drive<R>(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        q: usize,
        f: impl FnOnce(&mut JoinNode, &mut Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let r = self.deliver(ctx, q as u16, f);
        self.flush(ctx);
        r
    }

    /// Dispatch one inner event to query `q`: independent frames go
    /// straight onto the queue, SharedTree emissions are staged for
    /// [`MultiNode::flush`]. `None` (without side effects) when the slot
    /// is inactive.
    fn deliver<R>(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        q: u16,
        f: impl FnOnce(&mut JoinNode, &mut Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let slot = self.slots.get_mut(q as usize).filter(|s| s.active)?;
        let node = &mut slot.node;
        if self.sharing == Sharing::Independent {
            let frame = |inner| MultiMsg::One { q, inner };
            return Some(ctx.wrap(self.tag_bytes, frame, |inner| f(node, inner)));
        }
        let (r, emitted) = ctx.sandbox(|inner| f(node, inner));
        self.staged.extend(emitted.into_iter().map(|e| (q, e)));
        Some(r)
    }

    /// [`MultiNode::deliver`] for a frame that arrived off the radio:
    /// a frame for an inactive (departed / not-yet-arrived) query is
    /// dropped and counted. Local ticks and harness drives go through
    /// `deliver` directly and are *not* expired frames.
    fn deliver_frame<R>(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        q: u16,
        f: impl FnOnce(&mut JoinNode, &mut Ctx<'_, Msg>) -> R,
    ) -> Option<R> {
        let r = self.deliver(ctx, q, f);
        if r.is_none() {
            self.expired_frames += 1;
        }
        r
    }

    /// Frame and enqueue everything the current dispatch staged (only
    /// SharedTree stages). Broadcasts always travel solo; unicasts
    /// aggregate per next hop.
    fn flush(&mut self, ctx: &mut Ctx<'_, MultiMsg>) {
        if self.staged.is_empty() {
            return;
        }
        let staged = std::mem::take(&mut self.staged);
        let tag_bytes = self.tag_bytes;
        // Group unicasts by destination, preserving first-seen
        // order; greedily pack each destination's frames under the cap.
        type Group = (Option<NodeId>, Vec<(u16, Emitted<Msg>)>);
        let mut groups: Vec<Group> = Vec::new();
        for (q, e) in staged {
            if e.to.is_none() {
                // Radio broadcasts travel solo (dissemination floods).
                ctx.emit(
                    None,
                    e.payload_bytes + tag_bytes,
                    MultiMsg::One { q, inner: e.msg },
                );
                continue;
            }
            match groups.iter_mut().find(|(to, _)| *to == e.to) {
                Some((_, v)) => v.push((q, e)),
                None => groups.push((e.to, vec![(q, e)])),
            }
        }
        for (to, frames) in groups {
            let mut batch: Vec<(u16, Msg)> = Vec::new();
            let mut batch_payload = 1u32; // frame-count byte
            let flush_batch = |batch: &mut Vec<(u16, Msg)>,
                               batch_payload: &mut u32,
                               ctx: &mut Ctx<'_, MultiMsg>| {
                match batch.len() {
                    0 => {}
                    1 => {
                        // A lone frame needs no batch envelope.
                        let (q, inner) = batch.pop().unwrap();
                        ctx.emit(to, *batch_payload - 1, MultiMsg::One { q, inner });
                    }
                    _ => {
                        ctx.emit(
                            to,
                            *batch_payload,
                            MultiMsg::Batch {
                                frames: std::mem::take(batch),
                            },
                        );
                    }
                }
                *batch_payload = 1;
            };
            for (q, e) in frames {
                let framed = e.payload_bytes + tag_bytes;
                if batch_payload + framed > MAX_AGG_PAYLOAD && !batch.is_empty() {
                    flush_batch(&mut batch, &mut batch_payload, ctx);
                }
                batch.push((q, e.msg));
                batch_payload += framed;
            }
            flush_batch(&mut batch, &mut batch_payload, ctx);
        }
    }

    /// Grow this node by one query slot (online admission): fresh
    /// protocol state, initially inactive.
    pub(crate) fn add_slot(&mut self, sh: &Arc<Shared>) {
        self.slots.push(Slot {
            sh: sh.clone(),
            node: JoinNode::new(self.id, sh.clone()),
            active: false,
        });
    }

    /// Join pairs currently placed at this node, across all active queries
    /// (failure-target picking).
    pub fn pair_count_total(&self) -> usize {
        self.slots
            .iter()
            .filter(|s| s.active)
            .map(|s| s.node.pair_count())
            .sum()
    }

    /// The per-query protocol instances at this node (active or not).
    pub fn query_nodes(&self) -> impl Iterator<Item = &JoinNode> {
        self.slots.iter().map(|s| &s.node)
    }
}

impl Protocol for MultiNode {
    type Msg = MultiMsg;

    // Inner path collapsing consumes snoop events (Appendix E).
    const WANTS_SNOOP: bool = true;

    fn on_message(&mut self, ctx: &mut Ctx<'_, MultiMsg>, from: NodeId, msg: MultiMsg) {
        match msg {
            MultiMsg::One { q, inner } => {
                self.deliver_frame(ctx, q, |n, c| n.on_message(c, from, inner));
            }
            MultiMsg::Batch { frames } => {
                for (q, inner) in frames {
                    self.deliver_frame(ctx, q, |n, c| n.on_message(c, from, inner));
                }
            }
        }
        self.flush(ctx);
    }

    fn on_snoop(
        &mut self,
        ctx: &mut Ctx<'_, MultiMsg>,
        sender: NodeId,
        next_hop: NodeId,
        msg: &MultiMsg,
    ) {
        match msg {
            MultiMsg::One { q, inner } => {
                self.deliver(ctx, *q, |n, c| n.on_snoop(c, sender, next_hop, inner));
            }
            MultiMsg::Batch { frames } => {
                for (q, inner) in frames {
                    self.deliver(ctx, *q, |n, c| n.on_snoop(c, sender, next_hop, inner));
                }
            }
        }
        self.flush(ctx);
    }

    fn on_send_failed(&mut self, ctx: &mut Ctx<'_, MultiMsg>, to: NodeId, msg: MultiMsg) {
        match msg {
            MultiMsg::One { q, inner } => {
                self.deliver_frame(ctx, q, |n, c| n.on_send_failed(c, to, inner));
            }
            MultiMsg::Batch { frames } => {
                // Every frame of an abandoned batch failed; each query runs
                // its own §7 recovery reaction.
                for (q, inner) in frames {
                    self.deliver_frame(ctx, q, |n, c| n.on_send_failed(c, to, inner));
                }
            }
        }
        self.flush(ctx);
    }

    fn on_sampling_cycle(&mut self, ctx: &mut Ctx<'_, MultiMsg>, cycle: u32) {
        for q in 0..self.slots.len() {
            self.deliver(ctx, q as u16, |n, c| n.on_sampling_cycle(c, cycle));
        }
        self.flush(ctx);
    }

    /// Query `q` is flow `q + 1`; aggregated frames are the shared flow 0.
    fn flow_of(msg: &MultiMsg) -> usize {
        match msg {
            MultiMsg::One { q, .. } => *q as usize + 1,
            MultiMsg::Batch { .. } => 0,
        }
    }
}

/// Final per-query observables of a multi-query run.
#[derive(Debug, Clone)]
pub struct QueryStats {
    /// Algorithm label ("Innet-cmg", …).
    pub label: String,
    /// Query-spec name ("Query 1", …).
    pub name: String,
    pub arrival: u32,
    pub departure: Option<u32>,
    /// Join results delivered to the base station for this query.
    pub results: u64,
    /// Mean result delay in transmission cycles.
    pub avg_delay_tx: f64,
    /// Execution traffic of this query's own (un-aggregated) frames.
    pub flow: FlowMetrics,
}

/// Snapshot of a query's base-station counters at departure (or run end).
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct BaseSnapshot {
    pub(crate) results: u64,
    pub(crate) delay_sum: u64,
}

/// The engine a [`crate::Session`] drives: one [`MultiNode`] per node
/// over a shared substrate, plus the run-level ledgers that outlive any
/// one query.
pub struct MultiRun {
    pub engine: Engine<MultiNode>,
    pub shareds: Vec<Arc<Shared>>,
    /// The shared routing substrate — held run-level (not just inside each
    /// query's [`Shared`]) so queries can be admitted into a run that
    /// currently hosts none (a freshly opened serve session).
    pub(crate) sub: Arc<MultiTreeSubstrate>,
    /// The workload, same run-level ownership rationale as `sub`.
    pub(crate) data: WorkloadData,
    /// Master death ledger: every node that died so far, so queries
    /// admitted later inherit the deaths regardless of query population.
    dead: Vec<NodeId>,
    /// §7 recovery counters carried by retired queries' protocol state
    /// (deactivation replaces each node's slot with fresh state, so the
    /// counters are absorbed here to keep network totals monotone).
    retired_recovery: RecoveryStats,
    /// Migration adoptions of retired queries (same monotonicity need —
    /// the session's observer diffing relies on it).
    retired_migrations: u64,
    /// `WindowXfer` bytes of retired queries (same monotonicity need).
    retired_xfer_bytes: u64,
}

impl MultiRun {
    /// Construct the engine with no queries: builds the substrate offline
    /// (routing-tree construction is excluded from query costs, as in
    /// Table 3) and one empty [`MultiNode`] per node framing with a
    /// `tag_bytes`-wide query tag.
    pub(crate) fn new(
        topo: Topology,
        data: WorkloadData,
        sim: SimConfig,
        num_trees: usize,
        sharing: Sharing,
        tag_bytes: u32,
    ) -> MultiRun {
        let sub = Arc::new(MultiTreeSubstrate::build(
            &topo,
            num_trees,
            default_indexed_attrs(),
            &data,
        ));
        let engine = Engine::new(topo, sim, |id| MultiNode::new(id, sharing, tag_bytes));
        MultiRun {
            engine,
            shareds: Vec::new(),
            sub,
            data,
            dead: Vec::new(),
            retired_recovery: RecoveryStats::default(),
            retired_migrations: 0,
            retired_xfer_bytes: 0,
        }
    }

    pub(crate) fn n_queries(&self) -> usize {
        self.shareds.len()
    }

    pub(crate) fn base(&self) -> NodeId {
        self.engine.topology().base()
    }

    /// Activate query `q` at every node.
    pub(crate) fn activate_everywhere(&mut self, q: usize) {
        for i in 0..self.engine.topology().len() {
            self.engine.node_mut(NodeId(i as u16)).activate(q);
        }
    }

    /// Grow the run by one query slot at every node. The new query shares
    /// the substrate and inherits the already-known deaths; it starts
    /// inactive. Returns the new slot index.
    pub(crate) fn add_query(&mut self, spec: JoinQuerySpec, cfg: AlgoConfig) -> usize {
        let sh = Arc::new(Shared::new(
            self.engine.topology(),
            self.sub.clone(),
            spec,
            &self.data,
            cfg,
            &self.dead,
            self.engine.config().tx_per_sampling_cycle,
        ));
        for i in 0..self.engine.topology().len() {
            self.engine.node_mut(NodeId(i as u16)).add_slot(&sh);
        }
        self.shareds.push(sh);
        self.shareds.len() - 1
    }

    /// Record a death in the run-level ledger and every resident query's
    /// liveness oracle (later admissions inherit it from the ledger).
    pub(crate) fn mark_dead(&mut self, v: NodeId) {
        if !self.dead.contains(&v) {
            self.dead.push(v);
        }
        for sh in &self.shareds {
            sh.mark_dead(v);
        }
    }

    /// Fire one initiation step of query `q` across the network: the flood
    /// starts at the base alone, announcements come from every other
    /// node, and every other step runs at all nodes. A drive into an
    /// inactive slot is a side-effect-free no-op, so no per-node activity
    /// guard is needed.
    pub(crate) fn apply_step(&mut self, q: usize, step: InitStep) {
        let entry: fn(&mut JoinNode, &mut Ctx<'_, Msg>) = match step {
            InitStep::Flood => |nd, c| nd.start_flood(c),
            InitStep::EnsureQuery => |nd, _| nd.ensure_query(),
            InitStep::Announce => |nd, c| nd.start_announce(c),
            InitStep::GhtRegister => |nd, c| nd.start_ght_register(c),
            InitStep::Search => |nd, c| nd.start_search(c),
            InitStep::FinishTSide => |nd, _| nd.finish_t_side_assigns(),
            InitStep::GroupOpt => |nd, c| nd.start_group_opt(c),
        };
        let base = self.base();
        for i in 0..self.engine.topology().len() {
            let id = NodeId(i as u16);
            let fires = match step {
                InitStep::Flood => id == base,
                InitStep::Announce => id != base,
                _ => true,
            };
            if fires {
                self.engine.with_node(id, |mn, ctx| mn.drive(ctx, q, entry));
            }
        }
    }

    /// Take query `q` offline everywhere, returning its base counters.
    /// The retired instances' recovery/migration counters are absorbed
    /// into the run-level accumulators so network-wide totals never
    /// shrink on retirement.
    pub(crate) fn retire_query(&mut self, q: usize) -> Option<BaseSnapshot> {
        let base = self.base();
        let mut snap = None;
        for i in 0..self.engine.topology().len() {
            let id = NodeId(i as u16);
            let node = self.engine.node_mut(id).deactivate(q);
            self.retired_recovery.absorb(&node.recovery);
            self.retired_migrations += node.migrations_adopted;
            self.retired_xfer_bytes += node.xfer_bytes;
            if id == base {
                snap = node.base_state().map(|b| BaseSnapshot {
                    results: b.results,
                    delay_sum: b.delay_sum,
                });
            }
        }
        snap
    }

    /// Network-wide sum of the §7 recovery counters across every query's
    /// protocol instances, including the counters departed queries
    /// carried (absorbed at retirement; see `MultiRun::retire_query`) —
    /// totals are monotone across the whole run.
    pub fn recovery_totals(&self) -> RecoveryStats {
        let mut total = self.retired_recovery;
        for mn in self.engine.nodes() {
            for jn in mn.query_nodes() {
                total.absorb(&jn.recovery);
            }
        }
        total
    }

    /// Base-station counters of live query `q`.
    pub(crate) fn live_snapshot(&self, q: usize) -> BaseSnapshot {
        self.engine
            .node(self.base())
            .query_node(q)
            .base_state()
            .map(|b| BaseSnapshot {
                results: b.results,
                delay_sum: b.delay_sum,
            })
            .unwrap_or_default()
    }

    /// Results currently counted at the base across live queries.
    pub(crate) fn live_results(&self) -> u64 {
        (0..self.n_queries())
            .map(|q| self.live_snapshot(q).results)
            .sum()
    }

    /// Mean of query `q`'s learned per-pair σ estimates (component-wise)
    /// across every join node currently holding state for it (`None`
    /// until §6 learning has evidence). `w` is the query's window size.
    pub(crate) fn learned_sigma(&self, q: usize, w: usize) -> Option<Sigma> {
        let (mut s, mut t, mut st, mut n) = (0.0, 0.0, 0.0, 0u32);
        let estimates = self
            .engine
            .nodes()
            .iter()
            .flat_map(|mn| mn.query_node(q).pairs.values())
            .filter_map(|ps| ps.stats.estimate(w));
        for e in estimates {
            s += e.s;
            t += e.t;
            st += e.st;
            n += 1;
        }
        (n > 0).then(|| {
            let n = n as f64;
            Sigma::new(s / n, t / n, st / n)
        })
    }

    /// Network-wide migration-adoption counter, monotone across
    /// retirements (observer diffing).
    pub(crate) fn migrations_total(&self) -> u64 {
        self.retired_migrations
            + self
                .engine
                .nodes()
                .iter()
                .flat_map(|mn| mn.query_nodes())
                .map(|jn| jn.migrations_adopted)
                .sum::<u64>()
    }

    /// Network-wide §6 migration control traffic: bytes put on the air
    /// carrying `WindowXfer` frames, monotone across retirements.
    pub(crate) fn xfer_bytes_total(&self) -> u64 {
        self.retired_xfer_bytes
            + self
                .engine
                .nodes()
                .iter()
                .flat_map(|mn| mn.query_nodes())
                .map(|jn| jn.xfer_bytes)
                .sum::<u64>()
    }
}

/// The alive non-base node serving the most join pairs across all active
/// queries (failure-target selection, Fig 14). Takes the engine alone:
/// the dynamics plan resolves its `Picked` victims against the engine it
/// is firing on.
pub(crate) fn busiest_join_node(engine: &Engine<MultiNode>, base: NodeId) -> Option<NodeId> {
    (0..engine.topology().len() as u16)
        .map(NodeId)
        .filter(|&id| id != base && engine.is_alive(id))
        .max_by_key(|&id| engine.node(id).pair_count_total())
        .filter(|&id| engine.node(id).pair_count_total() > 0)
}
