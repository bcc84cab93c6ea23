//! The simulation engine: per-node protocol instances, link-layer queues,
//! loss, retransmission and deterministic scheduling.
//!
//! # Data-oriented core
//!
//! Protocol messages live in an arena-backed `MsgPool` (`pool.rs`);
//! everything the hot loop touches — queue entries, event records — is a
//! small `Copy` struct carrying a message *handle*, the message's flow
//! (computed once at enqueue) and its wire size. The transmit phase
//! never dereferences a handle: it moves 16-byte records between
//! structure-of-arrays state (`queues`, `alive`, per-node metrics) and
//! only the serial event drain materializes messages (the last consumer
//! of a handle moves the message out; earlier consumers clone; snoop
//! events borrow the pooled message with zero clones).
//!
//! # Deterministic intra-run parallelism
//!
//! With [`SimConfig::threads`] > 1 the transmit phase partitions nodes
//! into contiguous chunks, one OS thread each. Each chunk runs against
//! its own RNG clone advanced past the loss draws of all preceding
//! nodes (a serial draw-count prepass makes the offsets exact), writes
//! into its own slice of queue/metric state, and buffers its events
//! locally; buffers merge back in chunk order. Because offsets follow
//! *node* order, not chunk order, the merged event sequence — and hence
//! every metric, queue and protocol state — is byte-identical for any
//! thread count, including the sequential path. Messages stay in the
//! pool untouched during the parallel phase, so `P::Msg` needs no
//! `Send`/`Sync` bound.

use crate::config::SimConfig;
use crate::metrics::{FlowMetrics, Metrics, NodeMetrics};
use crate::pool::{MsgHandle, MsgPool};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use sensor_net::{NodeId, Topology};
use std::collections::VecDeque;

/// A node-local protocol. One instance per node; the engine dispatches
/// link-layer events in deterministic (node-id, FIFO) order.
pub trait Protocol {
    type Msg: Clone;

    /// Whether this protocol consumes [`Protocol::on_snoop`] events.
    /// Protocols overriding `on_snoop` must set this to `true`; the engine
    /// skips snoop-event generation (and the per-snooper message clones)
    /// entirely when it is `false`, even with [`SimConfig::snooping`] on.
    const WANTS_SNOOP: bool = false;

    /// A message addressed to this node arrived (link layer already charged
    /// TX/RX for the hop).
    fn on_message(&mut self, ctx: &mut Ctx<'_, Self::Msg>, from: NodeId, msg: Self::Msg);

    /// A neighbor transmitted a unicast message this node could overhear.
    /// Only fired when [`SimConfig::snooping`] is on. No traffic charge.
    fn on_snoop(
        &mut self,
        _ctx: &mut Ctx<'_, Self::Msg>,
        _sender: NodeId,
        _next_hop: NodeId,
        _msg: &Self::Msg,
    ) {
    }

    /// A unicast send was abandoned after exhausting retransmissions
    /// (receiver dead or persistent loss).
    fn on_send_failed(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _to: NodeId, _msg: Self::Msg) {}

    /// Start of a sampling cycle (the engine's client decides the cadence).
    fn on_sampling_cycle(&mut self, _ctx: &mut Ctx<'_, Self::Msg>, _cycle: u32) {}

    /// Traffic class of a message. Flow 0 is the default; multi-query
    /// protocols tag each message with its query's flow so (a) the engine
    /// can account per-flow traffic ([`crate::metrics::FlowMetrics`]) and
    /// (b) [`SimConfig::fair_mac`] can arbitrate a node's MAC budget
    /// fairly across concurrent flows.
    fn flow_of(_msg: &Self::Msg) -> usize {
        0
    }
}

/// Where an outgoing message is headed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    Unicast(NodeId),
    /// Radio broadcast to all neighbors: one transmission charge, delivery
    /// to every alive neighbor with independent loss draws, no retries.
    Broadcast,
}

/// A link-layer queue entry: everything the transmit phase needs, with
/// the message itself left behind in the pool. 16 bytes, `Copy`.
#[derive(Debug, Clone, Copy)]
struct QueueEntry {
    handle: MsgHandle,
    target: Target,
    wire_bytes: u32,
    /// Flow tag, computed once at enqueue so the fair-MAC scan and the
    /// per-flow metrics never call back into the protocol.
    flow: u32,
    attempts: u8,
}

/// Where a [`Ctx`]'s sends land.
enum Sink<'a, M> {
    /// The real engine path: messages go to the arena pool, handles to
    /// the node's queue. `flow_of` is the protocol's flow classifier as
    /// a plain fn pointer (it is an associated fn, so this devirtualizes
    /// back to a direct call at the single construction site).
    Pooled {
        pool: &'a mut MsgPool<M>,
        queue: &'a mut VecDeque<QueueEntry>,
        flow_of: fn(&M) -> usize,
    },
    /// Sandbox path ([`Ctx::sandbox`]): captured `(target, payload, msg)`
    /// triples for a wrapper protocol to re-frame.
    Scratch(&'a mut Vec<(Target, u32, M)>),
    /// Wrap path ([`Ctx::wrap`]): each send is re-framed into the outer
    /// message type and enqueued on the outer context right away.
    Wrapped(&'a mut (dyn Forward<M> + 'a)),
}

/// The outer side of a [`Ctx::wrap`]: frames a nested message and
/// enqueues it on the wrapping context.
trait Forward<N> {
    fn enqueue(&mut self, target: Target, payload_bytes: u32, msg: N) -> bool;
    fn queue_len(&self) -> usize;
}

struct Framer<'a, 'b, M, F> {
    outer: &'a mut Ctx<'b, M>,
    extra_bytes: u32,
    frame: F,
}

impl<N, M, F: FnMut(N) -> M> Forward<N> for Framer<'_, '_, M, F> {
    fn enqueue(&mut self, target: Target, payload_bytes: u32, msg: N) -> bool {
        self.outer
            .enqueue(target, payload_bytes + self.extra_bytes, (self.frame)(msg))
    }

    fn queue_len(&self) -> usize {
        self.outer.queue_len()
    }
}

/// Node-side API handed to protocol callbacks.
pub struct Ctx<'a, M> {
    /// This node's id.
    pub id: NodeId,
    /// Current transmission cycle.
    pub now: u64,
    topo: &'a Topology,
    sink: Sink<'a, M>,
    queue_capacity: usize,
    queue_drops: &'a mut u64,
    self_send_drops: &'a mut u64,
    header_bytes: u32,
}

impl<M> Ctx<'_, M> {
    /// Enqueue a unicast message to a (normally neighboring) node.
    /// `payload_bytes` excludes the link header, which the engine adds.
    /// Returns `false` if the message was rejected: queue full (counted in
    /// `queue_drops`) or self-addressed (counted in `self_send_drops` — a
    /// radio cannot unicast to itself, in any build profile).
    pub fn send(&mut self, to: NodeId, payload_bytes: u32, msg: M) -> bool {
        if to == self.id {
            *self.self_send_drops += 1;
            return false;
        }
        self.enqueue(Target::Unicast(to), payload_bytes, msg)
    }

    /// Enqueue a radio broadcast to all neighbors.
    pub fn broadcast(&mut self, payload_bytes: u32, msg: M) -> bool {
        self.enqueue(Target::Broadcast, payload_bytes, msg)
    }

    fn enqueue(&mut self, target: Target, payload_bytes: u32, msg: M) -> bool {
        let wire_bytes = payload_bytes + self.header_bytes;
        match &mut self.sink {
            Sink::Pooled {
                pool,
                queue,
                flow_of,
            } => {
                if queue.len() >= self.queue_capacity {
                    *self.queue_drops += 1;
                    return false;
                }
                let flow = flow_of(&msg) as u32;
                let handle = pool.alloc(msg);
                queue.push_back(QueueEntry {
                    handle,
                    target,
                    wire_bytes,
                    flow,
                    attempts: 0,
                });
                true
            }
            Sink::Scratch(items) => {
                if items.len() >= self.queue_capacity {
                    *self.queue_drops += 1;
                    return false;
                }
                items.push((target, payload_bytes, msg));
                true
            }
            Sink::Wrapped(fwd) => fwd.enqueue(target, payload_bytes, msg),
        }
    }

    pub fn neighbors(&self) -> &[NodeId] {
        self.topo.neighbors(self.id)
    }

    pub fn topology(&self) -> &Topology {
        self.topo
    }

    /// Messages currently queued at this node (diagnostic).
    pub fn queue_len(&self) -> usize {
        match &self.sink {
            Sink::Pooled { queue, .. } => queue.len(),
            Sink::Scratch(items) => items.len(),
            Sink::Wrapped(fwd) => fwd.queue_len(),
        }
    }

    /// Run a protocol callback that speaks a *nested* message type against
    /// a scratch context, capturing what it emitted instead of enqueueing
    /// it. This is how wrapper protocols (one instance hosting several
    /// inner protocol instances, e.g. the multi-query layer) reuse inner
    /// `Protocol` implementations unchanged: the wrapper re-frames each
    /// [`Emitted`] via [`Ctx::emit`], possibly aggregating several inner
    /// messages into one outer frame.
    ///
    /// Self-send rejection applies inside the sandbox (charged to this
    /// node's `self_send_drops`); the real queue-capacity check happens
    /// when the wrapper emits. Inside the callback, the capacity check and
    /// [`Ctx::queue_len`] see only the callback's own emissions, not the
    /// node's queue. A wrapper that re-frames one message at a time should
    /// use [`Ctx::wrap`] instead.
    pub fn sandbox<N, R>(&mut self, f: impl FnOnce(&mut Ctx<'_, N>) -> R) -> (R, Vec<Emitted<N>>) {
        let mut scratch: Vec<(Target, u32, N)> = Vec::new();
        let r = {
            let mut inner = Ctx {
                id: self.id,
                now: self.now,
                topo: self.topo,
                sink: Sink::Scratch(&mut scratch),
                queue_capacity: self.queue_capacity,
                queue_drops: &mut *self.queue_drops,
                self_send_drops: &mut *self.self_send_drops,
                header_bytes: self.header_bytes,
            };
            f(&mut inner)
        };
        let emitted = scratch
            .into_iter()
            .map(|(target, payload_bytes, msg)| Emitted {
                to: match target {
                    Target::Unicast(n) => Some(n),
                    Target::Broadcast => None,
                },
                payload_bytes,
                msg,
            })
            .collect();
        (r, emitted)
    }

    /// Run a protocol callback that speaks a *nested* message type,
    /// framing each of its sends with `frame` (adding `extra_bytes` of
    /// payload) and enqueueing it on this node's queue at once. Sends see
    /// the real queue: a full queue rejects them (counted once in
    /// `queue_drops`), [`Ctx::queue_len`] reports its true length, and a
    /// self-send is counted once in `self_send_drops`.
    pub fn wrap<N, R>(
        &mut self,
        extra_bytes: u32,
        frame: impl FnMut(N) -> M,
        f: impl FnOnce(&mut Ctx<'_, N>) -> R,
    ) -> R {
        let (id, now, topo) = (self.id, self.now, self.topo);
        let (queue_capacity, header_bytes) = (self.queue_capacity, self.header_bytes);
        // The outer context owns the drop counters while the framer
        // borrows it; inner self-sends are tallied here and added after.
        // (Inner capacity drops are charged by the outer enqueue.)
        let (mut self_send_drops, mut unused) = (0, 0);
        let r = {
            let mut framer = Framer {
                outer: &mut *self,
                extra_bytes,
                frame,
            };
            let mut inner = Ctx {
                id,
                now,
                topo,
                sink: Sink::Wrapped(&mut framer),
                queue_capacity,
                queue_drops: &mut unused,
                self_send_drops: &mut self_send_drops,
                header_bytes,
            };
            f(&mut inner)
        };
        *self.self_send_drops += self_send_drops;
        r
    }

    /// Enqueue a captured emission: unicast when `to` is `Some`, radio
    /// broadcast otherwise (the [`Emitted::to`] convention).
    pub fn emit(&mut self, to: Option<NodeId>, payload_bytes: u32, msg: M) -> bool {
        match to {
            Some(n) => self.send(n, payload_bytes, msg),
            None => self.broadcast(payload_bytes, msg),
        }
    }
}

impl<M: Clone> Ctx<'_, M> {
    /// Enqueue one message to several unicast targets while pooling its
    /// payload **once**: the queue holds one shared handle per accepted
    /// target and the engine clones only at delivery (the last delivery
    /// moves the message out). Per-target rejection — self-addressed or
    /// queue-full — counts exactly as the equivalent sequence of
    /// [`Ctx::send`] calls would. Returns the number of targets accepted.
    ///
    /// Use this for fan-out sends of an identical message (e.g. flooding
    /// a query down a routing tree) where `Ctx::send` in a loop would
    /// clone the message per recipient.
    pub fn send_many(&mut self, targets: &[NodeId], payload_bytes: u32, msg: M) -> usize {
        let wire_bytes = payload_bytes + self.header_bytes;
        match &mut self.sink {
            Sink::Pooled {
                pool,
                queue,
                flow_of,
            } => {
                // First pass: charge rejections and count acceptances so
                // the slot can be allocated with the exact owner count.
                let mut accepted = 0u32;
                let mut space = self.queue_capacity.saturating_sub(queue.len());
                for &to in targets {
                    if to == self.id {
                        *self.self_send_drops += 1;
                    } else if space == 0 {
                        *self.queue_drops += 1;
                    } else {
                        space -= 1;
                        accepted += 1;
                    }
                }
                if accepted == 0 {
                    return 0;
                }
                let flow = flow_of(&msg) as u32;
                let handle = pool.alloc_shared(msg, accepted);
                for &to in targets {
                    if to != self.id && queue.len() < self.queue_capacity {
                        queue.push_back(QueueEntry {
                            handle,
                            target: Target::Unicast(to),
                            wire_bytes,
                            flow,
                            attempts: 0,
                        });
                    }
                }
                accepted as usize
            }
            Sink::Scratch(items) => {
                let mut accepted = 0usize;
                for &to in targets {
                    if to == self.id {
                        *self.self_send_drops += 1;
                    } else if items.len() >= self.queue_capacity {
                        *self.queue_drops += 1;
                    } else {
                        items.push((Target::Unicast(to), payload_bytes, msg.clone()));
                        accepted += 1;
                    }
                }
                accepted
            }
            Sink::Wrapped(fwd) => {
                let mut accepted = 0usize;
                for &to in targets {
                    if to == self.id {
                        *self.self_send_drops += 1;
                    } else if fwd.enqueue(Target::Unicast(to), payload_bytes, msg.clone()) {
                        accepted += 1;
                    }
                }
                accepted
            }
        }
    }
}

/// A message captured by [`Ctx::sandbox`]: where it was headed and the
/// payload size its sender declared (link header excluded).
#[derive(Debug, Clone)]
pub struct Emitted<M> {
    /// `None` = radio broadcast to all neighbors.
    pub to: Option<NodeId>,
    pub payload_bytes: u32,
    pub msg: M,
}

/// A link-layer event produced by the transmit phase, dispatched in the
/// serial drain. `Copy`: messages stay in the pool, referenced by handle.
///
/// Handle-lifetime contract: every transmission ends its queue entry as
/// exactly one of {deferred retry (handle stays queued), `Deliver` with
/// `release`, `SendFailed` (always releases), `Free`}. A `k`-delivery
/// broadcast emits `k-1` non-releasing `Deliver`s (cloned at dispatch)
/// and one releasing one; a zero-delivery broadcast emits `Free`. Snoop
/// events never own a reference — they borrow the message of the
/// releasing `Deliver` that follows them.
#[derive(Debug, Clone, Copy)]
enum EventRec {
    Deliver {
        dst: NodeId,
        from: NodeId,
        handle: MsgHandle,
        wire_bytes: u32,
        flow: u32,
        /// Whether this delivery consumes a pool reference (the last — or
        /// only — delivery of the transmission's message).
        release: bool,
    },
    Snoop {
        snooper: NodeId,
        sender: NodeId,
        next_hop: NodeId,
        handle: MsgHandle,
    },
    SendFailed {
        sender: NodeId,
        to: NodeId,
        handle: MsgHandle,
    },
    /// A transmission whose message reached nobody (zero-delivery
    /// broadcast): drop its pool reference in dispatch order.
    Free { handle: MsgHandle },
}

/// Reusable per-node fair-MAC scratch (see the schedule derivation in
/// [`fair_schedule`]) plus the deferred-retry staging buffer.
#[derive(Default)]
struct TxScratch {
    /// Per-flow ordinal counters, cleared via `touched` after each node.
    seen: Vec<u32>,
    /// Flows to clear in `seen`.
    touched: Vec<usize>,
    /// The cycle's service schedule: (within-flow ordinal, queue pos).
    sched: Vec<(u32, u32)>,
    /// (pos, rank) extraction order for the non-prefix schedule path.
    order: Vec<(u32, usize)>,
    /// Entries pulled out of the queue, indexed by schedule rank.
    picked: Vec<Option<QueueEntry>>,
    /// Lost unicasts awaiting retransmission next cycle.
    deferred: Vec<QueueEntry>,
}

/// Per-chunk output buffers for the parallel transmit phase, merged back
/// in chunk order. Persisted on the engine so steady-state steps do not
/// allocate.
#[derive(Default)]
struct ChunkScratch {
    events: Vec<EventRec>,
    /// Chunk-local per-flow traffic deltas (dense, grown on demand like
    /// the global table).
    flows: Vec<FlowMetrics>,
    tx: TxScratch,
}

/// Immutable per-cycle inputs shared by every transmit worker.
struct TxEnv<'a> {
    topo: &'a Topology,
    cfg: &'a SimConfig,
    alive: &'a [bool],
    snoop: bool,
}

/// The simulator: owns the topology, one protocol instance per node, and
/// all link-layer state, laid out structure-of-arrays (parallel `Vec`s
/// indexed by node) with messages in a shared arena pool.
pub struct Engine<P: Protocol> {
    topo: Topology,
    cfg: SimConfig,
    nodes: Vec<P>,
    outboxes: Vec<VecDeque<QueueEntry>>,
    pool: MsgPool<P::Msg>,
    alive: Vec<bool>,
    metrics: Metrics,
    rng: StdRng,
    now: u64,
    /// Event buffer reused across [`Engine::step`] calls so the hot path
    /// does not allocate a fresh `Vec` every transmission cycle.
    events: Vec<EventRec>,
    /// Transmit-phase scratch for the sequential path.
    tx_scratch: TxScratch,
    /// Per-chunk buffers for the parallel path.
    chunks: Vec<ChunkScratch>,
    /// Nodes killed by energy-budget depletion, in death order.
    energy_depleted: Vec<NodeId>,
    /// Messages discarded from depleted nodes' queues.
    energy_msgs_dropped: u64,
}

impl<P: Protocol> Engine<P> {
    /// Build an engine; `make_node` constructs the protocol instance for
    /// each node id.
    pub fn new(topo: Topology, cfg: SimConfig, mut make_node: impl FnMut(NodeId) -> P) -> Self {
        let n = topo.len();
        let nodes = (0..n).map(|i| make_node(NodeId(i as u16))).collect();
        Engine {
            nodes,
            outboxes: (0..n).map(|_| VecDeque::new()).collect(),
            pool: MsgPool::new(),
            alive: vec![true; n],
            metrics: Metrics::new(n),
            rng: StdRng::seed_from_u64(cfg.seed ^ 0x51e6_0e0f_ca11),
            now: 0,
            events: Vec::new(),
            tx_scratch: TxScratch::default(),
            chunks: Vec::new(),
            energy_depleted: Vec::new(),
            energy_msgs_dropped: 0,
            topo,
            cfg,
        }
    }

    pub fn topology(&self) -> &Topology {
        &self.topo
    }

    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    pub fn now(&self) -> u64 {
        self.now
    }

    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Zero all traffic counters (phase boundaries: initiation vs
    /// computation cost are reported separately in the paper).
    pub fn reset_metrics(&mut self) {
        self.metrics = Metrics::new(self.topo.len());
    }

    /// Rewind the clock to zero at a phase boundary (all queues must be
    /// drained). Sampling-cycle `c` then starts at transmission cycle
    /// `c * tx_per_sampling_cycle`, which result-latency accounting
    /// relies on.
    pub fn reset_clock(&mut self) {
        assert!(!self.in_flight(), "cannot rewind the clock mid-flight");
        self.now = 0;
    }

    pub fn node(&self, id: NodeId) -> &P {
        &self.nodes[id.index()]
    }

    pub fn node_mut(&mut self, id: NodeId) -> &mut P {
        &mut self.nodes[id.index()]
    }

    pub fn nodes(&self) -> &[P] {
        &self.nodes
    }

    pub fn is_alive(&self, id: NodeId) -> bool {
        self.alive[id.index()]
    }

    /// Permanently fail a node (§7): its queue is discarded and it neither
    /// transmits nor receives from now on. Returns the number of queued
    /// messages discarded with it (traffic lost in transit to the failure).
    pub fn kill(&mut self, id: NodeId) -> usize {
        self.alive[id.index()] = false;
        let q = &mut self.outboxes[id.index()];
        let dropped = q.len();
        for e in q.drain(..) {
            self.pool.release(e.handle);
        }
        dropped
    }

    /// Change the link-loss probability mid-run (environmental shifts and
    /// the dynamics plans' loss ramps).
    pub fn set_loss_prob(&mut self, p: f64) {
        assert!((0.0..1.0).contains(&p), "loss probability must be in [0,1)");
        self.cfg.loss_prob = p;
    }

    /// Any messages still queued anywhere?
    pub fn in_flight(&self) -> bool {
        self.outboxes.iter().any(|q| !q.is_empty())
    }

    /// Total messages queued network-wide (conservation accounting).
    pub fn queued_msgs(&self) -> usize {
        self.outboxes.iter().map(VecDeque::len).sum()
    }

    /// Live messages in the arena pool (diagnostic; leak detection). At
    /// quiescence — queues empty, events drained — this is zero. It can
    /// be *less* than [`Engine::queued_msgs`] when fan-out entries from
    /// [`Ctx::send_many`] share one pooled message.
    pub fn pooled_msgs(&self) -> usize {
        self.pool.live()
    }

    /// Nodes that died of energy-budget depletion so far, in death order
    /// (empty unless [`SimConfig::energy_budget_bytes`] is set).
    pub fn energy_depleted(&self) -> &[NodeId] {
        &self.energy_depleted
    }

    /// Messages discarded from energy-depleted nodes' queues.
    pub fn energy_msgs_dropped(&self) -> u64 {
        self.energy_msgs_dropped
    }

    /// Invoke a protocol entry point "from outside" (harness-driven events
    /// such as posing a query at the base station).
    pub fn with_node<R>(
        &mut self,
        id: NodeId,
        f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>) -> R,
    ) -> R {
        let mut drops = 0u64;
        let mut self_sends = 0u64;
        let r = {
            let mut ctx = Ctx {
                id,
                now: self.now,
                topo: &self.topo,
                sink: Sink::Pooled {
                    pool: &mut self.pool,
                    queue: &mut self.outboxes[id.index()],
                    flow_of: P::flow_of,
                },
                queue_capacity: self.cfg.queue_capacity,
                queue_drops: &mut drops,
                self_send_drops: &mut self_sends,
                header_bytes: self.cfg.header_bytes,
            };
            f(&mut self.nodes[id.index()], &mut ctx)
        };
        let m = self.metrics.node_mut(id);
        m.queue_drops += drops;
        m.self_send_drops += self_sends;
        r
    }

    /// Advance one transmission cycle: every alive node transmits up to its
    /// MAC budget, then deliveries/snoops/failures are dispatched in
    /// deterministic order. With [`SimConfig::threads`] > 1 the transmit
    /// phase runs chunk-parallel; the outcome is byte-identical either way
    /// (see the module docs for the determinism contract).
    pub fn step(&mut self) {
        let threads = self.resolve_threads();
        if threads <= 1 {
            self.step_serial();
        } else {
            self.step_parallel(threads);
        }
    }

    /// Effective intra-run worker count: [`SimConfig::threads`] with 0
    /// mapped to the machine's available parallelism, capped at the node
    /// count.
    fn resolve_threads(&self) -> usize {
        let t = match self.cfg.threads {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            t => t,
        };
        t.clamp(1, self.topo.len().max(1))
    }

    fn step_serial(&mut self) {
        // The event buffer persists across steps (capacity reuse); it is
        // always drained before `step` returns, so it starts empty here.
        let mut events = std::mem::take(&mut self.events);
        debug_assert!(events.is_empty());

        {
            // Split the borrow so neighbor slices, the RNG and the metrics
            // can be used together without per-broadcast Vec copies.
            let Engine {
                topo,
                cfg,
                outboxes,
                alive,
                metrics,
                rng,
                tx_scratch,
                ..
            } = self;
            let env = TxEnv {
                topo: &*topo,
                cfg: &*cfg,
                alive: &alive[..],
                snoop: cfg.snooping && P::WANTS_SNOOP,
            };
            let (per_node, flows) = metrics.parts_mut();
            for i in 0..env.topo.len() {
                if !env.alive[i] {
                    continue;
                }
                transmit_node(
                    &env,
                    i,
                    &mut outboxes[i],
                    &mut per_node[i],
                    flows,
                    rng,
                    &mut events,
                    tx_scratch,
                );
            }
        }

        self.drain_events(events);
    }

    /// The chunk-parallel transmit phase. Alive nodes are partitioned into
    /// `threads` contiguous index ranges; each worker gets disjoint
    /// `&mut` slices of the queue and per-node metric arrays (messages
    /// stay in the pool, untouched, so `P::Msg` needs no `Send` bound),
    /// its own RNG stream positioned by the draw-count prepass, and
    /// chunk-local event/flow buffers that merge back in chunk order.
    fn step_parallel(&mut self, threads: usize) {
        let mut events = std::mem::take(&mut self.events);
        debug_assert!(events.is_empty());

        {
            let Engine {
                topo,
                cfg,
                outboxes,
                alive,
                metrics,
                rng,
                tx_scratch,
                chunks,
                ..
            } = self;
            let n = topo.len();
            let env = TxEnv {
                topo: &*topo,
                cfg: &*cfg,
                alive: &alive[..],
                snoop: cfg.snooping && P::WANTS_SNOOP,
            };
            let chunk_len = n.div_ceil(threads);
            if chunks.len() < threads {
                chunks.resize_with(threads, ChunkScratch::default);
            }
            // Serial draw-count prepass: each chunk's RNG stream is the
            // master stream advanced past the loss draws of every node
            // before the chunk. Offsets accumulate in *node* order, so
            // they are independent of the partition — the foundation of
            // the thread-count invariance contract.
            let mut chunk_rngs: Vec<StdRng> = Vec::with_capacity(threads);
            let mut total_draws = 0u64;
            if cfg.loss_prob > 0.0 {
                let mut cursor = rng.clone();
                for c in 0..threads {
                    chunk_rngs.push(cursor.clone());
                    let start = (c * chunk_len).min(n);
                    let end = ((c + 1) * chunk_len).min(n);
                    let mut draws = 0u64;
                    for (i, queue) in outboxes.iter().enumerate().take(end).skip(start) {
                        if env.alive[i] {
                            draws += count_draws(&env, i, queue, tx_scratch);
                        }
                    }
                    skip_draws(&mut cursor, draws);
                    total_draws += draws;
                }
            } else {
                // No loss => no draws anywhere: every chunk stream is an
                // (untouched) clone of the master.
                chunk_rngs.resize_with(threads, || rng.clone());
            }
            let (per_node, flows) = metrics.parts_mut();
            let mut q_rest: &mut [VecDeque<QueueEntry>] = outboxes;
            let mut m_rest: &mut [NodeMetrics] = per_node;
            let env_ref = &env;
            std::thread::scope(|s| {
                let mut start = 0usize;
                for (cs, mut chunk_rng) in chunks[..threads].iter_mut().zip(chunk_rngs) {
                    let len = chunk_len.min(n - start);
                    let (q_chunk, q_tail) = q_rest.split_at_mut(len);
                    q_rest = q_tail;
                    let (m_chunk, m_tail) = m_rest.split_at_mut(len);
                    m_rest = m_tail;
                    let base = start;
                    start += len;
                    s.spawn(move || {
                        cs.events.clear();
                        for (li, (q, m)) in q_chunk.iter_mut().zip(m_chunk.iter_mut()).enumerate() {
                            let i = base + li;
                            if !env_ref.alive[i] {
                                continue;
                            }
                            transmit_node(
                                env_ref,
                                i,
                                q,
                                m,
                                &mut cs.flows,
                                &mut chunk_rng,
                                &mut cs.events,
                                &mut cs.tx,
                            );
                        }
                    });
                }
            });
            // The master stream jumps past the whole cycle's draws, as if
            // it had made them itself.
            skip_draws(rng, total_draws);
            // Merge chunk outputs in chunk order: the concatenated event
            // list and the summed flow tables are exactly what the
            // sequential pass over the same node order produces.
            for cs in &mut chunks[..threads] {
                events.append(&mut cs.events);
                for (f, d) in cs.flows.iter().enumerate() {
                    let slot = flow_slot(flows, f);
                    slot.tx_bytes += d.tx_bytes;
                    slot.tx_msgs += d.tx_msgs;
                    slot.rx_bytes += d.rx_bytes;
                    slot.rx_msgs += d.rx_msgs;
                }
                cs.flows.clear();
            }
        }

        self.drain_events(events);
    }

    /// Dispatch the cycle's events in deterministic order, materializing
    /// messages out of the pool: `release` deliveries move (last owner)
    /// or clone, snoops borrow the pooled message, and references owed by
    /// dead endpoints are still dropped.
    fn drain_events(&mut self, mut events: Vec<EventRec>) {
        self.now += 1;
        for ev in events.drain(..) {
            match ev {
                EventRec::Deliver {
                    dst,
                    from,
                    handle,
                    wire_bytes,
                    flow,
                    release,
                } => {
                    if !self.alive[dst.index()] {
                        // The receiver died between transmit and dispatch;
                        // its pool reference is still owed.
                        if release {
                            self.pool.release(handle);
                        }
                        continue;
                    }
                    {
                        let m = self.metrics.node_mut(dst);
                        m.rx_bytes += wire_bytes as u64;
                        m.rx_msgs += 1;
                        let fm = self.metrics.flow_mut(flow as usize);
                        fm.rx_bytes += wire_bytes as u64;
                        fm.rx_msgs += 1;
                    }
                    let msg = if release {
                        self.pool.consume(handle)
                    } else {
                        self.pool.clone_at(handle)
                    };
                    self.dispatch(dst, |p, ctx| p.on_message(ctx, from, msg));
                }
                EventRec::Snoop {
                    snooper,
                    sender,
                    next_hop,
                    handle,
                } => {
                    if !self.alive[snooper.index()] {
                        continue;
                    }
                    // Borrow-by-move: the slot sits empty during the
                    // callback (which may allocate into the pool), then
                    // the message comes back for the next snooper or the
                    // releasing delivery behind it.
                    let msg = self.pool.take(handle);
                    self.dispatch(snooper, |p, ctx| p.on_snoop(ctx, sender, next_hop, &msg));
                    self.pool.put_back(handle, msg);
                }
                EventRec::SendFailed { sender, to, handle } => {
                    if !self.alive[sender.index()] {
                        self.pool.release(handle);
                        continue;
                    }
                    let msg = self.pool.consume(handle);
                    self.dispatch(sender, |p, ctx| p.on_send_failed(ctx, to, msg));
                }
                EventRec::Free { handle } => self.pool.release(handle),
            }
        }
        self.events = events;
    }

    fn dispatch(&mut self, id: NodeId, f: impl FnOnce(&mut P, &mut Ctx<'_, P::Msg>)) {
        let mut drops = 0u64;
        let mut self_sends = 0u64;
        {
            let mut ctx = Ctx {
                id,
                now: self.now,
                topo: &self.topo,
                sink: Sink::Pooled {
                    pool: &mut self.pool,
                    queue: &mut self.outboxes[id.index()],
                    flow_of: P::flow_of,
                },
                queue_capacity: self.cfg.queue_capacity,
                queue_drops: &mut drops,
                self_send_drops: &mut self_sends,
                header_bytes: self.cfg.header_bytes,
            };
            f(&mut self.nodes[id.index()], &mut ctx);
        }
        let m = self.metrics.node_mut(id);
        m.queue_drops += drops;
        m.self_send_drops += self_sends;
    }

    /// Run transmission cycles until no message is queued anywhere, or the
    /// cycle budget is exhausted. Returns the number of cycles consumed.
    pub fn run_until_quiet(&mut self, max_cycles: u64) -> u64 {
        let start = self.now;
        while self.in_flight() && self.now - start < max_cycles {
            self.step();
        }
        self.now - start
    }

    /// Enforce the per-node energy budget: any alive non-base node whose
    /// cumulative radio load (TX + RX bytes since the last metrics reset)
    /// has reached [`SimConfig::energy_budget_bytes`] dies now. Fired at
    /// sampling-cycle boundaries.
    fn enforce_energy_budget(&mut self) {
        let budget = self.cfg.energy_budget_bytes;
        if budget == 0 {
            return;
        }
        let base = self.topo.base();
        for i in 0..self.topo.len() {
            let id = NodeId(i as u16);
            if id == base || !self.alive[i] {
                continue;
            }
            if self.metrics.node(id).load_bytes() >= budget {
                self.energy_msgs_dropped += self.kill(id) as u64;
                self.energy_depleted.push(id);
            }
        }
    }

    /// Run one *sampling* cycle: fire `on_sampling_cycle` at every alive
    /// node, then advance `tx_per_sampling_cycle` transmission cycles.
    pub fn sampling_cycle(&mut self, cycle: u32) {
        // Anchor the period at the clock's value on entry: the fast-forward
        // below must land on `start + tx_per_sampling_cycle` even when the
        // clock was not reset on a phase boundary (a `now % period`
        // computation would misalign for non-zero starting clocks).
        let start = self.now;
        self.enforce_energy_budget();
        for i in 0..self.topo.len() {
            if self.alive[i] {
                self.dispatch(NodeId(i as u16), |p, ctx| p.on_sampling_cycle(ctx, cycle));
            }
        }
        for _ in 0..self.cfg.tx_per_sampling_cycle {
            self.step();
            if !self.in_flight() {
                // Fast-forward idle remainder of the sampling period; no
                // protocol acts between transmissions, so skipping idle
                // cycles only adjusts the clock.
                self.now = start + self.cfg.tx_per_sampling_cycle as u64;
                break;
            }
        }
    }
}

/// Dense per-flow slot in a detached flow table, grown on demand
/// (mirrors `Metrics::flow_mut`).
fn flow_slot(flows: &mut Vec<FlowMetrics>, flow: usize) -> &mut FlowMetrics {
    if flow >= flows.len() {
        flows.resize_with(flow + 1, FlowMetrics::default);
    }
    &mut flows[flow]
}

/// Advance `rng` past `n` loss draws (each `f64` draw consumes exactly
/// one `next_u64` of the underlying stream).
fn skip_draws(rng: &mut StdRng, n: u64) {
    for _ in 0..n {
        let _ = rng.next_u64();
    }
}

/// Compute a node's fair-MAC service schedule for this cycle into
/// `tx.sched`: the first `cap` queue entries ordered by (within-flow
/// ordinal, queue position). Serving the earliest message of the
/// least-served flow each slot is equivalent to that sort, because after
/// `k` rounds every flow's next candidate is its `k`-th queued message.
/// One capped scan per cycle replaces the per-slot O(queue) scan +
/// O(queue) `VecDeque::remove(idx)` of the old picker.
fn fair_schedule(queue: &VecDeque<QueueEntry>, cap: usize, tx: &mut TxScratch) {
    tx.sched.clear();
    for (pos, e) in queue.iter().enumerate() {
        let f = e.flow as usize;
        if f >= tx.seen.len() {
            tx.seen.resize(f + 1, 0);
        }
        let k = tx.seen[f];
        if k as usize >= cap {
            // This flow already holds every slot it could win; read-only
            // skip keeps the long-tail scan store-free.
            continue;
        }
        tx.seen[f] = k + 1;
        if k == 0 {
            tx.touched.push(f);
        }
        let key = (k, pos as u32);
        if tx.sched.len() == cap {
            let &worst = tx.sched.last().expect("cap > 0");
            if key >= worst {
                continue;
            }
            tx.sched.pop();
            let at = tx.sched.partition_point(|&s| s < key);
            tx.sched.insert(at, key);
        } else if tx.sched.last().is_none_or(|&s| s <= key) {
            // Keys arrive position-ascending, so the fill phase is almost
            // always a plain append.
            tx.sched.push(key);
        } else {
            let at = tx.sched.partition_point(|&s| s < key);
            tx.sched.insert(at, key);
        }
        // Every slot is claimed by a never-served flow: no later entry
        // can displace one (same ordinal, higher position), so stop
        // scanning.
        if tx.sched.len() == cap && tx.sched[cap - 1].0 == 0 {
            break;
        }
    }
    for f in tx.touched.drain(..) {
        tx.seen[f] = 0;
    }
}

/// Transmit one node's MAC budget for this cycle. Shared verbatim by the
/// sequential and chunk-parallel paths, and protocol-independent (flow
/// tags and wire sizes ride in the queue entries; messages stay pooled),
/// so it monomorphizes once for the whole workspace.
#[allow(clippy::too_many_arguments)]
fn transmit_node(
    env: &TxEnv<'_>,
    i: usize,
    queue: &mut VecDeque<QueueEntry>,
    node_m: &mut NodeMetrics,
    flows: &mut Vec<FlowMetrics>,
    rng: &mut StdRng,
    events: &mut Vec<EventRec>,
    tx: &mut TxScratch,
) {
    let cfg = env.cfg;
    let sender = NodeId(i as u16);
    let mut budget = cfg.tx_per_cycle;
    // Fair MAC: each slot goes to the queued message of the least-served
    // flow this cycle (FIFO within a flow, and plain FIFO when every
    // message is the same flow).
    let use_fair = cfg.fair_mac && queue.len() > 1 && budget > 0;
    if use_fair {
        fair_schedule(queue, budget, tx);
        if tx.sched.iter().enumerate().all(|(r, s)| s.1 as usize == r) {
            // Common case: the schedule serves the queue head `k` times
            // (distinct flows up front, or one flow throughout) — serve
            // lazily via pop_front.
            tx.picked.clear();
        } else {
            // Pull scheduled entries out highest-position-first so earlier
            // indices stay valid, then serve them in schedule order.
            tx.order.clear();
            tx.order
                .extend(tx.sched.iter().enumerate().map(|(rank, &(_, p))| (p, rank)));
            tx.order
                .sort_unstable_by_key(|&(pos, _)| std::cmp::Reverse(pos));
            tx.picked.clear();
            tx.picked.resize(tx.sched.len(), None);
            for &(pos, rank) in &tx.order {
                let e = queue.remove(pos as usize).expect("scheduled entry");
                tx.picked[rank] = Some(e);
            }
        }
    }
    // Lost unicasts awaiting retransmission rejoin the queue head only
    // after the node's loop, so a lossy link consumes exactly one attempt
    // per message per cycle (the link-ACK model: the retry happens in a
    // *later* cycle) and the remaining budget serves the messages behind.
    let mut rank = 0usize;
    while budget > 0 {
        let mut e = if use_fair {
            if rank == tx.sched.len() {
                break;
            }
            rank += 1;
            if tx.picked.is_empty() {
                queue.pop_front().expect("scheduled entry")
            } else {
                tx.picked[rank - 1].take().expect("unserved schedule slot")
            }
        } else {
            match queue.pop_front() {
                Some(e) => e,
                None => break,
            }
        };
        budget -= 1;
        // Charge the attempt.
        node_m.tx_bytes += e.wire_bytes as u64;
        node_m.tx_msgs += 1;
        let fm = flow_slot(flows, e.flow as usize);
        fm.tx_bytes += e.wire_bytes as u64;
        fm.tx_msgs += 1;
        match e.target {
            Target::Unicast(to) => {
                let receiver_ok = env.alive[to.index()];
                let lost = cfg.loss_prob > 0.0 && rng.random::<f64>() < cfg.loss_prob;
                if receiver_ok && !lost {
                    if env.snoop {
                        for &nb in env.topo.neighbors(sender) {
                            if nb != to && env.alive[nb.index()] {
                                events.push(EventRec::Snoop {
                                    snooper: nb,
                                    sender,
                                    next_hop: to,
                                    handle: e.handle,
                                });
                            }
                        }
                    }
                    events.push(EventRec::Deliver {
                        dst: to,
                        from: sender,
                        handle: e.handle,
                        wire_bytes: e.wire_bytes,
                        flow: e.flow,
                        release: true,
                    });
                } else if e.attempts < cfg.max_retries {
                    e.attempts += 1;
                    tx.deferred.push(e);
                } else {
                    node_m.send_failures += 1;
                    events.push(EventRec::SendFailed {
                        sender,
                        to,
                        handle: e.handle,
                    });
                }
            }
            Target::Broadcast => {
                let mark = events.len();
                for &nb in env.topo.neighbors(sender) {
                    if !env.alive[nb.index()] {
                        continue;
                    }
                    let lost = cfg.loss_prob > 0.0 && rng.random::<f64>() < cfg.loss_prob;
                    if !lost {
                        events.push(EventRec::Deliver {
                            dst: nb,
                            from: sender,
                            handle: e.handle,
                            wire_bytes: e.wire_bytes,
                            flow: e.flow,
                            release: false,
                        });
                    }
                }
                if events.len() > mark {
                    // The last delivery consumes the broadcast's pool
                    // reference.
                    if let Some(EventRec::Deliver { release, .. }) = events.last_mut() {
                        *release = true;
                    }
                } else {
                    // Zero deliveries: the reference is still owed.
                    events.push(EventRec::Free { handle: e.handle });
                }
            }
        }
    }
    // Retries go back to the queue *head* in their original order,
    // keeping link-layer FIFO semantics for next cycle.
    for e in tx.deferred.drain(..).rev() {
        queue.push_front(e);
    }
}

/// Count the loss draws node `i`'s transmissions will make this cycle:
/// one per served unicast attempt, one per alive neighbor for a served
/// broadcast (the caller guarantees `loss_prob > 0`; with zero loss
/// nothing draws). This is the parallel prepass that positions each
/// chunk's RNG stream without mutating any queue.
fn count_draws(env: &TxEnv<'_>, i: usize, queue: &VecDeque<QueueEntry>, tx: &mut TxScratch) -> u64 {
    let budget = env.cfg.tx_per_cycle;
    if budget == 0 || queue.is_empty() {
        return 0;
    }
    let sender = NodeId(i as u16);
    let mut bcast_draws = u64::MAX; // lazily counted once per node
    let mut draws = 0u64;
    let use_fair = env.cfg.fair_mac && queue.len() > 1;
    if use_fair {
        fair_schedule(queue, budget, tx);
        for &(_, pos) in &tx.sched {
            draws += match queue[pos as usize].target {
                Target::Unicast(_) => 1,
                Target::Broadcast => {
                    if bcast_draws == u64::MAX {
                        bcast_draws = env
                            .topo
                            .neighbors(sender)
                            .iter()
                            .filter(|nb| env.alive[nb.index()])
                            .count() as u64;
                    }
                    bcast_draws
                }
            };
        }
    } else {
        for e in queue.iter().take(budget) {
            draws += match e.target {
                Target::Unicast(_) => 1,
                Target::Broadcast => {
                    if bcast_draws == u64::MAX {
                        bcast_draws = env
                            .topo
                            .neighbors(sender)
                            .iter()
                            .filter(|nb| env.alive[nb.index()])
                            .count() as u64;
                    }
                    bcast_draws
                }
            };
        }
    }
    draws
}

#[cfg(test)]
mod tests {
    use super::*;
    use sensor_net::Point;

    fn line(n: usize) -> Topology {
        let pts = (0..n).map(|i| Point::new(i as f64, 0.0)).collect();
        Topology::from_positions(pts, 1.1, NodeId(0))
    }

    /// Toy protocol: forwards a counter message rightward along a line,
    /// recording arrival time.
    struct Relay {
        arrived_at: Option<u64>,
    }

    impl Protocol for Relay {
        type Msg = u32;
        fn on_message(&mut self, ctx: &mut Ctx<'_, u32>, _from: NodeId, msg: u32) {
            let next = NodeId(ctx.id.0 + 1);
            if (next.index()) < ctx.topology().len() {
                ctx.send(next, 4, msg);
            } else {
                self.arrived_at = Some(ctx.now);
            }
        }
    }

    #[test]
    fn one_hop_per_cycle_latency() {
        let mut eng = Engine::new(line(5), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 7);
        });
        let cycles = eng.run_until_quiet(100);
        // 4 hops: 0->1->2->3->4.
        assert_eq!(cycles, 4);
        assert_eq!(eng.node(NodeId(4)).arrived_at, Some(4));
    }

    #[test]
    fn tx_bytes_charged_per_hop() {
        let mut eng = Engine::new(line(4), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.run_until_quiet(100);
        let per_hop = (4 + SimConfig::default().header_bytes) as u64;
        assert_eq!(eng.metrics().total_tx_bytes(), 3 * per_hop);
        assert_eq!(eng.metrics().node(NodeId(1)).rx_bytes, per_hop);
        assert_eq!(eng.metrics().node(NodeId(3)).tx_bytes, 0);
    }

    #[test]
    fn loss_causes_retransmission_and_extra_bytes() {
        let cfg = SimConfig::default().with_loss(0.5).with_seed(3);
        let mut eng = Engine::new(line(2), cfg, |_| Relay { arrived_at: None });
        for _ in 0..50 {
            eng.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), 4, 1);
            });
        }
        eng.run_until_quiet(10_000);
        let m = eng.metrics();
        // With 50% loss the sender must transmit strictly more attempts
        // than messages received.
        assert!(m.node(NodeId(0)).tx_msgs > m.node(NodeId(1)).rx_msgs);
    }

    #[test]
    fn dead_receiver_triggers_send_failed() {
        struct F {
            failed: bool,
        }
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_send_failed(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                self.failed = true;
            }
        }
        let mut eng = Engine::new(line(2), SimConfig::lossless(), |_| F { failed: false });
        eng.kill(NodeId(1));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 0, ());
        });
        eng.run_until_quiet(100);
        assert!(eng.node(NodeId(0)).failed);
        assert_eq!(eng.metrics().total_send_failures(), 1);
        // All retry attempts were still charged.
        assert_eq!(
            eng.metrics().node(NodeId(0)).tx_msgs,
            1 + SimConfig::default().max_retries as u64
        );
    }

    #[test]
    fn queue_overflow_drops() {
        struct Q;
        impl Protocol for Q {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        let cfg = SimConfig::lossless().with_queue_capacity(2);
        let mut eng = Engine::new(line(2), cfg, |_| Q);
        let oks: Vec<bool> = (0..4)
            .map(|_| eng.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(1), 0, ())))
            .collect();
        assert_eq!(oks, vec![true, true, false, false]);
        assert_eq!(eng.metrics().node(NodeId(0)).queue_drops, 2);
    }

    #[test]
    fn broadcast_reaches_all_neighbors_with_one_charge() {
        struct B {
            got: u32,
        }
        impl Protocol for B {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                self.got += 1;
            }
        }
        // Star: center node 0 with 3 leaves.
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(0.0, 1.0),
            Point::new(-1.0, 0.0),
        ];
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let mut eng = Engine::new(topo, SimConfig::lossless(), |_| B { got: 0 });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.broadcast(4, ());
        });
        eng.run_until_quiet(10);
        assert_eq!(eng.metrics().node(NodeId(0)).tx_msgs, 1);
        for i in 1..4 {
            assert_eq!(eng.node(NodeId(i)).got, 1);
        }
    }

    #[test]
    fn snooping_fires_for_bystanders_only_when_enabled() {
        struct S {
            snooped: u32,
        }
        impl Protocol for S {
            type Msg = ();
            const WANTS_SNOOP: bool = true;
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
            fn on_snoop(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: NodeId, _: &()) {
                self.snooped += 1;
            }
        }
        let run = |snoop: bool| {
            let mut eng = Engine::new(line(3), SimConfig::lossless().with_snooping(snoop), |_| S {
                snooped: 0,
            });
            // 1 -> 2; node 0 is a bystander neighbor of 1.
            eng.with_node(NodeId(1), |_, ctx| {
                ctx.send(NodeId(2), 0, ());
            });
            eng.run_until_quiet(10);
            eng.node(NodeId(0)).snooped
        };
        assert_eq!(run(true), 1);
        assert_eq!(run(false), 0);
    }

    #[test]
    fn determinism_same_seed_same_metrics() {
        let run = |seed| {
            let cfg = SimConfig::default().with_loss(0.3).with_seed(seed);
            let mut eng = Engine::new(line(6), cfg, |_| Relay { arrived_at: None });
            for _ in 0..10 {
                eng.with_node(NodeId(0), |_, ctx| {
                    ctx.send(NodeId(1), 4, 1);
                });
            }
            eng.run_until_quiet(10_000);
            eng.metrics().total_tx_bytes()
        };
        assert_eq!(run(5), run(5));
        assert_ne!(run(5), run(6)); // overwhelmingly likely under 30% loss
    }

    #[test]
    fn sampling_cycle_advances_clock_in_full_periods() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.sampling_cycle(0);
        assert_eq!(eng.now() % 100, 0);
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.sampling_cycle(1);
        assert_eq!(eng.now() % 100, 0);
        assert!(!eng.in_flight());
    }

    /// Regression (ISSUE 2 headline): a lost unicast must consume exactly
    /// one transmission attempt per cycle. Before the fix, the retried
    /// message was `push_front`ed and re-popped by the same budget loop, so
    /// one lossy link burned all `max_retries` attempts plus the node's
    /// whole `tx_per_cycle` budget within a single cycle.
    #[test]
    fn lost_unicast_consumes_one_attempt_per_cycle() {
        struct F;
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        // A dead receiver forces every attempt to fail deterministically.
        let cfg = SimConfig::lossless(); // tx_per_cycle = 4, max_retries = 3
        let mut eng = Engine::new(line(3), cfg, |_| F);
        eng.kill(NodeId(1));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 0, ());
        });
        // One attempt per cycle: 1 + max_retries cycles until abandonment.
        for cycle in 1..=4u64 {
            assert!(
                eng.in_flight(),
                "message still pending before cycle {cycle}"
            );
            eng.step();
            assert_eq!(
                eng.metrics().node(NodeId(0)).tx_msgs,
                cycle,
                "exactly one attempt per cycle"
            );
        }
        assert!(!eng.in_flight());
        assert_eq!(eng.metrics().total_send_failures(), 1);
    }

    /// The deferred retry must not block the rest of the cycle's budget:
    /// other queued messages still transmit in the same cycle.
    #[test]
    fn deferred_retry_leaves_budget_for_other_messages() {
        struct F;
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {}
        }
        // Star: node 0 neighbors 1 (dead) and 2 (alive).
        let pts = vec![
            Point::new(0.0, 0.0),
            Point::new(1.0, 0.0),
            Point::new(-1.0, 0.0),
        ];
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let mut eng = Engine::new(topo, SimConfig::lossless(), |_| F);
        eng.kill(NodeId(1));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 0, ()); // head of queue, will be deferred
            ctx.send(NodeId(2), 0, ()); // must still go out this cycle
        });
        eng.step();
        // Two attempts this cycle: the failed one to 1 and the delivery to 2.
        assert_eq!(eng.metrics().node(NodeId(0)).tx_msgs, 2);
        assert_eq!(eng.metrics().node(NodeId(2)).rx_msgs, 1);
        // The retry is still queued for the next cycle.
        assert!(eng.in_flight());
    }

    /// Self-addressed unicasts are rejected in every build profile: charged
    /// nothing, delivered nowhere, counted in `self_send_drops`.
    #[test]
    fn self_send_rejected_and_counted() {
        struct F {
            got: u32,
        }
        impl Protocol for F {
            type Msg = ();
            fn on_message(&mut self, _: &mut Ctx<'_, ()>, _: NodeId, _: ()) {
                self.got += 1;
            }
        }
        let mut eng = Engine::new(line(2), SimConfig::lossless(), |_| F { got: 0 });
        let ok = eng.with_node(NodeId(0), |_, ctx| ctx.send(NodeId(0), 4, ()));
        assert!(!ok);
        assert!(!eng.in_flight());
        eng.run_until_quiet(10);
        assert_eq!(eng.node(NodeId(0)).got, 0);
        let m = eng.metrics().node(NodeId(0));
        assert_eq!(m.tx_msgs, 0);
        assert_eq!(m.self_send_drops, 1);
        assert_eq!(eng.metrics().total_self_send_drops(), 1);
    }

    /// The idle fast-forward must anchor to the sampling cycle's *starting*
    /// clock, not to `now % period` (which misaligns when the clock was not
    /// reset on a phase boundary).
    #[test]
    fn sampling_cycle_fast_forward_anchored_to_start() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        // Advance the raw clock off the period grid (no reset afterwards).
        for _ in 0..3 {
            eng.step();
        }
        assert_eq!(eng.now(), 3);
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.sampling_cycle(0);
        // One full period from the non-zero start: 3 + 100, not 100.
        assert_eq!(
            eng.now(),
            3 + SimConfig::default().tx_per_sampling_cycle as u64
        );
    }

    /// Two-flow protocol for the fair-MAC and flow-metrics tests: message
    /// payload `(flow, n)`, counted at the receiver per flow.
    struct TwoFlow {
        got: [u32; 2],
    }
    impl Protocol for TwoFlow {
        type Msg = (usize, u32);
        fn on_message(&mut self, _: &mut Ctx<'_, (usize, u32)>, _: NodeId, msg: (usize, u32)) {
            self.got[msg.0] += 1;
        }
        fn flow_of(msg: &(usize, u32)) -> usize {
            msg.0
        }
    }

    #[test]
    fn per_flow_metrics_split_traffic() {
        let mut eng = Engine::new(line(2), SimConfig::lossless(), |_| TwoFlow { got: [0; 2] });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, (0, 1));
            ctx.send(NodeId(1), 9, (1, 1));
            ctx.send(NodeId(1), 9, (1, 2));
        });
        eng.run_until_quiet(10);
        let m = eng.metrics();
        let hdr = SimConfig::default().header_bytes as u64;
        assert_eq!(m.flow(0).tx_msgs, 1);
        assert_eq!(m.flow(1).tx_msgs, 2);
        assert_eq!(m.flow(0).tx_bytes, 4 + hdr);
        assert_eq!(m.flow(1).rx_bytes, 2 * (9 + hdr));
        // Flow totals add up to the node totals.
        assert_eq!(m.flow(0).tx_bytes + m.flow(1).tx_bytes, m.total_tx_bytes());
    }

    /// With strict FIFO a burst of flow-0 messages monopolizes the MAC
    /// budget; fair arbitration alternates flows within each cycle.
    #[test]
    fn fair_mac_interleaves_flows() {
        let run = |fair: bool| {
            let cfg = SimConfig::lossless().with_fair_mac(fair); // tx_per_cycle = 4
            let mut eng = Engine::new(line(2), cfg, |_| TwoFlow { got: [0; 2] });
            eng.with_node(NodeId(0), |_, ctx| {
                for n in 0..6 {
                    ctx.send(NodeId(1), 4, (0, n)); // hot flow floods first
                }
                ctx.send(NodeId(1), 4, (1, 0)); // the other query's message
            });
            eng.step();
            eng.node(NodeId(1)).got
        };
        // FIFO: the first cycle's 4 slots are all flow 0.
        assert_eq!(run(false), [4, 0]);
        // Fair: flow 1's lone message gets a slot in the first cycle.
        assert_eq!(run(true), [3, 1]);
    }

    #[test]
    fn fair_mac_single_flow_is_fifo() {
        let run = |fair: bool| {
            let cfg = SimConfig::lossless().with_fair_mac(fair);
            let mut eng = Engine::new(line(2), cfg, |_| TwoFlow { got: [0; 2] });
            for n in 0..10 {
                eng.with_node(NodeId(0), |_, ctx| {
                    ctx.send(NodeId(1), 4, (0, n));
                });
            }
            eng.run_until_quiet(100);
            (eng.metrics().clone(), eng.node(NodeId(1)).got)
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn sandbox_captures_and_emit_reframes() {
        // Outer protocol wraps an inner `u32` protocol's emissions into
        // tagged `(usize, u32)` messages.
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| TwoFlow { got: [0; 2] });
        let captured = eng.with_node(NodeId(0), |_, ctx| {
            let ((), emitted) = ctx.sandbox::<u32, _>(|inner| {
                assert_eq!(inner.id, NodeId(0));
                inner.send(NodeId(1), 6, 42u32);
                inner.send(NodeId(0), 6, 7u32); // self-send: rejected inside
                inner.broadcast(2, 9u32);
            });
            for e in &emitted {
                ctx.emit(e.to, e.payload_bytes + 1, (1, e.msg));
            }
            emitted
        });
        assert_eq!(captured.len(), 2);
        assert_eq!(captured[0].to, Some(NodeId(1)));
        assert_eq!(captured[0].payload_bytes, 6);
        assert_eq!(captured[1].to, None);
        assert_eq!(eng.metrics().node(NodeId(0)).self_send_drops, 1);
        eng.run_until_quiet(10);
        // Unicast + broadcast both re-framed and delivered as flow 1.
        assert_eq!(eng.node(NodeId(1)).got, [0, 2]);
        assert_eq!(eng.metrics().flow(1).tx_msgs, 2);
    }

    #[test]
    fn wrap_self_send_is_counted_once() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| TwoFlow { got: [0; 2] });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.wrap(
                1,
                |m: u32| (1, m),
                |inner| {
                    assert!(!inner.send(NodeId(0), 6, 7), "self-send rejected");
                },
            );
        });
        let m0 = eng.metrics().node(NodeId(0));
        assert_eq!(m0.self_send_drops, 1);
        assert_eq!(m0.queue_drops, 0);
        assert_eq!(eng.queued_msgs(), 0);
    }

    #[test]
    fn wrap_queue_len_reports_the_real_queue() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| TwoFlow { got: [0; 2] });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, (0, 1));
            ctx.wrap(
                1,
                |m: u32| (1, m),
                |inner| {
                    assert_eq!(inner.id, NodeId(0));
                    // The node's queue, not just this callback's sends.
                    assert_eq!(inner.queue_len(), 1);
                    assert!(inner.send(NodeId(1), 6, 42));
                    assert_eq!(inner.queue_len(), 2);
                    assert!(inner.broadcast(2, 9));
                    assert_eq!(inner.send_many(&[NodeId(1), NodeId(0)], 3, 5), 1);
                    assert_eq!(inner.queue_len(), 4);
                },
            );
            assert_eq!(ctx.queue_len(), 4);
        });
        assert_eq!(eng.metrics().node(NodeId(0)).self_send_drops, 1);
        eng.run_until_quiet(10);
        assert_eq!(eng.node(NodeId(1)).got, [1, 3]);
        // Framed payloads carry the extra byte; the header is added once.
        let header = SimConfig::lossless().header_bytes as u64;
        assert_eq!(eng.metrics().flow(1).tx_bytes, 7 + 3 + 4 + 3 * header);
    }

    #[test]
    fn wrap_send_onto_full_queue_is_rejected_and_counted_once() {
        let cfg = SimConfig::lossless().with_queue_capacity(2);
        let mut eng = Engine::new(line(3), cfg, |_| TwoFlow { got: [0; 2] });
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, (0, 1));
            ctx.wrap(
                1,
                |m: u32| (1, m),
                |inner| {
                    assert!(inner.send(NodeId(1), 4, 2));
                    assert_eq!(inner.queue_len(), 2);
                    assert!(!inner.send(NodeId(1), 4, 3), "queue is full");
                    assert!(!inner.broadcast(4, 4), "queue is full");
                },
            );
        });
        let m0 = eng.metrics().node(NodeId(0));
        assert_eq!(m0.queue_drops, 2);
        assert_eq!(m0.self_send_drops, 0);
        assert_eq!(eng.queued_msgs(), 2);
    }

    #[test]
    fn energy_budget_kills_depleted_nodes_but_not_base() {
        let cfg = SimConfig::lossless().with_energy_budget(40);
        let mut eng = Engine::new(line(3), cfg, |_| Relay { arrived_at: None });
        // Traffic 0 -> 1 -> 2 charges node 1 with TX + RX every round.
        for _ in 0..3 {
            eng.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), 4, 1);
            });
            eng.run_until_quiet(10);
        }
        assert!(eng.metrics().node(NodeId(1)).load_bytes() >= 40);
        eng.sampling_cycle(0);
        assert!(!eng.is_alive(NodeId(1)), "relay ran out of energy");
        // Node 0 transmitted just as much but is the base: exempt.
        assert!(eng.is_alive(NodeId(0)));
        // The sink also depleted (3 x 15 received bytes >= 40).
        assert_eq!(eng.energy_depleted(), &[NodeId(1), NodeId(2)]);
    }

    #[test]
    fn queued_msgs_counts_network_wide() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        assert_eq!(eng.queued_msgs(), 0);
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
            ctx.send(NodeId(1), 4, 2);
        });
        assert_eq!(eng.queued_msgs(), 2);
        eng.run_until_quiet(100);
        assert_eq!(eng.queued_msgs(), 0);
    }

    #[test]
    fn killed_node_does_not_forward() {
        let mut eng = Engine::new(line(4), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.kill(NodeId(2));
        eng.with_node(NodeId(0), |_, ctx| {
            ctx.send(NodeId(1), 4, 1);
        });
        eng.run_until_quiet(100);
        assert_eq!(eng.node(NodeId(3)).arrived_at, None);
        // Node 1's forward to dead node 2 eventually fails.
        assert_eq!(eng.metrics().node(NodeId(1)).send_failures, 1);
    }

    /// Churny workload exercising every RNG-draw path at once: lossy
    /// unicasts (with retries and failures), broadcasts, snooping and
    /// two fair-MAC flows.
    struct Churn {
        delivered: u64,
        snooped: u64,
        failed: u64,
    }

    impl Protocol for Churn {
        type Msg = (u8, u32);
        const WANTS_SNOOP: bool = true;

        fn on_message(&mut self, ctx: &mut Ctx<'_, (u8, u32)>, from: NodeId, msg: (u8, u32)) {
            self.delivered += 1;
            let (flow, hop) = msg;
            if hop >= 12 {
                return;
            }
            if hop % 5 == 4 {
                ctx.broadcast(8, (flow, hop + 1));
            }
            let nbs = ctx.neighbors();
            let pos = nbs.iter().position(|&n| n == from).unwrap_or(0);
            ctx.send(nbs[(pos + 1) % nbs.len()], 8, (flow, hop + 1));
        }

        fn on_snoop(&mut self, _: &mut Ctx<'_, (u8, u32)>, _: NodeId, _: NodeId, msg: &(u8, u32)) {
            self.snooped += msg.1 as u64;
        }

        fn on_send_failed(&mut self, ctx: &mut Ctx<'_, (u8, u32)>, _: NodeId, msg: (u8, u32)) {
            self.failed += 1;
            // Reroute once through the other flow.
            if msg.0 < 2 {
                let nb = ctx.neighbors()[0];
                ctx.send(nb, 8, (msg.0 + 2, msg.1));
            }
        }

        fn flow_of(msg: &(u8, u32)) -> usize {
            (msg.0 % 2) as usize
        }
    }

    fn churn_run(threads: usize, steps: u64) -> (Metrics, u64, usize, Vec<(u64, u64, u64)>) {
        let pts = (0..25)
            .map(|i| Point::new((i % 5) as f64, (i / 5) as f64))
            .collect();
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let cfg = SimConfig::default()
            .with_loss(0.25)
            .with_seed(42)
            .with_snooping(true)
            .with_fair_mac(true)
            .with_threads(threads);
        let mut eng = Engine::new(topo, cfg, |_| Churn {
            delivered: 0,
            snooped: 0,
            failed: 0,
        });
        for i in 0..5u16 {
            eng.with_node(NodeId(i * 5), |_, ctx| {
                let nbs: Vec<NodeId> = ctx.neighbors().to_vec();
                for (j, nb) in nbs.into_iter().enumerate() {
                    ctx.send(nb, 8, (j as u8, 0));
                }
            });
        }
        eng.kill(NodeId(12)); // dead node in the middle of the grid
        for _ in 0..steps {
            eng.step();
        }
        let states = eng
            .nodes()
            .iter()
            .map(|n| (n.delivered, n.snooped, n.failed))
            .collect();
        (eng.metrics().clone(), eng.now(), eng.queued_msgs(), states)
    }

    #[test]
    fn parallel_transmit_is_byte_identical_across_thread_counts() {
        let baseline = churn_run(1, 40);
        assert!(
            baseline.3.iter().map(|s| s.0).sum::<u64>() > 100,
            "workload must actually deliver traffic"
        );
        for threads in [2, 3, 8, 64] {
            assert_eq!(churn_run(threads, 40), baseline, "threads={threads}");
        }
    }

    #[test]
    fn parallel_lossless_matches_serial() {
        // loss_prob == 0 skips the draw prepass entirely; the chunked
        // path must still merge identically.
        let run = |threads: usize| {
            let cfg = SimConfig::lossless().with_threads(threads);
            let mut eng = Engine::new(line(9), cfg, |_| Relay { arrived_at: None });
            eng.with_node(NodeId(0), |_, ctx| {
                ctx.send(NodeId(1), 4, 7);
            });
            eng.run_until_quiet(100);
            (eng.metrics().clone(), eng.node(NodeId(8)).arrived_at)
        };
        assert_eq!(run(4), run(1));
        assert_eq!(run(4).1, Some(8));
    }

    #[test]
    fn pool_drains_to_zero_at_quiescence() {
        let (_, _, queued, _) = churn_run(1, 40);
        let _ = queued; // (the workload may or may not be drained at 40)
        let pts = (0..9)
            .map(|i| Point::new((i % 3) as f64, (i / 3) as f64))
            .collect();
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let cfg = SimConfig::default()
            .with_loss(0.2)
            .with_seed(5)
            .with_snooping(true);
        let mut eng = Engine::new(topo, cfg, |_| Churn {
            delivered: 0,
            snooped: 0,
            failed: 0,
        });
        eng.with_node(NodeId(4), |_, ctx| {
            ctx.broadcast(8, (0, 4));
        });
        assert_eq!(eng.pooled_msgs(), 1);
        eng.run_until_quiet(10_000);
        assert_eq!(eng.queued_msgs(), 0);
        assert_eq!(eng.pooled_msgs(), 0, "no leaked pool slots at quiescence");
    }

    #[test]
    fn kill_releases_queued_pool_slots() {
        let mut eng = Engine::new(line(3), SimConfig::lossless(), |_| Relay {
            arrived_at: None,
        });
        eng.with_node(NodeId(1), |_, ctx| {
            ctx.send(NodeId(2), 4, 1);
            ctx.send(NodeId(2), 4, 2);
        });
        assert_eq!(eng.pooled_msgs(), 2);
        assert_eq!(eng.kill(NodeId(1)), 2);
        assert_eq!(eng.pooled_msgs(), 0);
    }

    #[test]
    fn send_many_pools_once_and_counts_rejections() {
        struct F {
            got: u64,
        }
        impl Protocol for F {
            type Msg = Vec<u8>;
            fn on_message(&mut self, _: &mut Ctx<'_, Vec<u8>>, _: NodeId, msg: Vec<u8>) {
                self.got += msg.len() as u64;
            }
        }
        let pts = (0..9)
            .map(|i| Point::new((i % 3) as f64, (i / 3) as f64))
            .collect();
        let topo = Topology::from_positions(pts, 1.1, NodeId(0));
        let cfg = SimConfig {
            queue_capacity: 3,
            ..SimConfig::lossless()
        };
        let mut eng = Engine::new(topo, cfg, |_| F { got: 0 });
        let accepted = eng.with_node(NodeId(4), |_, ctx| {
            let targets = [NodeId(1), NodeId(4), NodeId(3), NodeId(5), NodeId(7)];
            ctx.send_many(&targets, 10, vec![9; 10])
        });
        // NodeId(4) is self (rejected), capacity 3 admits 1/3/5, 7 drops.
        assert_eq!(accepted, 3);
        assert_eq!(eng.queued_msgs(), 3);
        assert_eq!(eng.pooled_msgs(), 1, "fan-out shares one pooled message");
        let m4 = *eng.metrics().node(NodeId(4));
        assert_eq!(m4.self_send_drops, 1);
        assert_eq!(m4.queue_drops, 1);
        eng.run_until_quiet(10);
        assert_eq!(eng.pooled_msgs(), 0);
        for id in [1u16, 3, 5] {
            assert_eq!(eng.node(NodeId(id)).got, 10);
        }
        assert_eq!(eng.node(NodeId(7)).got, 0);
    }

    #[test]
    fn send_many_inside_sandbox_captures_per_target() {
        struct F;
        impl Protocol for F {
            type Msg = u32;
            fn on_message(&mut self, _: &mut Ctx<'_, u32>, _: NodeId, _: u32) {}
        }
        let mut eng = Engine::new(line(4), SimConfig::lossless(), |_| F);
        let emitted = eng.with_node(NodeId(0), |_, ctx| {
            let ((), emitted) = ctx.sandbox::<u32, _>(|inner| {
                let n = inner.send_many(&[NodeId(1), NodeId(0), NodeId(2)], 4, 11);
                assert_eq!(n, 2);
            });
            emitted
        });
        assert_eq!(emitted.len(), 2);
        assert_eq!(emitted[0].to, Some(NodeId(1)));
        assert_eq!(emitted[1].to, Some(NodeId(2)));
        assert_eq!(eng.metrics().node(NodeId(0)).self_send_drops, 1);
    }
}
