//! The unified run-harness: one long-lived [`Session`] per network.
//!
//! The paper's §6–§7 contribution is *continuous* operation — queries
//! arrive, adapt, migrate and survive failures over a long-lived network.
//! This module serves all of it through one API:
//!
//! - [`SessionBuilder`] assembles everything one network serves: topology,
//!   workload, routing substrate, [`SimConfig`], an optional
//!   [`DynamicsPlan`], the delivery [`Sharing`] discipline, an energy
//!   budget, and the initial query population.
//! - [`Session::admit`] initiates a query *live* at the current cycle
//!   (reusing the staggered [`InitStep`] machinery late arrivals always
//!   used); [`Session::retire`] snapshots and removes one.
//! - [`Session::step`] / [`Session::run_until`] advance sampling cycles;
//!   scheduled dynamics (kills, loss shifts, workload marks) fire at the
//!   cycle boundaries they always did.
//! - [`Session::report`] returns one [`Outcome`]: per-query rows,
//!   phase-separated traffic, §7 recovery totals and the dynamics trace.
//! - [`Observer`]s receive a [`CycleView`] per sampling cycle and
//!   [`SessionEvent`]s (admissions, retirements, migrations, deaths, loss
//!   shifts, phase transitions) — streaming telemetry instead of post-hoc
//!   stat scraping.
//!
//! Every session runs on one backend, the [`MultiRun`] engine of
//! [`crate::MultiNode`] wrapper protocols: queries are engine flows and
//! every frame carries a query tag. A [`SessionBuilder::bare_wire`]
//! session sets that tag to 0 bytes — the paper's original single-query
//! framing, which the figure harnesses use to reproduce the paper's
//! numbers bit-for-bit — and in exchange hosts exactly one cycle-0 query
//! with no online admission.

use crate::cache::{region_of, spec_fingerprint, CacheStats, LearnedCache, Region};
use crate::cost::Sigma;
use crate::multi::{
    BaseSnapshot, Lifecycle, MultiRun, QueryInstance, QuerySet, QueryStats, Sharing,
    QUERY_TAG_BYTES,
};
use crate::node::{JoinNode, RecoveryStats};
use crate::optimize::{optimize, sigmas_diverged, uniform_sigmas, Plan, PlanSpace};
use crate::scenario::{init_steps, reconvergence, InitStep, Scenario};
use crate::shared::AlgoConfig;
use sensor_net::NodeId;
use sensor_query::{JoinGraph, JoinQuerySpec};
use sensor_sim::dynamics::DynamicsPlan;
use sensor_sim::{FlowMetrics, Metrics, SimConfig};
use sensor_workload::WorkloadData;
use std::sync::{Arc, Mutex};

pub use crate::multi::LIVE_INIT_SPACING;

/// Handle to a query admitted into a [`Session`] (its slot index; slots
/// are never reused, so the handle stays valid after retirement).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct QueryId(pub usize);

/// Handle to an n-way graph query admitted via [`Session::admit_graph`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GraphId(pub usize);

/// Harness phase a session is in (reported via
/// [`SessionEvent::PhaseTransition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Driving the cycle-0 queries' initiation schedules to quiescence.
    /// Traffic is accounted to [`Outcome::initiation`] (Table 3 separates
    /// initiation from computation cost).
    Initiation,
    /// Sampling cycles: data, results, adaptation, recovery, dynamics.
    Execution,
}

/// Something discrete that happened to the session. Delivered to
/// [`Observer::on_event`] as it happens.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionEvent {
    /// A query came online (cycle-0 batch or live admission).
    Admitted { cycle: u32, query: QueryId },
    /// A query was retired; its base counters were snapshotted.
    Retired { cycle: u32, query: QueryId },
    /// `count` join pairs finished migrating to new join nodes this cycle
    /// (§6 adaptation or §7 recovery hand-offs).
    PairsMigrated { cycle: u32, count: u64 },
    /// `count` path repairs succeeded this cycle (§7 local bypasses).
    PathsRepaired { cycle: u32, count: u64 },
    /// A node died: dynamics-plan kill, energy depletion, or
    /// [`Session::kill`].
    NodeKilled { cycle: u32, node: NodeId },
    /// The link-loss probability was stepped by the dynamics plan.
    LossShifted { cycle: u32, loss_prob: f64 },
    /// A workload-side event boundary (e.g. a selectivity shift baked into
    /// the schedule) passed.
    WorkloadMark { cycle: u32 },
    /// The harness moved between phases.
    PhaseTransition { cycle: u32, phase: Phase },
    /// A graph query's plan was re-optimized against learned σ estimates
    /// (§6 generalized to n-way plans); its skeleton sub-joins may have
    /// been swapped.
    Replanned { cycle: u32, graph: GraphId },
    /// The session was closed by its owner (`aspen-serve` `CLOSE`).
    /// Terminal: no further events follow on any subscription. Emitted by
    /// the serving layer, never by the session itself.
    Closed { cycle: u32 },
}

/// Per-sampling-cycle view handed to [`Observer::on_cycle`] right after
/// the cycle completed.
pub struct CycleView<'a> {
    /// The sampling cycle that just ran.
    pub cycle: u32,
    /// Engine transmission-cycle clock.
    pub now: u64,
    /// Join results delivered to the base station so far (live queries
    /// plus retired snapshots).
    pub results: u64,
    /// TX bytes put on the air during this cycle.
    pub cycle_tx_bytes: u64,
    /// Execution-phase traffic counters so far.
    pub metrics: &'a Metrics,
}

/// Streaming telemetry hook. Both methods default to no-ops so an
/// observer implements only what it needs. Observers are `Send` so a
/// whole [`Session`] can be moved into a serve worker thread.
pub trait Observer {
    /// Called after every sampling cycle.
    fn on_cycle(&mut self, _view: &CycleView<'_>) {}
    /// Called for every discrete [`SessionEvent`].
    fn on_event(&mut self, _ev: &SessionEvent) {}
}

/// A ready-made [`Observer`] that records every event into a shared log
/// (clone it, hand one clone to the session, read the other afterwards).
#[derive(Clone, Default)]
pub struct EventLog(Arc<Mutex<Vec<SessionEvent>>>);

impl EventLog {
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Snapshot of the events recorded so far.
    pub fn events(&self) -> Vec<SessionEvent> {
        self.0.lock().unwrap().clone()
    }
}

impl Observer for EventLog {
    fn on_event(&mut self, ev: &SessionEvent) {
        self.0.lock().unwrap().push(ev.clone());
    }
}

// ----------------------------------------------------------------------
// The drivers: initiation to quiescence, then resumable sampling cycles.

/// Drive the initiation of the given queries to quiescence, the steps
/// interleaved across queries so their control traffic contends. The
/// caller selects `arrivals` (the cycle-0 batch, minus anything already
/// retired). Returns `(initiation metrics, initiation cycles)` and
/// leaves the engine with fresh metrics and a rewound clock.
fn drive_initiation(run: &mut MultiRun, arrivals: &[usize]) -> (Metrics, u64) {
    for &q in arrivals {
        run.activate_everywhere(q);
    }
    let schedules: Vec<Vec<(InitStep, u64)>> = arrivals
        .iter()
        .map(|&q| init_steps(&run.shareds[q].cfg))
        .collect();
    let max_len = schedules.iter().map(Vec::len).max().unwrap_or(0);
    for step_idx in 0..max_len {
        let mut budget = 0u64;
        for (ai, &q) in arrivals.iter().enumerate() {
            if let Some(&(step, b)) = schedules[ai].get(step_idx) {
                run.apply_step(q, step);
                budget = budget.max(b);
            }
        }
        if budget > 0 {
            run.engine.run_until_quiet(budget);
        }
    }
    let cycles = run.engine.now();
    let metrics = run.engine.metrics().clone();
    run.engine.reset_metrics();
    run.engine.reset_clock();
    (metrics, cycles)
}

/// Mutable execution-phase state threaded through [`drive_cycles`] calls:
/// per-query lifecycle bookkeeping plus the dynamics trace an [`Outcome`]
/// reports. A [`Session`] keeps one for its whole life so stepping is
/// resumable.
struct ExecState {
    lifecycles: Vec<Lifecycle>,
    /// `true` once a query has been brought online (initiation batch or
    /// live arrival); guards against double activation.
    activated: Vec<bool>,
    /// Base-counter snapshots of retired queries.
    snapshots: Vec<Option<BaseSnapshot>>,
    /// Live-initiation steps pending for late arrivals.
    pending_steps: Vec<(u32, usize, InitStep)>,
    killed: Vec<(u32, NodeId)>,
    queued_msgs_lost: u64,
    /// App. G mobility accounting: re-homings fired by the plan and the
    /// summary-update delay/traffic they cost (session-level — the report
    /// folds these into [`RecoveryStats`]).
    leaf_moves: u64,
    move_delay_cycles: u64,
    move_update_bytes: u64,
    per_cycle_tx_bytes: Vec<u64>,
    /// Results at the moment the first scheduled event fired (`None`
    /// until one does).
    results_pre_event: Option<u64>,
    /// Bounds of the events that actually fired.
    first_fired: Option<u32>,
    last_fired: Option<u32>,
    arrivals: Vec<(u32, usize)>,
    departures: Vec<(u32, usize)>,
    /// Next sampling cycle to run.
    next_cycle: u32,
    energy_seen: usize,
    energy_msgs_seen: u64,
    migrations_seen: u64,
    repairs_seen: u64,
}

impl ExecState {
    fn new(run: &MultiRun, lifecycles: Vec<Lifecycle>) -> ExecState {
        let n = lifecycles.len();
        ExecState {
            activated: lifecycles.iter().map(|lc| lc.arrival == 0).collect(),
            lifecycles,
            snapshots: vec![None; n],
            pending_steps: Vec::new(),
            killed: Vec::new(),
            queued_msgs_lost: 0,
            leaf_moves: 0,
            move_delay_cycles: 0,
            move_update_bytes: 0,
            per_cycle_tx_bytes: Vec::new(),
            results_pre_event: None,
            first_fired: None,
            last_fired: None,
            arrivals: Vec::new(),
            departures: Vec::new(),
            next_cycle: 0,
            energy_seen: run.engine.energy_depleted().len(),
            energy_msgs_seen: run.engine.energy_msgs_dropped(),
            migrations_seen: 0,
            repairs_seen: 0,
        }
    }

    fn snapshot_results(&self) -> u64 {
        self.snapshots.iter().flatten().map(|s| s.results).sum()
    }

    /// Queries whose live initiation has not finished (steps still
    /// pending), sorted and deduplicated.
    fn unfinished_inits(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.pending_steps.iter().map(|&(_, q, _)| q).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// The per-cycle view both the observer stream and [`Session::run_until`]
/// predicates see — one constructor so the two can never drift apart.
fn cycle_view<'a>(run: &'a MultiRun, st: &ExecState, cycle: u32) -> CycleView<'a> {
    CycleView {
        cycle,
        now: run.engine.now(),
        results: run.live_results() + st.snapshot_results(),
        cycle_tx_bytes: *st.per_cycle_tx_bytes.last().unwrap_or(&0),
        metrics: run.engine.metrics(),
    }
}

/// Run `n` sampling cycles: lifecycle events (departures, then arrivals
/// and due live-init steps), then scheduled dynamics, then the sampling
/// cycle itself, then energy-depletion propagation.
fn drive_cycles(
    run: &mut MultiRun,
    st: &mut ExecState,
    plan: &DynamicsPlan,
    n: u32,
    obs: &mut [Box<dyn Observer + Send>],
) {
    let emit = |obs: &mut [Box<dyn Observer + Send>], ev: SessionEvent| {
        for o in obs.iter_mut() {
            o.on_event(&ev);
        }
    };
    let end = st.next_cycle + n;
    for c in st.next_cycle..end {
        // Event-bound tracking and the pre-event result split (bookkeeping
        // only — reads engine state, mutates nothing).
        if plan.has_event_at(c) {
            if st.results_pre_event.is_none() {
                st.results_pre_event = Some(run.live_results() + st.snapshot_results());
                st.first_fired = Some(c);
            }
            st.last_fired = Some(c);
        }
        // Lifecycle: departures first (a query leaving at c does not
        // sample at c), then arrivals, then any due live-init steps.
        for q in 0..run.n_queries() {
            if st.lifecycles[q].departure == Some(c) && st.snapshots[q].is_none() {
                st.snapshots[q] = run.retire_query(q);
                // Any live-init steps still pending for the departed query
                // are moot — dropping them keeps `unfinished_inits` an
                // honest truncation signal (a deliberate retirement is not
                // a truncated initiation).
                st.pending_steps.retain(|&(_, pq, _)| pq != q);
                st.departures.push((c, q));
                emit(
                    obs,
                    SessionEvent::Retired {
                        cycle: c,
                        query: QueryId(q),
                    },
                );
            }
        }
        for q in 0..run.n_queries() {
            // A query already retired (snapshot taken) never re-arrives,
            // even under a nonsensical departure-before-arrival lifecycle.
            if st.lifecycles[q].arrival == c && !st.activated[q] && st.snapshots[q].is_none() {
                run.activate_everywhere(q);
                st.activated[q] = true;
                st.arrivals.push((c, q));
                for (i, (step, _)) in init_steps(&run.shareds[q].cfg).iter().enumerate() {
                    st.pending_steps
                        .push((c + i as u32 * LIVE_INIT_SPACING, q, *step));
                }
                emit(
                    obs,
                    SessionEvent::Admitted {
                        cycle: c,
                        query: QueryId(q),
                    },
                );
            }
        }
        let due: Vec<(usize, InitStep)> = st
            .pending_steps
            .iter()
            .filter(|&&(at, _, _)| at == c)
            .map(|&(_, q, step)| (q, step))
            .collect();
        for (q, step) in due {
            run.apply_step(q, step);
        }
        st.pending_steps.retain(|&(at, _, _)| at > c);
        // Scheduled dynamics (kills resolve `Picked` to the busiest join
        // node — §7's worst-case victim).
        let base = run.base();
        let fired = plan.fire(c, &mut run.engine, |eng| {
            crate::multi::busiest_join_node(eng, base)
        });
        st.queued_msgs_lost += fired.queued_msgs_dropped;
        for &v in &fired.killed {
            run.mark_dead(v);
            st.killed.push((c, v));
            emit(obs, SessionEvent::NodeKilled { cycle: c, node: v });
        }
        for &p in &fired.loss_shifts {
            emit(
                obs,
                SessionEvent::LossShifted {
                    cycle: c,
                    loss_prob: p,
                },
            );
        }
        // Mobile-leaf re-homings (App. G): the engine resolved who moves
        // where; the substrate charges the summary-update delay/traffic.
        for &(node, to) in &fired.moved {
            let mv = sensor_routing::mobility::move_leaf(run.engine.topology(), &run.sub, node, to);
            st.leaf_moves += 1;
            st.move_delay_cycles += u64::from(mv.delay_cycles);
            st.move_update_bytes += mv.traffic_bytes;
        }
        if plan.marks.contains(&c) {
            emit(obs, SessionEvent::WorkloadMark { cycle: c });
        }
        let tx_before = run.engine.metrics().total_tx_bytes();
        run.engine.sampling_cycle(c);
        // Nodes that ran out of energy this cycle propagate to every
        // query's liveness oracle and the loss accounting, like plan kills.
        let depleted: Vec<NodeId> = run.engine.energy_depleted()[st.energy_seen..].to_vec();
        st.energy_seen += depleted.len();
        if !depleted.is_empty() {
            // A depletion is an event for the pre/post split, discovered
            // only after the cycle ran — the "pre" snapshot therefore
            // includes this cycle's results (the death happened during it).
            if st.results_pre_event.is_none() {
                st.results_pre_event = Some(run.live_results() + st.snapshot_results());
                st.first_fired = Some(c);
            }
            st.last_fired = Some(c);
        }
        for v in depleted {
            run.mark_dead(v);
            st.killed.push((c, v));
            emit(obs, SessionEvent::NodeKilled { cycle: c, node: v });
        }
        let energy_msgs = run.engine.energy_msgs_dropped();
        st.queued_msgs_lost += energy_msgs - st.energy_msgs_seen;
        st.energy_msgs_seen = energy_msgs;
        st.per_cycle_tx_bytes
            .push(run.engine.metrics().total_tx_bytes() - tx_before);
        if !obs.is_empty() {
            // Totals are monotone (retirement absorbs counters into the
            // run's accumulators); the unconditional baseline update is
            // belt-and-braces against any future counter reset.
            let mig = run.migrations_total();
            if mig > st.migrations_seen {
                emit(
                    obs,
                    SessionEvent::PairsMigrated {
                        cycle: c,
                        count: mig - st.migrations_seen,
                    },
                );
            }
            st.migrations_seen = mig;
            let rep = run.recovery_totals().repair_successes;
            if rep > st.repairs_seen {
                emit(
                    obs,
                    SessionEvent::PathsRepaired {
                        cycle: c,
                        count: rep - st.repairs_seen,
                    },
                );
            }
            st.repairs_seen = rep;
            let view = cycle_view(run, st, c);
            for o in obs.iter_mut() {
                o.on_cycle(&view);
            }
        }
    }
    st.next_cycle = end;
}

// ----------------------------------------------------------------------
// The unified outcome.

/// Everything a finished (or in-flight) session can report: per-query
/// rows, phase-separated aggregate traffic, §7 recovery totals, and the
/// dynamics trace.
#[derive(Debug, Clone)]
pub struct Outcome {
    /// One row per admitted query, in admission order (retired queries
    /// report their snapshot).
    pub per_query: Vec<QueryStats>,
    /// Traffic during the cycle-0 initiation phase.
    pub initiation: Metrics,
    /// Traffic during execution (including live initiations and recovery).
    pub execution: Metrics,
    /// Execution traffic of cross-query aggregate frames (engine flow 0;
    /// zero for independent-delivery sessions, bare wire included).
    pub shared_flow: FlowMetrics,
    pub base: NodeId,
    /// Frames dropped at arrival because their query had been retired.
    pub expired_frames: u64,
    /// Transmission cycles the initiation phase took (Fig 6b latency).
    pub initiation_cycles: u64,
    /// Network-wide sum of the per-node §7 recovery counters.
    pub recovery: RecoveryStats,
    /// `(cycle, node)` for every mid-run death: plan kills, energy
    /// depletions and [`Session::kill`] calls alike.
    pub killed: Vec<(u32, NodeId)>,
    /// Messages discarded from dead nodes' queues.
    pub queued_msgs_lost: u64,
    /// Execution TX bytes per sampling cycle (recovery-overhead trace).
    pub per_cycle_tx_bytes: Vec<u64>,
    /// Join results delivered before the first scheduled event (all of
    /// them, for a static plan).
    pub results_pre_event: u64,
    /// Join results delivered at or after the first scheduled event.
    pub results_post_event: u64,
    /// Sampling cycles after the last event until per-cycle traffic
    /// settled back within 25% of the pre-event baseline for 3
    /// consecutive cycles. `None` for static plans or if the run ended
    /// first.
    pub reconvergence_cycles: Option<u32>,
    /// `(cycle, query)` live admissions that fired during execution.
    pub arrivals: Vec<(u32, usize)>,
    /// `(cycle, query)` retirements that fired during execution.
    pub departures: Vec<(u32, usize)>,
    /// Queries whose live initiation had not finished when the session
    /// was last reported (truncation artifact, not an algorithmic one).
    pub unfinished_inits: Vec<usize>,
}

impl Outcome {
    pub fn results_total(&self) -> u64 {
        self.per_query.iter().map(|q| q.results).sum()
    }

    pub fn total_traffic_bytes(&self) -> u64 {
        self.initiation.total_tx_bytes() + self.execution.total_tx_bytes()
    }

    pub fn execution_traffic_bytes(&self) -> u64 {
        self.execution.total_tx_bytes()
    }

    pub fn total_traffic_msgs(&self) -> u64 {
        self.initiation.total_tx_msgs() + self.execution.total_tx_msgs()
    }

    pub fn base_load_bytes(&self) -> u64 {
        self.initiation.load_bytes(self.base) + self.execution.load_bytes(self.base)
    }

    pub fn base_load_msgs(&self) -> u64 {
        self.initiation.load_msgs(self.base) + self.execution.load_msgs(self.base)
    }

    pub fn max_node_load_bytes(&self) -> u64 {
        let mut combined = self.initiation.clone();
        combined.absorb(&self.execution);
        combined.max_load_bytes()
    }

    /// Combined per-node loads (Fig 5).
    pub fn top_loads(&self, k: usize) -> Vec<u64> {
        let mut combined = self.initiation.clone();
        combined.absorb(&self.execution);
        combined.top_loads_bytes(k)
    }

    /// Result-weighted mean delivery delay across queries (tx cycles).
    pub fn avg_delay_tx(&self) -> f64 {
        // Single query: return its ratio directly — `(d/r * r) / r` is not
        // bit-identical to `d/r`, and the sweep reports are byte-compared.
        if let [only] = self.per_query.as_slice() {
            return only.avg_delay_tx;
        }
        let total = self.results_total();
        if total == 0 {
            return 0.0;
        }
        self.per_query
            .iter()
            .map(|q| q.avg_delay_tx * q.results as f64)
            .sum::<f64>()
            / total as f64
    }

    /// Messages abandoned after exhausting retries, both phases.
    pub fn send_failures(&self) -> u64 {
        self.initiation.total_send_failures() + self.execution.total_send_failures()
    }

    /// Messages dropped on full queues, both phases.
    pub fn queue_drops(&self) -> u64 {
        self.initiation.total_queue_drops() + self.execution.total_queue_drops()
    }
}

// ----------------------------------------------------------------------
// The session proper.

/// One resident n-way graph query: its current plan and the fingerprints
/// of the skeleton sub-joins it holds references on.
struct GraphEntry {
    graph: JoinGraph,
    plan: Plan,
    cfg: AlgoConfig,
    /// Parallel to `plan.skeleton`: registry key of each sub-join.
    subs: Vec<String>,
    retired: bool,
}

/// One shared in-network sub-join operator: the pairwise query executing
/// it and how many resident graph plans reference it.
struct SharedSub {
    qid: QueryId,
    refs: usize,
}

/// Structural identity of a skeleton edge's sub-join, independent of the
/// owning graph's name or relation order: endpoint selections (canonical
/// S/T-form display), join predicate, window and sampling interval. Two
/// graphs whose plans contain the same fingerprint share one in-network
/// operator. When sharing is disabled the fingerprint is scoped to the
/// owning graph, which makes every reference private.
fn sub_fingerprint(graph: &JoinGraph, edge: usize, scope: Option<usize>) -> String {
    let e = &graph.edges[edge];
    let sel = |r: usize| {
        graph.relations[r]
            .selection
            .as_ref()
            .map(|s| s.to_string())
            .unwrap_or_default()
    };
    let base = format!(
        "{}|{}|{}|w{}|i{}",
        sel(e.a),
        sel(e.b),
        e.predicate,
        graph.window,
        graph.sample_interval
    );
    match scope {
        Some(g) => format!("{g}#{base}"),
        None => base,
    }
}

/// Cache identity of one admitted pairwise query, recorded at admission
/// so retirement can harvest its learned state under the same key.
struct QueryCacheMeta {
    fingerprint: String,
    region: Region,
    window: usize,
}

/// A long-lived execution context: one network (topology + workload +
/// substrate + simulator) serving a changing population of join queries.
/// Built via [`SessionBuilder`]; see the [module docs](self) for the
/// lifecycle.
pub struct Session {
    run: MultiRun,
    /// Built with [`SessionBuilder::bare_wire`]: one fixed query, 0-byte
    /// query tags, no online admission or retirement.
    bare: bool,
    plan: DynamicsPlan,
    st: ExecState,
    observers: Vec<Box<dyn Observer + Send>>,
    init_metrics: Option<Metrics>,
    init_cycles: u64,
    initiated: bool,
    graphs: Vec<GraphEntry>,
    sub_registry: std::collections::BTreeMap<String, SharedSub>,
    share_subjoins: bool,
    /// Warm-start learned-state cache (see [`crate::cache`]); disabled
    /// sessions keep it empty.
    cache: LearnedCache,
    warm_start: bool,
    /// Parallel to query slots: cache identity for harvest at retirement
    /// (`None` when warm-start is off).
    q_meta: Vec<Option<QueryCacheMeta>>,
}

impl Session {
    /// Start assembling a session over `topo` and `data`.
    pub fn builder(topo: sensor_net::Topology, data: WorkloadData) -> SessionBuilder {
        SessionBuilder::new(topo, data)
    }

    /// The next sampling cycle [`Session::step`] would run.
    pub fn cycle(&self) -> u32 {
        self.st.next_cycle
    }

    /// Pairwise query slots ever admitted (slots are never reused, so this
    /// counts retired queries too; it bounds valid [`QueryId`]s).
    pub fn query_slots(&self) -> usize {
        self.st.snapshots.len()
    }

    /// Graph query slots ever admitted (bounds valid [`GraphId`]s).
    pub fn graph_slots(&self) -> usize {
        self.graphs.len()
    }

    pub(crate) fn is_bare(&self) -> bool {
        self.bare
    }

    pub(crate) fn node_count(&self) -> usize {
        self.run.engine.topology().len()
    }

    pub(crate) fn base_node(&self) -> NodeId {
        self.run.base()
    }

    /// Replace the dynamics plan (takes effect from the next cycle; events
    /// scheduled at already-run cycles never fire).
    pub fn set_plan(&mut self, plan: DynamicsPlan) {
        self.plan = plan;
    }

    /// Attach a streaming [`Observer`]. Attaching mid-run is fine: the
    /// migration/repair diff counters are re-baselined so the first
    /// events reflect only what happens from now on, not history.
    pub fn observe(&mut self, obs: Box<dyn Observer + Send>) {
        if self.observers.is_empty() {
            // The counters are only advanced while observers are attached
            // (sweeps shouldn't pay for telemetry nobody reads), so a
            // mid-run attach must not inherit a stale baseline.
            self.st.migrations_seen = self.run.migrations_total();
            self.st.repairs_seen = self.run.recovery_totals().repair_successes;
        }
        self.observers.push(obs);
    }

    /// Admit a new query live at the current cycle: its frames get their
    /// own engine flow and its [`InitStep`] schedule is spread over the
    /// next sampling cycles ([`LIVE_INIT_SPACING`] apart) while resident
    /// queries keep streaming. Before the first [`Session::step`] the
    /// query instead joins the cycle-0 initiation batch.
    ///
    /// With warm-start enabled (the default), the learned-state cache is
    /// consulted first: a [hit](crate::cache::LearnedCache::lookup)
    /// replaces `cfg.assumed` with the harvested σ of the nearest
    /// same-shape entry, seeding both the §3 initial placement and the §6
    /// divergence baseline; a miss admits cold, exactly as before.
    ///
    /// # Panics
    /// On a [`SessionBuilder::bare_wire`] session — the untagged wire
    /// format hosts exactly one query for its whole life.
    pub fn admit(&mut self, spec: JoinQuerySpec, mut cfg: AlgoConfig) -> QueryId {
        assert!(
            !self.bare,
            "bare-wire sessions host exactly one fixed query; \
             use the default tagged session for online admission"
        );
        let meta = self.warm_start.then(|| QueryCacheMeta {
            fingerprint: spec_fingerprint(&spec),
            region: region_of(&spec, self.topology(), self.workload()),
            window: spec.window,
        });
        if let Some(m) = &meta {
            if let Some(sigma) = self.cache.lookup(&m.fingerprint, m.region) {
                cfg.assumed = sigma;
            }
        }
        let arrival = if self.initiated {
            self.st.next_cycle
        } else {
            0
        };
        let q = self.run.add_query(spec, cfg);
        self.st.lifecycles.push(Lifecycle::arriving(arrival));
        // Cycle-0 admissions are activated by the initiation batch; live
        // ones by the arrival scan at the top of the next cycle.
        self.st.activated.push(false);
        if !self.initiated {
            self.st.activated[q] = true;
        }
        self.st.snapshots.push(None);
        self.q_meta.push(meta);
        QueryId(q)
    }

    /// Retire a query now: deactivate it at every node, snapshot its base
    /// counters (kept in the final [`Outcome`] row) and free its slot's
    /// network share. Idempotent.
    ///
    /// With warm-start enabled, the query's learned σ estimates, join-host
    /// placements and repair history are harvested into the session's
    /// [`LearnedCache`] *before* deactivation wipes the in-network state,
    /// so a later admission of the same shape can start warm.
    ///
    /// # Panics
    /// On a bare-wire session (see [`Session::admit`]).
    pub fn retire(&mut self, id: QueryId) {
        assert!(
            !self.bare,
            "bare-wire sessions host exactly one fixed query; \
             use the default tagged session for online retirement"
        );
        let q = id.0;
        if self.st.snapshots[q].is_some() {
            return;
        }
        // Harvest learned state while the per-node protocol instances
        // still hold it; `retire_query` deactivates them everywhere.
        if let Some(meta) = &self.q_meta[q] {
            if let Some(sigma) = self.run.learned_sigma(q, meta.window) {
                let mut placements = Vec::new();
                let (mut attempts, mut successes) = (0u64, 0u64);
                for (i, mn) in self.run.engine.nodes().iter().enumerate() {
                    let jn = mn.query_node(q);
                    if !jn.pairs.is_empty() {
                        placements.push(NodeId(i as u16));
                    }
                    attempts += jn.recovery.repair_attempts;
                    successes += jn.recovery.repair_successes;
                }
                self.cache.insert(
                    meta.fingerprint.clone(),
                    meta.region,
                    sigma,
                    placements,
                    (attempts, successes),
                );
            }
        }
        let c = self.st.next_cycle;
        self.st.snapshots[q] = self.run.retire_query(q);
        // Deliberate retirement is not a truncated initiation: drop its
        // pending live-init steps so they neither fire as no-ops nor
        // pollute `unfinished_inits`.
        self.st.pending_steps.retain(|&(_, pq, _)| pq != q);
        self.st.lifecycles[q].departure = Some(c);
        self.st.departures.push((c, q));
        let ev = SessionEvent::Retired {
            cycle: c,
            query: id,
        };
        for o in &mut self.observers {
            o.on_event(&ev);
        }
    }

    /// Admit an n-way [`JoinGraph`] query: optimize a bushy plan over the
    /// session's topology and workload, then instantiate the plan's
    /// skeleton — one representative crossing join edge per interior plan
    /// node, a spanning tree of the graph — as pairwise in-network
    /// sub-queries. Skeleton sub-joins that structurally match one already
    /// executing for another resident graph are *shared*: the existing
    /// operator gets another reference instead of a second copy (disable
    /// with [`SessionBuilder::subjoin_sharing`]).
    ///
    /// With warm-start enabled, each edge's costing σ comes from the
    /// learned-state cache when its sub-join shape has a harvested entry,
    /// falling back to `cfg.assumed` per edge on a miss — so a re-admitted
    /// graph shape is planned against learned selectivities instead of a
    /// uniform assumption. (Skeleton sub-join *placement* is seeded
    /// automatically: instantiating the skeleton goes through
    /// [`Session::admit`], which consults the same cache.)
    ///
    /// # Panics
    /// On a bare-wire session (see [`Session::admit`]).
    pub fn admit_graph(&mut self, graph: &JoinGraph, cfg: AlgoConfig) -> GraphId {
        let sigmas = self.seeded_sigmas(graph, cfg.assumed);
        let space = PlanSpace::build(self.topology(), self.workload(), graph);
        let plan = optimize(graph, &sigmas, &space);
        let gid = GraphId(self.graphs.len());
        let scope = (!self.share_subjoins).then_some(gid.0);
        let mut subs = Vec::with_capacity(plan.skeleton.len());
        for &e in &plan.skeleton {
            let fp = sub_fingerprint(graph, e, scope);
            self.acquire_sub(fp.clone(), graph, e, cfg);
            subs.push(fp);
        }
        self.graphs.push(GraphEntry {
            graph: graph.clone(),
            plan,
            cfg,
            subs,
            retired: false,
        });
        gid
    }

    /// Per-edge costing basis for `graph`: the cache's learned σ where the
    /// edge's sub-join shape has a harvested entry, `assumed` otherwise.
    /// With warm-start off this is exactly [`uniform_sigmas`].
    fn seeded_sigmas(&mut self, graph: &JoinGraph, assumed: Sigma) -> Vec<Sigma> {
        if !self.warm_start {
            return uniform_sigmas(graph, assumed);
        }
        let keys: Vec<(String, Region)> = (0..graph.edges.len())
            .map(|e| {
                let spec = graph.edge_spec(e);
                let region = region_of(&spec, self.topology(), self.workload());
                (spec_fingerprint(&spec), region)
            })
            .collect();
        keys.into_iter()
            .map(|(fp, region)| self.cache.lookup(&fp, region).unwrap_or(assumed))
            .collect()
    }

    /// Aggregate counters of the warm-start learned-state cache (exposed
    /// over the wire as `CACHESTATS`).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Read access to the learned-state cache (diagnostics; the parity
    /// suite peeks harvested entries through this).
    pub fn learned_cache(&self) -> &crate::cache::LearnedCache {
        &self.cache
    }

    /// Network-wide §6 migration control traffic so far: bytes put on the
    /// air carrying `WindowXfer` frames. Monotone across retirements, so
    /// per-phase costs fall out of boundary differences.
    pub fn migration_xfer_bytes(&self) -> u64 {
        self.run.xfer_bytes_total()
    }

    /// Retire a graph query: drop its references on its skeleton
    /// sub-joins; operators no longer referenced by any resident graph are
    /// retired from the network ([`Session::retire`]). Idempotent.
    pub fn retire_graph(&mut self, id: GraphId) {
        if self.graphs[id.0].retired {
            return;
        }
        self.graphs[id.0].retired = true;
        let subs = std::mem::take(&mut self.graphs[id.0].subs);
        for fp in &subs {
            self.release_sub(fp);
        }
    }

    /// The current costed plan of a resident graph query.
    pub fn graph_plan(&self, id: GraphId) -> &Plan {
        &self.graphs[id.0].plan
    }

    /// The admitted [`JoinGraph`] of slot `id` (the federation layer
    /// re-prices member shares against this).
    pub fn graph_of(&self, id: GraphId) -> &JoinGraph {
        &self.graphs[id.0].graph
    }

    /// The pairwise sub-queries currently executing graph `id`'s skeleton,
    /// in plan order (shared operators appear for every graph referencing
    /// them).
    pub fn graph_queries(&self, id: GraphId) -> Vec<QueryId> {
        self.graphs[id.0]
            .subs
            .iter()
            .map(|fp| self.sub_registry[fp].qid)
            .collect()
    }

    /// §6 re-optimization hook, generalized to plans: aggregate the
    /// learned σ estimates of graph `id`'s skeleton sub-queries, and if
    /// any edge's estimate diverged from the plan's costing basis by more
    /// than `cfg.divergence_threshold`, re-run the DP on the learned
    /// values and swap the skeleton in place ([`Session::replan_with`]).
    /// Returns whether a re-plan happened.
    pub fn maybe_replan(&mut self, id: GraphId) -> bool {
        let entry = &self.graphs[id.0];
        if entry.retired {
            return false;
        }
        let w = entry.graph.window;
        let mut learned: Vec<Option<Sigma>> = vec![None; entry.graph.edges.len()];
        for (k, &e) in entry.plan.skeleton.iter().enumerate() {
            let qid = self.sub_registry[&entry.subs[k]].qid;
            learned[e] = self.run.learned_sigma(qid.0, w);
        }
        let entry = &self.graphs[id.0];
        if !sigmas_diverged(&entry.plan.sigmas, &learned, entry.cfg.divergence_threshold) {
            return false;
        }
        let sigmas: Vec<Sigma> = entry
            .plan
            .sigmas
            .iter()
            .zip(&learned)
            .map(|(b, l)| l.unwrap_or(*b))
            .collect();
        self.replan_with(id, &sigmas);
        true
    }

    /// Re-optimize graph `id` against an explicit per-edge σ basis and
    /// swap its skeleton live: sub-joins shared between the old and new
    /// plans keep running untouched, new ones are admitted, and old ones
    /// whose last reference this was are retired. Emits
    /// [`SessionEvent::Replanned`].
    ///
    /// A retired graph is a graceful no-op: its skeleton references were
    /// already released, and re-acquiring them here would resurrect
    /// retired sub-join operators on the network.
    ///
    /// # Panics
    /// If `sigmas.len()` ≠ the edge count.
    pub fn replan_with(&mut self, id: GraphId, sigmas: &[Sigma]) {
        let entry = &self.graphs[id.0];
        if entry.retired {
            return;
        }
        let graph = entry.graph.clone();
        let cfg = entry.cfg;
        let space = PlanSpace::build(self.topology(), self.workload(), &graph);
        let plan = optimize(&graph, sigmas, &space);
        let scope = (!self.share_subjoins).then_some(id.0);
        // Acquire the new skeleton first, then release the old one, so
        // sub-joins common to both plans never drop to zero references
        // (which would bounce a running operator off the network).
        let mut subs = Vec::with_capacity(plan.skeleton.len());
        for &e in &plan.skeleton {
            let fp = sub_fingerprint(&graph, e, scope);
            self.acquire_sub(fp.clone(), &graph, e, cfg);
            subs.push(fp);
        }
        let old_subs = std::mem::replace(&mut self.graphs[id.0].subs, subs);
        self.graphs[id.0].plan = plan;
        for fp in &old_subs {
            self.release_sub(fp);
        }
        let ev = SessionEvent::Replanned {
            cycle: self.st.next_cycle,
            graph: id,
        };
        for o in &mut self.observers {
            o.on_event(&ev);
        }
    }

    /// Take (or add) a reference on the sub-join keyed `fp`, admitting its
    /// pairwise query if no live operator exists.
    fn acquire_sub(&mut self, fp: String, graph: &JoinGraph, edge: usize, cfg: AlgoConfig) {
        if let Some(sub) = self.sub_registry.get_mut(&fp) {
            if sub.refs > 0 {
                sub.refs += 1;
                return;
            }
        }
        let qid = self.admit(graph.edge_spec(edge), cfg);
        self.sub_registry.insert(fp, SharedSub { qid, refs: 1 });
    }

    /// Drop a reference on the sub-join keyed `fp`; the last reference
    /// retires its pairwise query.
    fn release_sub(&mut self, fp: &str) {
        let sub = self
            .sub_registry
            .get_mut(fp)
            .expect("released sub-join was acquired");
        sub.refs -= 1;
        if sub.refs == 0 {
            let qid = sub.qid;
            self.retire(qid);
        }
    }

    fn ensure_initiated(&mut self) {
        if self.initiated {
            return;
        }
        let ev = SessionEvent::PhaseTransition {
            cycle: 0,
            phase: Phase::Initiation,
        };
        for o in &mut self.observers {
            o.on_event(&ev);
        }
        // The cycle-0 batch: scheduled for cycle 0 and not already retired
        // (a pre-step `retire` must stick — the query never comes online).
        let arrivals: Vec<usize> = (0..self.st.lifecycles.len())
            .filter(|&q| self.st.lifecycles[q].arrival == 0 && self.st.snapshots[q].is_none())
            .collect();
        for &q in &arrivals {
            let ev = SessionEvent::Admitted {
                cycle: 0,
                query: QueryId(q),
            };
            for o in &mut self.observers {
                o.on_event(&ev);
            }
        }
        let (m, c) = drive_initiation(&mut self.run, &arrivals);
        self.init_metrics = Some(m);
        self.init_cycles = c;
        self.initiated = true;
        let ev = SessionEvent::PhaseTransition {
            cycle: 0,
            phase: Phase::Execution,
        };
        for o in &mut self.observers {
            o.on_event(&ev);
        }
    }

    /// Advance `n` sampling cycles (running the initiation phase first if
    /// it has not happened yet). In-flight messages are *not* drained
    /// between calls; [`Session::report`] drains.
    pub fn step(&mut self, n: u32) {
        self.ensure_initiated();
        let Session {
            run,
            plan,
            st,
            observers,
            ..
        } = self;
        drive_cycles(run, st, plan, n, observers);
    }

    /// Step one cycle at a time until `pred` returns `true` on the
    /// just-completed cycle's [`CycleView`]. Returns the number of cycles
    /// advanced. A predicate that never fires loops forever — bound it on
    /// `view.cycle` if unsure.
    pub fn run_until(&mut self, mut pred: impl FnMut(&CycleView<'_>) -> bool) -> u32 {
        self.ensure_initiated();
        let start = self.st.next_cycle;
        loop {
            self.step(1);
            let view = cycle_view(&self.run, &self.st, self.st.next_cycle - 1);
            if pred(&view) {
                break;
            }
        }
        self.st.next_cycle - start
    }

    /// Kill a node immediately (outside any dynamics plan): its queue is
    /// discarded, every query's liveness oracle learns of the death,
    /// observers get a [`SessionEvent::NodeKilled`], and the kill counts
    /// as an *event* for the [`Outcome`]'s pre/post-event result split
    /// and re-convergence trace, exactly like a plan-scheduled failure.
    pub fn kill(&mut self, v: NodeId) {
        let c = self.st.next_cycle;
        if self.st.results_pre_event.is_none() {
            self.st.results_pre_event = Some(self.run.live_results() + self.st.snapshot_results());
            self.st.first_fired = Some(c);
        }
        self.st.last_fired = Some(c);
        let dropped = self.run.engine.kill(v);
        self.run.mark_dead(v);
        self.st.queued_msgs_lost += dropped as u64;
        self.st.killed.push((c, v));
        let ev = SessionEvent::NodeKilled { cycle: c, node: v };
        for o in &mut self.observers {
            o.on_event(&ev);
        }
    }

    /// Results delivered to the base so far for query `id`, *without*
    /// draining in-flight messages (retired queries report their final
    /// snapshot). The federation layer reads cross-network sub-join output
    /// streams through this at every cycle boundary, where a draining
    /// [`Session::report`] would perturb the run.
    pub fn query_results(&self, id: QueryId) -> u64 {
        self.st.snapshots[id.0]
            .map(|s| s.results)
            .unwrap_or_else(|| self.run.live_snapshot(id.0).results)
    }

    /// Total bytes transmitted in the execution phase so far, without
    /// draining.
    pub fn tx_bytes_so_far(&self) -> u64 {
        self.run.engine.metrics().total_tx_bytes()
    }

    /// The network this session executes over.
    pub fn topology(&self) -> &sensor_net::Topology {
        self.run.engine.topology()
    }

    /// The workload data this session executes over.
    pub fn workload(&self) -> &WorkloadData {
        &self.run.data
    }

    /// Whether `node` is still alive (not killed, not out of energy).
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.run.engine.is_alive(node)
    }

    /// The alive non-base node currently serving the most join pairs
    /// (failure-target selection, Fig 14).
    pub fn busiest_join_node(&self) -> Option<NodeId> {
        crate::multi::busiest_join_node(&self.run.engine, self.run.base())
    }

    /// Read access to query `id`'s protocol instance at node `node`
    /// (diagnostics; e.g. producer assignments after initiation).
    pub fn query_node(&self, id: QueryId, node: NodeId) -> &JoinNode {
        self.run.engine.node(node).query_node(id.0)
    }

    /// Drain in-flight messages and assemble the unified [`Outcome`].
    /// May be called mid-run (and repeatedly); draining runs the engine
    /// until quiescence so the last cycles' results are counted.
    pub fn report(&mut self) -> Outcome {
        self.ensure_initiated();
        self.run.engine.run_until_quiet(5_000);
        let run = &self.run;
        let st = &self.st;
        let exec = run.engine.metrics().clone();
        let per_query: Vec<QueryStats> = (0..run.n_queries())
            .map(|q| {
                let snap = st.snapshots[q].unwrap_or_else(|| run.live_snapshot(q));
                let avg_delay = if snap.results > 0 {
                    snap.delay_sum as f64 / snap.results as f64
                } else {
                    0.0
                };
                QueryStats {
                    label: run.shareds[q].cfg.label(),
                    name: run.shareds[q].spec.name.clone(),
                    arrival: st.lifecycles[q].arrival,
                    departure: st.lifecycles[q].departure,
                    results: snap.results,
                    avg_delay_tx: avg_delay,
                    flow: exec.flow(q + 1),
                }
            })
            .collect();
        let total: u64 = per_query.iter().map(|q| q.results).sum();
        let pre = st.results_pre_event.unwrap_or(total);
        Outcome {
            shared_flow: exec.flow(0),
            base: run.base(),
            expired_frames: run.engine.nodes().iter().map(|n| n.expired_frames).sum(),
            recovery: {
                let mut r = run.recovery_totals();
                r.leaf_moves += st.leaf_moves;
                r.move_delay_cycles += st.move_delay_cycles;
                r.move_update_bytes += st.move_update_bytes;
                r
            },
            per_query,
            initiation: self
                .init_metrics
                .clone()
                .unwrap_or_else(|| Metrics::new(run.engine.topology().len())),
            execution: exec,
            initiation_cycles: self.init_cycles,
            killed: st.killed.clone(),
            queued_msgs_lost: st.queued_msgs_lost,
            per_cycle_tx_bytes: st.per_cycle_tx_bytes.clone(),
            results_pre_event: pre,
            results_post_event: total - pre,
            reconvergence_cycles: reconvergence(
                &st.per_cycle_tx_bytes,
                st.first_fired,
                st.last_fired,
            ),
            arrivals: st.arrivals.clone(),
            departures: st.departures.clone(),
            unfinished_inits: st.unfinished_inits(),
        }
    }
}

/// Fluent assembly of a [`Session`]; see the [module docs](self).
///
/// ```
/// use aspen_join::prelude::*;
/// use aspen_join::{Algorithm, InnetOptions};
///
/// let topo = sensor_net::random_with_degree(60, 7.0, 1);
/// let data = sensor_workload::WorkloadData::new(
///     &topo,
///     Schedule::Uniform(Rates::new(2, 2, 5)),
///     1,
/// );
/// let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2))
///     .with_innet_options(InnetOptions::CMG);
/// let mut session = Session::builder(topo, data)
///     .query(sensor_workload::query1(3), cfg)
///     .build();
/// session.step(10);
/// let outcome = session.report();
/// assert!(outcome.total_traffic_bytes() > 0);
/// ```
pub struct SessionBuilder {
    topo: sensor_net::Topology,
    data: WorkloadData,
    sim: SimConfig,
    num_trees: usize,
    sharing: Sharing,
    plan: DynamicsPlan,
    queries: Vec<QueryInstance>,
    bare: bool,
    allow_empty: bool,
    observers: Vec<Box<dyn Observer + Send>>,
    share_subjoins: bool,
    warm_start: bool,
}

impl SessionBuilder {
    pub fn new(topo: sensor_net::Topology, data: WorkloadData) -> SessionBuilder {
        SessionBuilder {
            topo,
            data,
            sim: SimConfig::default(),
            num_trees: 3,
            sharing: Sharing::Independent,
            plan: DynamicsPlan::none(),
            queries: Vec::new(),
            bare: false,
            allow_empty: false,
            observers: Vec::new(),
            share_subjoins: true,
            warm_start: true,
        }
    }

    /// Simulator parameters (loss, MAC budget, seed, fair MAC, …).
    pub fn sim(mut self, sim: SimConfig) -> Self {
        self.sim = sim;
        self
    }

    /// Routing trees in the multi-tree substrate (default 3).
    pub fn trees(mut self, n: usize) -> Self {
        self.num_trees = n;
        self
    }

    /// How concurrent queries share delivery capacity (default
    /// [`Sharing::Independent`]).
    pub fn sharing(mut self, sharing: Sharing) -> Self {
        self.sharing = sharing;
        self
    }

    /// Declarative network dynamics fired at cycle boundaries.
    pub fn plan(mut self, plan: DynamicsPlan) -> Self {
        self.plan = plan;
        self
    }

    /// Per-node radio-byte energy budget (0 disables; base exempt).
    /// Convenience over [`SimConfig::with_energy_budget`].
    pub fn energy_budget(mut self, bytes: u64) -> Self {
        self.sim = self.sim.with_energy_budget(bytes);
        self
    }

    /// Add a query present from cycle 0.
    pub fn query(self, spec: JoinQuerySpec, cfg: AlgoConfig) -> Self {
        self.query_instance(QueryInstance {
            spec,
            cfg,
            lifecycle: Lifecycle::STATIC,
        })
    }

    /// Add a query arriving at `arrival` (initiates live mid-run).
    pub fn query_arriving(self, arrival: u32, spec: JoinQuerySpec, cfg: AlgoConfig) -> Self {
        self.query_instance(QueryInstance {
            spec,
            cfg,
            lifecycle: Lifecycle::arriving(arrival),
        })
    }

    /// Add a fully-specified [`QueryInstance`] (arrival and departure).
    pub fn query_instance(mut self, qi: QueryInstance) -> Self {
        self.queries.push(qi);
        self
    }

    /// Attach an [`Observer`] from the start.
    pub fn observer(mut self, obs: Box<dyn Observer + Send>) -> Self {
        self.observers.push(obs);
        self
    }

    /// Whether [`Session::admit_graph`] shares structurally identical
    /// skeleton sub-joins across resident graph queries (default `true`).
    /// Disabling gives every graph private operators — the baseline the
    /// sharing regression tests compare against.
    pub fn subjoin_sharing(mut self, share: bool) -> Self {
        self.share_subjoins = share;
        self
    }

    /// Whether the session harvests retired queries' learned state into
    /// the [`LearnedCache`] and seeds later same-shape admissions from it
    /// (default `true`). Disabling makes every admission cold — the
    /// baseline the warm-vs-cold experiments compare against.
    pub fn warm_start(mut self, on: bool) -> Self {
        self.warm_start = on;
        self
    }

    /// Allow building a tagged session with no initial queries: the
    /// network boots and idles until the first [`Session::admit`]. This is
    /// how `aspen-serve` opens a session — a standing network awaiting
    /// admissions over the wire. Incompatible with [`bare_wire`]
    /// (which needs its one fixed query).
    ///
    /// [`bare_wire`]: SessionBuilder::bare_wire
    pub fn allow_empty(mut self) -> Self {
        self.allow_empty = true;
        self
    }

    /// Use the paper's original untagged single-query wire format: the
    /// query tag shrinks to 0 bytes, so traffic is byte-for-byte the
    /// figures' numbers, at the price of a fixed single query (no
    /// [`Session::admit`]/[`Session::retire`]) with independent delivery.
    /// Requires exactly one cycle-0 query.
    pub fn bare_wire(mut self) -> Self {
        self.bare = true;
        self
    }

    /// Construct the engine (substrate built offline, as in Table 3) and
    /// return the ready-to-step [`Session`].
    ///
    /// # Panics
    /// If no query was added, or `bare_wire` constraints are violated.
    pub fn build(self) -> Session {
        assert!(
            self.bare || !self.queries.is_empty() || self.allow_empty,
            "a session needs at least one initial query (add one with \
             .query(), or opt into an empty session with .allow_empty())"
        );
        let lifecycles: Vec<Lifecycle> = self.queries.iter().map(|qi| qi.lifecycle).collect();
        // Cache identities of the initial population, computed before the
        // topology and workload move into the backend. Builder queries are
        // never *seeded* (they exist before anything could be harvested),
        // but retiring one live still contributes its learned state.
        let q_meta: Vec<Option<QueryCacheMeta>> = if self.warm_start {
            self.queries
                .iter()
                .map(|qi| {
                    Some(QueryCacheMeta {
                        fingerprint: spec_fingerprint(&qi.spec),
                        region: region_of(&qi.spec, &self.topo, &self.data),
                        window: qi.spec.window,
                    })
                })
                .collect()
        } else {
            (0..self.queries.len()).map(|_| None).collect()
        };
        let (sharing, tag_bytes) = if self.bare {
            assert!(
                self.queries.len() == 1 && lifecycles[0] == Lifecycle::STATIC,
                "bare_wire sessions host exactly one static cycle-0 query"
            );
            (Sharing::Independent, 0)
        } else {
            (self.sharing, QUERY_TAG_BYTES)
        };
        let mut run = MultiRun::new(
            self.topo,
            self.data,
            self.sim,
            self.num_trees,
            sharing,
            tag_bytes,
        );
        for qi in self.queries {
            run.add_query(qi.spec, qi.cfg);
        }
        let st = ExecState::new(&run, lifecycles);
        Session {
            run,
            bare: self.bare,
            plan: self.plan,
            st,
            observers: self.observers,
            init_metrics: None,
            init_cycles: 0,
            initiated: false,
            graphs: Vec::new(),
            sub_registry: std::collections::BTreeMap::new(),
            share_subjoins: self.share_subjoins,
            cache: LearnedCache::new(),
            warm_start: self.warm_start,
            q_meta,
        }
    }
}

impl Scenario {
    /// A bare-wire [`Session`] over this scenario: the modern entry point
    /// with the figures' exact wire format (see
    /// [`SessionBuilder::bare_wire`]). Clones the scenario's parts; use
    /// [`Scenario::into_session`] when the scenario is a throwaway.
    pub fn session(&self) -> Session {
        Scenario {
            topo: self.topo.clone(),
            data: self.data.clone(),
            spec: self.spec.clone(),
            cfg: self.cfg,
            sim: self.sim.clone(),
            num_trees: self.num_trees,
        }
        .into_session()
    }

    /// [`Scenario::session`] without the deep clone — moves the topology
    /// and workload in (the hot sweep/bench paths build one scenario per
    /// run and discard it).
    pub fn into_session(self) -> Session {
        Session::builder(self.topo, self.data)
            .sim(self.sim)
            .trees(self.num_trees)
            .query(self.spec, self.cfg)
            .bare_wire()
            .build()
    }
}

// aspen-serve moves whole sessions into worker threads: the entire
// backend stack (engine, plans, observers) must stay `Send`. Compile-time
// check so a non-Send closure snuck into e.g. DynamicsPlan fails here,
// with a readable error, rather than deep inside the serve crate.
const _: fn() = || {
    fn assert_send<T: Send>() {}
    assert_send::<Session>();
};

impl QuerySet {
    /// A tagged [`Session`] over this query set (the modern entry point).
    /// Clones the set's parts; use [`QuerySet::into_session`] for a
    /// throwaway set.
    pub fn session(&self) -> Session {
        QuerySet {
            topo: self.topo.clone(),
            data: self.data.clone(),
            queries: self
                .queries
                .iter()
                .map(|qi| QueryInstance {
                    spec: qi.spec.clone(),
                    cfg: qi.cfg,
                    lifecycle: qi.lifecycle,
                })
                .collect(),
            sim: self.sim.clone(),
            num_trees: self.num_trees,
            sharing: self.sharing,
        }
        .into_session()
    }

    /// [`QuerySet::session`] without the deep clone.
    pub fn into_session(self) -> Session {
        let mut b = Session::builder(self.topo, self.data)
            .sim(self.sim)
            .trees(self.num_trees)
            .sharing(self.sharing);
        for qi in self.queries {
            b = b.query_instance(qi);
        }
        b.build()
    }
}
