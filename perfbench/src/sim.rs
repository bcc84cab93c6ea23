//! The two in-process simulation workloads, `dense-churn` and
//! `sparse-large`.
//!
//! A run repeats one fixed episode — set-up, a fixed number of sampling
//! cycles with the workload's admissions, retirements and failures, and a
//! final report — in rounds over [`SUB_SEEDS`] data seeds derived from the
//! run seed, for two rounds and then for as long as another repetition
//! still ends by `--seconds`. Every repetition of a data seed simulates
//! exactly the same thing, so its simulated counters must agree; times are
//! taken per call, and each call's time is its minimum over the
//! repetitions of its data seed (see [`floors`]).
//!
//! The deployment (topology) is fixed per workload. Across random
//! deployments of the same size the work per cycle differs by up to 3x
//! (how many Query 1 sources sit where `x` can match), which would swamp
//! any regression bound; the seed instead drives the sensor data, the
//! link-loss draws and, through them, every protocol decision.

use crate::stats::{digest, median, ns_to_ms, quantile};
use crate::trace::Tracer;
use crate::{RunArgs, RunResult};
use aspen_join::prelude::*;
use aspen_join::CacheStats;
use sensor_net::NodeId;
use sensor_query::{parse, parse_join_graph, JoinQuerySpec, Parsed};
use sensor_workload::WorkloadData;
use std::collections::VecDeque;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Topology seed of every simulation workload's deployment.
const DEPLOYMENT_SEED: u64 = 1;
const DEGREE: f64 = 7.0;
const RATES: Rates = Rates::new(2, 2, 5);

/// The query resident from cycle 0, checked against the oracle.
#[derive(Clone, Copy)]
pub enum Resident {
    /// The paper's Query 1 (`s.id < 25`, `t.id > 50`): at 600 nodes
    /// almost every node is a T producer.
    Query1,
    /// A pairwise StreamSQL query.
    Sql(&'static str),
}

/// What the workload admits and retires while it runs.
#[derive(Clone, Copy)]
pub enum Churn {
    /// Join graphs, round-robin, through `Session::admit_graph` (planner
    /// and warm-start cache).
    Graphs(&'static [&'static str]),
    /// Pairwise queries, round-robin, through `Session::admit`.
    Pairs(&'static [&'static str]),
}

pub struct SimWorkload {
    pub name: &'static str,
    pub nodes: usize,
    pub loss: bool,
    /// §6 selectivity learning on every admitted query.
    pub learning: bool,
    pub warm_start: bool,
    pub resident: Resident,
    pub churn: Churn,
    /// One churn admission every `period` cycles...
    pub period: u32,
    /// ...each resident this many cycles before it is retired.
    pub residency: u32,
    /// Sampling cycles per episode, the initiation cycle included.
    pub cycles: u32,
    /// Kill the busiest join node and a path relay half-way through.
    pub kill: bool,
    /// Admissions a run must contain (percentile support).
    pub min_admissions: usize,
    /// Allowed mean share of alive nodes transmitting per cycle.
    pub active_share: (f64, f64),
    /// Allowed delivered ÷ oracle band of the resident query.
    pub oracle_band: (f64, f64),
}

/// The four `experiments optimize` join shapes — chain3, chain4, cycle4
/// and chain5 with the same join edges — over disjoint ranges of 12 node
/// ids per relation. The originals select relations by deployment region
/// (hundreds of producers each); simulated, three of the four deliver no
/// results at all (region selections are not routable) and the fourth
/// floods the network, so they measure neither the planner nor the
/// engine. Id ranges are routable, as in `crates/core/tests/graph_session.rs`.
const GRAPH_SHAPES: [&str; 4] = [
    "SELECT a.id, c.id FROM a, b, c [windowsize=3 sampleinterval=100] \
     WHERE a.id >= 100 AND a.id < 112 AND b.id >= 112 AND b.id < 124 \
     AND c.id >= 124 AND c.id < 136 AND a.u = b.u AND b.u = c.u",
    "SELECT a.id, d.id FROM a, b, c, d [windowsize=3 sampleinterval=100] \
     WHERE a.id >= 150 AND a.id < 162 AND b.id >= 162 AND b.id < 174 \
     AND c.id >= 174 AND c.id < 186 AND d.id >= 186 AND d.id < 198 \
     AND a.u = b.u AND b.u = c.u AND c.v = d.v",
    "SELECT a.id, c.id FROM a, b, c, d [windowsize=3 sampleinterval=100] \
     WHERE a.id >= 200 AND a.id < 212 AND b.id >= 212 AND b.id < 224 \
     AND c.id >= 224 AND c.id < 236 AND d.id >= 236 AND d.id < 248 \
     AND a.u = b.u AND b.u = c.u AND c.v = d.v AND a.v = d.u",
    "SELECT a.id, e.id FROM a, b, c, d, e [windowsize=3 sampleinterval=100] \
     WHERE a.id >= 250 AND a.id < 262 AND b.id >= 262 AND b.id < 274 \
     AND c.id >= 274 AND c.id < 286 AND d.id >= 286 AND d.id < 298 \
     AND e.id >= 298 AND e.id < 310 \
     AND a.u = b.u AND b.u = c.u AND c.v = d.v AND d.u = e.u",
];

/// Engine transmit, dispatch, planner, warm-start cache and routing
/// repair all do real work: a 600-node network where almost every node
/// produces for Query 1, three to four join graphs resident at a time,
/// and two node failures.
pub const DENSE_CHURN: SimWorkload = SimWorkload {
    name: "dense-churn",
    nodes: 600,
    loss: true,
    learning: true,
    warm_start: true,
    resident: Resident::Query1,
    churn: Churn::Graphs(&GRAPH_SHAPES),
    period: 8,
    // Longer than the §6 learn interval (20 cycles): a graph retired
    // before its first learning evaluation harvests nothing to reuse.
    residency: 30,
    cycles: 140,
    kill: true,
    min_admissions: 100,
    active_share: (0.5, 1.0),
    oracle_band: (0.9, 1.5),
};

/// Most nodes have nothing queued in most transmission cycles, so the
/// per-node scans dominate; no planner and no cache work.
pub const SPARSE_LARGE: SimWorkload = SimWorkload {
    name: "sparse-large",
    nodes: 2000,
    loss: false,
    learning: false,
    warm_start: false,
    resident: Resident::Sql(
        "SELECT s.id, t.id FROM s, t [windowsize=3 sampleinterval=100] \
         WHERE s.id < 6 AND t.id >= 6 AND t.id < 12 AND s.u = t.u",
    ),
    churn: Churn::Pairs(&[
        "SELECT s.id, t.id FROM s, t [windowsize=3 sampleinterval=100] \
         WHERE s.id >= 12 AND s.id < 18 AND t.id >= 18 AND t.id < 24 AND s.u = t.u",
        "SELECT s.id, t.id FROM s, t [windowsize=3 sampleinterval=100] \
         WHERE s.id >= 24 AND s.id < 30 AND t.id >= 30 AND t.id < 36 AND s.u = t.u",
    ]),
    period: 40,
    residency: 30,
    cycles: 400,
    kill: false,
    min_admissions: 0,
    active_share: (0.0, 0.25),
    oracle_band: (1.1, 1.5),
};

fn pair_spec(sql: &str) -> JoinQuerySpec {
    match parse(sql).expect("workload SQL parses") {
        Parsed::Pair(spec) => *spec,
        Parsed::Graph(_) => panic!("workload SQL must be a two-relation query"),
    }
}

/// The share of alive nodes that transmitted in each sampling cycle. It
/// costs one pass over the per-node counters per cycle, so it runs in
/// every repetition: the self-check needs it.
struct ActiveShare {
    prev: Vec<u64>,
    alive: usize,
    shares: Arc<Mutex<Vec<f64>>>,
}

impl Observer for ActiveShare {
    fn on_cycle(&mut self, view: &CycleView<'_>) {
        let mut active = 0usize;
        for (p, m) in self.prev.iter_mut().zip(view.metrics.per_node()) {
            if m.tx_msgs != *p {
                active += 1;
                *p = m.tx_msgs;
            }
        }
        let share = active as f64 / self.alive.max(1) as f64;
        self.shares.lock().expect("observer lock").push(share);
    }

    fn on_event(&mut self, ev: &SessionEvent) {
        if let SessionEvent::NodeKilled { .. } = ev {
            self.alive = self.alive.saturating_sub(1);
        }
    }
}

/// One repetition's measurements.
struct Episode {
    setup_s: f64,
    steady_cycles: u32,
    steady_s: f64,
    admit_ms: Vec<f64>,
    cmd_ms: Vec<f64>,
    /// Time of each steady-phase `step(1)`, in order.
    step_ms: Vec<f64>,
    replan_calls: usize,
    replans: u64,
    /// Replayed plan costs that differed from the session's plan.
    replay_mismatches: usize,
    kill_missing: bool,
    outcome: Outcome,
    cache: CacheStats,
    xfer_bytes: u64,
    /// Mean over cycles of the share of alive nodes that transmitted.
    active_share: f64,
    /// Delivered ÷ oracle for the resident query (first repetition).
    oracle_ratio: Option<f64>,
}

impl Episode {
    fn digest(&self) -> u64 {
        let o = &self.outcome;
        digest(&[
            o.results_total(),
            o.per_query[0].results,
            o.total_traffic_bytes(),
            o.total_traffic_msgs(),
            o.recovery.repair_attempts,
            o.recovery.repair_successes,
            self.cache.hits,
            self.cache.misses,
            self.cache.insertions,
            self.xfer_bytes,
            self.replans,
        ])
    }
}

/// Time one call into the session for the command latency sample, inside
/// a span of the same name.
fn call<T>(tr: &mut Tracer, cmd_ms: &mut Vec<f64>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = tr.span(name, |_| f());
    cmd_ms.push(t.elapsed().as_secs_f64() * 1e3);
    out
}

enum Admitted {
    Graph(GraphId),
    Query(QueryId),
}

/// The lowest-numbered relay (neither endpoint, join host nor base) on a
/// path-routed pair of a resident churned query.
fn path_relay(session: &Session, resident: &VecDeque<(u32, Admitted)>) -> Option<NodeId> {
    let base = session.topology().base();
    let busiest = session.busiest_join_node();
    let queries: Vec<QueryId> = resident
        .iter()
        .flat_map(|(_, h)| match h {
            Admitted::Graph(g) => session.graph_queries(*g),
            Admitted::Query(q) => vec![*q],
        })
        .collect();
    let mut relays = Vec::new();
    for &q in &queries {
        for v in session.topology().node_ids() {
            for a in session.query_node(q, v).assigns.values() {
                if a.base_mode || a.path.len() < 3 {
                    continue;
                }
                let join = a.j_idx.map(|j| a.path[j]);
                relays.extend(
                    a.path[1..a.path.len() - 1]
                        .iter()
                        .filter(|&&r| r != base && Some(r) != join && Some(r) != busiest),
                );
            }
        }
    }
    relays.into_iter().min()
}

fn episode(w: &SimWorkload, seed: u64, tr: &mut Tracer, with_oracle: bool) -> Episode {
    let opts = if w.learning {
        InnetOptions::CMG.with_learning()
    } else {
        InnetOptions::CMG
    };
    let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2)).with_innet_options(opts);
    // Churned queries route their data on per-pair paths (no multicast):
    // the routes §7 repair splices around a failed relay.
    let churn_cfg = AlgoConfig {
        innet: InnetOptions {
            multicast: false,
            group_opt: false,
            ..opts
        },
        ..cfg
    };
    let sim = SimConfig {
        // Enough MAC budget and retries that 5% loss costs
        // retransmissions, not abandoned sends; see README.md.
        max_retries: 8,
        tx_per_cycle: 16,
        queue_capacity: 256,
        threads: 1,
        ..SimConfig::default().with_seed(seed)
    };
    let sim = if w.loss { sim } else { sim.with_loss(0.0) };
    let shares = Arc::new(Mutex::new(Vec::new()));

    let t0 = Instant::now();
    let topo = tr.span("net.topology", |_| {
        sensor_net::random_with_degree(w.nodes, DEGREE, DEPLOYMENT_SEED)
    });
    let data = tr.span("workload.data", |_| {
        WorkloadData::new(&topo, Schedule::Uniform(RATES), seed)
    });
    let spec = match w.resident {
        Resident::Query1 => sensor_workload::query1(3),
        Resident::Sql(sql) => tr.span("query.parse", |_| pair_spec(sql)),
    };
    let nodes = topo.len();
    let builder = Session::builder(topo, data)
        .sim(sim)
        .warm_start(w.warm_start)
        .query(spec.clone(), cfg)
        .observer(Box::new(ActiveShare {
            prev: vec![0; nodes],
            alive: nodes,
            shares: Arc::clone(&shares),
        }));
    let mut session = tr.span("session.build", |_| builder.build());
    tr.span("session.init", |_| session.step(1));
    let setup_s = t0.elapsed().as_secs_f64();

    let mut admit_ms = Vec::new();
    let mut cmd_ms = Vec::new();
    let mut step_ms = Vec::new();
    let mut resident: VecDeque<(u32, Admitted)> = VecDeque::new();
    let mut next_churn = 0usize;
    let (mut replan_calls, mut replans, mut replay_mismatches) = (0, 0, 0);
    let mut kill_missing = false;
    let t1 = Instant::now();
    for c in 1..w.cycles {
        while resident.front().is_some_and(|(at, _)| *at == c) {
            let (_, h) = resident.pop_front().expect("checked non-empty");
            match h {
                Admitted::Graph(g) => {
                    replan_calls += 1;
                    if call(tr, &mut cmd_ms, "session.replan", || {
                        session.maybe_replan(g)
                    }) {
                        replans += 1;
                    }
                    call(tr, &mut cmd_ms, "session.retire_graph", || {
                        session.retire_graph(g)
                    });
                }
                Admitted::Query(q) => {
                    call(tr, &mut cmd_ms, "session.retire", || session.retire(q));
                }
            }
        }
        if c % w.period == 0 && c + w.residency < w.cycles {
            let t = Instant::now();
            let h = match w.churn {
                Churn::Graphs(sqls) => {
                    let sql = sqls[next_churn % sqls.len()];
                    let g = tr
                        .span("query.parse", |_| parse_join_graph(sql))
                        .expect("workload SQL parses");
                    let gid = tr.span("session.admit_graph", |_| {
                        session.admit_graph(&g, churn_cfg)
                    });
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    admit_ms.push(ms);
                    cmd_ms.push(ms);
                    if tr.on() {
                        // Replay the planner on the session's own inputs to
                        // split admission into plan-space build and DP.
                        let space = tr.span("optimize.plan_space", |_| {
                            PlanSpace::build(session.topology(), session.workload(), &g)
                        });
                        let plan = session.graph_plan(gid);
                        let replayed =
                            tr.span("optimize.dp", |_| optimize(&g, &plan.sigmas, &space));
                        if replayed.cost != plan.cost || replayed.skeleton != plan.skeleton {
                            replay_mismatches += 1;
                        }
                    }
                    Admitted::Graph(gid)
                }
                Churn::Pairs(sqls) => {
                    let spec = tr.span("query.parse", |_| pair_spec(sqls[next_churn % sqls.len()]));
                    let q = tr.span("session.admit", |_| session.admit(spec, churn_cfg));
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    admit_ms.push(ms);
                    cmd_ms.push(ms);
                    Admitted::Query(q)
                }
            };
            next_churn += 1;
            resident.push_back((c + w.residency, h));
        }
        if w.kill && c == w.cycles / 2 {
            // The busiest join host fails, and so does a relay of a
            // path-routed pair: only an abandoned path-routed unicast
            // starts a §7 path repair, and the busiest join host relays
            // none in this workload.
            let relay = path_relay(&session, &resident);
            for v in [session.busiest_join_node(), relay] {
                match v {
                    Some(v) => call(tr, &mut cmd_ms, "session.kill", || session.kill(v)),
                    None => kill_missing = true,
                }
            }
        }
        call(tr, &mut cmd_ms, "session.step", || session.step(1));
        step_ms.extend(cmd_ms.last());
    }
    let steady_s = t1.elapsed().as_secs_f64();
    let outcome = call(tr, &mut cmd_ms, "session.report", || session.report());

    let oracle_ratio = with_oracle.then(|| {
        let oracle = oracle_result_count(session.topology(), session.workload(), &spec, w.cycles);
        outcome.per_query[0].results as f64 / oracle.max(1) as f64
    });
    let active_shares = shares.lock().expect("observer lock").clone();
    let active_share = active_shares.iter().sum::<f64>() / active_shares.len().max(1) as f64;
    Episode {
        setup_s,
        steady_cycles: w.cycles - 1,
        steady_s,
        admit_ms,
        cmd_ms,
        step_ms,
        replan_calls,
        replans,
        replay_mismatches,
        kill_missing,
        cache: session.cache_stats(),
        xfer_bytes: session.migration_xfer_bytes(),
        outcome,
        active_share,
        oracle_ratio,
    }
}

fn rate(eps: &[&Episode]) -> f64 {
    median(
        &eps.iter()
            .map(|e| e.steady_cycles as f64 / e.steady_s)
            .collect::<Vec<_>>(),
    )
}

/// Each call's time as its minimum over the repetitions of its data seed,
/// concatenated over the data seeds. Every repetition of a data seed makes
/// the same calls on the same simulated state (the digest check holds it
/// to that), and interference from the rest of a shared host only ever
/// adds time, so the minimum is the best estimate of a call's own cost.
fn floors(eps: &[Episode], times: fn(&Episode) -> &[f64]) -> Vec<f64> {
    let mut out = Vec::new();
    for k in 0..SUB_SEEDS {
        let mut reps = eps.iter().skip(k).step_by(SUB_SEEDS).map(times);
        let mut floor = reps.next().map(<[f64]>::to_vec).unwrap_or_default();
        for xs in reps {
            for (f, x) in floor.iter_mut().zip(xs) {
                *f = f.min(*x);
            }
        }
        out.extend(floor);
    }
    out
}

/// Data seeds one run covers, derived from `--seed`. Protocol decisions
/// (placement, §6 migration) differ between data seeds, but the work per
/// cycle differs by only a few percent between them on the fixed
/// deployment, while the host's speed swings far more. So a run covers
/// two, and spends its time on repetitions: the more of them, the more
/// chances [`floors`] has to time each call when the host is quiet.
pub const SUB_SEEDS: usize = 2;

fn sub_seed(seed: u64, i: usize) -> u64 {
    seed.wrapping_mul(SUB_SEEDS as u64).wrapping_add(i as u64)
}

pub fn run(w: &SimWorkload, args: RunArgs) -> RunResult {
    let epoch = Instant::now();
    let mut tr = Tracer::new(false, epoch);
    let mut eps: Vec<Episode> = Vec::new();
    let mut traced: Vec<bool> = Vec::new();
    let mut admissions = 0usize;
    // Repetition r simulates data seed r % SUB_SEEDS, so every data seed
    // runs at least twice and its counters can be compared. A traced run
    // alternates whole untraced and traced rounds over the data seeds, so
    // the tracing overhead is measured against interleaved baselines.
    // Past the minimum, a repetition starts only if one of the mean length
    // so far still ends by the deadline.
    let another_fits = |reps: usize| {
        let elapsed = epoch.elapsed().as_secs_f64();
        elapsed + elapsed / reps as f64 <= args.seconds
    };
    while eps.len() < 2 * SUB_SEEDS || admissions < w.min_admissions || another_fits(eps.len()) {
        let rep = eps.len();
        let on = args.trace && (rep / SUB_SEEDS) % 2 == 1;
        tr.set_on(on);
        tr.set_id(rep as u64);
        let seed = sub_seed(args.seed, rep % SUB_SEEDS);
        let ep = tr.span("rep", |tr| episode(w, seed, tr, rep < SUB_SEEDS));
        admissions += ep.admit_ms.len();
        traced.push(on);
        eps.push(ep);
    }

    let mut res = RunResult {
        repetitions: eps.len(),
        ..RunResult::default()
    };
    let firsts = &eps[..SUB_SEEDS];
    res.digest = Some(digest(
        &firsts.iter().map(Episode::digest).collect::<Vec<_>>(),
    ));
    for (i, e) in eps.iter().enumerate() {
        let k = i % SUB_SEEDS;
        res.check(e.digest() == firsts[k].digest(), || {
            format!("repetition {i}: simulated counters differ from repetition {k}")
        });
        res.check(!e.kill_missing, || {
            format!("repetition {i}: no node to kill")
        });
        res.check(e.replay_mismatches == 0, || {
            format!("repetition {i}: planner replay disagrees with the session's plan")
        });
        res.attempted += e.cmd_ms.len() as u64;
    }
    res.check(admissions >= w.min_admissions, || {
        format!("{admissions} admissions, need {}", w.min_admissions)
    });
    for (k, e) in firsts.iter().enumerate() {
        let seed = sub_seed(args.seed, k);
        let ratio = e.oracle_ratio.expect("first round computes the oracle");
        res.check(ratio >= w.oracle_band.0 && ratio <= w.oracle_band.1, || {
            format!(
                "data seed {seed}: resident query delivered {ratio:.3}x the oracle, outside {:?}",
                w.oracle_band
            )
        });
        res.check(
            e.active_share >= w.active_share.0 && e.active_share <= w.active_share.1,
            || {
                format!(
                    "data seed {seed}: active node share {:.3} outside {:?}",
                    e.active_share, w.active_share
                )
            },
        );
        if matches!(w.churn, Churn::Graphs(_)) {
            res.check(e.cache.hits > 0, || {
                format!("data seed {seed}: warm-start cache never hit")
            });
            res.check(e.replan_calls > 0, || {
                format!("data seed {seed}: maybe_replan never called")
            });
        }
        if w.kill {
            res.check(e.outcome.recovery.repair_successes > 0, || {
                format!("data seed {seed}: no routing repair succeeded after the kills")
            });
        }
    }
    let mean = |f: &dyn Fn(&Episode) -> f64| firsts.iter().map(f).sum::<f64>() / SUB_SEEDS as f64;
    res.notes
        .insert("oracle_ratio", mean(&|e| e.oracle_ratio.unwrap_or(0.0)));
    res.notes
        .insert("active_node_share", mean(&|e| e.active_share));
    // How close the data seeds came to the oracle band's edges.
    let ratios = firsts.iter().map(|e| e.oracle_ratio.unwrap_or(0.0));
    res.notes
        .insert("oracle_ratio_min", ratios.clone().fold(f64::MAX, f64::min));
    res.notes
        .insert("oracle_ratio_max", ratios.fold(f64::MIN, f64::max));
    let results: u64 = firsts.iter().map(|e| e.outcome.results_total()).sum();
    let bytes: u64 = firsts.iter().map(|e| e.outcome.total_traffic_bytes()).sum();
    res.check(results > 0, || "no join results delivered".into());

    if args.trace {
        let with = |t: bool| -> Vec<&Episode> {
            eps.iter()
                .zip(&traced)
                .filter(|(_, on)| **on == t)
                .map(|(e, _)| e)
                .collect()
        };
        per_layer(&mut res, &tr, &with(true), rate(&with(false)));
        tr.write_out(w.name, args.seed);
    } else {
        let admit = floors(&eps, |e| &e.admit_ms);
        let cmd = floors(&eps, |e| &e.cmd_ms);
        let step = floors(&eps, |e| &e.step_ms);
        let per_s = |ms: &[f64]| ms.len() as f64 / (ms.iter().sum::<f64>() / 1e3);
        res.set(
            "setup_s",
            median(&eps.iter().map(|e| e.setup_s).collect::<Vec<_>>()),
        );
        res.set("cycles_per_s", per_s(&step));
        res.set("admit_ms_p50", median(&admit));
        res.set("admit_ms_p90", quantile(&admit, 0.9));
        res.set("cmds_per_s", per_s(&cmd));
        res.set("cmd_ms_p50", median(&cmd));
        res.set("cmd_ms_p90", quantile(&cmd, 0.9));
        res.set("bytes_per_result", bytes as f64 / results as f64);
        res.samples.insert("setup_s", eps.len());
        res.samples.insert("cycles_per_s", step.len());
        res.samples.insert("admit_ms", admit.len());
        res.samples.insert("cmd_ms", cmd.len());
    }
    res
}

/// Per-layer metrics from the traced repetitions' spans and counters.
fn per_layer(res: &mut RunResult, tr: &Tracer, on: &[&Episode], untraced_rate: f64) {
    let ms = |name: &str| median(&ns_to_ms(&tr.durations(name)));
    for (metric, span) in [
        ("net.topology_ms", "net.topology"),
        ("workload.data_ms", "workload.data"),
        ("session.build_ms", "session.build"),
        ("session.init_ms", "session.init"),
        ("session.report_ms", "session.report"),
        ("session.admit_ms", "session.admit"),
        ("session.retire_ms", "session.retire"),
        ("session.admit_graph_ms", "session.admit_graph"),
        ("session.retire_graph_ms", "session.retire_graph"),
        ("session.replan_ms", "session.replan"),
        ("optimize.plan_space_ms", "optimize.plan_space"),
        ("optimize.dp_ms", "optimize.dp"),
    ] {
        res.set(metric, ms(span));
        res.samples.insert(metric, tr.durations(span).len());
    }
    res.set("query.parse_us", ms("query.parse") * 1e3);
    let steps = ns_to_ms(&tr.durations("session.step"));
    res.set("session.step_ms_p50", median(&steps));
    res.set("session.step_ms_p99", quantile(&steps, 0.99));
    res.samples.insert("session.step_ms", steps.len());

    let n = on.len() as f64;
    let mean = |f: &dyn Fn(&Episode) -> f64| on.iter().map(|e| f(e)).sum::<f64>() / n;
    res.set("session.replans", mean(&|e| e.replans as f64));
    // The oracle runs on the first, untraced round of data seeds.
    let ratio = res.notes["oracle_ratio"];
    res.set("session.oracle_ratio", ratio);
    res.set("session.oracle_gap", (ratio - 1.0).abs());
    res.set("cache.hits", mean(&|e| e.cache.hits as f64));
    res.set("cache.misses", mean(&|e| e.cache.misses as f64));
    res.set(
        "cache.hit_ratio",
        mean(&|e| e.cache.hits as f64 / (e.cache.hits + e.cache.misses).max(1) as f64),
    );
    res.set("cache.xfer_bytes", mean(&|e| e.xfer_bytes as f64));
    let cycles = mean(&|e| (e.steady_cycles + 1) as f64);
    let tx_msgs = mean(&|e| e.outcome.execution.total_tx_msgs() as f64);
    res.set("sim.tx_msgs_per_cycle", tx_msgs / cycles);
    res.set(
        "sim.tx_bytes_per_cycle",
        mean(&|e| e.outcome.execution.total_tx_bytes() as f64) / cycles,
    );
    let step_ns: u64 = tr.durations("session.step").iter().sum();
    res.set("sim.ns_per_tx", step_ns as f64 / (tx_msgs * n).max(1.0));
    res.set("sim.active_node_share", mean(&|e| e.active_share));
    res.set(
        "sim.send_failures",
        mean(&|e| e.outcome.send_failures() as f64),
    );
    res.set("sim.queue_drops", mean(&|e| e.outcome.queue_drops() as f64));
    res.set(
        "routing.repair_attempts",
        mean(&|e| e.outcome.recovery.repair_attempts as f64),
    );
    res.set(
        "routing.repair_successes",
        mean(&|e| e.outcome.recovery.repair_successes as f64),
    );
    res.set(
        "routing.tuples_rerouted",
        mean(&|e| e.outcome.recovery.tuples_rerouted as f64),
    );
    res.set(
        "routing.tuples_lost",
        mean(&|e| e.outcome.recovery.tuples_lost as f64),
    );
    let traced_rate = rate(on);
    res.set(
        "trace.overhead_pct",
        (untraced_rate - traced_rate) / untraced_rate * 100.0,
    );
    res.set("trace.unattributed_share", tr.self_share("rep"));
}
