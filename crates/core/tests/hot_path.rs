//! Pins for the protocol's per-message path: a small lossy churn session
//! whose exact counters must not move when that path is optimised, the
//! result-delay period, and the per-query liveness oracle.

use aspen_join::prelude::*;
use aspen_join::{Algorithm, QueryId};
use sensor_net::NodeId;
use sensor_query::{parse_join_graph, parser::parse_query, JoinQuerySpec};
use sensor_workload::{query1, WorkloadData};

const RATES: Rates = Rates {
    s_den: 2,
    t_den: 2,
    st_den: 5,
};

/// 5% link loss (the default) with enough MAC budget and retries that
/// loss costs retransmissions rather than abandoned sends.
fn lossy_sim(seed: u64) -> SimConfig {
    SimConfig {
        max_retries: 8,
        tx_per_cycle: 16,
        queue_capacity: 256,
        ..SimConfig::default().with_seed(seed)
    }
}

fn learning_spec() -> JoinQuerySpec {
    parse_query(
        "SELECT s.id, t.id FROM s, t [windowsize=3 sampleinterval=100] \
         WHERE s.id < 30 AND t.id >= 30 AND t.id < 60 AND s.u = t.u",
    )
    .expect("query parses")
}

fn churn_graph() -> sensor_query::JoinGraph {
    parse_join_graph(
        "SELECT a.id, c.id FROM a, b, c [windowsize=3 sampleinterval=100] \
         WHERE a.id >= 60 AND a.id < 72 AND b.id >= 72 AND b.id < 84 \
         AND c.id >= 84 AND c.id < 96 AND a.u = b.u AND b.u = c.u",
    )
    .expect("graph parses")
}

/// The counters the pin compares.
#[derive(Debug, PartialEq, Eq)]
struct Counters {
    results: Vec<u64>,
    tx_bytes: u64,
    tx_msgs: u64,
    repair_attempts: u64,
    repair_successes: u64,
    cache_hits: u64,
    cache_misses: u64,
}

/// ~120 nodes, Query 1 (Innet-CMG) resident, a §6 learning query
/// admitted, retired and re-admitted (a warm-start cache hit), one join
/// graph admitted then retired, and the busiest join node killed.
fn churn_counters() -> Counters {
    let seed = 7;
    let topo = sensor_net::random_with_degree(120, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let cmg = AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2))
        .with_innet_options(InnetOptions::CMG);
    let learn = AlgoConfig {
        learn_interval: 4,
        ..AlgoConfig::new(Algorithm::Innet, Sigma::new(0.9, 0.1, 0.5))
            .with_innet_options(InnetOptions::CM.with_learning())
    };
    let path_routed = AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2));
    let mut s = Session::builder(topo, data)
        .sim(lossy_sim(seed))
        .warm_start(true)
        .query(query1(3), cmg)
        .build();
    s.step(2);
    let q = s.admit(learning_spec(), learn);
    s.step(2);
    let g = s.admit_graph(&churn_graph(), path_routed);
    s.step(6);
    let victim = s.busiest_join_node().expect("a join node hosts pairs");
    s.kill(victim);
    s.step(6);
    s.retire(q);
    s.retire_graph(g);
    s.step(1);
    s.admit(learning_spec(), learn);
    s.step(7);
    let out = s.report();
    let cache = s.cache_stats();
    Counters {
        results: out.per_query.iter().map(|q| q.results).collect(),
        tx_bytes: out.total_traffic_bytes(),
        tx_msgs: out.total_traffic_msgs(),
        repair_attempts: out.recovery.repair_attempts,
        repair_successes: out.recovery.repair_successes,
        cache_hits: cache.hits,
        cache_misses: cache.misses,
    }
}

/// Optimising the per-message path must not change what is simulated:
/// these are the counters the session produced before the path was made
/// allocation- and lock-free.
#[test]
fn lossy_churn_session_counters_are_pinned() {
    assert_eq!(
        churn_counters(),
        Counters {
            results: vec![874, 8400, 1464, 1389, 510],
            tx_bytes: 2_434_191,
            tx_msgs: 67_609,
            repair_attempts: 52,
            repair_successes: 34,
            cache_hits: 1,
            cache_misses: 5,
        }
    );
}

/// Result delays are measured against the engine's real sampling period:
/// at 50 transmission cycles per sampling cycle a multi-hop delivery
/// still takes a positive number of transmission cycles.
#[test]
fn result_delay_uses_the_configured_sampling_period() {
    let seed = 3;
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let sim = SimConfig {
        tx_per_sampling_cycle: 50,
        ..SimConfig::lossless().with_seed(seed)
    };
    let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(RATES));
    let mut s = Session::builder(topo, data)
        .sim(sim)
        .query(query1(3), cfg)
        .build();
    s.step(12);
    let out = s.report();
    assert!(out.results_total() > 0, "no results delivered");
    let delay = out.avg_delay_tx();
    assert!(delay > 0.0, "avg_delay_tx = {delay} at a 50-cycle period");
    assert!(
        delay < 50.0 * 12.0,
        "avg_delay_tx = {delay} exceeds the run"
    );
}

/// Every query's liveness oracle sees a killed node dead: one resident
/// at the kill learns it through the run's `mark_dead`, one admitted
/// afterwards inherits it at admission. Nodes never killed stay alive.
#[test]
fn liveness_oracle_covers_resident_and_later_queries() {
    let seed = 4;
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::from_rates(RATES));
    let mut s = Session::builder(topo, data)
        .sim(SimConfig::lossless().with_seed(seed))
        .query(query1(3), cfg)
        .build();
    s.step(3);
    let victim = s.busiest_join_node().expect("a join node hosts pairs");
    s.kill(victim);
    let later = s.admit(learning_spec(), cfg);
    s.step(2);
    let bystander = (0..s.topology().len() as u16)
        .map(NodeId)
        .find(|&n| n != victim)
        .expect("more than one node");
    for q in [QueryId(0), later] {
        let sh = &s.query_node(q, victim).sh;
        assert!(
            sh.is_dead(victim),
            "query {q:?} missed the death of {victim:?}"
        );
        assert!(
            !sh.is_dead(bystander),
            "query {q:?} thinks {bystander:?} died"
        );
    }
}
