//! Protocol-mechanism tests on small, hand-checkable topologies: join-node
//! placement locations, multicast state, group decisions, Yang+07 routing,
//! learning migrations and window hand-off.

use aspen_join::msg::Pair;
use aspen_join::prelude::*;
use aspen_join::Algorithm;
use sensor_net::{NodeId, Point, Topology};
use sensor_sim::SimConfig;
use sensor_workload::{query0, query1, WorkloadData};

/// A line of `n` nodes, base at one end: placement geometry is exact.
fn line(n: usize) -> Topology {
    let pts = (0..n).map(|i| Point::new(i as f64 * 10.0, 0.0)).collect();
    Topology::from_positions(pts, 11.0, NodeId(0))
}

fn line_scenario(algo: Algorithm, opts: InnetOptions, assumed: Sigma) -> Scenario {
    let topo = line(11);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 3).with_pairs(1);
    Scenario {
        topo,
        data,
        spec: query0(3),
        cfg: AlgoConfig::new(algo, assumed).with_innet_options(opts),
        sim: SimConfig::lossless(),
        num_trees: 1,
    }
}

/// The session's one query.
const Q: QueryId = QueryId(0);

/// Build the scenario's session and run its initiation phase.
fn initiated(sc: Scenario) -> Session {
    let mut s = sc.into_session();
    s.step(0);
    s
}

/// Where did the single Query-0 pair land?
fn find_join_node(s: &Session) -> Option<NodeId> {
    let n = s.topology().len() as u16;
    (0..n)
        .map(NodeId)
        .find(|&id| s.query_node(Q, id).pair_count() > 0)
}

#[test]
fn placement_lands_between_endpoints_for_rare_joins() {
    // Rare join, symmetric rates: the join node must sit strictly between
    // the pair's endpoints on the line (pairwise transport optimum).
    let sc = line_scenario(
        Algorithm::Innet,
        InnetOptions::PLAIN,
        Sigma::new(1.0, 1.0, 0.01),
    );
    let s = initiated(sc);
    let j = find_join_node(&s).expect("pair placed in-network");
    // Find the pair endpoints from the assignments.
    let mut endpoints = Vec::new();
    for i in 0..11u16 {
        if !s.query_node(Q, NodeId(i)).assigns.is_empty() {
            endpoints.push(i);
        }
    }
    endpoints.sort_unstable();
    assert_eq!(endpoints.len(), 2, "one pair, two producers");
    assert!(
        (endpoints[0]..=endpoints[1]).contains(&j.0),
        "join node {j} outside segment {endpoints:?}"
    );
}

#[test]
fn hot_joins_go_to_base() {
    // sigma_st = 1 with a window: result forwarding dominates, the §3.2
    // comparison sends the pair to the base station.
    let sc = line_scenario(
        Algorithm::Innet,
        InnetOptions::PLAIN,
        Sigma::new(1.0, 1.0, 1.0),
    );
    let s = initiated(sc);
    assert_eq!(find_join_node(&s), None, "no in-network join node");
    let base_pairs = s.query_node(Q, NodeId(0)).base_state().unwrap().pairs.len();
    assert_eq!(base_pairs, 1, "the pair registered at the base");
}

#[test]
fn learning_migrates_pair_with_windows() {
    // Start believing the join is hot (pair at base); the true data is
    // rare-joining, so learning must migrate the pair into the network.
    let sc = {
        let mut sc = line_scenario(
            Algorithm::Innet,
            InnetOptions::PLAIN.with_learning(),
            Sigma::new(1.0, 1.0, 1.0), // wrong: true sigma_st is 0.2
        );
        sc.cfg.learn_interval = 10;
        sc
    };
    let mut s = initiated(sc);
    assert_eq!(find_join_node(&s), None, "starts at the base");
    s.step(60);
    let results = s.report().results_total();
    let j = find_join_node(&s);
    assert!(j.is_some(), "pair migrated in-network after learning");
    // The migrated pair carries windows (transferred, not reset-empty
    // forever): after execution they must hold tuples.
    let jn = s.query_node(Q, j.unwrap());
    let pair_state = jn.pairs.values().next().unwrap();
    assert!(
        !pair_state.win_s.is_empty() || !pair_state.win_t.is_empty(),
        "windows empty after migration + execution"
    );
    // And results keep flowing.
    assert!(results > 0);
}

#[test]
fn multicast_state_installed_at_interior_nodes() {
    let topo = sensor_net::random_with_degree(80, 7.0, 19);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 20)), 19);
    let sc = Scenario {
        topo: topo.clone(),
        data,
        spec: query1(3),
        cfg: AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.05))
            .with_innet_options(InnetOptions::CM),
        sim: SimConfig::lossless(),
        num_trees: 3,
    };
    let mut s = initiated(sc);
    s.step(3); // mcast maintenance runs on the first sampling ticks
    s.report();
    let mut owners = 0;
    let mut interior = 0;
    for i in 0..topo.len() as u16 {
        let n = s.query_node(Q, NodeId(i));
        if n.mc_tree.is_some() {
            owners += 1;
        }
        interior += n.mc_children.values().filter(|v| !v.is_empty()).count();
    }
    assert!(owners > 0, "no multicast owners despite m:n query");
    assert!(interior > 0, "no interior forwarding state installed");
}

#[test]
fn group_decision_consistent_across_members() {
    let topo = sensor_net::random_with_degree(80, 7.0, 23);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 23);
    let sc = Scenario {
        topo: topo.clone(),
        data,
        spec: query1(3),
        cfg: AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2))
            .with_innet_options(InnetOptions::CMG),
        sim: SimConfig::lossless(),
        num_trees: 3,
    };
    let s = initiated(sc);
    // Every coordinator that decided must have a complete delta set, and
    // within each pair both endpoints must agree on base_mode.
    let mut decisions = std::collections::HashMap::new();
    for i in 0..topo.len() as u16 {
        let n = s.query_node(Q, NodeId(i));
        for c in n.coord.values() {
            if c.last_decision.is_some() {
                assert!(c.is_complete(), "decided without all member deltas");
            }
        }
        for (pair, a) in &n.assigns {
            decisions
                .entry(*pair)
                .or_insert_with(Vec::new)
                .push(a.base_mode);
        }
    }
    let mut checked = 0;
    for (pair, modes) in decisions {
        if modes.len() == 2 {
            assert_eq!(modes[0], modes[1], "pair {pair:?} endpoints disagree");
            checked += 1;
        }
    }
    assert!(checked > 0, "no pairs with both endpoints visible");
}

#[test]
fn yang07_targets_receive_forwarded_s_data() {
    let topo = sensor_net::random_with_degree(60, 7.0, 29);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 29);
    let sc = Scenario {
        topo: topo.clone(),
        data,
        spec: query1(3),
        cfg: AlgoConfig::new(Algorithm::Yang07, Sigma::new(1.0, 1.0, 0.2)),
        sim: SimConfig::lossless(),
        num_trees: 1,
    };
    let mut s = initiated(sc);
    s.step(10);
    // T-side nodes hold local windows and produced results without ever
    // shipping their own data (their TX is only results + relaying).
    let stats = s.report();
    assert!(
        stats.results_total() > 0,
        "through-the-base produced no results"
    );
    let t_with_windows = (0..topo.len() as u16)
        .filter(|&i| !s.query_node(Q, NodeId(i)).yang_win.is_empty())
        .count();
    assert!(t_with_windows > 0, "no Yang+07 local windows");
}

#[test]
fn ght_members_register_at_common_home() {
    let topo = sensor_net::random_with_degree(60, 7.0, 31);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 31).with_pairs(5);
    let sc = Scenario {
        topo: topo.clone(),
        data,
        spec: query0(3),
        cfg: AlgoConfig::new(Algorithm::Ght, Sigma::new(1.0, 1.0, 0.2)),
        sim: SimConfig::lossless(),
        num_trees: 1,
    };
    let s = initiated(sc);
    // Each of the 5 pair keys must have exactly one home holding both
    // endpoints.
    let mut homes_with_full_groups = 0;
    for i in 0..topo.len() as u16 {
        for g in s.query_node(Q, NodeId(i)).ght_groups.values() {
            let s_count = g
                .members
                .iter()
                .filter(|(_, sides, _)| sides & 1 != 0)
                .count();
            let t_count = g
                .members
                .iter()
                .filter(|(_, sides, _)| sides & 2 != 0)
                .count();
            if s_count >= 1 && t_count >= 1 {
                homes_with_full_groups += 1;
            }
        }
    }
    assert_eq!(homes_with_full_groups, 5, "every pair key rendezvoused");
}

#[test]
fn intermediate_path_failure_repairs_locally() {
    // Build a pair on a grid (redundant links), fail a mid-path relay
    // (not the join node): local repair should keep the pair in-network.
    let topo = sensor_net::gen::grid(8, 8);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 10)), 37).with_pairs(1);
    let sc = Scenario {
        topo: topo.clone(),
        data,
        spec: query0(3),
        cfg: AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 0.1)),
        sim: SimConfig::lossless(),
        num_trees: 3,
    };
    let mut s = initiated(sc);
    let Some(j) = find_join_node(&s) else {
        // Pair landed at the base on this layout; nothing to test.
        return;
    };
    // Pick a relay node: a neighbor of the join node on some assignment
    // path that is neither producer nor join node.
    let mut victim = None;
    'outer: for i in 0..topo.len() as u16 {
        for a in s.query_node(Q, NodeId(i)).assigns.values() {
            for &n in &a.path {
                if n != a.pair.s && n != a.pair.t && n != j && n != topo.base() {
                    victim = Some(n);
                    break 'outer;
                }
            }
        }
    }
    let Some(victim) = victim else { return };
    s.kill(victim);
    s.step(30);
    let stats = s.report();
    assert!(
        stats.results_total() > 0,
        "no results after mid-path relay failure"
    );
}

#[test]
fn pair_sequence_numbers_keep_latest_assignment() {
    use aspen_join::node::ProducerAssign;
    use aspen_join::scenario::default_indexed_attrs;
    use aspen_join::{JoinNode, Shared};
    use sensor_routing::MultiTreeSubstrate;
    use std::sync::Arc;
    // adopt_assign must be monotonic in seq. A white-box check on one
    // node's protocol instance, outside any engine.
    let topo = line(5);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 1).with_pairs(1);
    let sub = Arc::new(MultiTreeSubstrate::build(
        &topo,
        1,
        default_indexed_attrs(),
        &data,
    ));
    let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 0.2));
    let period = SimConfig::default().tx_per_sampling_cycle;
    let shared = Shared::new(&topo, sub, query0(3), &data, cfg, &[], period);
    let mut node = JoinNode::new(NodeId(1), Arc::new(shared));
    let pair = Pair::new(NodeId(1), NodeId(2));
    node.adopt_assign(pair, 5, vec![NodeId(1), NodeId(2)], Some(1));
    node.adopt_assign(pair, 3, vec![NodeId(1), NodeId(3)], Some(0)); // stale
    let a: &ProducerAssign = &node.assigns[&pair];
    assert_eq!(a.seq, 5, "stale assignment overwrote newer one");
}
