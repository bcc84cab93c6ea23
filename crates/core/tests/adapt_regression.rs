//! Regression tests for the ISSUE 3 adaptation-layer bugs. Each test fails
//! on the pre-fix code:
//!
//! 1. `evaluate_pair` double-ticked a pair's cycle counter on evaluation
//!    cycles with no estimate, deflating every σ estimate;
//! 2. `handle_send_failure` dropped the in-flight tuple when the repaired
//!    path no longer ran through the repairing node;
//! 3. a successful repair never updated the stored `path`/`hops` vectors,
//!    so later §6 placement decisions used pre-repair distances.

use aspen_join::learn::PairStats;
use aspen_join::msg::{side, Msg, Pair, Route};
use aspen_join::node::PairState;
use aspen_join::prelude::*;
use aspen_join::scenario::default_indexed_attrs;
use aspen_join::{Algorithm, JoinNode, Shared};
use sensor_net::{NodeId, Point, Topology};
use sensor_query::Tuple;
use sensor_routing::MultiTreeSubstrate;
use sensor_sim::{Engine, Protocol};
use sensor_workload::{query0, WorkloadData};
use std::collections::VecDeque;
use std::sync::Arc;

/// Ladder topology (as in the repair unit tests): with range 1.5 the
/// diagonals connect, so node 6 bridges 1 and 3 around a failed node 2.
///   0 - 1 - 2 - 3
///   |   |   |   |
///   4 - 5 - 6 - 7
fn ladder() -> Topology {
    let mut pts = Vec::new();
    for i in 0..4 {
        pts.push(Point::new(i as f64, 1.0));
    }
    for i in 0..4 {
        pts.push(Point::new(i as f64, 0.0));
    }
    Topology::from_positions(pts, 1.5, NodeId(0))
}

/// A bare engine of `JoinNode`s that was never initiated: the tests plant
/// protocol state by hand and drive single callbacks.
struct Net {
    engine: Engine<JoinNode>,
    shared: Arc<Shared>,
}

fn build_run(topo: Topology, opts: InnetOptions) -> Net {
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 3);
    let sub = Arc::new(MultiTreeSubstrate::build(
        &topo,
        1,
        default_indexed_attrs(),
        &data,
    ));
    let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2)).with_innet_options(opts);
    let shared = Arc::new(Shared::new(
        &topo,
        sub,
        query0(3),
        &data,
        cfg,
        &[],
        SimConfig::lossless().tx_per_sampling_cycle,
    ));
    let sh = shared.clone();
    let engine = Engine::new(topo, SimConfig::lossless(), move |id| {
        JoinNode::new(id, sh.clone())
    });
    Net { engine, shared }
}

fn pair_state(pair: Pair, path: Vec<NodeId>, hops: Vec<u16>, j_idx: Option<usize>) -> PairState {
    PairState {
        pair,
        seq: 0,
        path,
        hops,
        j_idx,
        assumed: Sigma::new(0.5, 0.5, 0.2),
        win_s: VecDeque::new(),
        win_t: VecDeque::new(),
        stats: PairStats::default(),
    }
}

/// Bug 1: on an evaluation cycle where a pair has no estimate yet (no
/// tuples received), the cycle counter must advance exactly once — the
/// `learning_tick` at the top of the sampling cycle. The pre-fix code
/// ticked a second time in the no-estimate branch of `evaluate_pair`,
/// so σ = N/T used an inflated T on every evaluation cycle.
#[test]
fn evaluation_cycle_does_not_double_tick() {
    let mut run = build_run(ladder(), InnetOptions::PLAIN.with_learning());
    let id = NodeId(5);
    let pair = Pair::new(NodeId(4), NodeId(6));
    run.engine.node_mut(id).pairs.insert(
        pair,
        pair_state(
            pair,
            vec![NodeId(4), NodeId(5), NodeId(6)],
            vec![1, 2, 2],
            Some(1),
        ),
    );
    // Drive sampling cycles 0..=20 directly at the node; the default
    // learn_interval is 20, so cycle 20 runs an evaluation with no
    // evidence (the node never received a tuple for the pair).
    assert_eq!(run.shared.cfg.learn_interval, 20);
    for c in 0..=20u32 {
        run.engine
            .with_node(id, |p, ctx| p.on_sampling_cycle(ctx, c));
    }
    let stats = run.engine.node(id).pairs[&pair].stats;
    assert_eq!(stats.n_s + stats.n_t, 0, "test premise: no tuples arrived");
    assert_eq!(
        stats.cycles, 21,
        "21 sampling cycles must tick exactly 21 times (double-tick bug)"
    );
}

/// Bug 2: a repaired path that no longer runs through the repairing node
/// must not swallow the in-flight tuple — it is diverted onto the routing
/// tree and reaches the base station.
#[test]
fn in_flight_tuple_survives_desynced_repair() {
    let mut run = build_run(ladder(), InnetOptions::PLAIN);
    // Node 4 holds a (stale/desynced) route 1-2-3 it is not on. Node 2
    // died; the local bypass is 1-6-3 — which does not contain 4 either.
    let repairer = NodeId(4);
    let dead = NodeId(2);
    run.shared.mark_dead(dead);
    run.engine.kill(dead);
    let tuple = Tuple::new(NodeId(1), 0);
    let msg = Msg::Data {
        from: NodeId(1),
        sides: side::S,
        tuple,
        route: Route::Path {
            path: vec![NodeId(1), dead, NodeId(3)],
            pos: 1,
        },
        fallback: None,
    };
    run.engine
        .with_node(repairer, |p, ctx| p.on_send_failed(ctx, dead, msg));
    run.engine.run_until_quiet(100);
    let rec = run.engine.node(repairer).recovery;
    assert_eq!(rec.repair_attempts, 1);
    assert_eq!(rec.repair_successes, 1);
    assert_eq!(
        rec.tuples_rerouted, 1,
        "tuple must be salvaged via tree-up, not dropped"
    );
    assert_eq!(rec.tuples_lost, 0);
    // The tuple actually reached the base station's join windows.
    let base_windows = &run
        .engine
        .node(NodeId(0))
        .base_state()
        .expect("base state")
        .windows;
    assert!(
        base_windows.contains_key(&(NodeId(1), side::S)),
        "in-flight tuple must arrive at the base (was silently dropped pre-fix)"
    );
}

/// Bug 3: after a successful local repair the stored producer assignment
/// must be spliced onto the repaired path with freshly computed base
/// distances and a remapped join-node index — not left pointing through
/// the dead node with pre-repair `hops`.
#[test]
fn successful_repair_patches_stale_path_and_hops() {
    // Straight line 0(base)-1-2-3 with an arc detour 4-5 above it: when 2
    // dies, the only local bypass is the two-node bridge 1-4-5-3, which
    // changes both the path length and the join node's index.
    let pts = vec![
        Point::new(-1.0, 0.0), // 0: base
        Point::new(0.0, 0.0),  // 1: producer (s)
        Point::new(1.0, 0.0),  // 2: relay, dies
        Point::new(2.0, 0.0),  // 3: join node
        Point::new(0.5, 0.9),  // 4: bridge a
        Point::new(1.5, 0.9),  // 5: bridge b
    ];
    let topo = Topology::from_positions(pts, 1.05, NodeId(0));
    let mut run = build_run(topo, InnetOptions::PLAIN);
    let producer = NodeId(1);
    let dead = NodeId(2);
    let pair = Pair::new(producer, NodeId(3));
    run.engine.node_mut(producer).assigns.insert(
        pair,
        aspen_join::node::ProducerAssign {
            pair,
            seq: 0,
            path: vec![NodeId(1), NodeId(2), NodeId(3)],
            hops: vec![9, 9, 9], // deliberately stale
            j_idx: Some(2),
            base_mode: false,
        },
    );
    run.shared.mark_dead(dead);
    run.engine.kill(dead);
    let msg = Msg::Data {
        from: producer,
        sides: side::S,
        tuple: Tuple::new(producer, 0),
        route: Route::Path {
            path: vec![NodeId(1), NodeId(2), NodeId(3)],
            pos: 1,
        },
        fallback: None,
    };
    run.engine
        .with_node(producer, |p, ctx| p.on_send_failed(ctx, dead, msg));
    let a = &run.engine.node(producer).assigns[&pair];
    assert_eq!(
        a.path,
        vec![NodeId(1), NodeId(4), NodeId(5), NodeId(3)],
        "assignment must be spliced onto the repaired path"
    );
    assert_eq!(a.j_idx, Some(3), "join-node index remapped on the new path");
    let expect_hops: Vec<u16> = a
        .path
        .iter()
        .map(|&n| run.shared.sub.hops_to_base(n))
        .collect();
    assert_eq!(a.hops, expect_hops, "hops recomputed, not the stale vector");
    assert!(
        !a.base_mode,
        "a repairable failure must not force base mode"
    );
    assert_eq!(run.engine.node(producer).recovery.paths_patched, 1);
}

/// A migration hand-off lost in flight must re-form the pair at the base
/// with `j_idx = None`: diverting it tree-up while keeping the original
/// `Some(j)` index would make the base adopt a pair whose assignments
/// point at a join node that never received the window state (and trips
/// `send_assign`'s path debug-assert in test builds).
#[test]
fn lost_window_xfer_reforms_pair_at_base() {
    let mut run = build_run(ladder(), InnetOptions::PLAIN.with_learning());
    let carrier = NodeId(5);
    let dead = NodeId(6);
    run.shared.mark_dead(dead);
    run.engine.kill(dead);
    let pair = Pair::new(NodeId(4), NodeId(7));
    let tuple = Tuple::new(NodeId(4), 0);
    // A WindowXfer migrating the pair to node 6 (index 2 on its path),
    // abandoned at node 5 because 6 died.
    let msg = Msg::WindowXfer {
        pair,
        seq: 1,
        path: vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)],
        hops: vec![1, 2, 2, 2],
        new_j_idx: Some(2),
        assumed: Sigma::new(0.5, 0.5, 0.2),
        win_s: vec![tuple],
        win_t: vec![],
        route: Route::Path {
            path: vec![NodeId(5), NodeId(6)],
            pos: 1,
        },
    };
    run.engine
        .with_node(carrier, |p, ctx| p.on_send_failed(ctx, dead, msg));
    run.engine.run_until_quiet(200);
    let base_pairs = &run
        .engine
        .node(NodeId(0))
        .base_state()
        .expect("base state")
        .pairs;
    let adopted = base_pairs.get(&pair).expect("pair re-formed at the base");
    assert_eq!(
        adopted.j_idx, None,
        "diverted transfer must target the base"
    );
    assert_eq!(adopted.win_s.len(), 1, "window state survived the hand-off");
}

/// A node isolated from the routing tree (no alive parent) cannot divert
/// a lost WindowXfer anywhere: the migration state is gone, and the
/// recovery metrics must say so instead of counting a phantom salvage.
#[test]
fn stranded_window_xfer_is_counted_as_lost() {
    let mut run = build_run(ladder(), InnetOptions::PLAIN.with_learning());
    // Isolate node 7: its neighbors (3, 6, and diagonal 2) all die.
    let carrier = NodeId(7);
    for d in [2u16, 3, 6] {
        run.shared.mark_dead(NodeId(d));
        run.engine.kill(NodeId(d));
    }
    let pair = Pair::new(NodeId(4), NodeId(7));
    let msg = Msg::WindowXfer {
        pair,
        seq: 1,
        path: vec![NodeId(4), NodeId(5), NodeId(6), NodeId(7)],
        hops: vec![1, 2, 2, 2],
        new_j_idx: Some(2),
        assumed: Sigma::new(0.5, 0.5, 0.2),
        win_s: vec![Tuple::new(NodeId(4), 0), Tuple::new(NodeId(4), 1)],
        win_t: vec![Tuple::new(NodeId(7), 1)],
        route: Route::Path {
            path: vec![NodeId(7), NodeId(6)],
            pos: 1,
        },
    };
    run.engine
        .with_node(carrier, |p, ctx| p.on_send_failed(ctx, NodeId(6), msg));
    run.engine.run_until_quiet(100);
    let rec = run.engine.node(carrier).recovery;
    assert_eq!(
        rec.tuples_lost, 3,
        "all three window tuples are unrecoverable and must be counted"
    );
    assert_eq!(rec.tuples_rerouted, 0, "nothing was actually salvaged");
    // The pair did not magically re-form at the base.
    let base_pairs = &run
        .engine
        .node(NodeId(0))
        .base_state()
        .expect("base state")
        .pairs;
    assert!(!base_pairs.contains_key(&pair));
}
