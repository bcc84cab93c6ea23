//! Parity checks for the one session backend. A bare-wire session (the
//! paper's single-query framing) is the tagged multi-query wire with a
//! 0-byte query tag, so it must compute exactly what a default-tag
//! session computes and differ from it by one byte per transmitted frame
//! — no more. The session must also agree with itself when stepping is
//! chunked.

use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_net::NodeId;
use sensor_workload::{query1, WorkloadData};

const RATES: Rates = Rates {
    s_den: 2,
    t_den: 2,
    st_den: 5,
};

fn scenario(seed: u64, algo: Algorithm, opts: InnetOptions) -> Scenario {
    let topo = sensor_net::random_with_degree(60, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(RATES), seed);
    let mut sim = SimConfig::default().with_seed(seed);
    if opts.path_collapse {
        sim = sim.with_snooping(true);
    }
    Scenario {
        topo,
        data,
        spec: query1(3),
        cfg: AlgoConfig::new(algo, Sigma::from_rates(RATES)).with_innet_options(opts),
        sim,
        num_trees: 3,
    }
}

/// The same single query with a 1-byte query tag on every frame.
fn tagged_session(sc: &Scenario) -> Session {
    Session::builder(sc.topo.clone(), sc.data.clone())
        .sim(sc.sim.clone())
        .trees(sc.num_trees)
        .query(sc.spec.clone(), sc.cfg)
        .build()
}

/// Step 10 cycles under a random-kill plan, kill `victim` (or the
/// busiest join node) directly, step 10 more, and report. Returns the
/// directly killed node so both wires can be handed the same one.
fn run_with_failures(mut s: Session, seed: u64, victim: Option<NodeId>) -> (Outcome, NodeId) {
    s.set_plan(DynamicsPlan::none().with_seed(seed).kill_random(6, 2));
    s.step(10);
    let victim = victim
        .or_else(|| s.busiest_join_node())
        .unwrap_or(NodeId(1));
    s.kill(victim);
    s.step(10);
    (s.report(), victim)
}

/// A `bare_wire()` session and a default-tag session on the same query
/// compute the same thing — results, delays, message counts, failures,
/// kills and recovery — and the tag costs exactly one byte per frame.
#[test]
fn bare_wire_is_the_tagged_wire_minus_one_byte_per_frame() {
    let algos = [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Yang07, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CMG.with_learning()),
        (Algorithm::Innet, InnetOptions::CMPG),
    ];
    for (algo, opts) in algos {
        for seed in [3, 17, 29] {
            let sc = scenario(seed, algo, opts);
            let ctx = format!("{} seed {seed}", sc.cfg.label());
            let (bare, victim) = run_with_failures(sc.session(), seed, None);
            let (tagged, _) = run_with_failures(tagged_session(&sc), seed, Some(victim));
            assert_eq!(bare.per_query.len(), 1, "{ctx}");
            assert_eq!(
                bare.per_query[0].results, tagged.per_query[0].results,
                "{ctx}: results"
            );
            assert_eq!(
                bare.avg_delay_tx(),
                tagged.avg_delay_tx(),
                "{ctx}: avg_delay_tx"
            );
            assert_eq!(
                bare.initiation_cycles, tagged.initiation_cycles,
                "{ctx}: initiation_cycles"
            );
            for (phase, b, t) in [
                ("initiation", &bare.initiation, &tagged.initiation),
                ("execution", &bare.execution, &tagged.execution),
            ] {
                assert_eq!(b.total_tx_msgs(), t.total_tx_msgs(), "{ctx}: {phase} msgs");
                assert_eq!(
                    b.total_send_failures(),
                    t.total_send_failures(),
                    "{ctx}: {phase} send failures"
                );
                assert_eq!(
                    b.total_queue_drops(),
                    t.total_queue_drops(),
                    "{ctx}: {phase} queue drops"
                );
                assert_eq!(
                    t.total_tx_bytes() - b.total_tx_bytes(),
                    b.total_tx_msgs(),
                    "{ctx}: {phase} bytes differ by one tag byte per frame"
                );
            }
            assert_eq!(bare.killed, tagged.killed, "{ctx}: killed");
            assert_eq!(bare.killed.len(), 3, "{ctx}: plan and direct kills fired");
            assert_eq!(
                bare.queued_msgs_lost, tagged.queued_msgs_lost,
                "{ctx}: queued_msgs_lost"
            );
            assert_eq!(bare.recovery, tagged.recovery, "{ctx}: recovery");
            assert_eq!(
                bare.results_pre_event, tagged.results_pre_event,
                "{ctx}: results_pre_event"
            );
        }
    }
}

/// The session agrees with itself even when stepping is chunked:
/// step(a); step(b) == step(a + b).
#[test]
fn chunked_stepping_matches_one_shot() {
    let sc = scenario(17, Algorithm::Innet, InnetOptions::CM);
    let one_shot = {
        let mut s = sc.session();
        s.step(18);
        s.report()
    };
    let chunked = {
        let mut s = sc.session();
        s.step(5);
        s.step(13);
        s.report()
    };
    // Chunking must not drain between chunks: identical traffic + results.
    assert_eq!(chunked.execution, one_shot.execution);
    assert_eq!(chunked.results_total(), one_shot.results_total());
    assert_eq!(chunked.per_cycle_tx_bytes, one_shot.per_cycle_tx_bytes);
}
