//! End-to-end algorithm tests: every join strategy against the oracle, on
//! lossless networks where the expected result counts are predictable.

use aspen_join::prelude::*;
use aspen_join::scenario::oracle_result_count;
use sensor_net::NodeId;
use sensor_sim::SimConfig;
use sensor_workload::{query0, query1, query2, query3, WorkloadData};

const CYCLES: u32 = 40;

/// Initiate, run `cycles` sampling cycles, and report.
fn run_stats(sc: &Scenario, cycles: u32) -> Outcome {
    let mut s = sc.session();
    s.step(cycles);
    s.report()
}

fn scenario(
    algo: Algorithm,
    opts: InnetOptions,
    assumed: Sigma,
    rates: Rates,
    seed: u64,
) -> Scenario {
    let topo = sensor_net::random_with_degree(80, 7.0, seed);
    let data = WorkloadData::new(&topo, Schedule::Uniform(rates), seed).with_pairs(10);
    Scenario {
        topo,
        data,
        spec: query1(3),
        cfg: AlgoConfig::new(algo, assumed).with_innet_options(opts),
        sim: SimConfig::lossless(),
        num_trees: 3,
    }
}

/// Result-count agreement band vs the oracle: transport delays skew
/// window alignment slightly, so exact equality is not expected; the
/// computation must still track the oracle closely.
fn assert_close_to_oracle(got: u64, oracle: u64, label: &str) {
    assert!(oracle > 0, "{label}: oracle found no results — weak test");
    let lo = oracle as f64 * 0.6;
    let hi = oracle as f64 * 1.4 + 8.0;
    assert!(
        (got as f64) >= lo && (got as f64) <= hi,
        "{label}: got {got}, oracle {oracle}"
    );
}

#[test]
fn naive_matches_oracle() {
    let sc = scenario(
        Algorithm::Naive,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let stats = run_stats(&sc, CYCLES);
    let oracle = oracle_result_count(&sc.topo, &sc.data, &sc.spec, CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "naive");
    // Naive has no initiation at all.
    assert_eq!(stats.initiation.total_tx_bytes(), 0);
}

#[test]
fn base_matches_oracle_with_cheaper_execution() {
    let naive = scenario(
        Algorithm::Naive,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let base = scenario(
        Algorithm::Base,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let ns = run_stats(&naive, CYCLES);
    let bs = run_stats(&base, CYCLES);
    let oracle = oracle_result_count(&base.topo, &base.data, &base.spec, CYCLES);
    assert_close_to_oracle(bs.results_total(), oracle, "base");
    // Pre-filtering costs initiation but trims execution traffic.
    assert!(bs.initiation.total_tx_bytes() > 0);
    assert!(
        bs.execution_traffic_bytes() <= ns.execution_traffic_bytes(),
        "base exec {} vs naive exec {}",
        bs.execution_traffic_bytes(),
        ns.execution_traffic_bytes()
    );
}

#[test]
fn innet_matches_oracle() {
    let sc = scenario(
        Algorithm::Innet,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let stats = run_stats(&sc, CYCLES);
    let oracle = oracle_result_count(&sc.topo, &sc.data, &sc.spec, CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "innet");
    assert!(stats.initiation.total_tx_bytes() > 0, "exploration costs");
}

#[test]
fn ght_matches_oracle() {
    let sc = scenario(
        Algorithm::Ght,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    let stats = run_stats(&sc, CYCLES);
    let oracle = oracle_result_count(&sc.topo, &sc.data, &sc.spec, CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "ght");
}

#[test]
fn yang07_produces_results() {
    let sc = scenario(
        Algorithm::Yang07,
        InnetOptions::PLAIN,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        3,
    );
    // Yang+07 needs generous queues to survive at all (§4.2 observes its
    // routing queues overflow on synthetic topologies with defaults).
    let stats = run_stats(&sc, CYCLES);
    let oracle = oracle_result_count(&sc.topo, &sc.data, &sc.spec, CYCLES);
    // Through-the-base drops the S-tuple-to-window alignment (T windows
    // hold only local samples); expect the right order of magnitude.
    assert!(
        stats.results_total() > 0 && stats.results_total() < oracle * 3,
        "yang results {} oracle {oracle}",
        stats.results_total()
    );
}

#[test]
fn innet_cmg_not_worse_than_plain_innet() {
    let assumed = Sigma::new(0.5, 0.5, 0.05);
    let rates = Rates::new(2, 2, 20);
    let plain = scenario(Algorithm::Innet, InnetOptions::PLAIN, assumed, rates, 7);
    let cmg = scenario(Algorithm::Innet, InnetOptions::CMG, assumed, rates, 7);
    let ps = run_stats(&plain, 100);
    let cs = run_stats(&cmg, 100);
    // §5.3: MPO matches or beats plain Innet overall (small slack for
    // group-coordination overhead on short runs).
    assert!(
        (cs.total_traffic_bytes() as f64) < ps.total_traffic_bytes() as f64 * 1.15,
        "cmg {} vs plain {}",
        cs.total_traffic_bytes(),
        ps.total_traffic_bytes()
    );
    // Both compute the same join.
    let oracle = oracle_result_count(&plain.topo, &plain.data, &plain.spec, 100);
    assert_close_to_oracle(ps.results_total(), oracle, "plain");
    assert_close_to_oracle(cs.results_total(), oracle, "cmg");
}

#[test]
fn query0_one_to_one_all_algorithms_agree() {
    let topo = sensor_net::random_with_degree(80, 7.0, 11);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 11).with_pairs(10);
    let spec = query0(3);
    let oracle = oracle_result_count(&topo, &data, &spec, CYCLES);
    assert!(oracle > 0);
    for algo in [Algorithm::Naive, Algorithm::Base, Algorithm::Innet] {
        let sc = Scenario {
            topo: topo.clone(),
            data: data.clone(),
            spec: spec.clone(),
            cfg: AlgoConfig::new(algo, Sigma::new(0.5, 0.5, 0.2)),
            sim: SimConfig::lossless(),
            num_trees: 3,
        };
        let stats = run_stats(&sc, CYCLES);
        assert_close_to_oracle(stats.results_total(), oracle, algo.name());
    }
}

#[test]
fn query2_perimeter_innet() {
    let topo = sensor_net::random_with_degree(100, 7.0, 5);
    let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 10)), 5);
    let spec = query2(1);
    let sc = Scenario {
        topo: topo.clone(),
        data: data.clone(),
        spec: spec.clone(),
        cfg: AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.1))
            .with_innet_options(InnetOptions::CM),
        sim: SimConfig::lossless(),
        num_trees: 3,
    };
    let stats = run_stats(&sc, CYCLES);
    let oracle = oracle_result_count(&topo, &data, &spec, CYCLES);
    assert_close_to_oracle(stats.results_total(), oracle, "q2 innet");
}

#[test]
fn query3_region_join_on_intel_lab() {
    let topo = sensor_net::intel::intel_lab();
    let data =
        WorkloadData::new(&topo, Schedule::Uniform(Rates::new(1, 1, 5)), 2).with_humidity(&topo);
    let spec = query3(3);
    let sc = Scenario {
        topo: topo.clone(),
        data: data.clone(),
        spec: spec.clone(),
        cfg: AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 0.2)),
        sim: SimConfig::lossless(),
        num_trees: 3,
    };
    let stats = run_stats(&sc, 30);
    let oracle = oracle_result_count(&topo, &data, &spec, 30);
    assert_close_to_oracle(stats.results_total(), oracle, "q3");
}

#[test]
fn learning_recovers_from_wrong_estimates() {
    // Optimize for completely wrong selectivities; learning must bring
    // traffic close to the correctly-optimized run (Fig 10).
    let rates = Rates::new(10, 1, 5); // true: σs=0.1, σt=1, σst=0.2
    let right = Sigma::new(0.1, 1.0, 0.2);
    let wrong = Sigma::new(1.0, 0.1, 0.05);
    let mk = |assumed: Sigma, learning: bool| {
        let topo = sensor_net::random_with_degree(80, 7.0, 13);
        let data = WorkloadData::new(&topo, Schedule::Uniform(rates), 13).with_pairs(10);
        let opts = if learning {
            InnetOptions::PLAIN.with_learning()
        } else {
            InnetOptions::PLAIN
        };
        Scenario {
            topo,
            data,
            spec: query0(3),
            cfg: AlgoConfig::new(Algorithm::Innet, assumed).with_innet_options(opts),
            sim: SimConfig::lossless(),
            num_trees: 3,
        }
    };
    let cycles = 200;
    let oracle_run = run_stats(&mk(right, false), cycles);
    let wrong_static = run_stats(&mk(wrong, false), cycles);
    let wrong_learn = run_stats(&mk(wrong, true), cycles);
    // Learning must beat the static wrong-estimate run...
    assert!(
        wrong_learn.execution_traffic_bytes() < wrong_static.execution_traffic_bytes(),
        "learn {} vs static-wrong {}",
        wrong_learn.execution_traffic_bytes(),
        wrong_static.execution_traffic_bytes()
    );
    // ...and land within 2x of the correctly-informed run.
    assert!(
        wrong_learn.execution_traffic_bytes() < oracle_run.execution_traffic_bytes() * 2,
        "learn {} vs informed {}",
        wrong_learn.execution_traffic_bytes(),
        oracle_run.execution_traffic_bytes()
    );
}

#[test]
fn join_node_failure_recovers_via_base() {
    let rates = Rates::new(2, 2, 10);
    let mk = || {
        let topo = sensor_net::random_with_degree(80, 7.0, 17);
        let data = WorkloadData::new(&topo, Schedule::Uniform(rates), 17).with_pairs(4);
        Scenario {
            topo,
            data,
            spec: query0(3),
            cfg: AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.1)),
            sim: SimConfig::lossless(),
            num_trees: 3,
        }
    };
    let cycles = 60;
    // Baseline without failure.
    let clean_stats = run_stats(&mk(), cycles);
    // Kill the busiest join node mid-run.
    let mut faulty = mk().into_session();
    faulty.step(0);
    let victim = faulty.busiest_join_node().expect("a join node exists");
    assert_ne!(victim, NodeId(0), "base should not be the victim");
    faulty.set_plan(DynamicsPlan::none().kill_nodes(cycles / 2, vec![victim]));
    faulty.step(cycles);
    let faulty_stats = faulty.report();
    // Computation must continue: a decent share of the clean results.
    assert!(
        faulty_stats.results_total() as f64 > clean_stats.results_total() as f64 * 0.5,
        "failure lost too much: {} vs {}",
        faulty_stats.results_total(),
        clean_stats.results_total()
    );
    // Delay grows when pairs re-route through the base (§7/Fig 14).
    assert!(faulty_stats.avg_delay_tx() >= clean_stats.avg_delay_tx() * 0.9);
}

#[test]
fn innet_beats_naive_for_selective_long_queries() {
    // The headline claim (Fig 9a): for selective joins running long
    // enough, Innet's initiation cost amortizes and it beats Naive.
    let rates = Rates::new(10, 10, 20);
    let assumed = Sigma::new(0.1, 0.1, 0.05);
    let naive = scenario(Algorithm::Naive, InnetOptions::PLAIN, assumed, rates, 23);
    let innet = scenario(Algorithm::Innet, InnetOptions::CM, assumed, rates, 23);
    let cycles = 300;
    let ns = run_stats(&naive, cycles);
    let is = run_stats(&innet, cycles);
    assert!(
        is.total_traffic_bytes() < ns.total_traffic_bytes(),
        "innet {} vs naive {}",
        is.total_traffic_bytes(),
        ns.total_traffic_bytes()
    );
    // And per-cycle execution is cheaper from the start.
    assert!(is.execution_traffic_bytes() < ns.execution_traffic_bytes());
}

#[test]
fn deterministic_across_reruns() {
    let sc = scenario(
        Algorithm::Innet,
        InnetOptions::CMG,
        Sigma::new(0.5, 0.5, 0.2),
        Rates::new(2, 2, 5),
        29,
    );
    let a = run_stats(&sc, 20);
    let b = run_stats(&sc, 20);
    assert_eq!(a.total_traffic_bytes(), b.total_traffic_bytes());
    assert_eq!(a.results_total(), b.results_total());
}
