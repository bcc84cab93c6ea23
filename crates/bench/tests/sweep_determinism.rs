//! Deterministic-replay contract of the sweep subsystem: a grid cell is
//! fully identified by its spec + seed, so repeating a run must reproduce
//! *byte-identical* metrics, and a report must not depend on how many OS
//! threads the runs were fanned across.

use aspen_bench::sweep::{DynamicsSpec, QueryId, SweepGrid};
use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_net::TopologySpec;
use sensor_workload::WorkloadData;

fn small_grid(threads: usize) -> SweepGrid {
    SweepGrid {
        sizes: vec![40, 60],
        loss_probs: vec![0.0, 0.1],
        queries: vec![QueryId::Q1.into()],
        algorithms: vec![
            (Algorithm::Naive, InnetOptions::PLAIN),
            (Algorithm::Innet, InnetOptions::CMG),
        ],
        seeds: vec![1000, 1001],
        cycles: 8,
        threads,
        ..SweepGrid::default()
    }
}

/// Same seed + same grid cell ⇒ byte-identical `Metrics` across two
/// independently constructed runs (the engine RNG, workload and topology
/// are all derived from the cell spec and seed alone).
#[test]
fn same_seed_same_cell_identical_metrics() {
    let run = || {
        let grid = small_grid(1);
        let cell = grid.cells()[3]; // a lossy Innet-cmg cell
        let topo = TopologySpec::new(cell.density, cell.nodes, 1000).build();
        let data = WorkloadData::new(&topo, Schedule::Uniform(cell.rates), 1000);
        let mut sim = SimConfig::default().with_loss(cell.loss).with_seed(1000);
        if cell.opts.path_collapse {
            sim = sim.with_snooping(true);
        }
        let sc = Scenario {
            topo,
            data,
            spec: cell.query.single().expect("single-query cell").spec(),
            cfg: AlgoConfig::new(cell.algo, Sigma::from_rates(cell.rates))
                .with_innet_options(cell.opts),
            sim,
            num_trees: 3,
        };
        aspen_bench::run_stats(&sc, grid.cycles)
    };
    let (a, b) = (run(), run());
    // Metrics implements Eq: every per-node counter must match exactly.
    assert_eq!(a.initiation, b.initiation);
    assert_eq!(a.execution, b.execution);
    assert_eq!(a.results_total(), b.results_total());
    assert_eq!(a.avg_delay_tx(), b.avg_delay_tx());
}

/// A sweep report is identical whether the runs executed on 1 thread or N:
/// fan-out must not perturb RNG streams, aggregation order, or formatting.
#[test]
fn sweep_report_identical_across_thread_counts() {
    let single = small_grid(1).run();
    let multi = small_grid(4).run();
    assert_eq!(single.to_json(), multi.to_json());
    assert_eq!(single.to_csv(), multi.to_csv());
    assert_eq!(
        single.to_table().to_aligned_string(),
        multi.to_table().to_aligned_string()
    );
    // And the run produced real work, not trivially-equal empty reports.
    assert_eq!(single.cells.len(), 8);
    assert!(single
        .cells
        .iter()
        .all(|c| c.stat("total_traffic_bytes").mean > 0.0));
}

/// Repeating the whole sweep reproduces the whole report (stability of the
/// multi-seed aggregation itself).
#[test]
fn sweep_report_reproducible_end_to_end() {
    let a = small_grid(0).run();
    let b = small_grid(0).run();
    assert_eq!(a.to_json(), b.to_json());
}

/// The determinism contract extends to the dynamics dimension: failure
/// schedules (random, targeted, region), rate shifts and loss ramps draw
/// their victims from the plan seed, never from shared state — so a
/// recovery sweep's report is byte-identical for any thread count.
#[test]
fn dynamics_sweep_identical_across_thread_counts() {
    let grid = |threads: usize| SweepGrid {
        sizes: vec![40],
        queries: vec![QueryId::Q0.into()],
        algorithms: vec![(aspen_join::Algorithm::Innet, InnetOptions::PLAIN)],
        dynamics: vec![
            DynamicsSpec::None,
            DynamicsSpec::RandomKill {
                count: 2,
                at_cycle: 5,
            },
            DynamicsSpec::JoinKill { at_cycle: 5 },
            DynamicsSpec::RegionKill {
                radius: 1.5,
                at_cycle: 5,
            },
            DynamicsSpec::RateShift { at_cycle: 5 },
            DynamicsSpec::LossRamp {
                loss: 0.3,
                at_cycle: 5,
            },
        ],
        seeds: vec![1000, 1001],
        cycles: 12,
        threads,
        ..SweepGrid::default()
    };
    let single = grid(1).run();
    let multi = grid(4).run();
    assert_eq!(single.to_json(), multi.to_json());
    assert_eq!(
        single.to_recovery_table().to_aligned_string(),
        multi.to_recovery_table().to_aligned_string()
    );
    // The faulty cells did real recovery work (not trivially-zero rows).
    assert!(single
        .cells
        .iter()
        .filter(|c| !matches!(c.spec.dynamics, DynamicsSpec::None))
        .any(|c| c.stat("repair_attempts").mean + c.stat("tuples_lost").mean > 0.0));
}

/// Multi-query cells keep the contract: a concurrent `QuerySet` run is
/// fully determined by its cell spec + seed, so mixed single/multi grids
/// stay byte-identical across thread counts.
#[test]
fn multi_query_sweep_identical_across_thread_counts() {
    use aspen_bench::sweep::WorkloadSel;
    let grid = |threads: usize| SweepGrid {
        // 60 nodes: Query 1 needs producer ids beyond 50 to exist.
        sizes: vec![60],
        queries: vec![
            QueryId::Q1.into(),
            WorkloadSel::parse("mix2").unwrap(),
            WorkloadSel::parse("mix2@3+shared").unwrap(),
        ],
        algorithms: vec![(Algorithm::Innet, InnetOptions::CM)],
        seeds: vec![1000, 1001],
        cycles: 8,
        threads,
        ..SweepGrid::default()
    };
    let single = grid(1).run();
    let multi = grid(4).run();
    assert_eq!(single.to_json(), multi.to_json());
    assert_eq!(single.to_csv(), multi.to_csv());
    assert!(single
        .cells
        .iter()
        .all(|c| c.stat("results").mean > 0.0 && c.stat("total_traffic_bytes").mean > 0.0));
}
