//! The determinism contract of the experiment harness, checked through
//! the one driver `experiments <grid> --check-determinism` runs
//! ([`check_determinism`]): a report's JSON, CSV and stdout are
//! byte-identical at fan-out threads 1, 2 and 8 and intra-run threads
//! 1, 2 and 8. Each experiment runs its quick grid at one seed, and each
//! baseline must carry real work, so the comparison is not between
//! trivially-equal empty reports.

use aspen_bench::federate::FederateConfig;
use aspen_bench::harness::{check_determinism, Experiment, Report};
use aspen_bench::multiq::MultiqConfig;
use aspen_bench::optimize::OptimizeConfig;
use aspen_bench::sweep::{seed_range, DynamicsSpec, QueryId, Recovery, SweepGrid, WorkloadSel};
use aspen_bench::warmstart::WarmstartConfig;
use aspen_join::{Algorithm, InnetOptions};

/// Run `exp`, check it through the harness's determinism driver, and
/// return the baseline report.
fn deterministic<E: Experiment>(exp: E) -> E::Report {
    let report = exp.run();
    check_determinism(&exp, &report).unwrap_or_else(|e| panic!("{e}"));
    report
}

/// Check the experiment's quick grid at one seed, and that its baseline
/// did real work (not a trivially-equal empty report).
fn quick_is_deterministic<E: Experiment>(real_work: fn(&E::Report) -> bool) {
    let mut exp = E::quick();
    *exp.knobs().seeds = seed_range(1);
    assert!(
        real_work(&deterministic(exp)),
        "{} did no real work",
        E::NAME
    );
}

#[test]
fn sweep_is_deterministic() {
    // Every cell carries real traffic.
    quick_is_deterministic::<SweepGrid>(|r| {
        r.cells
            .iter()
            .all(|c| c.metrics.get("total_traffic_bytes").mean > 0.0)
    });
}

#[test]
fn recovery_is_deterministic() {
    // Some cell exercises failure recovery.
    quick_is_deterministic::<Recovery>(|r| {
        r.cells.iter().any(|c| {
            c.metrics.get("repair_attempts").mean + c.metrics.get("tuples_lost").mean > 0.0
        })
    });
}

#[test]
fn multiq_is_deterministic() {
    // Both sharing modes deliver results.
    quick_is_deterministic::<MultiqConfig>(|r| {
        r.cells.iter().all(|c| c.metrics.get("results").mean > 0.0)
    });
}

#[test]
fn optimize_is_deterministic() {
    quick_is_deterministic::<OptimizeConfig>(|r| {
        r.cells.iter().all(|c| c.metrics.get("dp_cost").mean > 0.0)
    });
}

#[test]
fn warmstart_is_deterministic() {
    // Cold sessions migrate pairs; warm ones hit the cache.
    quick_is_deterministic::<WarmstartConfig>(|r| {
        r.mode(false).metrics.get("migrated_pairs").mean > 0.0
            && r.mode(true).metrics.get("hit_rate").mean > 0.0
    });
}

#[test]
fn federate_is_deterministic() {
    // Both modes deliver cross-network results.
    quick_is_deterministic::<FederateConfig>(|r| {
        r.cells
            .iter()
            .all(|c| c.metrics.get("cross_results").mean > 0.0)
    });
}

/// The contract extends to every dynamics scenario: failure schedules
/// (random, targeted, region), rate shifts and loss ramps draw their
/// victims from the plan seed, never from shared state.
#[test]
fn dynamics_sweep_is_deterministic() {
    let grid = SweepGrid {
        sizes: vec![40],
        queries: vec![QueryId::Q0.into()],
        algorithms: vec![(Algorithm::Innet, InnetOptions::PLAIN)],
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
        ..SweepGrid::default()
    };
    let r = deterministic(Recovery(grid));
    // The faulty cells did real recovery work (not trivially-zero rows).
    assert!(r
        .cells
        .iter()
        .filter(|c| !matches!(c.spec.dynamics, DynamicsSpec::None))
        .any(|c| c.metrics.get("repair_attempts").mean + c.metrics.get("tuples_lost").mean > 0.0));
}

/// Multi-query cells keep the contract: a concurrent query set is fully
/// determined by its cell spec and seed, so mixed single/multi grids
/// (with staggered arrivals and shared delivery) stay byte-identical.
#[test]
fn multi_query_sweep_is_deterministic() {
    let grid = SweepGrid {
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
        ..SweepGrid::default()
    };
    let r = deterministic(grid);
    assert!(r.cells.iter().all(|c| {
        c.metrics.get("results").mean > 0.0 && c.metrics.get("total_traffic_bytes").mean > 0.0
    }));
    // Multi cells appear under their slug in every output.
    assert!(r.to_json().contains("\"query\": \"mix2@3+shared\""));
    assert!(r.to_csv().contains("mix2@3+shared"));
    assert!(SweepGrid::stdout(&r).contains("mix2@3+shared"));
}

/// Same seed + same grid cell ⇒ byte-identical per-node metrics across
/// two independent runs (the engine RNG, workload and topology are all
/// derived from the cell spec and seed alone).
#[test]
fn same_seed_same_cell_identical_metrics() {
    let grid = SweepGrid {
        sizes: vec![40, 60],
        loss_probs: vec![0.0, 0.1],
        algorithms: vec![
            (Algorithm::Naive, InnetOptions::PLAIN),
            (Algorithm::Innet, InnetOptions::CMG),
        ],
        ..SweepGrid::default()
    };
    let cell = grid.cells()[3]; // a lossy Innet-cmg cell
    let (a, b) = (cell.run_one(1000, 8, 3, 1), cell.run_one(1000, 8, 3, 1));
    // Metrics implements Eq: every per-node counter must match exactly.
    assert_eq!(a.initiation, b.initiation);
    assert_eq!(a.execution, b.execution);
    assert_eq!(a.results_total(), b.results_total());
    assert_eq!(a.avg_delay_tx(), b.avg_delay_tx());
}
