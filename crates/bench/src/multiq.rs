//! The `experiments multiq` harness: concurrent multi-query workloads on
//! one network, comparing delivery disciplines (independent per-query
//! frames vs shared-tree aggregation) with per-query *and* aggregate
//! metrics, multi-seed replication, and the thread-count-determinism
//! contract of the sweep subsystem.

use crate::harness::Report;
use crate::harness::{self, csv_stat, fan_out, seeds_json, Column, Experiment, Knobs, Metrics};
use crate::sweep::{algo_name, check_nodes, parse_algo, seed_range, MultiSpec, QueryId};
use aspen_join::prelude::*;
use aspen_join::{Algorithm, InnetOptions};
use sensor_net::{DensityClass, TopologySpec};
use sensor_sim::sweep::{stat_json, Json, SummaryStat, Table};
use sensor_workload::WorkloadData;

/// Aggregate metrics reported per (sharing mode) cell, in column order.
pub const MULTIQ_METRICS: [Column<Outcome>; 10] = [
    ("total_traffic_bytes", |o| o.total_traffic_bytes() as f64),
    ("base_load_bytes", |o| o.base_load_bytes() as f64),
    ("max_node_load_bytes", |o| o.max_node_load_bytes() as f64),
    ("total_traffic_msgs", |o| o.total_traffic_msgs() as f64),
    ("base_load_msgs", |o| o.base_load_msgs() as f64),
    ("results", |o| o.results_total() as f64),
    ("avg_delay_cycles", |o| o.avg_delay_tx()),
    ("shared_frame_bytes", |o| o.shared_flow.tx_bytes as f64),
    ("shared_frame_msgs", |o| o.shared_flow.tx_msgs as f64),
    ("expired_frames", |o| o.expired_frames as f64),
];

/// Everything one multiq comparison needs: the workload shape (minus the
/// sharing mode, which is the compared dimension) and run parameters.
#[derive(Debug, Clone)]
pub struct MultiqConfig {
    pub nodes: usize,
    pub density: DensityClass,
    pub loss: f64,
    /// Number of concurrent queries (≥ 2; the acceptance workload is 4).
    pub n_queries: usize,
    /// `Some(q)` = homogeneous set; `None` = mixed Q1/Q2 alternation.
    pub base_query: Option<QueryId>,
    /// Sampling cycles between consecutive arrivals (0 = all at cycle 0).
    pub stagger: u32,
    pub algo: (Algorithm, InnetOptions),
    pub rates: Rates,
    pub seeds: Vec<u64>,
    pub cycles: u32,
    pub num_trees: usize,
    /// OS threads; 0 = all cores. Output is identical for any value.
    pub threads: usize,
    /// Transmit-phase workers *inside* each run ([`SimConfig::threads`];
    /// 0 = all cores). Outcome-neutral like `threads`.
    pub run_threads: usize,
}

impl Default for MultiqConfig {
    /// The acceptance workload: 4 mixed queries on the standard 100-node
    /// moderate network, Innet-cmg, 3 seeds.
    fn default() -> Self {
        MultiqConfig {
            nodes: 100,
            density: DensityClass::Moderate,
            loss: SimConfig::default().loss_prob,
            n_queries: 4,
            base_query: None,
            stagger: 0,
            algo: (Algorithm::Innet, InnetOptions::CMG),
            rates: Rates::new(2, 2, 5),
            seeds: seed_range(3),
            cycles: 40,
            num_trees: 3,
            threads: 0,
            run_threads: 1,
        }
    }
}

impl MultiqConfig {
    /// The [`MultiSpec`] slug of one compared cell.
    pub fn spec(&self, sharing: Sharing) -> MultiSpec {
        MultiSpec {
            base: self.base_query,
            n: self.n_queries,
            stagger: self.stagger,
            sharing,
        }
    }

    fn run_one(&self, sharing: Sharing, seed: u64) -> Outcome {
        let topo = TopologySpec::new(self.density, self.nodes, seed).build();
        let data = WorkloadData::new(&topo, Schedule::Uniform(self.rates), seed);
        let cfg = AlgoConfig::new(self.algo.0, Sigma::from_rates(self.rates))
            .with_innet_options(self.algo.1);
        let sim = SimConfig::default()
            .with_loss(self.loss)
            .with_seed(seed)
            .with_threads(self.run_threads);
        let mut session = self
            .spec(sharing)
            .build_set(topo, data, cfg, sim, self.num_trees)
            .into_session();
        session.step(self.cycles);
        session.report()
    }
}

/// Seed-aggregated per-query observables within one mode.
#[derive(Debug, Clone)]
pub struct QueryAgg {
    pub name: String,
    pub arrival: u32,
    pub results: SummaryStat,
    pub delay: SummaryStat,
    /// This query's own (un-aggregated) execution TX bytes.
    pub own_tx_bytes: SummaryStat,
}

/// One sharing mode's aggregated replicates.
#[derive(Debug, Clone)]
pub struct ModeResult {
    pub sharing: Sharing,
    pub runs: usize,
    pub per_query: Vec<QueryAgg>,
    pub metrics: Metrics,
}

impl ModeResult {
    fn aggregate(cfg: &MultiqConfig, sharing: Sharing, rows: &[Outcome]) -> ModeResult {
        let m = cfg.spec(sharing);
        let per_query = (0..cfg.n_queries)
            .map(|q| {
                let col = |f: &dyn Fn(&Outcome) -> f64| {
                    SummaryStat::from_samples(&rows.iter().map(f).collect::<Vec<_>>())
                };
                QueryAgg {
                    name: format!("{}#{q}", m.member(q).name()),
                    // The authoritative lifecycle comes from the run, not
                    // a re-derivation of the stagger formula.
                    arrival: rows
                        .first()
                        .map(|r| r.per_query[q].arrival)
                        .unwrap_or(q as u32 * cfg.stagger),
                    results: col(&|r| r.per_query[q].results as f64),
                    delay: col(&|r| r.per_query[q].avg_delay_tx),
                    own_tx_bytes: col(&|r| r.per_query[q].flow.tx_bytes as f64),
                }
            })
            .collect();
        ModeResult {
            sharing,
            runs: rows.len(),
            per_query,
            metrics: Metrics::over(&MULTIQ_METRICS, rows),
        }
    }
}

/// The aggregated outcome of a multiq comparison, with the table / JSON /
/// CSV emitters.
#[derive(Debug, Clone)]
pub struct MultiqReport {
    pub spec_name: String,
    pub algo: String,
    pub nodes: usize,
    pub loss: f64,
    pub cycles: u32,
    pub seeds: Vec<u64>,
    pub cells: Vec<ModeResult>,
}

impl MultiqReport {
    pub fn mode(&self, sharing: Sharing) -> &ModeResult {
        self.cells
            .iter()
            .find(|c| c.sharing == sharing)
            .expect("mode present")
    }

    /// Per-query rows plus one aggregate row per sharing mode.
    pub fn to_table(&self) -> Table {
        let mut t = Table::new(vec![
            "mode",
            "query",
            "arrival",
            "results",
            "delay_cyc",
            "own_kb",
            "shared_kb",
            "traffic_kb",
            "base_kb",
            "maxload_kb",
        ]);
        let kb = |s: &SummaryStat| format!("{:.1}", s.mean / 1024.0);
        for c in &self.cells {
            for q in &c.per_query {
                t.push_row(vec![
                    c.sharing.name().to_string(),
                    q.name.clone(),
                    q.arrival.to_string(),
                    format!("{:.0}±{:.0}", q.results.mean, q.results.ci95),
                    format!("{:.1}", q.delay.mean),
                    kb(&q.own_tx_bytes),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                    "-".to_string(),
                ]);
            }
            t.push_row(vec![
                c.sharing.name().to_string(),
                "ALL".to_string(),
                "-".to_string(),
                format!(
                    "{:.0}±{:.0}",
                    c.metrics.get("results").mean,
                    c.metrics.get("results").ci95
                ),
                format!("{:.1}", c.metrics.get("avg_delay_cycles").mean),
                "-".to_string(),
                kb(c.metrics.get("shared_frame_bytes")),
                kb(c.metrics.get("total_traffic_bytes")),
                kb(c.metrics.get("base_load_bytes")),
                kb(c.metrics.get("max_node_load_bytes")),
            ]);
        }
        t
    }

    /// The headline comparison: how much shared-tree delivery saves over
    /// independent delivery, per aggregate metric (negative = regression).
    pub fn savings_line(&self) -> String {
        let indep = self.mode(Sharing::Independent);
        let shared = self.mode(Sharing::SharedTree);
        let pct = |m: &str| {
            let i = indep.metrics.get(m).mean;
            let s = shared.metrics.get(m).mean;
            if i > 0.0 {
                100.0 * (i - s) / i
            } else {
                0.0
            }
        };
        format!(
            "shared-tree vs independent: base load {:+.1}%, total traffic {:+.1}%, messages {:+.1}%",
            pct("base_load_bytes"),
            pct("total_traffic_bytes"),
            pct("total_traffic_msgs"),
        )
    }
}

impl Report for MultiqReport {
    fn json(&self) -> Json {
        let cells = self
            .cells
            .iter()
            .map(|c| {
                let per_query = c
                    .per_query
                    .iter()
                    .map(|q| {
                        Json::Obj(vec![
                            ("query".into(), Json::str(&q.name)),
                            ("arrival".into(), Json::num(q.arrival as f64)),
                            ("results".into(), stat_json(&q.results)),
                            ("delay_cycles".into(), stat_json(&q.delay)),
                            ("own_tx_bytes".into(), stat_json(&q.own_tx_bytes)),
                        ])
                    })
                    .collect();
                Json::Obj(vec![
                    ("mode".into(), Json::str(c.sharing.name())),
                    ("runs".into(), Json::num(c.runs as f64)),
                    ("queries".into(), Json::Arr(per_query)),
                    ("metrics".into(), c.metrics.json()),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::str(&self.spec_name)),
            ("algorithm".into(), Json::str(&self.algo)),
            ("nodes".into(), Json::num(self.nodes as f64)),
            ("loss".into(), Json::num(self.loss)),
            ("cycles".into(), Json::num(self.cycles as f64)),
            ("seeds".into(), seeds_json(&self.seeds)),
            ("cells".into(), Json::Arr(cells)),
        ])
    }

    /// Wide CSV: one row per (mode, query) plus one ALL row per mode.
    fn to_csv(&self) -> String {
        let mut headers: Vec<String> = ["mode", "query", "arrival", "runs"]
            .map(String::from)
            .into();
        for m in ["results", "delay_cycles", "own_tx_bytes"] {
            headers.extend(["mean", "stddev", "ci95"].map(|s| format!("{m}_{s}")));
        }
        headers.extend(MULTIQ_METRICS.iter().map(|(m, _)| format!("{m}_mean")));
        let mut t = Table::new(headers);
        for c in &self.cells {
            for q in &c.per_query {
                let mut row = vec![
                    c.sharing.name().to_string(),
                    q.name.clone(),
                    q.arrival.to_string(),
                    c.runs.to_string(),
                ];
                row.extend(csv_stat(&q.results));
                row.extend(csv_stat(&q.delay));
                row.extend(csv_stat(&q.own_tx_bytes));
                row.extend(MULTIQ_METRICS.iter().map(|_| String::new()));
                t.push_row(row);
            }
            let mut row = vec![
                c.sharing.name().to_string(),
                "ALL".to_string(),
                String::new(),
                c.runs.to_string(),
            ];
            row.extend(csv_stat(c.metrics.get("results")));
            row.extend(csv_stat(c.metrics.get("avg_delay_cycles")));
            row.extend(["", "", ""].map(String::from));
            row.extend(
                MULTIQ_METRICS
                    .iter()
                    .map(|&(m, _)| format!("{}", c.metrics.get(m).mean)),
            );
            t.push_row(row);
        }
        t.to_csv()
    }
}

impl Experiment for MultiqConfig {
    const NAME: &'static str = "multiq";
    const ABOUT: &'static str = "concurrent multi-query workloads, shared vs independent";
    const QUICK: &'static str = "CI smoke config (60 nodes, 4 mixed queries, 2 seeds, 20 cycles)";
    const USAGE: &'static str =
        "  --nodes N            topology size                  (default 100)
  --queries SPEC       workload: qKxN | mixN, optional @S arrival stagger
                       (default mix4; any +shared/+indep suffix is ignored —
                       both sharing modes always run and are compared)
  --algo A             naive|base|innet|innet-cm|innet-cmg|... (default innet-cmg)
  --loss P             link-loss probability in [0,1) (default 0.05)
  --cycles N           execution sampling cycles      (default 40)
  --trees N            routing trees                  (default 3)";
    type Report = MultiqReport;

    fn quick() -> Self {
        MultiqConfig {
            nodes: 60,
            seeds: seed_range(2),
            cycles: 20,
            ..MultiqConfig::default()
        }
    }

    fn flag(&mut self, name: &str, v: &str) -> Result<(), String> {
        use harness::number;
        match name {
            "--nodes" => self.nodes = number(name, v)?,
            "--queries" => {
                let m = MultiSpec::parse(v).ok_or_else(|| format!("bad workload spec {v}"))?;
                self.n_queries = m.n;
                self.base_query = m.base;
                self.stagger = m.stagger;
            }
            "--algo" => self.algo = parse_algo(v).ok_or_else(|| format!("bad algorithm {v}"))?,
            "--loss" => {
                self.loss = number(name, v)?;
                if !(0.0..1.0).contains(&self.loss) {
                    return Err("--loss must be in [0, 1)".into());
                }
            }
            "--cycles" => self.cycles = number(name, v)?,
            "--trees" => self.num_trees = number(name, v)?,
            _ => return Err(harness::unknown_option(name)),
        }
        Ok(())
    }

    fn validate(&self) -> Result<(), String> {
        if self.num_trees == 0 {
            return Err("--trees must be at least 1".into());
        }
        check_nodes("--nodes", self.nodes, self.density)
    }

    fn knobs(&mut self) -> Knobs<'_> {
        Knobs {
            seeds: &mut self.seeds,
            threads: &mut self.threads,
            run_threads: Some(&mut self.run_threads),
        }
    }

    fn cell_count(&self) -> usize {
        2
    }

    /// Fan every (mode, seed) run across OS threads and aggregate.
    fn run(&self) -> MultiqReport {
        let modes = [Sharing::Independent, Sharing::SharedTree];
        let samples = fan_out(&modes, &self.seeds, self.threads, |&m, s| {
            self.run_one(m, s)
        });
        let cells = modes
            .iter()
            .zip(samples)
            .map(|(&sharing, rows)| ModeResult::aggregate(self, sharing, &rows))
            .collect();
        MultiqReport {
            spec_name: self.spec(Sharing::Independent).name(),
            algo: algo_name(self.algo.0, self.algo.1),
            nodes: self.nodes,
            loss: self.loss,
            cycles: self.cycles,
            seeds: self.seeds.clone(),
            cells,
        }
    }

    fn stdout(r: &MultiqReport) -> String {
        r.to_table().to_aligned_string() + "\n" + &r.savings_line() + "\n"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shared_mode_forms_aggregate_frames() {
        let cfg = MultiqConfig {
            nodes: 40,
            n_queries: 4,
            seeds: seed_range(2),
            cycles: 8,
            threads: 0,
            ..MultiqConfig::quick()
        };
        let rep = cfg.run();
        assert_eq!(rep.cells.len(), 2);
        for c in &rep.cells {
            assert_eq!(c.per_query.len(), 4);
            assert!(
                c.metrics.get("results").mean > 0.0,
                "{} delivered nothing",
                c.sharing.name()
            );
        }
        // The independent mode never forms aggregate frames.
        assert_eq!(
            rep.mode(Sharing::Independent)
                .metrics
                .get("shared_frame_msgs")
                .mean,
            0.0
        );
        assert!(
            rep.mode(Sharing::SharedTree)
                .metrics
                .get("shared_frame_msgs")
                .mean
                > 0.0
        );
    }
}
