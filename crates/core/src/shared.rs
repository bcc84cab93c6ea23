//! Run-wide immutable configuration shared by every node's protocol
//! instance, plus the algorithm/option matrix of the evaluation.

use crate::cost::Sigma;
use sensor_net::{NodeId, Topology};
use sensor_query::JoinQuerySpec;
use sensor_routing::ght::GpsrRouter;
use sensor_routing::MultiTreeSubstrate;
use sensor_workload::WorkloadData;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// The join algorithm families of §2.2 / §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// Grouped at base, no initiation, selection push-down only.
    Naive,
    /// Grouped at base with static-join pre-filtering of producers.
    Base,
    /// Grouped at GHT home nodes (GPSR routing).
    Ght,
    /// Through-the-base (Yang+07).
    Yang07,
    /// Pairwise in-network with cost-based placement (the paper's).
    Innet,
}

impl Algorithm {
    pub fn name(self) -> &'static str {
        match self {
            Algorithm::Naive => "Naive",
            Algorithm::Base => "Base",
            Algorithm::Ght => "GHT",
            Algorithm::Yang07 => "Yang+07",
            Algorithm::Innet => "Innet",
        }
    }
}

/// Innet option matrix: the -c/-m/-p/-g suffixes of the evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InnetOptions {
    /// Multicast trees with cached interior state + opportunistic merging
    /// of results ("-cm").
    pub multicast: bool,
    /// Group-based optimization, Algorithm 1 ("-g").
    pub group_opt: bool,
    /// Path collapsing via snooping, Algorithms 2-3 ("-p").
    pub path_collapse: bool,
    /// Adaptive selectivity learning and join-node migration (§6).
    pub learning: bool,
}

impl InnetOptions {
    pub const PLAIN: InnetOptions = InnetOptions {
        multicast: false,
        group_opt: false,
        path_collapse: false,
        learning: false,
    };
    pub const CM: InnetOptions = InnetOptions {
        multicast: true,
        ..Self::PLAIN
    };
    pub const CMG: InnetOptions = InnetOptions {
        multicast: true,
        group_opt: true,
        ..Self::PLAIN
    };
    pub const CMP: InnetOptions = InnetOptions {
        multicast: true,
        path_collapse: true,
        ..Self::PLAIN
    };
    pub const CMPG: InnetOptions = InnetOptions {
        multicast: true,
        group_opt: true,
        path_collapse: true,
        ..Self::PLAIN
    };

    pub fn with_learning(mut self) -> Self {
        self.learning = true;
        self
    }

    pub fn suffix(&self) -> String {
        let mut s = String::new();
        if self.multicast {
            s.push_str("cm");
        }
        if self.path_collapse {
            s.push('p');
        }
        if self.group_opt {
            s.push('g');
        }
        let mut out = if s.is_empty() {
            "Innet".to_string()
        } else {
            format!("Innet-{s}")
        };
        if self.learning {
            out.push_str(" learn");
        }
        out
    }
}

/// Full algorithm configuration for one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AlgoConfig {
    pub algorithm: Algorithm,
    pub innet: InnetOptions,
    /// Selectivities the optimizer *assumes* (§3's a-priori knowledge; §6
    /// starts from wrong values and learns).
    pub assumed: Sigma,
    /// Sampling cycles between learning evaluations at join nodes.
    pub learn_interval: u32,
    /// Re-optimization trigger (paper: 0.33).
    pub divergence_threshold: f64,
}

impl AlgoConfig {
    pub fn new(algorithm: Algorithm, assumed: Sigma) -> Self {
        AlgoConfig {
            algorithm,
            innet: InnetOptions::PLAIN,
            assumed,
            learn_interval: 20,
            divergence_threshold: 0.33,
        }
    }

    pub fn with_innet_options(mut self, o: InnetOptions) -> Self {
        self.innet = o;
        self
    }

    pub fn label(&self) -> String {
        match self.algorithm {
            Algorithm::Innet => self.innet.suffix(),
            a => a.name().to_string(),
        }
    }
}

/// Display name for an algorithm + options pair ("Naive", "Innet-cmg",
/// "Innet-cmg-learn", …) — the slug grammar every sweep CLI and the serve
/// wire protocol share.
pub fn algo_name(algo: Algorithm, opts: InnetOptions) -> String {
    match algo {
        Algorithm::Innet => opts.suffix().replace(' ', "-"),
        a => a.name().to_string(),
    }
}

/// Parse a sweep-style algorithm slug back into the option matrix
/// (case-insensitive; accepts bare enum names like "ght" too). The
/// inverse of [`algo_name`] over the evaluation's 11 combinations.
pub fn parse_algo(s: &str) -> Option<(Algorithm, InnetOptions)> {
    let all: [(Algorithm, InnetOptions); 11] = [
        (Algorithm::Naive, InnetOptions::PLAIN),
        (Algorithm::Base, InnetOptions::PLAIN),
        (Algorithm::Ght, InnetOptions::PLAIN),
        (Algorithm::Yang07, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::PLAIN),
        (Algorithm::Innet, InnetOptions::CM),
        (Algorithm::Innet, InnetOptions::CMP),
        (Algorithm::Innet, InnetOptions::CMG),
        (Algorithm::Innet, InnetOptions::CMPG),
        // Learning variants ("innet-learn", "innet-cmg-learn"): §6
        // adaptation on — the interesting setting under dynamics plans.
        (Algorithm::Innet, InnetOptions::PLAIN.with_learning()),
        (Algorithm::Innet, InnetOptions::CMG.with_learning()),
    ];
    let want = s.to_ascii_lowercase();
    all.into_iter().find(|&(a, o)| {
        algo_name(a, o).to_ascii_lowercase() == want || {
            // Accept the bare enum name too ("ght" for "GHT").
            a != Algorithm::Innet && a.name().to_ascii_lowercase() == want
        }
    })
}

/// Immutable run context shared across nodes (via `Arc`). The liveness
/// oracle is the one mutable element: the harness marks nodes dead on
/// failure and neighbors consult it as the outcome of local liveness
/// probes (§7).
pub struct Shared {
    pub topo: Topology,
    pub sub: Arc<MultiTreeSubstrate>,
    pub gpsr: Option<GpsrRouter>,
    pub spec: JoinQuerySpec,
    pub data: WorkloadData,
    pub cfg: AlgoConfig,
    /// Transmission cycles per sampling cycle — the engine's
    /// `SimConfig::tx_per_sampling_cycle`, which dates a result's birth
    /// for delay accounting.
    pub tx_per_sampling_cycle: u32,
    /// `spec.data_bytes()`, computed once: every send prices its message.
    data_bytes: u32,
    /// `spec.result_bytes()`, computed once.
    result_bytes: u32,
    /// One flag per node, set once the node is known dead. A flag
    /// publishes no other data and is written only between engine steps,
    /// so relaxed loads see every death.
    dead: Vec<AtomicBool>,
}

impl Shared {
    /// The run context of one query over `topo`'s routing `sub`strate. A
    /// GPSR router is built only for [`Algorithm::Ght`]; `dead` seeds the
    /// liveness oracle with the nodes known dead at admission.
    pub fn new(
        topo: &Topology,
        sub: Arc<MultiTreeSubstrate>,
        spec: JoinQuerySpec,
        data: &WorkloadData,
        cfg: AlgoConfig,
        dead: &[NodeId],
        tx_per_sampling_cycle: u32,
    ) -> Shared {
        let sh = Shared {
            topo: topo.clone(),
            sub,
            gpsr: matches!(cfg.algorithm, Algorithm::Ght).then(|| GpsrRouter::new(topo)),
            data_bytes: spec.data_bytes(),
            result_bytes: spec.result_bytes(),
            spec,
            data: data.clone(),
            cfg,
            tx_per_sampling_cycle,
            dead: (0..topo.len()).map(|_| AtomicBool::new(false)).collect(),
        };
        for &n in dead {
            sh.mark_dead(n);
        }
        sh
    }

    pub fn base(&self) -> NodeId {
        self.topo.base()
    }

    pub fn is_dead(&self, n: NodeId) -> bool {
        self.dead[n.index()].load(Ordering::Relaxed)
    }

    pub fn mark_dead(&self, n: NodeId) {
        self.dead[n.index()].store(true, Ordering::Relaxed);
    }

    /// Data-tuple wire size for this query.
    pub fn data_bytes(&self) -> u32 {
        self.data_bytes
    }

    pub fn result_bytes(&self) -> u32 {
        self.result_bytes
    }

    /// Primary-tree path between two nodes (BestRoute-style id routing).
    pub fn tree_path(&self, a: NodeId, b: NodeId) -> Vec<NodeId> {
        self.sub.primary().path_between(a, b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_labels() {
        assert_eq!(InnetOptions::PLAIN.suffix(), "Innet");
        assert_eq!(InnetOptions::CM.suffix(), "Innet-cm");
        assert_eq!(InnetOptions::CMG.suffix(), "Innet-cmg");
        assert_eq!(InnetOptions::CMPG.suffix(), "Innet-cmpg");
        assert_eq!(InnetOptions::PLAIN.with_learning().suffix(), "Innet learn");
    }

    /// The wire sizes `Shared` caches at construction are the spec's own,
    /// for the paper's Query 1 and for the compiled edges of a join graph.
    #[test]
    fn cached_wire_sizes_match_the_spec() {
        use sensor_workload::{query1, Rates, Schedule};
        let topo = sensor_net::random_with_degree(30, 7.0, 1);
        let data = WorkloadData::new(&topo, Schedule::Uniform(Rates::new(2, 2, 5)), 1);
        let sub = Arc::new(MultiTreeSubstrate::build(
            &topo,
            1,
            crate::scenario::default_indexed_attrs(),
            &data,
        ));
        let graph = sensor_query::parse_join_graph(
            "SELECT a.id, c.x FROM a, b, c [windowsize=3 sampleinterval=100] \
             WHERE a.id < 10 AND b.id >= 10 AND b.id < 20 AND c.id >= 20 \
             AND a.u = b.u AND b.v = c.v",
        )
        .expect("graph parses");
        let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 1.0));
        for spec in [query1(3), graph.edge_spec(0), graph.edge_spec(1)] {
            let want = (spec.data_bytes(), spec.result_bytes());
            let sh = Shared::new(&topo, sub.clone(), spec, &data, cfg, &[], 100);
            assert_eq!((sh.data_bytes(), sh.result_bytes()), want);
        }
    }

    #[test]
    fn config_labels() {
        let c = AlgoConfig::new(Algorithm::Naive, Sigma::new(1.0, 1.0, 1.0));
        assert_eq!(c.label(), "Naive");
        let c = AlgoConfig::new(Algorithm::Innet, Sigma::new(1.0, 1.0, 1.0))
            .with_innet_options(InnetOptions::CMG);
        assert_eq!(c.label(), "Innet-cmg");
    }
}
