//! Dynamic join optimization in multi-hop wireless sensor networks.
//!
//! This crate is the paper's contribution: a cost-model-driven, fully
//! decentralized optimizer for windowed stream joins executing *inside*
//! the network, with the complete algorithm matrix of the evaluation:
//!
//! | Strategy | Module entry point |
//! |---|---|
//! | Naive / Base (grouped at base) | [`shared::Algorithm`] |
//! | GHT grouped join over GPSR | [`shared::Algorithm::Ght`] |
//! | Yang+07 through-the-base | [`shared::Algorithm::Yang07`] |
//! | Innet pairwise + cost placement (§3) | [`shared::Algorithm::Innet`] |
//! | Multicast/merging, group opt, path collapse (§5, App. E) | [`shared::InnetOptions`] |
//! | Adaptive learning + migration (§6) | [`learn`], [`node::adapt`] |
//! | Failure recovery (§7) | [`node::adapt`] |
//! | Centralized baseline (§4.3) | [`centralized`] |
//!
//! Execution goes through the [`session`] layer: a long-lived
//! [`session::Session`] serves a changing population of join queries over
//! one network — admit and retire queries online, step sampling cycles,
//! observe streaming telemetry, and collect one unified
//! [`session::Outcome`]:
//!
//! ```
//! use aspen_join::prelude::*;
//!
//! let topo = sensor_net::random_with_degree(60, 7.0, 1);
//! let data = sensor_workload::WorkloadData::new(
//!     &topo,
//!     Schedule::Uniform(Rates::new(2, 2, 5)),
//!     1,
//! );
//! let cfg = AlgoConfig::new(Algorithm::Innet, Sigma::new(0.5, 0.5, 0.2))
//!     .with_innet_options(InnetOptions::CMG);
//! let mut session = Session::builder(topo, data)
//!     .sim(SimConfig::lossless())
//!     .query(sensor_workload::query1(3), cfg)
//!     .build();
//! session.step(10);
//! let outcome = session.report();
//! assert!(outcome.total_traffic_bytes() > 0);
//! assert_eq!(outcome.per_query.len(), 1);
//! ```
//!
//! The paper's single-query figures run the same session with a
//! [`SessionBuilder::bare_wire`] (one fixed query, no query tag on the
//! air); [`Scenario::session`] builds one from a plain run descriptor.

pub mod cache;
pub mod centralized;
pub mod control;
pub mod cost;
pub mod federation;
pub mod learn;
pub mod msg;
pub mod multi;
pub mod multicast;
pub mod node;
pub mod optimize;
pub mod scenario;
pub mod session;
pub mod shared;

pub use cache::{region_of, spec_fingerprint, CacheEntry, CacheStats, LearnedCache};
pub use control::{
    decode_event, encode_event, Command, ControlError, QuerySummary, ReportSummary, Response,
    StopWhen, Target,
};
pub use cost::{pair_cost_at, pair_cost_at_base, place_join_node, Placement, Sigma};
pub use federation::{
    CrossId, CrossMode, Federation, FederationBuilder, FederationOutcome, GatewayReport,
    MemberReport,
};
pub use msg::{Msg, Pair};
pub use multi::{
    Lifecycle, MultiMsg, MultiNode, MultiRun, QueryInstance, QuerySet, QueryStats, Sharing,
};
pub use node::{JoinNode, RecoveryStats};
pub use optimize::{
    greedy, left_deep, optimize, sigmas_diverged, uniform_sigmas, Plan, PlanNode, PlanSpace,
};
pub use scenario::{oracle_graph_result_count, oracle_result_count, Scenario};
pub use session::{
    CycleView, EventLog, GraphId, Observer, Outcome, Phase, QueryId, Session, SessionBuilder,
    SessionEvent,
};
pub use shared::{AlgoConfig, Algorithm, InnetOptions, Shared};

/// Convenient glob import for examples and benches.
pub mod prelude {
    pub use crate::cache::CacheStats;
    pub use crate::control::{
        Command, ControlError, QuerySummary, ReportSummary, Response, StopWhen, Target,
    };
    pub use crate::cost::Sigma;
    pub use crate::federation::{
        CrossId, CrossMode, Federation, FederationBuilder, FederationOutcome,
    };
    pub use crate::multi::{Lifecycle, MultiRun, QueryInstance, QuerySet, QueryStats, Sharing};
    pub use crate::node::RecoveryStats;
    pub use crate::optimize::{greedy, left_deep, optimize, Plan, PlanSpace};
    pub use crate::scenario::{oracle_graph_result_count, oracle_result_count, Scenario};
    pub use crate::session::{
        CycleView, EventLog, GraphId, Observer, Outcome, Phase, QueryId, Session, SessionBuilder,
        SessionEvent,
    };
    pub use crate::shared::{AlgoConfig, Algorithm, InnetOptions};
    pub use sensor_sim::dynamics::DynamicsPlan;
    pub use sensor_sim::SimConfig;
    pub use sensor_workload::{Rates, Schedule};
}
