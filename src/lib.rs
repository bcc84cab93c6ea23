//! Aspen sensor-network join optimization — workspace facade.
//!
//! Reproduction of "Dynamic Join Optimization in Multi-Hop Wireless Sensor
//! Networks" (Mihaylov, Jacob, Ives, Guha; VLDB 2010). This crate re-exports
//! the subsystem crates under one roof for examples and integration tests.
//!
//! - [`net`] — topologies and geometry
//! - [`sim`] — the discrete-time network simulator, including the
//!   network-dynamics subsystem ([`sim::dynamics`]): declarative fault
//!   plans (scheduled kills, region outages, loss ramps) fired at
//!   sampling-cycle boundaries
//! - [`summaries`] — Bloom filter / interval / R-tree index summaries
//! - [`routing`] — routing trees, the multi-tree substrate, GHT/GPSR, DHT
//! - [`query`] — query model, CNF, static/dynamic predicate classification
//! - [`workload`] — Table 1/2 workloads and the Intel-lab humidity model
//! - [`join`] — the paper's contribution: cost-based, adaptive join
//!   optimization (Naive, Base, GHT, Yang+07, Innet and MPO variants).
//!   Execution goes through the unified [`join::session`] layer: a
//!   long-lived `Session` per network with online query
//!   admission/retirement (`admit`/`retire`), `step`/`run_until` time
//!   control, pluggable `Observer` telemetry (per-cycle views plus
//!   admission/migration/death/loss-shift events) and one `Outcome`
//!   report; the concurrent multi-query machinery ([`join::multi`] —
//!   per-query lifecycle, independent vs shared-tree frame delivery)
//!   is its tagged wire format
//! - [`bench`](mod@bench) — the experiments: one harness for the six grid
//!   subcommands ([`bench::harness`]), the declarative
//!   multi-seed scenario-sweep subsystem ([`bench::sweep`], built on the
//!   engine-side fan-out in [`sim::sweep`]) with its `dynamics` grid
//!   dimension, §7 recovery metrics (`experiments recovery`), the
//!   multi-query `queries` dimension (`q1x4`, `mix4@5+shared`) and the
//!   `experiments multiq` comparison harness ([`bench::multiq`])

pub use aspen_bench as bench;
pub use aspen_join as join;
pub use aspen_serve as serve;
pub use sensor_net as net;
pub use sensor_query as query;
pub use sensor_routing as routing;
pub use sensor_sim as sim;
pub use sensor_summaries as summaries;
pub use sensor_workload as workload;
