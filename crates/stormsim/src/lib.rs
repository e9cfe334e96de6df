//! # mtm-stormsim
//!
//! A discrete-event simulator of a Storm/Trident-like distributed stream
//! processor — the substrate this reproduction tunes instead of the paper's
//! physical 80-machine cluster.
//!
//! The moving parts mirror Storm's architecture (paper §III-A/B):
//!
//! * [`topology`] — directed graphs of spouts and bolts with per-node time
//!   complexity (compute units per tuple, 1 unit ≈ 1 ms of one core),
//!   resource-contention flags (per-tuple cost scales with the bolt's task
//!   count, §IV-B2), selectivity, and per-edge grouping/routing,
//! * [`config`] — the Table I configuration surface: parallelism hints,
//!   max-tasks normalization, batch size/parallelism, worker and receiver
//!   threads, acker count,
//! * [`cluster`] — the hardware model (80 machines × 4 cores, 1 Gbps,
//!   context-switch and coordination overheads, measurement noise),
//! * [`placement`] — the even scheduler assigning task instances to
//!   workers,
//! * [`flow`] — steady-state tuple-flow computation shared by both
//!   simulators,
//! * [`tuple_sim`] — a per-tuple discrete-event simulation (events: tuple
//!   service, emission, acking, batch commit) built on [`engine`],
//! * [`flow_sim`] — a fast batch/flow-level performance model evaluating
//!   the same configuration surface analytically; this is what the
//!   thousands of optimization runs in the benches call,
//! * [`metrics`] — throughput, per-worker network MB/s (Fig. 3),
//!   utilization and bottleneck attribution.
//!
//! A validation test (`tests/` crate) checks the two simulators agree on
//! small topologies.

pub mod cluster;
pub mod config;
pub mod engine;
pub mod flow;
pub mod flow_sim;
pub mod metrics;
pub mod noise;
pub mod placement;
pub mod simulator;
pub mod topology;
pub mod tuple_sim;

pub use cluster::ClusterSpec;
pub use config::{ConfigError, StormConfig};
pub use flow_sim::simulate_flow_with;
pub use metrics::SimResult;
pub use simulator::{FlowSimulator, SimBatch, SimError, Simulator, TupleSimulator};
pub use topology::{Grouping, NodeId, NodeKind, RoutePolicy, Topology, TopologyBuilder};
pub use tuple_sim::{simulate_tuples_with, TupleSimOptions};

// Runtime invariant guards, available to callers when the
// `strict-invariants` feature is on.
#[cfg(feature = "strict-invariants")]
pub use mtm_check::invariants;
