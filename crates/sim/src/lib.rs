//! # kairos-sim
//!
//! Discrete-event simulator of a heterogeneous cloud inference-serving
//! cluster, the experimental substrate of this Kairos (HPDC'23) reproduction.
//!
//! The paper evaluates Kairos on real AWS EC2 instances; this crate replaces
//! that testbed with a virtual-time simulation that preserves the properties
//! the scheduler and estimator rely on: one query per instance at a time,
//! deterministic near-linear service latency, Poisson arrivals, and QoS
//! accounting on the 99th-percentile tail (see DESIGN.md, "Substitutions").
//!
//! * [`cluster`] — instances, clusters, and the served model ([`ServiceSpec`]);
//!   clusters reconfigure at run time (provisioning, graceful draining) and
//!   instances can be preempted by an attached cloud market
//!   ([`SimEngine::with_market`]): notice → forced drain → kill, with
//!   in-flight work requeued and billing settled at the market's
//!   time-varying prices.
//! * [`scheduler`] — the policy interface ([`Scheduler`]) plus a naive FCFS
//!   baseline.
//! * [`engine`] — the event loop: [`SimEngine`] with incremental scheduler
//!   views, online reconfiguration ([`EngineEvent`] stepping and
//!   [`EngineHook`]s), and the [`engine::run_trace`] convenience wrapper.
//!   The naive event loop it is checked against lives in the dev-only
//!   `kairos-testkit` crate.
//! * [`sharded`] — [`ShardedEngine`], which replays each model lane of a
//!   multi-model trace on its own worker and merges one report, bit-identical
//!   to the combined engine's.
//! * [`stats`] — per-query records and QoS/throughput metrics.
//! * [`capacity`] — the allowable-throughput ramp of Sec. 7.
//!
//! ```
//! use kairos_models::{calibration::paper_calibration, ec2, Config, PoolSpec, ModelKind};
//! use kairos_sim::{engine::run_trace, engine::SimulationOptions, FcfsScheduler, ServiceSpec};
//! use kairos_workload::TraceSpec;
//!
//! let pool = PoolSpec::new(ec2::paper_pool());
//! let service = ServiceSpec::new(ModelKind::Wnd, paper_calibration());
//! let trace = TraceSpec::production(50.0, 1.0, 7).generate();
//! let mut scheduler = FcfsScheduler::new();
//! let report = run_trace(
//!     &pool,
//!     &Config::new(vec![1, 0, 1, 0]),
//!     &service,
//!     &trace,
//!     &mut scheduler,
//!     &SimulationOptions::default(),
//! );
//! assert_eq!(report.offered, trace.len());
//! ```

#![warn(missing_docs)]

pub mod calendar;
pub mod capacity;
pub mod cluster;
pub mod engine;
pub mod flex;
pub mod scheduler;
pub mod serverless;
pub mod sharded;
pub mod stats;

pub use capacity::{
    allowable_throughput, allowable_throughput_many, CapacityOptions, CapacityProber,
    CapacityResult,
};
pub use cluster::{Cluster, ClusterSpec, InstanceLifecycle, ModelPool, ServiceSpec, SimInstance};
pub use engine::{run_trace, ClusterAction, EngineEvent, EngineHook, SimEngine, SimulationOptions};
pub use flex::{BatchingOptions, SharingMode, SharingOptions};
pub use scheduler::{Dispatch, FcfsScheduler, InstanceView, Scheduler, SchedulingContext};
pub use serverless::ServerlessConfig;
pub use sharded::ShardedEngine;
pub use stats::{ModelReport, OutageRecord, QueryRecord, ServiceStats, SimReport, UnfinishedQuery};
