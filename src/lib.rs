//! # kairos
//!
//! A Rust reproduction of **Kairos: Building Cost-Efficient Machine Learning
//! Inference Systems with Heterogeneous Cloud Resources** (HPDC 2023).
//!
//! Kairos serves ML inference queries on a *heterogeneous* pool of cloud
//! instances (one GPU base type plus cheaper CPU auxiliary types) and
//! maximizes query throughput under a QoS tail-latency target and a cost
//! budget.  It does so with two techniques: a min-cost bipartite-matching
//! query distributor, and a closed-form throughput upper bound that picks a
//! near-optimal heterogeneous configuration without any online exploration.
//!
//! This facade crate re-exports the workspace members:
//!
//! * [`core`] (`kairos-core`) — the paper's contribution: query distribution,
//!   upper-bound estimation, configuration selection, Kairos+ search, and the
//!   online controller.
//! * [`models`] (`kairos-models`) — instance catalogue, model catalogue,
//!   latency calibration, online latency predictor, configuration arithmetic.
//! * [`workload`] (`kairos-workload`) — batch-size distributions, arrival
//!   processes, traces, and the query monitor.
//! * [`sim`] (`kairos-sim`) — the discrete-event cluster simulator and the
//!   allowable-throughput search.
//! * [`assignment`] (`kairos-assignment`) — rectangular linear-sum assignment
//!   solvers (Jonker–Volgenant and friends).
//! * [`baselines`] (`kairos-baselines`) — Ribbon, DeepRecSys, Clockwork,
//!   Oracle and the configuration-search baselines.
//!
//! See `examples/quickstart.rs` for an end-to-end tour and `DESIGN.md` for
//! the architecture and reproduction methodology.

#![warn(missing_docs)]

pub use kairos_assignment as assignment;
pub use kairos_baselines as baselines;
pub use kairos_core as core;
pub use kairos_models as models;
pub use kairos_sim as sim;
pub use kairos_workload as workload;

/// Convenience prelude bringing the most commonly used types into scope.
pub mod prelude {
    pub use kairos_baselines::{
        static_overprovision, AutoscalerOptions, ClockworkScheduler, DrsScheduler,
        ReactiveAutoscaler, RibbonScheduler,
    };
    pub use kairos_core::{
        InferenceService, KairosController, KairosPlanner, KairosScheduler, MarketState,
        MultiServingOutcome, ServerlessRuntime, ServingOptions, ServingSystem, ThroughputEstimator,
        VariantChoice, VariantPlanner, VariantRuntime, VariantSwitch,
    };
    pub use kairos_models::{
        calibration::paper_calibration, ec2, ColdStartCost, ColdStartProfile, Config,
        ConstantMarket, EffectiveModel, FailureDomain, FaultEvent, FaultProcess, KeepAlivePolicy,
        LatencyTable, Market, MarketEvent, ModelKind, ModelVariant, Offering, OfferingCatalog,
        PoolSpec, PreemptionProcess, PriceTrace, PurchaseOption, ThroughputDegradation,
        TraceMarket, VariantCatalog, VariantError,
    };
    pub use kairos_sim::{
        allowable_throughput, run_trace, BatchingOptions, CapacityOptions, ClusterAction,
        ClusterSpec, EngineEvent, EngineHook, FcfsScheduler, Scheduler, ServerlessConfig,
        ServiceSpec, ShardedEngine, SharingOptions, SimEngine, SimulationOptions,
    };
    pub use kairos_workload::{
        ArrivalProcess, BatchSizeDistribution, MixSpec, MixedTraceSpec, ModelId, Phase,
        PhasedArrival, QueryMonitor, Trace, TraceSpec,
    };
}
