//! # kairos-core
//!
//! The primary contribution of *Kairos: Building Cost-Efficient Machine
//! Learning Inference Systems with Heterogeneous Cloud Resources* (HPDC'23):
//!
//! 1. **Query distribution** ([`distribution::KairosScheduler`], Sec. 5.1) —
//!    at every scheduling instant, queued queries are matched to instances by
//!    a min-cost bipartite matching over heterogeneity-weighted predicted
//!    completion times, with QoS-violating pairs penalized.  Latencies are
//!    learned online; no prior profiling is required.
//! 2. **Throughput upper-bound estimation and configuration selection**
//!    ([`upper_bound`], [`selection`], [`planner::KairosPlanner`], Sec. 5.2) —
//!    every configuration under the cost budget is ranked by a closed-form
//!    throughput upper bound and the final configuration is picked by a
//!    similarity rule, with **zero** online evaluations.
//! 3. **Kairos+** ([`kairos_plus`], Algorithm 1) — an optional
//!    upper-bound-guided online search that finds the optimum with very few
//!    evaluations thanks to bound and sub-configuration pruning.
//! 4. **Central controller** ([`controller::KairosController`], Sec. 6) —
//!    the online glue: query monitoring, latency learning, (re)planning and
//!    scheduler construction, including the POP-style sharded planning mode.
//! 5. **Online serving loop** ([`serving::ServingSystem`]) — the controller
//!    in the loop of a live, reconfigurable cluster: it observes every
//!    arrival and completion, replans on a cadence or on arrival-rate drift,
//!    and steers the cluster to the new plan through graceful add/retire
//!    actions (the Fig. 12 adaptation story, end to end).
//! 6. **Multi-model serving** ([`service::InferenceService`]) — the
//!    model-less facade: N per-model lanes behind one model-tagged query
//!    API, sharing a single hourly budget by demand-weighted water-filling,
//!    each replanning on its own knowledge signature.  The facade owns
//!    every fleet-wide attachment; `ServingSystem` is its one-lane form, and
//!    both drive the same control loop through the same `MultiScheduler`,
//!    returning the same `MultiServingOutcome`; the loop's replan clock
//!    follows from the lane count.
//! 7. **Serverless lane** ([`serverless::ServerlessRuntime`]) — scale-to-zero
//!    for the sparse model tail: lanes planned below a QPS threshold drop
//!    their always-on budget floor, receive one parkable base-instance
//!    vessel, and adopt a keep-alive policy whose bits fold into the
//!    knowledge signature.
//!
//! ```
//! use kairos_core::planner::KairosPlanner;
//! use kairos_models::{calibration::paper_calibration, ec2, ModelKind, PoolSpec};
//! use kairos_workload::BatchSizeDistribution;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // Plan a heterogeneous pool for RM2 under a 2.5 $/hr budget.
//! let planner = KairosPlanner::new(
//!     PoolSpec::new(ec2::paper_pool()),
//!     ModelKind::Rm2,
//!     paper_calibration(),
//! );
//! let mut rng = StdRng::seed_from_u64(1);
//! let sample = BatchSizeDistribution::production_default().sample_many(&mut rng, 2000);
//! let plan = planner.plan(2.5, &sample);
//! assert!(plan.chosen.cost(&PoolSpec::new(ec2::paper_pool())) <= 2.5);
//! ```

#![warn(missing_docs)]

pub mod coefficient;
mod control_loop;
pub mod controller;
pub mod distribution;
pub mod kairos_plus;
pub mod planner;
pub mod selection;
pub mod serverless;
pub mod service;
pub mod serving;
pub mod upper_bound;
pub mod variants;

pub use coefficient::heterogeneity_coefficients;
pub use controller::KairosController;
pub use distribution::{KairosScheduler, DEFAULT_XI};
pub use kairos_plus::{kairos_plus_search, SearchResult};
pub use planner::{KairosPlanner, Plan, PlanCache, ScoredPlan};
pub use selection::select_configuration;
pub use serverless::ServerlessRuntime;
pub use service::{InferenceService, MultiScheduler, MultiServingOutcome};
pub use serving::{
    MarketState, ModelLane, PurchaseBackoff, ReconfigEvent, ReplanTrigger, ServingOptions,
    ServingSystem, VariantSwitch,
};
pub use upper_bound::{
    upper_bound_general, upper_bound_single, AuxClass, ScoredSpace, SingleAuxInputs,
    ThroughputEstimator,
};
pub use variants::{
    build_lanes, paper_variant_planner, prune_dominated, VariantChoice, VariantLane,
    VariantPlanner, VariantRuntime,
};
